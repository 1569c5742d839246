"""The perf ledger: five workloads, both clocks, per-layer attribution.

See ``README.md`` in this directory; run with
``python3 benchmarks/ledger/__main__.py`` (or
``PYTHONPATH=src python -m benchmarks.ledger``) from the repository root.
"""
