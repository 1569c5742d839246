"""Entry point: works as ``python -m benchmarks.ledger`` and as a script.

Run as a plain file (``python3 benchmarks/ledger/__main__.py``, the form
``BENCHMARK.json`` uses) there is no package context, so the repository
root is put on ``sys.path`` first and the package imported absolutely.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"ledger: {ROOT / 'src' / 'repro'} not found; run from a full checkout")
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.ledger.cli import main  # noqa: E402

sys.exit(main())
