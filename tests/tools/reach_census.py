"""Reach census: which function lines of ``src/repro`` the product runs.

A ``sys.setprofile`` hook, installed before the first ``import repro`` so
import-time calls count, records every code object called while the
*product surface* runs:

* the product test files (the paper claims and shapes, the frozen CLI
  transcripts, and the merge / batch / service fingerprints), with the
  hook re-installed before every test phase so a test that swaps the
  profiler out loses at most its own calls;
* one seed-2023 iteration of each perf-ledger workload (set-up included);
* every ``examples/*.py``, run as a script.

Each top-level function and method of ``src/repro`` (a nested function
counts with the one it sits in) is *reached* when its own code object
was called.  The report sums the lines of the ones that were not; with
``--tier1`` the whole tier-1 suite runs afterwards (about twenty minutes
more) and splits those into tests-only and never reached.

``--check`` exits 1 when the product-unreached lines exceed
:data:`CEILING`.  Lower the ceiling when a change deletes unreached
code; a change that adds code no product path reaches has to earn it a
path (a claim row, a ledger leg, a frozen transcript) or go.

Run from the repository root (about three minutes on two cores)::

    python tests/tools/reach_census.py [--check] [--list] [--tier1]
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import runpy
import sys
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

#: Product-unreached function lines ``--check`` allows.
CEILING = 1_388

PRODUCT_TESTS = [
    "tests/integration/test_claims.py",
    "tests/integration/test_paper_shapes.py",
    "tests/integration/test_cli_transcripts.py",
    "tests/integration/test_merge_fingerprints.py",
    "tests/integration/test_batch_fingerprints.py",
    "tests/integration/test_service_fingerprints.py",
]
LEDGER_SEED = 2023

#: ``(file, first line) -> (qualified name, lines)``.
Table = Dict[Tuple[str, int], Tuple[str, int]]


class Recorder:
    """The profile hook: adds every called code object to ``seen``."""

    def __init__(self) -> None:
        self.seen: Set[object] = set()
        seen_add = self.seen.add

        def hook(frame, event, _arg):
            if event == "call":
                seen_add(frame.f_code)

        self.hook = hook

    def install(self) -> None:
        sys.setprofile(self.hook)

    def reached(self) -> Set[Tuple[str, int]]:
        return {(code.co_filename, code.co_firstlineno) for code in self.seen}


class _PerTest:
    """pytest plugin: put the hook back before every test phase."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder

    def pytest_runtest_setup(self, item):
        self.recorder.install()

    def pytest_runtest_call(self, item):
        self.recorder.install()

    def pytest_runtest_teardown(self, item):
        self.recorder.install()


def function_table() -> Table:
    """Every top-level function and method of ``src/repro``."""
    table: Table = {}
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, kinds):
                defs = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                defs = [
                    (f"{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, kinds)
                ]
            else:
                continue
            for name, fn in defs:
                # A decorated function's code starts at its first decorator.
                first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
                table[(str(path), first)] = (name, fn.end_lineno - first + 1)
    return table


def _run_pytest(args: List[str], recorder: Recorder) -> None:
    import pytest

    code = pytest.main(args + ["-q", "-p", "no:cacheprovider"], plugins=[_PerTest(recorder)])
    sys.setprofile(recorder.hook)
    if code != 0:
        raise SystemExit(f"reach census: pytest {' '.join(args)} exited {code}")


def run_product(recorder: Recorder) -> None:
    recorder.install()
    import repro  # noqa: F401  (import-time calls count)

    _run_pytest([str(ROOT / t) for t in PRODUCT_TESTS], recorder)

    from benchmarks.ledger import workloads
    from benchmarks.ledger.worker import iteration

    for name, build in workloads.WORKLOADS.items():
        workload = build()
        workload.setup(LEDGER_SEED)
        sys.setprofile(recorder.hook)
        _sample, outcome = iteration(workload)
        if outcome.failed:
            raise SystemExit(f"reach census: ledger workload {name} failed its check")

    for example in sorted((ROOT / "examples").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(example), run_name="__main__")
    sys.setprofile(None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help=f"exit 1 when unreached lines exceed the ceiling ({CEILING})")
    parser.add_argument("--list", action="store_true",
                        help="print every unreached function, largest first")
    parser.add_argument("--tier1", action="store_true",
                        help="also run tier-1 and split the unreached lines")
    args = parser.parse_args(argv)
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))

    product = Recorder()
    run_product(product)
    table = function_table()
    reached = product.reached()
    unreached = {key: row for key, row in table.items() if key not in reached}
    total = sum(lines for _name, lines in table.values())
    missed = sum(lines for _name, lines in unreached.values())
    print(f"reach census of {SRC.relative_to(ROOT)}: {len(table)} functions, {total} lines")
    print(f"  product-reached   {total - missed:6d} lines")
    print(f"  product-unreached {missed:6d} lines in {len(unreached)} functions"
          f" (ceiling {CEILING})")

    if args.tier1:
        tier1 = Recorder()
        tier1.install()
        _run_pytest([str(ROOT / "tests")], tier1)
        sys.setprofile(None)
        tests_only = {key for key in unreached if key in tier1.reached()}
        tests_lines = sum(unreached[key][1] for key in tests_only)
        print(f"    reached only by tier-1 {tests_lines:6d} lines")
        print(f"    never reached          {missed - tests_lines:6d} lines")

    if args.list:
        for (path, first), (name, lines) in sorted(
            unreached.items(), key=lambda kv: (-kv[1][1], kv[0])
        ):
            print(f"{lines:5d}  {Path(path).relative_to(ROOT)}:{first}  {name}")

    if args.check and missed > CEILING:
        print(f"reach census: {missed} product-unreached lines exceed the ceiling "
              f"{CEILING}; give the new code a product path or delete it")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
