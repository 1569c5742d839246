"""``reprolint`` driver: lint files/trees, print findings, set exit code.

Run it as a module::

    PYTHONPATH=src python -m repro.analysis.lint src/repro
    PYTHONPATH=src python -m repro.analysis.lint src tests --format json
    PYTHONPATH=src python -m repro.analysis.lint --list-rules

Exit status is 0 when no findings survive the pragma filter, 1 when any
do, 2 on usage errors.  The rules themselves live in
:mod:`repro.analysis.rules`; the pragma escape hatch in
:mod:`repro.analysis.pragmas`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.rules import RULES, Finding, check_module

#: Directories never descended into.
_SKIP_DIRS = {".git", "__pycache__", ".venv", "node_modules", ".ruff_cache"}


def iter_python_files(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.extend(
                f
                for f in sorted(p.rglob("*.py"))
                if not (_SKIP_DIRS & set(part for part in f.parts))
            )
        elif p.suffix == ".py":
            out.append(p)
    return out


def lint_paths(
    paths: Sequence[str], select: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Lint every python file under ``paths``; returns all findings."""
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(
                Finding(str(path), 0, 0, "IO000", f"cannot read file: {exc}")
            )
            continue
        try:
            findings.extend(check_module(source, str(path), select))
        except SyntaxError as exc:
            findings.append(
                Finding(
                    str(path),
                    exc.lineno or 0,
                    exc.offset or 0,
                    "E999",
                    f"syntax error: {exc.msg}",
                )
            )
    return findings


def lint_source(
    source: str, path: str = "<string>", select: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Lint an in-memory module (used by the rule unit tests)."""
    return check_module(source, path, select)


def _render_text(findings: List[Finding], checked: int) -> str:
    lines = [f.render() for f in findings]
    lines.append(
        f"reprolint: {len(findings)} finding(s) in {checked} file(s) checked"
    )
    return "\n".join(lines)


def _render_github(findings: List[Finding], checked: int) -> str:
    """GitHub Actions workflow-command annotations, one per finding.

    Lines print to stdout inside a CI step; the runner turns each
    ``::error`` into an inline PR annotation at the named location.
    """
    lines = [
        f"::error file={f.path},line={f.line},col={f.col},"
        f"title=reprolint {f.rule}::{f.message}"
        for f in findings
    ]
    lines.append(
        f"reprolint: {len(findings)} finding(s) in {checked} file(s) checked"
    )
    return "\n".join(lines)


def _render_json(findings: List[Finding], checked: int) -> str:
    return json.dumps(
        {
            "files_checked": checked,
            "findings": [f.as_dict() for f in findings],
            "summary": {"total": len(findings)},
        },
        indent=1,
        sort_keys=True,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="repo-specific determinism / charge-accounting linter",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--format", choices=("text", "json", "github"), default="text",
        dest="fmt",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print rule ids and exit"
    )
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule, desc in sorted(RULES.items()):
            print(f"{rule}  {desc}")
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given", file=sys.stderr)
        return 2
    select = None
    if args.select is not None:
        select = [r.strip() for r in args.select.split(",") if r.strip()]
    try:
        files = iter_python_files(args.paths)
        findings = lint_paths(args.paths, select)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    if args.fmt == "json":
        print(_render_json(findings, len(files)))
    elif args.fmt == "github":
        print(_render_github(findings, len(files)))
    else:
        print(_render_text(findings, len(files)))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
