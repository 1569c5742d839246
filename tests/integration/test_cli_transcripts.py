"""Frozen CLI behaviour: what ``python -m repro`` prints, exports and exits with.

ISSUE 18 rebuilds ``repro.cli`` around ``repro.api`` (flags declared
once, one exit-code guard).  Frozen first (PR 14's method):
``cli_transcripts.json`` holds, for every invocation below run
in-process through ``main(argv)`` at the commit *before* that rewrite,
the exit code, stdout, stderr and the SHA-256 of every file the command
exported; ``cli_surface.json`` holds the argparse surface of every
subcommand (help text excluded).  Cases run in file order in one
scratch directory (``{tmp}`` in argv and output), because later cases
read what earlier ones exported.

A PR that changes CLI output on purpose re-captures with
``PYTHONPATH=src python tests/integration/test_cli_transcripts.py`` and
reviews the JSON diff.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest

from repro.cli import build_parser, main

HERE = Path(__file__).parent
TRANSCRIPTS = HERE / "cli_transcripts.json"
SURFACE = HERE / "cli_surface.json"

#: ``sort --selfperf`` prints host wall-clock figures; everything else
#: a command prints is a function of its arguments.
_WALL_CLOCK = [
    (re.compile(r"^(    \S+ +)\d+\.\d{3} s$", re.M), r"\1<wall> s"),
    (re.compile(r"^(  throughput     : ).*$", re.M), r"\1<wall>"),
]


def _mask(text: str, tmp: str) -> str:
    text = text.replace(tmp, "{tmp}")
    for pattern, repl in _WALL_CLOCK:
        text = pattern.sub(repl, text)
    return text


def run_cases(doc: dict) -> list:
    """Run every case of ``doc`` in order; one observed record each."""
    observed = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in doc["files"].items():
            Path(tmp, name).write_text(content, encoding="utf-8")
        seen = set(os.listdir(tmp))
        for case in doc["cases"]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main([a.replace("{tmp}", tmp) for a in case["argv"]])
            new = sorted(set(os.listdir(tmp)) - seen)
            seen.update(new)
            observed.append({
                "argv": case["argv"],
                "rc": rc,
                "stdout": _mask(out.getvalue(), tmp),
                "stderr": _mask(err.getvalue(), tmp),
                "exports": {
                    name: hashlib.sha256(Path(tmp, name).read_bytes()).hexdigest()
                    for name in new
                },
            })
    return observed


def parser_surface() -> dict:
    """Every subcommand's arguments, as argparse will parse them."""
    parser = build_parser()
    (sub,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return {
        command: [
            {
                "option_strings": a.option_strings,
                "dest": a.dest,
                "default": a.default,
                "choices": None if a.choices is None else list(a.choices),
                "type": None if a.type is None else a.type.__name__,
                "nargs": a.nargs,
                "action": type(a).__name__,
                "metavar": a.metavar,
                "required": a.required,
            }
            for a in sub_parser._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        for command, sub_parser in sub.choices.items()
    }


FROZEN = json.loads(TRANSCRIPTS.read_text())


@pytest.fixture(scope="module")
def observed():
    return run_cases(FROZEN)


@pytest.mark.parametrize(
    "index", range(len(FROZEN["cases"])),
    ids=[
        f"{i:02d}-" + re.sub(r"[^a-z0-9]+", "-", " ".join(c["argv"]))[:48]
        for i, c in enumerate(FROZEN["cases"])
    ],
)
def test_transcript_replays_byte_identical(index, observed):
    assert observed[index] == FROZEN["cases"][index]


def test_parser_surface_is_frozen():
    assert parser_surface() == json.loads(SURFACE.read_text())


def test_cases_cover_every_subcommand_and_exit_code():
    cases = FROZEN["cases"]
    assert len(cases) >= 50
    assert {c["argv"][0] for c in cases} == set(parser_surface())
    assert {c["rc"] for c in cases} == {0, 1, 2}
    assert sum(len(c["exports"]) for c in cases) >= 6


if __name__ == "__main__":  # re-capture; see the module docstring
    FROZEN["cases"] = run_cases(FROZEN)
    TRANSCRIPTS.write_text(json.dumps(FROZEN, indent=1) + "\n")
    SURFACE.write_text(json.dumps(parser_surface(), indent=1) + "\n")
