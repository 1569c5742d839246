"""Every single-fault plan of a small sort, exhaustively.

A 20,000-record sort issues only a handful of timed ops, so instead of
sampling crash points (``test_chaos.py``) this sweep runs
``repro sort --faults crash@op:k`` and ``--faults torn@op:k`` for every
op index ``k`` the sort issues, with the op count taken from a
count-only probe of the same run.  Each run must exit 0, leave the
fault-free output byte for byte, leave nothing else under the output's
name, and take no less simulated time than the fault-free run.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import api
from repro.cli import main
from repro.faults import FaultPlan
from repro.machine import Machine
from repro.records.gensort import generate_dataset
from repro.registry import create_system

RECORDS = 20_000
SYSTEMS = ["wiscsort", "wiscsort-merge", "ems"]


def _op_count(system: str, checkpoint: bool) -> int:
    """Timed file ops of the fault-free run; crash plans checkpoint, and
    the manifest writes are ops too."""
    o = api.RunOptions(records=RECORDS, system=system)
    machine = Machine()
    data = generate_dataset(machine, "input", RECORDS, seed=o.seed)
    sort = create_system(system)
    sort.checkpoint = checkpoint
    probe = machine.install_faults(FaultPlan(), count_only=True)
    sort.run(machine, data, validate=False)
    return probe.op_index


def _sort(monkeypatch, capsys, system: str, *extra: str):
    """``repro sort`` in process: (exit code, result of its api.sort)."""
    results = []
    sort = api.sort

    def keep(*args, **kwargs):
        results.append(sort(*args, **kwargs))
        return results[-1]

    with monkeypatch.context() as patch:
        patch.setattr(api, "sort", keep)
        rc = main(["sort", "--records", str(RECORDS), "--system", system, *extra])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "output : validated" in out
    (result,) = results
    return result


def _digest_and_strays(result):
    fs = result.extras["machine"].fs
    name = result.output_name
    strays = [f for f in fs.list() if f.startswith(name + ".")]
    return hashlib.sha256(bytes(fs.open(name).peek())).hexdigest(), strays


@pytest.mark.parametrize("system", SYSTEMS)
def test_every_single_crash_and_torn_write_recovers(system, monkeypatch, capsys):
    clean = _sort(monkeypatch, capsys, system)
    want, strays = _digest_and_strays(clean)
    assert strays == []
    sweep = [("crash", k) for k in range(_op_count(system, checkpoint=True))]
    sweep += [("torn", k) for k in range(_op_count(system, checkpoint=False))]
    assert len(sweep) >= 8
    for kind, k in sweep:
        case = f"{system} {kind}@op:{k}"
        result = _sort(monkeypatch, capsys, system, "--faults", f"{kind}@op:{k}")
        report = result.extras["fault_report"]
        if kind == "crash":
            assert report.crashes == report.recoveries == 1, case
        assert _digest_and_strays(result) == (want, []), case
        assert result.total_time >= clean.total_time, case
