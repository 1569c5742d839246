"""Every single-fault plan of a small sort, and every crash pair, exhaustively.

A 20,000-record sort issues only a handful of timed ops, so instead of
sampling crash points (``test_chaos.py``) this sweep runs
``repro sort --faults crash@op:k``, ``torn@op:k``, ``enospc@op:k`` and
``enospc@op:k+2`` for every op index ``k`` the sort issues, with the op
count taken from a count-only probe of the same run, and every ordered
pair ``crash@op:a,crash@op:b`` with ``b`` reaching through the recovery
window (a crash during recovery).  Each run must exit 0, leave the
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


def _check(monkeypatch, capsys, system, spec, clean, want):
    """One fault plan through ``repro sort``: the four properties."""
    result = _sort(monkeypatch, capsys, system, "--faults", spec)
    case = f"{system} {spec}"
    assert _digest_and_strays(result) == (want, []), case
    assert result.total_time >= clean.total_time, case
    return result.extras["fault_report"]


@pytest.mark.parametrize("system", SYSTEMS)
def test_every_single_crash_and_torn_write_recovers(system, monkeypatch, capsys):
    clean = _sort(monkeypatch, capsys, system)
    want, strays = _digest_and_strays(clean)
    assert strays == []
    ops = _op_count(system, checkpoint=False)
    sweep = [f"crash@op:{k}" for k in range(_op_count(system, checkpoint=True))]
    sweep += [f"{kind}@op:{k}" for kind in ("torn", "enospc") for k in range(ops)]
    sweep += [f"enospc@op:{k}+2" for k in range(ops)]
    assert len(sweep) >= 14
    enospc_injected = 0
    for spec in sweep:
        report = _check(monkeypatch, capsys, system, spec, clean, want)
        if spec.startswith("crash"):
            assert report.crashes == report.recoveries == 1, spec
        else:
            assert report.crashes == 0, spec
        if spec.startswith("enospc"):
            enospc_injected += report.stats["faults_injected"]
    # An ENOSPC window over a read op injects nothing; over a write it must.
    assert enospc_injected > 0


@pytest.mark.parametrize("system", ["wiscsort", "ems"])
def test_every_crash_pair_recovers(system, monkeypatch, capsys):
    """A second crash at any later op, through the first one's recovery.

    A pair whose second op lies past the end of the first crash's
    recovered run fires once; every other pair crashes during recovery.
    """
    clean = _sort(monkeypatch, capsys, system)
    want, _ = _digest_and_strays(clean)
    ends = [
        _check(monkeypatch, capsys, system, f"crash@op:{a}", clean, want).stats["ops_seen"]
        for a in range(_op_count(system, checkpoint=True))
    ]
    fired = []
    for a in range(len(ends)):
        for b in range(a + 1, max(ends)):
            spec = f"crash@op:{a},crash@op:{b}"
            report = _check(monkeypatch, capsys, system, spec, clean, want)
            assert report.crashes == report.recoveries, spec
            assert report.crashes in (1, 2), spec
            fired.append(report.crashes)
    assert fired.count(2) >= len(ends), fired
