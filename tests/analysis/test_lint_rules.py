"""Per-rule unit tests for reprolint (repro.analysis.lint / .rules)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.lint import lint_paths, lint_source, main
from repro.analysis.rules import RULES, rules_for_path

REPO = Path(__file__).resolve().parents[2]

#: A src-tree-looking path so no rule is path-exempted.
SRC = "src/repro/sim/something.py"
#: A core path, where DEV001 is live.
CORE = "src/repro/core/something.py"


def rules_hit(source, path=SRC, select=None):
    return sorted({f.rule for f in lint_source(source, path, select)})


# ----------------------------------------------------------------------
# SIM001: wall-clock reads
# ----------------------------------------------------------------------


class TestSIM001:
    def test_time_module_call_flagged(self):
        src = "import time\nt = time.perf_counter()\n"
        (f,) = lint_source(src, SRC, ["SIM001"])
        assert f.rule == "SIM001"
        assert "perf_counter" in f.message
        assert f.line == 2

    def test_aliased_import_flagged(self):
        src = "import time as _t\nx = _t.monotonic()\n"
        assert rules_hit(src, select=["SIM001"]) == ["SIM001"]

    def test_from_import_flagged(self):
        src = "from time import perf_counter\nx = perf_counter()\n"
        assert rules_hit(src, select=["SIM001"]) == ["SIM001"]

    def test_datetime_now_flagged(self):
        src = "from datetime import datetime\nx = datetime.now()\n"
        assert rules_hit(src, select=["SIM001"]) == ["SIM001"]

    def test_simulated_clock_ok(self):
        src = "def f(engine):\n    return engine.now\n"
        assert rules_hit(src, select=["SIM001"]) == []

    def test_time_sleep_ok(self):
        # Only clock *reads* are flagged (sleep is caught by review, not
        # this rule) -- time.sleep is not in the wall-clock read set.
        src = "import time\ntime.sleep(1)\n"
        assert rules_hit(src, select=["SIM001"]) == []

    def test_perf_paths_exempt(self):
        src = "import time\nt = time.perf_counter()\n"
        for path in ("src/repro/perf/profiler.py", "benchmarks/bench_x.py",
                     "tests/test_x.py"):
            assert lint_source(src, path, ["SIM001"]) == []


# ----------------------------------------------------------------------
# SIM002: unseeded RNG
# ----------------------------------------------------------------------


class TestSIM002:
    def test_module_level_random_flagged(self):
        src = "import random\nx = random.random()\n"
        (f,) = lint_source(src, SRC, ["SIM002"])
        assert "seeded" in f.message

    def test_unseeded_random_instance_flagged(self):
        src = "import random\nrng = random.Random()\n"
        assert rules_hit(src, select=["SIM002"]) == ["SIM002"]

    def test_seeded_random_instance_ok(self):
        src = "import random\nrng = random.Random(42)\n"
        assert rules_hit(src, select=["SIM002"]) == []

    def test_np_legacy_global_flagged(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert rules_hit(src, select=["SIM002"]) == ["SIM002"]

    def test_unseeded_default_rng_flagged(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert rules_hit(src, select=["SIM002"]) == ["SIM002"]

    def test_seeded_default_rng_ok(self):
        src = "import numpy as np\nrng = np.random.default_rng(7)\n"
        assert rules_hit(src, select=["SIM002"]) == []

    def test_not_exempt_in_tests(self):
        # Unlike the other rules, SIM002 applies everywhere -- a test
        # with unseeded randomness is a flaky test.
        src = "import random\nx = random.random()\n"
        assert rules_hit(src, path="tests/test_x.py", select=["SIM002"]) == [
            "SIM002"
        ]


# ----------------------------------------------------------------------
# SIM003: unordered iteration
# ----------------------------------------------------------------------


class TestSIM003:
    def test_for_over_set_literal_flagged(self):
        src = "for x in {1, 2, 3}:\n    print(x)\n"
        assert rules_hit(src, select=["SIM003"]) == ["SIM003"]

    def test_for_over_set_variable_flagged(self):
        src = "s = set()\nfor x in s:\n    print(x)\n"
        assert rules_hit(src, select=["SIM003"]) == ["SIM003"]

    def test_sorted_wrapper_ok(self):
        src = "s = set()\nfor x in sorted(s):\n    print(x)\n"
        assert rules_hit(src, select=["SIM003"]) == []

    def test_dict_values_flagged(self):
        src = "d = {}\nxs = [v for v in d.values()]\n"
        assert rules_hit(src, select=["SIM003"]) == ["SIM003"]

    def test_list_of_set_flagged(self):
        src = "s = set()\nxs = list(s)\n"
        assert rules_hit(src, select=["SIM003"]) == ["SIM003"]

    def test_known_set_attribute_flagged(self):
        # fluid.FluidScheduler.active and ._dirty_keys are known sets
        # even through an attribute alias.
        src = "def f(self):\n    keys = self._dirty_keys\n    for k in keys:\n        pass\n"
        assert rules_hit(src, select=["SIM003"]) == ["SIM003"]

    def test_rebinding_clears_tracking(self):
        src = "s = set()\ns = [1, 2]\nfor x in s:\n    pass\n"
        assert rules_hit(src, select=["SIM003"]) == []

    def test_membership_test_ok(self):
        src = "s = set()\nif 3 in s:\n    pass\n"
        assert rules_hit(src, select=["SIM003"]) == []

    def test_building_a_set_ok(self):
        # set comprehension *over* a set: the result is unordered anyway.
        src = "s = set()\nt = {x for x in s}\n"
        assert rules_hit(src, select=["SIM003"]) == []


# ----------------------------------------------------------------------
# SIM004: float equality on simulated time
# ----------------------------------------------------------------------


class TestSIM004:
    def test_eq_on_time_name_flagged(self):
        src = "def f(now, deadline):\n    return now == deadline\n"
        (f,) = lint_source(src, SRC, ["SIM004"])
        assert "time_eq" in f.message

    def test_ne_on_time_suffix_flagged(self):
        src = "def f(op):\n    return op.finished_at != 0.0\n"
        assert rules_hit(src, select=["SIM004"]) == ["SIM004"]

    def test_comparison_with_none_ok(self):
        src = "def f(op):\n    return op.finished_at is None or op.finished_at == None\n"
        assert rules_hit(src, select=["SIM004"]) == []

    def test_ordering_comparisons_ok(self):
        src = "def f(now, deadline):\n    return now <= deadline\n"
        assert rules_hit(src, select=["SIM004"]) == []

    def test_non_time_names_ok(self):
        src = "def f(count, total):\n    return count == total\n"
        assert rules_hit(src, select=["SIM004"]) == []


# ----------------------------------------------------------------------
# DEV001: uncharged byte moves in core/ and baselines/
# ----------------------------------------------------------------------


class TestDEV001:
    def test_peek_in_core_flagged(self):
        src = "def f(input_file):\n    return input_file.peek()\n"
        (f,) = lint_source(src, CORE, ["DEV001"])
        assert "peek" in f.message

    def test_poke_in_baselines_flagged(self):
        src = "def f(out):\n    out.poke(0, b'x')\n"
        path = "src/repro/baselines/x.py"
        assert rules_hit(src, path=path, select=["DEV001"]) == ["DEV001"]

    def test_data_attribute_in_core_flagged(self):
        src = "def f(f2):\n    return f2._data[0]\n"
        assert rules_hit(src, path=CORE, select=["DEV001"]) == ["DEV001"]

    def test_inactive_outside_core(self):
        src = "def f(input_file):\n    return input_file.peek()\n"
        assert rules_hit(src, path=SRC, select=["DEV001"]) == []

    def test_tests_exempt(self):
        src = "def f(input_file):\n    return input_file.peek()\n"
        path = "tests/core/test_x.py"
        assert rules_hit(src, path=path, select=["DEV001"]) == []

    def test_timed_apis_ok(self):
        src = "def f(input_file):\n    yield input_file.read(0, 10, tag='RUN read')\n"
        assert rules_hit(src, path=CORE, select=["DEV001"]) == []


# ----------------------------------------------------------------------
# Pragmas
# ----------------------------------------------------------------------


class TestPragmas:
    def test_line_disable(self):
        src = "import time\nt = time.perf_counter()  # reprolint: disable=SIM001 -- justified\n"
        assert lint_source(src, SRC, ["SIM001"]) == []

    def test_line_disable_wrong_rule_keeps_finding(self):
        src = "import time\nt = time.perf_counter()  # reprolint: disable=SIM002\n"
        assert rules_hit(src, select=["SIM001"]) == ["SIM001"]

    def test_disable_all(self):
        src = "import time\nt = time.perf_counter()  # reprolint: disable=all\n"
        assert lint_source(src, SRC) == []

    def test_file_disable(self):
        src = (
            "# reprolint: disable-file=SIM001\n"
            "import time\n"
            "a = time.perf_counter()\n"
            "b = time.monotonic()\n"
        )
        assert lint_source(src, SRC, ["SIM001"]) == []

    def test_multiple_rules_one_pragma(self):
        src = (
            "import time, random\n"
            "x = [time.perf_counter(), random.random()]  "
            "# reprolint: disable=SIM001,SIM002\n"
        )
        assert lint_source(src, SRC, ["SIM001", "SIM002"]) == []


# ----------------------------------------------------------------------
# Driver behaviour
# ----------------------------------------------------------------------


class TestDriver:
    def test_select_unknown_rule_raises(self):
        with pytest.raises(ValueError):
            rules_for_path(SRC, ["SIM999"])

    def test_rules_registry_complete(self):
        assert set(RULES) == {
            "SIM001", "SIM002", "SIM003", "SIM004", "SIM005", "SIM006",
            "DEV001", "PRG001",
        }

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        findings = lint_paths([str(bad)])
        assert len(findings) == 1
        assert findings[0].rule == "E999"

    def test_json_output(self, tmp_path, capsys):
        mod = tmp_path / "src" / "repro" / "sim" / "m.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("import time\nt = time.time()\n")
        rc = main([str(mod), "--format", "json"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert out["files_checked"] == 1
        assert out["findings"][0]["rule"] == "SIM001"
        assert out["summary"]["total"] == 1

    def test_clean_file_exit_zero(self, tmp_path, capsys):
        mod = tmp_path / "clean.py"
        mod.write_text("x = 1\n")
        assert main([str(mod)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_no_paths_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_repo_src_tree_is_clean(self):
        """The acceptance gate: the shipped tree lints clean."""
        findings = lint_paths([str(REPO / "src" / "repro")])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_module_entrypoint_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.lint", "--list-rules"],
            capture_output=True,
            text=True,
            cwd=str(REPO),
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0
        assert "SIM001" in proc.stdout


# ----------------------------------------------------------------------
# SIM005: shared-state mutation from spawned coroutine bodies
# ----------------------------------------------------------------------


class TestSIM005:
    def test_closure_subscript_write_flagged(self):
        src = (
            "from repro.sim.engine import Spawn, Join\n"
            "def run(engine, results):\n"
            "    def worker(i):\n"
            "        yield engine.sleep(0)\n"
            "        results[i] = i\n"
            "    a = yield Spawn(worker(0))\n"
            "    b = yield Spawn(worker(1))\n"
            "    yield Join([a, b])\n"
        )
        (f,) = lint_source(src, SRC, ["SIM005"])
        assert f.rule == "SIM005"
        assert "worker" in f.message
        assert "results[...]" in f.message

    def test_self_attribute_write_flagged(self):
        src = (
            "class Pipeline:\n"
            "    def start(self, engine):\n"
            "        engine.spawn(self._stage())\n"
            "    def _stage(self):\n"
            "        yield None\n"
            "        self.done = True\n"
        )
        (f,) = lint_source(src, SRC, ["SIM005"])
        assert "self.done" in f.message

    def test_nonlocal_write_flagged(self):
        src = (
            "from repro.sim.engine import Spawn\n"
            "def run(engine):\n"
            "    total = 0\n"
            "    def adder():\n"
            "        nonlocal total\n"
            "        yield None\n"
            "        total += 1\n"
            "    yield Spawn(adder())\n"
        )
        assert rules_hit(src, select=["SIM005"]) == ["SIM005"]

    def test_arbiter_in_body_suppresses(self):
        src = (
            "from repro.sim.engine import Spawn\n"
            "def run(engine, sem, results):\n"
            "    def worker(i):\n"
            "        yield sem.acquire()\n"
            "        results[i] = i\n"
            "        sem.release()\n"
            "    yield Spawn(worker(0))\n"
        )
        assert rules_hit(src, select=["SIM005"]) == []

    def test_queue_put_suppresses(self):
        src = (
            "from repro.sim.engine import Spawn\n"
            "def run(engine, q):\n"
            "    def producer():\n"
            "        yield q.put(1)\n"
            "    yield Spawn(producer())\n"
        )
        assert rules_hit(src, select=["SIM005"]) == []

    def test_local_state_ok(self):
        src = (
            "from repro.sim.engine import Spawn\n"
            "def run(engine):\n"
            "    def worker():\n"
            "        acc = []\n"
            "        yield None\n"
            "        acc.append(1)\n"
            "        acc = acc + [2]\n"
            "    yield Spawn(worker())\n"
        )
        assert rules_hit(src, select=["SIM005"]) == []

    def test_unspawned_generator_ok(self):
        src = (
            "def run(self, results):\n"
            "    def helper(i):\n"
            "        yield None\n"
            "        results[i] = i\n"
            "    yield from helper(0)\n"
        )
        assert rules_hit(src, select=["SIM005"]) == []

    def test_tests_path_exempt(self):
        src = (
            "from repro.sim.engine import Spawn\n"
            "def run(engine, results):\n"
            "    def worker(i):\n"
            "        yield None\n"
            "        results[i] = i\n"
            "    yield Spawn(worker(0))\n"
        )
        assert rules_hit(src, path="tests/sim/test_x.py",
                         select=["SIM005"]) == []


# ----------------------------------------------------------------------
# SIM006: non-total sim-time sort keys
# ----------------------------------------------------------------------


class TestSIM006:
    def test_bare_time_attribute_key_flagged(self):
        src = "rows = sorted(tags.items(), key=lambda kv: kv[1].first_active)\n"
        (f,) = lint_source(src, SRC, ["SIM006"])
        assert f.rule == "SIM006"
        assert "first_active" in f.message

    def test_bare_time_name_key_flagged(self):
        src = "top = min(events, key=lambda deadline: deadline)\n"
        assert rules_hit(src, select=["SIM006"]) == ["SIM006"]

    def test_suffix_match_flagged(self):
        src = "evs.sort(key=lambda e: e.start_time)\n"
        assert rules_hit(src, select=["SIM006"]) == ["SIM006"]

    def test_tuple_key_ok(self):
        src = (
            "rows = sorted(tags.items(), "
            "key=lambda kv: (kv[1].first_active, kv[0]))\n"
        )
        assert rules_hit(src, select=["SIM006"]) == []

    def test_non_time_key_ok(self):
        src = "rows = sorted(tags.items(), key=lambda kv: kv[0])\n"
        assert rules_hit(src, select=["SIM006"]) == []

    def test_max_flagged(self):
        src = "last = max(spans, key=lambda s: s.closed_at)\n"
        assert rules_hit(src, select=["SIM006"]) == ["SIM006"]


# ----------------------------------------------------------------------
# SIM003 across local helper-function boundaries
# ----------------------------------------------------------------------


class TestSIM003HelperBoundary:
    def test_iterating_set_returning_helper_flagged(self):
        src = (
            "def _dirty():\n"
            "    return {1, 2}\n"
            "def run():\n"
            "    for k in _dirty():\n"
            "        print(k)\n"
        )
        (f,) = lint_source(src, SRC, ["SIM003"])
        assert "_dirty()" in f.message

    def test_binding_from_helper_tracked(self):
        src = (
            "def _dirty():\n"
            "    return set()\n"
            "def run():\n"
            "    keys = _dirty()\n"
            "    for k in keys:\n"
            "        print(k)\n"
        )
        assert rules_hit(src, select=["SIM003"]) == ["SIM003"]

    def test_transitive_helper_tracked(self):
        src = (
            "def _inner():\n"
            "    return frozenset((1,))\n"
            "def _outer():\n"
            "    return _inner()\n"
            "def run():\n"
            "    for k in _outer():\n"
            "        print(k)\n"
        )
        assert rules_hit(src, select=["SIM003"]) == ["SIM003"]

    def test_sorted_helper_result_ok(self):
        src = (
            "def _dirty():\n"
            "    return {1, 2}\n"
            "def run():\n"
            "    for k in sorted(_dirty()):\n"
            "        print(k)\n"
        )
        assert rules_hit(src, select=["SIM003"]) == []

    def test_list_returning_helper_ok(self):
        src = (
            "def _ordered():\n"
            "    return sorted({1, 2})\n"
            "def run():\n"
            "    for k in _ordered():\n"
            "        print(k)\n"
        )
        assert rules_hit(src, select=["SIM003"]) == []

    def test_mixed_returns_not_tracked(self):
        # One branch returns a list: the helper is not provably a set.
        src = (
            "def _maybe(flag):\n"
            "    if flag:\n"
            "        return {1}\n"
            "    return [1]\n"
            "def run():\n"
            "    for k in _maybe(True):\n"
            "        print(k)\n"
        )
        assert rules_hit(src, select=["SIM003"]) == []


# ----------------------------------------------------------------------
# PRG001: pragma hygiene
# ----------------------------------------------------------------------


class TestPragmaValidation:
    def test_unknown_rule_in_pragma_flagged(self):
        # The pragma is split across two literals so reprolint's own
        # line scan does not read this fixture as a pragma of this file.
        src = ("x = {1}\nfor i in x:  # reprolint"
               ": disable=SIM0003 -- typo\n    pass\n")
        findings = lint_source(src, SRC)
        assert any(
            f.rule == "PRG001" and "SIM0003" in f.message for f in findings
        )
        # ...and the typo'd pragma silenced nothing.
        assert any(f.rule == "SIM003" for f in findings)

    def test_retired_rule_explains_successor(self):
        src = "x = 1  # reprolint" ": disable=DET001 -- old habit\n"
        (f,) = lint_source(src, SRC)
        assert f.rule == "PRG001"
        assert "retired" in f.message
        assert "SIM003" in f.message

    def test_deleted_rule_pragma_is_retired(self):
        src = "x = 1  # reprolint" ": disable=OBS001 -- legacy dashboard key\n"
        (f,) = lint_source(src, SRC)
        assert f.rule == "PRG001"
        assert "retired" in f.message and "OBS001" in f.message

    def test_known_rule_pragma_clean(self):
        src = "x = {1}\nfor i in x:  # reprolint: disable=SIM003 -- justified\n    pass\n"
        assert lint_source(src, SRC) == []

    def test_disable_all_accepted(self):
        src = "x = {1}\nfor i in x:  # reprolint: disable=all\n    pass\n"
        assert lint_source(src, SRC) == []

    def test_file_pragma_validated(self):
        src = "# reprolint" ": disable-file=NOPE\nx = 1\n"
        (f,) = lint_source(src, SRC)
        assert f.rule == "PRG001"
        assert "NOPE" in f.message

    def test_prg001_itself_can_be_silenced(self):
        src = "x = 1  # reprolint: disable=DET001,PRG001 -- migration WIP\n"
        assert lint_source(src, SRC) == []


# ----------------------------------------------------------------------
# --format github
# ----------------------------------------------------------------------


class TestGithubFormat:
    def test_annotations_emitted(self, tmp_path, capsys):
        mod = tmp_path / "src" / "repro" / "sim" / "m.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("import time\nt = time.time()\n")
        rc = main([str(mod), "--format", "github"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "::error file=" in out
        assert f"line=2" in out
        assert "title=reprolint SIM001" in out

    def test_clean_tree_no_annotations(self, tmp_path, capsys):
        mod = tmp_path / "clean.py"
        mod.write_text("x = 1\n")
        assert main([str(mod), "--format", "github"]) == 0
        out = capsys.readouterr().out
        assert "::error" not in out
        assert "0 finding(s)" in out
