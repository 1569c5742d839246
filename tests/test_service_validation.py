"""A served job is validated when it completes.

A job whose output is not a sorted permutation of its input stops the
service with a :class:`ValidationError` naming that job, and ``repro
serve`` turns it into exit 1 with one stderr line.  A job that validates
releases its input's bytes: they are made again from the recipe on a
later read.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import api, cli
from repro.core.wiscsort import WiscSort
from repro.errors import ValidationError
from repro.records.format import RecordFormat
from repro.records.validate import validate_sorted_file

BAD_JOB = "job00003"


@pytest.fixture
def corrupt_one_job(monkeypatch):
    """WiscSort whose output for ``BAD_JOB`` has its first key raised to
    the largest possible: no longer in ascending order."""
    original = WiscSort.sort_process

    def sort_process(self, machine, input_file):
        output = yield from original(self, machine, input_file)
        if self.output_name == f"{BAD_JOB}.out":
            output.poke(0, np.full(self.fmt.key_size, 0xFF, dtype=np.uint8))
        return output

    monkeypatch.setattr(WiscSort, "sort_process", sort_process)


def test_a_corrupted_job_output_fails_serve_naming_the_job(corrupt_one_job):
    with pytest.raises(ValidationError, match=f"job '{BAD_JOB}'"):
        api.serve(api.RunOptions(records=500), rate=20_000.0, max_jobs=8)


def test_repro_serve_reports_a_corrupted_job_in_one_line(corrupt_one_job, capsys):
    status = cli.main(
        ["serve", "--rate", "20000", "--max-jobs", "8", "--records", "500"]
    )
    err = capsys.readouterr().err
    assert status == 1
    assert err.count("\n") == 1 and err.startswith(f"serve: job '{BAD_JOB}'")
    assert "Traceback" not in err


def test_served_inputs_are_released_and_read_back_unchanged():
    report = api.serve(api.RunOptions(records=500), rate=20_000.0, max_jobs=8)
    jobs = [job for job in report.jobs if job.finish_time is not None]
    assert len(jobs) == 8
    for job in jobs:
        assert job.input_file._data is None
        assert validate_sorted_file(job.input_file, job.output_file, RecordFormat()) == 500
        assert job.input_file._data is None
