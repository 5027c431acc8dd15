"""Smoke test of tools/fit_stages.py at a tiny shape."""

import contextlib
import io
import sys
import tracemalloc
from pathlib import Path

import numpy as np

from kfpca.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import fit_stages  # noqa: E402


def test_every_stage_is_timed_and_the_library_is_left_as_it_was(tmp_path, capsys):
    before = [getattr(mod, name) for mod, name, _ in fit_stages.TARGETS]
    data = tmp_path / "data.csv"
    fit_stages.write_dataset(data, 12, 9)
    clock = fit_stages.StageClock()
    argv = ["fit", str(data), "--presmooth", "--eigen-smooth", "--out", str(tmp_path / "m.json")]
    with fit_stages.wrapped(clock), contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert [getattr(mod, name) for mod, name, _ in fit_stages.TARGETS] == before
    # a fit with both smoothers enters every stage
    assert sorted(clock.ns) == sorted(fit_stages.STAGES)

    assert fit_stages.main(["--n", "12", "--d", "9", "--ncomp", "2", "--repeats", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "N=12, d=9" in lines[0]
    printed = {line.split()[0]: float(line.split()[1]) for line in lines[1:]}
    assert list(printed) == [*fit_stages.STAGES, "other", "total"]
    assert all(ms >= 0 for ms in printed.values())


def test_peaks_are_read_per_stage_and_count_toward_the_outer_stage(capsys):
    recorder = fit_stages.StagePeak()
    inner = recorder.wrap("inner", lambda: np.ones(2**17).sum())  # a 1 MiB array
    outer = recorder.wrap("outer", lambda: np.ones(2**15).sum() + inner())
    tracemalloc.start()
    try:
        outer()
        recorder.read()
    finally:
        tracemalloc.stop()
    assert 2**20 <= recorder.bytes["inner"] <= recorder.bytes["outer"] <= recorder.total
    assert recorder.bytes["outer"] < 2**20 + 2**18

    assert fit_stages.main(["--n", "12", "--d", "9", "--ncomp", "2", "--repeats", "1", "--peak"]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("tracemalloc peak KiB of one untimed run")
    peaks = {line.split()[0]: float(line.split()[1]) for line in lines[start + 1 :]}
    assert list(peaks) == [*fit_stages.STAGES, "total"]
    assert all(0 < kib <= peaks["total"] for kib in peaks.values())
