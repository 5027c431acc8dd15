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


def test_the_paper_shape_fit_is_one_command(tmp_path, capsys, monkeypatch):
    data = tmp_path / "data.csv"
    fit_stages.write_dataset(data, 12, 9)
    covariance, estimated = fit_stages.model.covariance_hat, []

    def estimating(*args):
        estimated.append(args)
        return covariance(*args)

    monkeypatch.setattr(fit_stages.model, "covariance_hat", estimating)
    clock = fit_stages.StageClock()
    options = fit_stages.fit_options("2", "cov", smooth=False)
    assert options == ["--method", "cov", "--ncomp", "2"]
    argv = ["fit", str(data), *options, "--out", str(tmp_path / "m.json")]
    with fit_stages.wrapped(clock), contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    # no smoothing stage runs, and the covariance estimate is the kernel stage
    assert sorted(clock.ns) == sorted(set(fit_stages.STAGES) - {"presmooth", "eigen-smooth"})
    assert len(estimated) == 1

    assert fit_stages.main(["--n", "12", "--d", "9", "--ncomp", "2", "--repeats", "1",
                            "--method", "cov", "--no-smooth"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("kfpca fit --method cov --ncomp 2, N=12, d=9")
    printed = {line.split()[0]: float(line.split()[1]) for line in lines[1:]}
    assert list(printed) == [*fit_stages.STAGES, "other", "total"]
    assert printed["presmooth"] == printed["eigen-smooth"] == 0.0


def test_peaks_are_read_per_stage_and_count_toward_the_outer_stage(capsys):
    recorder = fit_stages.StagePeak()
    inner = recorder.wrap("inner", lambda: np.ones(2**17).sum())  # a 1 MiB array

    def outer():
        held = np.ones(2**15)  # a 256 KiB array alive as inner starts
        return held.sum() + inner()

    outer = recorder.wrap("outer", outer)
    tracemalloc.start()
    try:
        outer()
        recorder.read()
    finally:
        tracemalloc.stop()
    assert 2**20 <= recorder.bytes["inner"] <= recorder.bytes["outer"] <= recorder.total
    assert recorder.bytes["outer"] < 2**20 + 2**19
    assert recorder.entry["outer"] < 2**14
    assert 2**18 <= recorder.entry["inner"] < 2**18 + 2**14

    assert fit_stages.main(["--n", "12", "--d", "9", "--ncomp", "2", "--repeats", "1", "--peak"]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("tracemalloc KiB of one untimed run: at entry, peak")
    unwrapped = lines.index("tracemalloc KiB of one run with no stage wrapped: peak")
    rows = {line.split()[0]: [float(x) for x in line.split()[1:]] for line in lines[start + 1 : unwrapped]}
    assert list(rows) == [*fit_stages.STAGES, "total"]
    total = rows["total"][1]
    # every stage but the first starts with something alive, and peaks above it
    assert all(0 < entry < kib <= total for entry, kib in list(rows.values())[1:-1])
    assert 0 <= rows["read"][0] < rows["read"][1] <= total
    # the whole command with no stage wrapped; at this shape it differs
    # from the wrapped run's total by what earlier runs left cached more
    # than by the arguments the wrappers hold
    name, command = lines[unwrapped + 1].split()
    assert name == "command" and len(lines) == unwrapped + 2
    assert float(command) > 0
