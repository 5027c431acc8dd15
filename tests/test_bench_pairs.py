"""The pair summarizer of tools/bench_pairs.py on fixed numbers, and its
handling of a failed run in a fake tree."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_pairs  # noqa: E402
from bench_pairs import summarize_metric, summarize_workload, verdict_line  # noqa: E402

PARENT = [1.30, 1.32, 1.28, 1.35, 1.31, 1.29, 1.33, 1.30, 1.34, 1.31]
CHANGE = [1.19, 1.20, 1.18, 1.22, 1.19, 1.30, 1.21, 1.17, 1.20, 1.19]


def test_lower_is_better_gain():
    s = summarize_metric(PARENT, CHANGE, "lower", 0.25)
    assert s["parent"]["median"] == pytest.approx(1.31)
    assert s["parent"]["q1"] == pytest.approx(1.30)
    assert s["parent"]["q3"] == pytest.approx(1.3275)
    assert s["change"]["median"] == pytest.approx(1.195)
    assert s["change"]["runs"] == CHANGE
    # pair 6 (1.29 against 1.30) is the only parent win
    assert s["change_wins"] == 9
    assert s["median_change_rel"] == pytest.approx(-0.0878)
    assert s["parent_iqr"] == pytest.approx(0.0275)
    assert s["within_bound"] and s["clear_gain"]


def test_higher_is_better_and_bound():
    # the same numbers read as a rate: the change is 8.8% worse
    s = summarize_metric(PARENT, CHANGE, "higher", 0.25)
    assert s["change_wins"] == 1
    assert s["within_bound"] and not s["clear_gain"]
    assert not summarize_metric(PARENT, CHANGE, "higher", 0.05)["within_bound"]


def test_ties_count_for_neither_side():
    s = summarize_metric([1.0, 2.0, 3.0], [1.0, 2.0, 2.5], "lower", 0.25)
    assert s["change_wins"] == 1
    assert not s["clear_gain"]


def test_gain_inside_the_parent_spread_is_not_clear():
    # 10/10 wins, but the medians differ by less than the parent's IQR
    parent = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8]
    s = summarize_metric(parent, [v - 0.01 for v in parent], "lower", 0.25)
    assert s["change_wins"] == 10
    assert not s["clear_gain"]


def test_sides_must_pair_up():
    with pytest.raises(ValueError):
        summarize_metric([1.0, 2.0], [1.0], "lower", 0.25)


def test_workload_entry():
    spec = [{"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25}]

    def line(value, failed):
        return {"correct": failed == 0, "attempted": 100, "failed": failed,
                "metrics": {"op_ms_p50": {"value": value, "unit": "ms"}}}

    results = {"parent": [line(v, 0) for v in PARENT],
               "change": [line(v, i == 3) for i, v in enumerate(CHANGE)]}
    entry = summarize_workload(range(901, 911), results, spec)
    assert entry["seeds"] == list(range(901, 911))
    assert entry["pairs"] == 10
    assert entry["failed_ops"] == {"parent": 0, "change": 1}
    assert entry["attempted_ops"] == {"parent": 1000, "change": 1000}
    assert not entry["all_correct"]
    metric = entry["metrics"]["op_ms_p50"]
    assert (metric["unit"], metric["better"], metric["bound"]) == ("ms", "lower", 0.25)
    assert metric["change_wins"] == 9
    assert verdict_line("mc_paper", entry, "op_ms_p50") == (
        "mc_paper op_ms_p50: 1.31 -> 1.195 ms (-8.8%), wins 9/10, clear_gain yes, "
        "within_bound yes, failed ops 0/1000 parent, 1/1000 change"
    )


def test_verdict_line_of_a_regression():
    spec = [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.05}]

    def line(value):
        return {"correct": True, "attempted": 7, "failed": 0,
                "metrics": {"ops_per_s": {"value": value, "unit": "1/s"}}}

    results = {"parent": [line(v) for v in PARENT], "change": [line(v) for v in CHANGE]}
    entry = summarize_workload(range(3, 13), results, spec)
    assert verdict_line("fit_large_n", entry, "ops_per_s") == (
        "fit_large_n ops_per_s: 1.31 -> 1.195 1/s (-8.8%), wins 1/10, clear_gain no, "
        "within_bound no, failed ops 0/70 parent, 0/70 change"
    )


PASSING_RUN = """
import json
env = {"nproc": 1, "blas": "x", "blas_threads": 1, "numpy": "x", "scipy": "x", "python": "x"}
print("env " + json.dumps(env))
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"op_ms_p50": {"value": 1.0, "unit": "ms"}}}))
"""

FAILING_RUN = """
import sys
for i in range(30):
    print(f"stderr line {i}", file=sys.stderr)
sys.exit(1)
"""


def fake_tree(path, run_py):
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(run_py)
    return path


def test_failed_run_is_reported_and_nothing_is_written(tmp_path, monkeypatch, capsys):
    # the parent side (run first in pair 0) passes, the working tree fails
    root = fake_tree(tmp_path / "change", FAILING_RUN)
    spec = [{"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25}]
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": spec, "run_seconds": 1}))
    monkeypatch.setattr(bench_pairs, "ROOT", root)
    monkeypatch.setattr(bench_pairs, "snapshot", lambda rev, into: fake_tree(into, PASSING_RUN))
    argv = ["--parent", "HEAD", "--pr", "99", "--pairs", "2", "--first-seed", "5", "cli_smooth"]
    assert bench_pairs.main(argv) == 1
    printed = capsys.readouterr()
    assert "cli_smooth seed 5 parent: op_ms_p50 1.0000" in printed.out
    err = printed.err
    assert "cli_smooth seed 5 change: run failed, BENCH_99.json not written" in err
    assert "exit code 1" in err
    assert "stderr line 10" in err and "stderr line 29" in err
    assert "stderr line 9\n" not in err
    assert not (root / "BENCH_99.json").exists()


def test_verdict_lines_follow_the_written_file(tmp_path, monkeypatch, capsys):
    import subprocess

    root = fake_tree(tmp_path / "change", PASSING_RUN)
    spec = [{"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25}]
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": spec, "run_seconds": 1}))
    # the report names the parent's commit, so the fake tree is a repository
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(root)]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "t"], check=True)
    monkeypatch.setattr(bench_pairs, "ROOT", root)
    monkeypatch.setattr(bench_pairs, "snapshot", lambda rev, into: fake_tree(into, PASSING_RUN))
    argv = ["--parent", "HEAD", "--pr", "99", "--pairs", "2", "--first-seed", "5", "cli_smooth"]
    assert bench_pairs.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == [
        "wrote BENCH_99.json",
        "cli_smooth op_ms_p50: 1 -> 1 ms (+0.0%), wins 0/2, clear_gain no, "
        "within_bound yes, failed ops 0/2 parent, 0/2 change",
    ]
    report = json.loads((root / "BENCH_99.json").read_text())
    assert report["workloads"]["cli_smooth"]["pairs"] == 2
