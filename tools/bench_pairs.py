"""Run the benchmark on a parent commit and on the working tree in
alternated pairs, and write BENCH_<pr>.json.

Usage, from the repository root:

    python3 tools/bench_pairs.py --parent HEAD --pr 9 --pairs 10 --first-seed 901 \
        --what "one line on the change" mc_paper fit_large_n cli_smooth

The parent side runs in a plain snapshot of ``--parent`` (``git archive``
into a temporary directory, removed afterwards); the change side runs in
the working tree, uncommitted edits included.  Pair i uses seed
``first_seed + i`` on both sides, each run is ``perfbench/run.py --trace 0``
in a fresh process, one at a time, and the parent runs first on even pairs.
The run length (``run_seconds``) and each workload's end-to-end metrics,
with their direction and bound, come from the working tree's BENCHMARK.json.
If a run exits non-zero, its workload, side, seed, exit code and last 20
stderr lines are printed and the script exits 1 without writing the file.
After writing it, the script prints one verdict line per workload and
end-to-end metric (see ``verdict_line``).
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 6), "q1": round(float(q1), 6),
            "q3": round(float(q3), 6), "runs": [round(float(v), 6) for v in values]}


def summarize_metric(parent, change, better: str, bound: float) -> dict:
    """Medians, quartiles and pair wins of one metric.

    ``parent[i]`` and ``change[i]`` are the two runs of pair i.  A pair is a
    change win when its value is strictly better in the ``better``
    direction.  ``within_bound`` holds when the change's median is not worse
    than the parent's by more than ``bound`` (a share of the parent's
    median).  ``clear_gain`` holds when the change wins at least 9 pairs in
    10 and its median is better by more than the parent's interquartile
    range.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on both sides")
    sign = 1.0 if better == "higher" else -1.0
    p, c = quartiles(parent), quartiles(change)
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    rel = (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
    iqr = p["q3"] - p["q1"]
    return {
        "parent": p,
        "change": c,
        "change_wins": wins,
        "median_change_rel": round(rel, 4),
        "parent_iqr": round(iqr, 6),
        "within_bound": -sign * rel <= bound,
        "clear_gain": 10 * wins >= 9 * len(parent)
        and sign * (c["median"] - p["median"]) > iqr,
    }


def summarize_workload(seeds, results, spec) -> dict:
    """One workload's entry: ``results[side][i]`` is the JSON line of pair
    i's run on that side, ``spec`` the BENCHMARK.json end-to-end list."""
    failed = {s: sum(r["failed"] for r in results[s]) for s in SIDES}
    return {
        "seeds": list(seeds),
        "pairs": len(seeds),
        "failed_ops": failed,
        "attempted_ops": {s: sum(r["attempted"] for r in results[s]) for s in SIDES},
        "all_correct": all(r["correct"] for s in SIDES for r in results[s]),
        "metrics": {
            m["name"]: {
                "unit": m["unit"],
                "better": m["better"],
                "bound": m["bound"],
                **summarize_metric(
                    *([r["metrics"][m["name"]]["value"] for r in results[s]] for s in SIDES),
                    m["better"],
                    m["bound"],
                ),
            }
            for m in spec
        },
    }


def verdict_line(workload: str, entry: dict, name: str) -> str:
    """One line on metric ``name`` of a workload's entry: parent and change
    medians, pair wins, ``clear_gain``, ``within_bound`` and the failed and
    attempted operations of each side, e.g.

    mc_paper op_ms_p50: 0.979 -> 0.891 ms (-9.0%), wins 9/10, clear_gain yes,
    within_bound yes, failed ops 0/31000 parent, 0/33000 change
    """
    m = entry["metrics"][name]
    failed, attempted = entry["failed_ops"], entry["attempted_ops"]
    yes = {True: "yes", False: "no"}
    return (
        f"{workload} {name}: {m['parent']['median']:.6g} -> {m['change']['median']:.6g} "
        f"{m['unit']} ({m['median_change_rel']:+.1%}), wins {m['change_wins']}/{entry['pairs']}, "
        f"clear_gain {yes[m['clear_gain']]}, within_bound {yes[m['within_bound']]}, "
        f"failed ops {failed['parent']}/{attempted['parent']} parent, "
        f"{failed['change']}/{attempted['change']} change"
    )


class RunFailed(Exception):
    """A benchmark run exited non-zero; the message says which run and
    holds the last lines of its stderr."""


def run_once(tree: Path, workload: str, seed: int, seconds: float):
    """The result line and the environment of one benchmark run in ``tree``;
    RunFailed if the run exits non-zero."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode:
        tail = "\n".join(proc.stderr.splitlines()[-20:])
        raise RunFailed(f"exit code {proc.returncode}; last stderr lines:\n{tail}")
    out = proc.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in out if line.startswith("env "))
    return json.loads(out[-1]), env


def snapshot(rev: str, into: Path) -> None:
    """Extract the files of ``rev`` into the directory ``into``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--parent", required=True, help="git revision of the parent")
    p.add_argument("--pr", required=True, type=int, help="number in BENCH_<pr>.json")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", required=True, type=int)
    p.add_argument("--what", default="", help="one line describing the change")
    p.add_argument("workloads", nargs="+")
    args = p.parse_args(argv)
    if args.pairs < 1 or args.first_seed < 0:
        p.error("--pairs must be >= 1 and --first-seed >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec, seconds = bench["end_to_end"], bench["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    out = ROOT / f"BENCH_{args.pr}.json"
    summaries = {}
    env = None
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        snapshot(args.parent, trees["parent"])
        for workload in args.workloads:
            results = {s: [] for s in SIDES}
            for i, seed in enumerate(seeds):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    try:
                        line, env = run_once(trees[side], workload, seed, seconds)
                    except RunFailed as exc:
                        print(f"{workload} seed {seed} {side}: run failed, "
                              f"{out.name} not written: {exc}", file=sys.stderr)
                        return 1
                    results[side].append(line)
                    print(f"{workload} seed {seed} {side}: op_ms_p50 "
                          f"{line['metrics']['op_ms_p50']['value']:.4f}", flush=True)
            summaries[workload] = summarize_workload(seeds, results, spec)
    method = {
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "pairs": "parent and change each run once per seed, in a fresh process, from "
                 "separate checkouts; the order alternates (parent first on even pairs)",
        "parent": subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                                 capture_output=True, text=True).stdout.strip(),
        "quartiles": "numpy.percentile 25/50/75 (linear) over the runs of one side",
        "change_wins": "pairs in which the change's value is better in the metric's "
                       "direction; ties count for neither",
        "host": f"nproc {env['nproc']}, {env['blas']} with {env['blas_threads']} "
                f"thread(s), numpy {env['numpy']}, scipy {env['scipy']}, "
                f"Python {env['python']}; one benchmark process at a time",
    }
    report = {"what": args.what, "method": method, "workloads": summaries}
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out.name}")
    for workload, entry in summaries.items():
        for m in spec:
            print(verdict_line(workload, entry, m["name"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
