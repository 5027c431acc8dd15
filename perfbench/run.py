"""kfpca benchmark: one workload per invocation, closed loop, single process.

Usage, from the repository root:

    python3 perfbench/run.py --workload mc_paper --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` spends half of ``--seconds`` untraced and half with the
wrappers of ``layers.TARGETS`` installed, and reports the per-layer metrics.
End-to-end times are scaled to a reference host speed by ``calibrate``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.  BLAS is pinned to one thread before numpy loads.
See README.md in this directory for the workloads and metric definitions.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import shutil
import sys
import tempfile
import time
import tracemalloc
import traceback
from pathlib import Path

import calibrate
import layers
import stats
from spans import Tracer, installed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("mc_paper", "fit_large_n", "cli_smooth")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_library():
    """Import kfpca from this checkout's src/ and nowhere else."""
    if not (SRC / "kfpca" / "__init__.py").is_file():
        raise SystemExit(f"error: no kfpca sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kfpca

    if Path(kfpca.__file__).resolve().parent != SRC / "kfpca":
        raise SystemExit(f"error: kfpca imported from {kfpca.__file__}, not {SRC}")
    return kfpca


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(kfpca, args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "kfpca": kfpca.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Tally:
    """CPU-time latencies, wall times, extra readings, and attempted/failed
    counts of a loop.

    ``before[i]`` is the index of the calibration reading taken last before
    operation i, for ``calibrate.scaled``.
    """

    def __init__(self):
        self.latencies_ms = []
        self.wall_ms = []
        self.before = []
        self.extras = {}
        self.attempted = 0
        self.failed = 0
        self.first_error = None

    def add(self, other: "Tally"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.first_error = self.first_error or other.first_error


def _check(wl, i, out, tally: Tally):
    """Count operation i as failed if its output check fails or raises."""
    try:
        ok = wl.check(i, out)
    except Exception:
        ok = False
        tally.first_error = tally.first_error or traceback.format_exc()
    tally.failed += not ok


def closed_loop(wl, seconds: float, cal, tracer=None) -> Tally:
    """Run operations 0, 1, ... back to back for ``seconds``; check each one.

    A calibration reading is taken after any operation that ends
    ``calibrate.PERIOD_S`` or more after the last reading, and after the
    loop.  None is taken before the first operation: a reading right after
    another one runs on warm caches and would read fast.
    """
    tally = Tally()
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or tally.attempted == 0:
        tally.attempted += 1
        w0 = time.perf_counter_ns()
        t0 = calibrate.clock_ns()
        try:
            if tracer is None:
                out = wl.op(i)
            else:
                with tracer.operation(i):
                    out = wl.op(i)
        except Exception:
            tally.failed += 1
            tally.first_error = tally.first_error or traceback.format_exc()
        else:
            t1 = calibrate.clock_ns()
            tally.wall_ms.append((time.perf_counter_ns() - w0) / 1e6)
            tally.latencies_ms.append((t1 - t0) / 1e6)
            tally.before.append(len(cal.readings_ms) - 1)
            for key, value in wl.extras(out).items():
                tally.extras.setdefault(key, []).append(value)
            _check(wl, i, out, tally)
        i += 1
        if cal.due():
            cal.read()
    cal.read()
    return tally


def setup(wl, seed: int, workdir: Path, reference: dict, cal):
    """Prepare and warm up SETUP_REPEATS times; verify the last warm-up.

    A calibration reading is taken after each set-up.
    Returns the raw set-up times in seconds, the index of the reading before
    each, and the verification tally.
    """
    times = []
    before = []
    tally = Tally()
    cal.warm_up()
    for _ in range(SETUP_REPEATS):
        before.append(len(cal.readings_ms) - 1)
        t0 = calibrate.clock_ns()
        wl.prepare(seed, workdir)
        try:
            outputs = wl.warm_up()
        except Exception:
            outputs = None
            tally.first_error = traceback.format_exc()
        times.append((calibrate.clock_ns() - t0) / 1e9)
        cal.read()
    try:
        tally.attempted, tally.failed = wl.verify(outputs, reference)
    except Exception:
        # later operations then fail their checks too, and are counted
        tally.attempted = tally.failed = len(outputs or [None])
        tally.first_error = tally.first_error or traceback.format_exc()
    return times, before, tally


def peak_mib(wl) -> tuple[float, Tally]:
    """tracemalloc peak of operation 0, in an untimed pass of its own."""
    tally = Tally()
    tally.attempted = 1
    tracemalloc.start()
    try:
        out = wl.op(0)
    except Exception:
        out = None
        tally.failed = 1
        tally.first_error = traceback.format_exc()
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    if out is not None:
        _check(wl, 0, out, tally)
    return peak / 2**20, tally


def metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def run_untraced(wl, args, lines):
    cal = calibrate.Calibrator()
    setup_times, setup_before, verified = setup(
        wl, args.seed, args.workdir, args.reference, cal
    )
    setup_scaled = calibrate.scaled(setup_times, setup_before, cal.readings_ms)
    peak, peak_tally = peak_mib(wl)
    loop = closed_loop(wl, args.seconds, cal)
    total = Tally()
    for t in (verified, peak_tally, loop):
        total.add(t)
    n = len(loop.latencies_ms)
    # 0 stands in for latencies only when every operation raised
    raw = loop.latencies_ms or [0.0]
    latencies = calibrate.scaled(loop.latencies_ms, loop.before, cal.readings_ms) or [0.0]
    pct, tail_ms, beyond = stats.tail(latencies)
    _, raw_tail_ms, _ = stats.tail(raw)
    wall = loop.wall_ms or [0.0]
    _, wall_tail_ms, _ = stats.tail(wall)
    values = {
        "setup_s": metric(stats.median(setup_scaled), "s"),
        "ops_per_s": metric(1000 * n / sum(latencies) if n else 0.0, "1/s"),
        "op_ms_p50": metric(stats.median(latencies), "ms"),
        "op_ms_tail": metric(tail_ms, "ms"),
        "peak_mib": metric(peak, "MiB"),
    }
    lines.append(f"calibration: {len(cal.readings_ms)} kernel readings, median "
                 f"{stats.median(cal.readings_ms):.4f} ms; times below are CPU times "
                 f"scaled to the reference {calibrate.REFERENCE_MS:g} ms, with raw CPU "
                 "and wall times in brackets")
    lines.append(f"setup_s {values['setup_s']['value']:.4f} s "
                 f"(median of {SETUP_REPEATS}: "
                 + ", ".join(f"{t:.4f}" for t in setup_scaled)
                 + f"; raw {stats.median(setup_times):.4f} s)")
    lines.append(f"ops_per_s {values['ops_per_s']['value']:.3f} 1/s "
                 f"({n} completed operations in {sum(raw) / 1000:.3f} s raw CPU, "
                 f"{sum(wall) / 1000:.3f} s wall)")
    lines.append(f"op_ms_p50 {values['op_ms_p50']['value']:.4f} ms (n={n}; "
                 f"raw CPU {stats.median(raw):.4f} ms, wall {stats.median(wall):.4f} ms)")
    lines.append(f"op_ms_tail {tail_ms:.4f} ms (p{pct:g}, n={n}, {beyond} samples "
                 f"beyond; raw CPU {raw_tail_ms:.4f} ms, wall {wall_tail_ms:.4f} ms)")
    lines.append(f"peak_mib {peak:.3f} MiB (tracemalloc peak of operation 0)")
    for key, readings in loop.extras.items():
        scaled = calibrate.scaled(readings, loop.before, cal.readings_ms)
        lines.append(f"{key}_p50 {stats.median(scaled):.4f} ms (n={len(readings)}; "
                     f"raw CPU {stats.median(readings):.4f} ms)")
    return values, total


def run_traced(wl, args, lines):
    cal = calibrate.Calibrator()
    _, _, verified = setup(wl, args.seed, args.workdir, args.reference, cal)
    half = args.seconds / 2
    plain = closed_loop(wl, half, cal)
    tracer = Tracer()
    with installed(tracer, layers.TARGETS) as absent_paths:
        traced = closed_loop(wl, half, cal, tracer)
    total = Tally()
    for t in (verified, plain, traced):
        total.add(t)
    n_ops = len(traced.latencies_ms)
    summary = layers.Summary(tracer, max(n_ops, 1))
    values, absent = layers.per_layer_metrics(
        summary, layers.absent_span_names(absent_paths)
    )
    plain_p50, traced_p50 = (
        stats.median(calibrate.scaled(t.latencies_ms, t.before, cal.readings_ms) or [0.0])
        for t in (plain, traced)
    )
    overhead = traced_p50 / plain_p50 if plain_p50 else 0.0
    values["trace.overhead_ratio"] = metric(overhead, "ratio")
    values = {name: values[name] for name, *_ in layers.PER_LAYER}

    lines.append(f"untraced op_ms_p50 {plain_p50:.4f} ms (n={len(plain.latencies_ms)}); "
                 f"traced op_ms_p50 {traced_p50:.4f} ms (n={n_ops}), both scaled to "
                 "the reference host speed; per-layer times below are raw")
    lines.append("absent wrapped names: " + (", ".join(absent_paths) or "none"))
    lines.append("absent metrics (reported as 0): " + (", ".join(absent) or "none"))
    lines.append(f"{'span':44s} {'calls/op':>10s} {'ms/op':>10s} {'self ms/op':>10s}")
    for name in sorted({t.name for t in layers.TARGETS if not t.count_only}):
        lines.append(f"{name:44s} {summary.per_op(summary.calls[name]):10.3f} "
                     f"{summary.ms(name):10.4f} {summary.self_ms(name):10.4f}")
    for name in sorted(summary.counts):
        lines.append(f"{name:44s} {summary.per_op(summary.counts[name]):10.3f}")
    for name, v in values.items():
        lines.append(f"{name} {v['value']:.6g} {v['unit']}")

    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(span_file, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s._asdict()) + "\n")
    lines.append(f"spans written to {span_file.relative_to(ROOT)}")
    return values, total


def main(argv=None) -> int:
    args = parse_args(argv)
    kfpca = import_library()
    import workloads

    env = environment(kfpca, args)
    args.reference = workloads.load_reference()
    wl = workloads.WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    args.workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    lines = []
    try:
        runner = run_traced if args.trace else run_untraced
        values, total = runner(wl, args, lines)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    env["attempted"] = total.attempted
    print("env " + json.dumps(env))
    for line in lines:
        print(line)
    rate = total.failed / total.attempted
    print(f"error_rate {rate:.6g} ratio ({total.failed} failed of {total.attempted} attempted)")
    if total.first_error:
        print(total.first_error, file=sys.stderr)
    print(json.dumps({
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
