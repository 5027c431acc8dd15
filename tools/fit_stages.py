"""Print the CPU time of each stage of one ``kfpca fit`` at a given shape.

Usage, from the repository root:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/fit_stages.py \
        --n 200 --d 1441 --ncomp 3 --repeats 3

The script writes N skew-t curves on d points (case 1 of the paper's design,
seed 0) as a dataset CSV in a temporary directory and runs
``kfpca fit --presmooth --eigen-smooth`` on it in-process, through
``kfpca.cli.main``, ``--repeats`` times.  It prints the median process CPU
time of each stage in ms:

    read          cli.read_dataset
    presmooth     model.smooth_rows
    mean          model.mean_hat
    kernel        model.kendall_tau_hat
    eigen         estimators.DiscretizedKernel.eigenfunctions
    eigen-smooth  model.smooth_kernel, less the eigenfunctions inside it
    scores        model.project_scores
    save          cli.save_model

then ``other`` (argument parsing, checks, model assembly, printing) and the
whole command.  The stages are timed from outside the library: for the runs,
each function above is replaced on the module (or class) attribute the command
calls it through by a wrapper that adds its CPU time to the stage, and the originals
are put back afterwards.  Set ``OPENBLAS_NUM_THREADS=1`` (or your BLAS's
variable) for one BLAS thread, as the benchmark runs.

With ``--peak``, one more run, untimed and under ``tracemalloc``, prints for
each stage the traced memory in KiB as it started (what the command held
alive on entering it) and the peak while it ran (everything the command had
allocated by then counts), and the peak of the whole command.  The peak is
reset as a stage starts and read as it ends; a stage called inside another
counts toward the outer one's peak too.  A stage entered more than once
shows its largest entry and its largest peak.
"""

import argparse
import contextlib
import io
import tempfile
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

import kfpca.cli as cli
import kfpca.model as model
from kfpca.estimators import DiscretizedKernel
from kfpca.simgen import SimulationScenario, generate

# (module, attribute, stage), in the order a fit runs them
TARGETS = (
    (cli, "read_dataset", "read"),
    (model, "smooth_rows", "presmooth"),
    (model, "mean_hat", "mean"),
    (model, "kendall_tau_hat", "kernel"),
    (DiscretizedKernel, "eigenfunctions", "eigen"),
    (model, "smooth_kernel", "eigen-smooth"),
    (model, "project_scores", "scores"),
    (cli, "save_model", "save"),
)
STAGES = tuple(stage for _, _, stage in TARGETS)


class StageClock:
    """Self CPU time per stage: a stage called inside another is taken out
    of the outer one's time."""

    def __init__(self):
        self.ns = defaultdict(int)
        self._children = []

    def wrap(self, stage, fn):
        def timed(*args, **kwargs):
            self._children.append(0)
            start = time.process_time_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.process_time_ns() - start
                self.ns[stage] += elapsed - self._children.pop()
                if self._children:
                    self._children[-1] += elapsed

        return timed


class StagePeak:
    """tracemalloc memory at entry and peak per stage, in bytes, and the
    peak of the whole run."""

    def __init__(self):
        self.entry = defaultdict(int)
        self.bytes = defaultdict(int)
        self.total = 0
        self._open = []  # running peaks of the stages entered, innermost last

    def read(self):
        """Fold the peak since the last read into the open stages and the
        total, and reset it."""
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        self.total = max(self.total, peak)
        if self._open:
            self._open[-1] = max(self._open[-1], peak)

    def wrap(self, stage, fn):
        def traced(*args, **kwargs):
            self.read()
            self.entry[stage] = max(self.entry[stage], tracemalloc.get_traced_memory()[0])
            self._open.append(0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.read()
                peak = self._open.pop()
                self.bytes[stage] = max(self.bytes[stage], peak)
                if self._open:
                    self._open[-1] = max(self._open[-1], peak)

        return traced


@contextlib.contextmanager
def wrapped(recorder):
    """Wrap each target with ``recorder.wrap`` (a StageClock or StagePeak)."""
    originals = [(mod, name, getattr(mod, name)) for mod, name, _ in TARGETS]
    try:
        for (mod, name, stage), (_, _, fn) in zip(TARGETS, originals):
            setattr(mod, name, recorder.wrap(stage, fn))
        yield
    finally:
        for mod, name, fn in originals:
            setattr(mod, name, fn)


def write_dataset(path, n: int, d: int):
    scenario = SimulationScenario(case=1, distribution="skew_t", n_subjects=n, n_points=d, runs=1)
    sample = generate(scenario, 0).sample
    cli._write_csv(
        path,
        ["id"] + [repr(float(t)) for t in sample.grid.points],
        ([f"s{i}"] + [repr(float(v)) for v in row] for i, row in enumerate(sample.values)),
    )


def _run_fit(argv, recorder) -> int:
    with wrapped(recorder), contextlib.redirect_stdout(io.StringIO()):
        start = time.process_time_ns()
        code = cli.main(argv)
        total = time.process_time_ns() - start
    if code != cli.EXIT_OK:
        raise RuntimeError(f"kfpca fit exited {code}")
    return total


def stage_profile(n: int, d: int, ncomp="3", repeats=1, peak=False) -> tuple[dict, dict]:
    """Median CPU ms of each stage, ``other`` and ``total`` over ``repeats``
    runs of ``kfpca fit --presmooth --eigen-smooth`` on an N x d dataset,
    and, when ``peak`` is set, the KiB (entry, peak) of each stage and the
    peak of the ``total`` in one more run under tracemalloc (else an empty
    dict)."""
    runs, peaks = [], {}
    with tempfile.TemporaryDirectory() as tmp:
        data, out = Path(tmp) / "data.csv", Path(tmp) / "model.json"
        write_dataset(data, n, d)
        argv = ["fit", str(data), "--ncomp", ncomp, "--presmooth", "--eigen-smooth",
                "--out", str(out)]
        for _ in range(repeats):
            clock = StageClock()
            total = _run_fit(argv, clock)
            row = {stage: clock.ns[stage] / 1e6 for stage in STAGES}
            row["other"] = total / 1e6 - sum(row.values())
            row["total"] = total / 1e6
            runs.append(row)
        if peak:
            recorder = StagePeak()
            tracemalloc.start()
            try:
                _run_fit(argv, recorder)
                recorder.read()
            finally:
                tracemalloc.stop()
            peaks = {
                stage: (recorder.entry[stage] / 1024, recorder.bytes[stage] / 1024)
                for stage in STAGES
            }
            peaks["total"] = (0.0, recorder.total / 1024)
    times = {key: float(np.median([r[key] for r in runs])) for key in runs[0]}
    return times, peaks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=200, help="curves")
    parser.add_argument("--d", type=int, default=1441, help="grid points")
    parser.add_argument("--ncomp", default="3", help="kfpca fit --ncomp")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--peak", action="store_true",
                        help="also print each stage's tracemalloc entry and peak, "
                             "from one untimed run")
    args = parser.parse_args(argv)
    times, peaks = stage_profile(args.n, args.d, args.ncomp, args.repeats, args.peak)
    print(f"kfpca fit --presmooth --eigen-smooth --ncomp {args.ncomp}, N={args.n}, "
          f"d={args.d}: median CPU ms of {args.repeats} run(s)")
    for stage, ms in times.items():
        print(f"{stage:>13} {ms:10.1f} {100 * ms / times['total']:6.1f}%")
    if peaks:
        print("tracemalloc KiB of one untimed run: at entry, peak")
        for stage, (entry, kib) in peaks.items():
            print(f"{stage:>13} {entry:10.1f} {kib:10.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
