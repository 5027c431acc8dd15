"""The benchmark's three workloads, each a closed loop of one kind of operation.

A workload builds its inputs from the benchmark seed in ``prepare``, runs a
checked warm-up pass in ``warm_up``, and then repeats ``op``.  ``verify``
checks the warm-up outputs against references recorded from the library
(``reference.json``, written by ``record_reference.py``) and ``check`` tests
every later operation.  Library functions are always called through their
module attribute (``model.fit``, not a local alias) so that the traced run's
wrappers see the calls.
"""

import contextlib
import csv
import dataclasses
import io
import json
from pathlib import Path
from time import process_time_ns

import numpy as np

import kfpca.cli as cli
import kfpca.metrics as metrics
import kfpca.model as model
import kfpca.simgen as simgen

REFERENCE_FILE = Path(__file__).with_name("reference.json")
# References are recorded for data seeds 0..REFERENCE_SEEDS-1; the benchmark
# seed is reduced modulo this count before any input is generated.
REFERENCE_SEEDS = 100
# Relative tolerance for outputs compared with a recorded or warm-up value;
# only cli_smooth's model read-back is compared bit-exactly.
RTOL = 1e-6
# unit-norm eigenfunctions are at most sqrt(2) away from a sign-aligned truth
IMSE_MAX = 2.0 + 1e-9
ORTHONORMAL_ATOL = 1e-8
TRACE_ATOL = 1e-8


def data_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _close(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=RTOL, atol=0.0))


def same(a, b) -> bool:
    """Field-for-field, bit-exact equality of models and their parts."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if dataclasses.is_dataclass(a):
        return all(
            same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


class McPaper:
    """Repeated ``metrics.evaluate_run`` on the paper's skew-t design.

    Operation i is run index (i // 2) mod RUNS with method METHODS[i % 2],
    so the loop cycles through the paper's 100 runs for both methods.
    """

    name = "mc_paper"
    RUNS = 100
    METHODS = ("kfpca", "cov")

    def prepare(self, seed: int, workdir: Path):
        self.scenario = simgen.SimulationScenario(
            case=1,
            distribution="skew_t",
            n_subjects=100,
            n_points=51,
            sigma2=0.25,
            runs=self.RUNS,
            seed=data_seed(seed),
        )
        self.cycle = 2 * self.RUNS

    def op(self, i: int):
        run, method = divmod(i % self.cycle, 2)
        return metrics.evaluate_run(self.scenario, run, self.METHODS[method])

    def warm_up(self):
        return [self.op(i) for i in range(self.cycle)]

    def verify(self, outputs, reference) -> tuple[int, int]:
        """Compare the aggregated table of one full cycle with the record."""
        expected = reference[self.name][str(self.scenario.seed)]
        failed = 0
        for m, method in enumerate(self.METHODS):
            runs = outputs[m :: 2]
            table = metrics.aggregate(runs)
            ok = set(table) == set(expected[method]) and all(
                _close(table[k], expected[method][k]) for k in table
            )
            if not ok:
                failed += len(runs)
        self.expected = outputs
        return len(outputs), failed

    def check(self, i: int, out) -> bool:
        ref = self.expected[i % self.cycle]
        return (
            bool(np.all(out.imse <= IMSE_MAX))
            and _close(out.imse, ref.imse)
            and _close(out.mse, ref.mse)
        )

    def extras(self, out) -> dict:
        return {}


def fit_record(fitted) -> dict:
    """The numbers of a large-N fit that the reference records."""
    ev = fitted.operator_eigenvalues
    return {
        "n_components": int(fitted.n_components),
        "leading_eigenvalues": [float(v) for v in ev[:4]],
        "kept_eigenvalue_sum": float(ev.sum()),
    }


class FitLargeN:
    """Repeated ``model.fit(method="kfpca", n_components=0.95)`` on one
    skew-t sample with N=4000 and d=101."""

    name = "fit_large_n"
    N = 4000
    D = 101

    def prepare(self, seed: int, workdir: Path):
        scenario = simgen.SimulationScenario(
            case=1,
            distribution="skew_t",
            n_subjects=self.N,
            n_points=self.D,
            runs=1,
            seed=data_seed(seed),
        )
        self.seed = scenario.seed
        self.sample = simgen.generate(scenario, 0).sample
        self.config = model.FitConfig(method="kfpca", n_components=0.95)

    def op(self, i: int):
        return model.fit(self.sample, self.config)

    def warm_up(self):
        return [self.op(0)]

    def verify(self, outputs, reference) -> tuple[int, int]:
        self.expected = reference[self.name][str(self.seed)]
        return len(outputs), sum(not self.check(0, out) for out in outputs)

    def check(self, i: int, out) -> bool:
        """Orthonormal eigenfunctions, descending eigenvalues, a kernel of
        unit weighted trace, and agreement with the recorded fit."""
        ev = out.operator_eigenvalues
        w = out.grid.weights
        phi = np.stack([c.values for c in out.eigenfunctions])
        gram = (phi * w) @ phi.T
        # the decomposed spectrum sums to the kernel's weighted trace
        total = float(ev.sum()) / out.fraction_variance_explained()
        got = fit_record(out)
        exp = self.expected
        return (
            bool(np.all(np.diff(ev) <= 0))
            and bool(np.allclose(gram, np.eye(len(ev)), rtol=0.0, atol=ORTHONORMAL_ATOL))
            and abs(total - 1.0) <= TRACE_ATOL
            and got["n_components"] == exp["n_components"]
            and _close(got["leading_eigenvalues"], exp["leading_eigenvalues"])
            and _close(got["kept_eigenvalue_sum"], exp["kept_eigenvalue_sum"])
        )

    def extras(self, out) -> dict:
        return {}


class CliSmooth:
    """``kfpca fit data.csv --presmooth --eigen-smooth --out model.json``
    through ``cli.main`` in-process, then ``model.load_model`` on the file."""

    name = "cli_smooth"
    N = 200
    D = 101

    def prepare(self, seed: int, workdir: Path):
        scenario = simgen.SimulationScenario(
            case=1,
            distribution="skew_t",
            n_subjects=self.N,
            n_points=self.D,
            runs=1,
            seed=data_seed(seed),
        )
        sample = simgen.generate(scenario, 0).sample
        self.csv_path = str(workdir / "data.csv")
        self.model_path = str(workdir / "model.json")
        with open(self.csv_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id"] + [repr(float(t)) for t in sample.grid.points])
            for i, row in enumerate(sample.values):
                writer.writerow([f"s{i}"] + [repr(float(v)) for v in row])
        self.argv = [
            "fit", self.csv_path, "--presmooth", "--eigen-smooth",
            "--out", self.model_path,
        ]

    def op(self, i: int):
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            code = cli.main(self.argv)
        start = process_time_ns()
        loaded = model.load_model(self.model_path)
        load_ns = process_time_ns() - start
        return code, printed.getvalue(), loaded, load_ns

    def warm_up(self):
        return [self.op(0)]

    def verify(self, outputs, reference) -> tuple[int, int]:
        """The model the library fits in memory is the bit-exact reference
        for every model the command writes."""
        sample = cli.read_dataset(self.csv_path)
        config = model.FitConfig(presmooth=True, eigen_smooth=True)
        self.expected = model.fit(sample, config)
        return len(outputs), sum(not self.check(0, out) for out in outputs)

    def check(self, i: int, out) -> bool:
        code, printed, loaded, _ = out
        return (
            code == 0
            and f"components: {self.expected.n_components}\n" in printed
            and same(loaded, self.expected)
        )

    def extras(self, out) -> dict:
        return {"load_ms": out[3] / 1e6}


WORKLOADS = {w.name: w for w in (McPaper, FitLargeN, CliSmooth)}
