"""Evaluation criteria, Monte Carlo aggregation, and the rate diagnostic.

Eigenfunctions are sign-indeterminate, so every comparison against truth
first aligns signs; the same sign flips the matching score column, keeping
eigenfunction and score errors consistent.  A Monte Carlo run generates its
dataset once and every method is fitted on that one dataset with the public
``fit``; the run scores the model's K x d eigenfunction array and N x K
score matrix against the 2 x d truth array and the true scores that the
run's ``TruthBundle`` carries.  ``imse`` scores one Curve against another.
"""

import dataclasses
import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import Curve, _check_count, _float_array, _require_same_grid, _weighted_dots
from .errors import ConfigurationError, InputError
from .estimators import kendall_tau_hat
from .model import METHODS, FitConfig, fit
from .simgen import SimulationScenario, generate

METRIC_NAMES = ("imse1", "imse2", "mse1", "mse2")

RATE_REFERENCE_FACTOR = 20


@dataclass(frozen=True, eq=False)
class RunMetrics:
    """Per-run estimation errors for one method on one scenario.  The two
    vectors are short, so they are checked as Python floats: a numpy
    reduction costs more than the work on a few elements."""

    imse: np.ndarray
    mse: np.ndarray
    run_index: int
    scenario: SimulationScenario
    method: str

    def __post_init__(self):
        imse = _float_array(self.imse)
        mse = _float_array(self.mse)
        object.__setattr__(self, "imse", imse)
        object.__setattr__(self, "mse", mse)
        if imse.ndim != 1 or imse.shape != mse.shape:
            raise InputError("imse and mse must be vectors of equal length")
        values = imse.tolist() + mse.tolist()
        if not all(map(math.isfinite, values)):
            raise InputError("metrics must be finite")
        if min(values, default=0.0) < 0:
            raise InputError("metrics must be non-negative")


@dataclass(frozen=True, eq=False)
class RateDiagnostic:
    """Sup-norm errors of the pairwise kernel estimate across sample sizes."""

    sample_sizes: tuple[int, ...]
    sup_errors: np.ndarray
    fitted_slope: float

    def __post_init__(self):
        sizes = _rate_sample_sizes(self.sample_sizes)
        errs = _float_array(self.sup_errors)
        slope = _float_array(self.fitted_slope)
        object.__setattr__(self, "sample_sizes", sizes)
        object.__setattr__(self, "sup_errors", errs)
        if errs.shape != (len(sizes),) or slope.shape:
            raise InputError("need one sup error per sample size and a scalar slope")
        if not (np.all((errs > 0) & (errs < np.inf)) and np.isfinite(slope)):
            raise InputError("sup errors must be positive and finite, the slope finite")


def _rate_sample_sizes(sample_sizes) -> tuple:
    """``sample_sizes`` as a tuple of >= 3 increasing counts >= 2, or ConfigurationError."""
    sizes = tuple(sample_sizes) if np.iterable(sample_sizes) else ()
    for n in sizes:
        _check_count("each sample size", n, 2)
    if len(sizes) < 3:
        raise ConfigurationError("need at least 3 sample sizes")
    if any(b <= a for a, b in zip(sizes[:-1], sizes[1:])):
        raise ConfigurationError("sample sizes must be strictly increasing")
    return sizes


def _aligned_imses(est: np.ndarray, truth: np.ndarray, weights: np.ndarray):
    """Alignment signs and integrated squared errors of the rows of two
    K x d arrays.  Row k's sign is +1 or -1, whichever makes its weighted
    inner product with truth[k] >= 0; a zero product keeps the input sign."""
    diff = est * truth
    signs = np.where(_weighted_dots(diff, weights) < 0, -1.0, 1.0)
    np.multiply(est, signs[:, None], out=diff)
    diff -= truth
    diff *= diff
    return signs, _weighted_dots(diff, weights)


def _score_mses(est: np.ndarray, truth: np.ndarray, signs) -> np.ndarray:
    """Mean squared error of each column of two N x K score matrices, column
    k of the estimate times signs[k].  Each mean sums one contiguous row of
    the transposed squares, as np.mean of a 1-D array does; axis 0 would not."""
    diff = est * signs
    diff -= truth
    diff *= diff
    return np.ascontiguousarray(diff.T).mean(axis=1)


def imse(estimated: Curve, truth: Curve) -> float:
    """Integrated squared error after sign alignment."""
    _require_same_grid(estimated.grid, truth.grid)
    _, err = _aligned_imses(estimated.values[None], truth.values[None], truth.grid.weights)
    return float(err[0])


# the two-component fit every Monte Carlo run makes
_RUN_CONFIGS = {m: FitConfig(method=m, n_components=2) for m in METHODS}


def _fit_configs(methods) -> tuple[FitConfig, ...]:
    """The run config of each method, in order."""
    for m in methods:
        if m not in METHODS:
            raise ConfigurationError(f"method must be one of {METHODS}, got {m!r}")
    return tuple(_RUN_CONFIGS[m] for m in methods)


def _evaluate(
    scenario: SimulationScenario, run_index: int, configs: tuple[FitConfig, ...]
) -> list[RunMetrics]:
    """Generate run ``run_index`` once, then fit and score each config on it."""
    bundle = generate(scenario, run_index)
    weights, truth = bundle.sample.grid.weights, bundle.true_eigenfunctions
    out = []
    for config in configs:
        model = fit(bundle.sample, config)
        signs, imses = _aligned_imses(model.eigenfunction_values, truth, weights)
        mses = _score_mses(model.scores, bundle.true_scores, signs)
        out.append(RunMetrics(imses, mses, run_index, scenario, config.method))
    return out


def evaluate_run(
    scenario: SimulationScenario, run_index: int, method: str
) -> RunMetrics:
    """Generate one run, fit one method with two components, and score it
    against the known truth."""
    return _evaluate(scenario, run_index, _fit_configs((method,)))[0]


def default_workers() -> int:
    """Worker count from the KFPCA_THREADS environment variable (default 1).

    Raises ConfigurationError unless the value is an integer >= 1.
    """
    raw = os.environ.get("KFPCA_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigurationError(f"KFPCA_THREADS must be an integer >= 1, got {raw!r}")
    return workers


def run_scenario(
    scenario: SimulationScenario,
    methods: tuple[str, ...],
    workers: int | None = None,
) -> dict[str, list[RunMetrics]]:
    """All Monte Carlo runs of a scenario for each method.

    Each run's dataset is generated once and every method is fitted on it.
    Results are identical for any worker count: every run draws from
    streams derived from (seed, run_index) and the output order is fixed.
    ``workers`` defaults to ``default_workers()``; the runs are split across
    one pool of that many processes.  An empty or unknown method, or an
    explicit ``workers`` that is not an integer >= 1, raises
    ConfigurationError before any data is generated.
    """
    configs = _fit_configs(methods)
    if not configs:
        raise ConfigurationError("methods must name at least one method")
    if workers is None:
        workers = default_workers()
    else:
        _check_count("workers", workers, 1)
    evaluate = functools.partial(_evaluate, scenario, configs=configs)
    if workers == 1 or scenario.runs < 4:
        rows = [evaluate(r) for r in range(scenario.runs)]
    else:
        # one contiguous chunk of runs per worker
        chunk = -(-scenario.runs // workers)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(evaluate, range(scenario.runs), chunksize=chunk))
    return {c.method: [row[i] for row in rows] for i, c in enumerate(configs)}


def aggregate(runs: list[RunMetrics]) -> dict[str, tuple[float, float]]:
    """Mean and sample standard deviation of each metric across runs.

    A single run reports SD 0 by convention.
    """
    if not runs:
        raise InputError("cannot aggregate an empty run list")
    first = runs[0]
    for r in runs[1:]:
        if r.scenario != first.scenario or r.method != first.method:
            raise InputError("runs must share one scenario and method")
        if r.imse.size != first.imse.size:
            raise InputError("runs must score the same number of components")
    table = {}
    for k in range(first.imse.size):
        for name, column in (
            (f"imse{k + 1}", np.array([r.imse[k] for r in runs])),
            (f"mse{k + 1}", np.array([r.mse[k] for r in runs])),
        ):
            sd = float(column.std(ddof=1)) if column.size > 1 else 0.0
            table[name] = (float(column.mean()), sd)
    return table


def convergence_rate(
    scenario: SimulationScenario,
    sample_sizes: tuple[int, ...],
    reps: int,
) -> RateDiagnostic:
    """Empirical sup-norm convergence of the pairwise kernel estimate.

    For each sample size the estimate is compared entrywise against a
    plug-in reference computed once from a sample 20x the largest size,
    everything noiseless; the slope of log mean error on log size is the
    rate estimate (theory: -1/2).
    """
    sizes = _rate_sample_sizes(sample_sizes)
    _check_count("reps", reps, 1)

    noiseless = dataclasses.replace(scenario, sigma2=0.0, runs=len(sizes) * reps + 1)
    ref = dataclasses.replace(noiseless, n_subjects=RATE_REFERENCE_FACTOR * sizes[-1])
    reference = kendall_tau_hat(generate(ref, len(sizes) * reps).sample).matrix

    means = []
    for si, n in enumerate(sizes):
        sized = dataclasses.replace(noiseless, n_subjects=n)
        errs = []
        for rep in range(reps):
            estimate = kendall_tau_hat(generate(sized, si * reps + rep).sample).matrix
            errs.append(float(np.max(np.abs(estimate - reference))))
        means.append(float(np.mean(errs)))
    slope = float(np.polyfit(np.log(sizes), np.log(means), 1)[0])
    return RateDiagnostic(sizes, np.asarray(means), slope)
