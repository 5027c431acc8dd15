"""Reproducible generators for the simulation designs.

Observation matrices follow the two-component expansion
Y_ij = mu(t_j) + xi_i1 phi_1(t_j) + xi_i2 phi_2(t_j) + eps_ij with
mu = 0 on [0, 10], component variances (16, 9), and Gaussian measurement
noise.  Four score laws are supported: gaussian, a symmetric two-point
Gaussian mixture, a heavy-tailed elliptical construction with an
exponential radial shared within a subject, and a skewed heavy-tailed
skew-t calibrated to skewness 1.5 and excess kurtosis 5.1, whose solved
shape and standardizing moments are frozen as the ``SKEW_T_*`` constants.
A run's truth is its N x 2 score matrix and the scenario's read-only 2 x d
eigenfunction array, built once per scenario; ``true_eigenfunctions`` gives
the same two functions as Curves on any grid spanning [0, 10].
"""

import functools
import math
import numbers
from dataclasses import asdict, dataclass, fields

import numpy as np

from .core import (
    Curve,
    FunctionalSample,
    Grid,
    _check_count,
    _check_index,
    _check_non_negative,
    _readonly,
    derive_rng,
    make_regular_grid,
)
from .errors import ConfigurationError, InputError

DISTRIBUTIONS = ("gaussian", "mix_gaussian", "ec2", "skew_t")
CASES = (1, 2)

DOMAIN_START = 0.0
DOMAIN_END = 10.0

# Moment-matched shape of the unit skew-t with skewness 1.5 and excess
# kurtosis 5.1, and the mean and variance that standardize each skew-t score
# draw.  Frozen; tests/skew_t_oracle.py re-solves them from the moment
# formulas and the test suite checks them against it and against sampling.
SKEW_T_SLANT = 3.6733057106176057
SKEW_T_DF = 7.179676983235534
SKEW_T_MEAN = 0.8639328002648946
SKEW_T_VAR = 0.6397445808494527

# purpose tags for derive_rng streams
_SCORE_STREAM = 0
_NOISE_STREAM = 1


@dataclass(frozen=True)
class SimulationScenario:
    """Full recipe for one Monte Carlo experiment."""

    case: int = 1
    distribution: str = "gaussian"
    n_subjects: int = 100
    n_points: int = 51
    sigma2: float = 0.25
    lambdas: tuple[float, float] = (16.0, 9.0)
    runs: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.case not in CASES:
            raise ConfigurationError(f"case must be one of {CASES}, got {self.case}")
        for name, minimum in (("n_subjects", 2), ("n_points", 2), ("runs", 1), ("seed", 0)):
            _check_count(name, getattr(self, name), minimum)
        if self.distribution not in DISTRIBUTIONS:
            raise ConfigurationError(
                f"unknown distribution {self.distribution!r}; valid: "
                + ", ".join(DISTRIBUTIONS)
            )
        _check_non_negative("sigma2", self.sigma2)
        try:
            lambdas = tuple(self.lambdas)
        except TypeError:  # a scalar or None
            lambdas = ()
        if len(lambdas) != 2:
            raise ConfigurationError("lambdas must be two non-negative variances")
        for value in lambdas:
            _check_non_negative("each of lambdas", value)
        # numpy scalars pass the checks but not json.dumps of scenario_to_doc
        for name in ("case", "n_subjects", "n_points", "runs", "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "sigma2", float(self.sigma2))
        object.__setattr__(self, "lambdas", tuple(float(l) for l in lambdas))

    @functools.cached_property
    def _design(self) -> tuple[Grid, np.ndarray]:
        """The grid and the read-only 2 x d basis of the two truth curves,
        built on first use and shared by every run of the scenario."""
        grid = make_regular_grid(DOMAIN_START, DOMAIN_END, self.n_points)
        basis = np.stack([c.values for c in true_eigenfunctions(self.case, grid)])
        basis.setflags(write=False)
        return grid, basis

    def __getstate__(self):
        # unpickled arrays are writable, so a copy builds its own design
        return {k: v for k, v in self.__dict__.items() if k != "_design"}


@dataclass(frozen=True, eq=False)
class TruthBundle:
    """One generated dataset with its true N x 2 scores and its true
    eigenfunctions as a read-only 2 x d array on the sample's grid, row k
    holding eigenfunction k (the true mean is zero)."""

    sample: FunctionalSample
    true_scores: np.ndarray
    true_eigenfunctions: np.ndarray


def true_eigenfunctions(case: int, grid: Grid) -> tuple[Curve, Curve]:
    """The two analytic basis functions of a simulation case.

    Case 1 uses cos(pi t/10)/sqrt(5) and sin(pi t/10)/sqrt(5); case 2 uses
    sin(pi t/5)/sqrt(5) and cos(pi t/5)/sqrt(5).  Both pairs are
    orthonormal on [0, 10], which the grid must span.
    """
    if case not in CASES:
        raise ConfigurationError(f"case must be one of {CASES}, got {case}")
    t = grid.points
    if abs(t[0] - DOMAIN_START) > 1e-9 or abs(t[-1] - DOMAIN_END) > 1e-9:
        raise ConfigurationError(
            f"grid must span [{DOMAIN_START}, {DOMAIN_END}], got "
            f"[{t[0]}, {t[-1]}]"
        )
    root5 = math.sqrt(5.0)
    angle = np.pi * t / (10.0 if case == 1 else 5.0)
    first, second = (np.cos, np.sin) if case == 1 else (np.sin, np.cos)
    return Curve(grid, first(angle) / root5), Curve(grid, second(angle) / root5)


def _standard_skew_t(n: int, rng: np.random.Generator, slant: float, df: float):
    """Draws from the unit skew-t via the skew-normal / chi-square mix."""
    delta = slant / math.sqrt(1.0 + slant * slant)
    u0 = rng.standard_normal(n)
    u1 = rng.standard_normal(n)
    sn = delta * np.abs(u0) + math.sqrt(1.0 - delta * delta) * u1
    return sn / np.sqrt(rng.chisquare(df, n) / df)


def _signed_radial(
    lambda_k: float, eta: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """The ec2 score sqrt(lambda_k) eta u / sqrt(2) for radials eta, with u a
    random sign drawn from ``rng``."""
    u = rng.integers(0, 2, eta.size) * 2 - 1
    return math.sqrt(lambda_k) * eta * u / math.sqrt(2.0)


def draw_scores(
    distribution: str, lambda_k: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n independent component scores with mean 0 and variance lambda_k.

    The four laws share the first two moments and differ in shape:
    gaussian; an equal mixture of N(+-sqrt(lambda/2), lambda/2);
    sqrt(lambda) eta u / sqrt(2) with eta ~ Exp(1) and u a random sign;
    and the calibrated skew-t rescaled to variance lambda_k.
    """
    if distribution not in DISTRIBUTIONS:
        raise ConfigurationError(
            f"unknown distribution {distribution!r}; valid: "
            + ", ".join(DISTRIBUTIONS)
        )
    if isinstance(lambda_k, bool) or not (
        isinstance(lambda_k, numbers.Real) and 0.0 < lambda_k < math.inf
    ):
        raise ConfigurationError(
            f"lambda_k must be a finite positive number, got {lambda_k!r}"
        )
    _check_count("n", n, 0)
    if distribution == "gaussian":
        return rng.normal(0.0, math.sqrt(lambda_k), n)
    if distribution == "mix_gaussian":
        signs = rng.integers(0, 2, n) * 2 - 1
        half = math.sqrt(lambda_k / 2.0)
        return signs * half + half * rng.standard_normal(n)
    if distribution == "ec2":
        return _signed_radial(lambda_k, rng.standard_exponential(n), rng)
    z = _standard_skew_t(n, rng, SKEW_T_SLANT, SKEW_T_DF)
    scale = math.sqrt(lambda_k / SKEW_T_VAR)
    return scale * (z - SKEW_T_MEAN)


def _draw_score_matrix(
    distribution: str, lambdas: tuple[float, float], n: int, rng: np.random.Generator
) -> np.ndarray:
    """Joint N x 2 score matrix for one run.

    Components are uncorrelated under all four laws.  The ec2 law shares
    its exponential radial within a subject (the elliptical construction),
    so extreme subjects inflate both components together; signs stay
    independent across components.
    """
    scores = np.zeros((n, 2))
    active = [k for k in range(2) if lambdas[k] > 0]
    if not active:
        return scores
    if distribution == "ec2":
        eta = rng.standard_exponential(n)
        for k in active:
            scores[:, k] = _signed_radial(lambdas[k], eta, rng)
        return scores
    for k in active:
        scores[:, k] = draw_scores(distribution, lambdas[k], n, rng)
    return scores


def generate(scenario: SimulationScenario, run_index: int) -> TruthBundle:
    """Generate one run's observation matrix plus its ground truth.

    Deterministic in (scenario.seed, run_index): scores and noise come
    from separate derived streams, so runs can execute in any order.  Every
    run of one scenario object shares its read-only grid and truth array.
    The noise is drawn as standard normals, scaled and added to the signal
    in place, in the one N x d array the sample keeps: the values are
    those of ``normal(0, sigma, (N, d))`` plus the signal, bit for bit.
    """
    _check_index("run_index", run_index, scenario.runs)
    grid, basis = scenario._design

    score_rng = derive_rng(scenario.seed, run_index, _SCORE_STREAM)
    noise_rng = derive_rng(scenario.seed, run_index, _NOISE_STREAM)
    scores = _draw_score_matrix(
        scenario.distribution, scenario.lambdas, scenario.n_subjects, score_rng
    )
    # normal(0, sigma, shape) is 0 + sigma z for these same standard
    # normals z.  The 0 + only turns -0.0 into +0.0, as adding the signal
    # does unless the signal is -0.0 too; the tests check the bits against
    # normal() with zero variances, where that could occur
    values = noise_rng.standard_normal((scenario.n_subjects, scenario.n_points))
    values *= math.sqrt(scenario.sigma2)
    values += scores @ basis
    return TruthBundle(
        sample=FunctionalSample(grid, _readonly(values)),
        true_scores=scores,
        true_eigenfunctions=basis,
    )


def scenario_to_doc(scenario: SimulationScenario) -> dict:
    """JSON-compatible scenario document."""
    return {**asdict(scenario), "lambdas": list(scenario.lambdas)}


def scenario_from_doc(doc: dict) -> SimulationScenario:
    """The scenario of a document, each field checked as it was read."""
    try:
        return SimulationScenario(**{f.name: doc[f.name] for f in fields(SimulationScenario)})
    except KeyError as exc:
        raise InputError(f"scenario document is missing field {exc.args[0]!r}")
