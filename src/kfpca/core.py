"""Grids, curves, quadrature, and local-linear smoothing.

Everything downstream works on curves observed at a common set of time
points.  Integrals are trapezoid sums with per-point quadrature weights,
which a grid derives from its points alone, so an inner product is a single
weighted dot product and is exact whenever the integrand is piecewise
linear between grid points.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionError, EstimationError, InputError

GCV_CANDIDATE_COUNT = 20

# rows per block wherever N x d curves are worked through in pieces (GCV
# smoothing, centering, the pair sum's square tiles, score projection): a
# float64 block of d = 101 columns is 202 KiB, whatever N is
_PAIR_TILE = 256


def _float_array(values, copy: bool = False) -> np.ndarray:
    """``values`` as a float array, not copied if they already are one
    unless ``copy`` asks for a fresh C-ordered ndarray; InputError if they
    are not a rectangular array of numbers."""
    try:
        if copy:
            return np.array(values, dtype=float, order="C")
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"values are not a rectangular array of numbers: {exc}") from None


def _frozen_array(values) -> np.ndarray:
    """``values`` as a read-only array, checked as ``_float_array`` checks:
    a C-ordered float64 ndarray that is read-only and owns its memory (as
    the library's own results handed over by ``_readonly`` are) is kept,
    so only a caller that sets it writable again could change it; any
    other input is converted into one fresh array, so the caller's later
    writes miss it."""
    if (
        type(values) is np.ndarray
        and values.dtype == np.float64
        and values.flags.owndata
        and not values.flags.writeable
        and values.flags.c_contiguous
    ):
        return values
    return _readonly(_float_array(values, copy=True))


def _readonly(values: np.ndarray) -> np.ndarray:
    """A fresh array the caller gives up, marked read-only for adoption."""
    values.setflags(write=False)
    return values


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer and not a bool.  An exact int, the
    common case, skips the ``numbers.Integral`` check, which goes through
    the ABC machinery."""
    return type(value) is int or (
        not isinstance(value, bool) and isinstance(value, numbers.Integral)
    )


def _check_count(name: str, value, minimum: int) -> None:
    """Raise ConfigurationError unless ``value`` is an integer (not a bool)
    at least ``minimum``."""
    if not _is_integer(value) or value < minimum:
        raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _check_index(name: str, value, size: int) -> None:
    """Raise InputError unless ``value`` is an integer (not a bool) in
    [0, size)."""
    if not _is_integer(value):
        raise InputError(f"{name} must be an integer, got {value!r}")
    if not 0 <= value < size:
        raise InputError(f"{name} {value} out of range [0, {size})")


def _check_non_negative(name: str, value) -> None:
    """Raise ConfigurationError unless ``value`` is a finite real >= 0 and
    not a bool."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and 0.0 <= value < np.inf):
        raise ConfigurationError(
            f"{name} must be a finite non-negative number, got {value!r}"
        )


def _check_bandwidth(name: str, value) -> float | str:
    """``value`` as "auto" or a float; raise ConfigurationError unless it is
    "auto" or a real > 0 that is neither a bool nor NaN."""
    if isinstance(value, str) and value == "auto":
        return value
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and value > 0):
        raise ConfigurationError(f"{name} must be positive or 'auto', got {value!r}")
    return float(value)


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Create an independent generator keyed on (seed, *key).

    Streams for distinct keys are statistically independent and do not
    depend on the order in which they are created, so work split across
    runs or replicates stays reproducible under any execution order.
    The seed and each key are integers >= 0; ConfigurationError otherwise.
    """
    _check_count("seed", seed, 0)
    for part in key:
        _check_count("each key", part, 0)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


@dataclass(frozen=True, eq=False)
class Grid:
    """Ordered observation time points with their trapezoid quadrature
    weights, which the points determine."""

    points: np.ndarray
    weights: np.ndarray = field(init=False)

    def __post_init__(self):
        pts = _frozen_array(self.points)
        object.__setattr__(self, "points", pts)
        if pts.ndim != 1 or pts.size < 2:
            raise ConfigurationError("grid needs at least 2 points")
        if not np.all(np.isfinite(pts)):
            raise ConfigurationError("grid points must be finite")
        if np.any(np.diff(pts) <= 0):
            raise ConfigurationError("grid points must be strictly increasing")
        w = np.empty_like(pts)
        w[0] = (pts[1] - pts[0]) / 2.0
        w[-1] = (pts[-1] - pts[-2]) / 2.0
        w[1:-1] = (pts[2:] - pts[:-2]) / 2.0
        # halving can round a subnormal gap to zero
        if np.any(w <= 0):
            raise ConfigurationError("quadrature weights must be positive")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return int(self.points.size)

    @property
    def span(self) -> float:
        return float(self.points[-1] - self.points[0])

    @property
    def spacing(self) -> float:
        """Mean distance between neighbouring points."""
        return self.span / (self.size - 1)

    def matches(self, other: "Grid") -> bool:
        return other is self or (
            self.points.shape == other.points.shape
            and np.array_equal(self.points, other.points)
        )


def make_regular_grid(a: float, b: float, d: int) -> Grid:
    """Equally spaced grid on [a, b] with d points and trapezoid weights.

    Interior weights equal the spacing h = (b - a)/(d - 1), endpoint
    weights h/2, so the weights sum to b - a.  ConfigurationError unless
    a and b are finite reals (not bools) with a < b and d is an integer >= 2.
    """
    real = all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in (a, b))
    if not (real and np.isfinite(a) and np.isfinite(b) and a < b):
        raise ConfigurationError(f"invalid bounds: need finite a < b, got [{a}, {b}]")
    _check_count("d", d, 2)
    return Grid(np.linspace(a, b, d))


@dataclass(frozen=True, eq=False)
class Curve:
    """A function observed at every point of a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values))
        if self.values.shape != self.grid.points.shape:
            raise DimensionError("curve values must match grid length")
        if not np.all(np.isfinite(self.values)):
            raise InputError("curve values must be finite")


@dataclass(frozen=True, eq=False)
class FunctionalSample:
    """N curves observed on one shared grid, stored as an N x d matrix."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values))
        if self.values.ndim != 2:
            raise InputError("sample values must be a 2-d matrix")
        if self.values.shape[0] < 2:
            raise InputError("a functional sample needs at least 2 curves")
        if self.values.shape[1] != self.grid.size:
            raise DimensionError("sample column count must match grid length")
        if not np.all(np.isfinite(self.values)):
            raise InputError("sample values must be finite")

    @property
    def n_subjects(self) -> int:
        return int(self.values.shape[0])


def _require_same_grid(a: Grid, b: Grid):
    if not a.matches(b):
        raise DimensionError("curves live on different grids")


def inner_product(f: Curve, g: Curve) -> float:
    """Quadrature inner product sum_j w_j f(t_j) g(t_j)."""
    _require_same_grid(f.grid, g.grid)
    return float(f.grid.weights @ (f.values * g.values))


def _weighted_dots(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``weights @ row`` for each row of a K x d array, as one vector dot per
    row (a stack of 1 x d products); a matrix-vector product rounds otherwise."""
    return (rows[:, None, :] @ weights)[:, 0]


def _local_linear_matrix(dt, bandwidth: float, k, s) -> float:
    """Fill ``s`` with the smoother matrix of a Gaussian local-linear fit and
    return its trace; ``dt`` holds points[j] - points[i], ``k`` is work space.

    Row i, the fit at points[i], is a_i K_i - b_i (K o dt)_i, where s_m are
    the row sums of K o dt^m, a = s2/denom, b = s1/denom, denom = s0 s2 - s1^2.
    It reproduces constants and linears at any bandwidth; the trace is sum(a).

    Weights below the floor 2^54 d tiny (tiny = 2.2e-308, the smallest
    normal double) are 0 without an exp call, since exp on such arguments
    and a product meeting subnormals each run about ten times slower; no
    fitted value not itself near 1e-290 moves.  As a >= 1/s0 >= 1/d, each
    kept a K is at least 2^54 tiny, so every entry of S is 0 or at least
    2 tiny and none is subnormal.  The least weight is at dt[0, -1]; only a
    bandwidth that puts it below the floor pays for the mask.
    """
    tiny = np.finfo(float).tiny
    floor = np.log(2.0**54 * len(dt) * tiny)
    # below about 1e-154 of the span a bandwidth overflows the squares to
    # inf, a weight of exactly 0, as below the floor
    with np.errstate(over="ignore"):
        np.divide(dt, bandwidth, out=s)
        np.multiply(s, s, out=s)
        np.multiply(s, -0.5, out=s)
        underflows = -0.5 * (dt[0, -1] / bandwidth) ** 2 < floor
    if underflows:
        k.fill(0.0)
    np.exp(s, out=k, where=s >= floor if underflows else True)
    s0 = k.sum(axis=1)
    np.multiply(k, dt, out=s)
    s1 = s.sum(axis=1)
    s2 = np.einsum("ij,ij->i", s, dt)
    denom = s0 * s2 - s1 * s1
    # Tiny bandwidths concentrate all mass on one point and the local-linear
    # system degenerates; fall back to a local-constant fit (a = 1/s0, b = 0).
    bad = denom <= tiny * np.maximum(s0 * s2, 1.0)
    s2[bad], s1[bad], denom[bad] = 1.0, 0.0, s0[bad]
    a, b = s2 / denom, s1 / denom
    np.multiply(s, b[:, None], out=s)
    np.multiply(k, a[:, None], out=k)
    np.subtract(k, s, out=s)
    return float(a.sum())


def gcv_bandwidth_candidates(grid: Grid) -> np.ndarray:
    """Log-spaced bandwidths from half the grid spacing to a quarter span."""
    lo = 0.5 * grid.spacing
    hi = 0.25 * grid.span
    return np.exp(np.linspace(np.log(lo), np.log(hi), GCV_CANDIDATE_COUNT))


def smooth_rows(grid: Grid, values: np.ndarray, bandwidth="auto") -> np.ndarray:
    """Local-linear smooth of each row of an n x d matrix onto the grid.

    ``bandwidth`` is a positive Gaussian kernel bandwidth or "auto", which
    picks for each row separately the generalized cross-validation minimizer
    over a fixed log-spaced candidate set (on ties the smaller bandwidth).
    Raises EstimationError if no candidate gives a row a finite score.

    Beyond its input and the n x d result, a smooth holds three d x d
    arrays (the grid differences, the smoother and its work space) and,
    under "auto", the fits and residuals of one ``_PAIR_TILE``-row block
    and n best scores: each candidate's smoother is built once and the
    rows are scored against it block by block.
    """
    bandwidth = _check_bandwidth("bandwidth", bandwidth)
    dt = grid.points[None, :] - grid.points[:, None]
    k, s = np.empty_like(dt), np.empty_like(dt)
    if bandwidth == "auto":
        return _gcv_smooth(grid, values, dt, k, s)[0]
    _local_linear_matrix(dt, bandwidth, k, s)
    return values @ s.T


def _gcv_smooth(grid: Grid, values: np.ndarray, dt, k, s) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``values`` smoothed at its GCV bandwidth, the candidate
    with the least score d RSS / df^2 among those with df = d - tr(S) above
    1e-8, and the n bandwidths chosen; ``dt``, ``k`` and ``s`` are as for
    ``_local_linear_matrix``, which leaves ``s`` at the last candidate.
    Raises EstimationError if no candidate gives a row a finite score."""
    n, d = len(values), grid.size
    out = np.empty_like(values)
    fitted = np.empty((min(_PAIR_TILE, n), d))
    resid = np.empty_like(fitted)
    best = np.full(n, np.inf)
    chosen = np.empty(n)
    for cand in gcv_bandwidth_candidates(grid):
        df = d - _local_linear_matrix(dt, cand, k, s)
        if df < 1e-8:
            continue
        for i0 in range(0, n, _PAIR_TILE):
            rows = values[i0 : i0 + _PAIR_TILE]
            fit = np.matmul(rows, s.T, out=fitted[: len(rows)])
            res = np.subtract(rows, fit, out=resid[: len(rows)])
            score = d * np.einsum("ij,ij->i", res, res) / df**2
            best_rows = best[i0 : i0 + len(rows)]
            better = score < best_rows
            best_rows[better] = score[better]
            chosen[i0 : i0 + len(rows)][better] = cand
            np.copyto(out[i0 : i0 + len(rows)], fit, where=better[:, None])
    if not np.all(np.isfinite(best)):
        raise EstimationError("no GCV bandwidth gives a finite score")
    return out, chosen
