"""Pointwise second-order estimators and the bootstrap mean band.

Two kernel-function estimators are provided: the pairwise rank-flavoured
estimator built from spatial signs of curve differences (robust to heavy
tails and skewness), and the plain sample covariance baseline.  Both return
a symmetric positive semidefinite matrix on the sample's grid.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .core import (
    Curve,
    FunctionalSample,
    Grid,
    _check_count,
    _check_non_negative,
    _frozen_array,
    derive_rng,
)
from .errors import ConfigurationError, EstimationError, InputError

KENDALL = "kendall"
COVARIANCE = "covariance"

SYMMETRY_RTOL = 1e-10
PSD_RTOL = 1e-8
TRACE_ATOL = 1e-8

# purpose tag for bootstrap replicate streams (see core.derive_rng)
_BOOTSTRAP_STREAM = 11

# edge of the square pair tiles: each float64 scratch array of the pair sum
# is 512 KiB, whatever N is
_PAIR_TILE = 256


@dataclass(frozen=True, eq=False)
class DiscretizedKernel:
    """A symmetric kernel function evaluated on a grid x grid mesh.

    ``kind`` records which estimator produced the matrix; the pairwise
    sign-based kind additionally carries a unit weighted trace.

    Construction reduces W^{1/2} M W^{1/2}, W = diag(weights) (see
    ``eigen``), once to tridiagonal form T = Q^T (W^{1/2} M W^{1/2}) Q by
    Householder reflections (LAPACK dsytrd) and keeps ``eigenvalues``, the
    full descending spectrum of T (dsterf).  By Sylvester's law of inertia
    their signs are M's own, so the PSD check reads them.  No eigenvector is
    formed then: ``leading_eigenvectors(k)`` computes the k leading ones of
    T and maps only those back through the stored reflections.
    """

    grid: Grid
    matrix: np.ndarray
    kind: str
    eigenvalues: np.ndarray = field(init=False, repr=False)
    # dsytrd's output: T's diagonal and off-diagonal, and Q as reflectors
    # below the first subdiagonal of _reflectors with their scalars _tau
    _diagonal: np.ndarray = field(init=False, repr=False)
    _off_diagonal: np.ndarray = field(init=False, repr=False)
    _reflectors: np.ndarray = field(init=False, repr=False)
    _tau: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen_array(self.matrix))
        m = self.matrix
        if self.kind not in (KENDALL, COVARIANCE):
            raise ConfigurationError(f"unknown kernel kind {self.kind!r}")
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != self.grid.size:
            raise InputError("kernel matrix must be d x d for the grid's d")
        if not np.all(np.isfinite(m)):
            raise InputError("kernel matrix must be finite")
        scale = float(np.abs(m).max())
        if float(np.abs(m - m.T).max()) > SYMMETRY_RTOL * max(scale, 1e-300):
            raise InputError("kernel matrix is not symmetric")
        sqrt_w = np.sqrt(self.grid.weights)
        sym = sqrt_w[:, None] * m * sqrt_w[None, :]
        sym = (sym + sym.T) / 2.0
        # sym is exactly symmetric, so its transpose is the same matrix in
        # the Fortran order that dsytrd overwrites without a copy
        lwork, info = lapack.dsytrd_lwork(m.shape[0], lower=1)
        _lapack_info("dsytrd_lwork", info)
        reflectors, diag, off, tau, info = lapack.dsytrd(
            sym.T, lower=1, lwork=int(lwork), overwrite_a=1
        )
        _lapack_info("dsytrd", info)
        evals, info = lapack.dsterf(diag, off)
        _lapack_info("dsterf", info)
        if evals[0] < -PSD_RTOL * max(float(evals[-1]), 0.0) - 1e-300:
            raise EstimationError(
                f"kernel matrix is not positive semidefinite (min eig {evals[0]:.3e})"
            )
        if self.kind == KENDALL and abs(self.weighted_trace - 1.0) > TRACE_ATOL:
            raise EstimationError(
                f"weighted trace of a {KENDALL} kernel must be 1, got {self.weighted_trace!r}"
            )
        for name, value in (
            ("eigenvalues", evals[::-1]),
            ("_diagonal", diag),
            ("_off_diagonal", off),
            ("_reflectors", reflectors),
            ("_tau", tau),
        ):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def weighted_trace(self) -> float:
        return float(self.grid.weights @ np.diag(self.matrix))

    def leading_eigenvectors(self, k: int) -> np.ndarray:
        """The d x k matrix whose column j is the unit eigenvector of
        W^{1/2} M W^{1/2} paired with ``eigenvalues[j]``, for j < k.

        The k leading eigenvectors of the tridiagonal T come from bisection
        and inverse iteration (dstebz, dstein) when 10 k <= d, and otherwise
        from T's full divide-and-conquer solve (dstevd), of which the last k
        columns are kept.  Either way only those k columns are multiplied by
        Q (dormqr).  Inverse iteration costs grow with k, divide and conquer
        costs the same for any k; timed from T to the d x k result (one BLAS
        thread, OpenBLAS 0.3.31, 2-vCPU x86-64 guest) the two broke even at
        about k = 8 of d = 51, 13 of d = 101 and 40 of d = 401.  MRRR
        (dstemr with an index range) cannot replace both: on the same host
        it took 0.045 ms at (d, k) = (51, 2) against dstein's 0.052, but
        2.27 ms at (101, 75) against dstevd's 0.76.
        Raises EstimationError when LAPACK reports a failure.
        """
        d = self.grid.size
        _check_count("n_components", k, 1)
        if k > d:
            raise ConfigurationError(f"n_components must lie in [1, {d}], got {k}")
        diag, off = self._diagonal, self._off_diagonal
        if 10 * k <= d:
            # eigenvalues d-k+1..d (1-based, ascending) to full accuracy,
            # grouped by split-off block as dstein needs them
            found, w, block, split, info = lapack.dstebz(
                diag, off, 3, 0.0, 0.0, d - k + 1, d, 2.0 * np.finfo(float).tiny, "B"
            )
            if info or found != k:
                raise EstimationError(
                    f"LAPACK dstebz found {found} of {k} eigenvalues (info {info})"
                )
            z, info = lapack.dstein(diag, off, w[:k], block, split)
            _lapack_info("dstein", info)
            z = z[:, np.argsort(w[:k])[::-1]]
            # k short columns: the unblocked reflector loop is fastest
            lwork = k
        else:
            _, z, info = lapack.dstevd(diag, off)
            _lapack_info("dstevd", info)
            z = z[:, ::-1][:, :k]
            # dormqr's blocked workspace: at most k NB + (NB + 1) NB, NB <= 64
            lwork = 64 * (k + 65)
        # Q = diag(1, H_1 ... H_{d-1}), so row 0 passes through unchanged
        out = np.empty((k, d))
        out[:, 0] = z[0]
        q_z, _, info = lapack.dormqr(
            "L", "N", self._reflectors[1:, :-1], self._tau, z[1:], lwork
        )
        _lapack_info("dormqr", info)
        out[:, 1:] = q_z.T
        return out.T


def _lapack_info(routine: str, info: int) -> None:
    """Raise EstimationError for a nonzero LAPACK ``info``."""
    if info:
        raise EstimationError(f"LAPACK {routine} failed (info {info})")


@dataclass(frozen=True, eq=False)
class MeanBand:
    """Pointwise bootstrap percentile band around the mean curve."""

    mean: Curve
    lower: Curve
    upper: Curve
    level: float
    replicates: int


def mean_hat(sample: FunctionalSample) -> Curve:
    """Pointwise average curve across subjects."""
    return Curve(sample.grid, sample.values.mean(axis=0))


def _centered(sample: FunctionalSample) -> tuple[np.ndarray, float]:
    """The N x (d + 2) pair-sum buffer [X_c | 1 | q] and the mean pairwise
    squared norm: X_c the column-centered values, q_i the squared norm of
    centered curve i.  Differences X_i - X_j do not see the centering, and
    after it the cross terms of sum_{i<j} |X_i - X_j|^2 vanish, leaving
    n sum(q); centering first also keeps the Gram identity free of
    cancellation when the curves sit far from zero."""
    x = sample.values
    n, d = x.shape
    buf = np.empty((n, d + 2))
    xc = np.subtract(x, x.mean(axis=0), out=buf[:, :d])
    buf[:, d] = 1.0
    q = np.einsum("ij,j,ij->i", xc, sample.grid.weights, xc, out=buf[:, d + 1])
    return buf, 2.0 * float(q.sum()) / (n - 1)


def kendall_tau_hat(
    sample: FunctionalSample, degenerate_tol: float = 1e-12
) -> DiscretizedKernel:
    """Pairwise spatial-sign kernel estimate.

    Each unordered pair of distinct curves contributes the outer product of
    its difference divided by the squared quadrature norm of that
    difference; the estimate averages those rank-one terms.  Pairs whose
    squared norm falls at or below ``degenerate_tol`` times the mean
    pairwise squared norm, or within the rounding of its Gram-identity
    computation (d + 2 ulps of the two centered curves' squared norms), are
    dropped and the divisor shrinks accordingly.

    The result is symmetric, positive semidefinite, and has weighted trace
    one.  It is invariant under common scaling and shifts of the sample.

    Parameters
    ----------
    sample : FunctionalSample
        At least two curves on a shared grid.
    degenerate_tol : float
        Relative threshold below which a pair counts as degenerate.

    Raises
    ------
    ConfigurationError
        ``degenerate_tol`` not a number, negative, infinite or NaN.
    EstimationError
        Every pair degenerate (e.g. all curves identical).
    """
    _check_non_negative("degenerate_tol", degenerate_tol)
    buf, mean_sq_norm = _centered(sample)
    accum, ordered_retained = _pair_sum(
        buf, sample.grid.weights, degenerate_tol * mean_sq_norm
    )
    if ordered_retained == 0:
        raise EstimationError("all curve pairs are degenerate")
    # (accum + accum^T) / 2 is the unordered-pair sum, which has
    # ordered_retained / 2 terms
    accum /= ordered_retained
    return DiscretizedKernel(sample.grid, accum + accum.T, KENDALL)


def _pair_sum(buf: np.ndarray, w: np.ndarray, threshold: float) -> tuple[np.ndarray, int]:
    """A d x d matrix whose symmetric part is the sum of outer(D, D)/|D|^2
    over unordered pairs D = X_i - X_j with
    |D|^2 > max(threshold, (d + 2) eps (q_i + q_j)), and the count of such
    ordered pairs, for the buffer [X | 1 | q] of ``_centered``.

    The sum is X^T (diag(r) - C - C^T) X with C[i, j] = 1/|X_i - X_j|^2 on
    retained pairs i < j (0 elsewhere) and r the row sums of C + C^T.  The
    buffer's layout makes each tile two GEMMs and a few passes:

    - a row block I builds lhs = [X_I diag(-2 w) | q_I | 1], so
      lhs @ buf[J].T is q_i + q_j - 2 <X_i, X_j>_w = |X_i - X_j|^2;
    - inverted in place, that tile is C_IJ, and C_IJ @ buf[J, :d + 1] is
      [C_IJ X_J | row sums of C_IJ], summed over the row block as T_I;
    - the diagonal tile comes last, when r_I is complete; -r_i / 2 on its
      diagonal adds -diag(r_I) X_I / 2 to T_I, so -2 X_I^T T_I summed
      over row blocks is X^T diag(r) X - 2 X^T C X.

    The N x N pair matrix is walked in square tiles of edge ``_PAIR_TILE``,
    only those on or above the diagonal, and within a diagonal tile only
    j > i, so each unordered pair is visited once.  Scratch arrays are tile
    sized; beyond the buffer the sum holds one length-N vector.
    """
    n, d = buf.shape[0], buf.shape[1] - 2
    x, q = buf[:, :d], buf[:, d + 1]
    # the GEMM's rounding error is bounded by d + 2 ulps of q_i + q_j: a
    # squared norm at or below that is no pair's own (an exact duplicate
    # lands there, not at 0, and may land below 0), so it is dropped too;
    # cut >= 0 also drops negative norms
    ulps = (d + 2) * np.finfo(float).eps
    tile = min(_PAIR_TILE, n)
    on_or_below_diag = np.tri(tile, dtype=bool)
    lhs = np.empty((tile, d + 2))
    # one tile's inverse norms, reused so that two tiles are never alive
    scratch = np.empty(tile * tile)
    col_sums = np.zeros(n)
    accum = np.zeros((d, d))
    retained = 0
    for i0 in range(0, n, tile):
        i1 = min(i0 + tile, n)
        m = i1 - i0
        xi, qi = x[i0:i1], q[i0:i1]
        left = lhs[:m]
        # scaling by -2 is exact, so this gives -2 <X_i, X_j>_w bit for bit;
        # einsum writes the strided columns without ufunc buffers
        np.einsum("ij,j->ij", xi, -2.0 * w, out=left[:, :d])
        left[:, d] = qi
        left[:, d + 1] = 1.0
        t = np.zeros((m, d + 1))
        for j0 in reversed(range(i0, n, tile)):
            j1 = min(j0 + tile, n)
            inv = scratch[: m * (j1 - j0)].reshape(m, j1 - j0)
            np.matmul(left, buf[j0:j1].T, out=inv)
            if j0 == i0:
                inv[on_or_below_diag[:m, :m]] = 0.0
            cut = threshold
            if ulps * (qi.max() + q[j0:j1].max()) > threshold:
                cut = np.maximum(threshold, ulps * np.add.outer(qi, q[j0:j1]))
            drop = inv <= cut
            inv[drop] = np.inf
            np.reciprocal(inv, out=inv)
            retained += drop.size - np.count_nonzero(drop)
            col_sums[j0:j1] += inv.sum(axis=0)
            if j0 == i0:
                # every tile of column block I lies in row blocks <= I
                r = col_sums[i0:i1] + t[:, d] + inv.sum(axis=1)
                np.fill_diagonal(inv, -0.5 * r)
            t += inv @ buf[j0:j1, : d + 1]
        accum += xi.T @ t[:, :d]
    accum *= -2.0
    return accum, 2 * retained


def covariance_hat(sample: FunctionalSample) -> DiscretizedKernel:
    """Sample covariance matrix across subjects (divisor N - 1)."""
    x = sample.values
    xc = x - x.mean(axis=0)
    m = xc.T @ xc / (x.shape[0] - 1)
    return DiscretizedKernel(sample.grid, (m + m.T) / 2.0, COVARIANCE)


def bootstrap_mean_band(
    sample: FunctionalSample, level: float, replicates: int, seed: int
) -> MeanBand:
    """Percentile bootstrap band for the mean curve.

    Subjects are resampled with replacement; replicate b draws from a
    stream derived from (seed, b), so the band is reproducible and
    independent of replicate execution order.

    Parameters
    ----------
    level : float in (0, 1)
        Coverage level; the band spans the (1 - level)/2 and (1 + level)/2
        pointwise quantiles of the replicate means.  It is not built around
        the sample mean, so at a low level, on skewed data, it may exclude
        the mean at some points.
    replicates : int
        Number of bootstrap replicates, at least 100.
    """
    if not (isinstance(level, numbers.Real) and 0.0 < level < 1.0):
        raise ConfigurationError(f"level must lie in (0, 1), got {level!r}")
    _check_count("replicates", replicates, 100)
    x = sample.values
    n = x.shape[0]
    boot = np.empty((replicates, x.shape[1]))
    for b in range(replicates):
        rng = derive_rng(seed, b, _BOOTSTRAP_STREAM)
        idx = rng.integers(0, n, size=n)
        boot[b] = x[idx].mean(axis=0)
    alpha = (1.0 - level) / 2.0
    lower = np.quantile(boot, alpha, axis=0)
    upper = np.quantile(boot, 1.0 - alpha, axis=0)
    grid = sample.grid
    return MeanBand(
        mean=mean_hat(sample),
        lower=Curve(grid, lower),
        upper=Curve(grid, upper),
        level=level,
        replicates=replicates,
    )
