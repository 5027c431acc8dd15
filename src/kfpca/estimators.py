"""Pointwise second-order estimators and the bootstrap mean band.

Two kernel-function estimators are provided: the pairwise rank-flavoured
estimator built from spatial signs of curve differences (robust to heavy
tails and skewness), and the plain sample covariance baseline.  Both return
a symmetric positive semidefinite matrix on the sample's grid, as does
``smooth_kernel``, which smooths such a kernel surface on both axes.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import blas, lapack

from .core import (
    _PAIR_TILE,
    Curve,
    FunctionalSample,
    Grid,
    _check_bandwidth,
    _check_count,
    _frozen_array,
    _gcv_smooth,
    _local_linear_matrix,
    _readonly,
    derive_rng,
)
from .errors import ConfigurationError, EstimationError, InputError

SYMMETRY_RTOL = 1e-10
PSD_RTOL = 1e-8
TRACE_ATOL = 1e-8
# a curve pair whose squared norm is at most this share of the mean pairwise
# squared norm counts as degenerate
DEGENERATE_TOL = 1e-12
SIGN_TIE_ATOL = 1e-8

# purpose tag for bootstrap replicate streams (see core.derive_rng)
_BOOTSTRAP_STREAM = 11


@dataclass(frozen=True, eq=False)
class DiscretizedKernel:
    """A symmetric PSD kernel function on a grid x grid mesh and its
    weighted eigenproblem M W phi = lambda phi, W = diag(weights): the
    discretized  integral K(s, t) phi(s) ds = lambda phi(t).

    Construction reduces W^{1/2} M W^{1/2} once to tridiagonal form
    T = Q^T (W^{1/2} M W^{1/2}) Q by Householder reflections (LAPACK
    dsytrd) and keeps ``eigenvalues``, the full descending spectrum of T
    (dsterf).  By Sylvester's law of inertia their signs are M's own, so
    the PSD check reads them.  No eigenvector is formed then:
    ``eigenfunctions(k)`` computes the k leading unit eigenvectors v of T's
    problem and maps only those back, through the stored reflections, to
    phi = W^{-1/2} v, orthonormal in the quadrature inner product, with
    signs fixed so each integrates to a non-negative value.
    """

    grid: Grid
    matrix: np.ndarray
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
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != self.grid.size:
            raise InputError("kernel matrix must be d x d for the grid's d")
        scale = float(np.abs(m).max())
        if not np.isfinite(scale):  # a NaN or infinite entry makes the max one
            raise InputError("kernel matrix must be finite")
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

    def eigenfunctions(self, k: int) -> np.ndarray:
        """The C-ordered k x d array whose row j is W^{-1/2} v_j, v_j the
        unit eigenvector of W^{1/2} M W^{1/2} paired with ``eigenvalues[j]``:
        the k leading eigenfunctions on the grid, orthonormal in the
        quadrature inner product.  Each row's sign makes its weighted
        integral non-negative; a row integrating to about zero (within
        ``SIGN_TIE_ATOL``) has its first nonzero value positive.

        The k leading eigenvectors of the tridiagonal T come from inverse
        iteration (dstein) on the k leading stored eigenvalues when
        k <= min(d / 5, 32), and otherwise from T's full divide-and-conquer
        solve (dstevd), of which the last k columns are kept.  Either way
        only those k columns are multiplied by Q (dormqr).  Inverse
        iteration costs grow with k, divide and conquer costs the same for
        any k; timed from T to the d x k eigenvectors on skew-t Kendall
        and covariance kernels (one BLAS thread, OpenBLAS 0.3.31, 2-vCPU
        x86-64 guest), dstein stayed the faster up to k = 24 of d = 51
        (N = 100), 48 of d = 101, 48 of d = 401 and 56 of d = 1441
        (N = 200), so the rule keeps below each break-even.  MRRR (dstemr, index range) was slower
        than either there: 0.099 ms at (d, k) = (51, 2) against dstein's
        0.032, 2.55 ms at (101, 75) against dstevd's 0.93.
        Raises EstimationError when LAPACK reports a failure.
        """
        d = self.grid.size
        _check_count("n_components", k, 1)
        if k > d:
            raise ConfigurationError(f"n_components must lie in [1, {d}], got {k}")
        diag, off = self._diagonal, self._off_diagonal
        if 5 * k <= d and k <= 32:
            # the k leading stored eigenvalues, ascending, for T as one
            # block: iblock all 1, isplit[0] = d
            one_block = np.ones(d, np.int32), np.full(d, d, np.int32)
            z, info = lapack.dstein(diag, off, self.eigenvalues[k - 1 :: -1], *one_block)
            _lapack_info("dstein", info)
            z = z[:, ::-1]
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
        out /= np.sqrt(self.grid.weights)
        return _apply_sign_convention(out, self.grid.weights)


def _apply_sign_convention(phi: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Flip rows so each weighted integral is non-negative; a row whose
    integral is essentially zero gets its first nonzero value positive."""
    s = phi @ weights
    first = phi[np.arange(phi.shape[0]), np.argmax(phi != 0, axis=1)]
    flip = np.where(np.abs(s) > SIGN_TIE_ATOL, s < 0, first < 0)
    return np.where(flip[:, None], -phi, phi)


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
    return Curve(sample.grid, _readonly(sample.values.mean(axis=0)))


def _centered(sample: FunctionalSample) -> tuple[np.ndarray, np.ndarray, float]:
    """The column mean mu, the length-N vector q of the centered curves'
    weighted squared norms |X_i - mu|^2_w, and the mean pairwise squared
    norm.  Differences X_i - X_j do not see the centering, and after it the
    cross terms of sum_{i<j} |X_i - X_j|^2 vanish, leaving n sum(q);
    centering first also keeps the Gram identity free of cancellation when
    the curves sit far from zero.  q is computed ``_PAIR_TILE`` rows at a
    time, so no N x d centered copy is made."""
    x, w = sample.values, sample.grid.weights
    n, d = x.shape
    mu = x.mean(axis=0)
    q = np.empty(n)
    block = np.empty((min(_PAIR_TILE, n), d))
    for i0 in range(0, n, _PAIR_TILE):
        rows = x[i0 : i0 + _PAIR_TILE]
        xc = np.subtract(rows, mu, out=block[: len(rows)])
        np.einsum("ij,j,ij->i", xc, w, xc, out=q[i0 : i0 + len(rows)])
    return mu, q, 2.0 * float(q.sum()) / (n - 1)


def kendall_tau_hat(sample: FunctionalSample) -> DiscretizedKernel:
    """Pairwise spatial-sign kernel estimate.

    Each unordered pair of distinct curves contributes the outer product of
    its difference divided by the squared quadrature norm of that
    difference; the estimate averages those rank-one terms.  Pairs whose
    squared norm falls at or below ``DEGENERATE_TOL`` times the mean
    pairwise squared norm, or within the rounding of its Gram-identity
    computation (d + 2 ulps of the two centered curves' squared norms), are
    dropped and the divisor shrinks accordingly.

    The result is symmetric, positive semidefinite, and has weighted trace
    one.  It is invariant under common scaling and shifts of the sample.

    Parameters
    ----------
    sample : FunctionalSample
        At least two curves on a shared grid.

    Raises
    ------
    EstimationError
        Every pair degenerate (e.g. all curves identical), or the weighted
        trace off one by more than ``TRACE_ATOL``.
    """
    mu, q, mean_sq_norm = _centered(sample)
    accum, ordered_retained = _pair_sum(
        sample.values, mu, q, sample.grid.weights, DEGENERATE_TOL * mean_sq_norm
    )
    if ordered_retained == 0:
        raise EstimationError("all curve pairs are degenerate")
    # (accum + accum^T) / 2 is the unordered-pair sum, which has
    # ordered_retained / 2 terms
    accum /= ordered_retained
    kernel = DiscretizedKernel(sample.grid, _readonly(accum + accum.T))
    if abs(kernel.weighted_trace - 1.0) > TRACE_ATOL:
        raise EstimationError(
            f"weighted trace of a kendall kernel must be 1, got {kernel.weighted_trace!r}"
        )
    return kernel


def _pair_sum(
    x: np.ndarray, mu: np.ndarray, q: np.ndarray, w: np.ndarray, threshold: float
) -> tuple[np.ndarray, int]:
    """A d x d matrix whose symmetric part is the sum of outer(D, D)/|D|^2
    over unordered pairs D = X_i - X_j with
    |D|^2 > max(threshold, (d + 2) eps (q_i + q_j)), and the count of such
    ordered pairs, for the rows X of ``x`` and the mean ``mu`` and squared
    norms ``q`` of ``_centered``.

    The sum is X^T (diag(r) - C - C^T) X with C[i, j] = 1/|X_i - X_j|^2 on
    retained pairs i < j (0 elsewhere) and r the row sums of C + C^T, for
    the centered rows X_i - mu (written X below).  Each tile is two GEMMs
    and a few passes:

    - a row block I builds lhs = [X_I diag(-2 w) | q_I | 1] and each
      column block J it meets rhs = [X_J | 1 | q_J], so lhs @ rhs.T is
      q_i + q_j - 2 <X_i, X_j>_w = |X_i - X_j|^2;
    - inverted in place, that tile is C_IJ, and C_IJ @ rhs[:, :d + 1] is
      [C_IJ X_J | row sums of C_IJ], summed over the row block as T_I;
    - the diagonal tile comes last, when r_I is complete; -r_i / 2 on its
      diagonal adds -diag(r_I) X_I / 2 to T_I, so -2 X_I^T T_I summed
      over row blocks is X^T diag(r) X - 2 X^T C X.

    The N x N pair matrix is walked in square tiles of edge ``_PAIR_TILE``,
    only those on or above the diagonal, and within a diagonal tile only
    j > i, so each unordered pair is visited once.  Rows are centered one
    tile at a time into one tile-sized rhs, which after a row block's last
    (diagonal) tile holds X_I: every scratch array is tile sized, and
    beyond ``x`` and ``q`` the sum holds one length-N vector.  A row
    block's first tile, the last column block, writes its product straight
    into T_I, so the one tile of N <= ``_PAIR_TILE`` makes no product
    temporary.
    """
    n, d = x.shape
    # the GEMM's rounding error is bounded by d + 2 ulps of q_i + q_j: a
    # squared norm at or below that is no pair's own (an exact duplicate
    # lands there, not at 0, and may land below 0), so it is dropped too;
    # cut >= 0 also drops negative norms
    ulps = (d + 2) * np.finfo(float).eps
    tile = min(_PAIR_TILE, n)
    on_or_below_diag = np.tri(tile, dtype=bool)
    lhs = np.empty((tile, d + 2))
    lhs[:, d + 1] = 1.0
    rhs = np.empty((tile, d + 2))
    rhs[:, d] = 1.0
    # X_J - 1 mu^T is a rank-one update, done in place by BLAS dger: a
    # numpy ufunc writing a strided block allocates hidden buffers.  The
    # shift's two zeros leave column d at 1 (1 + -0 is 1); column d + 1 is
    # written after it.
    shift, ones = np.zeros(d + 2), np.ones(tile)
    shift[:d] = mu

    def load(j0: int, j1: int) -> np.ndarray:
        right = rhs[: j1 - j0]
        np.copyto(right[:, :d], x[j0:j1])
        blas.dger(-1.0, shift, ones[: j1 - j0], a=right.T, overwrite_a=1)
        right[:, d + 1] = q[j0:j1]
        return right

    # one tile's inverse norms, reused so that two tiles are never alive
    scratch = np.empty(tile * tile)
    col_sums = np.zeros(n)
    accum = np.zeros((d, d))
    retained = 0
    for i0 in range(0, n, tile):
        i1 = min(i0 + tile, n)
        m = i1 - i0
        qi = q[i0:i1]
        left = lhs[:m]
        # scaling by -2 is exact, so this gives -2 <X_i, X_j>_w bit for bit;
        # einsum writes the strided columns without ufunc buffers
        np.einsum("ij,j->ij", load(i0, i1)[:, :d], -2.0 * w, out=left[:, :d])
        left[:, d] = qi
        t = np.zeros((m, d + 1))
        for j0 in reversed(range(i0, n, tile)):
            j1 = min(j0 + tile, n)
            # the last row block meets only itself, loaded above
            right = rhs[:m] if i1 == n else load(j0, j1)
            inv = scratch[: m * (j1 - j0)].reshape(m, j1 - j0)
            np.matmul(left, right.T, out=inv)
            if j0 == i0:
                inv[on_or_below_diag[:m, :m]] = 0.0
            cut = threshold
            if ulps * (qi.max() + q[j0:j1].max()) > threshold:
                cut = np.maximum(threshold, ulps * np.add.outer(qi, q[j0:j1]))
            drop = inv <= cut
            inv[drop] = np.inf
            retained += drop.size - np.count_nonzero(drop)
            del drop  # a tile-sized mask, not kept beside the product below
            np.reciprocal(inv, out=inv)
            col_sums[j0:j1] += inv.sum(axis=0)
            if j0 == i0:
                # every tile of column block I lies in row blocks <= I
                r = col_sums[i0:i1] + t[:, d] + inv.sum(axis=1)
                np.fill_diagonal(inv, -0.5 * r)
            if j1 == n:
                # the row block's first tile: t is still zero, so the
                # product is written into it, not added from a temporary
                np.matmul(inv, right[:, : d + 1], out=t)
            else:
                t += inv @ right[:, : d + 1]
        accum += right[:, :d].T @ t[:, :d]
    accum *= -2.0
    return accum, 2 * retained


def covariance_hat(sample: FunctionalSample) -> DiscretizedKernel:
    """Sample covariance matrix across subjects (divisor N - 1).

    The centered curves are summed as X_I^T X_I over ``_PAIR_TILE``-row
    blocks I, so beyond the sample the estimate holds one block of centered
    rows and two d x d arrays, never an N x d centered copy.  Up to
    ``_PAIR_TILE`` curves form one block, whose sum is the whole product;
    more move the matrix by rounding only, about 1e-15 relative.
    """
    x = sample.values
    n, d = x.shape
    mu = x.mean(axis=0)
    block = np.empty((min(_PAIR_TILE, n), d))
    cov = np.zeros((d, d))
    for i0 in range(0, n, _PAIR_TILE):
        rows = x[i0 : i0 + _PAIR_TILE]
        xc = np.subtract(rows, mu, out=block[: len(rows)])
        # numpy forms xc^T xc by BLAS syrk, one triangle mirrored: exactly
        # symmetric, and so is the sum of such products
        cov += xc.T @ xc
    cov /= n - 1
    return DiscretizedKernel(sample.grid, _readonly(cov))


def smooth_kernel(kernel: DiscretizedKernel, bandwidth) -> DiscretizedKernel:
    """The kernel surface smoothed on both axes, S M S^T for the Gaussian
    local-linear smoother S of ``core.smooth_rows``, as a new kernel: it is
    PSD as M is, and its eigenfunctions are orthonormal as any kernel's are.

    ``bandwidth`` is a positive float or "auto", which picks one bandwidth
    by GCV on M's leading eigenfunction, as ``smooth_rows`` picks it for one
    row; any other value is a ConfigurationError.  The surface is formed as
    P = (S M / 2) S^T and returned as P + P^T, exactly symmetric; the grid
    differences and the smoother's work space are freed before it.
    """
    bandwidth = _check_bandwidth("bandwidth", bandwidth)
    grid = kernel.grid
    dt = grid.points[None, :] - grid.points[:, None]
    k, s = np.empty_like(dt), np.empty_like(dt)
    if bandwidth == "auto":
        bandwidth = _gcv_smooth(grid, kernel.eigenfunctions(1), dt, k, s)[1][0]
    _local_linear_matrix(dt, bandwidth, k, s)
    del dt, k
    left = s @ kernel.matrix
    left *= 0.5
    half = left @ s.T
    del left, s
    return DiscretizedKernel(grid, _readonly(half + half.T))


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
