"""Eigenfunctions and scores of a discretized kernel, on arrays.

``DiscretizedKernel`` owns the weighted eigenproblem and hands out its K
leading eigenfunctions, orthonormal in the quadrature inner product
(the eigenvalues are ``kernel.eigenvalues[:K]``); ``eigen_decompose``
optionally smooths them and fixes their signs, and ``project_scores``
takes the resulting K x d array.
"""

import numpy as np

from .core import Curve, FunctionalSample, _float_array, _weighted_dots, smooth_rows
from .errors import DimensionError, EstimationError, InputError
from .estimators import _PAIR_TILE, DiscretizedKernel

SIGN_TIE_ATOL = 1e-8


def _apply_sign_convention(phi: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Flip rows so each weighted integral is non-negative; a row whose
    integral is essentially zero gets its first nonzero value positive."""
    s = phi @ weights
    first = phi[np.arange(phi.shape[0]), np.argmax(phi != 0, axis=1)]
    flip = np.where(np.abs(s) > SIGN_TIE_ATOL, s < 0, first < 0)
    return np.where(flip[:, None], -phi, phi)


def eigen_decompose(
    kernel: DiscretizedKernel, n_components: int, bandwidth=None
) -> np.ndarray:
    """Leading eigenfunctions of a kernel's weighted eigenproblem, from
    ``kernel.eigenfunctions(K)``, optionally smoothed, with fixed signs.

    Parameters
    ----------
    kernel : DiscretizedKernel
        Symmetric kernel matrix with its grid.
    n_components : int
        Number of leading eigenfunctions to return; the kernel raises
        ConfigurationError unless 1 <= K <= d.
    bandwidth : None, positive float or "auto"
        None leaves the eigenfunctions unsmoothed.  Otherwise each is
        local-linear smoothed with this bandwidth ("auto": GCV per row) and
        rescaled back to unit quadrature norm; orthogonality is not
        re-imposed after smoothing.  Any other value is a
        ConfigurationError.

    Returns
    -------
    np.ndarray
        K x d array whose row k holds phi_k on the kernel's grid, paired
        with ``kernel.eigenvalues[k]``.  Rows are orthonormal under the
        grid's quadrature inner product (exactly when unsmoothed), with
        signs fixed so each row integrates to a non-negative value.
    """
    w = kernel.grid.weights
    phi = kernel.eigenfunctions(n_components)
    if bandwidth is not None:
        # smoothing is odd in each row (S(-y) = -S y), so signs are fixed once, last
        phi = smooth_rows(kernel.grid, phi, bandwidth)
        norms = _weighted_dots(phi * phi, w)
        annihilated = np.flatnonzero(norms <= 0)
        if annihilated.size:
            raise EstimationError(
                f"smoothing annihilated eigenfunction {annihilated[0] + 1}"
            )
        phi = phi / np.sqrt(norms)[:, None]
    return _apply_sign_convention(phi, w)


def project_scores(
    sample: FunctionalSample, mean: Curve, phi: np.ndarray
) -> np.ndarray:
    """Component scores: quadrature inner products of centered curves with
    each eigenfunction, given as the rows of the K x d array ``phi``.

    Returns an N x K matrix with entry (i, k) equal to
    <X_i - mean, phi_k>, computed ``_PAIR_TILE`` rows at a time, so that
    beyond the result only one block of centered rows is held, never an
    N x d copy.  InputError if ``phi`` is not a rectangular array of finite
    numbers; DimensionError if its rows are not on the sample's grid.
    """
    phi = _float_array(phi)
    if (
        not sample.grid.matches(mean.grid)
        or phi.ndim != 2
        or phi.shape[1] != sample.grid.size
    ):
        raise DimensionError(
            "sample, mean and eigenfunction rows must share the grid"
        )
    if not np.isfinite(phi).all():
        raise InputError("eigenfunction values must be finite")
    x = sample.values
    weighted = (phi * sample.grid.weights).T
    scores = np.empty((len(x), len(phi)))
    for i0 in range(0, len(x), _PAIR_TILE):
        rows = x[i0 : i0 + _PAIR_TILE]
        np.matmul(rows - mean.values, weighted, out=scores[i0 : i0 + len(rows)])
    return scores
