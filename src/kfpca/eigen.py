"""Weighted eigenanalysis of a discretized kernel, on arrays.

The operator eigenproblem  integral K(s, t) phi(s) ds = lambda phi(t)
discretizes to  M W phi = lambda phi  with W = diag(quadrature weights).
Conjugating by W^{1/2} turns that into an ordinary symmetric eigenproblem
whose eigenvectors map back to functions orthonormal in the quadrature
inner product, which is exactly the normalization  integral phi_k^2 = 1.
``DiscretizedKernel`` reduces that problem once to tridiagonal form and
keeps its full spectrum; ``eigen_decompose`` asks the kernel for the K
leading eigenvectors only and turns them into a K x d array of
eigenfunction values (the eigenvalues are ``kernel.eigenvalues[:K]``), and
``project_scores`` takes that array.
"""

import numpy as np

from .core import Curve, FunctionalSample, _weighted_dots, smooth_rows
from .errors import DimensionError, EstimationError
from .estimators import DiscretizedKernel

SIGN_TIE_ATOL = 1e-8


def _apply_sign_convention(phi: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Flip rows so each weighted integral is non-negative; a row whose
    integral is essentially zero gets its first nonzero value positive."""
    s = phi @ weights
    first = phi[np.arange(phi.shape[0]), np.argmax(phi != 0, axis=1)]
    flip = np.where(np.abs(s) > SIGN_TIE_ATOL, s < 0, first < 0)
    return np.where(flip[:, None], -phi, phi)


def eigen_decompose(
    kernel: DiscretizedKernel,
    n_components: int,
    smooth: bool = False,
    bandwidth="auto",
) -> np.ndarray:
    """Leading eigenfunctions of a kernel's weighted eigenproblem, from the
    K eigenvectors ``kernel.leading_eigenvectors(K)`` computes.

    Parameters
    ----------
    kernel : DiscretizedKernel
        Symmetric kernel matrix with its grid.
    n_components : int
        Number of leading eigenfunctions to return; the kernel raises
        ConfigurationError unless 1 <= K <= d.
    smooth : bool
        If True, each returned eigenfunction is local-linear smoothed and
        then rescaled back to unit quadrature norm.  Orthogonality is not
        re-imposed after smoothing.
    bandwidth : positive float or "auto"
        Passed through to the smoother when ``smooth`` is set.

    Returns
    -------
    np.ndarray
        K x d array whose row k holds phi_k on the kernel's grid, paired
        with ``kernel.eigenvalues[k]``.  Rows are orthonormal under the
        grid's quadrature inner product (exactly when unsmoothed), with
        signs fixed so each row integrates to a non-negative value.
    """
    w = kernel.grid.weights
    # rows in C order: the smoother and the score projection multiply by
    # them, and the layout decides how those products round
    vecs = np.ascontiguousarray(kernel.leading_eigenvectors(n_components).T)
    phi = _apply_sign_convention(vecs / np.sqrt(w), w)
    if smooth:
        phi = smooth_rows(kernel.grid, phi, bandwidth)
        norms = _weighted_dots(phi * phi, w)
        annihilated = np.flatnonzero(norms <= 0)
        if annihilated.size:
            raise EstimationError(
                f"smoothing annihilated eigenfunction {annihilated[0] + 1}"
            )
        phi = _apply_sign_convention(phi / np.sqrt(norms)[:, None], w)
    return phi


def project_scores(
    sample: FunctionalSample, mean: Curve, phi: np.ndarray
) -> np.ndarray:
    """Component scores: quadrature inner products of centered curves with
    each eigenfunction, given as the rows of the K x d array ``phi``.

    Returns an N x K matrix with entry (i, k) equal to
    <X_i - mean, phi_k>.
    """
    phi = np.asarray(phi, dtype=float)
    if (
        not sample.grid.matches(mean.grid)
        or phi.ndim != 2
        or phi.shape[1] != sample.grid.size
    ):
        raise DimensionError(
            "sample, mean and eigenfunction rows must share the grid"
        )
    centered = sample.values - mean.values
    return centered @ (phi * sample.grid.weights).T
