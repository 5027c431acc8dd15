"""Weighted eigenanalysis of a discretized kernel.

The operator eigenproblem  integral K(s, t) phi(s) ds = lambda phi(t)
discretizes to  M W phi = lambda phi  with W = diag(quadrature weights).
Conjugating by W^{1/2} turns that into an ordinary symmetric eigenproblem
whose eigenvectors map back to functions orthonormal in the quadrature
inner product, which is exactly the normalization  integral phi_k^2 = 1.
"""

from dataclasses import dataclass

import numpy as np

from .core import Curve, FunctionalSample, Grid, smooth_rows
from .errors import ConfigurationError, DimensionError, EstimationError, InputError
from .estimators import DiscretizedKernel

SIGN_TIE_ATOL = 1e-8


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Leading eigenfunctions and operator eigenvalues of a kernel."""

    grid: Grid
    eigenfunctions: tuple[Curve, ...]
    operator_eigenvalues: np.ndarray
    kind: str

    def __post_init__(self):
        ev = np.asarray(self.operator_eigenvalues, dtype=float)
        object.__setattr__(self, "operator_eigenvalues", ev)
        object.__setattr__(self, "eigenfunctions", tuple(self.eigenfunctions))
        if len(self.eigenfunctions) != ev.size:
            raise InputError("one eigenvalue per eigenfunction required")
        if np.any(np.diff(ev) > 0):
            raise InputError("operator eigenvalues must be sorted descending")

    def __len__(self) -> int:
        return len(self.eigenfunctions)


def _apply_sign_convention(phi: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Fix the sign so the weighted integral is non-negative; if that
    integral is essentially zero, make the first nonzero value positive."""
    s = float(weights @ phi)
    if abs(s) > SIGN_TIE_ATOL:
        return phi if s > 0 else -phi
    nonzero = np.nonzero(phi)[0]
    if nonzero.size and phi[nonzero[0]] < 0:
        return -phi
    return phi


def eigen_decompose(
    kernel: DiscretizedKernel,
    n_components: int,
    smooth: bool = False,
    bandwidth="auto",
) -> EigenSystem:
    """Leading eigenpairs of a kernel's weighted eigenproblem, which the
    kernel solved once at construction.

    Parameters
    ----------
    kernel : DiscretizedKernel
        Symmetric kernel matrix with its grid.
    n_components : int
        Number of leading eigenpairs to return (1 <= K <= d).
    smooth : bool
        If True, each returned eigenfunction is local-linear smoothed and
        then rescaled back to unit quadrature norm.  Orthogonality is not
        re-imposed after smoothing.
    bandwidth : positive float or "auto"
        Passed through to the smoother when ``smooth`` is set.

    Returns
    -------
    EigenSystem
        Eigenfunctions orthonormal under the grid's quadrature inner
        product (exactly when unsmoothed), eigenvalues descending, signs
        fixed so each eigenfunction integrates to a non-negative value.
    """
    d = kernel.grid.size
    if not 1 <= n_components <= d:
        raise ConfigurationError(
            f"n_components must lie in [1, {d}], got {n_components}"
        )
    w = kernel.grid.weights
    sqrt_w = np.sqrt(w)
    vecs = kernel.eigenvectors
    phi = np.array(
        [_apply_sign_convention(vecs[:, k] / sqrt_w, w) for k in range(n_components)]
    )
    if smooth:
        phi = smooth_rows(kernel.grid, phi, bandwidth)
        for k, row in enumerate(phi):
            norm = float(w @ (row * row))
            if norm <= 0:
                raise EstimationError(f"smoothing annihilated eigenfunction {k + 1}")
            phi[k] = _apply_sign_convention(row / np.sqrt(norm), w)
    funcs = tuple(Curve(kernel.grid, row) for row in phi)
    return EigenSystem(
        kernel.grid, funcs, kernel.eigenvalues[:n_components], kernel.kind
    )


def project_scores(
    sample: FunctionalSample,
    mean: Curve,
    basis: EigenSystem,
    n_components: int,
) -> np.ndarray:
    """Component scores: quadrature inner products of centered curves with
    each eigenfunction.

    Returns an N x K matrix with entry (i, k) equal to
    <X_i - mean, phi_k>.
    """
    if not sample.grid.matches(mean.grid) or not sample.grid.matches(basis.grid):
        raise DimensionError("sample, mean, and basis must share a grid")
    if not 1 <= n_components <= len(basis):
        raise ConfigurationError(
            f"requested {n_components} components from a basis of {len(basis)}"
        )
    phi = np.stack([c.values for c in basis.eigenfunctions[:n_components]])
    centered = sample.values - mean.values
    return centered @ (phi * sample.grid.weights).T


def reconstruct_kernel(system: EigenSystem) -> np.ndarray:
    """Spectral resynthesis sum_k lambda_k phi_k(s) phi_k(t)."""
    phi = np.stack([c.values for c in system.eigenfunctions])
    return (phi.T * system.operator_eigenvalues) @ phi
