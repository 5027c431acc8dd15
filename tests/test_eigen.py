import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kfpca.model
from kfpca import (
    ConfigurationError,
    Curve,
    DimensionError,
    DiscretizedKernel,
    EstimationError,
    FitConfig,
    FunctionalSample,
    Grid,
    InputError,
    SimulationScenario,
    covariance_hat,
    derive_rng,
    fit,
    generate,
    imse,
    inner_product,
    kendall_tau_hat,
    make_regular_grid,
    mean_hat,
    project_scores,
    true_eigenfunctions,
)
from kfpca.core import gcv_bandwidth_candidates
from kfpca.estimators import _apply_sign_convention, smooth_kernel
from smoother_oracle import gcv_fit, numerator_local_linear_matrix


def case1_kernel(lambdas=(16.0, 9.0)):
    g = make_regular_grid(0, 10, 51)
    phi1, phi2 = true_eigenfunctions(1, g)
    m = lambdas[0] * np.outer(phi1.values, phi1.values) + lambdas[1] * np.outer(
        phi2.values, phi2.values
    )
    return DiscretizedKernel(g, m), phi1, phi2


def noisy_sample(n=60, seed=0):
    return generate(SimulationScenario(n_subjects=n, seed=seed), 0).sample


class TestEigenDecompose:
    def test_rank_one_kernel(self):
        g = make_regular_grid(0, 10, 51)
        phi1, _ = true_eigenfunctions(1, g)
        kernel = DiscretizedKernel(g, np.outer(phi1.values, phi1.values))
        phi = kernel.eigenfunctions(g.size)
        assert phi.shape == (g.size, g.size)
        assert kernel.eigenvalues[0] == pytest.approx(1.0, abs=1e-8)
        assert np.abs(kernel.eigenvalues[1:]).max() < 1e-8
        assert np.allclose(phi[0], phi1.values, atol=1e-8)

    def test_two_component_kernel_recovers_spectrum(self):
        kernel, phi1, phi2 = case1_kernel()
        phi = kernel.eigenfunctions(2)
        assert kernel.eigenvalues[0] == pytest.approx(16.0, abs=1e-3)
        assert kernel.eigenvalues[1] == pytest.approx(9.0, abs=1e-3)
        assert imse(Curve(kernel.grid, phi[0]), phi1) < 1e-4
        assert imse(Curve(kernel.grid, phi[1]), phi2) < 1e-4

    def test_kendall_kernel_full_spectrum_sums_to_one(self):
        kernel = kendall_tau_hat(noisy_sample(seed=2))
        assert kernel.eigenvalues.sum() == pytest.approx(1.0, abs=1e-8)

    def test_weighted_orthonormality(self):
        kernel = kendall_tau_hat(noisy_sample(seed=3))
        funcs = [Curve(kernel.grid, row) for row in kernel.eigenfunctions(kernel.grid.size)]
        for k in range(5):
            for l in range(k, 5):
                expected = 1.0 if k == l else 0.0
                got = inner_product(funcs[k], funcs[l])
                assert got == pytest.approx(expected, abs=1e-6)

    def test_full_reconstruction(self):
        kernel = covariance_hat(noisy_sample(seed=4))
        phi = kernel.eigenfunctions(kernel.grid.size)
        # spectral resynthesis sum_k lambda_k phi_k(s) phi_k(t)
        rebuilt = (phi.T * kernel.eigenvalues) @ phi
        scale = np.linalg.norm(kernel.matrix)
        assert np.linalg.norm(rebuilt - kernel.matrix) / scale < 1e-8

    def test_sign_convention_non_negative_integrals(self):
        kernel = kendall_tau_hat(noisy_sample(seed=5))
        w = kernel.grid.weights
        for row in kernel.eigenfunctions(10):
            s = float(w @ row)
            if abs(s) > 1e-8:
                assert s > 0
            else:
                nz = row[np.nonzero(row)[0][0]]
                assert nz > 0

    def test_sign_convention_per_row(self):
        w = np.full(4, 0.25)
        phi = np.array(
            [
                [1.0, 2.0, 0.0, 1.0],  # positive integral: kept
                [-1.0, -2.0, 0.0, 1.0],  # negative integral: flipped
                [0.0, -1.0, 1.0, 0.0],  # zero integral, first nonzero < 0: flipped
                [0.0, 1.0, -1.0, 0.0],  # zero integral, first nonzero > 0: kept
                [0.0, 0.0, 0.0, 0.0],  # all zero: kept
            ]
        )
        flipped = np.array([1.0, -1.0, -1.0, 1.0, 1.0])[:, None]
        assert np.array_equal(_apply_sign_convention(phi, w), flipped * phi)

    def test_deterministic(self):
        kernel = kendall_tau_hat(noisy_sample(seed=6))
        assert np.array_equal(kernel.eigenfunctions(5), kernel.eigenfunctions(5))

    @pytest.mark.parametrize("bandwidth", [0.5, "auto"])
    def test_smoothing_renormalizes_but_relaxes_orthogonality(self, bandwidth):
        # eigen-smoothed rows keep unit norm and stay within the relaxed
        # orthogonality bound; smoothing the surface once makes them exactly
        # orthonormal, which TestKernelSmoothing checks as a property
        kernel = smooth_kernel(kendall_tau_hat(noisy_sample(n=80, seed=7)), bandwidth)
        funcs = [Curve(kernel.grid, row) for row in kernel.eigenfunctions(3)]
        for c in funcs:
            assert inner_product(c, c) == pytest.approx(1.0, abs=1e-10)
        assert abs(inner_product(funcs[0], funcs[1])) < 1e-2

    def test_component_count_validated(self):
        kernel, _, _ = case1_kernel()
        with pytest.raises(ConfigurationError):
            kernel.eigenfunctions(52)
        with pytest.raises(ConfigurationError):
            kernel.eigenfunctions(0)

    @pytest.mark.parametrize("bandwidth", [-1.0, 0.0, float("nan"), True, "junk"])
    def test_bandwidth_validated(self, bandwidth):
        # the kernel surface is smoothed at "auto" or a positive bandwidth
        kernel, _, _ = case1_kernel()
        with pytest.raises(ConfigurationError, match="bandwidth"):
            smooth_kernel(kernel, bandwidth)

    def test_asymmetric_matrix_rejected_at_construction(self):
        g = make_regular_grid(0, 1, 4)
        m = np.eye(4)
        m[0, 1] = 0.5
        with pytest.raises(InputError):
            DiscretizedKernel(g, m)

    def test_non_psd_matrix_rejected_at_construction(self):
        g = make_regular_grid(0, 1, 4)
        m = np.diag([1.0, 1.0, 1.0, -0.5])
        with pytest.raises(EstimationError):
            DiscretizedKernel(g, m)

    def test_leading_pairs_are_the_kernels_own(self):
        kernel = kendall_tau_hat(noisy_sample(seed=8))
        phi = kernel.eigenfunctions(4)
        assert phi.shape == (4, kernel.grid.size)
        assert np.all(np.diff(kernel.eigenvalues) <= 0)
        sqrt_w = np.sqrt(kernel.grid.weights)
        _, vecs = np.linalg.eigh(sqrt_w[:, None] * kernel.matrix * sqrt_w[None, :])
        for k, row in enumerate(phi):
            assert abs(abs(row * sqrt_w @ vecs[:, -1 - k]) - 1.0) < 1e-12

    def test_both_kernels_share_eigenfunctions(self):
        # eigenfunctions of the pairwise and covariance kernels agree on
        # Gaussian data at N=400
        sample = generate(SimulationScenario(n_subjects=400, seed=88), 0).sample
        phi_k = kendall_tau_hat(sample).eigenfunctions(2)
        phi_c = covariance_hat(sample).eigenfunctions(2)
        for k in range(2):
            assert imse(Curve(sample.grid, phi_k[k]), Curve(sample.grid, phi_c[k])) < 0.05


class TestProjectScores:
    def test_zero_for_mean_equal_curves(self):
        g = make_regular_grid(0, 10, 51)
        sample = noisy_sample(seed=10)
        mean = mean_hat(sample)
        flat = FunctionalSample(g, np.tile(mean.values, (5, 1)))
        phi = kendall_tau_hat(sample).eigenfunctions(2)
        scores = project_scores(flat, mean, phi)
        assert np.abs(scores).max() < 1e-10

    def test_recovers_exact_loading(self):
        sample = noisy_sample(seed=11)
        mean = mean_hat(sample)
        phi = kendall_tau_hat(sample).eigenfunctions(2)
        shifted = FunctionalSample(
            sample.grid,
            np.vstack([mean.values + 3.0 * phi[0], mean.values + 3.0 * phi[0]]),
        )
        scores = project_scores(shifted, mean, phi)
        assert scores[0, 0] == pytest.approx(3.0, abs=1e-8)
        assert scores[0, 1] == pytest.approx(0.0, abs=1e-8)

    def test_score_variance_matches_component_variance(self):
        sample = generate(SimulationScenario(seed=12), 0).sample
        mean = mean_hat(sample)
        phi = kendall_tau_hat(sample).eigenfunctions(2)
        scores = project_scores(sample, mean, phi)
        assert 11.0 <= scores[:, 0].var(ddof=1) <= 22.0

    def test_grid_mismatch_rejected(self):
        sample = noisy_sample(seed=13)
        other = make_regular_grid(0, 10, 11)
        mean = Curve(other, np.zeros(11))
        phi = kendall_tau_hat(sample).eigenfunctions(2)
        with pytest.raises(DimensionError):
            project_scores(sample, mean, phi)

    @pytest.mark.parametrize("columns", [50, 52])
    def test_eigenfunction_columns_must_match_grid(self, columns):
        sample = noisy_sample(seed=14)
        phi = np.ones((2, columns))
        with pytest.raises(DimensionError):
            project_scores(sample, mean_hat(sample), phi)

    def test_eigenfunctions_must_be_rows(self):
        sample = noisy_sample(seed=14)
        phi = kendall_tau_hat(sample).eigenfunctions(1)
        with pytest.raises(DimensionError):
            project_scores(sample, mean_hat(sample), phi[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_eigenfunctions_rejected(self, bad):
        sample = noisy_sample(seed=14)
        phi = kendall_tau_hat(sample).eigenfunctions(2).copy()
        phi[1, 7] = bad
        with pytest.raises(InputError, match="finite"):
            project_scores(sample, mean_hat(sample), phi)

    @pytest.mark.parametrize("n", [7, 8, 40])
    def test_row_blocks_match_a_row_by_row_projection(self, monkeypatch, n):
        # blocks of 7 rows put curves on, beside and across block edges
        monkeypatch.setattr(kfpca.model, "_PAIR_TILE", 7)
        sample = noisy_sample(n=n, seed=15)
        mean = mean_hat(sample)
        phi = kendall_tau_hat(sample).eigenfunctions(3)
        scores = project_scores(sample, mean, phi)
        w = sample.grid.weights
        expected = [[w @ ((x - mean.values) * row) for row in phi] for x in sample.values]
        assert scores.shape == (n, 3)
        assert np.abs(scores - expected).max() < 1e-12 * np.abs(expected).max()


@st.composite
def eigen_smoothed_fits(draw):
    """Gaussian curves on an irregular grid (N in [5, 30], d in [4, 30]) and
    an eigen-smoothed config: either method, any count K <= d, and "auto" or
    any positive bandwidth."""
    n = draw(st.integers(5, 30))
    d = draw(st.integers(4, 30))
    gaps = draw(st.lists(st.floats(0.05, 2.0), min_size=d - 1, max_size=d - 1))
    points = np.concatenate([[0.0], np.cumsum(gaps)])
    values = derive_rng(draw(st.integers(0, 2**32 - 1)), 0).standard_normal((n, d))
    bandwidth = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    config = FitConfig(
        method=draw(st.sampled_from(["kfpca", "cov"])),
        n_components=draw(st.integers(1, d)),
        eigen_smooth=draw(st.just("auto") | bandwidth),
    )
    return FunctionalSample(Grid(points), values), config


class TestKernelSmoothing:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(drawn=eigen_smoothed_fits())
    def test_eigen_smoothed_rows_are_orthonormal(self, drawn):
        model = fit(*drawn)
        phi = model.eigenfunction_values
        gram = (phi * model.grid.weights) @ phi.T
        assert np.abs(gram - np.eye(len(phi))).max() <= 1e-12

    @pytest.mark.parametrize("method", ["kfpca", "cov"])
    def test_auto_is_the_gcv_bandwidth_of_the_leading_eigenfunction(self, method):
        sample = noisy_sample(n=80, seed=7)
        estimate = kendall_tau_hat if method == "kfpca" else covariance_hat
        phi1 = estimate(sample).eigenfunctions(1)
        _, pick = gcv_fit(numerator_local_linear_matrix, sample.grid, phi1)
        # an interior candidate: GCV chose, not the end of the range
        assert 0 < pick[0] < 19
        h = float(gcv_bandwidth_candidates(sample.grid)[pick[0]])
        auto = fit(sample, FitConfig(method=method, n_components=4, eigen_smooth="auto"))
        fixed = fit(sample, FitConfig(method=method, n_components=4, eigen_smooth=h))
        for name in ("eigenfunction_values", "operator_eigenvalues", "scores"):
            assert getattr(auto, name).tobytes() == getattr(fixed, name).tobytes()
        assert auto.mean.values.tobytes() == fixed.mean.values.tobytes()
        assert auto._spectrum_remainder == fixed._spectrum_remainder

    @pytest.mark.parametrize("method", ["kfpca", "cov"])
    def test_smoothed_surface_is_s_m_s_transpose(self, method):
        sample = noisy_sample(seed=9)
        kernel = (kendall_tau_hat if method == "kfpca" else covariance_hat)(sample)
        smoothed = smooth_kernel(kernel, 0.8)
        s = numerator_local_linear_matrix(sample.grid.points, 0.8)
        expected = s @ kernel.matrix @ s.T
        m = smoothed.matrix
        assert np.array_equal(m, m.T)
        assert np.abs(m - expected).max() <= 1e-13 * np.abs(expected).max()
        assert smoothed.grid is kernel.grid

    @pytest.mark.parametrize("ncomp", [3, 0.95])
    def test_k_eigenvalues_and_fve_come_from_the_smoothed_kernel(self, ncomp):
        sample = noisy_sample(seed=17)
        model = fit(sample, FitConfig(n_components=ncomp, eigen_smooth=0.8))
        smoothed = smooth_kernel(kendall_tau_hat(sample), 0.8)
        ev = smoothed.eigenvalues
        k = model.n_components
        if ncomp == 0.95:
            assert np.cumsum(ev)[k - 2] < 0.95 * ev.sum() <= np.cumsum(ev)[k - 1]
        phi = smoothed.eigenfunctions(k)
        assert np.array_equal(model.eigenfunction_values, phi)
        assert np.array_equal(model.operator_eigenvalues, ev[:k])
        assert model._spectrum_remainder == float(ev[k:].sum())
        assert np.array_equal(model.scores, project_scores(sample, mean_hat(sample), phi))
