import numpy as np
import pytest

from kfpca import (
    ConfigurationError,
    Curve,
    DimensionError,
    DiscretizedKernel,
    EstimationError,
    FunctionalSample,
    InputError,
    SimulationScenario,
    covariance_hat,
    eigen_decompose,
    generate,
    imse,
    inner_product,
    kendall_tau_hat,
    make_regular_grid,
    mean_hat,
    project_scores,
    true_eigenfunctions,
)


def case1_kernel(lambdas=(16.0, 9.0)):
    g = make_regular_grid(0, 10, 51)
    phi1, phi2 = true_eigenfunctions(1, g)
    m = lambdas[0] * np.outer(phi1.values, phi1.values) + lambdas[1] * np.outer(
        phi2.values, phi2.values
    )
    return DiscretizedKernel(g, m, "covariance"), phi1, phi2


def noisy_sample(n=60, seed=0):
    return generate(SimulationScenario(n_subjects=n, seed=seed), 0).sample


class TestEigenDecompose:
    def test_rank_one_kernel(self):
        g = make_regular_grid(0, 10, 51)
        phi1, _ = true_eigenfunctions(1, g)
        kernel = DiscretizedKernel(
            g, np.outer(phi1.values, phi1.values), "covariance"
        )
        phi = eigen_decompose(kernel, g.size)
        assert phi.shape == (g.size, g.size)
        assert kernel.eigenvalues[0] == pytest.approx(1.0, abs=1e-8)
        assert np.abs(kernel.eigenvalues[1:]).max() < 1e-8
        assert np.allclose(phi[0], phi1.values, atol=1e-8)

    def test_two_component_kernel_recovers_spectrum(self):
        kernel, phi1, phi2 = case1_kernel()
        phi = eigen_decompose(kernel, 2)
        assert kernel.eigenvalues[0] == pytest.approx(16.0, abs=1e-3)
        assert kernel.eigenvalues[1] == pytest.approx(9.0, abs=1e-3)
        assert imse(Curve(kernel.grid, phi[0]), phi1) < 1e-4
        assert imse(Curve(kernel.grid, phi[1]), phi2) < 1e-4

    def test_kendall_kernel_full_spectrum_sums_to_one(self):
        kernel = kendall_tau_hat(noisy_sample(seed=2))
        assert kernel.eigenvalues.sum() == pytest.approx(1.0, abs=1e-8)

    def test_weighted_orthonormality(self):
        kernel = kendall_tau_hat(noisy_sample(seed=3))
        funcs = [Curve(kernel.grid, row) for row in eigen_decompose(kernel, kernel.grid.size)]
        for k in range(5):
            for l in range(k, 5):
                expected = 1.0 if k == l else 0.0
                got = inner_product(funcs[k], funcs[l])
                assert got == pytest.approx(expected, abs=1e-6)

    def test_full_reconstruction(self):
        kernel = covariance_hat(noisy_sample(seed=4))
        phi = eigen_decompose(kernel, kernel.grid.size)
        # spectral resynthesis sum_k lambda_k phi_k(s) phi_k(t)
        rebuilt = (phi.T * kernel.eigenvalues) @ phi
        scale = np.linalg.norm(kernel.matrix)
        assert np.linalg.norm(rebuilt - kernel.matrix) / scale < 1e-8

    def test_sign_convention_non_negative_integrals(self):
        kernel = kendall_tau_hat(noisy_sample(seed=5))
        w = kernel.grid.weights
        for row in eigen_decompose(kernel, 10):
            s = float(w @ row)
            if abs(s) > 1e-8:
                assert s > 0
            else:
                nz = row[np.nonzero(row)[0][0]]
                assert nz > 0

    def test_sign_convention_per_row(self):
        from kfpca.eigen import _apply_sign_convention

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
        assert np.array_equal(eigen_decompose(kernel, 5), eigen_decompose(kernel, 5))

    @pytest.mark.parametrize("bandwidth", [0.5, "auto"])
    def test_smoothing_renormalizes_but_relaxes_orthogonality(self, bandwidth):
        # only the leading (signal) eigenfunctions are smooth objects; the
        # relaxed orthogonality bound applies to them
        kernel = kendall_tau_hat(noisy_sample(n=80, seed=7))
        phi = eigen_decompose(kernel, 3, smooth=True, bandwidth=bandwidth)
        funcs = [Curve(kernel.grid, row) for row in phi]
        for c in funcs:
            assert inner_product(c, c) == pytest.approx(1.0, abs=1e-10)
        assert abs(inner_product(funcs[0], funcs[1])) < 1e-2

    def test_component_count_validated(self):
        kernel, _, _ = case1_kernel()
        with pytest.raises(ConfigurationError):
            eigen_decompose(kernel, 52)
        with pytest.raises(ConfigurationError):
            eigen_decompose(kernel, 0)

    def test_asymmetric_matrix_rejected_at_construction(self):
        g = make_regular_grid(0, 1, 4)
        m = np.eye(4)
        m[0, 1] = 0.5
        with pytest.raises(InputError):
            DiscretizedKernel(g, m, "covariance")

    def test_non_psd_matrix_rejected_at_construction(self):
        g = make_regular_grid(0, 1, 4)
        m = np.diag([1.0, 1.0, 1.0, -0.5])
        with pytest.raises(EstimationError):
            DiscretizedKernel(g, m, "covariance")

    def test_kendall_kernel_needs_unit_weighted_trace(self):
        g = make_regular_grid(0, 1, 4)
        m = 2.0 * np.eye(4) / g.weights.sum()
        DiscretizedKernel(g, m, "covariance")
        with pytest.raises(EstimationError):
            DiscretizedKernel(g, m, "kendall")
        DiscretizedKernel(g, m / 2.0, "kendall")

    def test_leading_pairs_are_the_kernels_own(self):
        kernel = kendall_tau_hat(noisy_sample(seed=8))
        phi = eigen_decompose(kernel, 4)
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
        phi_k = eigen_decompose(kendall_tau_hat(sample), 2)
        phi_c = eigen_decompose(covariance_hat(sample), 2)
        for k in range(2):
            assert imse(Curve(sample.grid, phi_k[k]), Curve(sample.grid, phi_c[k])) < 0.05


class TestProjectScores:
    def test_zero_for_mean_equal_curves(self):
        g = make_regular_grid(0, 10, 51)
        sample = noisy_sample(seed=10)
        mean = mean_hat(sample)
        flat = FunctionalSample(g, np.tile(mean.values, (5, 1)))
        phi = eigen_decompose(kendall_tau_hat(sample), 2)
        scores = project_scores(flat, mean, phi)
        assert np.abs(scores).max() < 1e-10

    def test_recovers_exact_loading(self):
        sample = noisy_sample(seed=11)
        mean = mean_hat(sample)
        phi = eigen_decompose(kendall_tau_hat(sample), 2)
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
        phi = eigen_decompose(kendall_tau_hat(sample), 2)
        scores = project_scores(sample, mean, phi)
        assert 11.0 <= scores[:, 0].var(ddof=1) <= 22.0

    def test_grid_mismatch_rejected(self):
        sample = noisy_sample(seed=13)
        other = make_regular_grid(0, 10, 11)
        mean = Curve(other, np.zeros(11))
        phi = eigen_decompose(kendall_tau_hat(sample), 2)
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
        phi = eigen_decompose(kendall_tau_hat(sample), 1)
        with pytest.raises(DimensionError):
            project_scores(sample, mean_hat(sample), phi[0])
