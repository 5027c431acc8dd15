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
    sq_norm,
    true_eigenfunctions,
)
from kfpca.eigen import reconstruct_kernel


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
        system = eigen_decompose(kernel, g.size)
        assert system.operator_eigenvalues[0] == pytest.approx(1.0, abs=1e-8)
        assert np.abs(system.operator_eigenvalues[1:]).max() < 1e-8
        assert np.allclose(system.eigenfunctions[0].values, phi1.values, atol=1e-8)

    def test_two_component_kernel_recovers_spectrum(self):
        kernel, phi1, phi2 = case1_kernel()
        system = eigen_decompose(kernel, 2)
        assert system.operator_eigenvalues[0] == pytest.approx(16.0, abs=1e-3)
        assert system.operator_eigenvalues[1] == pytest.approx(9.0, abs=1e-3)
        assert imse(system.eigenfunctions[0], phi1) < 1e-4
        assert imse(system.eigenfunctions[1], phi2) < 1e-4

    def test_kendall_kernel_full_spectrum_sums_to_one(self):
        kernel = kendall_tau_hat(noisy_sample(seed=2))
        system = eigen_decompose(kernel, kernel.grid.size)
        assert system.operator_eigenvalues.sum() == pytest.approx(1.0, abs=1e-8)

    def test_weighted_orthonormality(self):
        kernel = kendall_tau_hat(noisy_sample(seed=3))
        system = eigen_decompose(kernel, kernel.grid.size)
        for k in range(5):
            for l in range(k, 5):
                expected = 1.0 if k == l else 0.0
                got = inner_product(
                    system.eigenfunctions[k], system.eigenfunctions[l]
                )
                assert got == pytest.approx(expected, abs=1e-6)

    def test_full_reconstruction(self):
        kernel = covariance_hat(noisy_sample(seed=4))
        system = eigen_decompose(kernel, kernel.grid.size)
        rebuilt = reconstruct_kernel(system)
        scale = np.linalg.norm(kernel.matrix)
        assert np.linalg.norm(rebuilt - kernel.matrix) / scale < 1e-8

    def test_sign_convention_non_negative_integrals(self):
        kernel = kendall_tau_hat(noisy_sample(seed=5))
        system = eigen_decompose(kernel, 10)
        w = kernel.grid.weights
        for c in system.eigenfunctions:
            s = float(w @ c.values)
            if abs(s) > 1e-8:
                assert s > 0
            else:
                nz = c.values[np.nonzero(c.values)[0][0]]
                assert nz > 0

    def test_deterministic(self):
        kernel = kendall_tau_hat(noisy_sample(seed=6))
        a = eigen_decompose(kernel, 5)
        b = eigen_decompose(kernel, 5)
        for ca, cb in zip(a.eigenfunctions, b.eigenfunctions):
            assert np.array_equal(ca.values, cb.values)
        assert np.array_equal(a.operator_eigenvalues, b.operator_eigenvalues)

    @pytest.mark.parametrize("bandwidth", [0.5, "auto"])
    def test_smoothing_renormalizes_but_relaxes_orthogonality(self, bandwidth):
        # only the leading (signal) eigenfunctions are smooth objects; the
        # relaxed orthogonality bound applies to them
        kernel = kendall_tau_hat(noisy_sample(n=80, seed=7))
        system = eigen_decompose(kernel, 3, smooth=True, bandwidth=bandwidth)
        for c in system.eigenfunctions:
            assert sq_norm(c) == pytest.approx(1.0, abs=1e-10)
        assert abs(
            inner_product(system.eigenfunctions[0], system.eigenfunctions[1])
        ) < 1e-2

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
        system = eigen_decompose(kernel, 4)
        assert np.array_equal(system.operator_eigenvalues, kernel.eigenvalues[:4])
        assert np.all(np.diff(kernel.eigenvalues) <= 0)
        sqrt_w = np.sqrt(kernel.grid.weights)
        for k, c in enumerate(system.eigenfunctions):
            assert abs(abs(c.values * sqrt_w @ kernel.eigenvectors[:, k]) - 1.0) < 1e-12

    def test_both_kernels_share_eigenfunctions(self):
        # eigenfunctions of the pairwise and covariance kernels agree on
        # Gaussian data at N=400
        sample = generate(SimulationScenario(n_subjects=400, seed=88), 0).sample
        sys_k = eigen_decompose(kendall_tau_hat(sample), 2)
        sys_c = eigen_decompose(covariance_hat(sample), 2)
        for k in range(2):
            assert imse(sys_k.eigenfunctions[k], sys_c.eigenfunctions[k]) < 0.05


class TestProjectScores:
    def test_zero_for_mean_equal_curves(self):
        g = make_regular_grid(0, 10, 51)
        sample = noisy_sample(seed=10)
        mean = mean_hat(sample)
        flat = FunctionalSample(g, np.tile(mean.values, (5, 1)))
        system = eigen_decompose(kendall_tau_hat(sample), 2)
        scores = project_scores(flat, mean, system, 2)
        assert np.abs(scores).max() < 1e-10

    def test_recovers_exact_loading(self):
        sample = noisy_sample(seed=11)
        mean = mean_hat(sample)
        system = eigen_decompose(kendall_tau_hat(sample), 2)
        shifted = FunctionalSample(
            sample.grid,
            np.vstack(
                [
                    mean.values + 3.0 * system.eigenfunctions[0].values,
                    mean.values + 3.0 * system.eigenfunctions[0].values,
                ]
            ),
        )
        scores = project_scores(shifted, mean, system, 2)
        assert scores[0, 0] == pytest.approx(3.0, abs=1e-8)
        assert scores[0, 1] == pytest.approx(0.0, abs=1e-8)

    def test_score_variance_matches_component_variance(self):
        sample = generate(SimulationScenario(seed=12), 0).sample
        mean = mean_hat(sample)
        system = eigen_decompose(kendall_tau_hat(sample), 2)
        scores = project_scores(sample, mean, system, 2)
        assert 11.0 <= scores[:, 0].var(ddof=1) <= 22.0

    def test_grid_mismatch_rejected(self):
        sample = noisy_sample(seed=13)
        other = make_regular_grid(0, 10, 11)
        mean = Curve(other, np.zeros(11))
        system = eigen_decompose(kendall_tau_hat(sample), 2)
        with pytest.raises(DimensionError):
            project_scores(sample, mean, system, 2)

    def test_component_count_validated(self):
        sample = noisy_sample(seed=14)
        system = eigen_decompose(kendall_tau_hat(sample), 2)
        with pytest.raises(ConfigurationError):
            project_scores(sample, mean_hat(sample), system, 3)
