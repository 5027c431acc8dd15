import numpy as np
import pytest

from kfpca import (
    ConfigurationError,
    Curve,
    InputError,
    RunMetrics,
    SimulationScenario,
    aggregate,
    align_sign,
    alignment_sign,
    convergence_rate,
    derive_rng,
    evaluate_run,
    imse,
    make_regular_grid,
    run_scenario,
    score_mse,
    sq_norm,
    true_eigenfunctions,
)


def random_curve(grid, key):
    return Curve(grid, derive_rng(99, key).standard_normal(grid.size))


class TestAlignSign:
    def test_flipped_estimate_restored(self):
        g = make_regular_grid(0, 10, 21)
        truth = Curve(g, np.sin(g.points))
        aligned = align_sign(-truth, truth)
        assert np.allclose(aligned.values, truth.values)

    def test_matching_estimate_unchanged(self):
        g = make_regular_grid(0, 10, 21)
        truth = Curve(g, np.sin(g.points))
        assert np.array_equal(align_sign(truth, truth).values, truth.values)

    def test_orthogonal_tie_keeps_input_sign(self):
        g = make_regular_grid(0, 1, 4)
        est = Curve(g, np.array([-1.0, 0.0, 0.0, 0.0]))
        truth = Curve(g, np.array([0.0, 0.0, 1.0, 0.0]))
        aligned = align_sign(est, truth)
        assert np.array_equal(aligned.values, est.values)
        assert alignment_sign(est, truth) == 1.0


class TestImse:
    def test_identical_curves(self):
        g = make_regular_grid(0, 10, 21)
        f = Curve(g, np.cos(g.points))
        assert imse(f, f) == 0.0

    def test_sign_flip_is_free(self):
        g = make_regular_grid(0, 10, 21)
        f = Curve(g, np.cos(g.points))
        assert imse(-f, f) == 0.0

    def test_orthonormal_pair_gives_two(self):
        g = make_regular_grid(0, 10, 51)
        phi1, phi2 = true_eigenfunctions(1, g)
        assert imse(phi1, phi2) == pytest.approx(2.0, abs=1e-6)

    def test_invariant_to_sign_of_either_argument(self):
        g = make_regular_grid(0, 10, 31)
        f, t = random_curve(g, 1), random_curve(g, 2)
        vals = {imse(f, t), imse(-f, t), imse(f, -t), imse(-f, -t)}
        assert max(vals) - min(vals) < 1e-12

    @pytest.mark.parametrize("key", [3, 4, 5])
    def test_parallelogram_cap(self, key):
        g = make_regular_grid(0, 10, 31)
        f, t = random_curve(g, key), random_curve(g, key + 10)
        assert imse(f, t) <= 2.0 * (sq_norm(f) + sq_norm(t)) + 1e-12


class TestScoreMse:
    def test_identical_vectors(self):
        x = np.arange(5.0)
        assert score_mse(x, x, 1.0) == 0.0

    def test_constant_shift(self):
        x = np.arange(5.0)
        assert score_mse(x + 2.0, x, 1.0) == pytest.approx(4.0)

    def test_sign_coupling(self):
        x = np.arange(5.0)
        assert score_mse(-x, x, -1.0) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            score_mse(np.zeros(3), np.zeros(4), 1.0)


class TestAggregate:
    def _metrics(self, imse1, mse1, run_index=0):
        scenario = SimulationScenario()
        return RunMetrics(
            np.array([imse1, imse1 / 2]),
            np.array([mse1, mse1 / 2]),
            run_index,
            scenario,
            "kfpca",
        )

    def test_single_run_sd_zero(self):
        table = aggregate([self._metrics(0.1, 0.5)])
        assert table["imse1"] == (pytest.approx(0.1), 0.0)
        assert table["mse1"] == (pytest.approx(0.5), 0.0)

    def test_two_runs(self):
        table = aggregate([self._metrics(1.0, 1.0, 0), self._metrics(3.0, 3.0, 1)])
        assert table["imse1"][0] == pytest.approx(2.0)
        assert table["imse1"][1] == pytest.approx(np.sqrt(2.0))

    def test_permutation_invariant(self):
        runs = [self._metrics(v, v, i) for i, v in enumerate((0.5, 1.5, 2.5, 0.25))]
        a = aggregate(runs)
        b = aggregate(runs[::-1])
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            aggregate([])

    def test_heterogeneous_rejected(self):
        a = self._metrics(1.0, 1.0)
        b = RunMetrics(a.imse, a.mse, 0, a.scenario, "cov")
        with pytest.raises(InputError):
            aggregate([a, b])


class TestEvaluateRun:
    def test_produces_finite_metrics(self):
        scenario = SimulationScenario(n_subjects=40, n_points=21, seed=3, runs=2)
        metrics = evaluate_run(scenario, 0, "kfpca")
        assert metrics.imse.shape == (2,)
        assert np.all(metrics.imse >= 0)
        assert np.all(metrics.mse >= 0)
        assert metrics.method == "kfpca"

    def test_run_scenario_sequential_matches_parallel(self):
        scenario = SimulationScenario(n_subjects=30, n_points=21, seed=4, runs=6)
        seq = run_scenario(scenario, ("kfpca",), workers=1)
        par = run_scenario(scenario, ("kfpca",), workers=2)
        for a, b in zip(seq["kfpca"], par["kfpca"]):
            assert np.array_equal(a.imse, b.imse)
            assert np.array_equal(a.mse, b.mse)
            assert a.run_index == b.run_index


class TestExpectedTableValues:
    """100-run table means and SDs under the default design; bands center
    on the method's expected values and allow Monte Carlo variation."""

    def test_case1_gaussian_kfpca_score_error(self, table_results):
        mean, sd = table_results[(1, "gaussian")]["kfpca"]["mse1"]
        assert 0.35 <= mean <= 0.75  # expected near 0.51
        assert 0.3 <= sd <= 1.0  # expected near 0.61

    def test_case1_skew_t_kfpca_eigenfunction_error(self, table_results):
        mean, sd = table_results[(1, "skew_t")]["kfpca"]["imse1"]
        assert 0.03 <= mean <= 0.12  # expected near 0.063
        assert 0.05 <= sd <= 0.40  # expected near 0.14

    def test_case1_skew_t_cov_eigenfunction_error(self, table_results):
        mean, sd = table_results[(1, "skew_t")]["cov"]["imse1"]
        assert 0.06 <= mean <= 0.20  # expected near 0.096
        assert 0.10 <= sd <= 0.60  # expected near 0.26


class TestWorkerConfig:
    def test_default_workers_reads_environment(self, monkeypatch):
        from kfpca.metrics import default_workers

        monkeypatch.delenv("KFPCA_THREADS", raising=False)
        assert default_workers() == 1
        monkeypatch.setenv("KFPCA_THREADS", "4")
        assert default_workers() == 4
        for bad in ("junk", "-2"):
            monkeypatch.setenv("KFPCA_THREADS", bad)
            with pytest.raises(ConfigurationError, match="KFPCA_THREADS"):
                default_workers()

    @pytest.mark.parametrize("bad", [0, -3])
    def test_explicit_workers_below_one_rejected(self, bad):
        scenario = SimulationScenario(n_subjects=20, n_points=11, runs=2)
        with pytest.raises(ConfigurationError, match="workers"):
            run_scenario(scenario, ("cov",), workers=bad)


class TestConvergenceRate:
    def test_requires_three_increasing_sizes(self):
        scenario = SimulationScenario(seed=5)
        with pytest.raises(ConfigurationError):
            convergence_rate(scenario, (100,), 2)
        with pytest.raises(ConfigurationError):
            convergence_rate(scenario, (100, 50, 200), 2)

    def test_small_diagnostic_decays(self):
        scenario = SimulationScenario(n_points=21, seed=6)
        diag = convergence_rate(scenario, (20, 40, 80), reps=3)
        assert diag.fitted_slope < 0
        assert np.all(diag.sup_errors > 0)
        assert diag.sample_sizes == (20, 40, 80)

    def test_deterministic(self):
        scenario = SimulationScenario(n_points=21, seed=7)
        a = convergence_rate(scenario, (20, 40, 80), reps=2)
        b = convergence_rate(scenario, (20, 40, 80), reps=2)
        assert np.array_equal(a.sup_errors, b.sup_errors)
        assert a.fitted_slope == b.fitted_slope
