import numpy as np
import pytest

from kfpca import (
    ConfigurationError,
    Curve,
    DimensionError,
    FitConfig,
    InputError,
    RunMetrics,
    SimulationScenario,
    aggregate,
    convergence_rate,
    derive_rng,
    evaluate_run,
    fit,
    generate,
    imse,
    inner_product,
    make_regular_grid,
    run_scenario,
    true_eigenfunctions,
)
from kfpca.metrics import _aligned_imses, _score_mses
from kfpca.simgen import DISTRIBUTIONS


def random_curve(grid, key):
    return Curve(grid, derive_rng(99, key).standard_normal(grid.size))


def negated(c):
    return Curve(c.grid, -c.values)


def alignment_sign(est, truth):
    """The sign ``_aligned_imses`` gives one Curve against another."""
    signs, _ = _aligned_imses(est.values[None], truth.values[None], truth.grid.weights)
    return float(signs[0])


class TestAlignSign:
    def test_flipped_estimate_restored(self):
        g = make_regular_grid(0, 10, 21)
        truth = Curve(g, np.sin(g.points))
        assert alignment_sign(negated(truth), truth) == -1.0

    def test_matching_estimate_unchanged(self):
        g = make_regular_grid(0, 10, 21)
        truth = Curve(g, np.sin(g.points))
        assert alignment_sign(truth, truth) == 1.0

    def test_orthogonal_tie_keeps_input_sign(self):
        g = make_regular_grid(0, 1, 4)
        est = np.array([[-1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        truth = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, -1.0]])
        signs, imses = _aligned_imses(est, truth, g.weights)
        assert signs.tolist() == [1.0, 1.0]
        diff = est - truth
        assert np.array_equal(imses, [g.weights @ (r * r) for r in diff])


class TestImse:
    def test_identical_curves(self):
        g = make_regular_grid(0, 10, 21)
        f = Curve(g, np.cos(g.points))
        assert imse(f, f) == 0.0

    def test_sign_flip_is_free(self):
        g = make_regular_grid(0, 10, 21)
        f = Curve(g, np.cos(g.points))
        assert imse(negated(f), f) == 0.0

    def test_orthonormal_pair_gives_two(self):
        g = make_regular_grid(0, 10, 51)
        phi1, phi2 = true_eigenfunctions(1, g)
        assert imse(phi1, phi2) == pytest.approx(2.0, abs=1e-6)

    def test_invariant_to_sign_of_either_argument(self):
        g = make_regular_grid(0, 10, 31)
        f, t = random_curve(g, 1), random_curve(g, 2)
        nf, nt = negated(f), negated(t)
        vals = {imse(f, t), imse(nf, t), imse(f, nt), imse(nf, nt)}
        assert max(vals) - min(vals) < 1e-12

    @pytest.mark.parametrize("key", [3, 4, 5])
    def test_parallelogram_cap(self, key):
        g = make_regular_grid(0, 10, 31)
        f, t = random_curve(g, key), random_curve(g, key + 10)
        assert imse(f, t) <= 2.0 * (inner_product(f, f) + inner_product(t, t)) + 1e-12


class TestOneRowFormulas:
    """``imse`` and the row helpers against the plain formulas."""

    @pytest.mark.parametrize("key", [6, 7, 8])
    def test_sign_and_imse_round_as_one_vector_dot(self, key):
        g = make_regular_grid(0, 10, 51)
        f, t = random_curve(g, key), random_curve(g, key + 10)
        w = g.weights
        sign = -1.0 if w @ (f.values * t.values) < 0 else 1.0
        diff = sign * f.values - t.values
        assert alignment_sign(f, t) == sign
        assert imse(f, t) == float(w @ (diff * diff))

    @pytest.mark.parametrize("n", [5, 100, 1000])
    def test_score_mse_is_the_mean_of_one_contiguous_array(self, n):
        rng = derive_rng(40, n)
        est, tru = rng.standard_normal((2, n))
        diff = -1.0 * est - tru
        assert _score_mses(est[:, None], tru[:, None], -1.0)[0] == float(np.mean(diff * diff))

    def test_grid_mismatch_rejected(self):
        a = random_curve(make_regular_grid(0, 10, 21), 1)
        b = random_curve(make_regular_grid(0, 10, 31), 2)
        with pytest.raises(DimensionError):
            imse(a, b)


class TestScoreMse:
    def test_identical_vectors(self):
        x = np.arange(5.0)[:, None]
        assert _score_mses(x, x, 1.0)[0] == 0.0

    def test_constant_shift(self):
        x = np.arange(5.0)[:, None]
        assert _score_mses(x + 2.0, x, 1.0)[0] == pytest.approx(4.0)

    def test_sign_coupling(self):
        # each column flips with its own eigenfunction's sign
        x = np.arange(10.0).reshape(5, 2)
        assert _score_mses(x * [-1.0, 1.0], x, np.array([-1.0, 1.0])).tolist() == [0.0, 0.0]


class TestRunMetrics:
    @staticmethod
    def run_metrics(imse, mse):
        return RunMetrics(np.array(imse), np.array(mse), 0, SimulationScenario(), "kfpca")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["imse", "mse"])
    def test_a_non_finite_entry_is_rejected(self, bad, field):
        vectors = {"imse": [0.1, 0.2], "mse": [0.3, 0.4]}
        vectors[field][1] = bad
        with pytest.raises(InputError, match="metrics must be finite"):
            self.run_metrics(vectors["imse"], vectors["mse"])

    @pytest.mark.parametrize("field", ["imse", "mse"])
    def test_a_negative_entry_is_rejected(self, field):
        vectors = {"imse": [0.1, 0.2], "mse": [0.3, 0.4]}
        vectors[field][0] = -1e-300
        with pytest.raises(InputError, match="metrics must be non-negative"):
            self.run_metrics(vectors["imse"], vectors["mse"])

    def test_a_non_finite_entry_is_reported_before_a_negative_one(self):
        with pytest.raises(InputError, match="metrics must be finite"):
            self.run_metrics([-1.0, 0.2], [0.3, np.nan])

    def test_negative_zero_and_empty_vectors_pass(self):
        m = self.run_metrics([-0.0, 0.0], [0.0, -0.0])
        assert np.signbit(m.imse[0]) and np.signbit(m.mse[1])
        assert self.run_metrics([], []).imse.shape == (0,)

    @pytest.mark.parametrize("imse, mse", [([[0.1]], [[0.1]]), ([0.1], [0.1, 0.2])])
    def test_vectors_of_unequal_length_are_rejected(self, imse, mse):
        with pytest.raises(InputError, match="vectors of equal length"):
            self.run_metrics(imse, mse)


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


def per_curve_reference(scenario, run_index, method):
    """A run's metrics from the plain formulas, one eigenfunction row and one
    score column at a time."""
    bundle = generate(scenario, run_index)
    model = fit(bundle.sample, FitConfig(method=method, n_components=2))
    w = bundle.sample.grid.weights
    imse_k, mse_k = np.empty(2), np.empty(2)
    for k in range(2):
        f, t = model.eigenfunction_values[k], bundle.true_eigenfunctions[k]
        sign = -1.0 if w @ (f * t) < 0 else 1.0
        diff = sign * f - t
        imse_k[k] = w @ (diff * diff)
        err = sign * model.scores[:, k] - bundle.true_scores[:, k]
        mse_k[k] = np.mean(err * err)
    return imse_k, mse_k


class TestEvaluateRun:
    @pytest.mark.parametrize("case", [1, 2])
    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    def test_array_scoring_matches_the_per_curve_reference(self, distribution, case):
        # the runs score the model's arrays through the library's helpers and
        # the reference applies the plain formulas to one row at a time
        scenario = SimulationScenario(
            case=case, distribution=distribution, n_subjects=40, n_points=21, seed=8, runs=3
        )
        methods = ("kfpca", "cov")
        together = run_scenario(scenario, methods, workers=1)
        for method in methods:
            for r in range(scenario.runs):
                imse_k, mse_k = per_curve_reference(scenario, r, method)
                for m in (together[method][r], evaluate_run(scenario, r, method)):
                    assert m.imse.tobytes() == imse_k.tobytes()
                    assert m.mse.tobytes() == mse_k.tobytes()

    def test_run_scenario_builds_the_design_once(self, monkeypatch):
        import kfpca.simgen

        calls = {"grid": 0, "truth": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            kfpca.simgen, "make_regular_grid", counted("grid", kfpca.simgen.make_regular_grid)
        )
        monkeypatch.setattr(
            kfpca.simgen, "true_eigenfunctions",
            counted("truth", kfpca.simgen.true_eigenfunctions),
        )
        scenario = SimulationScenario(n_subjects=20, n_points=11, seed=9, runs=20)
        out = run_scenario(scenario, ("kfpca", "cov"), workers=1)
        assert calls == {"grid": 1, "truth": 1}
        assert [len(out[m]) for m in ("kfpca", "cov")] == [20, 20]

    def test_run_scenario_builds_one_model_and_one_curve_per_fit(self, monkeypatch):
        import kfpca.core
        import kfpca.model

        built = {"model": 0, "curve": 0}

        def counted(name, real):
            def wrapper(self):
                built[name] += 1
                return real(self)
            return wrapper

        scenario = SimulationScenario(n_subjects=20, n_points=11, seed=9, runs=20)
        scenario._design  # builds the truth as two Curves, once, before counting
        for name, cls in (("model", kfpca.model.FpcaModel), ("curve", kfpca.core.Curve)):
            monkeypatch.setattr(cls, "__post_init__", counted(name, cls.__post_init__))
        out = run_scenario(scenario, ("kfpca", "cov"), workers=1)
        # per fit one model and one Curve, its mean; no eigenfunction Curve
        fits = 2 * scenario.runs
        assert built == {"model": fits, "curve": fits}
        assert [len(out[m]) for m in ("kfpca", "cov")] == [20, 20]

    def test_runs_call_fit_through_the_metrics_module(self, monkeypatch):
        # a tracer that wraps kfpca.metrics.fit sees every Monte Carlo fit
        import kfpca.metrics

        calls = []

        def counted(sample, config):
            calls.append(config.method)
            return fit(sample, config)

        monkeypatch.setattr(kfpca.metrics, "fit", counted)
        scenario = SimulationScenario(n_subjects=20, n_points=11, seed=9, runs=3)
        evaluate_run(scenario, 0, "cov")
        assert calls == ["cov"]
        calls.clear()
        run_scenario(scenario, ("kfpca", "cov"), workers=1)
        assert calls == ["kfpca", "cov"] * scenario.runs

    def test_produces_finite_metrics(self):
        scenario = SimulationScenario(n_subjects=40, n_points=21, seed=3, runs=2)
        metrics = evaluate_run(scenario, 0, "kfpca")
        assert metrics.imse.shape == (2,)
        assert np.all(metrics.imse >= 0)
        assert np.all(metrics.mse >= 0)
        assert metrics.method == "kfpca"

    def test_run_scenario_sequential_matches_parallel(self):
        scenario = SimulationScenario(n_subjects=30, n_points=21, seed=4, runs=6)
        methods = ("kfpca", "cov")
        seq = run_scenario(scenario, methods, workers=1)
        par = run_scenario(scenario, methods, workers=2)
        assert list(seq) == list(par) == list(methods)
        for method in methods:
            assert len(seq[method]) == len(par[method]) == scenario.runs
            for r, (a, b) in enumerate(zip(seq[method], par[method])):
                alone = evaluate_run(scenario, r, method)
                for m in (a, b):
                    assert np.array_equal(m.imse, alone.imse)
                    assert np.array_equal(m.mse, alone.mse)
                    assert m.run_index == r and m.method == method

    def test_run_scenario_generates_each_run_once(self, monkeypatch):
        import kfpca.metrics

        scenario = SimulationScenario(n_subjects=20, n_points=11, seed=5, runs=5)
        calls = []
        real = kfpca.metrics.generate

        def counting(scenario, run_index):
            calls.append(run_index)
            return real(scenario, run_index)

        monkeypatch.setattr(kfpca.metrics, "generate", counting)
        out = run_scenario(scenario, ("kfpca", "cov"), workers=1)
        assert sorted(calls) == list(range(scenario.runs))
        assert [len(out[m]) for m in ("kfpca", "cov")] == [scenario.runs] * 2

    def test_run_scenario_opens_at_most_one_pool(self, monkeypatch):
        import kfpca.metrics

        pools = []
        real = kfpca.metrics.ProcessPoolExecutor

        def counting(*args, **kwargs):
            pools.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(kfpca.metrics, "ProcessPoolExecutor", counting)
        scenario = SimulationScenario(n_subjects=20, n_points=11, seed=6, runs=4)
        run_scenario(scenario, ("kfpca", "cov"), workers=2)
        assert len(pools) <= 1

    @pytest.mark.parametrize("methods", [(), ("kfpca", "pca")])
    def test_run_scenario_checks_methods_before_generating(self, monkeypatch, methods):
        import kfpca.metrics

        def fail(*args):
            raise AssertionError("generate called")

        monkeypatch.setattr(kfpca.metrics, "generate", fail)
        scenario = SimulationScenario(n_subjects=20, n_points=11, runs=4)
        with pytest.raises(ConfigurationError, match="method"):
            run_scenario(scenario, methods, workers=2)


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

    @pytest.mark.parametrize("bad", [0, -3, 2.5])
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

    @pytest.mark.parametrize("reps", [2.5, 2.0, None, "2"])
    def test_non_integer_reps_rejected(self, reps):
        scenario = SimulationScenario(n_points=21, seed=1)
        with pytest.raises(ConfigurationError, match="reps"):
            convergence_rate(scenario, (20, 40, 80), reps)

    # 20.5 used to run as 20, and "20" was accepted
    @pytest.mark.parametrize(
        "sizes", [(20.5, 40, 80), ("20", 40, 80), (True, 40, 80), (20, 40.0, 80), (1, 40, 80)]
    )
    def test_each_size_must_be_an_integer_of_at_least_two(self, sizes, monkeypatch):
        import kfpca.metrics

        def fail(*args):
            raise AssertionError("generate called")

        monkeypatch.setattr(kfpca.metrics, "generate", fail)
        with pytest.raises(ConfigurationError, match="sample size"):
            convergence_rate(SimulationScenario(n_points=21, seed=1), sizes, 2)

    def test_numpy_integer_sizes_accepted(self):
        scenario = SimulationScenario(n_points=21, seed=6)
        sizes = tuple(np.int64(n) for n in (20, 40, 80))
        a = convergence_rate(scenario, sizes, reps=2)
        b = convergence_rate(scenario, (20, 40, 80), reps=2)
        assert a.sample_sizes == (20, 40, 80)
        assert np.array_equal(a.sup_errors, b.sup_errors)

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
