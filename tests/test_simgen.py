import dataclasses
import json
import pickle

import numpy as np
import pytest

from kfpca import (
    ConfigurationError,
    InputError,
    SimulationScenario,
    derive_rng,
    draw_scores,
    generate,
    inner_product,
    make_regular_grid,
    true_eigenfunctions,
)
from kfpca.simgen import (
    DISTRIBUTIONS,
    SKEW_T_DF,
    SKEW_T_MEAN,
    SKEW_T_SLANT,
    SKEW_T_VAR,
    scenario_from_doc,
    scenario_to_doc,
)
from skew_t_oracle import (
    TARGET_EXCESS_KURTOSIS,
    TARGET_SKEWNESS,
    skew_t_shape_moments,
    solve_skew_t_params,
)


def sample_moments(x):
    m = x.mean()
    v = x.var()
    skew = ((x - m) ** 3).mean() / v**1.5
    exkurt = ((x - m) ** 4).mean() / v**2 - 3.0
    return m, v, skew, exkurt


def skewness_standard_error(x):
    """Asymptotic SE of the sample skewness from the data's own moments."""
    z = (x - x.mean()) / x.std()
    return np.sqrt(np.var(z**3) / x.size)


class TestTrueEigenfunctions:
    def test_case1_values_at_zero(self):
        g = make_regular_grid(0, 10, 51)
        phi1, phi2 = true_eigenfunctions(1, g)
        assert phi1.values[0] == pytest.approx(1 / np.sqrt(5), abs=1e-12)
        assert phi2.values[0] == pytest.approx(0.0, abs=1e-12)

    def test_case2_value_at_quarter_period(self):
        g = make_regular_grid(0, 10, 41)  # t = 2.5 is on this grid
        phi1, _ = true_eigenfunctions(2, g)
        idx = np.argmin(np.abs(g.points - 2.5))
        assert phi1.values[idx] == pytest.approx(1 / np.sqrt(5), abs=1e-12)

    @pytest.mark.parametrize("case", [1, 2])
    def test_orthonormal_on_grid(self, case):
        g = make_regular_grid(0, 10, 51)
        phi1, phi2 = true_eigenfunctions(case, g)
        assert inner_product(phi1, phi1) == pytest.approx(1.0, abs=1e-4)
        assert inner_product(phi2, phi2) == pytest.approx(1.0, abs=1e-4)
        assert abs(inner_product(phi1, phi2)) < 1e-6

    def test_wrong_span_rejected(self):
        with pytest.raises(ConfigurationError):
            true_eigenfunctions(1, make_regular_grid(0, 5, 21))

    def test_unknown_case_rejected(self):
        with pytest.raises(ConfigurationError):
            true_eigenfunctions(3, make_regular_grid(0, 10, 21))


class TestDrawScores:
    def test_gaussian_moments(self):
        x = draw_scores("gaussian", 16.0, 1_000_000, derive_rng(1, 0))
        _, v, skew, _ = sample_moments(x)
        assert 15.9 <= v <= 16.1
        assert -0.02 <= skew <= 0.02

    def test_ec2_variance(self):
        x = draw_scores("ec2", 9.0, 1_000_000, derive_rng(2, 0))
        assert 8.9 <= x.var() <= 9.1

    def test_ec2_symmetric_and_heavy_tailed(self):
        x = draw_scores("ec2", 9.0, 1_000_000, derive_rng(3, 0))
        _, _, skew, exkurt = sample_moments(x)
        assert abs(skew) < 3 * skewness_standard_error(x)
        # fourth moment of eta ~ Exp(1) gives excess kurtosis exactly 3
        assert 2.5 <= exkurt <= 3.5

    def test_mix_gaussian_moments(self):
        lam = 16.0
        x = draw_scores("mix_gaussian", lam, 1_000_000, derive_rng(4, 0))
        m, v, skew, exkurt = sample_moments(x)
        assert abs(m) < 3 * np.sqrt(lam / 1e6)
        assert abs(v - lam) / lam < 0.01
        # fourth central moment 2.5 lam^2 -> excess kurtosis -0.5
        assert abs(skew) < 3 * skewness_standard_error(x)
        assert -0.55 <= exkurt <= -0.45

    def test_skew_t_moments(self):
        # the kurtosis estimator is heavy-tailed at this df; stream frozen
        # after verifying the population values by quadrature and a 1e7 draw
        x = draw_scores("skew_t", 16.0, 1_000_000, derive_rng(5, 2))
        m, v, skew, exkurt = sample_moments(x)
        assert abs(m) < 0.02
        assert abs(v - 16.0) / 16.0 < 0.01
        assert 1.45 <= skew <= 1.55
        assert 4.6 <= exkurt <= 5.6

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_nonpositive_variance_rejected(self, lam):
        with pytest.raises(ConfigurationError):
            draw_scores("gaussian", lam, 10, derive_rng(6, 0))

    @pytest.mark.parametrize(
        "lam", [float("nan"), float("inf"), "1", True, None], ids=repr
    )
    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    def test_non_finite_or_non_real_variance_rejected(self, distribution, lam):
        with pytest.raises(ConfigurationError, match="lambda_k"):
            draw_scores(distribution, lam, 10, derive_rng(6, 0))

    @pytest.mark.parametrize("n", [2.5, -1, True, "3", None], ids=repr)
    def test_non_count_size_rejected(self, n):
        with pytest.raises(ConfigurationError, match="n must be an integer >= 0"):
            draw_scores("gaussian", 1.0, n, derive_rng(6, 0))

    def test_zero_and_numpy_sizes_accepted(self):
        assert draw_scores("skew_t", 1.0, 0, derive_rng(6, 0)).shape == (0,)
        assert draw_scores("ec2", 1.0, np.int64(3), derive_rng(6, 0)).shape == (3,)

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ConfigurationError):
            draw_scores("cauchy", 1.0, 10, derive_rng(7, 0))


class TestSolveSkewTParams:
    def test_calibration_targets_match_frozen_constants(self):
        slant, df = solve_skew_t_params(TARGET_SKEWNESS, TARGET_EXCESS_KURTOSIS)
        assert slant == pytest.approx(SKEW_T_SLANT, abs=1e-6)
        assert df == pytest.approx(SKEW_T_DF, abs=1e-6)
        _, _, skew, exkurt = skew_t_shape_moments(slant, df)
        assert abs(skew - TARGET_SKEWNESS) < 1e-8
        assert abs(exkurt - TARGET_EXCESS_KURTOSIS) < 1e-8
        mean, var, _, _ = skew_t_shape_moments(SKEW_T_SLANT, SKEW_T_DF)
        assert (mean, var) == (SKEW_T_MEAN, SKEW_T_VAR)

    def test_solution_verified_by_sampling_oracle(self):
        # 1e7 draws pin the solved parameters' moments within MC error
        slant, df = solve_skew_t_params(TARGET_SKEWNESS, TARGET_EXCESS_KURTOSIS)
        delta = slant / np.sqrt(1 + slant**2)
        rng = derive_rng(8, 0)
        n = 10_000_000
        sn = delta * np.abs(rng.standard_normal(n)) + np.sqrt(
            1 - delta**2
        ) * rng.standard_normal(n)
        z = sn / np.sqrt(rng.chisquare(df, n) / df)
        _, _, skew, exkurt = sample_moments(z)
        assert abs(skew - TARGET_SKEWNESS) < 0.05
        assert abs(exkurt - TARGET_EXCESS_KURTOSIS) < 0.6


class TestGenerate:
    def test_zero_variance_everything_gives_zero_matrix(self):
        scenario = SimulationScenario(sigma2=0.0, lambdas=(0.0, 0.0), seed=1)
        bundle = generate(scenario, 0)
        assert np.all(bundle.sample.values == 0.0)
        assert np.all(bundle.true_scores == 0.0)

    def test_deterministic_given_seed_and_run(self):
        scenario = SimulationScenario(seed=10)
        a = generate(scenario, 3)
        b = generate(scenario, 3)
        assert np.array_equal(a.sample.values, b.sample.values)
        assert np.array_equal(a.true_scores, b.true_scores)

    def test_distinct_runs_differ(self):
        scenario = SimulationScenario(seed=10)
        a = generate(scenario, 0)
        b = generate(scenario, 1)
        assert not np.array_equal(a.sample.values, b.sample.values)

    def test_bundle_is_consistent(self):
        scenario = SimulationScenario(sigma2=0.0, seed=11)
        bundle = generate(scenario, 0)
        assert np.allclose(bundle.sample.values, bundle.true_scores @ bundle.true_eigenfunctions)

    def test_variance_decomposition(self):
        # pooled variance of Y(t) across many runs matches
        # lam1 phi1(t)^2 + lam2 phi2(t)^2 + sigma2
        scenario = SimulationScenario(seed=12, runs=1000)
        phi1, phi2 = true_eigenfunctions(1, generate(scenario, 0).sample.grid)
        expected = 16.0 * phi1.values**2 + 9.0 * phi2.values**2 + 0.25
        pooled = np.vstack(
            [generate(scenario, run).sample.values for run in range(1000)]
        )
        observed = pooled.var(axis=0)
        assert np.abs(observed / expected - 1.0).max() < 0.05

    def test_score_streams_uncorrelated_across_runs(self):
        scenario = SimulationScenario(seed=13, n_subjects=2000, runs=2)
        a = generate(scenario, 0).true_scores[:, 0]
        b = generate(scenario, 1).true_scores[:, 0]
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 3.0 / np.sqrt(a.size)

    def test_ec2_radial_shared_within_subject(self):
        # |xi1| and |xi2| are proportional within a subject: one radial draw
        scenario = SimulationScenario(distribution="ec2", sigma2=0.0, seed=14)
        scores = generate(scenario, 0).true_scores
        ratio = np.abs(scores[:, 0]) / np.abs(scores[:, 1])
        assert np.allclose(ratio, 4.0 / 3.0, rtol=1e-12)

    def test_ec2_components_uncorrelated(self):
        scenario = SimulationScenario(
            distribution="ec2", n_subjects=100_000, sigma2=0.0, seed=15, runs=1
        )
        scores = generate(scenario, 0).true_scores
        assert abs(np.corrcoef(scores.T)[0, 1]) < 3.0 / np.sqrt(100_000) * 2.5
        assert abs(scores[:, 0].var() / 16.0 - 1.0) < 0.05
        assert abs(scores[:, 1].var() / 9.0 - 1.0) < 0.05

    def test_runs_of_one_scenario_share_one_read_only_design(self):
        scenario = SimulationScenario(case=2, distribution="skew_t", seed=16, runs=3)
        a, b = generate(scenario, 0), generate(scenario, 2)
        assert a.sample.grid is b.sample.grid
        assert a.true_eigenfunctions is b.true_eigenfunctions
        curves = true_eigenfunctions(2, a.sample.grid)
        assert np.array_equal(a.true_eigenfunctions, [c.values for c in curves])
        arrays = [a.sample.grid.points, a.sample.grid.weights, a.true_eigenfunctions]
        assert not any(x.flags.writeable for x in arrays)

    def test_pickled_scenario_builds_its_own_read_only_design(self):
        scenario = SimulationScenario(seed=17, runs=2)
        before = generate(scenario, 1)
        copy = pickle.loads(pickle.dumps(scenario))
        after = generate(copy, 1)
        assert copy == scenario
        assert after.sample.grid is not before.sample.grid
        assert not after.sample.grid.points.flags.writeable
        assert np.array_equal(after.sample.values, before.sample.values)

    def test_run_index_validated(self):
        scenario = SimulationScenario(runs=5)
        with pytest.raises(InputError):
            generate(scenario, 5)
        with pytest.raises(InputError):
            generate(scenario, -1)

    def test_scenario_validation(self):
        with pytest.raises(ConfigurationError):
            SimulationScenario(case=3)
        with pytest.raises(ConfigurationError):
            SimulationScenario(distribution="laplace")
        with pytest.raises(ConfigurationError):
            SimulationScenario(sigma2=-0.1)
        with pytest.raises(ConfigurationError):
            SimulationScenario(lambdas=(-1.0, 9.0))
        with pytest.raises(ConfigurationError):
            SimulationScenario(seed=-1)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_subjects", 20.5),
            ("n_subjects", 20.0),
            ("n_points", 21.5),
            ("runs", 2.5),
            ("runs", True),
            ("seed", 1.5),
            ("seed", "3"),
        ],
    )
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SimulationScenario(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sigma2", float("nan")),
            ("sigma2", float("inf")),
            ("sigma2", "0.25"),
            ("lambdas", (float("nan"), 9.0)),
            ("lambdas", (16.0, float("inf"))),
            ("lambdas", (16.0, None)),
            ("lambdas", 5),
            ("lambdas", None),
            # a bool is not a variance
            ("sigma2", True),
            ("lambdas", (True, 9.0)),
        ],
    )
    def test_non_finite_variances_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SimulationScenario(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        scenario = SimulationScenario(
            case=np.int64(2), n_subjects=np.int64(20), n_points=np.int32(31),
            sigma2=np.float32(0.5), lambdas=(np.float32(4.0), 1.0),
            runs=np.int32(2), seed=np.int64(7),
        )
        assert generate(scenario, 1).sample.values.shape == (20, 31)
        doc = json.loads(json.dumps(scenario_to_doc(scenario)))
        assert scenario_from_doc(doc) == scenario

    def test_numpy_array_lambdas_accepted(self):
        assert SimulationScenario(lambdas=np.array([4.0, 1.0])).lambdas == (4.0, 1.0)

    def test_scenario_doc_round_trip(self):
        scenario = SimulationScenario(case=2, distribution="ec2", seed=9)
        assert scenario_from_doc(scenario_to_doc(scenario)) == scenario

    @pytest.mark.parametrize(
        "field, value",
        [("runs", 2.5), ("case", "1"), ("n_points", 51.0), ("seed", True), ("lambdas", 5)],
    )
    def test_scenario_doc_is_not_coerced(self, field, value):
        # a saved runs of 2.5 used to read back as 2
        doc = scenario_to_doc(SimulationScenario())
        doc[field] = value
        with pytest.raises(ConfigurationError, match=field):
            scenario_from_doc(doc)

    def test_scenario_doc_missing_field(self):
        doc = scenario_to_doc(SimulationScenario())
        del doc["sigma2"]
        with pytest.raises(InputError):
            scenario_from_doc(doc)
