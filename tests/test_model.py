import dataclasses
import json
import os
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kfpca import (
    ConfigurationError,
    Curve,
    DimensionError,
    FitConfig,
    FpcaModel,
    FunctionalSample,
    Grid,
    InputError,
    ParseError,
    SimulationScenario,
    covariance_hat,
    derive_rng,
    deserialize_model,
    fit,
    generate,
    imse,
    kendall_tau_hat,
    load_model,
    make_regular_grid,
    mean_hat,
    project_scores,
    reconstruct,
    save_model,
    serialize_model,
    true_eigenfunctions,
)
import kfpca.estimators
import kfpca.model
from kfpca.model import atomic_write


def one_factor_sample(n=12, seed=0):
    """Noiseless curves lying exactly in span{mu + xi phi1}."""
    g = make_regular_grid(0, 10, 51)
    phi1, _ = true_eigenfunctions(1, g)
    mu = np.sin(g.points / 3.0)
    xi = derive_rng(seed, 0).normal(0, 4.0, n)
    return FunctionalSample(g, mu + xi[:, None] * phi1.values), mu, xi


def noisy_sample(n=60, seed=1):
    return generate(SimulationScenario(n_subjects=n, seed=seed), 0).sample


class TestFit:
    @pytest.mark.parametrize("method", ["kfpca", "cov"])
    def test_one_factor_data_reconstructed_exactly(self, method):
        sample, _, _ = one_factor_sample()
        model = fit(sample, FitConfig(method=method, n_components=1))
        for i in range(sample.n_subjects):
            rebuilt = reconstruct(model, i, 1)
            assert np.abs(rebuilt.values - sample.values[i]).max() < 1e-8

    def test_methods_agree_on_gaussian_data(self):
        sample = generate(SimulationScenario(n_subjects=400, seed=55), 0).sample
        kf = fit(sample, FitConfig(method="kfpca", n_components=2))
        cv = fit(sample, FitConfig(method="cov", n_components=2))
        for k in range(2):
            assert imse(kf.eigenfunctions[k], cv.eigenfunctions[k]) < 0.05

    def test_cov_component_variances_equal_operator_eigenvalues(self):
        model = fit(noisy_sample(), FitConfig(method="cov", n_components=5))
        assert np.allclose(
            model.component_variances, model.operator_eigenvalues, rtol=1e-6
        )

    def test_full_rank_cov_reconstruction_exact(self):
        sample = noisy_sample(n=20, seed=3)
        d = sample.grid.size
        model = fit(sample, FitConfig(method="cov", n_components=d))
        for i in (0, 7, 19):
            rebuilt = reconstruct(model, i, d)
            assert np.abs(rebuilt.values - sample.values[i]).max() < 1e-8

    def test_deterministic(self):
        sample = noisy_sample(seed=4)
        config = FitConfig(method="kfpca", n_components=3)
        a = fit(sample, config)
        b = fit(sample, config)
        assert np.array_equal(a.scores, b.scores)
        assert np.array_equal(a.component_variances, b.component_variances)
        for ca, cb in zip(a.eigenfunctions, b.eigenfunctions):
            assert np.array_equal(ca.values, cb.values)

    def test_scores_centered(self):
        model = fit(noisy_sample(seed=5), FitConfig(n_components=2))
        col_means = np.abs(model.scores.mean(axis=0))
        col_stds = model.scores.std(axis=0)
        assert np.all(col_means < 1e-8 * col_stds)

    def test_component_variances_descending_for_cov(self):
        model = fit(noisy_sample(seed=6), FitConfig(method="cov", n_components=8))
        assert np.all(np.diff(model.component_variances) <= 1e-12)

    def test_fve_threshold_selects_smallest_k(self):
        sample = noisy_sample(seed=7)
        model = fit(sample, FitConfig(method="cov", n_components=0.9))
        full = fit(sample, FitConfig(method="cov", n_components=sample.grid.size))
        spectrum = full.operator_eigenvalues
        fve = np.cumsum(spectrum) / spectrum.sum()
        expected_k = int(np.nonzero(fve >= 0.9)[0][0]) + 1
        assert model.n_components == expected_k
        assert model.fraction_variance_explained() >= 0.9

    def test_too_many_components_rejected(self):
        with pytest.raises(ConfigurationError):
            fit(noisy_sample(seed=8), FitConfig(n_components=100))

    def test_small_samples_rejected(self):
        g = make_regular_grid(0, 1, 5)
        with pytest.raises(InputError):
            fit(
                FunctionalSample(g, np.random.default_rng(0).normal(size=(2, 5))),
                FitConfig(),
            )
        g3 = make_regular_grid(0, 1, 3)
        with pytest.raises(InputError):
            fit(
                FunctionalSample(g3, np.random.default_rng(0).normal(size=(5, 3))),
                FitConfig(),
            )

    def test_presmooth_path_runs_and_is_deterministic(self):
        sample = noisy_sample(n=20, seed=9)
        config = FitConfig(method="kfpca", n_components=2, presmooth=True)
        a = fit(sample, config)
        b = fit(sample, config)
        assert np.array_equal(a.scores, b.scores)

    @pytest.mark.parametrize("method", ["kfpca", "cov"])
    def test_plain_fit_makes_one_eigensolve(self, method, monkeypatch):
        # one Householder reduction of the kernel, and no dense eigensolver
        calls = []

        def counting(module, name):
            fn = getattr(module, name)

            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapped)

        counting(scipy.linalg.lapack, "dsytrd")
        counting(np.linalg, "eigh")
        counting(np.linalg, "eigvalsh")
        fit(noisy_sample(seed=15), FitConfig(method=method, n_components=0.95))
        assert calls == ["dsytrd"]
        # eigen-smoothing reduces the estimate, as the PSD check needs, then
        # the smoothed kernel it decomposes
        calls.clear()
        fit(noisy_sample(seed=15), FitConfig(method=method, eigen_smooth="auto"))
        assert calls == ["dsytrd", "dsytrd"]

    @pytest.mark.parametrize(
        "module, options, rows",
        [(kfpca.model, {"presmooth": True}, 20), (kfpca.model, {"eigen_smooth": True}, 0)],
    )
    def test_smoothing_is_one_call_on_the_rows_kept(self, module, options, rows, monkeypatch):
        # presmoothing takes all N curves at once; eigen-smoothing smooths
        # the kernel surface, not rows
        shapes = []
        smooth_rows = module.smooth_rows

        def recording(grid, values, bandwidth="auto"):
            shapes.append(values.shape)
            return smooth_rows(grid, values, bandwidth)

        monkeypatch.setattr(module, "smooth_rows", recording)
        model = fit(noisy_sample(n=20, seed=16), FitConfig(n_components=2, **options))
        assert model.n_components == 2
        assert shapes == ([(rows, 51)] if rows else [])

    @pytest.mark.parametrize("method", ["kfpca", "cov"])
    def test_fit_is_eigen_decompose_then_project_scores(self, method):
        sample = noisy_sample(seed=17)
        model = fit(sample, FitConfig(method=method, n_components=0.95))
        k = model.n_components
        kernel = kendall_tau_hat(sample) if method == "kfpca" else covariance_hat(sample)
        phi = kernel.eigenfunctions(k)
        assert k > 2
        assert np.array_equal(np.stack([c.values for c in model.eigenfunctions]), phi)
        assert np.array_equal(model.operator_eigenvalues, kernel.eigenvalues[:k])
        assert np.array_equal(model.scores, project_scores(sample, mean_hat(sample), phi))

    def test_fit_and_load_model_build_one_curve_each(self, tmp_path, monkeypatch):
        # the mean; the eigenfunctions stay one read-only K x d array
        sample = noisy_sample(seed=18)
        built = []
        post_init = Curve.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(Curve, "__post_init__", counted)
        model = fit(sample, FitConfig(n_components=3))
        assert built == [model.mean]
        path = tmp_path / "m.json"
        save_model(model, path)
        built.clear()
        back = load_model(path)
        assert built == [back.mean]
        for m in (model, back):
            assert m.grid is m.mean.grid
            assert m.eigenfunction_values.shape == (3, 51)
            assert not m.eigenfunction_values.flags.writeable

    @pytest.mark.parametrize("bad", [0, -1, 0.0, 1.0, -0.5, True, 2.0, 2.5, np.int64(0)])
    def test_invalid_n_components_config(self, bad):
        with pytest.raises(ConfigurationError):
            FitConfig(n_components=bad)

    def test_numpy_n_components_stored_as_python_number(self, tmp_path):
        sample = noisy_sample(n=20, seed=16)
        model = fit(sample, FitConfig(n_components=np.int64(2)))
        assert type(model.config.n_components) is int
        assert serialize_model(model) == serialize_model(fit(sample, FitConfig(n_components=2)))
        path = tmp_path / "m.json"
        save_model(model, path)
        assert serialize_model(load_model(path)) == serialize_model(model)
        for threshold in (np.float32(0.9), np.float64(0.9)):
            stored = FitConfig(n_components=threshold).n_components
            assert type(stored) is float and stored == float(threshold)

    @pytest.mark.parametrize("field", ["presmooth", "eigen_smooth"])
    @pytest.mark.parametrize(
        "bad", [-1, -1.0, 0, 0.0, "bogus", "1.0", "", float("nan"), np.array([True])]
    )
    def test_smoother_setting_is_off_auto_or_a_positive_bandwidth(self, field, bad):
        with pytest.raises(ConfigurationError, match=f"^{field} must be positive or 'auto'"):
            FitConfig(**{field: bad})

    def test_bool_settings_stored_as_auto_or_none(self):
        # a stored bool would make True == 1.0 equate a GCV fit with a
        # fixed-bandwidth one
        for true, false in [(True, False), (np.bool_(True), np.False_)]:
            config = FitConfig(presmooth=true, eigen_smooth=false)
            assert config.presmooth == "auto" and config.eigen_smooth is None
        assert FitConfig(presmooth=True) != FitConfig(presmooth=1.0)
        assert FitConfig(presmooth=True) == FitConfig(presmooth="auto")
        assert FitConfig(eigen_smooth=False) == FitConfig()

    def test_bandwidths_stored_as_float_or_auto(self):
        config = FitConfig(presmooth=np.float32(0.5), eigen_smooth=2)
        assert (config.presmooth, config.eigen_smooth) == (0.5, 2.0)
        assert type(config.presmooth) is float is type(config.eigen_smooth)
        assert FitConfig(presmooth="auto", eigen_smooth=None).presmooth == "auto"
        assert FitConfig().presmooth is FitConfig().eigen_smooth is None

    def test_invalid_method_config(self):
        with pytest.raises(ConfigurationError):
            FitConfig(method="pca")

    # Schema-2 documents saved each smoother as a flag beside its bandwidth,
    # and the kernel's degenerate_tol; load_model still checks all three.

    @pytest.mark.parametrize("field", ["presmooth", "eigen_smooth"])
    @pytest.mark.parametrize("bad", ["no", "false", 1, 0, None, np.array([True])])
    def test_smoothing_flags_must_be_bools(self, field, bad):
        # "no" used to switch presmoothing on
        with pytest.raises(ParseError, match=f"config: {field} must be a bool") as err:
            deserialize_model(schema_2_doc(**{field: bad}))
        assert err.value.path == "config"

    @pytest.mark.parametrize("field", ["presmooth_bandwidth", "eigen_bandwidth"])
    @pytest.mark.parametrize(
        "bad", [-1, -1.0, 0.0, "bogus", "1.0", float("nan"), True, np.bool_(True), None]
    )
    def test_bandwidth_must_be_auto_or_positive(self, field, bad):
        # both flags of the document are set, so both bandwidths are read
        with pytest.raises(ParseError, match=f"config: {field} must be positive") as err:
            deserialize_model(schema_2_doc(**{field: bad}))
        assert err.value.path == "config"

    @pytest.mark.parametrize(
        "bad", [-1e-12, 0.0, float("nan"), float("inf"), "1e-3", None, True]
    )
    def test_invalid_degenerate_tol_config(self, bad):
        # NaN fails every comparison, so a bare `< 0` check lets it through;
        # a fit now uses only the default, so any other value is refused
        with pytest.raises(ParseError, match="config: degenerate_tol") as err:
            deserialize_model(schema_2_doc(degenerate_tol=bad))
        assert err.value.path == "config"


@st.composite
def permuted_samples(draw):
    """Gaussian curves, N in [5, 40] and d in [4, 30], with a permutation
    of their rows."""
    n = draw(st.integers(5, 40))
    d = draw(st.integers(4, 30))
    values = derive_rng(draw(st.integers(0, 2**32 - 1)), 0).standard_normal((n, d))
    perm = draw(st.permutations(range(n)))
    return FunctionalSample(make_regular_grid(0, 1, d), values), perm


class TestSubjectOrder:
    @pytest.mark.parametrize("method", ["kfpca", "cov"])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(drawn=permuted_samples())
    def test_fit_is_invariant_to_subject_order(self, method, drawn):
        sample, perm = drawn
        estimate = kendall_tau_hat if method == "kfpca" else covariance_hat
        ev = estimate(sample).eigenvalues[:3]
        # rounding moves an eigenvector by about 3e-16 / (relative gap)
        # (2.2e-13 measured at a gap of 1.3e-3), so this gap keeps the
        # eigenfunctions inside 1e-12
        assume(np.all(-np.diff(ev) >= 1e-3 * ev[:2]))
        config = FitConfig(method=method, n_components=2)
        a = fit(sample, config)
        b = fit(FunctionalSample(sample.grid, sample.values[list(perm)]), config)
        phi_a, phi_b = (np.stack([c.values for c in m.eigenfunctions]) for m in (a, b))
        ev_a = a.operator_eigenvalues
        assert np.abs(b.operator_eigenvalues - ev_a).max() <= 1e-12 * ev_a[0]
        assert np.abs(phi_b - phi_a).max() <= 1e-12 * np.abs(phi_a).max()
        scores = a.scores[list(perm)]
        assert np.abs(b.scores - scores).max() <= 1e-12 * np.abs(scores).max()


class TestReconstruct:
    def test_zero_components_returns_mean(self):
        model = fit(noisy_sample(seed=10), FitConfig(n_components=2))
        rebuilt = reconstruct(model, 0, 0)
        assert np.array_equal(rebuilt.values, model.mean.values)

    def test_noise_floor_bound_on_reconstruction_error(self):
        # K=2 reconstruction error stays near the measurement-noise floor
        scenario = SimulationScenario(seed=11)
        errors = []
        for run in range(10):
            bundle = generate(scenario, run)
            model = fit(bundle.sample, FitConfig(method="kfpca", n_components=2))
            truth = bundle.true_scores @ bundle.true_eigenfunctions
            w = bundle.sample.grid.weights
            for i in range(0, 100, 10):
                diff = reconstruct(model, i, 2).values - truth[i]
                errors.append(w @ (diff * diff))
        assert np.mean(errors) < 0.25 * 10.0 + 0.5

    def test_index_bounds(self):
        model = fit(noisy_sample(n=10, seed=12), FitConfig(n_components=2))
        with pytest.raises(InputError):
            reconstruct(model, 10, 1)
        with pytest.raises(ConfigurationError):
            reconstruct(model, 0, 3)

    @pytest.mark.parametrize("subject", [1.5, "1", None, True, np.float64(1)], ids=repr)
    def test_non_integer_subject_rejected(self, subject):
        model = fit(noisy_sample(n=10, seed=12), FitConfig(n_components=2))
        with pytest.raises(InputError, match="subject index must be an integer"):
            reconstruct(model, subject, 1)

    @pytest.mark.parametrize("order", [1.5, "1", None, True, np.float64(1)], ids=repr)
    def test_non_integer_order_rejected(self, order):
        model = fit(noisy_sample(n=10, seed=12), FitConfig(n_components=2))
        with pytest.raises(ConfigurationError, match="reconstruction order"):
            reconstruct(model, 1, order)

    def test_numpy_integer_arguments_accepted(self):
        model = fit(noisy_sample(n=10, seed=12), FitConfig(n_components=2))
        plain = reconstruct(model, 3, 2)
        numpy = reconstruct(model, np.int64(3), np.int32(2))
        assert np.array_equal(plain.values, numpy.values)


SCHEMA_1_DOC = os.path.join(os.path.dirname(__file__), "data", "model_schema1.json")
# written by the schema-2 release: saved_sample() fitted with FitConfig(
# n_components=2, presmooth=True, presmooth_bandwidth=0.4, eigen_smooth=True)
SCHEMA_2_DOC = os.path.join(os.path.dirname(__file__), "data", "model_schema2.json")


def saved_sample():
    """The sample fitted for both saved documents."""
    scenario = SimulationScenario(distribution="skew_t", n_subjects=10, n_points=8, runs=1, seed=13)
    return generate(scenario, 0).sample


def schema_2_doc(**config):
    """The schema-2 document with the given config fields replaced."""
    with open(SCHEMA_2_DOC, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["config"].update(config)
    return doc


def same(a, b) -> bool:
    """Field-for-field, bit-exact equality of models and their parts, the
    comparison the cli_smooth benchmark check makes."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if dataclasses.is_dataclass(a):
        return all(same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


smoothers = st.none() | st.booleans() | st.just("auto") | st.floats(0.01, 50.0)


@st.composite
def irregular_fits(draw):
    """A sample on an irregular strictly increasing grid (N in [5, 30], d in
    [4, 20]) and a config: either method, K a count or an FVE threshold,
    each smoother off (None or False), GCV (True or "auto") or a fixed
    bandwidth."""
    n = draw(st.integers(5, 30))
    d = draw(st.integers(4, 20))
    gaps = draw(st.lists(st.floats(0.05, 2.0), min_size=d - 1, max_size=d - 1))
    points = draw(st.floats(-5.0, 5.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    values = derive_rng(draw(st.integers(0, 2**32 - 1)), 0).standard_normal((n, d))
    config = FitConfig(
        method=draw(st.sampled_from(["kfpca", "cov"])),
        n_components=draw(st.integers(1, 3) | st.floats(0.5, 0.99)),
        presmooth=draw(smoothers),
        eigen_smooth=draw(smoothers),
    )
    return FunctionalSample(Grid(points), values), config


class TestSerialization:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(drawn=irregular_fits())
    def test_json_round_trip_returns_the_saved_model(self, drawn):
        model = fit(*drawn)
        back = deserialize_model(json.loads(json.dumps(serialize_model(model))))
        assert same(back, model)

    def test_schema_3_document_keys(self):
        doc = serialize_model(fit(noisy_sample(seed=22), FitConfig(n_components=2)))
        assert doc["schema_version"] == "3"
        assert set(doc) == {
            "schema_version", "grid", "mean", "eigenvalues_operator",
            "eigenfunctions", "scores", "spectrum_remainder", "config",
        }
        assert set(doc["grid"]) == {"points"}
        assert set(doc["config"]) == {"method", "n_components", "presmooth", "eigen_smooth"}

    def test_schema_2_document_loads_to_the_same_model(self):
        doc = schema_2_doc()
        assert doc["schema_version"] == "2"
        back = load_model(SCHEMA_2_DOC)
        assert back.config == FitConfig(n_components=2, presmooth=0.4, eigen_smooth="auto")
        assert back.config.presmooth == 0.4 and back.config.eigen_smooth == "auto"
        saved = {
            "mean": back.mean.values, "eigenfunctions": back.eigenfunction_values,
            "eigenvalues_operator": back.operator_eigenvalues, "scores": back.scores,
        }
        for key, values in saved.items():
            assert values.tobytes() == np.array(doc[key], dtype=float).tobytes()
        assert back._spectrum_remainder == doc["spectrum_remainder"]
        # eigen-smoothing now smooths the kernel surface, so a re-fit keeps
        # the mean and gives other, orthonormal eigenfunctions
        refit = fit(saved_sample(), back.config)
        assert same(refit.mean, back.mean)
        phi = refit.eigenfunction_values
        gram = (phi * refit.grid.weights) @ phi.T
        assert np.abs(gram - np.eye(2)).max() <= 1e-12

    def test_schema_2_flags_off_read_as_no_smoothing(self):
        # a bandwidth beside an unset flag was never used
        doc = schema_2_doc(presmooth=False, presmooth_bandwidth=0.7,
                           eigen_smooth=False, eigen_bandwidth=2.5)
        config = deserialize_model(doc).config
        assert config.presmooth is None and config.eigen_smooth is None

    def test_schema_1_document_loads_to_the_same_model(self):
        # written by the schema-1 release: this sample fitted with
        # FitConfig(method="kfpca", n_components=2, seed=5), then save_model
        with open(SCHEMA_1_DOC, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["schema_version"] == "1" and doc["config"]["seed"] == 5
        back = load_model(SCHEMA_1_DOC)
        assert same(back, fit(saved_sample(), FitConfig(method="kfpca", n_components=2)))
        assert back.method == doc["method"]
        assert np.array_equal(back.component_variances, doc["component_variances"])

    def test_round_trip_identity(self):
        model = fit(noisy_sample(seed=20), FitConfig(method="kfpca", n_components=3))
        doc = json.loads(json.dumps(serialize_model(model)))
        back = deserialize_model(doc)
        assert back.method == model.method
        assert back.config == model.config
        assert np.array_equal(back.grid.points, model.grid.points)
        assert np.array_equal(back.mean.values, model.mean.values)
        assert np.array_equal(back.operator_eigenvalues, model.operator_eigenvalues)
        assert np.array_equal(back.component_variances, model.component_variances)
        assert np.array_equal(back.scores, model.scores)
        for ca, cb in zip(model.eigenfunctions, back.eigenfunctions):
            assert np.array_equal(ca.values, cb.values)
        assert back.fraction_variance_explained() == pytest.approx(
            model.fraction_variance_explained(), abs=0
        )

    def test_file_round_trip(self, tmp_path):
        model = fit(noisy_sample(seed=21), FitConfig(n_components=2))
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.scores, model.scores)

    def test_failed_save_keeps_old_file(self, tmp_path, monkeypatch):
        model = fit(noisy_sample(seed=21), FitConfig(n_components=2))
        path = tmp_path / "model.json"
        save_model(model, path)
        before = path.read_bytes()

        def half_serializable(m):
            # the document cannot be encoded, so nothing may be written
            return {"scores": [1.0, 2.0, object()]}

        monkeypatch.setattr(kfpca.model, "serialize_model", half_serializable)
        with pytest.raises(TypeError):
            save_model(model, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.json"]

    def test_saved_bytes_are_one_json_line(self, tmp_path):
        model = fit(noisy_sample(seed=21), FitConfig(n_components=2))
        path = tmp_path / "model.json"
        save_model(model, path)
        assert path.read_bytes() == (json.dumps(serialize_model(model)) + "\n").encode()

    @pytest.mark.parametrize(
        "field, value, path",
        [
            ("grid", 5, "grid"),
            ("eigenfunctions", 3, "eigenfunctions"),
            ("config", None, "config"),
            # the model's method is its config's
            ("config.method", "pca", "config"),
            ("grid.points", "abc", "grid"),
            ("spectrum_remainder", "x", "spectrum_remainder"),
            ("mean", None, "mean"),
            ("eigenvalues_operator", [1.0, 2.0], ""),
            ("scores", [[float("nan"), 0.0]], ""),
            # one subject leaves the score variances undefined
            ("scores", [[1.0, 0.0]], ""),
        ],
    )
    def test_malformed_field_raises_parse_error(self, field, value, path):
        model = fit(noisy_sample(seed=22), FitConfig(n_components=2))
        doc = serialize_model(model)
        *parents, leaf = field.split(".")
        target = doc
        for name in parents:
            target = target[name]
        target[leaf] = value
        with pytest.raises(ParseError) as err:
            deserialize_model(doc)
        assert err.value.path == path

    @pytest.mark.parametrize(
        "malform",
        [
            lambda rows: 3.0,
            lambda rows: rows[0],
            lambda rows: [rows[0], rows[1][:-1]],
            lambda rows: [row + [0.0] for row in rows],
            lambda rows: [rows[0], [float("nan")] + rows[1][1:]],
            lambda rows: "abc",
        ],
        ids=["scalar", "one-dimensional", "ragged", "wrong-width", "nan", "string"],
    )
    def test_malformed_eigenfunctions_raise_parse_error(self, malform):
        doc = serialize_model(fit(noisy_sample(seed=22), FitConfig(n_components=2)))
        doc["eigenfunctions"] = malform(doc["eigenfunctions"])
        with pytest.raises(ParseError) as err:
            deserialize_model(doc)
        assert err.value.path == "eigenfunctions"

    def test_model_without_components_rejected(self):
        # fit keeps K >= 1, so no saved model has an empty eigenfunction array
        model = fit(noisy_sample(seed=22), FitConfig(n_components=2))
        with pytest.raises(DimensionError):
            FpcaModel(model.mean, np.empty((0, 51)), [], np.empty((60, 0)), model.config)

    @pytest.mark.parametrize(
        "change, error, message",
        [
            (lambda a: {**a, "ev": a["ev"][:1]}, DimensionError, "need 2 operator eigenvalues"),
            (lambda a: {**a, "scores": a["scores"][:, :1]}, DimensionError,
             "scores must be an N x 2 matrix with N >= 2"),
            (lambda a: {**a, "scores": a["scores"][:1]}, DimensionError,
             "scores must be an N x 2 matrix with N >= 2"),
            (lambda a: {**a, "ev": a["ev"][::-1]}, InputError,
             "operator eigenvalues must be non-increasing"),
            (lambda a: {**a, "ev": np.array([np.nan, 1.0])}, InputError,
             "eigenvalues and scores must be finite"),
            (lambda a: {**a, "ev": np.array([1.0, np.inf])}, InputError,
             "operator eigenvalues must be non-increasing"),
            (lambda a: {**a, "ev": np.array([np.inf, 1.0])}, InputError,
             "eigenvalues and scores must be finite"),
            (lambda a: {**a, "scores": np.where(a["scores"] > 0, a["scores"], -np.inf)},
             InputError, "eigenvalues and scores must be finite"),
            (lambda a: {**a, "phi": np.where(a["phi"] > 0, a["phi"], np.nan)}, InputError,
             "eigenfunction values must be finite"),
        ],
        ids=["eigenvalue-count", "score-width", "one-subject", "increasing", "nan-eigenvalue",
             "inf-last-eigenvalue", "inf-first-eigenvalue", "inf-score", "nan-eigenfunction"],
    )
    def test_constructor_refusals(self, change, error, message):
        model = fit(noisy_sample(seed=22), FitConfig(n_components=2))
        parts = change({"phi": np.array(model.eigenfunction_values),
                        "ev": np.array(model.operator_eigenvalues),
                        "scores": np.array(model.scores)})
        with pytest.raises(error, match=f"^{message}$"):
            FpcaModel(model.mean, parts["phi"], parts["ev"], parts["scores"], model.config)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_components", 2.5),
            ("n_components", 2.0),
            ("presmooth", "false"),
            ("eigen_smooth", 1),
            ("presmooth_bandwidth", -1.0),
            ("eigen_bandwidth", "bogus"),
            ("degenerate_tol", "1e-12"),
        ],
    )
    def test_saved_config_is_not_coerced(self, field, value):
        # a saved n_components of 2.5 used to read back as 2, and a saved
        # "false" flag as True
        with pytest.raises(ParseError) as err:
            deserialize_model(schema_2_doc(**{field: value}))
        assert err.value.path == "config"

    @pytest.mark.parametrize(
        "field, value",
        [("n_components", 2.5), ("presmooth", "false"), ("presmooth", 0),
         ("eigen_smooth", -1.0), ("eigen_smooth", "bogus")],
    )
    def test_saved_schema_3_config_is_not_coerced(self, field, value):
        doc = serialize_model(fit(noisy_sample(seed=22), FitConfig(n_components=2)))
        doc["config"][field] = value
        with pytest.raises(ParseError) as err:
            deserialize_model(json.loads(json.dumps(doc)))
        assert err.value.path == "config"

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("field", ["presmooth", "eigen_smooth"])
    def test_schema_3_smoother_is_never_a_bool(self, field, value):
        # save_model writes null, "auto" or a number; a JSON true used to
        # load as "auto" and false as off
        doc = serialize_model(fit(noisy_sample(seed=22), FitConfig(n_components=2)))
        doc["config"][field] = value
        with pytest.raises(ParseError, match=f"config: {field} must be") as err:
            deserialize_model(json.loads(json.dumps(doc)))
        assert err.value.path == "config"

    @pytest.mark.parametrize(
        "config",
        [
            FitConfig(n_components=2),
            FitConfig(n_components=0.95),
            FitConfig(n_components=2, presmooth=0.4, eigen_smooth=True),
            FitConfig(n_components=0.9, presmooth="auto", eigen_smooth=1.5),
        ],
    )
    def test_saved_config_round_trips(self, config):
        doc = serialize_model(fit(noisy_sample(seed=23), config))
        back = deserialize_model(json.loads(json.dumps(doc))).config
        assert back == config
        assert type(back.n_components) is type(config.n_components)

    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")

        def half_written(fh):
            fh.write("new")
            raise OSError("disk full")

        with pytest.raises(OSError):
            atomic_write(path, half_written)
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_missing_field_named(self):
        model = fit(noisy_sample(seed=22), FitConfig(n_components=2))
        doc = serialize_model(model)
        del doc["eigenfunctions"]
        with pytest.raises(ParseError) as err:
            deserialize_model(doc)
        assert "eigenfunctions" in str(err.value)
        assert err.value.path == "eigenfunctions"

    def test_grid_length_mismatch_rejected(self):
        model = fit(noisy_sample(seed=23), FitConfig(n_components=2))
        doc = serialize_model(model)
        doc["mean"] = doc["mean"][:-1]
        with pytest.raises(ParseError) as err:
            deserialize_model(doc)
        assert err.value.path == "mean"

    def test_eigenfunction_length_mismatch_rejected(self):
        model = fit(noisy_sample(seed=24), FitConfig(n_components=2))
        doc = serialize_model(model)
        doc["eigenfunctions"][0] = doc["eigenfunctions"][0] + [0.0]
        with pytest.raises(ParseError):
            deserialize_model(doc)

    def test_bad_schema_version_rejected(self):
        model = fit(noisy_sample(seed=25), FitConfig(n_components=2))
        doc = serialize_model(model)
        doc["schema_version"] = "99"
        with pytest.raises(ParseError):
            deserialize_model(doc)

    @pytest.mark.parametrize(
        "content", [b'{"a": "\xff"}', b'{"a": '], ids=["not-utf8", "truncated"]
    )
    def test_unreadable_file_raises_parse_error(self, tmp_path, content):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        with pytest.raises(ParseError) as err:
            load_model(path)
        assert str(path) in str(err.value)

    def test_non_numeric_scores_rejected(self):
        model = fit(noisy_sample(seed=26), FitConfig(n_components=2))
        doc = serialize_model(model)
        doc["scores"] = "bogus"
        with pytest.raises(ParseError):
            deserialize_model(doc)


def _writable_memory(array: np.ndarray) -> bool:
    """Whether ``array`` or an array it views can be written through."""
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return True
        array = array.base
    return False


class TestFitMemory:
    @pytest.mark.parametrize("n", [2000, 4000])
    def test_working_memory_does_not_grow_with_n(self, n):
        sample = generate(
            SimulationScenario(distribution="skew_t", n_subjects=n, n_points=101, seed=84), 0
        ).sample
        tracemalloc.start()
        try:
            model = fit(sample, FitConfig(method="kfpca", n_components=0.95))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # beyond the N x K scores the fit keeps, only the pair sum's
        # tile-sized arrays: no N x d centered copy (0.8 or 1.6 MB here)
        # and no second copy of the scores
        budget = 3 * kfpca.estimators._PAIR_TILE**2 * 8
        assert peak - model.scores.nbytes < budget
        assert model.scores.nbytes > budget / 4

    @pytest.mark.parametrize("presmooth", [False, True])
    @pytest.mark.parametrize("method", ["kfpca", "cov"])
    def test_a_fitted_model_holds_no_writable_array(self, method, presmooth):
        sample = generate(SimulationScenario(n_subjects=30, seed=85), 0).sample
        model = fit(sample, FitConfig(method=method, n_components=3, presmooth=presmooth))
        arrays = (
            model.mean.values,
            model.grid.points,
            model.grid.weights,
            model.eigenfunction_values,
            model.operator_eigenvalues,
            model.scores,
        )
        assert not any(map(_writable_memory, arrays))
