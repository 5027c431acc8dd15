import copy
import pickle
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, note, settings
from hypothesis import strategies as st

import kfpca.core
from kfpca.core import (
    _DenseSmoothers,
    _ProfileSmoothers,
    _frozen_array,
    _smoother,
    _weighted_dots,
    gcv_bandwidth_candidates,
    smooth_rows,
)
from kfpca.simgen import CASES, DISTRIBUTIONS
from kfpca.core import GCV_CANDIDATE_COUNT
from kfpca import (
    ConfigurationError,
    Curve,
    DimensionError,
    EstimationError,
    FitConfig,
    FunctionalSample,
    Grid,
    InputError,
    SimulationScenario,
    derive_rng,
    fit,
    generate,
    inner_product,
    make_regular_grid,
    true_eigenfunctions,
)
from smoother_oracle import (
    gcv_fit,
    longdouble_local_linear_matrix,
    numerator_local_linear_matrix,
)


def fine_quadrature(fn, a=0.0, b=10.0, d=20001):
    """Brute-force trapezoid integral on a very fine grid (oracle)."""
    t = np.linspace(a, b, d)
    return np.trapezoid(fn(t), t)


def local_linear_matrix(points, bandwidth):
    """The library's dense smoother matrix, which any grid can take."""
    smoothers = _DenseSmoothers(Grid(points), [bandwidth])
    return smoothers.matrix(*smoothers.weights(0))


def profile_local_linear_matrix(points, bandwidth):
    """The library's profile smoother matrix, for equally spaced points."""
    smoothers = _ProfileSmoothers(Grid(points), [bandwidth])
    return smoothers.matrix(*smoothers.weights(0))


def library_local_linear_matrix(points, bandwidth):
    """The smoother matrix of the builder the library picks for the grid."""
    return _smoother(Grid(points), bandwidth)


def smooth_reference(grid, y, bandwidth):
    """Per-curve matrix-vector smoother: the first GCV minimizer wins."""
    if bandwidth != "auto":
        return library_local_linear_matrix(grid.points, bandwidth) @ y
    best, best_score = None, np.inf
    for cand in gcv_bandwidth_candidates(grid):
        s = library_local_linear_matrix(grid.points, cand)
        resid = y - s @ y
        df = y.size - np.trace(s)
        score = y.size * (resid @ resid) / df**2 if df >= 1e-8 else np.inf
        if score < best_score:
            best, best_score = s @ y, score
    return best


class TestMakeRegularGrid:
    def test_three_point_unit_interval(self):
        g = make_regular_grid(0, 1, 3)
        assert np.allclose(g.points, [0, 0.5, 1])
        assert np.allclose(g.weights, [0.25, 0.5, 0.25])

    def test_weight_sum_is_interval_length(self):
        g = make_regular_grid(0, 10, 51)
        assert g.size == 51
        assert g.weights.sum() == pytest.approx(10.0, abs=1e-12)

    def test_two_point_grid(self):
        g = make_regular_grid(0, 10, 2)
        assert np.allclose(g.points, [0, 10])
        assert np.allclose(g.weights, [5, 5])

    @pytest.mark.parametrize("a,b,d", [(1, 1, 5), (2, 1, 5), (0, 1, 1), (0, 1, 0)])
    def test_invalid_parameters(self, a, b, d):
        with pytest.raises(ConfigurationError):
            make_regular_grid(a, b, d)

    def test_weights_positive(self):
        g = Grid([0.0, 0.1, 1.0, 5.0])
        assert np.all(g.weights > 0)
        assert g.weights.sum() == pytest.approx(5.0)

    def test_non_increasing_points_rejected(self):
        with pytest.raises(ConfigurationError):
            Grid([0.0, 1.0, 1.0])
        with pytest.raises(ConfigurationError):
            Grid([0.0, 2.0, 1.0])

    def test_weights_are_derived_from_the_points(self):
        g = Grid([0.0, 0.1, 1.0, 5.0])
        assert np.array_equal(g.weights, [0.05, 0.5, 2.45, 2.0])
        assert not g.weights.flags.writeable
        with pytest.raises(TypeError):
            Grid([0.0, 1.0], [0.5, 0.5])

    def test_weight_rounded_to_zero_rejected(self):
        # the points increase, but half the subnormal gap rounds to zero
        with pytest.raises(ConfigurationError, match="weights must be positive"):
            Grid([0.0, 5e-324])


class TestGridConstants:
    """The per-grid constants every kernel on a grid reads."""

    def test_built_once_and_read_only(self):
        g = Grid([0.0, 0.1, 1.0, 5.0, 5.5])
        sqrt_w, (iblock, isplit) = g.sqrt_weights, g._one_block
        assert np.array_equal(sqrt_w, np.sqrt(g.weights))
        assert np.array_equal(iblock, np.ones(5)) and np.array_equal(isplit, np.full(5, 5))
        assert iblock.dtype == isplit.dtype == np.int32
        assert g._dsytrd_lwork == int(scipy.linalg.lapack.dsytrd_lwork(5, lower=1)[0])
        for value in (sqrt_w, iblock, isplit):
            assert not value.flags.writeable
        assert g.sqrt_weights is sqrt_w and g._one_block[0] is iblock

    def test_kernels_on_one_grid_query_the_workspace_once(self, monkeypatch):
        query = scipy.linalg.lapack.dsytrd_lwork
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return query(*args, **kwargs)

        monkeypatch.setattr(kfpca.core.lapack, "dsytrd_lwork", counting)
        sample = generate(SimulationScenario(n_subjects=20, runs=2), 0).sample
        for run in range(2):
            fit(sample, FitConfig(method="cov", n_components=2))
            fit(sample, FitConfig(n_components=2))
        assert calls == [(sample.grid.size,)]

    def test_a_failed_workspace_query_raises(self, monkeypatch):
        monkeypatch.setattr(kfpca.core.lapack, "dsytrd_lwork", lambda d, lower: (1.0, -1))
        with pytest.raises(EstimationError, match=r"LAPACK dsytrd_lwork failed \(info -1\)"):
            make_regular_grid(0, 1, 4)._dsytrd_lwork

    @pytest.mark.parametrize("clone", [lambda g: pickle.loads(pickle.dumps(g)), copy.copy],
                             ids=["pickle", "copy"])
    def test_a_copied_grid_builds_its_own(self, clone):
        g = make_regular_grid(0, 1, 6)
        g.sqrt_weights, g._one_block, g._dsytrd_lwork
        c = clone(g)
        assert set(vars(c)) == {"points", "weights", "regular"}
        assert c.matches(g) and c.regular
        assert np.array_equal(c.sqrt_weights, g.sqrt_weights)
        assert c.sqrt_weights is not g.sqrt_weights and not c.sqrt_weights.flags.writeable


class TestInnerProduct:
    def test_constant_one(self):
        g = make_regular_grid(0, 10, 51)
        one = Curve(g, np.ones(51))
        assert inner_product(one, one) == pytest.approx(10.0, abs=1e-12)

    def test_linear_times_constant_exact(self):
        g = make_regular_grid(0, 1, 3)
        f = Curve(g, g.points.copy())
        one = Curve(g, np.ones(3))
        assert inner_product(f, one) == pytest.approx(0.5, abs=1e-15)

    def test_case1_orthogonality_with_fine_grid_oracle(self):
        g = make_regular_grid(0, 10, 51)
        phi1, phi2 = true_eigenfunctions(1, g)
        coarse = inner_product(phi1, phi2)
        oracle = fine_quadrature(
            lambda t: np.cos(np.pi * t / 10) * np.sin(np.pi * t / 10) / 5.0
        )
        assert abs(oracle) < 1e-10
        assert abs(coarse) < 1e-6

    def test_grid_mismatch(self):
        f = Curve(make_regular_grid(0, 1, 5), np.ones(5))
        g = Curve(make_regular_grid(0, 1, 6), np.ones(6))
        with pytest.raises(DimensionError):
            inner_product(f, g)

    def test_bilinearity(self):
        g = make_regular_grid(0, 10, 31)
        rng = derive_rng(123, 0)
        f = Curve(g, rng.standard_normal(31))
        h = Curve(g, rng.standard_normal(31))
        k = Curve(g, rng.standard_normal(31))
        a, b = 2.5, -1.75
        lhs = inner_product(Curve(g, a * f.values + b * h.values), k)
        rhs = a * inner_product(f, k) + b * inner_product(h, k)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_exact_for_piecewise_linear_products(self):
        # quadrature equals the segment-by-segment trapezoid sum
        pts = np.array([0.0, 0.3, 1.1, 2.0, 4.0])
        g = Grid(pts)
        rng = derive_rng(7, 0)
        fv = rng.standard_normal(5)
        gv = rng.standard_normal(5)
        prod = fv * gv
        segments = 0.5 * (prod[1:] + prod[:-1]) * np.diff(pts)
        assert inner_product(Curve(g, fv), Curve(g, gv)) == pytest.approx(
            segments.sum(), rel=1e-14
        )


class TestWeightedDots:
    @pytest.mark.parametrize("d", [2, 11, 51, 101, 401])
    def test_each_row_rounds_as_its_own_dot(self, d):
        rng = derive_rng(31, d)
        w = rng.random(d)
        rows = rng.standard_normal((7, d))
        got = _weighted_dots(rows, w)
        assert got.shape == (7,)
        for k in range(7):
            assert got[k] == w @ rows[k]


class TestSqNorm:
    def test_zero_curve(self):
        g = make_regular_grid(0, 10, 51)
        zero = Curve(g, np.zeros(51))
        assert inner_product(zero, zero) == 0.0

    def test_case1_unit_norm_with_oracle(self):
        g = make_regular_grid(0, 10, 51)
        phi1, _ = true_eigenfunctions(1, g)
        oracle = fine_quadrature(lambda t: np.cos(np.pi * t / 10) ** 2 / 5.0)
        assert oracle == pytest.approx(1.0, abs=1e-10)
        assert inner_product(phi1, phi1) == pytest.approx(1.0, abs=1e-4)

    def test_constant_two(self):
        g = make_regular_grid(0, 10, 51)
        two = Curve(g, np.full(51, 2.0))
        assert inner_product(two, two) == pytest.approx(40.0, abs=1e-10)


def gcv_peak(grid) -> int:
    """The tracemalloc peak of a GCV smooth of 1000 rows on ``grid``."""
    values = np.vstack([noisy_rows(grid, 8)] * 25)
    tracemalloc.start()
    try:
        smooth_rows(grid, values, "auto")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def gcv_bound(grid, squares: int) -> int:
    """The result, one row block's fits and residuals, ``squares`` d x d
    arrays and 64 KiB, in bytes, for 1000 rows on ``grid``."""
    block = kfpca.core._PAIR_TILE * grid.size * 8
    return 1000 * grid.size * 8 + 2 * block + squares * grid.size**2 * 8 + 2**16


class TestSmoothCurve:
    @pytest.mark.parametrize("bandwidth", [0.3, 1.0, 5.0, "auto"])
    def test_reproduces_linear_exactly(self, bandwidth):
        g = make_regular_grid(0, 10, 41)
        f = 2.0 * g.points - 3.0
        out = smooth_rows(g, f[None, :], bandwidth)[0]
        assert np.allclose(out, f, atol=1e-9)

    def test_reproduces_constant(self):
        g = make_regular_grid(0, 10, 41)
        f = np.full(41, 4.2)
        assert np.allclose(smooth_rows(g, f[None, :], "auto")[0], f, atol=1e-10)

    def test_idempotent_on_linear(self):
        g = make_regular_grid(0, 10, 41)
        f = 1.5 * g.points
        once = smooth_rows(g, f[None, :], 2.0)[0]
        twice = smooth_rows(g, once[None, :], 2.0)[0]
        assert np.allclose(once, twice, atol=1e-9)

    def test_auto_bandwidth_reduces_noise(self):
        g = make_regular_grid(0, 10, 51)
        truth = np.sin(g.points)
        rng = derive_rng(42, 0)
        noise = 0.1 * rng.standard_normal(51)
        smoothed = smooth_rows(g, (truth + noise)[None, :], "auto")[0]
        rmse_out = np.sqrt(np.mean((smoothed - truth) ** 2))
        rmse_in = np.sqrt(np.mean(noise**2))
        assert rmse_out < rmse_in

    @pytest.mark.parametrize("bandwidth", [0.7, "auto"])
    def test_stack_matches_each_row_alone(self, bandwidth):
        # rows from smooth to rough pick different GCV bandwidths, so a score
        # pooled across rows would move at least one of them
        g = make_regular_grid(0, 10, 51)
        rng = derive_rng(7, 0)
        rows = np.stack(
            [
                np.sin(g.points),
                np.sin(g.points) + 0.05 * rng.standard_normal(51),
                np.sin(3.0 * g.points) + 0.5 * rng.standard_normal(51),
                rng.standard_normal(51),
                2.0 * g.points - 3.0,
            ]
        )
        stacked = smooth_rows(g, rows, bandwidth)
        for i, row in enumerate(rows):
            alone = smooth_rows(g, row[None, :], bandwidth)[0]
            assert np.abs(stacked[i] - alone).max() <= 1e-12
            assert np.abs(stacked[i] - smooth_reference(g, row, bandwidth)).max() <= 1e-12

    def test_overflowing_gcv_scores_raise(self):
        # finite values whose squared residuals overflow to inf for every candidate
        g = make_regular_grid(0, 10, 21)
        rows = 1e200 * derive_rng(3, 0).standard_normal((2, 21))
        with pytest.raises(EstimationError):
            smooth_rows(g, rows)

    @pytest.mark.parametrize("n", [6, 7, 8, 15, 40])
    def test_row_blocks_match_one_block(self, monkeypatch, n):
        # blocks of 7 rows put rows on, beside and across block edges; up
        # to 7 rows are one block, bit for bit the unblocked smooth, and
        # more may round differently in BLAS (a one-row block is a
        # matrix-vector product): two summation orders of a d-term dot
        # product differ by at most about d ulps of its terms
        g = make_regular_grid(0, 10, 51)
        rows = noisy_rows(g, 100 + n)[:n]
        whole = smooth_rows(g, rows, "auto")
        monkeypatch.setattr(kfpca.core, "_PAIR_TILE", 7)
        blocked = smooth_rows(g, rows, "auto")
        if n <= 7:
            assert np.array_equal(blocked, whole)
        else:
            gap = np.abs(blocked - whole).max()
            assert gap <= g.size * np.finfo(float).eps * np.abs(rows).max()
        assert np.array_equal(gcv_fit(library_local_linear_matrix, g, rows)[0], whole)

    def test_gcv_holds_one_row_block_beside_its_result(self):
        g = make_regular_grid(0, 10, 51)
        # the result, the fits and residuals of one block, the one d x d
        # smoother, and 64 KiB for the best scores, the candidates'
        # profiles and small temporaries: a second or third N x d array
        # (408 KB) does not fit
        assert gcv_peak(g) <= gcv_bound(g, 1)

    def test_gcv_on_an_irregular_grid_holds_three_d_by_d_arrays(self):
        # the dense builder adds the grid differences and a work array
        g = Grid(np.sort(derive_rng(12, 0).uniform(0, 10, 51)))
        assert not g.regular
        assert gcv_peak(g) <= gcv_bound(g, 3)

    def test_a_dense_smoother_allocates_no_ufunc_buffers(self):
        # a jittered grid takes the dense builder, whose broadcast passes
        # would each allocate numpy's default 64 KiB ufunc buffer, more
        # than a d x d array at d = 101
        points = np.linspace(0, 10, 101)
        points[1:-1] += derive_rng(13, 0).uniform(-0.02, 0.02, 99)
        g = Grid(points)
        assert not g.regular
        tracemalloc.start()
        try:
            _smoother(g, 0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the grid differences, the smoother, its work space and length-d
        # vectors
        assert peak <= 3 * g.size**2 * 8 + 16 * 1024

    # True used to smooth with bandwidth 1.0
    @pytest.mark.parametrize(
        "bandwidth",
        [0.0, -1.0, "bogus", True, np.bool_(True), float("nan"), None, float("inf"), np.inf],
    )
    def test_invalid_bandwidth(self, bandwidth):
        g = make_regular_grid(0, 10, 11)
        with pytest.raises(ConfigurationError, match="bandwidth must be positive"):
            smooth_rows(g, np.zeros((1, 11)), bandwidth)


def unflushed_local_linear_matrix(points, bandwidth):
    """The library's closed form with a plain exp and no flush, so that its
    subnormal weights are kept."""
    dt = points[None, :] - points[:, None]
    k = np.exp((dt / bandwidth) ** 2 * -0.5)
    s0 = k.sum(axis=1)
    kdt = k * dt
    s1 = kdt.sum(axis=1)
    s2 = np.einsum("ij,ij->i", kdt, dt)
    denom = s0 * s2 - s1 * s1
    bad = denom <= np.finfo(float).tiny * np.maximum(s0 * s2, 1.0)
    denom = np.where(bad, s0, denom)
    a = np.where(bad, 1.0, s2) / denom
    b = np.where(bad, 0.0, s1) / denom
    return a[:, None] * k - b[:, None] * kdt


def unflushed_profile_local_linear_matrix(points, bandwidth):
    """The library's profile form (``_ProfileSmoothers``) with a plain exp
    and no floor, so that its subnormal weights are kept."""
    d = len(points)
    offsets = np.arange(1 - d, d) * ((points[-1] - points[0]) / (d - 1))
    u = offsets[d - 1 :]
    g = np.exp((u / bandwidth) ** 2 * -0.5)
    prefix = np.cumsum(g, dtype=np.longdouble)
    s0 = (prefix + prefix[::-1] - 1.0).astype(float)
    prefix = np.cumsum(g * u, dtype=np.longdouble)
    s1 = (prefix[::-1] - prefix).astype(float)
    prefix = np.cumsum(g * u * u, dtype=np.longdouble)
    s2 = (prefix + prefix[::-1]).astype(float)
    denom = s0 * s2 - s1 * s1
    bad = denom <= np.finfo(float).tiny * np.maximum(s0 * s2, 1.0)
    denom = np.where(bad, s0, denom)
    a = np.where(bad, 1.0, s2) / denom
    b = np.where(bad, 0.0, s1) / denom
    # entry (i, j) reads offset and profile m = j - i, at index d - 1 + m
    m = d - 1 + np.arange(d)[None, :] - np.arange(d)[:, None]
    profile = np.concatenate((g[:0:-1], g))
    return (a[:, None] - b[:, None] * offsets[m]) * profile[m]


def count_subnormal(s) -> int:
    return np.count_nonzero((s != 0) & (np.abs(s) < np.finfo(float).tiny))


SMOOTHER_GRIDS = [make_regular_grid(0, 10, d) for d in (11, 51, 101, 401)] + [
    Grid(np.sort(derive_rng(11, 0).uniform(0, 10, 60)))
]


def noisy_rows(grid, seed):
    """40 rows on ``grid``, smooth to rough, so GCV picks several bandwidths."""
    rng = derive_rng(seed, 0)
    values = np.sin(grid.points) + 0.3 * rng.standard_normal((40, grid.size))
    values[::4] = rng.standard_normal((10, grid.size))
    return values


def paper_rows(case, distribution):
    """What a fit with both smoothers smooths on paper data: the curves of
    one run, then the K=2 eigenfunctions of their unsmoothed fit."""
    sample = generate(SimulationScenario(case=case, distribution=distribution), 0).sample
    phi = fit(sample, FitConfig(n_components=2)).eigenfunction_values
    return sample.grid, np.vstack([sample.values, phi])


class TestLocalLinearMatrix:
    @pytest.mark.parametrize("grid", SMOOTHER_GRIDS, ids=lambda g: f"d{g.size}")
    def test_unflushed_closed_form_with_subnormal_weights_zeroed(self, grid):
        floor = np.log(2.0**54 * grid.size * np.finfo(float).tiny)
        dt = grid.points[None, :] - grid.points[:, None]
        line = 2.0 * grid.points - 3.0
        for cand in list(gcv_bandwidth_candidates(grid)) + [0.01, 1.0]:
            full = unflushed_local_linear_matrix(grid.points, cand)
            # weights below the floor 2^54 d tiny are dropped before exp
            kept = (dt / cand) ** 2 * -0.5 >= floor
            s = local_linear_matrix(grid.points, cand)
            assert np.array_equal(s[kept], full[kept])
            assert np.all(s[~kept] == 0.0)
            assert count_subnormal(s) == 0
            assert np.allclose(s.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            assert np.allclose(s @ line, line, rtol=0, atol=1e-9)

    def test_trace_is_returned_with_the_matrix(self):
        # GCV reads tr(S) as sum(a), whichever builder the grid takes
        for grid in (SMOOTHER_GRIDS[-1], SMOOTHER_GRIDS[1]):
            smoothers = kfpca.core._smoothers(grid, gcv_bandwidth_candidates(grid))
            for i in range(GCV_CANDIDATE_COUNT):
                a, b = smoothers.weights(i)
                assert float(a.sum()) == np.trace(smoothers.matrix(a, b))

    def test_gcv_fit_matches_the_unflushed_loop_bit_for_bit(self):
        # the dense builder, on an irregular grid
        grid = Grid(np.sort(derive_rng(13, 0).uniform(0, 10, 101)))
        assert not grid.regular
        values = noisy_rows(grid, 2024)
        subnormal = sum(
            count_subnormal(unflushed_local_linear_matrix(grid.points, cand))
            for cand in gcv_bandwidth_candidates(grid)
        )
        assert subnormal > 0
        out, _ = gcv_fit(unflushed_local_linear_matrix, grid, values)
        assert np.array_equal(smooth_rows(grid, values, "auto"), out)

    def test_profile_gcv_fit_matches_the_unflushed_profile_loop_bit_for_bit(self):
        grid = make_regular_grid(0, 10, 101)
        assert grid.regular
        values = noisy_rows(grid, 2024)
        subnormal = sum(
            count_subnormal(unflushed_profile_local_linear_matrix(grid.points, cand))
            for cand in gcv_bandwidth_candidates(grid)
        )
        assert subnormal > 0
        out, _ = gcv_fit(unflushed_profile_local_linear_matrix, grid, values)
        assert np.array_equal(smooth_rows(grid, values, "auto"), out)

    @pytest.mark.parametrize(
        "grid, values",
        [(g, noisy_rows(g, 2024)) for g in SMOOTHER_GRIDS]
        + [paper_rows(c, dist) for c in CASES for dist in DISTRIBUTIONS],
        ids=[f"d{g.size}" for g in SMOOTHER_GRIDS]
        + [f"case{c}-{dist}" for c in CASES for dist in DISTRIBUTIONS],
    )
    def test_same_gcv_picks_and_fits_as_the_numerator_form(self, grid, values):
        _, picks = gcv_fit(library_local_linear_matrix, grid, values)
        reference, reference_picks = gcv_fit(numerator_local_linear_matrix, grid, values)
        assert np.array_equal(picks, reference_picks)
        gap = np.abs(smooth_rows(grid, values, "auto") - reference).max(axis=1)
        assert np.all(gap <= 1e-14 * np.abs(reference).max(axis=1))


@st.composite
def grids_and_bandwidths(draw):
    """An irregular sorted grid of 5 to 200 points (neighbour gaps within a
    factor 10 of each other, any scale, offset up to 1e6) and bandwidths from
    its GCV range: the 20 candidates, whose small ones leave weights that
    underflow once d >= 20, and one drawn between the end points."""
    d = draw(st.integers(5, 200))
    gaps = draw(st.lists(st.floats(0.1, 1.0), min_size=d - 1, max_size=d - 1))
    scale = 10.0 ** draw(st.integers(-3, 3))
    offset = draw(st.sampled_from([0.0, 1.0, -7.5, 1e3, 1e6, -1e6]))
    grid = Grid(offset + scale * np.concatenate([[0.0], np.cumsum(gaps)]))
    cands = gcv_bandwidth_candidates(grid)
    share = draw(st.floats(0.0, 1.0))
    return grid, [*cands, float(cands[0] * (cands[-1] / cands[0]) ** share)]


class TestLocalLinearAccuracy:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(grid_and_bandwidths=grids_and_bandwidths())
    def test_against_an_extended_precision_oracle(self, grid_and_bandwidths):
        # The distance is pooled over the bandwidths: one matrix's rounding
        # error is set by a few row sums, so the ratio of two single-matrix
        # distances scatters past 2 on small grids for either form.
        grid, bandwidths = grid_and_bandwidths
        pts = grid.points
        line = 2.0 * pts - 3.0
        distance = reference = 0.0
        for bandwidth in bandwidths:
            s = local_linear_matrix(pts, bandwidth)
            oracle = longdouble_local_linear_matrix(pts, bandwidth)
            distance += np.sum((s - oracle) ** 2)
            reference += np.sum((numerator_local_linear_matrix(pts, bandwidth) - oracle) ** 2)
            assert np.abs(s.sum(axis=1) - 1.0).max() <= 1e-12
            assert np.abs(s @ line - line).max() <= 1e-9 * np.abs(line).max()
            assert count_subnormal(s) == 0
        note(f"d={grid.size} distance {float(np.sqrt(distance)):.3e} "
             f"reference {float(np.sqrt(reference)):.3e}")
        assert np.sqrt(distance) <= 2 * np.sqrt(reference)


@st.composite
def regular_grids_and_bandwidths(draw):
    """An equally spaced grid of 4 to 500 points over a span from 1e-3 to
    1e3, from 0, -span/2 or span, and bandwidths from its GCV range: the
    20 candidates and one drawn between the end points."""
    d = draw(st.integers(4, 500))
    span = 10.0 ** draw(st.floats(-3.0, 3.0))
    start = draw(st.sampled_from([0.0, -0.5, 1.0])) * span
    grid = Grid(np.linspace(start, start + span, d))
    cands = gcv_bandwidth_candidates(grid)
    share = draw(st.floats(0.0, 1.0))
    return grid, [*cands, float(cands[0] * (cands[-1] / cands[0]) ** share)]


# the profile smoother's greatest distance from the dense one, in eps d of
# the largest entry: 1.73 was the most over 300 random equally spaced grids
PROFILE_TOLERANCE = 4.0


class TestProfileSmoother:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(grid_and_bandwidths=regular_grids_and_bandwidths())
    def test_matches_the_dense_builder(self, grid_and_bandwidths):
        grid, bandwidths = grid_and_bandwidths
        assert grid.regular
        pts = grid.points
        line = 2.0 * pts - 3.0
        eps = np.finfo(float).eps
        for bandwidth in bandwidths:
            s = profile_local_linear_matrix(pts, bandwidth)
            dense = local_linear_matrix(pts, bandwidth)
            gap = np.abs(s - dense).max()
            assert gap <= PROFILE_TOLERANCE * eps * grid.size * np.abs(dense).max()
            assert count_subnormal(s) == 0
            assert np.abs(s.sum(axis=1) - 1.0).max() <= 1e-12
            assert np.abs(s @ line - line).max() <= 1e-9 * np.abs(line).max()

    # the oracle takes about 0.2 s a bandwidth at d = 500
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(grid_and_bandwidths=regular_grids_and_bandwidths())
    def test_against_an_extended_precision_oracle(self, grid_and_bandwidths):
        # Each builder against the exact smoother of the differences it
        # smooths on, pooled over the bandwidths as in
        # TestLocalLinearAccuracy: the dense one on the points', the
        # profile one on the multiples m spacing (exact in longdouble for
        # m < 2^11).  The two exact smoothers differ by the points'
        # rounding, eps |t| a point, which the dense-builder tolerance
        # above bounds.
        grid, bandwidths = grid_and_bandwidths
        pts = grid.points
        equal = pts[0] + np.arange(grid.size, dtype=np.longdouble) * np.longdouble(grid.spacing)
        distance = reference = 0.0
        for bandwidth in bandwidths:
            oracle = longdouble_local_linear_matrix(equal, bandwidth)
            distance += np.sum((profile_local_linear_matrix(pts, bandwidth) - oracle) ** 2)
            oracle = longdouble_local_linear_matrix(pts, bandwidth)
            reference += np.sum((local_linear_matrix(pts, bandwidth) - oracle) ** 2)
        note(f"d={grid.size} distance {float(np.sqrt(distance)):.3e} "
             f"dense {float(np.sqrt(reference)):.3e}")
        assert np.sqrt(distance) <= 2 * np.sqrt(reference)

    @pytest.mark.parametrize("d", [4, 51, 101, 401])
    def test_fit_without_a_matrix_is_the_matrix_times_the_row(self, d):
        # the eigen-smoothing scan's correlations against S y
        grid = make_regular_grid(0, 10, d)
        y = noisy_rows(grid, 2026)[1]
        smoothers = _ProfileSmoothers(grid, gcv_bandwidth_candidates(grid))
        for i in range(GCV_CANDIDATE_COUNT):
            a, b = smoothers.weights(i)
            expected = smoothers.matrix(a, b) @ y
            gap = np.abs(smoothers.fit(a, b, y) - expected).max()
            assert gap <= 8 * np.finfo(float).eps * d * np.abs(y).max()

    def test_regularity_rule(self):
        eps = np.finfo(float).eps
        for d in (2, 3, 51, 101, 1441):
            assert make_regular_grid(0, 10, d).regular
        points = np.linspace(0.0, 10.0, 101)
        # one point moved by 2 eps span stays within 4 eps span of the mean
        # gap on both sides, by 5 eps span it does not
        for shift, regular in ((2.0, True), (5.0, False)):
            moved = points.copy()
            moved[40] += shift * eps * 10.0
            assert Grid(moved).regular is regular
        # its points round to multiples of eps 1e6, a gap of 2e-10 in 10
        assert not Grid(np.linspace(1e6, 1e6 + 10, 101)).regular

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_an_irregular_grid_takes_the_dense_builder(self, offset):
        points = offset + np.linspace(0.0, 10.0, 101)
        if offset == 0.0:
            points[40] += 5.0 * np.finfo(float).eps * 10.0
        grid = Grid(points)
        assert not grid.regular
        assert isinstance(kfpca.core._smoothers(grid, [1.0]), _DenseSmoothers)
        values = noisy_rows(grid, 2025)
        # the dense builder is the one smoothers had before profiles, so
        # the GCV loop over its matrices gives the smooth bit for bit
        out, _ = gcv_fit(local_linear_matrix, grid, values)
        assert np.array_equal(smooth_rows(grid, values, "auto"), out)
        assert np.array_equal(
            smooth_rows(grid, values, 0.7), values @ local_linear_matrix(points, 0.7).T
        )


class TestTypes:
    def test_curve_length_checked(self):
        g = make_regular_grid(0, 1, 5)
        with pytest.raises(DimensionError):
            Curve(g, np.zeros(4))

    def test_curve_finite_checked(self):
        g = make_regular_grid(0, 1, 5)
        with pytest.raises(InputError):
            Curve(g, np.array([0.0, 1.0, np.nan, 0.0, 1.0]))

    def test_sample_needs_two_curves(self):
        g = make_regular_grid(0, 1, 5)
        with pytest.raises(InputError):
            FunctionalSample(g, np.zeros((1, 5)))

    def test_sample_width_checked(self):
        g = make_regular_grid(0, 1, 5)
        with pytest.raises(DimensionError):
            FunctionalSample(g, np.zeros((3, 4)))

    def test_values_are_immutable(self):
        g = make_regular_grid(0, 1, 5)
        c = Curve(g, np.zeros(5))
        with pytest.raises(ValueError):
            c.values[0] = 1.0


class TestFrozenArray:
    def test_a_writable_array_is_copied(self):
        values = np.arange(6.0).reshape(2, 3)
        g = make_regular_grid(0, 1, 3)
        sample = FunctionalSample(g, values)
        values[0, 0] = 99.0
        assert sample.values[0, 0] == 0.0
        assert not sample.values.flags.writeable

    def test_a_read_only_view_is_copied(self):
        owner = np.arange(8.0)
        view = owner[2:]
        view.setflags(write=False)
        frozen = _frozen_array(view)
        assert frozen is not view and not np.shares_memory(frozen, owner)
        owner[2] = 99.0
        assert frozen[0] == 2.0

    @pytest.mark.parametrize(
        "make",
        [
            lambda a: a.astype(np.float32),
            lambda a: np.asfortranarray(a.reshape(2, 3)),
            lambda a: a.view(np.matrix),
        ],
        ids=["float32", "fortran-order", "subclass"],
    )
    def test_other_read_only_arrays_are_copied(self, make):
        values = make(np.arange(6.0))
        values.setflags(write=False)
        frozen = _frozen_array(values)
        assert frozen is not values and not np.shares_memory(frozen, values)
        assert type(frozen) is np.ndarray and frozen.dtype == np.float64

    def test_a_list_is_converted_once(self):
        # one conversion straight into the kept array: no float array
        # beside it, as a convert-then-copy would hold
        values = [float(i) for i in range(200_000)]
        tracemalloc.start()
        try:
            frozen = _frozen_array(values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * frozen.nbytes

    def test_a_read_only_owner_is_kept(self):
        values = np.zeros((2, 3))
        values.setflags(write=False)
        assert _frozen_array(values) is values
        assert FunctionalSample(make_regular_grid(0, 1, 3), values).values is values


class TestDeriveRng:
    def test_same_key_same_stream(self):
        a = derive_rng(9, 3, 0).standard_normal(8)
        b = derive_rng(9, 3, 0).standard_normal(8)
        assert np.array_equal(a, b)

    def test_distinct_keys_distinct_streams(self):
        a = derive_rng(9, 3, 0).standard_normal(8)
        b = derive_rng(9, 4, 0).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_numpy_integers_give_the_int_stream(self):
        a = derive_rng(9, 3, 0).standard_normal(8)
        b = derive_rng(np.int64(9), np.int32(3), np.uint8(0)).standard_normal(8)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("key", [True, np.bool_(False), 1.0, np.float64(2.0), "3", None])
    def test_non_integer_key_rejected(self, key):
        with pytest.raises(ConfigurationError, match="each key must be an integer >= 0"):
            derive_rng(9, key)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            derive_rng(-1, 0)
