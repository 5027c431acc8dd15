import dataclasses
import functools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kfpca.estimators

from kfpca import (
    ConfigurationError,
    EstimationError,
    FunctionalSample,
    InputError,
    SimulationScenario,
    bootstrap_mean_band,
    covariance_hat,
    derive_rng,
    generate,
    kendall_tau_hat,
    make_regular_grid,
    mean_hat,
)
from kfpca.estimators import _centered


def gaussian_case1_sample(n, seed=0, run=0):
    scenario = SimulationScenario(n_subjects=n, seed=seed, runs=run + 1)
    return generate(scenario, run).sample


def pairwise_reference(values, weights):
    """Independent oracle: direct loop over pairs."""
    n, d = values.shape
    acc = np.zeros((d, d))
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            diff = values[i] - values[j]
            nrm = float(weights @ (diff * diff))
            if nrm > 0:
                acc += np.outer(diff, diff) / nrm
                count += 1
    return acc / count


class TestMeanHat:
    def test_opposite_curves_average_to_zero(self):
        g = make_regular_grid(0, 1, 5)
        sample = FunctionalSample(g, np.vstack([g.points, -g.points]))
        assert np.allclose(mean_hat(sample).values, 0.0)

    def test_identical_curves(self):
        g = make_regular_grid(0, 1, 5)
        c = np.sin(g.points)
        sample = FunctionalSample(g, np.tile(c, (4, 1)))
        assert np.allclose(mean_hat(sample).values, c)

    def test_clt_sup_bound_coverage(self):
        # sup|mean| < 3 sqrt(lam1 + lam2 + sigma2) / sqrt(N) in >= 99 of 100 runs
        bound = 3.0 * np.sqrt(16.0 + 9.0 + 0.25) / np.sqrt(100)
        scenario = SimulationScenario(seed=314)
        hits = 0
        for run in range(100):
            sample = generate(scenario, run).sample
            if np.abs(mean_hat(sample).values).max() < bound:
                hits += 1
        assert hits >= 99


class TestKendallTauHat:
    def test_two_curve_hand_example(self):
        g = make_regular_grid(0, 1, 3)
        sample = FunctionalSample(g, np.vstack([g.points, np.zeros(3)]))
        k = kendall_tau_hat(sample)
        expected = np.outer(g.points, g.points) / 0.375
        assert np.allclose(k.matrix, expected, atol=1e-12)
        assert k.matrix[2, 2] == pytest.approx(2.6667, abs=5e-5)

    def test_matches_direct_pair_loop(self):
        sample = gaussian_case1_sample(40, seed=3)
        k = kendall_tau_hat(sample)
        ref = pairwise_reference(sample.values, sample.grid.weights)
        assert np.allclose(k.matrix, ref, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_weighted_trace_is_one(self, seed):
        sample = gaussian_case1_sample(50, seed=seed)
        k = kendall_tau_hat(sample)
        assert k.weighted_trace == pytest.approx(1.0, abs=1e-8)

    def test_positive_semidefinite(self):
        sample = gaussian_case1_sample(50, seed=5)
        evals = np.linalg.eigvalsh(kendall_tau_hat(sample).matrix)
        assert evals.min() >= -1e-8 * evals.max()

    @pytest.mark.parametrize(
        "c, offset",
        [(-3.0, 0.0), (0.5, 0.0), (7.0, 0.0), (1.0, 1e5), (1.0, 1e6)],
        ids=["-3.0", "0.5", "7.0", "offset-1e5", "offset-1e6"],
    )
    def test_affine_invariance(self, c, offset):
        sample = gaussian_case1_sample(30, seed=8)
        rng = derive_rng(17, 0)
        shift = np.cumsum(rng.standard_normal(sample.grid.size)) * 0.3 + offset
        transformed = FunctionalSample(sample.grid, c * sample.values + shift)
        k0 = kendall_tau_hat(sample)
        k1 = kendall_tau_hat(transformed)
        # rounding the shifted values to the offset's spacing moves each entry
        # by up to that much relative to the O(1) curve differences; the
        # estimator itself may add no more than 1e-12
        tol = 1e-12 + np.spacing(offset) * np.abs(k0.matrix).max()
        assert np.abs(k0.matrix - k1.matrix).max() < tol

    def test_permutation_invariance(self):
        sample = gaussian_case1_sample(30, seed=9)
        rng = derive_rng(18, 0)
        perm = rng.permutation(sample.n_subjects)
        shuffled = FunctionalSample(sample.grid, sample.values[perm])
        assert np.abs(
            kendall_tau_hat(sample).matrix - kendall_tau_hat(shuffled).matrix
        ).max() < 1e-12

    def test_pair_swap_symmetry(self):
        # a pair's contribution is unchanged by swapping its members
        g = make_regular_grid(0, 1, 4)
        x = np.vstack([np.sin(g.points), np.cos(g.points)])
        a = kendall_tau_hat(FunctionalSample(g, x))
        b = kendall_tau_hat(FunctionalSample(g, x[::-1]))
        assert np.allclose(a.matrix, b.matrix, atol=1e-15)

    def test_duplicate_pair_excluded(self):
        g = make_regular_grid(0, 1, 5)
        base = np.vstack([g.points, np.sin(g.points), g.points])  # rows 0 and 2 equal
        k = kendall_tau_hat(FunctionalSample(g, base))
        # only the 2 distinct pairs contribute; both involve row 1
        diff1 = base[0] - base[1]
        diff2 = base[2] - base[1]
        expected = np.zeros((5, 5))
        for diff in (diff1, diff2):
            nrm = g.weights @ (diff * diff)
            expected += np.outer(diff, diff) / nrm
        assert np.allclose(k.matrix, expected / 2, atol=1e-12)

    @pytest.mark.parametrize(
        "seed, n_points", [(0, 51), (1, 51), (2, 51), (0, 401)],
        ids=["seed-0", "seed-1", "seed-2", "seed-0-d401"],
    )
    def test_exact_duplicates_dropped_at_zero_tolerance(self, seed, n_points, monkeypatch):
        # the Gram identity leaves a duplicate pair's squared norm at rounding
        # level, not 0; kept, its weight ~1e16 broke the PSD check
        sample = generate(
            SimulationScenario(n_subjects=30, n_points=n_points, seed=seed), 0
        ).sample
        values = sample.values.copy()
        values[5], values[17] = values[0], values[9]
        duplicated = FunctionalSample(sample.grid, values)
        monkeypatch.setattr(kfpca.estimators, "DEGENERATE_TOL", 0.0)
        kernel = kendall_tau_hat(duplicated)
        w = sample.grid.weights
        loop_count = sum(
            float(w @ (values[i] - values[j]) ** 2) > 0
            for i in range(30)
            for j in range(i + 1, 30)
        )
        mu, q, _ = _centered(duplicated)
        _, ordered_retained = kfpca.estimators._pair_sum(values, mu, q, w, 0.0)
        assert ordered_retained == 2 * loop_count == 30 * 29 - 4
        ref = pairwise_reference(values, w)
        assert np.abs(kernel.matrix - ref).max() < 1e-12

    def test_off_unit_weighted_trace_raises(self, monkeypatch):
        # unit trace is the pair sum's invariant, so the estimator checks it;
        # the kernel type takes a kernel of any trace
        pair_sum = kfpca.estimators._pair_sum

        def doubled(*args):
            accum, ordered_retained = pair_sum(*args)
            return 2.0 * accum, ordered_retained

        monkeypatch.setattr(kfpca.estimators, "_pair_sum", doubled)
        with pytest.raises(EstimationError, match="weighted trace"):
            kendall_tau_hat(gaussian_case1_sample(20, seed=13))
        g = make_regular_grid(0, 1, 4)
        m = 2.0 * np.eye(4) / g.weights.sum()
        assert kfpca.estimators.DiscretizedKernel(g, m).weighted_trace == pytest.approx(2.0)

    def test_all_identical_raises(self):
        g = make_regular_grid(0, 1, 5)
        sample = FunctionalSample(g, np.tile(np.sin(g.points), (4, 1)))
        with pytest.raises(EstimationError):
            kendall_tau_hat(sample)

    def test_mean_pairwise_sq_norm_matches_loop(self):
        sample = gaussian_case1_sample(20, seed=11)
        x, w = sample.values, sample.grid.weights
        acc = []
        for i in range(len(x)):
            for j in range(i + 1, len(x)):
                diff = x[i] - x[j]
                acc.append(w @ (diff * diff))
        assert _centered(sample)[2] == pytest.approx(
            np.mean(acc), rel=1e-12
        )


def pair_sum(sample):
    """The pair sum and ordered retained-pair count behind kendall_tau_hat
    at its DEGENERATE_TOL of 1e-12."""
    mu, q, mean_sq_norm = _centered(sample)
    return kfpca.estimators._pair_sum(
        sample.values, mu, q, sample.grid.weights, 1e-12 * mean_sq_norm
    )


class TestPairTiles:
    """A tile edge of 7 puts pairs on, beside and across tile boundaries at
    test sizes; the default edge covers these samples in one tile."""

    @staticmethod
    def assert_small_tiles_match(monkeypatch, sample, ordered_retained):
        default = kendall_tau_hat(sample).matrix
        _, default_count = pair_sum(sample)
        monkeypatch.setattr(kfpca.estimators, "_PAIR_TILE", 7)
        tiled = kendall_tau_hat(sample).matrix
        _, tiled_count = pair_sum(sample)
        ref = pairwise_reference(sample.values, sample.grid.weights)
        assert np.abs(tiled - ref).max() < 1e-12
        assert np.abs(tiled - default).max() < 1e-12
        assert tiled_count == default_count == ordered_retained

    @pytest.mark.parametrize("n", [6, 7, 8, 15, 40])
    def test_small_tiles_match_pair_loop(self, monkeypatch, n):
        sample = gaussian_case1_sample(n, seed=60 + n)
        self.assert_small_tiles_match(monkeypatch, sample, n * (n - 1))

    def test_duplicates_in_different_tiles_are_dropped(self, monkeypatch):
        sample = gaussian_case1_sample(20, seed=80)
        values = sample.values.copy()
        # with 7-row tiles: rows 2 and 15 sit in tiles 0 and 2, rows 6 and 7
        # straddle the first boundary, rows 9 and 11 share the diagonal tile 1
        for a, b in ((2, 15), (6, 7), (9, 11)):
            values[b] = values[a]
        duplicated = FunctionalSample(sample.grid, values)
        self.assert_small_tiles_match(monkeypatch, duplicated, 20 * 19 - 2 * 3)

    @pytest.mark.parametrize("tile", [7, None], ids=["tile-7", "default-tile"])
    def test_permutation_across_tiles(self, monkeypatch, tile):
        if tile is not None:
            monkeypatch.setattr(kfpca.estimators, "_PAIR_TILE", tile)
        n = 3 * kfpca.estimators._PAIR_TILE + 5
        sample = gaussian_case1_sample(n, seed=81)
        perm = derive_rng(82, 0).permutation(n)
        shuffled = FunctionalSample(sample.grid, sample.values[perm])
        assert np.abs(
            kendall_tau_hat(sample).matrix - kendall_tau_hat(shuffled).matrix
        ).max() < 1e-12

    def test_scratch_does_not_grow_with_n(self):
        n = 2000
        sample = gaussian_case1_sample(n, seed=83)
        tracemalloc.start()
        try:
            kendall_tau_hat(sample)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # tile-sized arrays (one tile of inverse norms, its masks, the
        # tile x (d + 2) row-block operands and products) and a few
        # length-N vectors; an N x d array beside them, such as a centered
        # copy of the sample (0.8 MB here), does not fit
        budget = (3 * kfpca.estimators._PAIR_TILE**2 + 4 * n) * 8
        assert peak < budget


@st.composite
def samples_with_duplicates(draw):
    """Gaussian curves, N in [2, 40] and d in [4, 30], with some rows
    copied over others."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(4, 30))
    values = derive_rng(draw(st.integers(0, 2**32 - 1)), 0).standard_normal((n, d))
    for src, dst in draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n // 2)
    ):
        values[dst] = values[src]
    assume(np.unique(values, axis=0).shape[0] > 1)
    return FunctionalSample(make_regular_grid(0, 1, d), values)


class TestPairSumProperties:
    @pytest.mark.parametrize(
        "tile", [7, kfpca.estimators._PAIR_TILE], ids=["tile-7", "default-tile"]
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(sample=samples_with_duplicates())
    def test_matches_exact_pair_loop(self, tile, sample):
        values, w = sample.values, sample.grid.weights
        n = sample.n_subjects
        loop_count = sum(
            float(w @ (values[i] - values[j]) ** 2) > 0
            for i in range(n)
            for j in range(i + 1, n)
        )
        with mock.patch.object(kfpca.estimators, "_PAIR_TILE", tile):
            kernel = kendall_tau_hat(sample).matrix
            _, ordered_retained = pair_sum(sample)
        assert ordered_retained == 2 * loop_count
        assert np.abs(kernel - pairwise_reference(values, w)).max() < 1e-12


@st.composite
def affine_maps(draw):
    """A Gaussian sample X (N in [3, 30], d in [4, 20]) with a scale a of
    either sign, |a| in [1e-3, 1e3], and a shift curve c whose entries have
    magnitude in [1e2, 1e8]."""
    rng = derive_rng(draw(st.integers(0, 2**32 - 1)), 0)
    n, d = draw(st.integers(3, 30)), draw(st.integers(4, 20))
    sample = FunctionalSample(make_regular_grid(0, 1, d), rng.standard_normal((n, d)))
    a = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-3, 3))
    offset = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(2, 8))
    shift = offset * (1.0 + 0.5 * rng.uniform(-1.0, 1.0, d))
    return sample, a, shift


class TestAffineInvarianceProperty:
    """kendall_tau_hat is invariant to X -> a X + c and covariance_hat scales
    by a^2, to the rounding of a X + c: entries of size |c| are stored to
    eps |c|, against a spread of |a| sd(X)."""

    @staticmethod
    def tolerance(sample, a, shift):
        eps = np.finfo(float).eps
        return 1e-12 + 10 * eps * np.abs(shift).max() / (abs(a) * sample.values.std())

    @staticmethod
    def relative_error(got, want):
        return np.abs(got - want).max() / np.abs(want).max()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(drawn=affine_maps())
    def test_kendall_tau_is_invariant(self, drawn):
        sample, a, shift = drawn
        moved = FunctionalSample(sample.grid, a * sample.values + shift)
        k0 = kendall_tau_hat(sample).matrix
        k1 = kendall_tau_hat(moved).matrix
        assert self.relative_error(k1, k0) <= self.tolerance(sample, a, shift)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(drawn=affine_maps())
    def test_covariance_scales_by_a_squared(self, drawn):
        sample, a, shift = drawn
        moved = FunctionalSample(sample.grid, a * sample.values + shift)
        g0 = a**2 * covariance_hat(sample).matrix
        g1 = covariance_hat(moved).matrix
        assert self.relative_error(g1, g0) <= self.tolerance(sample, a, shift)


class TestCovarianceHat:
    def test_identical_curves_zero_matrix(self):
        g = make_regular_grid(0, 1, 5)
        sample = FunctionalSample(g, np.tile(np.sin(g.points), (4, 1)))
        assert np.allclose(covariance_hat(sample).matrix, 0.0)

    def test_two_opposite_curves(self):
        g = make_regular_grid(0, 1, 5)
        f = np.cos(g.points)
        sample = FunctionalSample(g, np.vstack([f, -f]))
        assert np.allclose(covariance_hat(sample).matrix, 2.0 * np.outer(f, f))

    def test_equivariance_under_scaling_and_shift(self):
        sample = gaussian_case1_sample(30, seed=21)
        c = -2.5
        shift = np.linspace(0, 4, sample.grid.size)
        transformed = FunctionalSample(sample.grid, c * sample.values + shift)
        g0 = covariance_hat(sample).matrix
        g1 = covariance_hat(transformed).matrix
        assert np.allclose(g1, c**2 * g0, rtol=1e-10)

    def test_permutation_invariance(self):
        sample = gaussian_case1_sample(25, seed=22)
        perm = derive_rng(23, 0).permutation(sample.n_subjects)
        shuffled = FunctionalSample(sample.grid, sample.values[perm])
        assert np.abs(
            covariance_hat(sample).matrix - covariance_hat(shuffled).matrix
        ).max() < 1e-10

    @pytest.mark.parametrize("n", [6, 7, 8, 15, 40])
    def test_row_blocks_match_one_product(self, monkeypatch, n):
        # blocks of 7 rows: up to 7 curves are one block, bit for bit the
        # one product; more are summed block by block, which moves the
        # matrix by rounding only
        sample = gaussian_case1_sample(n, seed=25)
        xc = sample.values - sample.values.mean(axis=0)
        reference = xc.T @ xc / (n - 1)
        assert np.array_equal(covariance_hat(sample).matrix, reference)
        monkeypatch.setattr(kfpca.estimators, "_PAIR_TILE", 7)
        blocked = covariance_hat(sample).matrix
        if n <= 7:
            assert np.array_equal(blocked, reference)
        else:
            assert np.linalg.norm(blocked - reference) <= 1e-15 * np.linalg.norm(reference)
        assert np.array_equal(blocked, blocked.T)

    def test_no_centered_copy(self):
        sample = gaussian_case1_sample(2000, seed=26)
        tracemalloc.start()
        try:
            covariance_hat(sample)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one block of centered rows and the kernel's few d x d arrays; an
        # N x d centered copy (1.6 MB here) does not fit
        d = sample.grid.size
        assert peak < (kfpca.estimators._PAIR_TILE * d + 6 * d * d) * 8

    def test_large_sample_eigenvalues_near_truth(self):
        sample = gaussian_case1_sample(400, seed=24)
        lam = covariance_hat(sample).eigenvalues[:2]
        assert abs(lam[0] - 16.0) / 16.0 < 0.25
        assert abs(lam[1] - 9.0) / 9.0 < 0.25


@functools.lru_cache(maxsize=None)
def solved_kernel(kind, n, d, lambdas=(16.0, 9.0)):
    """A kernel of skew-t data, its weighted matrix W^1/2 M W^1/2 and that
    matrix's descending eigenpairs from a dense solver."""
    scenario = SimulationScenario(
        distribution="skew_t", n_subjects=n, n_points=d, lambdas=lambdas, seed=5
    )
    sample = generate(scenario, 0).sample
    kernel = kendall_tau_hat(sample) if kind == "kendall" else covariance_hat(sample)
    return dense_solved(kernel)


def dense_solved(kernel):
    """The kernel, its weighted matrix W^1/2 M W^1/2 and that matrix's
    descending eigenpairs from a dense solver."""
    sqrt_w = np.sqrt(kernel.grid.weights)
    a = sqrt_w[:, None] * kernel.matrix * sqrt_w[None, :]
    evals, vecs = np.linalg.eigh(a)
    return kernel, a, evals[::-1], vecs[:, ::-1]


def check_eigenfunctions(kernel, a, evals, vecs, k):
    """Eigenfunctions, mapped to eigenvectors v = W^1/2 phi of the weighted
    matrix, agree with the dense solver's where the eigenvalue is simple (a
    repeated one, such as the null space of a rank-deficient kernel, has no
    unique basis); every row is an eigenfunction, and the rows are
    orthonormal in the quadrature inner product."""
    lam_max = evals[0]
    assert np.abs(kernel.eigenvalues - evals).max() <= 1e-14 * lam_max
    phi = kernel.eigenfunctions(k)
    assert phi.shape == (k, kernel.grid.size) and phi.flags.c_contiguous
    v = (phi * np.sqrt(kernel.grid.weights)).T
    gaps = np.abs(np.diff(evals))
    gap = np.minimum(np.append(np.inf, gaps), np.append(gaps, np.inf))[:k]
    simple = gap > 1e-8 * lam_max
    cos = np.abs(np.sum(v * vecs[:, :k], axis=0))
    assert simple[: min(k, 2)].all()
    assert (1.0 - cos[simple]).max() <= 1e-12
    gram = (phi * kernel.grid.weights) @ phi.T
    assert np.abs(gram - np.eye(k)).max() <= 1e-12
    assert np.abs(a @ v - v * kernel.eigenvalues[:k]).max() <= 1e-12 * lam_max


class TestLeadingEigenvectors:
    # the largest k solved by inverse iteration; k + 1 takes divide and conquer
    @staticmethod
    def crossover(d):
        return min(d // 5, 32)

    @pytest.mark.parametrize("kind", ["kendall", "covariance"])
    @pytest.mark.parametrize("n, d", [(100, 51), (200, 101), (30, 401)])
    def test_match_a_dense_solve(self, kind, n, d):
        kernel, a, evals, vecs = solved_kernel(kind, n, d)
        c = self.crossover(d)
        for k in sorted({1, 2, c - 1, c, c + 1, d // 2, d} - {0}):
            check_eigenfunctions(kernel, a, evals, vecs, k)

    @pytest.mark.parametrize("kind", ["kendall", "covariance"])
    def test_clustered_leading_pair(self, kind):
        kernel, a, evals, vecs = solved_kernel(kind, 100, 51, lambdas=(9.0, 9.0))
        for k in (1, 2, 3, 4, 25, 51):
            check_eigenfunctions(kernel, a, evals, vecs, k)

    @pytest.mark.parametrize("kind", ["kendall", "covariance"])
    def test_reducible_tridiagonal(self, kind):
        # curves identically 0 on the first 30 points: M's first 30 rows are
        # 0, so T splits into 30 zero blocks and one block holding the
        # nonzero spectrum, while inverse iteration sees T as one block
        scenario = SimulationScenario(distribution="skew_t", n_subjects=50, n_points=101, seed=8)
        generated = generate(scenario, 0).sample
        values = generated.values.copy()
        values[:, :30] = 0.0
        sample = FunctionalSample(generated.grid, values)
        kernel = kendall_tau_hat(sample) if kind == "kendall" else covariance_hat(sample)
        solved = dense_solved(kernel)
        assert np.count_nonzero(kernel._off_diagonal[:30]) == 0
        for k in (1, 2, 10, 11, 50):
            check_eigenfunctions(*solved, k)

    def test_eigenvalues_repeated_across_split_blocks(self):
        # W^1/2 M W^1/2 = diag(C, A, A): C holds the two simple leading
        # eigenvalues, and each of A's repeats across two split-off blocks
        rng = derive_rng(9, 0)

        def block(lambdas):
            q = np.linalg.qr(rng.standard_normal((20, 20)))[0]
            return (q * lambdas) @ q.T

        tail = np.geomspace(0.5, 1e-3, 18)
        b = np.zeros((60, 60))
        b[:20, :20] = block(np.r_[16.0, 9.0, tail])
        b[20:40, 20:40] = b[40:, 40:] = block(np.r_[4.0, 3.0, tail / 2])
        grid = make_regular_grid(0, 1, 60)
        inv_sqrt_w = 1.0 / np.sqrt(grid.weights)
        matrix = inv_sqrt_w[:, None] * b * inv_sqrt_w[None, :]
        kernel = kfpca.estimators.DiscretizedKernel(grid, (matrix + matrix.T) / 2)
        solved = dense_solved(kernel)
        assert np.count_nonzero(kernel._off_diagonal[[19, 39]]) == 0
        assert abs(kernel.eigenvalues[2] - kernel.eigenvalues[3]) <= 1e-14 * 16
        for k in (1, 2, 4, 6, 7, 30, 60):
            check_eigenfunctions(*solved, k)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_inverse_iteration_starts_from_the_stored_spectrum(self, k, monkeypatch):
        kernel = solved_kernel("kendall", 100, 51)[0]
        fn = kfpca.estimators.lapack.dstein
        received = []

        def recording(diag, off, w, block, split):
            received.append(np.array(w))
            return fn(diag, off, w, block, split)

        monkeypatch.setattr(kfpca.estimators.lapack, "dstein", recording)
        kernel.eigenfunctions(k)
        assert len(received) == 1
        assert np.array_equal(received[0], kernel.eigenvalues[k - 1 :: -1])

    @pytest.mark.parametrize("d", [51, 101, 401])
    def test_method_follows_the_crossover(self, d, monkeypatch):
        kernel = solved_kernel("covariance", 30, d)[0]
        calls = []

        def counting(name):
            fn = getattr(kfpca.estimators.lapack, name)

            def wrapped(*args):
                calls.append(name)
                return fn(*args)

            monkeypatch.setattr(kfpca.estimators.lapack, name, wrapped)

        counting("dstebz")
        counting("dstein")
        counting("dstevd")
        c = self.crossover(d)
        kernel.eigenfunctions(c)
        kernel.eigenfunctions(c + 1)
        # inverse iteration takes the kernel's stored eigenvalues, so no
        # second bisection runs
        assert calls == ["dstein", "dstevd"]

    @pytest.mark.parametrize("name, k", [("dstein", 2), ("dstevd", 51)])
    def test_lapack_failure_raises(self, name, k, monkeypatch):
        kernel = solved_kernel("kendall", 100, 51)[0]
        fn = getattr(kfpca.estimators.lapack, name)

        def failing(*args):
            *out, _ = fn(*args)
            return (*out, 1)

        monkeypatch.setattr(kfpca.estimators.lapack, name, failing)
        with pytest.raises(EstimationError, match=name):
            kernel.eigenfunctions(k)

    @pytest.mark.parametrize("k", [0, 52, 2.5, 2.0, True, "2"])
    def test_count_out_of_range(self, k):
        # a count that is not an integer is a configuration error too, not a
        # LAPACK failure or a raw TypeError
        kernel = solved_kernel("kendall", 100, 51)[0]
        with pytest.raises(ConfigurationError):
            kernel.eigenfunctions(k)

    def test_no_eigenvector_matrix_is_kept(self):
        kernel = solved_kernel("kendall", 100, 51)[0]
        assert not hasattr(kernel, "eigenvectors")


class TestBootstrapMeanBand:
    def test_identical_curves_zero_width(self):
        g = make_regular_grid(0, 1, 5)
        c = np.sin(g.points)
        sample = FunctionalSample(g, np.tile(c, (6, 1)))
        band = bootstrap_mean_band(sample, 0.9, 200, seed=0)
        assert np.allclose(band.lower.values, c)
        assert np.allclose(band.upper.values, c)
        assert np.allclose(band.mean.values, c)

    def test_deterministic_given_seed(self):
        sample = gaussian_case1_sample(20, seed=31)
        a = bootstrap_mean_band(sample, 0.9, 150, seed=5)
        b = bootstrap_mean_band(sample, 0.9, 150, seed=5)
        assert np.array_equal(a.lower.values, b.lower.values)
        assert np.array_equal(a.upper.values, b.upper.values)

    def test_band_contains_mean(self):
        sample = gaussian_case1_sample(20, seed=32)
        band = bootstrap_mean_band(sample, 0.9, 300, seed=1)
        assert np.all(band.lower.values <= band.mean.values + 1e-12)
        assert np.all(band.mean.values <= band.upper.values + 1e-12)

    def test_replicate_minimum_enforced(self):
        sample = gaussian_case1_sample(10, seed=33)
        with pytest.raises(ConfigurationError):
            bootstrap_mean_band(sample, 0.9, 99, seed=0)

    @pytest.mark.parametrize("replicates", [100.5, 200.0, None, "100"])
    def test_non_integer_replicates_rejected(self, replicates):
        sample = gaussian_case1_sample(10, seed=33)
        with pytest.raises(ConfigurationError, match="replicates"):
            bootstrap_mean_band(sample, 0.9, replicates, 0)

    @pytest.mark.parametrize(
        "level, seed, field",
        [("0.9", 0, "level"), (None, 0, "level"), (0.9, 1.5, "seed"),
         (0.9, "1", "seed"), (0.9, True, "seed"), (0.9, -1, "seed")],
    )
    def test_wrong_typed_level_or_seed_rejected(self, level, seed, field):
        sample = gaussian_case1_sample(10, seed=33)
        with pytest.raises(ConfigurationError, match=field):
            bootstrap_mean_band(sample, level, 100, seed)

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.5, 2.0])
    def test_level_bounds(self, level):
        sample = gaussian_case1_sample(10, seed=34)
        with pytest.raises(ConfigurationError):
            bootstrap_mean_band(sample, level, 100, seed=0)

    def test_low_level_band_on_skewed_data_may_exclude_the_mean(self):
        # a percentile band need not contain the sample mean; this input
        # used to raise EstimationError ("band does not contain the mean")
        values = derive_rng(0, 0).standard_exponential((15, 3)) ** 3
        sample = FunctionalSample(make_regular_grid(0, 1, 3), values)
        band = bootstrap_mean_band(sample, 0.05, 100, seed=0)
        lower, mean, upper = band.lower.values, band.mean.values, band.upper.values
        assert np.all(lower <= upper)
        assert np.any((mean < lower) | (mean > upper))

    def test_pointwise_coverage_of_true_mean(self):
        # 200 simulated datasets; the 90% band should cover the true mean
        # (zero) at a rate inside [0.85, 0.95]
        scenario = SimulationScenario(seed=777, runs=200)
        covered = []
        for run in range(200):
            sample = generate(scenario, run).sample
            band = bootstrap_mean_band(sample, 0.9, 1000, seed=run)
            covered.append(
                np.mean((band.lower.values <= 0.0) & (0.0 <= band.upper.values))
            )
        rate = float(np.mean(covered))
        assert 0.85 <= rate <= 0.95
