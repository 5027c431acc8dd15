"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line with the measured quantities (visible
with ``pytest -s``) and then asserts the criterion at its stated
tolerance.  The Monte Carlo batteries come from session fixtures in
conftest.py so the whole suite stays inside a desk-scale runtime.
"""

import numpy as np
import pytest

from kfpca import (
    Curve,
    FitConfig,
    FunctionalSample,
    SimulationScenario,
    covariance_hat,
    derive_rng,
    deserialize_model,
    draw_scores,
    eigen_decompose,
    fit,
    generate,
    imse,
    inner_product,
    kendall_tau_hat,
    make_regular_grid,
    reconstruct,
    serialize_model,
)
from kfpca.cli import main
from skew_t_oracle import skew_t_shape_moments, solve_skew_t_params


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


class TestAcceptance:
    def test_criterion_1_table1_gaussian_parity(self, table_results):
        table = table_results[(1, "gaussian")]
        kf = table["kfpca"]["imse1"][0]
        cv = table["cov"]["imse1"][0]
        rel = abs(kf - cv) / cv
        ok = 0.015 <= kf <= 0.060 and rel < 0.25
        report(
            1,
            ok,
            f"case 1 gaussian: mean IMSE1 kfpca={kf:.4f} (band [0.015, 0.060]), "
            f"cov={cv:.4f}, relative gap={rel:.3f} (< 0.25)",
        )

    def test_criterion_2_table1_skew_t_dominance(self, table_results):
        table = table_results[(1, "skew_t")]
        kf, cv = table["kfpca"], table["cov"]
        ratio = cv["imse1"][0] / kf["imse1"][0]
        direction = all(
            kf[m][0] < cv[m][0] for m in ("imse2", "mse1", "mse2")
        )
        ok = ratio > 1.2 and direction
        report(
            2,
            ok,
            f"case 1 skew_t: IMSE1 ratio cov/kfpca={ratio:.2f} (> 1.2), "
            f"dominance on IMSE2/MSE1/MSE2={direction}",
        )

    def test_criterion_3_table2_skew_t_dominance(self, table_results):
        table = table_results[(2, "skew_t")]
        kf, cv = table["kfpca"], table["cov"]
        ratio = cv["imse1"][0] / kf["imse1"][0]
        mse1 = kf["mse1"][0]
        ok = ratio > 1.8 and 0.5 <= mse1 <= 1.2
        report(
            3,
            ok,
            f"case 2 skew_t: IMSE1 ratio cov/kfpca={ratio:.2f} (> 1.8), "
            f"kfpca MSE1={mse1:.3f} (band [0.5, 1.2])",
        )

    def test_criterion_4_ec2_dominance_both_cases(self, table_results):
        details = []
        ok = True
        for case in (1, 2):
            table = table_results[(case, "ec2")]
            for metric in ("imse1", "imse2"):
                kf = table["kfpca"][metric][0]
                cv = table["cov"][metric][0]
                ok = ok and kf < cv
                details.append(f"case {case} {metric}: kfpca={kf:.4f} < cov={cv:.4f}")
        report(4, ok, "; ".join(details))

    def test_criterion_5_shared_eigenfunctions_oracle(self, acceptance_seed):
        sample = generate(
            SimulationScenario(n_subjects=400, seed=acceptance_seed), 0
        ).sample
        phi_k = eigen_decompose(kendall_tau_hat(sample), 2)
        phi_c = eigen_decompose(covariance_hat(sample), 2)
        errs = [
            imse(Curve(sample.grid, phi_k[k]), Curve(sample.grid, phi_c[k]))
            for k in range(2)
        ]
        ok = all(e < 0.05 for e in errs)
        report(
            5,
            ok,
            f"N=400 gaussian: IMSE between kendall and covariance eigenfunctions "
            f"= {errs[0]:.4f}, {errs[1]:.4f} (each < 0.05)",
        )

    def test_criterion_6_convergence_rate(self, rate_diagnostic):
        slope = rate_diagnostic.fitted_slope
        ok = -0.75 <= slope <= -0.30
        errs = ", ".join(f"{e:.5f}" for e in rate_diagnostic.sup_errors)
        report(
            6,
            ok,
            f"sizes {rate_diagnostic.sample_sizes}: mean sup errors [{errs}], "
            f"fitted slope={slope:.3f} (band [-0.75, -0.30], theory -0.5)",
        )

    def test_criterion_6b_error_halves_when_size_quadruples(self, rate_diagnostic):
        errs = rate_diagnostic.sup_errors
        ratios = [errs[0] / errs[2], errs[1] / errs[3]]  # 50 vs 200, 100 vs 400
        ok = all(1.5 <= r <= 2.8 for r in ratios)
        report(
            "6b",
            ok,
            f"sup-error ratios at N vs 4N: {ratios[0]:.2f}, {ratios[1]:.2f} "
            "(band [1.5, 2.8], theory 2)",
        )

    def test_criterion_7_invariant_suite(self, tmp_path, acceptance_seed):
        failures = []
        sample = generate(SimulationScenario(seed=acceptance_seed), 1).sample

        kernel = kendall_tau_hat(sample)
        if np.abs(kernel.matrix - kernel.matrix.T).max() > 1e-10:
            failures.append("kendall matrix not symmetric")
        evals = np.linalg.eigvalsh(kernel.matrix)
        if evals.min() < -1e-8 * evals.max():
            failures.append("kendall matrix not PSD")
        if abs(kernel.weighted_trace - 1.0) > 1e-8:
            failures.append(f"weighted trace {kernel.weighted_trace}")

        shift = np.linspace(-2.0, 5.0, sample.grid.size)
        for c in (-3.0, 0.5, 7.0):
            other = kendall_tau_hat(
                FunctionalSample(sample.grid, c * sample.values + shift)
            )
            if np.abs(other.matrix - kernel.matrix).max() > 1e-12:
                failures.append(f"affine invariance broken at c={c}")

        funcs = [Curve(sample.grid, row) for row in eigen_decompose(kernel, sample.grid.size)]
        for k in range(4):
            for l in range(k, 4):
                got = inner_product(funcs[k], funcs[l])
                if abs(got - (1.0 if k == l else 0.0)) > 1e-6:
                    failures.append(f"orthonormality broken at ({k}, {l})")

        small = generate(
            SimulationScenario(n_subjects=12, n_points=21, seed=acceptance_seed), 0
        ).sample
        model = fit(small, FitConfig(method="cov", n_components=21))
        recon_err = max(
            np.abs(reconstruct(model, i, 21).values - small.values[i]).max()
            for i in range(small.n_subjects)
        )
        if recon_err > 1e-8:
            failures.append(f"full-rank reconstruction error {recon_err:.2e}")

        import json

        doc = json.loads(json.dumps(serialize_model(model)))
        back = deserialize_model(doc)
        if not (
            np.array_equal(back.scores, model.scores)
            and np.array_equal(back.mean.values, model.mean.values)
            and all(
                np.array_equal(a.values, b.values)
                for a, b in zip(back.eigenfunctions, model.eigenfunctions)
            )
        ):
            failures.append("serialization round trip not exact")

        # CLI determinism: identical bytes for identical seeds
        data_csv = tmp_path / "data.csv"
        import csv as _csv

        with open(data_csv, "w", newline="") as fh:
            writer = _csv.writer(fh, lineterminator="\n")
            writer.writerow([repr(float(t)) for t in small.grid.points])
            for row in small.values:
                writer.writerow([repr(float(v)) for v in row])
        pairs = []
        for tag in ("a", "b"):
            sim_out = tmp_path / f"sim_{tag}.csv"
            band_out = tmp_path / f"band_{tag}.csv"
            rate_out = tmp_path / f"rate_{tag}.csv"
            assert main(
                ["simulate", "--n", "30", "--grid", "21", "--runs", "4",
                 "--seed", "7", "--out", str(sim_out)]
            ) == 0
            assert main(
                ["mean-band", str(data_csv), "--reps", "120", "--seed", "7",
                 "--out", str(band_out)]
            ) == 0
            assert main(
                ["rate", "--sizes", "10,20,40", "--reps", "2", "--seed", "7",
                 "--out", str(rate_out)]
            ) == 0
            pairs.append((sim_out.read_bytes(), band_out.read_bytes(), rate_out.read_bytes()))
        if pairs[0] != pairs[1]:
            failures.append("CLI output not deterministic")

        report(
            7,
            not failures,
            "invariants: symmetry, PSD, unit trace, affine invariance, "
            "orthonormality, exact reconstruction, serialization, CLI determinism"
            + (f" | failures: {failures}" if failures else ""),
        )

    def test_criterion_8_generator_fidelity(self, acceptance_seed):
        slant, df = solve_skew_t_params(1.5, 5.1)
        _, _, pop_skew, pop_kurt = skew_t_shape_moments(slant, df)
        x = draw_scores("skew_t", 16.0, 1_000_000, derive_rng(acceptance_seed, 80))
        m = x.mean()
        v = x.var()
        skew = ((x - m) ** 3).mean() / v**1.5
        exkurt = ((x - m) ** 4).mean() / v**2 - 3.0

        var_ok = []
        for dist, lam, key in (
            ("gaussian", 16.0, 81),
            ("mix_gaussian", 16.0, 82),
            ("ec2", 9.0, 83),
            ("skew_t", 9.0, 84),
        ):
            draws = draw_scores(dist, lam, 1_000_000, derive_rng(acceptance_seed, key))
            var_ok.append(abs(draws.var() / lam - 1.0) < 0.01)

        ok = (
            abs(pop_skew - 1.5) < 1e-8
            and abs(pop_kurt - 5.1) < 1e-8
            and 1.4 <= skew <= 1.6
            and 4.4 <= exkurt <= 5.8
            and all(var_ok)
        )
        report(
            8,
            ok,
            f"solved (slant={slant:.4f}, df={df:.4f}); 1e6-draw skewness={skew:.3f} "
            f"(band [1.4, 1.6]), excess kurtosis={exkurt:.3f} (band [4.4, 5.8]); "
            f"variance within 1% for all four laws={all(var_ok)}",
        )
