import os
import subprocess
import sys

import numpy as np
import pytest

import kfpca


def test_every_export_resolves():
    missing = [name for name in kfpca.__all__ if not hasattr(kfpca, name)]
    assert missing == []
    assert len(set(kfpca.__all__)) == len(kfpca.__all__)


def test_import_loads_no_optimizer_or_special_functions():
    # scipy.optimize and scipy.special took about a third of every command's
    # start-up, and nothing in the package uses them
    code = (
        "import sys, kfpca, kfpca.cli\n"
        "print(*[m for m in ('scipy.optimize', 'scipy.special') if m in sys.modules])"
    )
    package_root = os.path.dirname(os.path.dirname(kfpca.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.stdout.strip() == ""


_SCENARIO = kfpca.SimulationScenario(n_subjects=5, n_points=6, runs=2)
_GRID = kfpca.make_regular_grid(0, 1, 3)
_SAMPLE = kfpca.FunctionalSample(_GRID, [[1.0, 2.0, 3.0], [2.0, 3.0, 5.0]])
_MEAN = kfpca.Curve(_GRID, [0.0, 0.0, 0.0])
_KERNEL = kfpca.covariance_hat(_SAMPLE)


def _run(imse, mse, run_index=0):
    return kfpca.RunMetrics(imse, mse, run_index, _SCENARIO, "kfpca")


@pytest.mark.parametrize(
    "call",
    [
        lambda: kfpca.make_regular_grid(0, 1, 2.5),
        lambda: kfpca.derive_rng(1.5),
        lambda: kfpca.derive_rng(None),
        lambda: kfpca.generate(_SCENARIO, 1.5),
        lambda: kfpca.generate(_SCENARIO, "0"),
        lambda: kfpca.generate(_SCENARIO, True),
        lambda: kfpca.evaluate_run(_SCENARIO, 1.5, "kfpca"),
        lambda: kfpca.Grid(["a", "b"]),
        lambda: kfpca.Curve(_GRID, "abc"),
        lambda: kfpca.FunctionalSample(_GRID, [[1.0, 2.0, 3.0], [1.0, 2.0]]),
        lambda: kfpca.derive_rng(1, 1.5),
        lambda: kfpca.derive_rng(1, "a"),
        lambda: kfpca.make_regular_grid("a", 1, 3),
        lambda: kfpca.make_regular_grid(0, True, 3),
        lambda: kfpca.project_scores(_SAMPLE, _MEAN, "abc"),
        lambda: kfpca.project_scores(_SAMPLE, _MEAN, [[1.0, 2.0, 3.0], [1.0]]),
        lambda: kfpca.project_scores(_SAMPLE, _MEAN, np.full((2, 3), np.nan)),
        lambda: kfpca.FitConfig(eigen_smooth=-1.0),
        lambda: kfpca.fit(_SAMPLE, kfpca.FitConfig(n_components=1, eigen_smooth="junk")),
        lambda: _run("a", [0.0]),
        lambda: _run([0.1, 0.2], [0.1]),
        lambda: kfpca.aggregate([_run([0.1, 0.2], [0.1, 0.2]), _run([0.1], [0.1], 1)]),
        lambda: kfpca.convergence_rate(_SCENARIO, 5, 2),
        lambda: kfpca.RateDiagnostic((10, 20, 40), "abc", -1.0),
        lambda: kfpca.RateDiagnostic(5, [1.0], -1.0),
        lambda: kfpca.RateDiagnostic(("a", "b", "c"), [1.0] * 3, -1.0),
        lambda: kfpca.RateDiagnostic((10, 20, 40), [1.0, 1.0], -0.5),
        lambda: kfpca.RateDiagnostic((10, 20, 40), [1.0, float("nan"), 1.0], -0.5),
        lambda: kfpca.RateDiagnostic((10, 20, 40), [1.0] * 3, "x"),
        lambda: kfpca.RateDiagnostic((True, 2, 3), [1.0] * 3, -0.5),
    ],
    ids=[
        "grid-size-float", "rng-seed-float", "rng-seed-none", "run-index-float",
        "run-index-str", "run-index-bool", "evaluate-run-index-float",
        "grid-text-points", "curve-text-values", "ragged-sample",
        "rng-key-float", "rng-key-str", "grid-text-bound", "grid-bool-bound",
        "project-text-phi", "project-ragged-phi", "project-nan-phi",
        "eigen-negative-bandwidth", "eigen-text-bandwidth", "run-metrics-text",
        "run-metrics-unequal-lengths", "aggregate-unequal-runs",
        "rate-scalar-sizes", "rate-text-errors", "rate-diag-scalar-sizes",
        "rate-diag-text-sizes", "rate-diag-unequal-lengths", "rate-diag-nan-error",
        "rate-diag-text-slope", "rate-diag-bool-size",
    ],
)
def test_malformed_public_argument_raises_a_package_error(call):
    with pytest.raises(kfpca.KfpcaError):
        call()


def test_readme_library_quickstart_runs():
    # the quickstart names public calls; running it keeps it in step with them
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as f:
        text = f.read()
    section = text.split("## Library quickstart", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert len(namespace["errs"]) == 2
    assert all(0.0 <= e < 0.5 for e in namespace["errs"])
