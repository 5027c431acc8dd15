import os
import subprocess
import sys

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
    ],
    ids=[
        "grid-size-float", "rng-seed-float", "rng-seed-none", "run-index-float",
        "run-index-str", "run-index-bool", "evaluate-run-index-float",
        "grid-text-points", "curve-text-values", "ragged-sample",
        "rng-key-float", "rng-key-str", "grid-text-bound", "grid-bool-bound",
    ],
)
def test_malformed_public_argument_raises_a_package_error(call):
    with pytest.raises(kfpca.KfpcaError):
        call()
