import os
import subprocess
import sys

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
