"""The package's public surface: its ``__all__`` names and its imports.

A name left in ``__all__`` after its definition is deleted breaks
``from wallcurve.<module> import *`` and nothing else, so this checks the
package and each submodule that declares ``__all__``.  The runtime needs
numpy only, so a CLI run must not import scipy, and importing the CLI
must not load ``numpy.random``, which only drawing needs.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import wallcurve

MODULES = [
    module
    for module in [wallcurve] + [
        importlib.import_module(f"wallcurve.{info.name}")
        for info in pkgutil.iter_modules(wallcurve.__path__)
    ]
    if hasattr(module, "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def _run_fresh(code):
    """Standard output of ``code`` run in a fresh interpreter on this source tree."""
    src = str(Path(wallcurve.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_cli_runs_without_scipy(tmp_path):
    # scipy is a test dependency only.  A fresh interpreter catches lazy
    # imports too, which an import inside this test process would hide.
    code = (
        "import sys\n"
        "from wallcurve.cli import main\n"
        "rc = main(['verify', 'density', '--n', '1000', '--replicates', '500',"
        f" '-o', {str(tmp_path / 'density.json')!r}])\n"
        "assert rc == 0, rc\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _run_fresh(code) == "[]\n"


def test_cli_import_leaves_numpy_random_unloaded():
    code = "import sys\nimport wallcurve.cli\nprint('numpy.random' in sys.modules)\n"
    assert _run_fresh(code) == "False\n"


def test_cli_import_builds_no_sampler_table():
    # The sampler's lookup tables take a few ms to build: they are built in
    # its first call, not at import.
    code = (
        "import wallcurve.cli\n"
        "from wallcurve import oracle\n"
        "print(oracle._byte_tables.cache_info().currsize,"
        " oracle._chunk_tables.cache_info().currsize)\n"
    )
    assert _run_fresh(code) == "0 0\n"


def test_cli_runs_leave_numpy_ma_unloaded(tmp_path):
    # Importing numpy.ma takes 10-14 ms, and np.median, or np.unique without
    # index outputs, import it under numpy 2.4.
    runs = [
        ["verify", "coverage", "--xlo", "-1", "--xhi", "1", "--hhi", "0.5", "--delta", "0.05"],
        ["curve", "--estimator", "band", "--steps", "1000"],
        ["verify", "knight", "--n", "100", "--replicates", "50"],
    ]
    code = (
        "import sys\n"
        "from wallcurve.cli import main\n"
        f"for k, argv in enumerate({runs!r}):\n"
        f"    main([*argv, '-o', f'{tmp_path}/{{k}}.out'])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert _run_fresh(code) == "False\n"
