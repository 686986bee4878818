"""The package's public surface: its export list, a clean import and its version."""

import subprocess
import sys
import types
import warnings
from pathlib import Path

import pytest

import palmnmf


def test_all_names_every_public_binding():
    # __init__ computes __all__ from its own bindings by this same rule,
    # stated here again so that a change to either one shows.
    bound = vars(palmnmf).items()
    public = [name for name, value in bound if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(palmnmf.__all__) == sorted(public)


def test_star_import_binds_exactly_the_exports():
    ns = {}
    exec("from palmnmf import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(palmnmf.__all__)
    assert not any(isinstance(value, types.ModuleType) for value in ns.values())


def test_imports_cleanly_in_a_fresh_interpreter(cli_env):
    # conftest imports palmnmf at collection, before pytest's warning filters apply.
    cmd = [sys.executable, "-X", "dev", "-W", "error", "-c", "import palmnmf, palmnmf.cli"]
    proc = subprocess.run(cmd, env=cli_env, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_pyproject_reads_the_version_from_the_package():
    pyproject = Path(palmnmf.__file__).resolve().parents[2] / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("palmnmf is not imported from a source checkout")
    read_configuration = pytest.importorskip("setuptools.config.pyprojecttoml").read_configuration
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools calls [tool.setuptools] support beta
        project = read_configuration(pyproject)["project"]
    assert "version" in project["dynamic"]
    assert project["version"] == palmnmf.__version__
