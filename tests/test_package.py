"""The package's public surface: its export list and its version."""

import types
import warnings
from pathlib import Path

import pytest

import palmnmf


def test_all_names_every_public_binding():
    # __init__ imports each export and lists it again in __all__; the two
    # lists must not drift.
    bound = vars(palmnmf).items()
    public = [name for name, value in bound if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(palmnmf.__all__) == sorted(public)


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
