"""Shared fixtures for the test suite."""

import os
from pathlib import Path

import pytest

import palmnmf
from palmnmf import difference_operator


@pytest.fixture
def cli_env():
    """Environment for a ``python -m palmnmf.cli`` subprocess.

    The source root of the ``palmnmf`` this process imported goes first on
    the child's ``PYTHONPATH`` as an absolute path, with any existing
    entries after it. The child then runs the code under test whatever its
    working directory, and whether or not a copy of the package is
    installed.
    """
    root = str(Path(palmnmf.__file__).resolve().parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + os.pathsep + existing if existing else root
    return env


def _dense_grad_h(v, w, h, params):
    """The H gradient 2((w^T w) h - w^T v + beta_h h + eta (h D) D^T) with
    both products by the dense operator D: the reference that ``grad_h``,
    which applies D^T by its stencil, equals bit for bit."""
    g = (w.T @ w) @ h - w.T @ v + params.beta_h * h
    if params.eta > 0:
        d = difference_operator(h.shape[1])
        g = g + params.eta * ((h @ d) @ d.T)
    return 2.0 * g


@pytest.fixture
def dense_grad_h():
    """``grad_h`` with D^T applied as a dense product."""
    return _dense_grad_h
