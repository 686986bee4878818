"""Shared fixtures and the Hypothesis profile for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import palmnmf
from palmnmf import SyntheticSpec, gen_smooth_rows, gen_sparse_matrix, generate

# Every property test draws the same examples on every run, keyed on its
# source, with no time limit and no example database; a test's own
# @settings sets only its max_examples.
settings.register_profile("palmnmf", deadline=None, derandomize=True, database=None)
settings.load_profile("palmnmf")


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


@pytest.fixture
def run_cli(cli_env):
    """Run ``python -m palmnmf.cli *args`` as a child process in ``cli_env``
    and return the completed process, its output captured as text, or as
    bytes with ``text=False``. Variables in ``env`` are set over
    ``cli_env``."""

    def run(args, cwd=None, text=True, env=None):
        return subprocess.run(
            [sys.executable, "-m", "palmnmf.cli", *args],
            capture_output=True, cwd=cwd, text=text, env={**cli_env, **(env or {})},
        )

    return run


@pytest.fixture(scope="session")
def acceptance_06_spec():
    """The acceptance-06 instance: 100 x 200, k = 5, 80 % zeros in the
    truth W, folded noise at 0.3 times the mean signal, data seed 5."""
    w_r = gen_sparse_matrix(100, 5, 0.2, 5)
    h_r = gen_smooth_rows(5, 200, 6)
    sigma = 0.3 * float((w_r @ h_r).mean())
    return SyntheticSpec(d=100, k=5, n=200, sigma=sigma, w_density=0.2, clip_mode="absolute", seed=5)


@pytest.fixture(scope="session")
def acceptance_06_v(acceptance_06_spec):
    """V of the acceptance-06 instance, read-only."""
    v = generate(acceptance_06_spec)[0]
    v.flags.writeable = False
    return v
