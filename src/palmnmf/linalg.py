"""Dense-matrix kernels for the factorization solver.

Matrices are 2-D float64 numpy arrays throughout the package. The
validators here (``as_matrix``, ``check_numbers``, ``check_mapping``) run
only where data enters; the prox maps are step kernels that trust theirs.
"""

import numbers
from collections.abc import Mapping

import numpy as np


def as_matrix(a, name="matrix"):
    """Validate *a* as a dense real matrix: 2-D, non-empty, finite float64."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got {m.ndim}-D")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must be non-empty, got shape {m.shape[0]}x{m.shape[1]}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def check_numbers(obj, ints=(), reals=()):
    """Raise ValueError unless each field of *obj* named in *ints* is an
    integer and each named in *reals* a real number; bools are neither."""
    for names, kind, noun in ((ints, numbers.Integral, "an integer"), (reals, numbers.Real, "a number")):
        for name in names:
            value = getattr(obj, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{name} must be {noun}, got {value!r}")


def check_mapping(d, what, required=()):
    """Raise ValueError unless *d* is a mapping holding every key in *required*."""
    if not isinstance(d, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {type(d).__name__}")
    for key in required:
        if key not in d:
            raise ValueError(f"{what} is missing required key {key!r}")


def difference_operator(n):
    """The n x (n-1) matrix D with D[j,j]=1, D[j+1,j]=-1, zero elsewhere.

    Right-multiplying takes adjacent-column differences:
    (M @ D)[:, j] == M[:, j] - M[:, j+1].
    """
    if n < 2:
        raise ValueError(f"difference operator needs n >= 2, got {n}")
    d = np.zeros((n, n - 1))
    idx = np.arange(n - 1)
    d[idx, idx] = 1.0
    d[idx + 1, idx] = -1.0
    return d


def nonneg_project(m):
    """Elementwise max(0, x): projection onto the nonnegative orthant."""
    return np.maximum(m, 0.0)


def soft_threshold_nonneg(m, tau):
    """Elementwise max(0, x - tau).

    This is the proximal map of tau*|x| restricted to x >= 0; with tau=0
    it reduces to ``nonneg_project``. *m* is a trusted float64 array.
    """
    if not tau >= 0:
        raise ValueError(f"threshold must be >= 0, got {tau}")
    return np.maximum(m - tau, 0.0)
