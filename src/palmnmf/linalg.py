"""Dense-matrix kernels for the factorization solver, and the base of the
config records.

Matrices are 2-D float64 numpy arrays throughout the package. The
validators here (``as_matrix`` and ``Record``) run only where data
enters; the prox maps are step kernels that trust theirs.
"""

import numbers
import re
from collections.abc import Mapping
from dataclasses import MISSING, fields

import numpy as np

# Field annotation -> the values it admits and their name in messages.
_NUMBER_TYPES = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number")}


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


def _key(f):
    return f.metadata.get("key", f.name)


class Record:
    """Base of the frozen config dataclasses: field types and the JSON codec.

    Each field is one JSON key, its name unless set by
    ``field(metadata={"key": ...})``. ``__post_init__`` raises ValueError
    unless every field annotated ``int`` is an integer and every field
    annotated ``float`` a real number (bools are neither); subclasses call
    it first, then check ranges. ``from_dict`` takes each missing key's
    default from the dataclass and rejects a non-mapping, a missing
    required key and an unknown key with ValueError.
    """

    def __post_init__(self):
        for f in fields(self):
            if f.type in _NUMBER_TYPES:
                kind, noun = _NUMBER_TYPES[f.type]
                value = getattr(self, f.name)
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise ValueError(f"{_key(f)} must be {noun}, got {value!r}")

    def to_dict(self):
        """One key per field, in field order; nested records recurse and
        tuples become lists."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Record):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            out[_key(f)] = value
        return out

    @classmethod
    def from_dict(cls, d):
        """Inverse of ``to_dict``."""
        what = re.sub(r"(?<=[a-z])(?=[A-Z])", " ", cls.__name__).lower()  # "run manifest"
        if not isinstance(d, Mapping):
            raise ValueError(f"{what} must be a JSON object, got {type(d).__name__}")
        by_key = {_key(f): f for f in fields(cls)}
        unknown = ", ".join(repr(key) for key in d if key not in by_key)
        if unknown:
            raise ValueError(f"{what} has unknown key(s) {unknown}; known keys are {', '.join(by_key)}")
        kwargs = {}
        for key, f in by_key.items():
            if key in d:
                value = d[key]
                if isinstance(f.type, type) and issubclass(f.type, Record):
                    value = f.type.from_dict(value)
                elif f.type is tuple and isinstance(value, list):
                    value = tuple(value)
                kwargs[f.name] = value
            elif f.default is MISSING:
                raise ValueError(f"{what} is missing required key {key!r}")
        return cls(**kwargs)


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
