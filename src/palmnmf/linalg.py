"""Dense-matrix kernels for the factorization solver, and the base of the
config records.

Matrices are 2-D float64 numpy arrays throughout the package. The
validators here (``as_matrix``, ``require_allocatable`` and ``Record``)
run only where data enters; the prox maps are step kernels that trust
theirs.
"""

import math
import numbers
import operator
import os
import re
from collections.abc import Mapping
from dataclasses import MISSING, fields

import numpy as np

# Field annotation -> the values it admits and their name in messages.
_FIELD_TYPES = {
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a finite number"),
    str: (str, "a string"),
}

# Bound name in field metadata -> its test and its operator in messages.
_BOUNDS = {
    "ge": (operator.ge, ">="),
    "gt": (operator.gt, ">"),
    "le": (operator.le, "<="),
    "in": (lambda value, allowed: value in allowed, "one of"),
}


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


def require_allocatable(label, rows, cols):
    """Raise ValueError if a rows x cols float64 matrix would not fit in
    physical memory. *rows* and *cols* are Python ints, multiplied exactly,
    so the check holds for any size and runs before numpy allocates."""
    need = 8 * rows * cols
    try:
        limit = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf on this platform
        return
    if need > limit:
        raise ValueError(
            f"{label} would be {rows}x{cols}: {need} bytes of float64, "
            f"more than the {limit} bytes of physical memory"
        )


def _key(f):
    return f.metadata.get("key", f.name)


def _finite(x):
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the float range, such as 10**400
        return False


class Record:
    """Base of the frozen config dataclasses: field types and ranges, and
    the JSON codec.

    Each field is one JSON key, its name unless set by
    ``field(metadata={"key": ...})``; the same metadata may bound it with
    ``"ge"``, ``"gt"`` or ``"le"`` and a number, or ``"in"`` and a tuple,
    and give the text of its CLI flag as ``"help"``.
    ``check(**values)`` raises ValueError unless each field it is given
    that is annotated ``int`` is an integer, ``float`` a finite real number
    (bools are neither; nor are NaN, +-inf and integers beyond the float
    range), and ``str`` a string; then it checks their bounds. Both passes
    go in field order, types first. ``__post_init__`` checks every field
    with it, and subclasses check nothing themselves. ``from_dict`` takes
    each missing key's default from the dataclass and rejects a
    non-mapping, a missing required key and an unknown key with ValueError.
    """

    def __post_init__(self):
        self.check(**{f.name: getattr(self, f.name) for f in fields(self)})

    @classmethod
    def check(cls, **values):
        """Check *values*, given by field name, as the fields they name."""
        given = [f for f in fields(cls) if f.name in values]
        for f in given:
            if f.type in _FIELD_TYPES:
                kind, noun = _FIELD_TYPES[f.type]
                value = values[f.name]
                if isinstance(value, bool) or not isinstance(value, kind) or (f.type is float and not _finite(value)):
                    raise ValueError(f"{_key(f)} must be {noun}, got {value!r}")
        for f in given:
            for name, bound in f.metadata.items():
                if name not in ("key", "help"):
                    holds, op = _BOUNDS[name]
                    if not holds(values[f.name], bound):
                        raise ValueError(f"{_key(f)} must be {op} {bound!r}, got {values[f.name]!r}")

    def to_dict(self):
        """One key per field, in field order."""
        return {_key(f): getattr(self, f.name) for f in fields(self)}

    @classmethod
    def keys(cls):
        """The JSON keys, in field order."""
        return [_key(f) for f in fields(cls)]

    @classmethod
    def from_dict(cls, d):
        """Inverse of ``to_dict``."""
        what = re.sub(r"(?<=[a-z])(?=[A-Z])", " ", cls.__name__).lower()  # "solver config"
        if not isinstance(d, Mapping):
            raise ValueError(f"{what} must be a JSON object, got {type(d).__name__}")
        by_key = dict(zip(cls.keys(), fields(cls)))
        unknown = ", ".join(repr(key) for key in d if key not in by_key)
        if unknown:
            raise ValueError(f"{what} has unknown key(s) {unknown}; known keys are {', '.join(by_key)}")
        for key, f in by_key.items():
            if key not in d and f.default is MISSING:
                raise ValueError(f"{what} is missing required key {key!r}")
        return cls(**{f.name: d[key] for key, f in by_key.items() if key in d})


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
