"""Matrix CSV and JSON manifest I/O.

The one matrix interchange format is headerless CSV: one row per line,
values comma-separated and written with 17 significant digits, so a
save/load round trip is bitwise exact for float64.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError
from .linalg import Record, as_matrix
from .objective import ObjectiveParams
from .solver import SolverConfig


def load_matrix(path):
    """Read a headerless CSV matrix.

    Raises ParseError (with 1-based line/column where known) on empty
    files, ragged rows, and tokens that are not finite decimal numbers.
    """
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines:
        raise ParseError(f"{path}: empty matrix file")
    rows = []
    width = None
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split(",")
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise ParseError(
                f"{path}: line {lineno}: expected {width} values, got {len(tokens)}",
                line=lineno,
            )
        row = []
        for colno, token in enumerate(tokens, start=1):
            try:
                value = float(token)
            except ValueError:
                raise ParseError(
                    f"{path}: line {lineno}, column {colno}: invalid number {token.strip()!r}",
                    line=lineno,
                    column=colno,
                ) from None
            if not math.isfinite(value):
                raise ParseError(
                    f"{path}: line {lineno}, column {colno}: non-finite value {token.strip()!r}",
                    line=lineno,
                    column=colno,
                )
            row.append(value)
        rows.append(row)
    return np.array(rows, dtype=np.float64)


def save_matrix(m, path):
    """Write a matrix as headerless CSV with 17 significant digits."""
    m = as_matrix(m, "matrix")
    lines = [",".join("%.17g" % x for x in row) for row in m]
    Path(path).write_text("\n".join(lines) + "\n")


def save_json(obj, path):
    """Write JSON deterministically: 2-space indent, trailing newline,
    non-finite floats rejected rather than emitted as bare NaN/Infinity."""
    Path(path).write_text(json.dumps(obj, indent=2, allow_nan=False) + "\n")


def load_json(path):
    return json.loads(Path(path).read_text())


@dataclass(frozen=True)
class RunManifest(Record):
    """Record of one factorization run: what went in, what came out."""

    input: str
    params: ObjectiveParams
    config: SolverConfig
    out_dir: str
    files: tuple
