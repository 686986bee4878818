"""Matrix CSV and JSON manifest I/O.

The one matrix interchange format is headerless CSV: one row per line,
values comma-separated and written with 17 significant digits, so a
save/load round trip is bitwise exact for float64.
"""

import json
import math
from array import array
from pathlib import Path

import numpy as np

from .errors import ParseError
from .linalg import as_matrix


def load_matrix(path):
    """Read a headerless CSV matrix.

    Raises ParseError (with 1-based line/column where known) on empty
    files, ragged rows, and tokens that are not finite decimal numbers.
    Errors are reported in file order: the first line that fails, and
    within it the first bad token. Lines end at "\n", "\r\n" or "\r".
    A byte that is not UTF-8 is read as a lone surrogate, which no number
    contains, so it is reported as an invalid token at its line and column.
    """
    values = array("d")
    width = None
    with open(path, errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            tokens = line.split(",")
            if width is None:
                width = len(tokens)
            elif len(tokens) != width:
                raise ParseError(f"{path}: line {lineno}: expected {width} values, got {len(tokens)}", line=lineno)
            try:
                row = list(map(float, tokens))
            except ValueError:
                row = None
            # A non-finite sum flags a nan or inf token, or finite values
            # whose sum overflows, which _check_tokens lets through.
            if row is None or not math.isfinite(sum(row)):
                _check_tokens(path, lineno, tokens)
            values.extend(row)
    if width is None:
        raise ParseError(f"{path}: empty matrix file")
    return np.frombuffer(values).reshape(-1, width)


def _check_tokens(path, lineno, tokens):
    """Raise ParseError naming the first token of a line that is not a
    finite number; return if there is none."""
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


def save_matrix(m, path):
    """Write a matrix as headerless CSV with 17 significant digits."""
    np.savetxt(path, as_matrix(m, "matrix"), fmt="%.17g", delimiter=",")


def save_json(obj, path):
    """Write JSON deterministically: 2-space indent, trailing newline,
    non-finite floats rejected rather than emitted as bare NaN/Infinity."""
    Path(path).write_text(json.dumps(obj, indent=2, allow_nan=False) + "\n")


def load_json(path):
    """Read a JSON file; a decode or syntax error names *path*."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return parse_json(text, path)


def parse_json(text, source):
    """Parse JSON text; a syntax error, or nesting too deep to parse, is a
    ValueError that names *source* (a path or a flag)."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{source}: {exc}") from None
