"""Matrix CSV and JSON manifest I/O.

The one matrix interchange format is headerless CSV: one row per line,
values comma-separated and written as ``'%.17g' % x`` writes them, so a
save/load round trip is bitwise exact for float64. ``save_matrix`` makes
those bytes with numpy arithmetic, a fixed number of entries at a time,
not by formatting one value at a time.

Every file is written to a temporary file beside its target and then
moved onto it with ``os.replace``. A write that fails or is interrupted
leaves the old target, or none, and no temporary file.
"""

import functools
import json
import math
import os
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ParseError
from .linalg import as_matrix

# Entries encoded at once by save_matrix, so that its temporaries have a
# fixed size whatever the matrix's shape.
_CHUNK = 1 << 14
# Bytes of text buffer per entry: the longest '%.17g' text,
# "-1.7976931348623157e+308", and its separator fit, and a buffer row is
# four uint64 words.
_SLOT = 32


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
    """Write a matrix as headerless CSV: the bytes of
    ``"".join(",".join("%.17g" % x for x in row) + "\n" for row in m)``."""
    m = as_matrix(m, "matrix")
    with _replacing(path) as f:
        for first in range(0, m.size, _CHUNK):
            f.write(_encode(m.flat[first : first + _CHUNK], first, m.shape[1]))


def _split(a):
    """Veltkamp's split of float64 *a* into hi + lo == a exactly, each
    with at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _tables():
    """The lookup tables of _encode, built on first use, so that a process
    that writes no matrix does not pay for them:
    - 10**j for j <= 22, exact doubles, and its split;
    - the ASCII of "%04d" % g for g < 10000 as little-endian uint32, and
      its length with trailing zeros stripped;
    - per column p, byte 0xFF in the columns before p, 0 elsewhere;
    - per start * _SLOT + end, byte 1 in columns start..end, 0 elsewhere.
    """
    pow10 = np.array([float(10**j) for j in range(23)])
    g = np.arange(10000)
    quads = (g[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8).view("<u4").ravel()
    significant = 4 - sum(g % 10**k == 0 for k in range(1, 5))
    cols = np.arange(_SLOT)
    prefix = np.where(cols < cols[:, None], np.uint8(255), np.uint8(0)).view("<u8")
    keep = ((cols >= cols[:, None, None]) & (cols <= cols[:, None])).reshape(-1, _SLOT).view("<u8")
    return (pow10, *_split(pow10)), quads, significant, prefix, keep


def _digits(a, e, powers):
    """round_half_even(a * 10**(16 - e)) as int64, for 0 <= 16 - e <= 22;
    *powers* holds 10**j and its split.

    Exact where the result N lies in [10**16, 10**17), the only results
    _encode keeps, because:
    - 10**j is an exact double for j <= 22;
    - Dekker's TwoProduct, from Veltkamp splits and no FMA, gives
      a * 10**j == p + err exactly, with p the rounded product, since
      for a in [1e-4, 1e17) no partial product overflows or underflows;
    - N >= 10**16 needs p >= 2**53, so p is an even integer and
      |err| <= ulp(p) / 2; p + rint(err), summed in int64, is then the
      half-even rounding of p + err that '%.17g' makes, ties included.
    """
    p10, p_hi, p_lo = (table[16 - e] for table in powers)
    p = a * p10
    a_hi, a_lo = _split(a)
    err = ((a_hi * p_hi - p) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def _encode(x, first, ncols):
    """The CSV bytes of the flat entries *x* of a matrix with *ncols*
    columns, x[0] being its entry number *first*.

    An entry is either zero or nonzero with |x| in [1e-4, 1e17), where
    '%.17g' writes fixed notation and the text is built here, or else it
    is formatted by '%.17g' itself, in one call for the chunk. Each entry
    gets a row of _SLOT bytes, and one mask picks the bytes that count.
    """
    powers, quads, significant, prefix, keep = _tables()
    n = x.size
    a = np.abs(x)
    zero = a == 0
    fast = (a >= 1e-4) & (a < 1e17)
    a = np.where(fast, a, 1.0)  # stands in where the digits are not used
    # Exponent e of the leading digit: estimate, then step each entry
    # whose 17 digits come out short or long, a rounding carry included,
    # toward it. log10 misses by at most one, next to a power of ten.
    e = np.clip(np.floor(np.log10(a)).astype(np.int64), -4, 16)
    digits = _digits(a, e, powers)
    while True:
        up = digits >= 10**17
        wrong = np.flatnonzero(up | (digits < 10**16))
        if not wrong.size:
            break
        e[wrong] += np.where(up[wrong], 1, -1)
        digits[wrong] = _digits(a[wrong], e[wrong], powers)
    digits[zero] = 0
    e[zero] = 0

    # Columns 3-6 hold "0000", column 7 the leading digit d0 and columns
    # 8-23 the other sixteen, in groups of four.
    high, low = np.divmod(digits, 10**8)
    h, g2 = np.divmod(high.astype(np.uint32), 10000)
    d0, g1 = np.divmod(h, 10000)
    g3, g4 = np.divmod(low.astype(np.uint32), 10000)
    words = np.zeros((n, _SLOT // 4), "<u4")
    words[:, 0] = 0x30000000  # column 3: "0"
    words[:, 1] = 0x30303030 + (d0 << 24)  # columns 4-6: "000"; 7: d0
    for k, g in enumerate((g1, g2, g3, g4), start=2):
        words[:, k] = quads[g]
    # Significant digits, trailing zeros stripped: 0 for zero.
    sig = 13 + significant[g4]
    rest = np.flatnonzero(g4 == 0)
    for g, before in ((g3, 9), (g2, 5), (g1, 1)):
        sig[rest] = before + significant[g[rest]]
        rest = rest[g[rest] == 0]
    sig[rest] = d0[rest] != 0

    # The point goes in column e + 8: the columns before it keep their
    # byte and the ones after take their left neighbour's. Fixed notation
    # is then columns start..end-1: the digits through d_e (or, for e < 0,
    # the "0" in column e + 7), the point and the fraction, after a "-"
    # in column start for a negative entry.
    unshifted = words.view("<u8").reshape(-1)
    shifted = unshifted << np.uint64(8)
    shifted[1:] |= unshifted[:-1] >> np.uint64(56)  # column 31 is 0
    point = e + 8
    shifted ^= (unshifted ^ shifted) & prefix[point].reshape(-1)
    text = shifted.view(np.uint8)
    rows = np.arange(0, n * _SLOT, _SLOT)
    text[rows + point] = ord(".")
    negative = np.signbit(x)
    start = np.minimum(e + 7, 7) - negative
    text[(rows + start)[negative]] = ord("-")
    end = np.where(sig <= e + 1, point, sig + 8)  # an integer drops its point

    slow = np.flatnonzero(~(fast | zero))
    if slow.size:
        formatted = ("%.17g," * slow.size % tuple(x[slow].tolist())).split(",")[:-1]
        formatted = np.array(formatted, dtype=f"S{_SLOT}").view(np.uint8).reshape(-1, _SLOT)
        text.reshape(n, _SLOT)[slow] = formatted
        start[slow] = 0
        end[slow] = np.count_nonzero(formatted, axis=1)
    text[rows + end] = np.where((first + 1 + np.arange(n)) % ncols, ord(","), ord("\n"))
    return text[keep[start * _SLOT + end].view(bool).reshape(-1)]


@contextmanager
def _replacing(path):
    """Yield a binary file to write *path* through: a new temporary file
    beside it, moved onto *path* when the block succeeds and removed when
    it raises, so *path* holds its old bytes or all of the new ones."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    f = open(temp, "xb")
    try:
        with f:
            yield f
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def save_text(text, path):
    """Write a str to *path* as UTF-8, replacing the file in one step."""
    with _replacing(path) as f:
        f.write(text.encode())


def save_json(obj, path):
    """Write JSON deterministically: 2-space indent, trailing newline,
    non-finite floats rejected rather than emitted as bare NaN/Infinity."""
    save_text(json.dumps(obj, indent=2, allow_nan=False) + "\n", path)


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
