"""Matrix CSV and JSON manifest I/O.

The one matrix interchange format is headerless CSV: one row per line,
values comma-separated and written as ``'%.17g' % x`` writes them, so a
save/load round trip is bitwise exact for float64. ``save_matrix`` makes
those bytes with numpy arithmetic, a fixed number of entries at a time,
not by formatting one value at a time. ``load_matrix`` decodes plain
decimal tokens with numpy arithmetic too, a fixed number of bytes at a
time, into the doubles ``float()`` reads from them; it leaves every
other token to ``float()``, and every error to a line-by-line reader.

Every file is written to a temporary file beside its target and then
moved onto it with ``os.replace``. A write that fails or is interrupted
leaves the old target, or none, and no temporary file.
"""

import json
import math
import os
import sys
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
# Bytes of file text that load_matrix decodes at once, so that its
# temporaries have a fixed size whatever the file's shape. At 64 KiB the
# largest stays below glibc's default 128 KiB mmap threshold, so a block
# reuses heap memory instead of mapping and faulting in fresh pages.
_BLOCK = 1 << 16
# Columns that hold a token's mantissa, point included, when load_matrix
# decodes it: three groups of eight digits. Each block is read after
# _PAD, so that every token has _MANT bytes before its end.
_MANT = 24
_PAD = b"0" * _MANT
_ROWS = np.arange(_MANT, dtype=np.uint8)
# 10**j for j <= 27: exact long doubles, as 5**27 < 2**63, and for
# j <= 22 exact doubles too, as 5**22 < 2**53. Both codecs read it.
_POW10 = np.cumprod([1] + [10] * 27, dtype=np.longdouble)
# _decode's certificate needs x87 extended precision: a little-endian
# long double with a 64-bit significand, whose arithmetic rounds to it,
# in 16 bytes, as _decode reads the low word as every other uint64.
_DECODER = (
    sys.byteorder == "little"
    and np.finfo(np.longdouble).nmant == 63
    and np.dtype(np.longdouble).itemsize == 16
    and np.longdouble(1) + np.longdouble(2.0**-63) != 1
)


def _split(a):
    """Veltkamp's split of float64 *a* into hi + lo == a exactly, each
    with at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


# The tables of _encode, built once at import. 10**j for j <= 22 as
# doubles, and its split.
_P10 = _POW10[:23].astype(np.float64)
_POWERS = (_P10, *_split(_P10))
# The ASCII of "%04d" % g for g < 10000 as little-endian uint32, and its
# length with trailing zeros stripped.
_G = np.arange(10000)
_QUADS = (_G[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8).view("<u4").ravel()
_SIGNIFICANT = 4 - sum(_G % 10**k == 0 for k in range(1, 5))
# Per column p, byte 0xFF in the columns before p, 0 elsewhere; and per
# start * _SLOT + end, byte 1 in columns start..end, 0 elsewhere.
_COLS = np.arange(_SLOT)
_PREFIX = np.where(_COLS < _COLS[:, None], np.uint8(255), np.uint8(0)).view("<u8")
_KEEP = ((_COLS >= _COLS[:, None, None]) & (_COLS <= _COLS[:, None])).reshape(-1, _SLOT).view("<u8")


def load_matrix(path):
    """Read a headerless CSV matrix: the doubles that float() reads from
    its tokens, decoded by _decode where it can and else by _read_lines.

    Raises ParseError (with 1-based line/column where known) on empty
    files, ragged rows, and tokens that are not finite decimal numbers.
    Errors are reported in file order: the first line that fails, and
    within it the first bad token. Lines end at "\n", "\r\n" or "\r".
    A byte that is not UTF-8 is read as a lone surrogate, which no number
    contains, so it is reported as an invalid token at its line and column.
    """
    # The line loop reads again what _decode hands back, so _decode takes
    # only a regular file: a pipe could not be read twice.
    m = _decode(path) if _DECODER and os.path.isfile(path) else None
    return _read_lines(path) if m is None else m


def _read_lines(path):
    """load_matrix by the line loop, for what _decode hands back; it raises
    every ParseError. A line that float() refuses or whose sum is not
    finite is scanned for its first token that is not a finite number."""
    values = array("d")
    width = None
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
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
            # whose sum overflows, which the scan lets through.
            if row is None or not math.isfinite(sum(row)):
                for colno, token in enumerate(tokens, start=1):
                    try:
                        bad = None if math.isfinite(float(token)) else "non-finite value"
                    except ValueError:
                        bad = "invalid number"
                    if bad:
                        raise ParseError(
                            f"{path}: line {lineno}, column {colno}: {bad} {token.strip()!r}",
                            line=lineno,
                            column=colno,
                        )
            values.extend(row)
    if width is None:
        raise ParseError(f"{path}: empty matrix file")
    return np.frombuffer(values).reshape(-1, width)


def _decode(path):
    """load_matrix's matrix, read by _decode_tokens one block of whole
    tokens at a time; or None, for _read_lines to read, where the file is
    empty, a line is ragged or _decode_tokens hands a block back."""
    values = array("d")
    width = None
    line = 0  # tokens so far in the line that a block leaves unfinished
    tail = b""
    with open(path, "rb") as f:
        while True:
            # Reading at least as much as is carried keeps a token longer
            # than a block linear to read.
            chunk = f.read(_BLOCK + len(tail))
            if not chunk:
                if not (tail or line):
                    break
                chunk = b"\n"  # the last line ends at the end of the file
            text = _PAD + tail + chunk
            cut = max(text.rfind(b","), text.rfind(b"\n")) + 1
            tail = text[max(cut, _MANT) :]
            if not cut:
                continue
            b = np.frombuffer(text, np.uint8, cut)
            sep = np.flatnonzero((b == ord(",")) | (b == ord("\n")))
            ends = np.flatnonzero(b[sep] == ord("\n"))
            if ends.size:
                first = line + ends[0] + 1  # tokens of the line the block ends first
                width = width or first
                if first != width or (ends[1:] - ends[:-1] != width).any():
                    return None
                line = sep.size - 1 - ends[-1]
            else:
                line += sep.size
            x = _decode_tokens(text, b, sep)
            if x is None:
                return None
            values.frombytes(x.view(np.uint8))
    return None if width is None else np.frombuffer(values).reshape(-1, width)


def _decode_tokens(text, b, sep):
    """float(token) for the tokens of the bytes *text*, as float64; or
    None, for _read_lines to read the file from its start, where a token
    is empty, holds a "\\r" (which ends a line there) or a byte that is
    not ASCII, or is one that float() rejects or reads as non-finite. So
    every value, error, line and column is the line loop's. *b* is *text*
    as uint8: _MANT bytes of _PAD, then tokens, each ending at a
    separator in *sep*.

    A plain decimal token, -?D*[.D*][(e|E)[+-]D+] with D a digit and one
    at least before the exponent, is an integer M, its mantissa's digits
    with the point dropped, times 10**q, q its exponent less the digits
    after the point. For M < 2**64 and |q| <= 27, M and 10**|q| are
    exact long doubles, so X = M * 10**q, or M / 10**-q, is the token's
    value x rounded once to long double. The double nearest X is then
    the double nearest x, which float() gives, unless X is a midpoint m
    of two adjacent doubles. Each such m has 54 significant bits, so it
    is a long double, and rounding is monotone: x < m gives X <= m, and
    x > m gives X >= m. So an X strictly between two adjacent midpoints
    has its x between them too, and both round to the one double there.
    A midpoint's low 11 bits of 64 are 0x400. Such tokens, those with a
    larger M or |q|, a mantissa wider than _MANT bytes or more than four
    exponent digits, and those outside the grammar go to float().
    """
    start = np.empty_like(sep)
    start[0] = _MANT
    start[1:] = sep[:-1] + 1
    if (start == sep).any():
        return None
    negative = b[start] == ord("-")
    # The mantissa ends at an "e" or "E" if there is one. In a token with
    # two it ends at the second, and then fails the digit test.
    e_at = np.flatnonzero((b | 32) == ord("e"))
    e_tok = np.searchsorted(sep, e_at)
    mend = sep.copy()
    mend[e_tok] = e_at
    size = mend - start - negative
    cols = _columns(b, mend, size, _MANT)
    # Drop the point, whose byte XOR "0" is 30: the columns before it
    # move one to the right. In a token with two, one stays and fails the
    # digit test.
    drop = ((cols == 30) * (_ROWS + 1)[:, None]).max(0)
    cols[1:] -= (cols[1:] - cols[:-1]) * (_ROWS[1:, None] < drop)
    cols[0] *= drop == 0
    ok = (size <= _MANT) & (size > (drop > 0)) & ~(cols > 9).any(0)
    # M's three groups of eight digits, made pairwise: digit pairs, then
    # groups of four, then of eight.
    pairs = cols[0::2] * np.uint8(10) + cols[1::2]
    quads = pairs[0::2].astype(np.uint16) * 100 + pairs[1::2]
    groups = quads[0::2].astype(np.uint64) * 10000 + quads[1::2]
    ok &= groups[0] < 1844  # M < 2**64
    q = np.where(drop > 0, drop.astype(np.int64) - _MANT, 0)
    if e_at.size:
        sign = b[e_at + 1]
        end = sep[e_tok]
        digits = end - e_at - 1 - ((sign == ord("+")) | (sign == ord("-")))
        cols = _columns(b, end, digits, 4)
        ok[e_tok] &= (digits > 0) & (digits <= 4) & ~(cols > 9).any(0)
        pairs = cols[0::2] * np.uint8(10) + cols[1::2]
        exp = pairs[0].astype(np.int64) * 100 + pairs[1]
        q[e_tok] += np.where(sign == ord("-"), -exp, exp)
    ok &= np.abs(q) <= 27
    q[~ok] = 0
    x = (groups[0] * 10**16 + groups[1] * 10**8 + groups[2]).astype(np.longdouble)
    np.multiply(x, _POW10[q], out=x, where=q > 0)
    np.divide(x, _POW10[-q], out=x, where=q < 0)
    ok &= x.view(np.uint64)[::2] & 0x7FF != 0x400
    d = x.astype(np.float64)
    np.negative(d, out=d, where=negative)
    slow = np.flatnonzero(~ok)
    if slow.size:
        tokens = b",".join([text[i:j] for i, j in zip(start[slow].tolist(), sep[slow].tolist())])
        if b"\r" in tokens or not tokens.isascii():
            return None
        try:
            d[slow] = list(map(float, tokens.decode().split(",")))
        except ValueError:
            return None
        if not np.isfinite(d[slow]).all():
            return None
    return d


def _columns(b, end, count, width):
    """The *count* bytes of *b* before each index in *end*, right-aligned
    in *width* columns, as a (width, len(end)) array: each byte XOR "0",
    which maps the digits to 0-9 and every other byte above 9, and 0 in
    the columns before the bytes."""
    first = end - width
    cols = np.empty((width, end.size), np.uint8)
    for c in range(width):
        b[c:].take(first, out=cols[c])
    cols ^= ord("0")
    cols *= _ROWS[:width, None] >= (width - np.minimum(count, width)).astype(np.uint8)
    return cols


def save_matrix(m, path):
    """Write a matrix as headerless CSV: the bytes of
    ``"".join(",".join("%.17g" % x for x in row) + "\n" for row in m)``."""
    m = as_matrix(m, "matrix")
    with _replacing(path) as f:
        for first in range(0, m.size, _CHUNK):
            f.write(_encode(m.flat[first : first + _CHUNK], first, m.shape[1]))


def _digits(a, e):
    """round_half_even(a * 10**(16 - e)) as int64, for 0 <= 16 - e <= 22.

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
    p10, p_hi, p_lo = (table[16 - e] for table in _POWERS)
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
    n = x.size
    a = np.abs(x)
    zero = a == 0
    fast = (a >= 1e-4) & (a < 1e17)
    a = np.where(fast, a, 1.0)  # stands in where the digits are not used
    # Exponent e of the leading digit: estimate, then step each entry
    # whose 17 digits come out short or long, a rounding carry included,
    # toward it. log10 misses by at most one, next to a power of ten.
    e = np.clip(np.floor(np.log10(a)).astype(np.int64), -4, 16)
    digits = _digits(a, e)
    while True:
        up = digits >= 10**17
        wrong = np.flatnonzero(up | (digits < 10**16))
        if not wrong.size:
            break
        e[wrong] += np.where(up[wrong], 1, -1)
        digits[wrong] = _digits(a[wrong], e[wrong])
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
        words[:, k] = _QUADS[g]
    # Significant digits, trailing zeros stripped: 0 for zero.
    sig = 13 + _SIGNIFICANT[g4]
    rest = np.flatnonzero(g4 == 0)
    for g, before in ((g3, 9), (g2, 5), (g1, 1)):
        sig[rest] = before + _SIGNIFICANT[g[rest]]
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
    shifted ^= (unshifted ^ shifted) & _PREFIX.take(point, axis=0).reshape(-1)
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
    seps = np.full(n, ord(","), np.uint8)
    seps[(-first - 1) % ncols :: ncols] = ord("\n")  # entries that end a row
    text[rows + end] = seps
    return text[_KEEP.take(start * _SLOT + end, axis=0).view(bool).reshape(-1)]


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
        with open(path, encoding="utf-8") as f:
            text = f.read()
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
