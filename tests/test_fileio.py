"""CSV matrix format and JSON file round trips."""

import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from palmnmf import (
    ParseError,
    fileio,
    load_matrix,
    save_matrix,
)
from palmnmf.fileio import save_json


def load_matrix_oracle(path):
    """Reference parser: the package's token-by-token reader, kept as the
    oracle for load_matrix's values and its ParseError contract."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
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


def parse_outcome(parse, path):
    """What a parser makes of a file: its array's shape and bytes, or its
    ParseError's message, line and column."""
    try:
        m = parse(path)
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.column)
    return ("array", m.dtype, m.shape, m.tobytes())


def save_matrix_oracle(m):
    """The bytes save_matrix must write: one row per line, values as %.17g."""
    return "".join(",".join("%.17g" % x for x in row) + "\n" for row in m)


# Pieces of CSV text, each drawn as a unit: every character the format
# uses, the words float() takes for non-finite values, and a blank line.
CSV_PIECES = list("0123456789.e+-,_ \r\n") + ["inf", "nan", "\n\n"]
TOKEN_PIECES = [p for p in CSV_PIECES if p not in (",", "\r", "\n", "\n\n")]

csv_noise = st.lists(st.sampled_from(CSV_PIECES), max_size=40).map("".join)
csv_token = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["inf", "-inf", " nan", "1e999", "1e308", "-1e308"]),
    st.lists(st.sampled_from(TOKEN_PIECES), min_size=1, max_size=6).map("".join),
)
csv_rows = st.integers(1, 4).flatmap(
    lambda width: st.lists(
        st.one_of(st.lists(csv_token, min_size=width, max_size=width).map(",".join), csv_noise),
        min_size=1,
        max_size=6,
    )
)
csv_matrix = st.tuples(csv_rows, st.sampled_from(["\n", "\r\n", "\r"]), st.sampled_from(["", "\n"])).map(
    lambda t: t[1].join(t[0]) + t[2]
)


class TestLoadMatrix:
    def test_format_definition(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("1,2\n3,4\n")
        np.testing.assert_array_equal(load_matrix(f), [[1.0, 2.0], [3.0, 4.0]])

    def test_scientific_notation_and_negatives(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("-1.5e-3,2E+10\n")
        np.testing.assert_array_equal(load_matrix(f), [[-1.5e-3, 2e10]])

    def test_ragged_row_names_line(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("1,2\n3\n")
        with pytest.raises(ParseError, match="line 2") as exc_info:
            load_matrix(f)
        assert exc_info.value.line == 2

    def test_non_numeric_token_names_line_and_column(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("1,2\n3,abc\n")
        with pytest.raises(ParseError, match="line 2, column 2") as exc_info:
            load_matrix(f)
        assert (exc_info.value.line, exc_info.value.column) == (2, 2)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("")
        with pytest.raises(ParseError, match="empty"):
            load_matrix(f)

    def test_non_finite_token_rejected(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("1,nan\n")
        with pytest.raises(ParseError) as exc_info:
            load_matrix(f)
        assert exc_info.value.column == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_matrix(tmp_path / "nope.csv")

    def test_first_error_in_file_order(self, tmp_path):
        f = tmp_path / "m.csv"
        cases = [
            ("1,2\n3,nan\n4\n", "line 2, column 2: non-finite"),
            ("1,2\nx,inf\n", "line 2, column 1: invalid"),
            ("1,2\n3\nx,4\n", "line 2: expected 2 values, got 1"),
            ("1e308,1e308\n5,\n", "line 2, column 2: invalid number ''"),
        ]
        for text, message in cases:
            f.write_text(text)
            with pytest.raises(ParseError, match=message):
                load_matrix(f)

    def test_bad_utf8_byte_names_file_line_and_column(self, tmp_path):
        # Far enough into the file that a position counted from the start
        # of a read buffer would differ from one counted from the file's.
        f = tmp_path / "bad.csv"
        f.write_bytes(b"1.5,2.5,3.5\n" * 5000 + b"4,5\xff,6\n7,8,9\n")
        with pytest.raises(ParseError) as info:
            load_matrix(f)
        assert (info.value.line, info.value.column) == (5001, 2)
        assert str(info.value).startswith(f"{f}: line 5001, column 2: invalid number")

    def test_lines_end_only_at_newline_and_carriage_return(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("1\r2\r\n3\n")
        np.testing.assert_array_equal(load_matrix(f), [[1.0], [2.0], [3.0]])
        # str.splitlines would also break at these; here each stays inside
        # its token.
        for sep in "\f\v\x1c\x1d\x1e\x85\u2028\u2029":
            f.write_text(f"1{sep}2\n", encoding="utf-8")
            with pytest.raises(ParseError, match="line 1, column 1: invalid number"):
                load_matrix(f)

    def test_reads_utf8_whatever_the_locale(self, tmp_path, cli_env):
        """Under the C locale, where open() would decode ASCII, files are
        still read as UTF-8, and a byte that is not UTF-8 is reported as
        a lone surrogate."""
        digit, byte, spec = tmp_path / "digit.csv", tmp_path / "byte.csv", tmp_path / "spec.json"
        digit.write_bytes("\u0661,2\n".encode())
        byte.write_bytes(b"1,\xff\n")
        spec.write_bytes(b'"\xff"')
        script = (
            "import sys\n"
            "from palmnmf.fileio import load_json, load_matrix\n"
            "print(load_matrix(sys.argv[1]).tolist())\n"
            "for read, path in ((load_matrix, sys.argv[2]), (load_json, sys.argv[3])):\n"
            "    try:\n"
            "        read(path)\n"
            "    except ValueError as exc:\n"
            "        print(ascii(str(exc)))\n"
        )
        env = {**cli_env, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        result = subprocess.run(
            [sys.executable, "-c", script, str(digit), str(byte), str(spec)], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        matrix, byte_error, spec_error = result.stdout.splitlines()
        assert matrix == "[[1.0, 2.0]]"
        assert byte_error == ascii(f"{byte}: line 1, column 2: invalid number '\\udcff'")
        assert "'utf-8' codec can't decode byte 0xff" in spec_error

    def test_wide_first_line_is_a_ragged_row(self, tmp_path):
        # 200 001 values on the first line and as many lines: sizing the
        # array from the first line alone would ask for 320 GB.
        f = tmp_path / "m.csv"
        f.write_text("0," * 200_000 + "0\n" + "0\n" * 200_000)
        with pytest.raises(ParseError, match="line 2: expected 200001 values, got 1"):
            load_matrix(f)

    @given(csv_matrix)
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_parser(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.csv"
            path.write_text(text)
            assert parse_outcome(load_matrix, path) == parse_outcome(load_matrix_oracle, path)


class TestSaveMatrix:
    def test_one_by_one(self, tmp_path):
        f = tmp_path / "m.csv"
        save_matrix(np.array([[0.0]]), f)
        assert f.read_text() == "0\n"

    def test_column_vector(self, tmp_path):
        f = tmp_path / "m.csv"
        save_matrix(np.array([[1.0], [2.0]]), f)
        assert f.read_text() == "1\n2\n"

    def test_seventeen_significant_digits(self, tmp_path):
        f = tmp_path / "m.csv"
        save_matrix(np.array([[np.pi]]), f)
        assert f.read_text() == "3.1415926535897931\n"

    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(42)
        f = tmp_path / "m.csv"
        for _ in range(5):
            m = rng.standard_normal((3, 3)) * 10.0 ** rng.integers(-200, 200)
            save_matrix(m, f)
            back = load_matrix(f)
            np.testing.assert_array_equal(back, m)

    def test_rejects_non_finite(self, tmp_path):
        with pytest.raises(ValueError):
            save_matrix(np.array([[np.inf]]), tmp_path / "m.csv")

    @pytest.mark.parametrize(
        "m",
        [
            [[-0.0, 5e-324, -5e-324], [1.7976931348623157e308, -1.7976931348623157e308, 1e-300]],
            [[0.0, 1.0, -2.0], [1e17, 123456789.0, -1e22]],
            [[np.pi]],
            [[0.1], [-2.5e-310], [3.0]],
        ],
        ids=["extremes", "integral", "1x1", "column"],
    )
    def test_bytes_and_bitwise_round_trip(self, tmp_path, m):
        m = np.array(m)
        f = tmp_path / "m.csv"
        save_matrix(m, f)
        assert f.read_bytes() == save_matrix_oracle(m).encode()
        assert load_matrix(f).tobytes() == m.tobytes()


# Entries of any finite bit pattern; entries that the encoder leaves to
# '%.17g' itself (nonzero with |x| < 1e-4 or |x| >= 1e17); and entries
# drawn by hypothesis's float strategy, which favours edge values.
any_finite = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]).filter(math.isfinite)
formatted_by_python = st.one_of(
    st.floats(min_value=1e17, allow_infinity=False),
    st.floats(max_value=-1e17, allow_infinity=False),
    st.floats(min_value=-1e-4, max_value=1e-4, exclude_min=True, exclude_max=True).filter(bool),
)
matrix_entries = st.sampled_from([any_finite, formatted_by_python, st.floats(allow_nan=False, allow_infinity=False)])


def powers_of_ten_and_neighbours():
    for e in range(-6, 19):
        p = float(f"1e{e}")
        yield from (np.nextafter(p, 0), p, np.nextafter(p, np.inf))


# Values where a wrong exponent, a wrong rounding or a wrong layout shows.
# 1 + j * 2**-17 and 100 + j * 2**-15 are exact halfway cases for odd j;
# 100 + j * 2**-12 has 15 significant digits, so it needs no rounding.
BATTERIES = {
    "powers-of-ten": list(powers_of_ten_and_neighbours()),
    "ties-at-one": [1 + j * 2.0**-17 for j in range(4096)],
    "hundred-plus-2^-12": [100 + j * 2.0**-12 for j in range(4096)],
    "ties-at-hundred": [100 + j * 2.0**-15 for j in range(4096)],
    "domain-edges": [9.9999999999999995e-5, 1e-4, 99999999999999984.0, 1e17, 0.0, -0.0],
    "integers-around-2^53": [float(2**53 + k) for k in range(-64, 65)] + [float(10**16 + k) for k in range(-64, 65)],
}


class TestEncoder:
    """save_matrix's bytes against save_matrix_oracle, the per-value
    '%.17g' join it replaces."""

    @staticmethod
    def assert_matches_oracle(m, path):
        save_matrix(m, path)
        assert path.read_bytes() == save_matrix_oracle(m).encode()

    @given(
        m=st.tuples(st.integers(1, 6), st.integers(1, 8), matrix_entries).flatmap(
            lambda t: arrays(np.float64, t[:2], elements=t[2])
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_any_finite_matrix(self, m):
        with tempfile.TemporaryDirectory() as tmp:
            self.assert_matches_oracle(m, Path(tmp) / "m.csv")

    @pytest.mark.parametrize("battery", BATTERIES.values(), ids=list(BATTERIES))
    def test_battery(self, tmp_path, battery):
        values = np.array(battery)
        for m in (values[None, :], -values[:, None]):
            self.assert_matches_oracle(m, tmp_path / "m.csv")

    @pytest.mark.parametrize(
        "rows, cols",
        [
            (1, 2 * fileio._CHUNK + 3),
            (2 * fileio._CHUNK + 3, 1),
            (1, fileio._CHUNK - 1),
            (2, fileio._CHUNK // 2),
            (fileio._CHUNK + 1, 1),
            (3, (fileio._CHUNK - 1) // 3),
        ],
        ids=["wide-row", "tall-column", "chunk-1", "chunk", "chunk+1", "three-rows-chunk-1"],
    )
    def test_shapes_across_chunks(self, tmp_path, rows, cols):
        # Magnitudes from 1e-8 to 1e20, either sign, and zeros: both the
        # numpy text and '%.17g' on each side of each chunk boundary.
        rng = np.random.default_rng(rows * 7 + cols)
        m = rng.choice([-1.0, 0.0, 1.0, 1.0], (rows, cols)) * 10.0 ** rng.uniform(-8, 20, (rows, cols))
        self.assert_matches_oracle(m, tmp_path / "m.csv")


def decode_column(path, tokens):
    """The bit patterns of the doubles load_matrix's decoder reads from
    *tokens*, one per line, and of those float() reads from them."""
    path.write_text("\n".join(tokens) + "\n")
    m = fileio._decode(path)
    assert m is not None  # decoded, not handed to the line loop
    return m.ravel().view(np.uint64), np.array([float(t) for t in tokens]).view(np.uint64)


def with_negatives(tokens):
    return tokens + ["-" + t for t in tokens if not t.startswith("-")]


# Tokens where a decoding error would show. An exact decimal midpoint of
# two doubles rounds to even. A false midpoint is not one, but rounds to
# one in long double, so a cast of that long double would round it the
# wrong way.
DECODER_CASES = {
    "exact-midpoints": ["9007199254740993", "9007199254740993.0", "900719925474099.3e1", str(2**60 + 128)],
    "false-midpoints": ["14757395258967649485e1", "14757395258967652761e1", "11805916207174916506e2"],
    "19-20-digits": [
        "1234567890123456789",
        "12345678901234567890",
        "0.12345678901234567891",
        "18439999999999999999",
        "18440000000000000000",
        "18450000000000000000",
        str(2**64 - 1),
        str(2**64),
        str(2**64 + 1),
        "1.8446744073709551615e19",
    ],
    "q-27-28": ["1e27", "1e28", "1e-27", "1e-28", "123456789e18", "123456789e19", "1.5e-26", "1.5e-27"],
    "forms": ["0", "-0", "0.0", "-0.0", "000123.4500", ".5", "5.", "-.5", "-5.", "0" * 23 + "1", "0." + "0" * 21 + "1"],
    "exponents": ["1e5", "1E5", "1e+5", "1e-5", "1e05", "1e-05", "1e005", "1e0005", "1e-0005", "1.5E+0010", "1e00005"],
    "beyond-q": ["1.7976931348623157e308", "4.9406564584124654e-324", "2.2250738585072014e-308", "1e-300"],
}

# Doubles as '%.17g', repr and '%.{p}e' write them, and plain decimal
# tokens, some wider than the decoder takes; all of finite value.
formatted_doubles = st.tuples(
    st.sampled_from(["%.17g", "%r", *(f"%.{p}e" for p in range(20))]),
    st.floats(allow_nan=False, allow_infinity=False),
).map(lambda t: t[0] % t[1])
digit_strings = st.from_regex(r"\A-?[0-9]{0,25}(\.[0-9]{0,25})?([eE][+-]?[0-9]{1,5})?\Z").filter(
    lambda t: any(c.isdigit() for c in t.lower().split("e")[0])
)
finite_tokens = st.one_of(formatted_doubles, digit_strings).filter(lambda t: math.isfinite(float(t)))


@pytest.mark.skipif(not fileio._DECODER, reason="long double is not the x87 format; load_matrix runs the line loop")
class TestDecoderValues:
    """The decoder's doubles, bitwise against float()."""

    def test_low_significand_words_are_every_other_uint64(self):
        # _decode reads each long double's low 64 bits so; the layout is
        # the 16-byte one that _DECODER requires.
        x = np.array([1.0, 3.0, 2.0**63], dtype=np.longdouble)
        x[2] += 1
        assert x.view(np.uint64)[::2].tolist() == [2**63, 3 * 2**62, 2**63 + 1]

    @pytest.mark.parametrize("tokens", DECODER_CASES.values(), ids=list(DECODER_CASES))
    def test_cases(self, tmp_path, tokens):
        got, want = decode_column(tmp_path / "m.csv", with_negatives(tokens))
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("battery", BATTERIES.values(), ids=list(BATTERIES))
    def test_encoder_batteries_round_trip(self, tmp_path, battery):
        m = np.array(battery + [-x for x in battery])[:, None]
        save_matrix(m, tmp_path / "m.csv")
        assert fileio._decode(tmp_path / "m.csv").tobytes() == m.tobytes()

    @given(st.lists(finite_tokens, min_size=1, max_size=50))
    @settings(max_examples=300, deadline=None)
    def test_random_tokens(self, tokens):
        with tempfile.TemporaryDirectory() as tmp:
            got, want = decode_column(Path(tmp) / "m.csv", tokens)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "token, by_float",
        [
            ("9007199254740992", False),
            ("9007199254740993", True),  # an exact midpoint
            ("14757395258967649485e1", True),  # a false midpoint
            ("18439999999999999999", False),
            ("18440000000000000000", True),  # M may reach 2**64
            ("1e27", False),
            ("1e-27", False),
            ("1e28", True),
            ("1e-28", True),
            ("1e-0005", False),
            ("1e00005", True),  # five exponent digits
            ("0" * 23 + "1", False),
            ("0" * 24 + "1", True),  # wider than the mantissa window
            ("." + "0" * 22 + "1", False),  # as wide, its point first
            (" 1", True),  # outside the grammar
            ("+1", True),
            ("1_0", True),
        ],
    )
    def test_tokens_float_reads(self, tmp_path, monkeypatch, token, by_float):
        calls = []

        def counted(text):
            calls.append(text)
            return float(text)

        monkeypatch.setattr(fileio, "float", counted, raising=False)
        got, want = decode_column(tmp_path / "m.csv", [token, "2.5"])
        np.testing.assert_array_equal(got, want)
        assert calls == ([token] if by_float else [])


# Inputs whose lines, tokens or bytes the decoder hands back or cuts
# across blocks.
STRUCTURES = {
    "tokens": "1.25,-3.5e-7,42\n0.1,2,3\n" * 5,
    "wide-line": ",".join(["1.5"] * 40) + "\n" + ",".join(["-2"] * 40) + "\n",
    "wide-first-line-ragged": ",".join(["0"] * 40) + "\n" + "0\n" * 40,
    "ragged-late": "1,2\n" * 30 + "3\n",
    "no-final-newline": "1,2\n3,4",
    "trailing-comma": "1,2\n3,",
    "blank-line": "1\n\n2\n",
    "empty": "",
    "cr": "1\r2\r\n3\n",
    "cr-in-token": "0.0\r\r",
    "cr-at-end": "1,2\n3,4\r",
    "cr-at-start": "\r1\n",
    "non-ascii-digit": "1,\u0661\n",
    "no-break-space": "1,\u00a02\n",
    "non-ascii-letter": "1,2\n3,\u00e9\n",
    "non-finite": "1,2\n3,inf\n",
    "overflowing-sum": "1e308,1e308\n",
}


class TestDecoderStructure:
    """load_matrix against load_matrix_oracle, with blocks cut small and
    the decoder on and off."""

    @pytest.mark.parametrize("decoder", [True, False], ids=["decoder", "line-loop"])
    @pytest.mark.parametrize("block", [1, 2, 3, 7, 64, fileio._BLOCK])
    @pytest.mark.parametrize("text", STRUCTURES.values(), ids=list(STRUCTURES))
    def test_matches_reference_parser(self, tmp_path, monkeypatch, text, block, decoder):
        monkeypatch.setattr(fileio, "_BLOCK", block)
        monkeypatch.setattr(fileio, "_DECODER", decoder)
        path = tmp_path / "m.csv"
        path.write_text(text, encoding="utf-8")
        assert parse_outcome(load_matrix, path) == parse_outcome(load_matrix_oracle, path)

    @pytest.mark.parametrize("block", [1, 5, fileio._BLOCK])
    def test_bad_utf8_byte_as_without_decoder(self, tmp_path, monkeypatch, block):
        path = tmp_path / "m.csv"
        path.write_bytes(b"1.5,2.5,3.5\n" * 20 + b"4,5\xff,6\n")
        monkeypatch.setattr(fileio, "_BLOCK", block)
        decoded = parse_outcome(load_matrix, path)
        monkeypatch.setattr(fileio, "_DECODER", False)
        assert decoded == parse_outcome(load_matrix, path)
        assert decoded[2:] == (21, 2)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    @pytest.mark.parametrize("text", [b"1,2\n3,4\n", b"1,2\r\n3,4\r\n"], ids=["lf", "crlf"])
    def test_pipe_is_read_once(self, text):
        # A pipe cannot be read again, so the line loop reads it, even
        # where the decoder would hand the file back.
        r, w = os.pipe()
        os.write(w, text)
        os.close(w)
        try:
            np.testing.assert_array_equal(load_matrix(f"/dev/fd/{r}"), [[1.0, 2.0], [3.0, 4.0]])
        finally:
            os.close(r)

    @given(csv_matrix, st.integers(1, 40))
    @settings(max_examples=300, deadline=None)
    def test_random_files_in_small_blocks(self, text, block):
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(fileio, "_BLOCK", block):
            path = Path(tmp) / "m.csv"
            path.write_text(text)
            assert parse_outcome(load_matrix, path) == parse_outcome(load_matrix_oracle, path)


class TestReplacingWrites:
    """A write that fails leaves the old target, or none, and no
    temporary file."""

    @pytest.mark.parametrize("old", [None, b"old bytes\n"], ids=["no-target", "old-target"])
    @pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
    def test_save_matrix_failing_mid_write(self, tmp_path, monkeypatch, old, exc):
        target = tmp_path / "m.csv"
        if old is not None:
            target.write_bytes(old)
        encode = fileio._encode
        calls = []

        def encode_then_fail(*args):
            calls.append(args)
            if len(calls) == 2:
                raise exc("interrupted")
            return encode(*args)

        monkeypatch.setattr(fileio, "_encode", encode_then_fail)
        with pytest.raises(exc):
            save_matrix(np.ones((2, fileio._CHUNK)), target)
        assert len(calls) == 2  # the first chunk was written
        assert sorted(p.name for p in tmp_path.iterdir()) == ([] if old is None else ["m.csv"])
        if old is not None:
            assert target.read_bytes() == old

    def test_save_json_failing_to_replace(self, tmp_path, monkeypatch):
        target = tmp_path / "a.json"
        target.write_text("old\n")

        def fail(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(fileio.os, "replace", fail)
        with pytest.raises(OSError, match="no space"):
            save_json({"x": 1}, target)
        assert [p.name for p in tmp_path.iterdir()] == ["a.json"]
        assert target.read_text() == "old\n"

    def test_replaces_existing_target(self, tmp_path):
        target = tmp_path / "m.csv"
        target.write_text("a much longer old file\n" * 10)
        save_matrix(np.array([[1.5]]), target)
        assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]
        assert target.read_text() == "1.5\n"

    def test_directory_target(self, tmp_path):
        (tmp_path / "m.csv").mkdir()
        with pytest.raises(IsADirectoryError):
            save_matrix(np.array([[1.5]]), tmp_path / "m.csv")
        assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]


class TestSaveJson:
    def test_trailing_newline_and_stable_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        payload = {"x": 1.5, "y": [1, 2]}
        save_json(payload, a)
        save_json(payload, b)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().endswith("}\n")

    def test_rejects_nan(self, tmp_path):
        target = tmp_path / "a.json"
        with pytest.raises(ValueError):
            save_json({"x": float("nan")}, target)
        # serialization failed before anything was written
        assert not target.exists()
