"""Matrix-kernel tests against hand-rolled oracles.

The oracles here deliberately avoid the code paths under test: the
difference operator is checked against explicit column differences and
its Gram structure, and the thresholding map via 1-D grid search on its
defining objective. The config records' codec is checked by round trips
of drawn valid records through JSON text, and their declared bounds by a
hand-written table of edge values and messages.

Each rule that ``linalg`` owns is tested here once, across every public
entry that applies it: ``Record``'s fields in ``TestRecord`` and in the
generators' arguments; ``as_float64`` and ``as_matrix`` in
``TestEntryConversion``; ``require_nonnegative`` and ``require_count`` in
one test each.
"""

import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from palmnmf import (
    DomainError,
    ObjectiveParams,
    SolverConfig,
    SyntheticSpec,
    default_sigma,
    difference_operator,
    evaluate,
    gen_smooth_rows,
    gen_sparse_matrix,
    generate,
    initialize,
    lipschitz_h,
    make_v,
    nonneg_project,
    run_comparison,
    save_matrix,
    score_recovery,
    soft_threshold_nonneg,
    solve,
)
from palmnmf.benchmark import CLIP_MODES
from palmnmf.linalg import as_float64, frobenius, require_allocatable


class TestDifferenceOperator:
    def test_n3_explicit(self):
        np.testing.assert_array_equal(
            difference_operator(3), [[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]]
        )

    def test_right_multiplication_takes_adjacent_differences(self):
        # Exact, not approximate: each entry of m @ G and (m @ G) @ G.T is
        # one difference of two entries (each times +-1, all other terms
        # zero), so BLAS gives the sliced values. Values, not bytes: on a
        # zero matrix BLAS gives +0.0 in the last column of (m @ G) @ G.T
        # where slicing gives -0.0 (-hd[:, -1]), so a bitwise digest of a
        # sliced G Gᵀ can differ from the dense one there.
        rng = np.random.default_rng(42)
        for n in (2, 3, 7, 2000):
            g = difference_operator(n)
            for m in (rng.standard_normal((4, n)), rng.uniform(size=(4, n)), np.zeros((4, n))):
                hd = m[:, :-1] - m[:, 1:]
                np.testing.assert_array_equal(m @ g, hd)
                sliced = np.concatenate([hd[:, :1], hd[:, 1:] - hd[:, :-1], -hd[:, -1:]], axis=1)
                np.testing.assert_array_equal((m @ g) @ g.T, sliced)

    def test_gram_structure_and_norm(self):
        for n in range(2, 51):
            d = difference_operator(n)
            gram = d @ d.T
            expected_diag = np.full(n, 2.0)
            expected_diag[0] = expected_diag[-1] = 1.0
            np.testing.assert_array_equal(np.diag(gram), expected_diag)
            if n > 1:
                np.testing.assert_array_equal(np.diag(gram, 1), -np.ones(n - 1))
            # everything beyond the first off-diagonal is zero
            assert np.count_nonzero(gram) == n + 2 * (n - 1)
            assert np.linalg.norm(gram) == pytest.approx(np.sqrt(6.0 * n - 8.0), rel=1e-13)

    def test_too_small(self):
        with pytest.raises(ValueError):
            difference_operator(1)

    def test_too_small_names_its_argument(self):
        with pytest.raises(ValueError, match=r"at least 2 columns, got n=1$"):
            difference_operator(1)

    def test_float_n_does_not_hit_the_int_entry(self):
        difference_operator(n=5)
        with pytest.raises(TypeError):
            difference_operator(n=5.0)

    def test_values_at_every_width(self):
        for n in (*range(2, 71), 2000, np.uint8(200), np.int16(300)):
            g = difference_operator(n)
            assert g.dtype == np.float64
            np.testing.assert_array_equal(g, np.eye(n, n - 1) - np.eye(n, n - 1, k=-1))

    def test_read_only(self):
        g = difference_operator(6)
        with pytest.raises(ValueError, match="read-only"):
            g[0, 0] = 2.0

    def test_calls_share_no_memory(self):
        assert not np.shares_memory(difference_operator(6), difference_operator(6))

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs Linux's /proc/self/statm")
    def test_building_at_2000_adds_under_a_megabyte_resident(self):
        # G(2000) reads as 32 MB of float64 but is a view of 3998 numbers.
        def resident():
            with open("/proc/self/statm") as f:
                return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

        before = resident()
        g = difference_operator(2000)
        assert resident() - before < 1e6
        assert g.shape == (2000, 1999)


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda: require_allocatable("x", np.int32(2**31 - 1), np.int32(2**31 - 1)), "x"),
        (lambda: difference_operator(np.int32(2**31 - 1)), r"the difference operator \(n x n-1\)"),
        (lambda: generate(SyntheticSpec(d=np.int64(2**31), k=1, n=np.int64(2**31), sigma=0.0)), r"v \(d x n\)"),
        (lambda: initialize(np.ones((3, 4)), SolverConfig(k=np.int64(2**61))), r"w \(rows of v x k\)"),
    ],
    ids=["require_allocatable", "difference_operator", "generate", "initialize"],
)
def test_numpy_integer_sizes_are_multiplied_exactly(call, named):
    # Each size's exact byte count is beyond 2**64; numpy's fixed-width
    # product wraps it to a small number, with a RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{named} would be .* more than the \d+ bytes of physical memory$"):
            call()


class TestPhysicalMemoryIsReadAtImport:
    def test_refusals_compare_against_the_import_time_size(self, monkeypatch):
        limit = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")

        def gone(name):
            raise OSError(f"sysconf({name!r}) called after import")

        monkeypatch.setattr(os, "sysconf", gone)
        need = 8 * 2**80
        message = f"x would be {2**40}x{2**40}: {need} bytes of float64, more than the {limit} bytes of physical memory"
        with pytest.raises(ValueError, match=f"^{message}$"):
            require_allocatable("x", 2**40, 2**40)
        require_allocatable("x", 1, 1)

    @pytest.mark.parametrize(
        "no_sysconf",
        [
            "del os.sysconf",
            "def sysconf(name):\n    raise ValueError(name)\nos.sysconf = sysconf",
            "def sysconf(name):\n    raise OSError(name)\nos.sysconf = sysconf",
        ],
        ids=["missing", "unknown-name", "os-error"],
    )
    def test_without_sysconf_nothing_is_refused(self, no_sysconf, cli_env):
        # linalg reads sysconf once, at import, so a child process must
        # take it away before the first import of the package.
        script = (
            f"import os\n{no_sysconf}\n"
            "from palmnmf.linalg import require_allocatable\n"
            "require_allocatable('x', 2**40, 2**40)\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=cli_env)
        assert (result.returncode, result.stderr) == (0, "")


class TestFrobenius:
    def test_plain_sum_of_squares_bitwise(self):
        rng = np.random.default_rng(5)
        for shapes in (((3, 4),), ((20, 2), (2, 30)), ((1, 1), (7, 1), (1, 7))):
            ms = [rng.uniform(-1e100, 1e100, shape) for shape in shapes]
            expected = math.sqrt(sum(float((m * m).sum()) for m in ms))
            assert np.float64(frobenius(*ms)).tobytes() == np.float64(expected).tobytes()

    def test_overflowing_squares_are_rescaled(self):
        # Each square overflows, the norm does not: the plain sum gave inf.
        m = np.array([[3e200, -4e200], [0.0, 0.0]])
        with np.errstate(over="ignore"):
            assert frobenius(m) == pytest.approx(5e200, rel=1e-15)
            assert frobenius(m, m[:1]) == pytest.approx(math.sqrt(50) * 1e200, rel=1e-15)
            assert frobenius(np.full((1, 100000), 1e300)) == pytest.approx(1e300 * math.sqrt(1e5), rel=1e-13)

    def test_non_finite_stays_non_finite(self):
        with np.errstate(over="ignore", invalid="ignore"):
            assert frobenius(np.array([[1.0, math.inf]])) == math.inf
            assert frobenius(np.array([[1e300, math.inf]])) == math.inf
            assert math.isnan(frobenius(np.array([[1.0, math.nan]])))
            assert frobenius(np.full((2, 2), 1.5e308)) == math.inf  # 3e308 is not a float


class TestNonnegProject:
    def test_elementwise_max(self):
        m = np.array([[-1.0, 0.0], [2.5, -0.0]])
        np.testing.assert_array_equal(nonneg_project(m), [[0.0, 0.0], [2.5, 0.0]])

    def test_idempotent(self):
        rng = np.random.default_rng(42)
        m = rng.standard_normal((5, 5))
        once = nonneg_project(m)
        np.testing.assert_array_equal(nonneg_project(once), once)


def prox_objective(x, y, tau):
    """The map's defining objective: 0.5*(x - y)^2 + tau*x over x >= 0."""
    return 0.5 * (x - y) ** 2 + tau * x


class TestSoftThresholdNonneg:
    def test_hand_cases(self):
        m = np.array([[2.0, 0.5, -1.0]])
        np.testing.assert_array_equal(soft_threshold_nonneg(m, 1.0), [[1.0, 0.0, 0.0]])

    def test_zero_threshold_is_projection(self):
        rng = np.random.default_rng(42)
        m = rng.standard_normal((6, 4))
        np.testing.assert_array_equal(soft_threshold_nonneg(m, 0.0), nonneg_project(m))

    def test_matches_grid_search(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            y = rng.uniform(-3.0, 3.0)
            tau = rng.uniform(0.0, 2.0)
            grid = np.arange(0.0, abs(y) + 1.0, 1e-4)
            best = grid[np.argmin(prox_objective(grid, y, tau))]
            got = soft_threshold_nonneg(np.array([[y]]), tau)[0, 0]
            assert abs(got - best) <= 1e-3

    def test_negative_threshold(self):
        with pytest.raises(ValueError):
            soft_threshold_nonneg(np.ones((1, 1)), -0.1)

    def test_nan_threshold(self):
        with pytest.raises(ValueError):
            soft_threshold_nonneg(np.ones((1, 1)), float("nan"))


def integers(min_value):
    """Integers for an ``int`` field: Python's, and numpy's, which the
    records keep as given and ``to_dict`` gives as Python's."""
    numpy_ints = st.integers(min_value, 2**31 - 1).map(np.int32) | st.integers(min_value, 2**63 - 1).map(np.int64)
    return st.integers(min_value) | numpy_ints


def reals(min_value, max_value=None, exclude_min=False):
    """Finite numbers for a ``float`` field: floats, integers, which the
    records accept and JSON keeps as integers, and numpy float32s."""
    bounds = dict(min_value=min_value, max_value=max_value, exclude_min=exclude_min, allow_nan=False,
                  allow_infinity=False)
    integral = st.integers(int(min_value) + exclude_min, 10**30 if max_value is None else int(max_value))
    return st.floats(**bounds) | integral | st.floats(**bounds, width=32).map(np.float32)


records = st.one_of(
    st.builds(
        SolverConfig,
        k=integers(1),
        gamma1=reals(1.0, exclude_min=True),
        gamma2=reals(1.0, exclude_min=True),
        max_iter=integers(1),
        tol=reals(0.0, exclude_min=True),
        seed=integers(0),
    ),
    st.builds(ObjectiveParams, lam=reals(0.0), eta=reals(0.0), beta_w=reals(0.0), beta_h=reals(0.0)),
    st.builds(
        SyntheticSpec,
        d=integers(1),
        k=integers(1),
        n=integers(2),
        sigma=reals(0.0),
        w_density=reals(0.0, 1.0, exclude_min=True),
        clip_mode=st.sampled_from(CLIP_MODES),
        seed=integers(0),
    ),
)


class TestRecord:
    @given(records)
    def test_json_round_trip(self, record):
        text = json.dumps(record.to_dict(), allow_nan=False)
        assert type(record).from_dict(json.loads(text)) == record

    def test_key_other_than_the_field_name(self):
        p = ObjectiveParams(lam=0.5, eta=2.0, beta_w=0.0, beta_h=0.3)
        assert p.to_dict() == {"lambda": 0.5, "eta": 2.0, "beta_w": 0.0, "beta_h": 0.3}

    def test_missing_keys_take_their_defaults(self):
        assert ObjectiveParams.from_dict({}) == ObjectiveParams()

    @given(records, st.data(), st.sampled_from([float("nan"), float("inf"), float("-inf"), 10**400, -(10**400)]))
    def test_rejects_non_finite_float_field(self, record, data, bad):
        by_key = {key: f for key, f in zip(record.keys(), fields(record)) if f.type is float}
        key = data.draw(st.sampled_from(sorted(by_key)))
        with pytest.raises(ValueError, match=f"^{key} must be a finite number, got "):
            replace(record, **{by_key[key].name: bad})

    # One valid record per class; each case below changes one field of it.
    BASE = {
        SolverConfig: SolverConfig(k=1),
        ObjectiveParams: ObjectiveParams(),
        SyntheticSpec: SyntheticSpec(d=1, k=1, n=2, sigma=0.0),
    }

    @pytest.mark.parametrize(
        "cls, name, bad, message",
        [
            (SolverConfig, "k", 0, "k must be >= 1, got 0"),
            (SolverConfig, "gamma1", 1.0, "gamma1 must be > 1, got 1.0"),
            (SolverConfig, "gamma2", 1, "gamma2 must be > 1, got 1"),
            (SolverConfig, "max_iter", 0, "max_iter must be >= 1, got 0"),
            (SolverConfig, "tol", 0.0, "tol must be > 0, got 0.0"),
            (SolverConfig, "seed", -1, "seed must be >= 0, got -1"),
            (ObjectiveParams, "lam", -0.5, "lambda must be >= 0, got -0.5"),
            (ObjectiveParams, "eta", -1e-300, "eta must be >= 0, got -1e-300"),
            (ObjectiveParams, "beta_w", -1, "beta_w must be >= 0, got -1"),
            (ObjectiveParams, "beta_h", -2.0, "beta_h must be >= 0, got -2.0"),
            (SyntheticSpec, "d", 0, "d must be >= 1, got 0"),
            (SyntheticSpec, "k", -3, "k must be >= 1, got -3"),
            (SyntheticSpec, "n", 1, "n must be >= 2, got 1"),
            (SyntheticSpec, "sigma", -0.1, "sigma must be >= 0, got -0.1"),
            (SyntheticSpec, "w_density", 0.0, "w_density must be > 0, got 0.0"),
            (SyntheticSpec, "w_density", 1.5, "w_density must be <= 1, got 1.5"),
            (SyntheticSpec, "clip_mode", "clamp", "clip_mode must be one of ('max_zero', 'absolute'), got 'clamp'"),
            (SyntheticSpec, "seed", -1, "seed must be >= 0, got -1"),
            # A value of the wrong type: bools are neither integers nor numbers here.
            (SolverConfig, "k", True, "k must be an integer, got True"),
            (SolverConfig, "k", 2.5, "k must be an integer, got 2.5"),
            (SolverConfig, "k", "2", "k must be an integer, got '2'"),
            (SolverConfig, "max_iter", 10.0, "max_iter must be an integer, got 10.0"),
            (SolverConfig, "seed", None, "seed must be an integer, got None"),
            (SolverConfig, "tol", "1e-6", "tol must be a finite number, got '1e-6'"),
            (ObjectiveParams, "lam", "0.5", "lambda must be a finite number, got '0.5'"),
            (ObjectiveParams, "eta", None, "eta must be a finite number, got None"),
            (ObjectiveParams, "beta_w", True, "beta_w must be a finite number, got True"),
            (SyntheticSpec, "d", "6", "d must be an integer, got '6'"),
            (SyntheticSpec, "k", 1.5, "k must be an integer, got 1.5"),
            (SyntheticSpec, "n", None, "n must be an integer, got None"),
            (SyntheticSpec, "sigma", "0.1", "sigma must be a finite number, got '0.1'"),
            (SyntheticSpec, "clip_mode", 1, "clip_mode must be a string, got 1"),
            (SyntheticSpec, "seed", 0.0, "seed must be an integer, got 0.0"),
            (SyntheticSpec, "seed", False, "seed must be an integer, got False"),
        ],
    )
    def test_bad_value_has_one_message(self, cls, name, bad, message):
        with pytest.raises(ValueError) as info:
            replace(self.BASE[cls], **{name: bad})
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "cls, name, edge",
        [
            (SolverConfig, "k", 1),
            (SolverConfig, "max_iter", 1),
            (SolverConfig, "seed", 0),
            (ObjectiveParams, "lam", 0.0),
            (ObjectiveParams, "eta", 0),
            (ObjectiveParams, "beta_w", 0.0),
            (ObjectiveParams, "beta_h", 0.0),
            (SyntheticSpec, "d", 1),
            (SyntheticSpec, "k", 1),
            (SyntheticSpec, "n", 2),
            (SyntheticSpec, "sigma", 0.0),
            (SyntheticSpec, "w_density", 1.0),
            (SyntheticSpec, "clip_mode", "max_zero"),
            (SyntheticSpec, "clip_mode", "absolute"),
            (SyntheticSpec, "seed", 0),
        ],
    )
    def test_value_on_inclusive_bound_is_accepted(self, cls, name, edge):
        assert getattr(replace(self.BASE[cls], **{name: edge}), name) == edge

    def test_type_errors_come_before_bound_errors(self):
        # k is out of range and comes first, but gamma1's type is checked first.
        with pytest.raises(ValueError, match=r"^gamma1 must be a finite number, got 'a'$"):
            SolverConfig(k=0, gamma1="a")


_ONES = np.ones((2, 2))


@pytest.mark.parametrize(
    "generator, args, message",
    [
        (gen_smooth_rows, (0, 10, 0), "k must be >= 1, got 0"),
        (gen_smooth_rows, (2, 1, 0), "n must be >= 2, got 1"),
        (gen_smooth_rows, (2, 10, -1), "seed must be >= 0, got -1"),
        (gen_smooth_rows, (2.0, 10, 0), "k must be an integer, got 2.0"),
        (gen_smooth_rows, (2, 10, True), "seed must be an integer, got True"),
        (gen_sparse_matrix, (0, 3, 0.5, 0), "d must be >= 1, got 0"),
        (gen_sparse_matrix, (3, 3, 0.0, 0), "w_density must be > 0, got 0.0"),
        (gen_sparse_matrix, (3, 3, 1.5, 0), "w_density must be <= 1, got 1.5"),
        (gen_sparse_matrix, (3, 3, float("nan"), 0), "w_density must be a finite number, got nan"),
        (gen_sparse_matrix, (3, 3, 0.5, -2), "seed must be >= 0, got -2"),
        (gen_sparse_matrix, (True, 3, 0.5, 0), "d must be an integer, got True"),
        (make_v, (_ONES, _ONES, -1.0, "max_zero", 0), "sigma must be >= 0, got -1.0"),
        (make_v, (_ONES, _ONES, float("inf"), "max_zero", 0), "sigma must be a finite number, got inf"),
        (make_v, (_ONES, _ONES, 0.1, "clip", 0), "clip_mode must be one of ('max_zero', 'absolute'), got 'clip'"),
        (make_v, (_ONES, _ONES, 0.1, "absolute", -1), "seed must be >= 0, got -1"),
        (make_v, (_ONES, _ONES, 0.1, "absolute", True), "seed must be an integer, got True"),
    ],
)
def test_generator_arguments_are_checked_as_spec_fields(generator, args, message):
    with pytest.raises(ValueError) as info:
        generator(*args)
    assert str(info.value) == message


# Each public entry that takes matrices, with valid arguments by name, and
# the names of its matrix arguments as its messages give them.
_ENTRIES = {
    "solve": (lambda v: solve(v, ObjectiveParams(), SolverConfig(k=1, max_iter=2)), {"v": (3, 4)}),
    "initialize": (lambda v: initialize(v, SolverConfig(k=1)), {"v": (3, 4)}),
    "evaluate": (lambda v, w, h: evaluate(v, w, h, ObjectiveParams()), {"v": (3, 4), "w": (3, 1), "h": (1, 4)}),
    "score_recovery": (score_recovery, {"w": (3, 1), "h": (1, 4), "w_true": (3, 1), "h_true": (1, 4)}),
    "make_v": (lambda w_r, h_r: make_v(w_r, h_r, 0.1, "max_zero", 0), {"w_r": (3, 1), "h_r": (1, 4)}),
    "default_sigma": (default_sigma, {"w_r": (3, 1), "h_r": (1, 4)}),
    "save_matrix": (lambda matrix: save_matrix(matrix, "m.csv"), {"matrix": (3, 4)}),
}
_ARGUMENTS = [(entry, name) for entry, (_, shapes) in _ENTRIES.items() for name in shapes]


def _call(entry, name, value):
    """Call *entry* with *value* as its argument *name*, and ones for the others."""
    fn, shapes = _ENTRIES[entry]
    return fn(**{n: value if n == name else np.ones(shape) for n, shape in shapes.items()})


def _ones_but_last(shape, x):
    """np.ones(shape) with its last entry set to *x*."""
    m = np.ones(shape)
    m.flat[-1] = x
    return m


class _Counted:
    """An array-like that counts its conversions to an array."""

    def __init__(self, shape):
        self.a = np.ones(shape)
        self.calls = 0

    def __array__(self, dtype=None, copy=None):
        self.calls += 1
        return self.a if dtype is None else self.a.astype(dtype)


@pytest.mark.parametrize("entry, name", _ARGUMENTS, ids=[f"{e}-{n}" for e, n in _ARGUMENTS])
class TestEntryConversion:
    """Every public entry converts each matrix once, through ``as_float64``,
    and refuses by name what ``as_matrix`` refuses."""

    @pytest.fixture(autouse=True)
    def in_tmp_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # save_matrix writes m.csv there

    def test_converts_an_array_like_once(self, entry, name):
        counted = _Counted(_ENTRIES[entry][1][name])
        _call(entry, name, counted)
        assert counted.calls == 1

    def test_complex_object_entry_is_refused_by_name(self, entry, name):
        with pytest.raises(ValueError, match=f"^{name} must be real, got complex entries$"):
            _call(entry, name, np.array([[1j, 1.0]], dtype=object))

    @pytest.mark.parametrize(
        "bad, reason",
        [
            (np.array([[{}, 1.0]], dtype=object), "float() argument must be a string or a real number, not 'dict'"),
            ([[10**400, 1.0]], "int too large to convert to float"),
            ([["a", 1.0]], "could not convert string to float: np.str_('a')"),
        ],
        ids=["object", "huge-int", "string"],
    )
    def test_unconvertible_entry_is_refused_by_name(self, entry, name, bad, reason):
        with pytest.raises(ValueError, match=f"^{name} is not a matrix of real numbers: ") as info:
            _call(entry, name, bad)
        assert str(info.value).endswith(reason) and type(info.value) is ValueError

    @pytest.mark.parametrize(
        "bad, message",
        [
            (lambda shape: _ones_but_last(shape, math.nan), "{name} contains non-finite entries"),
            (lambda shape: _ones_but_last(shape, math.inf), "{name} contains non-finite entries"),
            (lambda shape: _ones_but_last(shape, -math.inf), "{name} contains non-finite entries"),
            (lambda shape: np.ones(shape)[0], "{name} must be 2-D, got 1-D"),
            (lambda shape: np.ones((0, shape[1])), "{name} must be non-empty, got shape 0x{cols}"),
            (lambda shape: np.ones(shape) * 1j, "{name} must be real, got complex entries"),
        ],
        ids=["nan", "inf", "-inf", "1-D", "empty", "complex-array"],
    )
    def test_malformed_matrix_is_refused_by_name(self, entry, name, bad, message):
        shape = _ENTRIES[entry][1][name]
        with pytest.raises(ValueError) as info:
            _call(entry, name, bad(shape))
        assert str(info.value) == message.format(name=name, cols=shape[1]) and type(info.value) is ValueError


@pytest.mark.parametrize(
    "entry, name", [("solve", "v"), ("initialize", "v"), ("evaluate", "w"), ("evaluate", "h")],
    ids=["solve-v", "initialize-v", "evaluate-w", "evaluate-h"],
)
@pytest.mark.parametrize(
    "x, refused", [(-1.0, True), (-5e-324, True), (-0.0, False)], ids=["-1", "subnormal", "negative-zero"]
)
def test_entry_below_zero_is_refused_by_name(entry, name, x, refused):
    # -5e-324 is the subnormal nearest 0; -0.0 is not below 0.
    value = _ones_but_last(_ENTRIES[entry][1][name], x)
    if refused:
        with pytest.raises(DomainError, match=f"^{name} must be nonnegative$"):
            _call(entry, name, value)
    else:
        _call(entry, name, value)


# Each public entry that takes a count, with the count's name.
_COUNTS = {
    "run_comparison": ("repeats", lambda repeats: run_comparison(
        SyntheticSpec(d=3, k=1, n=4, sigma=0.0), [ObjectiveParams()], SolverConfig(k=1, max_iter=2), repeats)),
    "lipschitz_h": ("n", lambda n: lipschitz_h(np.ones((3, 2)), n, ObjectiveParams())),
    "lipschitz_h-smooth": ("n", lambda n: lipschitz_h(np.ones((3, 2)), n, ObjectiveParams(eta=1.0))),
}


@pytest.mark.parametrize("entry", list(_COUNTS))
@pytest.mark.parametrize(
    "value, error, message",
    [
        # A bool is an int to Python, but not a count; nor is a fraction below 1.
        (True, ValueError, "{} must be an integer, got True"),
        (False, ValueError, "{} must be an integer, got False"),
        (0, ValueError, "{} must be >= 1, got 0"),
        (0.5, ValueError, "{} must be >= 1, got 0.5"),
        (2.5, TypeError, "'float' object cannot be interpreted as an integer"),
        (np.float64(3.0), TypeError, "'numpy.float64' object cannot be interpreted as an integer"),
    ],
    ids=["True", "False", "0", "0.5", "2.5", "float64"],
)
def test_count_is_an_integer_of_at_least_one(entry, value, error, message):
    name, call = _COUNTS[entry]
    with pytest.raises(error) as info:
        call(value)
    assert str(info.value) == message.format(name) and type(info.value) is error


class TestAsFloat64:
    def test_float64_array_comes_back_as_itself(self):
        m = np.ones((2, 3))[:, ::2]
        assert as_float64(m, "m") is m

    def test_numpy_complex_in_an_object_array_is_refused(self):
        # numpy's cast would keep the real part with only a ComplexWarning.
        for z in (np.complex64(1.0), np.complex128(1.0)):
            with pytest.raises(ValueError, match="^m must be real, got complex entries$"):
                as_float64(np.array([[z, 1.0]], dtype=object), "m")

    def test_real_object_array_is_cast(self):
        m = as_float64(np.array([[1, 2.5, True]], dtype=object), "m")
        assert m.dtype == np.float64 and m.tolist() == [[1.0, 2.5, 1.0]]
