"""Objective-value, gradient, and step-modulus tests.

Gradients are checked against ``reference.fd_grad`` of
``reference.smooth_part``, an independent re-statement of the smooth terms
(written with plain numpy slicing so it shares no code with the module
under test, and accepts the negative entries that perturbation produces).
"""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import reference

import palmnmf.objective as objective
from palmnmf import (
    DomainError,
    ObjectiveParams,
    ShapeError,
    SolverConfig,
    difference_operator,
    evaluate,
    grad_h,
    grad_w,
    lipschitz_h,
    lipschitz_w,
    solve,
)
from palmnmf.objective import LIPSCHITZ_FLOOR


class TestObjectiveParams:
    def test_defaults(self):
        p = ObjectiveParams()
        assert (p.lam, p.eta, p.beta_w, p.beta_h) == (0.0, 0.0, 0.1, 0.1)


class TestEvaluate:
    def test_hand_computed_all_terms(self):
        # residual [[ -2,-4],[-6,-7]] -> 105; h differences squared -> 1;
        # |w| sums to 3; ||w||^2 = 5; ||h||^2 = 25
        v = [[1.0, 0.0], [0.0, 1.0]]
        w = [[1.0], [2.0]]
        h = [[3.0, 4.0]]
        params = ObjectiveParams(lam=0.5, eta=2.0, beta_w=0.1, beta_h=0.2)
        assert evaluate(v, w, h, params) == pytest.approx(105 + 2 * 1 + 0.5 * 3 + 0.1 * 5 + 0.2 * 25, rel=1e-15)

    def test_perfect_fit_no_regularization(self):
        w = np.array([[1.0, 0.0], [0.0, 2.0]])
        h = np.array([[1.0, 2.0, 3.0], [0.5, 1.0, 1.5]])
        params = ObjectiveParams(beta_w=0.0, beta_h=0.0)
        assert evaluate(w @ h, w, h, params) == 0.0

    def test_matches_independent_form_plus_l1(self):
        rng = np.random.default_rng(42)
        block = objective._BLOCK
        # Ten small inputs, then the residual in several blocks: tall; wide,
        # one row per block (without smoothness, whose dense operator would
        # be n x n-1); and D x N just over a block, a last block of one row.
        small = (rng.integers(2, 7, size=3) for _ in range(10))
        blocks = [(block // 2, 3, 8), (3, 2, block + 5), (block // 7 + 1, 2, 7)]
        for d, k, n in itertools.chain(small, blocks):
            v = rng.uniform(0, 1, (d, n))
            w = rng.uniform(0, 1, (d, k))
            h = rng.uniform(0, 1, (k, n))
            params = ObjectiveParams(lam=0.3, eta=0.7 if n <= block else 0.0, beta_w=0.05, beta_h=0.2)
            expected = reference.smooth_part(v, w, h, params) + params.lam * np.abs(w).sum()
            assert evaluate(v, w, h, params) == pytest.approx(expected, rel=1e-12)

    def test_bitwise_explicit_formula_and_inputs_untouched(self):
        rng = np.random.default_rng(7)
        params = ObjectiveParams(lam=0.3, eta=0.7, beta_w=0.05, beta_h=0.2)
        for d, k, n in ((5, 2, 9), (40, 4, 70), (120, 6, 33)):
            v = rng.uniform(0, 1, (d, n))
            w = rng.uniform(0, 1, (d, k))
            h = rng.uniform(0, 1, (k, n))
            copies = [m.copy() for m in (v, w, h)]
            assert evaluate(v, w, h, params) == reference.cost(v, w, h, params)
            for m, copy in zip((v, w, h), copies):
                assert m.tobytes() == copy.tobytes()

    def test_smoothness_term_bitwise_dense_product_over_widths(self):
        # Every width from 2 to 70, then two wide ones; random h, h with a
        # zero row and equal adjacent columns (exact zero differences), and
        # h holding -0.0, whose differences may differ from the dense
        # product's in the sign of a zero. With v = w = 0 and eta = 1 the
        # value is the smoothness term alone; the other params add the rest.
        rng = np.random.default_rng(46)
        term = ObjectiveParams(eta=1.0, beta_w=0.0, beta_h=0.0)
        full = ObjectiveParams(lam=0.3, eta=0.7, beta_w=0.05, beta_h=0.2)
        for n in [*range(2, 71), 200, 2000]:
            k = n % 5 + 1
            paired = np.repeat(rng.uniform(0, 1, (k, (n + 1) // 2)), 2, axis=1)[:, :n]
            paired[k // 2] = 0.0
            signed = rng.uniform(0, 1, (k, n))
            signed[rng.uniform(0, 1, (k, n)) < 0.3] = -0.0
            signed[:, ::3] = 0.0
            alone = (np.zeros((4, n)), np.zeros((4, k)), term)
            for h in (rng.uniform(0, 1, (k, n)), paired, signed):
                for v, w, params in (alone, (rng.uniform(0, 1, (4, n)), rng.uniform(0, 1, (4, k)), full)):
                    value = evaluate(v, w, h, params)
                    expected = reference.cost(v, w, h, params)
                    assert np.float64(value).tobytes() == np.float64(expected).tobytes(), f"k={k}, n={n}"

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_l1_term_of_signed_zeros_bitwise(self, lam):
        # The l1 term sums w without abs; w holding -0.0 and +0.0 (all of
        # it, or some rows) gives the formula's value, sign of zero included.
        rng = np.random.default_rng(8)
        v = rng.uniform(0, 1, (6, 5))
        h = rng.uniform(0, 1, (3, 5))
        params = ObjectiveParams(lam=lam, eta=0.7, beta_w=0.05, beta_h=0.2)
        mixed = rng.uniform(0, 1, (6, 3))
        mixed[0], mixed[1, 1], mixed[2] = -0.0, -0.0, 0.0
        for w in (mixed, np.full((6, 3), -0.0), np.zeros((6, 3))):
            value = evaluate(v, w, h, params)
            assert np.float64(value).tobytes() == np.float64(reference.cost(v, w, h, params)).tobytes()

    def test_temporaries_bounded(self):
        # The residual is formed in blocks, not as one D x N float64 array,
        # and plain float64 inputs are checked by the value, not by a D x N
        # bool of isfinite: the peak is about 0.5 MB, against 16 MB for v.
        rng = np.random.default_rng(3)
        d, k, n = 1000, 20, 2000
        v, w, h = rng.uniform(0, 1, (d, n)), rng.uniform(0, 1, (d, k)), rng.uniform(0, 1, (k, n))
        tracemalloc.start()
        try:
            evaluate(v, w, h, ObjectiveParams(lam=0.3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * d * n / 16

    def test_total_overflowing_over_blocks_is_inf(self):
        # Three blocks of two rows, each summing to about 1.2e308.
        n = objective._BLOCK // 2
        v = np.full((6, n), 6e151)
        assert evaluate(v, np.zeros((6, 1)), np.zeros((1, n)), ObjectiveParams()) == math.inf

    def test_rejects_inconsistent_shapes(self):
        with pytest.raises(ShapeError, match="inconsistent shapes"):
            evaluate(np.ones((2, 3)), np.ones((2, 2)), np.ones((2, 4)), ObjectiveParams())

    def test_smoothness_needs_two_columns(self):
        v = np.ones((2, 1))
        w = np.ones((2, 1))
        h = np.ones((1, 1))
        with pytest.raises(ValueError, match="at least 2 columns"):
            evaluate(v, w, h, ObjectiveParams(eta=1.0))
        # eta=0 is fine on a single column
        assert evaluate(v, w, h, ObjectiveParams(beta_w=0.0, beta_h=0.0)) == 0.0


def _put(m, i, x):
    """A float64 copy of *m* with flat entry *i* set to *x*."""
    m = np.array(m, dtype=np.float64)
    m.flat[i] = x
    return m


def _matrix(m):
    """*m* as an ``np.matrix``, without the subclass's pending-deprecation warning."""
    return np.asarray(m, dtype=np.float64).view(np.matrix)


def _contract_cases():
    """(id, v, w, h, params, error type, message pattern): bad inputs to
    ``evaluate``, each with the error it raises. The checks run in order
    v, w, h (real, 2-D, non-empty, finite), then shapes, then w >= 0 and
    h >= 0, then the smoothness operator's width, whatever the combination."""
    rng = np.random.default_rng(11)
    v, w, h = rng.uniform(0, 1, (3, 4)), rng.uniform(0, 1, (3, 2)), rng.uniform(0, 1, (2, 4))
    p, smooth = ObjectiveParams(), ObjectiveParams(lam=0.3, eta=1.0)
    wide = reference.TOO_WIDE
    ones = np.ones((1, wide))
    nonfinite = "{} contains non-finite entries"
    cases = []
    for name, x in (("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf)):
        for pos, label in enumerate("vwh"):
            args = [v, w, h]
            args[pos] = _put(args[pos], 1, x)
            for params in (p, smooth, ObjectiveParams(beta_w=0.0, beta_h=0.0)):
                cases.append((f"{label}-{name}", *args, params, ValueError, nonfinite.format(label)))
    cases += [
        ("w-negative", v, _put(w, 2, -1.0), h, smooth, DomainError, "w must be nonnegative"),
        ("h-negative", v, w, _put(h, 2, -1e-300), smooth, DomainError, "h must be nonnegative"),
        ("w-subnormal-negative", v, _put(w, 2, -5e-324), h, p, DomainError, "w must be nonnegative"),
        ("w-and-h-negative", v, -w, -h, p, DomainError, "w must be nonnegative"),
        ("w-negative-h-nan", v, _put(w, 2, -1.0), _put(h, 0, math.nan), p, ValueError, nonfinite.format("h")),
        ("h-negative-v-inf", _put(v, 0, math.inf), w, _put(h, 3, -1.0), p, ValueError, nonfinite.format("v")),
        ("w-negative-and-inf", v, _put(_put(w, 0, -1.0), 1, math.inf), h, p, ValueError, nonfinite.format("w")),
        # inf - inf in the residual: numpy would warn of an invalid value.
        ("v-inf-h-inf", _put(v, 0, math.inf), w, _put(h, 0, math.inf), p, ValueError, nonfinite.format("v")),
        ("v-inf-h-inf-one-column", _put(v[:, :1], 0, math.inf), w, _put(h[:, :1], 0, math.inf), smooth, ValueError,
         nonfinite.format("v")),
        ("v-nan-w-3d", _put(v, 0, math.nan), w[None], h, p, ValueError, nonfinite.format("v")),
        ("w-3d", v, w[None], h, p, ValueError, "w must be 2-D, got 3-D"),
        ("h-inf-one-column", v[:, :1], w, _put(h[:, :1], 0, math.inf), smooth, ValueError, nonfinite.format("h")),
        ("one-column", v[:, :1], w, h[:, :1], smooth, ValueError,
         "the difference operator needs at least 2 columns, got n=1"),
        ("one-column-w-negative", v[:, :1], -w, h[:, :1], smooth, DomainError, "w must be nonnegative"),
        ("too-wide", ones, np.ones((1, 1)), ones, smooth, ValueError,
         rf"the difference operator \(n x n-1\) would be {wide}x{wide - 1}: .*"),
        ("too-wide-v-inf", _put(ones, 0, math.inf), np.ones((1, 1)), ones, smooth, ValueError, nonfinite.format("v")),
        ("too-wide-w-negative", ones, -np.ones((1, 1)), ones, smooth, DomainError, "w must be nonnegative"),
        ("shapes", v, w, np.ones((3, 4)), p, ShapeError, r"inconsistent shapes: v is 3x4, w is 3x2, h is 3x4"),
        ("shapes-h-nan", v, w, _put(np.ones((3, 4)), 0, math.nan), p, ValueError, nonfinite.format("h")),
        ("v-empty", np.ones((0, 4)), w, h, p, ValueError, "v must be non-empty, got shape 0x4"),
        ("v-complex", v * 1j, w, h, p, ValueError, "v must be real, got complex entries"),
        ("list-nan", _put(v, 0, math.nan).tolist(), w.tolist(), h.tolist(), p, ValueError, nonfinite.format("v")),
        ("list-negative", v.tolist(), w.tolist(), (-h).tolist(), p, DomainError, "h must be nonnegative"),
        ("int-negative", np.ones((3, 4), int), -np.ones((3, 2), int), np.ones((2, 4), int), p, DomainError,
         "w must be nonnegative"),
        ("matrix-inf", _matrix(v), _matrix(_put(w, 0, math.inf)), _matrix(h), p, ValueError,
         nonfinite.format("w")),
        ("matrix-negative", _matrix(v), _matrix(w), _matrix(-h), smooth, DomainError,
         "h must be nonnegative"),
        ("float32-nan", v.astype(np.float32), w, _put(h, 0, math.nan).astype(np.float32), p, ValueError,
         nonfinite.format("h")),
    ]
    return cases


_CONTRACT = _contract_cases()


class TestEvaluateContract:
    """What ``evaluate`` returns and raises, whatever path computes it."""

    @pytest.mark.parametrize(
        "v, w, h, params, error, message",
        [case[1:] for case in _CONTRACT],
        ids=[case[0] for case in _CONTRACT],
    )
    def test_bad_input_raises_its_error_without_warnings(self, v, w, h, params, error, message):
        copies = [np.array(m).tobytes() for m in (v, w, h)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=f"^{message}$") as info:
                evaluate(v, w, h, params)
        assert type(info.value) is error
        for m, copy in zip((v, w, h), copies):
            assert np.array(m).tobytes() == copy

    @pytest.mark.parametrize(
        "params", [ObjectiveParams(), ObjectiveParams(lam=0.3, eta=0.7, beta_w=0.0, beta_h=0.2)], ids=["default", "all"]
    )
    def test_every_input_type_gives_the_same_value_bitwise(self, params):
        # All square, so that an np.matrix taken as an array would multiply
        # w * w and h * h as matrices without a shape error.
        rng = np.random.default_rng(12)
        v, w, h = (rng.integers(0, 9, (5, 5)) for _ in range(3))
        expected = evaluate(*(m.astype(np.float64) for m in (v, w, h)), params)
        assert math.isfinite(expected) and expected > 0
        forms = {
            "int": (v, w, h),
            "list": (v.tolist(), w.tolist(), h.tolist()),
            "matrix": (_matrix(v), _matrix(w), _matrix(h)),
            "float32": (v.astype(np.float32), w.astype(np.float32), h.astype(np.float32)),
            "mixed": (v.tolist(), w.astype(np.float64), _matrix(h)),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, (a, b, c) in forms.items():
                value = evaluate(a, b, c, params)
                assert np.float64(value).tobytes() == np.float64(expected).tobytes(), name

    def test_overflowing_finite_input_is_inf_with_its_warning(self):
        v = np.full((2, 2), 1e200)
        with pytest.warns(RuntimeWarning, match="overflow encountered in square"):
            assert evaluate(v, np.zeros((2, 1)), np.zeros((1, 2)), ObjectiveParams()) == math.inf


class TestGradients:
    def test_grad_w_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            d, k, n = rng.integers(2, 6, size=3)
            v = rng.uniform(0, 1, (d, n))
            w = rng.uniform(0.1, 1, (d, k))
            h = rng.uniform(0.1, 1, (k, n))
            params = ObjectiveParams(lam=0.3, eta=0.5, beta_w=0.1, beta_h=0.2)
            g = grad_w(v, w, h, params)
            g_fd = reference.fd_grad(lambda m: reference.smooth_part(v, m, h, params), w)
            np.testing.assert_allclose(g, g_fd, rtol=1e-6, atol=1e-8)

    def test_grad_h_finite_differences(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            d, k, n = rng.integers(2, 6, size=3)
            v = rng.uniform(0, 1, (d, n))
            w = rng.uniform(0.1, 1, (d, k))
            h = rng.uniform(0.1, 1, (k, n))
            params = ObjectiveParams(lam=0.3, eta=0.5, beta_w=0.1, beta_h=0.2)
            g = grad_h(v, w, h, params)
            g_fd = reference.fd_grad(lambda m: reference.smooth_part(v, w, m, params), h)
            np.testing.assert_allclose(g, g_fd, rtol=1e-6, atol=1e-8)

    def test_grad_h_stencil_equals_dense_product(self):
        # Every width from 2 to 70 (at 9, hd[:, -1] has a stride of 8
        # elements), then two wide ones; random h, then h with a zero row and
        # equal adjacent columns, so that differences of hd are exact zeros,
        # then h holding -0.0 and zero columns, whose differences may differ
        # from the dense product's in the sign of a zero. w = 0 leaves g =
        # beta_h h before the smoothness term, zero wherever h is, so that
        # term's signed zeros meet zeros of g.
        rng = np.random.default_rng(45)
        shapes = [(k, n) for n in range(2, 71) for k in range(1, 6)] + [(3, 200), (4, 2000)]
        params = ObjectiveParams(eta=0.7, beta_h=0.2)
        for k, n in shapes:
            v = rng.uniform(0, 1, (4, n))
            paired = np.repeat(rng.uniform(0, 1, (k, (n + 1) // 2)), 2, axis=1)[:, :n]
            paired[k // 2] = 0.0
            signed = rng.uniform(0, 1, (k, n))
            signed[rng.uniform(0, 1, (k, n)) < 0.3] = -0.0
            signed[:, ::3] = 0.0
            for w in (rng.uniform(0, 1, (4, k)), np.zeros((4, k))):
                for h in (rng.uniform(0, 1, (k, n)), paired, signed):
                    g = grad_h(v, w, h, params)
                    expected = reference.grad_h(v, w, h, params)
                    np.testing.assert_array_equal(g, expected, err_msg=f"k={k}, n={n}")
                    assert g.tobytes() == expected.tobytes(), f"k={k}, n={n}"

    def test_grad_w_ignores_l1_weight(self):
        rng = np.random.default_rng(44)
        v = rng.uniform(0, 1, (4, 5))
        w = rng.uniform(0, 1, (4, 2))
        h = rng.uniform(0, 1, (2, 5))
        a = grad_w(v, w, h, ObjectiveParams(lam=0.0))
        b = grad_w(v, w, h, ObjectiveParams(lam=100.0))
        np.testing.assert_array_equal(a, b)

    def test_grad_h_single_column_without_smoothness(self):
        g = grad_h(np.ones((2, 1)), np.ones((2, 1)), np.ones((1, 1)), ObjectiveParams(beta_h=0.0))
        # 2 w^T w h - 2 w^T v = 2*2*1 - 2*2 = 0
        np.testing.assert_array_equal(g, [[0.0]])


class TestStepModuli:
    def test_lipschitz_w_hand_value(self):
        h = np.array([[1.0, 2.0]])  # h h^T = [[5]]
        params = ObjectiveParams(beta_w=0.1)
        assert lipschitz_w(h, params) == pytest.approx(2 * 5 + 0.2, rel=1e-15)

    def test_lipschitz_h_hand_value(self):
        w = np.array([[2.0], [0.0]])  # w^T w = [[4]]
        params = ObjectiveParams(eta=1.5, beta_h=0.2)
        expected = 2 * 4 + 2 * 1.5 * math.sqrt(6 * 5 - 8) + 0.4
        assert lipschitz_h(w, 5, params) == pytest.approx(expected, rel=1e-15)

    def test_lipschitz_h_gram_norm_from_difference_operator(self):
        from palmnmf import difference_operator

        w = np.zeros((3, 2))
        for n in (2, 7, 30):
            params = ObjectiveParams(eta=1.0, beta_h=0.0)
            expected = 2.0 * np.linalg.norm(difference_operator(n) @ difference_operator(n).T)
            assert lipschitz_h(w, n, params) == pytest.approx(expected, rel=1e-13)

    def test_floor_applies_to_collapsed_factors(self):
        params = ObjectiveParams(beta_w=0.0, beta_h=0.0)
        assert lipschitz_w(np.zeros((2, 3)), params) == LIPSCHITZ_FLOOR
        assert lipschitz_h(np.zeros((3, 2)), 4, params) == LIPSCHITZ_FLOOR

    def test_gradient_is_lipschitz_with_bound(self):
        # ||grad(w1) - grad(w2)||_F <= L_W ||w1 - w2||_F, same for the h block
        rng = np.random.default_rng(42)
        v = rng.uniform(0, 1, (6, 8))
        h = rng.uniform(0, 1, (3, 8))
        w1 = rng.uniform(0, 1, (6, 3))
        w2 = rng.uniform(0, 1, (6, 3))
        params = ObjectiveParams(lam=0.2, eta=0.8, beta_w=0.1, beta_h=0.1)
        lhs = np.linalg.norm(grad_w(v, w1, h, params) - grad_w(v, w2, h, params))
        assert lhs <= lipschitz_w(h, params) * np.linalg.norm(w1 - w2) * (1 + 1e-12)

        w = rng.uniform(0, 1, (6, 3))
        h1 = rng.uniform(0, 1, (3, 8))
        h2 = rng.uniform(0, 1, (3, 8))
        lhs = np.linalg.norm(grad_h(v, w, h1, params) - grad_h(v, w, h2, params))
        assert lhs <= lipschitz_h(w, 8, params) * np.linalg.norm(h1 - h2) * (1 + 1e-12)

    def test_gram_whose_squares_overflow_warns_then_is_rescaled(self):
        # h h^T (and w^T w) is 1e305; its square overflows in frobenius's
        # multiply, which warns outside palm_step's errstate, and the norm is
        # then taken of the rescaled Gram.
        big = np.full((1, 100000), 1e150)
        with pytest.warns(RuntimeWarning, match="overflow encountered in multiply"):
            assert lipschitz_w(big, ObjectiveParams()) == 1.9999999999999773e305
        with pytest.warns(RuntimeWarning, match="overflow encountered in multiply"):
            assert lipschitz_h(big.T, 3, ObjectiveParams()) == 1.9999999999999773e305


@pytest.mark.parametrize("caller", ["difference_operator", "evaluate", "grad_h"])
def test_difference_operator_beyond_memory_refused_by_every_caller(caller, monkeypatch):
    # With n = reference.TOO_WIDE columns, the n x (n-1) float64 operator
    # is larger than physical memory. Each caller raises
    # difference_operator's own error before numpy is asked for it.
    n = reference.TOO_WIDE

    def no_allocation(*args, **kwargs):
        raise AssertionError("the operator was allocated")

    monkeypatch.setattr(objective.np, "zeros", no_allocation)
    v, w, h = np.ones((1, n)), np.ones((1, 1)), np.ones((1, n))
    calls = {
        "difference_operator": lambda: difference_operator(n),
        "evaluate": lambda: evaluate(v, w, h, ObjectiveParams(eta=1.0)),
        "grad_h": lambda: grad_h(v, w, h, ObjectiveParams(eta=1.0)),
    }
    with pytest.raises(ValueError, match=rf"^the difference operator \(n x n-1\) would be {n}x{n - 1}: "):
        calls[caller]()


def test_smoothed_loop_reads_no_entry_of_the_operator(monkeypatch, acceptance_06_v):
    # difference_operator still runs, for its two refusals, but hands out
    # NaN: a product with it would make the gradient and the value NaN.
    v = acceptance_06_v
    rng = np.random.default_rng(47)
    w, h = rng.uniform(0, 1, (100, 5)), rng.uniform(0, 1, (5, 200))
    params = ObjectiveParams(lam=0.5, eta=1.0)

    def results():
        res = solve(v, params, SolverConfig(k=5, seed=1000, max_iter=100))
        out = grad_h(v, w, h, params), np.float64(evaluate(v, w, h, params)), res.w, res.h, res.objective_trace
        return dict(zip(["grad_h", "evaluate", "W", "H", "trace"], (np.array(m).tobytes() for m in out)))

    expected = results()
    real = objective.difference_operator

    def nan_operator(n):
        nan = np.full(real(n).shape, math.nan)
        nan.flags.writeable = False
        return nan

    monkeypatch.setattr(objective, "difference_operator", nan_operator)
    got = results()
    for name in expected:
        assert got[name] == expected[name], name
