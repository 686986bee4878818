"""Objective-value, gradient, and step-modulus tests.

Gradients are checked against central finite differences of an
independent re-statement of the smooth terms (written with plain numpy
slicing so it shares no code with the module under test, and accepts the
negative entries that perturbation produces).
"""

import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest

import palmnmf.objective as objective
from palmnmf import (
    DomainError,
    ObjectiveParams,
    ShapeError,
    difference_operator,
    evaluate,
    grad_h,
    grad_w,
    lipschitz_h,
    lipschitz_w,
)
from palmnmf.objective import LIPSCHITZ_FLOOR


def smooth_part(v, w, h, params):
    """Everything in the cost except the l1 term, sign-agnostic."""
    r = v - w @ h
    val = (r * r).sum()
    if params.eta > 0:
        adj = h[:, :-1] - h[:, 1:]
        val += params.eta * (adj * adj).sum()
    val += params.beta_w * (w * w).sum()
    val += params.beta_h * (h * h).sum()
    return float(val)


def fd_grad(f, m, step=1e-5):
    """Central finite differences of f with respect to the matrix m."""
    g = np.zeros_like(m)
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            plus = m.copy()
            minus = m.copy()
            plus[i, j] += step
            minus[i, j] -= step
            g[i, j] = (f(plus) - f(minus)) / (2.0 * step)
    return g


class TestObjectiveParams:
    def test_defaults(self):
        p = ObjectiveParams()
        assert (p.lam, p.eta, p.beta_w, p.beta_h) == (0.0, 0.0, 0.1, 0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lam": -1.0},
            {"eta": float("nan")},
            {"beta_w": -0.1},
            {"beta_h": float("inf")},
            {"lam": "0.5"},
            {"eta": None},
            {"beta_w": True},
        ],
    )
    def test_rejects_bad_weights(self, kwargs):
        with pytest.raises(ValueError):
            ObjectiveParams(**kwargs)

    def test_dict_round_trip(self):
        p = ObjectiveParams(lam=0.5, eta=2.0, beta_w=0.0, beta_h=0.3)
        d = p.to_dict()
        assert d == {"lambda": 0.5, "eta": 2.0, "beta_w": 0.0, "beta_h": 0.3}
        assert ObjectiveParams.from_dict(d) == p

    def test_from_dict_defaults(self):
        assert ObjectiveParams.from_dict({}) == ObjectiveParams()


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
            expected = smooth_part(v, w, h, params) + params.lam * np.abs(w).sum()
            assert evaluate(v, w, h, params) == pytest.approx(expected, rel=1e-12)

    def test_bitwise_explicit_formula_and_inputs_untouched(self):
        rng = np.random.default_rng(7)
        params = ObjectiveParams(lam=0.3, eta=0.7, beta_w=0.05, beta_h=0.2)
        for d, k, n in ((5, 2, 9), (40, 4, 70), (120, 6, 33)):
            v = rng.uniform(0, 1, (d, n))
            w = rng.uniform(0, 1, (d, k))
            h = rng.uniform(0, 1, (k, n))
            copies = [m.copy() for m in (v, w, h)]
            hd = h @ difference_operator(n)
            expected = float(np.sum((v - w @ h) * (v - w @ h)))
            expected += params.eta * float(np.sum(hd * hd))
            expected += params.lam * float(np.sum(np.abs(w)))
            expected += params.beta_w * float(np.sum(w * w))
            expected += params.beta_h * float(np.sum(h * h))
            assert evaluate(v, w, h, params) == expected
            for m, copy in zip((v, w, h), copies):
                assert m.tobytes() == copy.tobytes()

    def test_temporaries_bounded(self):
        # The residual is formed in blocks, not as one D x N float64 array;
        # what is left is mostly the D x N bool of the finiteness check.
        rng = np.random.default_rng(3)
        d, k, n = 1000, 20, 2000
        v, w, h = rng.uniform(0, 1, (d, n)), rng.uniform(0, 1, (d, k)), rng.uniform(0, 1, (k, n))
        tracemalloc.start()
        try:
            evaluate(v, w, h, ObjectiveParams(lam=0.3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * d * n / 4

    def test_total_overflowing_over_blocks_is_inf(self):
        # Three blocks of two rows, each summing to about 1.2e308.
        n = objective._BLOCK // 2
        v = np.full((6, n), 6e151)
        assert evaluate(v, np.zeros((6, 1)), np.zeros((1, n)), ObjectiveParams()) == math.inf

    def test_rejects_negative_factors(self):
        v = np.ones((2, 2))
        with pytest.raises(DomainError):
            evaluate(v, -np.ones((2, 2)), np.ones((2, 2)), ObjectiveParams())
        with pytest.raises(DomainError):
            evaluate(v, np.ones((2, 2)), -np.ones((2, 2)), ObjectiveParams())

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
            g_fd = fd_grad(lambda m: smooth_part(v, m, h, params), w)
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
            g_fd = fd_grad(lambda m: smooth_part(v, w, m, params), h)
            np.testing.assert_allclose(g, g_fd, rtol=1e-6, atol=1e-8)

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

    def test_lipschitz_h_rejects_bad_n(self):
        with pytest.raises(ValueError):
            lipschitz_h(np.ones((2, 2)), 0, ObjectiveParams())


@pytest.mark.parametrize("caller", ["difference_operator", "evaluate", "grad_h"])
def test_difference_operator_beyond_memory_refused_by_every_caller(caller, monkeypatch):
    # With n = isqrt(physical memory / 8) + 2 columns, the n x (n-1)
    # float64 operator is larger than physical memory. Each caller raises
    # difference_operator's own error before numpy is asked for it.
    n = math.isqrt(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 8) + 2

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
