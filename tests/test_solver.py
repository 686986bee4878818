"""Solver behavior: initialization, step order, descent, stopping, errors."""

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import palmnmf.solver as solver_module
from palmnmf import (
    DomainError,
    NumericError,
    ObjectiveParams,
    SolverConfig,
    SyntheticSpec,
    default_variants,
    evaluate,
    generate,
    grad_h,
    grad_w,
    initialize,
    lipschitz_h,
    lipschitz_w,
    nonneg_project,
    palm_step,
    soft_threshold_nonneg,
    solve,
    variant_label,
)

DESCENT_SLACK = 1e-9


def assert_monotone(trace):
    t = np.asarray(trace)
    drops = np.diff(t)
    assert np.all(drops <= DESCENT_SLACK * (1.0 + np.abs(t[:-1])))


class TestSolverConfig:
    def test_defaults(self):
        c = SolverConfig(k=3)
        assert (c.gamma1, c.gamma2, c.max_iter, c.tol, c.seed) == (1.1, 1.1, 5000, 1e-6, 0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"k": 2, "gamma1": 1.0},
            {"k": 2, "gamma2": 0.9},
            {"k": 2, "max_iter": 0},
            {"k": 2, "tol": 0.0},
            {"k": 2, "gamma1": float("nan")},
            {"k": 2, "seed": -1},
            {"k": 2.5},
            {"k": "2"},
            {"k": 2, "max_iter": 10.0},
            {"k": 2, "seed": None},
            {"k": True},
            {"k": 2, "tol": "1e-6"},
            {"k": 2, "tol": float("inf")},
            {"k": 2, "gamma2": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_dict_round_trip(self):
        c = SolverConfig(k=4, gamma1=1.2, gamma2=1.3, max_iter=10, tol=1e-3, seed=9)
        assert SolverConfig.from_dict(c.to_dict()) == c


class TestInitialize:
    def test_deterministic(self):
        v = np.random.default_rng(42).uniform(0, 2, (6, 9))
        cfg = SolverConfig(k=3, seed=11)
        w1, h1 = initialize(v, cfg)
        w2, h2 = initialize(v, cfg)
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(h1, h2)

    def test_shapes_and_range(self):
        v = np.full((5, 8), 2.0)
        w, h = initialize(v, SolverConfig(k=3, seed=0))
        scale = math.sqrt(2.0 / 3)
        assert w.shape == (5, 3) and h.shape == (3, 8)
        assert w.min() >= 0 and h.min() >= 0
        assert w.max() <= scale and h.max() <= scale

    def test_product_mean_tracks_input_mean(self):
        # With entries uniform on [0, sqrt(mean(v)/k)] the product w0 @ h0
        # has expected mean k * (scale/2)^2 = mean(v)/4; check the average
        # ratio over many seeds sits in a comfortable band around 1/4.
        v = np.random.default_rng(42).uniform(0, 3, (20, 30))
        ratios = []
        for seed in range(50):
            w, h = initialize(v, SolverConfig(k=4, seed=seed))
            ratios.append((w @ h).mean() / v.mean())
        assert 0.2 < np.mean(ratios) < 0.3

    def test_rejects_negative_input(self):
        with pytest.raises(DomainError):
            initialize(np.array([[1.0, -0.5]]), SolverConfig(k=1))

    def test_mean_beyond_float_range_is_numeric_error(self):
        # Every entry is finite, but their mean overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=r"^the mean of v overflows$"):
                initialize(np.full((2, 2), 1e308), SolverConfig(k=1))

    def test_zero_input_gives_zero_factors(self):
        w, h = initialize(np.zeros((3, 4)), SolverConfig(k=2, seed=1))
        assert not w.any() and not h.any()

    @pytest.mark.parametrize(
        "k, named",
        [
            (10**18, r"w \(rows of v x k\) would be 3x%d: " % 10**18),
            (10**400, r"w \(rows of v x k\) would be 3x%d: " % 10**400),
            # Both factors fit; the k x k Gram of the step moduli does not.
            (10**7, r"the Gram h h\^T \(k x k\) would be 10000000x10000000: "),
        ],
        ids=["exabytes", "400-digit", "gram"],
    )
    def test_rejects_k_beyond_memory(self, k, named):
        # Sizes far beyond any machine's memory: the check fires before
        # numpy is asked to allocate anything.
        with pytest.raises(ValueError, match=named):
            initialize(np.ones((3, 4)), SolverConfig(k=k))


class TestPalmStep:
    def test_matches_manual_two_stage_update(self):
        rng = np.random.default_rng(42)
        v = rng.uniform(0, 1, (7, 9))
        w = rng.uniform(0, 1, (7, 3))
        h = rng.uniform(0, 1, (3, 9))
        params = ObjectiveParams(lam=0.4, eta=0.6, beta_w=0.1, beta_h=0.1)
        cfg = SolverConfig(k=3, gamma1=1.3, gamma2=1.7)

        c = cfg.gamma1 * lipschitz_w(h, params)
        w_expect = soft_threshold_nonneg(w - grad_w(v, w, h, params) / c, params.lam / c)
        d = cfg.gamma2 * lipschitz_h(w_expect, 9, params)
        h_expect = nonneg_project(h - grad_h(v, w_expect, h, params) / d)

        w_next, h_next = palm_step(v, w, h, params, cfg)
        np.testing.assert_array_equal(w_next, w_expect)
        np.testing.assert_array_equal(h_next, h_expect)

    def test_h_update_uses_fresh_w(self):
        # Recomputing the h stage with the stale w must give a different
        # answer on a generic instance; equality would mean the step order
        # is wrong.
        rng = np.random.default_rng(43)
        v = rng.uniform(0, 1, (7, 9))
        w = rng.uniform(0, 1, (7, 3))
        h = rng.uniform(0, 1, (3, 9))
        params = ObjectiveParams(beta_w=0.1, beta_h=0.1)
        cfg = SolverConfig(k=3)

        _, h_next = palm_step(v, w, h, params, cfg)
        d_stale = cfg.gamma2 * lipschitz_h(w, 9, params)
        h_stale = nonneg_project(h - grad_h(v, w, h, params) / d_stale)
        assert np.abs(h_next - h_stale).max() > 1e-8

    def test_output_stays_nonnegative(self):
        rng = np.random.default_rng(44)
        v = rng.uniform(0, 1, (5, 6))
        w = rng.uniform(0, 1, (5, 2))
        h = rng.uniform(0, 1, (2, 6))
        w_next, h_next = palm_step(v, w, h, ObjectiveParams(lam=1.0), SolverConfig(k=2))
        assert w_next.min() >= 0 and h_next.min() >= 0

    def test_overflow_raises_numeric_error(self):
        big = np.full((3, 3), 1e200)
        with pytest.raises(NumericError):
            palm_step(np.ones((3, 3)), big, big, ObjectiveParams(), SolverConfig(k=3))

    @pytest.mark.parametrize("scale", [1e-150, 1e-160, 1e-200])
    def test_partly_collapsed_factor_recovers(self, scale):
        # h's Gram, at most 60 * scale**2, is far below LIPSCHITZ_FLOOR, so
        # w's step modulus is the floor, which bounds w's first step. A
        # floor at the smallest normal double instead made the h update
        # overflow at step 0 or 1.
        rng = np.random.default_rng(0)
        v = rng.uniform(0, 1, (50, 60))
        w = rng.uniform(0, 1, (50, 3))
        h = rng.uniform(0, scale, (3, 60))
        for _ in range(200):
            w, h = palm_step(v, w, h, ObjectiveParams(beta_w=0, beta_h=0), SolverConfig(k=3))
        assert np.isfinite(w).all() and np.isfinite(h).all()
        assert np.linalg.norm(v - w @ h) / np.linalg.norm(v) < 0.5


class TestPalmStepFiniteness:
    """palm_step's finiteness test looks at every entry: finite entries whose
    sum overflows step, and a -inf entry that the prox would clamp is refused.
    Each case fixes one block's gradient (and its modulus at 1, so that
    c = gamma = 1.25 exactly) to place 1.5e308 / 1.25 = 1.2e308 in row 0 of
    the update's subtrahend."""

    PARAMS = ObjectiveParams(lam=0.4, eta=0.6)
    CONFIG = SolverConfig(k=2, gamma1=1.25, gamma2=1.25)

    @staticmethod
    def instance():
        rng = np.random.default_rng(45)
        return rng.uniform(0, 1, (6, 5)), rng.uniform(0, 1, (6, 2)), rng.uniform(0, 1, (2, 5))

    def fix_gradient(self, monkeypatch, block, v, w, h):
        """Make grad_<block> return its true value with row 0 set to 1.5e308,
        and lipschitz_<block> return 1; return the fixed gradient."""
        g = grad_w(v, w, h, self.PARAMS) if block == "w" else grad_h(v, w, h, self.PARAMS)
        g[0] = 1.5e308
        monkeypatch.setattr(solver_module, f"grad_{block}", lambda *args: g.copy())
        monkeypatch.setattr(solver_module, f"lipschitz_{block}", lambda *args: 1.0)
        return g

    def test_w_update_whose_sum_overflows_steps(self, monkeypatch):
        v, w, h = self.instance()
        g = self.fix_gradient(monkeypatch, "w", v, w, h)
        z = w - g / 1.25
        with np.errstate(over="ignore"):
            assert np.isfinite(z).all() and np.sum(z) == -np.inf
        w_expect = np.maximum(z - self.PARAMS.lam / 1.25, 0.0)
        d = 1.25 * lipschitz_h(w_expect, 5, self.PARAMS)
        h_expect = np.maximum(h - grad_h(v, w_expect, h, self.PARAMS) / d, 0.0)
        w_next, h_next = palm_step(v, w, h, self.PARAMS, self.CONFIG)
        assert (w_next[0] == 0).all()
        assert w_next.tobytes() == w_expect.tobytes()
        assert h_next.tobytes() == h_expect.tobytes()

    def test_h_update_whose_sum_overflows_steps(self, monkeypatch):
        v, w, h = self.instance()
        c = 1.25 * lipschitz_w(h, self.PARAMS)
        w_expect = np.maximum(w - grad_w(v, w, h, self.PARAMS) / c - self.PARAMS.lam / c, 0.0)
        g = self.fix_gradient(monkeypatch, "h", v, w_expect, h)
        y = h - g / 1.25
        with np.errstate(over="ignore"):
            assert np.isfinite(y).all() and np.sum(y) == -np.inf
        h_expect = np.maximum(y, 0.0)
        w_next, h_next = palm_step(v, w, h, self.PARAMS, self.CONFIG)
        assert (h_next[0] == 0).all()
        assert w_next.tobytes() == w_expect.tobytes()
        assert h_next.tobytes() == h_expect.tobytes()

    @pytest.mark.parametrize("block", ["w", "h"])
    def test_minus_inf_entry_is_refused_though_the_prox_would_clamp_it(self, block, monkeypatch):
        # A gradient entry that overflowed to inf puts -inf in the update;
        # max(-inf - tau, 0) would be a finite 0.
        v, w, h = self.instance()
        g = self.fix_gradient(monkeypatch, block, v, w, h)
        g[0, 0] = np.inf
        with pytest.raises(NumericError, match=f"^{block} update produced non-finite values$"):
            palm_step(v, w, h, self.PARAMS, self.CONFIG)


def _prox_each(prox, *args):
    return lambda v, w, h, params: tuple(prox(m, *args) for m in (v, w, h))


@pytest.mark.parametrize("n", [9, 10], ids=["n9-stride-8", "n10"])
@pytest.mark.parametrize(
    "kernel",
    [
        grad_w,
        grad_h,
        _prox_each(soft_threshold_nonneg, 0.0),
        _prox_each(soft_threshold_nonneg, 0.3),
        _prox_each(nonneg_project),
        lambda v, w, h, params: palm_step(v, w, h, params, SolverConfig(k=3)),
    ],
    ids=["grad_w", "grad_h", "soft_threshold-tau0", "soft_threshold-tau", "nonneg_project", "palm_step"],
)
def test_kernels_leave_their_inputs_and_return_fresh_arrays(kernel, n):
    # The kernels work in place on arrays they make; none may write to, or
    # return a view of, what it was given. At n = 9, grad_h's h D is 3 x 8,
    # the stride at which numpy 2.4.6's np.negative mishandles a strided out.
    rng = np.random.default_rng(n)
    v, w, h = rng.uniform(0, 1, (7, n)), rng.uniform(-0.5, 1, (7, 3)), rng.uniform(-0.5, 1, (3, n))
    before = [m.tobytes() for m in (v, w, h)]
    out = kernel(v, w, h, ObjectiveParams(lam=0.4, eta=0.6))
    for m, b in zip((v, w, h), before):
        assert m.tobytes() == b
    for o in out if isinstance(out, tuple) else (out,):
        assert not any(np.shares_memory(o, m) for m in (v, w, h))


class TestSolve:
    def test_descent_across_parameter_mixes(self):
        rng = np.random.default_rng(42)
        settings = [
            ObjectiveParams(),
            ObjectiveParams(lam=0.5),
            ObjectiveParams(eta=2.0),
            ObjectiveParams(lam=0.3, eta=1.0, beta_w=0.0, beta_h=0.0),
        ]
        for i, params in enumerate(settings):
            v = rng.uniform(0, 2, (8, 12))
            res = solve(v, params, SolverConfig(k=3, seed=i, max_iter=150))
            assert_monotone(res.objective_trace)

    def test_trace_starts_at_initialization(self):
        v = np.random.default_rng(42).uniform(0, 1, (6, 10))
        params = ObjectiveParams(lam=0.2, eta=0.5)
        cfg = SolverConfig(k=2, seed=3, max_iter=20)
        res = solve(v, params, cfg)
        w0, h0 = initialize(v, cfg)
        assert res.objective_trace[0] == evaluate(v, w0, h0, params)
        assert len(res.objective_trace) == res.iterations + 1

    def test_huge_tolerance_stops_after_one_iteration(self):
        v = np.random.default_rng(42).uniform(0, 1, (5, 7))
        res = solve(v, ObjectiveParams(), SolverConfig(k=2, tol=1e10))
        assert res.converged
        assert res.iterations == 1
        assert len(res.objective_trace) == 2

    def test_iteration_budget_respected(self):
        v = np.random.default_rng(42).uniform(0, 1, (10, 14))
        res = solve(v, ObjectiveParams(), SolverConfig(k=3, max_iter=7, tol=1e-15))
        assert res.iterations == 7
        assert not res.converged

    def test_deterministic(self):
        v = np.random.default_rng(42).uniform(0, 1, (8, 9))
        cfg = SolverConfig(k=3, seed=5, max_iter=40)
        a = solve(v, ObjectiveParams(lam=0.1), cfg)
        b = solve(v, ObjectiveParams(lam=0.1), cfg)
        np.testing.assert_array_equal(a.w, b.w)
        np.testing.assert_array_equal(a.h, b.h)
        assert a.objective_trace == b.objective_trace

    def test_parallel_runs_match_sequential(self):
        v = np.random.default_rng(42).uniform(0, 1, (10, 12))
        params = ObjectiveParams(lam=0.2, eta=0.4)
        configs = [SolverConfig(k=3, seed=s, max_iter=60) for s in range(4)]
        sequential = [solve(v, params, c) for c in configs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(lambda c: solve(v, params, c), configs))
        for a, b in zip(sequential, parallel):
            np.testing.assert_array_equal(a.w, b.w)
            np.testing.assert_array_equal(a.h, b.h)

    @pytest.mark.parametrize(
        "params",
        [*default_variants(), ObjectiveParams(lam=0.2, eta=0.3, beta_w=0.0, beta_h=0.0)],
        ids=["plain", "sparse", "smooth", "sparse+smooth", "no-ridge"],
    )
    def test_each_iteration_decreases_the_cost_by_the_prox_gradient_bound(self, params, acceptance_06_v):
        # A prox-gradient step of modulus c on a block whose gradient is
        # L-Lipschitz lowers the cost by at least (c - L/2) ||step||^2 (Beck,
        # First-Order Methods in Optimization, 2017, Lemma 10.4). Here
        # c = gamma L, with L from the public moduli. The bound is nearly
        # tight (ratio 1.006 at worst over 3000 iterations), so a modulus
        # too small or a wrong gradient breaks it while the trace still
        # descends. The slack covers rounding in the two values, about
        # 1e-16 |F|; the smallest margin seen was 4.7e-9 |F|.
        v = acceptance_06_v
        config = SolverConfig(k=5, seed=1000)
        w, h = initialize(v, config)
        f = evaluate(v, w, h, params)
        for _ in range(1000):
            l_w = lipschitz_w(h, params)
            w_next, h_next = palm_step(v, w, h, params, config)
            l_h = lipschitz_h(w_next, v.shape[1], params)
            f_next = evaluate(v, w_next, h_next, params)
            bound = (config.gamma1 - 0.5) * l_w * float(((w_next - w) ** 2).sum())
            bound += (config.gamma2 - 0.5) * l_h * float(((h_next - h) ** 2).sum())
            assert f - f_next >= bound - 1e-12 * abs(f)
            w, h, f = w_next, h_next, f_next

    @pytest.mark.parametrize("shape", [(1, 100000), (100000, 1)], ids=["wide", "tall"])
    def test_step_modulus_whose_squares_overflow_moves_both_blocks(self, shape):
        # The Gram h h^T (wide) or w^T w (tall) is about 1e155, so its square
        # overflows while the cost is finite. A modulus of inf would leave
        # that block where it started, and still stop on the relative step.
        v = np.full(shape, 1e150)
        config = SolverConfig(k=1)
        w0, h0 = initialize(v, config)
        # Called directly, outside palm_step's errstate, the modulus whose
        # squares overflow warns of it, then returns its rescaled, finite value.
        moduli = [lambda: lipschitz_w(h0, ObjectiveParams()), lambda: lipschitz_h(w0, shape[1], ObjectiveParams())]
        overflows, fits = moduli if shape[0] == 1 else moduli[::-1]
        with pytest.warns(RuntimeWarning, match="overflow encountered in multiply"):
            assert math.isfinite(overflows())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(fits())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve(v, ObjectiveParams(), config)
        assert res.converged
        assert (res.w != w0).any() and (res.h != h0).any()
        assert res.objective_trace[-1] < 1e-12 * res.objective_trace[0]

    def test_rejects_negative_input(self):
        with pytest.raises(DomainError):
            solve(np.array([[1.0, -1.0]]), ObjectiveParams(), SolverConfig(k=1))

    @pytest.mark.parametrize(
        "v, match",
        [
            ([[1.0, np.nan]], "non-finite"),
            ([[1.0, np.inf]], "non-finite"),
            ([[1.0, -np.inf]], "non-finite"),
            ([1.0, 2.0], "2-D"),
            (np.zeros((0, 3)), "non-empty"),
            ([[1 + 1j, 2.0]], "real"),
            (np.ones((2, 2)) * 1j, "real"),
        ],
        ids=["nan", "inf", "-inf", "1-D", "empty", "complex-list", "complex-array"],
    )
    def test_rejects_malformed_input(self, v, match):
        # solve is the only check in front of the step kernels
        with pytest.raises(ValueError, match=match):
            solve(v, ObjectiveParams(), SolverConfig(k=1, max_iter=5))

    def test_validates_v_once(self, monkeypatch):
        real = solver_module.as_matrix
        calls = []

        def counted(*args):
            calls.append(args[1:])
            return real(*args)

        monkeypatch.setattr(solver_module, "as_matrix", counted)
        solve(np.ones((3, 4)), ObjectiveParams(), SolverConfig(k=1, max_iter=3))
        assert calls == [("v",)]

    def test_converts_a_non_array_v_once(self):
        class Counted:
            calls = 0

            def __array__(self, dtype=None, copy=None):
                Counted.calls += 1
                return np.ones((3, 4), dtype=dtype)

        solve(Counted(), ObjectiveParams(), SolverConfig(k=1, max_iter=3))
        assert Counted.calls == 1

    def test_converts_an_integer_v_once(self, monkeypatch):
        # solve casts v to float64 itself, so initialize's validation
        # returns that array rather than a second copy.
        real = solver_module.as_matrix
        seen = []

        def same(a, name):
            m = real(a, name)
            seen.append(m is a)
            return m

        monkeypatch.setattr(solver_module, "as_matrix", same)
        v = np.arange(1, 13, dtype=np.int64).reshape(3, 4)
        a = solve(v, ObjectiveParams(), SolverConfig(k=1, max_iter=3))
        assert seen == [True]
        b = solve(v.astype(np.float64), ObjectiveParams(), SolverConfig(k=1, max_iter=3))
        assert a.objective_trace == b.objective_trace

    def test_accepts_nested_list(self):
        rows = [[1.0, 2.0, 0.5], [0.0, 1.5, 3.0]]
        cfg = SolverConfig(k=1, seed=2, max_iter=20)
        a = solve(rows, ObjectiveParams(lam=0.1, eta=0.5), cfg)
        b = solve(np.array(rows), ObjectiveParams(lam=0.1, eta=0.5), cfg)
        np.testing.assert_array_equal(a.w, b.w)
        np.testing.assert_array_equal(a.h, b.h)
        assert a.objective_trace == b.objective_trace

    def test_smoothness_needs_two_columns(self):
        with pytest.raises(ValueError, match="at least 2 columns"):
            solve(np.ones((3, 1)), ObjectiveParams(eta=1.0), SolverConfig(k=1))

    def test_rejects_difference_operator_beyond_memory(self, monkeypatch):
        # With n = isqrt(physical memory / 8) + 2 columns, the n x (n-1)
        # float64 operator is larger than physical memory.
        n = math.isqrt(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 8) + 2
        v = np.ones((1, n))
        assert solve(v, ObjectiveParams(), SolverConfig(k=1, max_iter=1)).iterations == 1

        def no_step(*args):
            raise AssertionError("palm_step ran")

        monkeypatch.setattr(solver_module, "palm_step", no_step)
        named = rf"the difference operator \(n x n-1\) would be {n}x{n - 1}: "
        with pytest.raises(ValueError, match=named):
            solve(v, ObjectiveParams(eta=1.0), SolverConfig(k=1))

    def test_overflow_reports_iteration(self):
        v = np.full((4, 4), 1e300)
        with pytest.raises(NumericError) as exc_info:
            solve(v, ObjectiveParams(), SolverConfig(k=2, max_iter=50))
        assert exc_info.value.iteration == 0
        assert "iteration 0" in str(exc_info.value)

    def test_overflow_over_blocks_reports_iteration(self):
        # Each of evaluate's three row blocks sums to a finite value; the
        # objective's total does not.
        v = np.full((6, 2**14), 6e151)
        with pytest.raises(NumericError) as exc_info:
            solve(v, ObjectiveParams(), SolverConfig(k=2, max_iter=50))
        assert exc_info.value.iteration == 0
        assert "iteration 0" in str(exc_info.value)

    def test_step_failure_reports_its_iteration(self, monkeypatch):
        real_step = solver_module.palm_step
        calls = []

        def fails_third(*args):
            calls.append(None)
            if len(calls) == 3:
                raise NumericError("h update produced non-finite values")
            return real_step(*args)

        monkeypatch.setattr(solver_module, "palm_step", fails_third)
        v = np.random.default_rng(42).uniform(0, 1, (4, 5))
        with pytest.raises(NumericError, match=r"^iteration 3: h update produced non-finite values$") as exc_info:
            solve(v, ObjectiveParams(), SolverConfig(k=2, max_iter=50))
        assert exc_info.value.iteration == 3

    def test_factors_nonnegative_and_finite(self):
        v = np.random.default_rng(42).uniform(0, 3, (9, 11))
        res = solve(v, ObjectiveParams(lam=0.5, eta=1.0), SolverConfig(k=4, seed=2, max_iter=100))
        assert res.w.min() >= 0 and res.h.min() >= 0
        assert np.isfinite(res.w).all() and np.isfinite(res.h).all()

    def test_near_exact_recovery_noiseless(self):
        rng = np.random.default_rng(7)
        v = rng.uniform(0, 1, (8, 2)) @ rng.uniform(0, 1, (2, 12))
        params = ObjectiveParams(beta_w=0.0, beta_h=0.0)
        errs = []
        for seed in range(3):
            res = solve(v, params, SolverConfig(k=2, seed=seed, max_iter=3000))
            errs.append(np.linalg.norm(v - res.w @ res.h) / np.linalg.norm(v))
        assert min(errs) < 1e-2


def _v_with_zero_row_and_column():
    v = np.random.default_rng(8).uniform(0, 2, (30, 40))
    v[7] = 0.0
    v[:, 13] = 0.0
    return v


# From alpha = 4**-30 down (j = -20 still holds) a step modulus falls under
# the absolute LIPSCHITZ_FLOOR, which does not scale; these pass once it does.
_FLOOR_BREAKS_SCALING = pytest.mark.xfail(strict=True, reason="ROADMAP item 15: absolute LIPSCHITZ_FLOOR")


@pytest.mark.parametrize(
    "j", [-3, 2, 5, pytest.param(-40, marks=_FLOOR_BREAKS_SCALING), pytest.param(-60, marks=_FLOOR_BREAKS_SCALING)]
)
@pytest.mark.parametrize(
    "params",
    [ObjectiveParams(), ObjectiveParams(lam=0.5, eta=1.0), ObjectiveParams(lam=0.2, eta=0.3, beta_w=0.0, beta_h=0.02)],
    ids=variant_label,
)
@pytest.mark.parametrize(
    ("v", "k"),
    [
        (generate(SyntheticSpec(d=257, k=16, n=100, sigma=0.1, seed=11))[0], 16),
        (_v_with_zero_row_and_column(), 4),
        (np.random.default_rng(9).uniform(0, 1, (64, 33)), 7),
        (np.random.default_rng(10).uniform(0, 5, (3, 2)), 1),
    ],
    ids=["257x100-k16", "zero-row-and-column", "64x33-k7", "3x2-k1"],
)
def test_scaling_law_is_exact(v, k, params, j):
    # The cost is degree 2 in v and degree 4 in (w, h), so with v, beta_w,
    # beta_h and eta scaled by alpha = 4**j and lam by alpha**1.5, every
    # draw, gradient, modulus, threshold and prox scales by a power of two,
    # which is exact: w and h come out 2**j times, the trace 16**j times.
    alpha = 4.0**j
    scaled = ObjectiveParams(
        lam=params.lam * alpha**1.5, eta=params.eta * alpha, beta_w=params.beta_w * alpha, beta_h=params.beta_h * alpha
    )
    config = SolverConfig(k=k, seed=3, max_iter=40, tol=1e-4)
    res = solve(v, params, config)
    big = solve(alpha * v, scaled, config)
    assert big.iterations == res.iterations and big.converged == res.converged
    assert big.w.tobytes() == (2.0**j * res.w).tobytes()
    assert big.h.tobytes() == (2.0**j * res.h).tobytes()
    assert np.array(big.objective_trace).tobytes() == (16.0**j * np.array(res.objective_trace)).tobytes()
