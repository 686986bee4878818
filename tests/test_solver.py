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
    evaluate,
    grad_h,
    grad_w,
    initialize,
    lipschitz_h,
    lipschitz_w,
    nonneg_project,
    palm_step,
    soft_threshold_nonneg,
    solve,
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
        ],
        ids=["nan", "inf", "-inf", "1-D", "empty"],
    )
    def test_rejects_malformed_input(self, v, match):
        # solve is the only check in front of the step kernels
        with pytest.raises(ValueError, match=match):
            solve(v, ObjectiveParams(), SolverConfig(k=1, max_iter=5))

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

        def no_work(v, config):
            raise AssertionError("initialize ran")

        monkeypatch.setattr(solver_module, "initialize", no_work)
        named = rf"the difference operator \(columns of v x columns of v - 1\) would be {n}x{n - 1}: "
        with pytest.raises(ValueError, match=named):
            solve(v, ObjectiveParams(eta=1.0), SolverConfig(k=1))

    def test_overflow_reports_iteration(self):
        v = np.full((4, 4), 1e300)
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
