"""Matrix-kernel tests against hand-rolled oracles.

The oracles here deliberately avoid the code paths under test: the
difference operator is checked against explicit column differences and
its Gram structure, and the thresholding map via 1-D grid search on its
defining objective. The config records' codec is checked by round trips
of drawn valid records through JSON text, and their declared bounds by a
hand-written table of edge values and messages.
"""

import json
import math
import os
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from palmnmf import (
    ObjectiveParams,
    SolverConfig,
    SyntheticSpec,
    difference_operator,
    nonneg_project,
    soft_threshold_nonneg,
    solve,
)
from palmnmf.benchmark import CLIP_MODES


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


class TestDifferenceOperatorCache:
    def test_same_n_shares_one_read_only_array(self):
        g = difference_operator(6)
        assert difference_operator(6) is g
        with pytest.raises(ValueError, match="read-only"):
            g[0, 0] = 2.0

    def test_new_width_replaces_the_kept_one(self):
        g4 = difference_operator(4)
        g5 = difference_operator(5)
        np.testing.assert_array_equal(g5, np.eye(5, 4) - np.eye(5, 4, -1))
        assert difference_operator(5) is g5
        assert difference_operator(4) is not g4
        np.testing.assert_array_equal(difference_operator(4), g4)

    def test_float_n_does_not_hit_the_int_entry(self):
        difference_operator(n=5)
        with pytest.raises(TypeError):
            difference_operator(n=5.0)

    def test_memory_refusal_after_a_small_n_is_kept(self):
        g3 = difference_operator(3)
        n = math.isqrt(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 8) + 2
        with pytest.raises(ValueError, match=rf"^the difference operator \(n x n-1\) would be {n}x{n - 1}: "):
            difference_operator(n)
        assert difference_operator(3) is g3

    def test_smoothed_solve_builds_the_operator_once(self):
        # solve evaluates the objective at iteration 0, then calls grad_h
        # and evaluate once each per iteration: one build, 2 m reuses.
        difference_operator.cache_clear()
        v = np.random.default_rng(3).uniform(size=(6, 9))
        result = solve(v, ObjectiveParams(eta=0.5), SolverConfig(k=2, max_iter=7, tol=1e-300))
        assert result.iterations == 7
        info = difference_operator.cache_info()
        assert (info.misses, info.hits) == (1, 2 * result.iterations)


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


def reals(min_value, max_value=None, exclude_min=False):
    """Finite numbers for a ``float`` field: floats, and integers, which
    the records accept and JSON keeps as integers."""
    floats = st.floats(min_value, max_value, exclude_min=exclude_min, allow_nan=False, allow_infinity=False)
    return floats | st.integers(int(min_value) + exclude_min, 10**30 if max_value is None else int(max_value))


records = st.one_of(
    st.builds(
        SolverConfig,
        k=st.integers(min_value=1),
        gamma1=reals(1.0, exclude_min=True),
        gamma2=reals(1.0, exclude_min=True),
        max_iter=st.integers(min_value=1),
        tol=reals(0.0, exclude_min=True),
        seed=st.integers(min_value=0),
    ),
    st.builds(ObjectiveParams, lam=reals(0.0), eta=reals(0.0), beta_w=reals(0.0), beta_h=reals(0.0)),
    st.builds(
        SyntheticSpec,
        d=st.integers(min_value=1),
        k=st.integers(min_value=1),
        n=st.integers(min_value=2),
        sigma=reals(0.0),
        w_density=reals(0.0, 1.0, exclude_min=True),
        clip_mode=st.sampled_from(CLIP_MODES),
        seed=st.integers(min_value=0),
    ),
)


class TestRecord:
    @given(records)
    def test_json_round_trip(self, record):
        text = json.dumps(record.to_dict(), allow_nan=False)
        assert type(record).from_dict(json.loads(text)) == record

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
        ],
    )
    def test_value_past_bound_has_one_message(self, cls, name, bad, message):
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
