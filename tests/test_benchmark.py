"""Synthetic generators, recovery scoring, and the variant comparison."""

import itertools
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

import palmnmf.benchmark as benchmark
from palmnmf import (
    NumericError,
    ObjectiveParams,
    ShapeError,
    SolverConfig,
    SyntheticSpec,
    default_sigma,
    default_variants,
    gen_smooth_rows,
    gen_sparse_matrix,
    generate,
    make_v,
    run_comparison,
    score_recovery,
    variant_label,
)
from palmnmf.benchmark import CLIP_MODES


def normalize_cols(m):
    out = m.astype(float).copy()
    for j in range(m.shape[1]):
        norm = np.linalg.norm(m[:, j])
        if norm > 0:
            out[:, j] /= norm
    return out


def brute_force_match(w, w_true):
    """Minimal summed column distance over every permutation."""
    wn, wrn = normalize_cols(w), normalize_cols(w_true)
    k = w.shape[1]
    best_cost, best_perm = np.inf, None
    for perm in itertools.permutations(range(k)):
        cost = sum(np.linalg.norm(wn[:, perm[j]] - wrn[:, j]) for j in range(k))
        if cost < best_cost:
            best_cost, best_perm = cost, perm
    return best_cost, best_perm


class TestSyntheticSpec:
    def test_dict_round_trip(self):
        spec = SyntheticSpec(d=10, k=2, n=30, sigma=0.5, w_density=0.4, clip_mode="absolute", seed=7)
        assert SyntheticSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"d": 0, "k": 1, "n": 2, "sigma": 0.1},
            {"d": 1, "k": 1, "n": 2, "sigma": -0.1},
            {"d": 1, "k": 1, "n": 2, "sigma": 0.1, "w_density": 0.0},
            {"d": 1, "k": 1, "n": 2, "sigma": 0.1, "w_density": 1.1},
            {"d": 1, "k": 1, "n": 2, "sigma": 0.1, "clip_mode": "clamp"},
            {"d": 1, "k": 1, "n": 2, "sigma": 0.1, "seed": -3},
            {"d": "6", "k": 1, "n": 2, "sigma": 0.1},
            {"d": 1, "k": 1.5, "n": 2, "sigma": 0.1},
            {"d": 1, "k": 1, "n": None, "sigma": 0.1},
            {"d": 1, "k": 1, "n": 2, "sigma": "0.1"},
            {"d": 1, "k": 1, "n": 2, "sigma": 0.1, "seed": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SyntheticSpec(**kwargs)


class TestGenSmoothRows:
    def test_deterministic(self):
        np.testing.assert_array_equal(gen_smooth_rows(3, 40, 5), gen_smooth_rows(3, 40, 5))

    def test_shape_nonneg_finite(self):
        m = gen_smooth_rows(4, 60, 1)
        assert m.shape == (4, 60)
        assert m.min() >= 0
        assert np.isfinite(m).all()

    def test_rows_vary_slowly(self):
        # Adjacent-column energy stays below the row energy itself once the
        # grid is fine enough to resolve the bumps.
        for n in (50, 80, 120, 200):
            for seed in range(5):
                h = gen_smooth_rows(4, n, seed)
                diffs = h[:, :-1] - h[:, 1:]
                assert (diffs * diffs).sum() < (h * h).sum()

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            gen_smooth_rows(0, 10, 0)
        with pytest.raises(ValueError):
            gen_smooth_rows(2, 1, 0)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((2, 1, 0), "n must be >= 2, got 1"),
            ((2, 10, -1), "seed must be >= 0, got -1"),
            ((2.0, 10, 0), "k must be an integer, got 2.0"),
        ],
    )
    def test_arguments_checked_as_spec_fields(self, args, message):
        with pytest.raises(ValueError) as info:
            gen_smooth_rows(*args)
        assert str(info.value) == message


class TestGenSparseMatrix:
    def test_exact_zero_count(self):
        m = gen_sparse_matrix(100, 5, 0.2, 3)
        assert (m == 0).sum() == 400

    def test_full_density_all_positive(self):
        m = gen_sparse_matrix(30, 4, 1.0, 3)
        assert (m > 0).all()

    def test_zero_count_rounds(self):
        # (1 - 0.7) * 3 * 3 = 2.7 -> 3 zeros
        m = gen_sparse_matrix(3, 3, 0.7, 0)
        assert (m == 0).sum() == 3

    def test_deterministic_and_in_range(self):
        a = gen_sparse_matrix(20, 6, 0.5, 9)
        np.testing.assert_array_equal(a, gen_sparse_matrix(20, 6, 0.5, 9))
        assert a.min() >= 0 and a.max() < 1

    def test_rejects_bad_density(self):
        with pytest.raises(ValueError):
            gen_sparse_matrix(3, 3, 0.0, 0)
        with pytest.raises(ValueError):
            gen_sparse_matrix(3, 3, 1.5, 0)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0, 3, 0.5, 0), "d must be >= 1, got 0"),
            ((3, 3, 1.5, 0), "w_density must be <= 1, got 1.5"),
            ((3, 3, float("nan"), 0), "w_density must be a finite number, got nan"),
            ((3, 3, 0.5, -2), "seed must be >= 0, got -2"),
        ],
    )
    def test_arguments_checked_as_spec_fields(self, args, message):
        with pytest.raises(ValueError) as info:
            gen_sparse_matrix(*args)
        assert str(info.value) == message


class TestMakeV:
    def test_no_noise_is_exact_product(self):
        rng = np.random.default_rng(42)
        w_r = rng.uniform(0, 1, (6, 2))
        h_r = rng.uniform(0, 1, (2, 9))
        for mode in ("max_zero", "absolute"):
            np.testing.assert_array_equal(make_v(w_r, h_r, 0.0, mode, 1), w_r @ h_r)

    def test_nonnegative_in_both_modes(self):
        w_r = np.full((10, 2), 0.01)
        h_r = np.full((2, 10), 0.01)
        for mode in ("max_zero", "absolute"):
            assert make_v(w_r, h_r, 5.0, mode, 2).min() >= 0

    def test_noise_magnitude_tracks_sigma(self):
        # per-entry RMS perturbation close to sigma when clipping is rare
        w_r = gen_sparse_matrix(100, 5, 1.0, 0)
        h_r = gen_smooth_rows(5, 200, 1)
        prod = w_r @ h_r
        for seed in range(20):
            v = make_v(w_r, h_r, 0.1, "max_zero", seed)
            rms = np.linalg.norm(v - prod) / np.sqrt(prod.size)
            assert 0.07 <= rms <= 0.13

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            make_v(np.ones((2, 3)), np.ones((2, 2)), 0.1, "max_zero", 0)

    @pytest.mark.parametrize("mode", CLIP_MODES)
    def test_non_finite_product_names_sigma(self, mode):
        # -inf is checked before clipping, which would turn it into 0.
        with pytest.raises(NumericError, match=r"not finite at sigma=0\.0$"):
            make_v(np.array([[-1e308]]), np.array([[10.0]]), 0.0, mode, 0)
        with pytest.raises(NumericError, match=r"not finite at sigma=1e\+308$"):
            make_v(np.ones((10, 1)), np.ones((1, 10)), 1e308, mode, 0)

    def test_rejects_bad_sigma_and_mode(self):
        with pytest.raises(ValueError):
            make_v(np.ones((2, 2)), np.ones((2, 2)), -1.0, "max_zero", 0)
        with pytest.raises(ValueError):
            make_v(np.ones((2, 2)), np.ones((2, 2)), 0.1, "clip", 0)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((-1.0, "max_zero", 0), "sigma must be >= 0, got -1.0"),
            ((float("inf"), "max_zero", 0), "sigma must be a finite number, got inf"),
            ((0.1, "clip", 0), "clip_mode must be one of ('max_zero', 'absolute'), got 'clip'"),
            ((0.1, "absolute", -1), "seed must be >= 0, got -1"),
        ],
    )
    def test_arguments_checked_as_spec_fields(self, args, message):
        with pytest.raises(ValueError) as info:
            make_v(np.ones((2, 2)), np.ones((2, 2)), *args)
        assert str(info.value) == message


class TestGenerate:
    def test_sub_seed_schedule(self):
        spec = SyntheticSpec(d=12, k=3, n=25, sigma=0.2, w_density=0.5, seed=40)
        v, w_r, h_r = generate(spec)
        np.testing.assert_array_equal(w_r, gen_sparse_matrix(12, 3, 0.5, 40))
        np.testing.assert_array_equal(h_r, gen_smooth_rows(3, 25, 41))
        np.testing.assert_array_equal(v, make_v(w_r, h_r, 0.2, "max_zero", 42))

    @pytest.mark.parametrize(
        "d, k, n, named",
        [
            (10**8, 2, 10**8, "v (d x n) would be 100000000x100000000"),
            (1, 10**18, 2, "w_true (d x k) would be 1x1000000000000000000"),
            (1, 10**7, 10**7, "h_true (k x n) would be 10000000x10000000"),
        ],
        ids=["d-n", "d-k", "k-n"],
    )
    def test_refuses_dimensions_beyond_memory(self, d, k, n, named):
        # Sizes far beyond any machine's memory: the spec is a valid record,
        # and generating it fails before any of its matrices is drawn.
        spec = SyntheticSpec(d=d, k=k, n=n, sigma=0.1)
        for make in (benchmark.ground_truth, generate):
            with pytest.raises(ValueError, match=r"physical memory") as info:
                make(spec)
            assert named in str(info.value)

    @given(
        d=st.integers(0, 6),
        k=st.integers(0, 4),
        n=st.integers(0, 8),
        sigma=st.floats(0, 10) | st.floats(-1, allow_nan=False, allow_infinity=False),
        w_density=st.floats(0, 1) | st.floats(-1, 2),
        clip_mode=st.sampled_from(CLIP_MODES + ("clamp",)),
        seed=st.integers(-2, 2**64),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_spec_that_constructs_generates(self, d, k, n, sigma, w_density, clip_mode, seed):
        # The generators check their arguments by the spec's own rules, so
        # no spec the record admits is refused by them.
        try:
            spec = SyntheticSpec(d=d, k=k, n=n, sigma=sigma, w_density=w_density, clip_mode=clip_mode, seed=seed)
        except ValueError:
            return
        try:
            v, w_r, h_r = generate(spec)
        except NumericError:  # sigma is unbounded above, and noise that large overflows
            return
        assert v.shape == (d, n) and w_r.shape == (d, k) and h_r.shape == (k, n)

    def test_overflowing_noise_is_numeric_error(self):
        with pytest.raises(NumericError, match=r"not finite at sigma=1e\+308$"):
            generate(SyntheticSpec(d=3, k=1, n=4, sigma=1e308))

    def test_default_sigma_hand_value(self):
        w_r = np.array([[1.0, 2.0]])
        h_r = np.array([[3.0], [4.0]])
        assert default_sigma(w_r, h_r) == pytest.approx(1.1, rel=1e-15)


class TestScoreRecovery:
    def test_self_match(self):
        rng = np.random.default_rng(42)
        w = rng.uniform(0, 1, (8, 3))
        h = rng.uniform(0, 1, (3, 10))
        s = score_recovery(w, h, w, h)
        assert s.dist_w == 0.0 and s.dist_h == 0.0
        assert s.permutation == (0, 1, 2)

    def test_permuted_rescaled_copy_scores_zero(self):
        rng = np.random.default_rng(42)
        w = rng.uniform(0.1, 1, (8, 3))
        h = rng.uniform(0.1, 1, (3, 10))
        perm = [2, 0, 1]
        # powers of two keep the rescaling exact in floating point
        scales = np.array([4.0, 0.5, 8.0])
        w_learned = w[:, perm] * scales
        h_learned = h[perm, :] / scales[:, None]
        s = score_recovery(w_learned, h_learned, w, h)
        assert s.dist_w == 0.0 and s.dist_h == 0.0
        # permutation maps ground-truth index -> learned index
        assert s.permutation == (1, 2, 0)
        for j in range(3):
            assert perm[s.permutation[j]] == j

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            k = int(rng.integers(2, 6))
            d = int(rng.integers(k, 10))
            w = rng.uniform(0, 1, (d, k))
            w_true = rng.uniform(0, 1, (d, k))
            h = rng.uniform(0, 1, (k, 7))
            h_true = rng.uniform(0, 1, (k, 7))
            s = score_recovery(w, h, w_true, h_true)
            cost, perm = brute_force_match(w, w_true)
            wn, wrn = normalize_cols(w), normalize_cols(w_true)
            matched = sum(
                np.linalg.norm(wn[:, s.permutation[j]] - wrn[:, j]) for j in range(k)
            )
            assert matched == pytest.approx(cost, abs=1e-12)
            assert s.permutation == perm

    def test_invariant_under_generic_positive_rescaling(self):
        rng = np.random.default_rng(42)
        w_true = rng.uniform(0, 1, (9, 4))
        h_true = rng.uniform(0, 1, (4, 11))
        w = rng.uniform(0, 1, (9, 4))
        h = rng.uniform(0, 1, (4, 11))
        base = score_recovery(w, h, w_true, h_true)
        perm = [3, 1, 0, 2]
        scales = rng.uniform(0.3, 7.0, 4)
        moved = score_recovery(w[:, perm] * scales, h[perm, :] * rng.uniform(0.3, 7.0, (4, 1)), w_true, h_true)
        assert moved.dist_w == pytest.approx(base.dist_w, abs=1e-12)
        assert moved.dist_h == pytest.approx(base.dist_h, abs=1e-12)

    @pytest.mark.parametrize("scale", [2.0**600, 2.0**-600])
    def test_power_of_two_rescaling_is_bitwise_exact(self, scale):
        rng = np.random.default_rng(0)
        w, h = rng.uniform(0, 1, (5, 3)), rng.uniform(0, 1, (3, 4))
        w_true, h_true = rng.uniform(0, 1, (5, 3)), rng.uniform(0, 1, (3, 4))
        assert score_recovery(w * scale, h * scale, w_true, h_true) == score_recovery(w, h, w_true, h_true)

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_scores_hold_where_squares_overflow_or_underflow(self, scale):
        # Squared entries of the scaled factors are beyond the float range,
        # or below its smallest subnormal.
        rng = np.random.default_rng(0)
        w, h = rng.uniform(0, 1, (5, 3)), rng.uniform(0, 1, (3, 4))
        w_true, h_true = rng.uniform(0, 1, (5, 3)), rng.uniform(0, 1, (3, 4))
        base = score_recovery(w, h, w_true, h_true)
        with np.errstate(all="raise"):
            moved = score_recovery(w * scale, h * scale, w_true, h_true)
        assert moved.dist_w == pytest.approx(base.dist_w, abs=1e-12)
        assert moved.dist_h == pytest.approx(base.dist_h, abs=1e-12)
        assert moved.permutation == base.permutation

    def test_zero_columns_stay_zero(self):
        w = np.zeros((5, 2))
        h = np.ones((2, 6))
        s = score_recovery(w, h, w, h)
        assert s.dist_w == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            score_recovery(np.ones((4, 2)), np.ones((2, 5)), np.ones((4, 3)), np.ones((3, 5)))

    def test_cost_matrix_matches_broadcast_expression(self, monkeypatch):
        # The cost is built one truth column at a time; it must equal, bit
        # for bit, the k x D x k broadcast it replaces.
        seen = []
        monkeypatch.setattr(benchmark, "_assign", lambda cost: seen.append(cost.copy()) or np.arange(len(cost)))
        rng = np.random.default_rng(42)
        for _ in range(40):
            d, k = int(rng.integers(1, 3000)), int(rng.integers(1, 30))
            w, w_true = rng.uniform(0, 1, (d, k)), rng.uniform(0, 1, (d, k))
            h = np.ones((k, 3))
            score_recovery(w, h, w_true, h)
            wn, wrn = benchmark._normalize_columns(w), benchmark._normalize_columns(w_true)
            expected = np.linalg.norm(wrn.T[:, :, None] - wn[None, :, :], axis=1)
            assert seen[-1].tobytes() == expected.tobytes()


square_costs = st.integers(1, 12).flatmap(
    lambda n: st.one_of(
        arrays(np.float64, (n, n), elements=st.floats(-1e6, 1e6)),
        arrays(np.float64, (n, n), elements=st.integers(0, 2).map(float)),
        st.floats(-1e6, 1e6).map(lambda c: np.full((n, n), c)),
    )
)


class TestAssign:
    @settings(max_examples=400, deadline=None)
    @given(square_costs)
    def test_same_permutation_as_scipy(self, cost):
        # Real-valued, tie-heavy small-integer and constant costs: the port
        # keeps scipy's scan order and tie rule, so even among several
        # optimal matchings it returns the one scipy returns.
        np.testing.assert_array_equal(benchmark._assign(cost), linear_sum_assignment(cost)[1])


class TestVariants:
    def test_labels(self):
        assert variant_label(ObjectiveParams()) == "plain"
        assert variant_label(ObjectiveParams(lam=0.5)) == "sparse"
        assert variant_label(ObjectiveParams(eta=1.0)) == "smooth"
        assert variant_label(ObjectiveParams(lam=0.5, eta=1.0)) == "sparse+smooth"

    def test_default_variants(self):
        variants = default_variants()
        assert [variant_label(p) for p in variants] == ["plain", "sparse", "smooth", "sparse+smooth"]
        assert variants[3] == ObjectiveParams(lam=0.5, eta=1.0, beta_w=0.1, beta_h=0.1)


SMALL_SPEC = SyntheticSpec(d=10, k=2, n=16, sigma=0.05, w_density=0.6, seed=8)
SMALL_CFG = SolverConfig(k=2, seed=100, max_iter=60)


class TestRunComparison:
    def test_single_repeat_single_variant(self):
        [result] = run_comparison(SMALL_SPEC, [ObjectiveParams()], SMALL_CFG, repeats=1)
        assert result.label == "plain"
        assert len(result.runs) == 1
        assert result.runs[0].seed == 100
        assert result.stats()["score"]["std"] == 0.0

    def test_identical_variants_give_identical_rows(self):
        a, b = run_comparison(SMALL_SPEC, [ObjectiveParams(lam=0.2)] * 2, SMALL_CFG, repeats=3)
        assert a.runs == b.runs

    def test_init_seed_schedule_and_prefix_property(self):
        short = run_comparison(SMALL_SPEC, [ObjectiveParams()], SMALL_CFG, repeats=2)
        long = run_comparison(SMALL_SPEC, [ObjectiveParams()], SMALL_CFG, repeats=4)
        assert [r.seed for r in long[0].runs] == [100, 101, 102, 103]
        assert long[0].runs[:2] == short[0].runs

    def test_stats_against_numpy(self):
        [result] = run_comparison(SMALL_SPEC, [ObjectiveParams()], SMALL_CFG, repeats=4)
        scores = np.array([r.dist_w + r.dist_h for r in result.runs])
        stats = result.stats()["score"]
        assert stats["mean"] == pytest.approx(scores.mean(), rel=1e-15)
        assert stats["median"] == pytest.approx(np.median(scores), rel=1e-15)
        assert stats["std"] == pytest.approx(scores.std(), rel=1e-15)

    def test_failures_recorded_not_raised(self, monkeypatch):
        real_solve = benchmark.solve

        def flaky(v, params, config):
            if config.seed == 101:
                raise NumericError("boom", iteration=3)
            return real_solve(v, params, config)

        monkeypatch.setattr(benchmark, "solve", flaky)
        [result] = run_comparison(SMALL_SPEC, [ObjectiveParams()], SMALL_CFG, repeats=3)
        assert [r.error is None for r in result.runs] == [True, False, True]
        failed = result.runs[1]
        assert np.isnan(failed.dist_w) and np.isnan(failed.dist_h)
        assert "boom" in failed.error
        # stats computed over the surviving runs only
        assert result.stats()["score"]["mean"] is not None

    def test_smooth_variants_fail_per_run_on_a_v_too_wide_for_g(self):
        # With n = isqrt(physical memory / 8) + 2 columns, the dense
        # n x (n-1) difference operator does not fit, so each smooth run
        # raises its real ValueError before allocating; the others still run.
        n = math.isqrt(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 8) + 2
        spec = SyntheticSpec(d=1, k=1, n=n, sigma=0.1, seed=1)
        results = run_comparison(spec, default_variants(), SolverConfig(k=1, max_iter=3), repeats=2)
        assert [vr.label for vr in results] == ["plain", "sparse", "smooth", "sparse+smooth"]
        for vr in results[:2]:
            assert all(r.error is None and np.isfinite(r.dist_w + r.dist_h) for r in vr.runs)
        named = f"the difference operator (n x n-1) would be {n}x{n - 1}: "
        for vr in results[2:]:
            assert all(named in r.error and np.isnan(r.dist_w) and np.isnan(r.dist_h) for r in vr.runs)
            assert all(stat["median"] is None for stat in vr.stats().values())

    def test_all_failures_leave_empty_stats(self, monkeypatch):
        def always_raise(v, params, config):
            raise NumericError("no luck")

        monkeypatch.setattr(benchmark, "solve", always_raise)
        [result] = run_comparison(SMALL_SPEC, [ObjectiveParams()], SMALL_CFG, repeats=2)
        assert result.stats()["score"]["median"] is None

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(v, params, config):
            raise TypeError("not a per-run failure")

        monkeypatch.setattr(benchmark, "solve", broken)
        with pytest.raises(TypeError, match="not a per-run failure"):
            run_comparison(SMALL_SPEC, [ObjectiveParams()], SMALL_CFG, repeats=1)

    def test_rejects_bad_repeats(self):
        with pytest.raises(ValueError):
            run_comparison(SMALL_SPEC, [ObjectiveParams()], SMALL_CFG, repeats=0)

    def test_rejects_k_other_than_the_specs_before_generating(self, monkeypatch):
        def no_data(spec):
            raise AssertionError("generate ran")

        monkeypatch.setattr(benchmark, "generate", no_data)
        with pytest.raises(ValueError, match=r"^config.k must equal spec.k, got 3 and 2$"):
            run_comparison(SMALL_SPEC, [ObjectiveParams()], SolverConfig(k=3), repeats=1)
