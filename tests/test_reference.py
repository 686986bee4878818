"""``solve`` against the plain PALM of ``reference.py``.

Any kernel change that claims to be a pure refactor (the same W, H and
objective trace, bit for bit) is checked here against the formulas.
"""

import math

import numpy as np
import pytest
import reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

import palmnmf.objective as objective
from palmnmf import (
    NumericError,
    ObjectiveParams,
    SolverConfig,
    SyntheticSpec,
    default_variants,
    generate,
    initialize,
    lipschitz_h,
    lipschitz_w,
    palm_step,
    solve,
    variant_label,
)


@pytest.mark.parametrize("params", default_variants(), ids=variant_label)
def test_acceptance_06_bitwise_over_300_iterations(params, acceptance_06_v):
    v = acceptance_06_v
    config = SolverConfig(k=5, seed=1000, max_iter=300, tol=1e-15)
    res = solve(v, params, config)
    w, h, trace = reference.solve(v, params, config)
    assert res.iterations == len(trace) - 1 == 300
    assert res.w.tobytes() == w.tobytes()
    assert res.h.tobytes() == h.tobytes()
    assert np.array(res.objective_trace).tobytes() == np.array(trace).tobytes()


@pytest.mark.parametrize("params", [ObjectiveParams(), ObjectiveParams(lam=0.5, eta=1.0)], ids=variant_label)
def test_above_one_block_factors_bitwise_trace_within_4_ulps(params):
    # evaluate sums the residual of 200 x 400 in 3 row blocks and adds the
    # block sums with fsum; the oracle takes one pairwise sum. Both sum
    # nonnegative terms, far inside their error bounds: the traces differ by
    # at most 2 ulps here. W and H do not depend on the trace. The solve
    # stops on its tolerance, after about 150 iterations.
    v = generate(SyntheticSpec(d=200, k=5, n=400, sigma=0.1, seed=9))[0]
    assert v.size > objective._BLOCK
    config = SolverConfig(k=5, seed=3, max_iter=200, tol=1e-3)
    res = solve(v, params, config)
    w, h, trace = reference.solve(v, params, config)
    assert res.converged and res.iterations == len(trace) - 1 < 200
    assert res.w.tobytes() == w.tobytes()
    assert res.h.tobytes() == h.tobytes()
    for a, b in zip(res.objective_trace, trace):
        assert abs(a - b) <= 4 * math.ulp(b)


@pytest.mark.parametrize("params", default_variants(), ids=variant_label)
@pytest.mark.parametrize(("d", "n", "k"), [(257, 100, 16), (513, 200, 20)], ids=["257x100-k16", "513x200-k20"])
def test_wide_k_shapes_factors_bitwise(d, n, k, params):
    # At these shapes OpenBLAS 0.3.31 rounds v @ h.T and (h @ v.T).T
    # differently, so W and H match only when the oracle associates v h^T
    # as grad_w does. Up to one residual block the trace is bitwise too;
    # above it, evaluate's blocked sum keeps it within 4 ulps.
    v = generate(SyntheticSpec(d=d, k=k, n=n, sigma=0.1, seed=11))[0]
    config = SolverConfig(k=k, seed=4, max_iter=20, tol=1e-15)
    res = solve(v, params, config)
    w, h, trace = reference.solve(v, params, config)
    assert res.iterations == len(trace) - 1 == 20
    assert res.w.tobytes() == w.tobytes()
    assert res.h.tobytes() == h.tobytes()
    if v.size <= objective._BLOCK:
        assert np.array(res.objective_trace).tobytes() == np.array(trace).tobytes()
    for a, b in zip(res.objective_trace, trace):
        assert abs(a - b) <= 4 * math.ulp(b)


@pytest.mark.parametrize("params", default_variants(), ids=variant_label)
@pytest.mark.parametrize("n", [2, 3, 9])
def test_narrow_widths_with_a_zero_column_bitwise(n, params):
    # At n = 9, hd[:, -1] has a stride of 8 elements. Without smoothness
    # the prox clamps an entry of h in the zero column of v to +0.0. The
    # sparse solve at n = 2 stops on its tolerance after 27 iterations.
    v = np.random.default_rng(n).uniform(0, 1, (6, n))
    v[:, n // 2] = 0.0
    config = SolverConfig(k=2, seed=5, max_iter=50, tol=1e-15)
    res = solve(v, params, config)
    w, h, trace = reference.solve(v, params, config)
    assert res.iterations == len(trace) - 1 >= 27
    assert res.w.tobytes() == w.tobytes()
    assert res.h.tobytes() == h.tobytes()
    assert np.array(res.objective_trace).tobytes() == np.array(trace).tobytes()


@pytest.mark.parametrize("eta", [0.0, 0.7])
@pytest.mark.parametrize("beta", [0.0, 0.1])
@pytest.mark.parametrize("n", [1, 2, 7, 2000])
def test_step_moduli_are_the_oracles_bitwise(n, beta, eta):
    # Both moduli against the oracle's one rule, by bytes, so that an
    # association slip (say 2 ||gram|| + (2 beta + smooth)) shows: random
    # factors of several shapes, then zero ones, whose floor binds at
    # beta = 0. Grams whose squares overflow are test_objective's.
    rng = np.random.default_rng(n)
    p = ObjectiveParams(eta=eta, beta_w=beta, beta_h=beta)
    smooth = 2.0 * eta * np.sqrt(6.0 * n - 8.0) if eta > 0 and n >= 2 else 0.0
    for d, k in [(1, 1), (6, 3), (40, 17), (300, 20), (5, 1)]:
        for w, h in ((rng.uniform(0, 1, (d, k)), rng.uniform(0, 1, (k, n))), (np.zeros((d, k)), np.zeros((k, n)))):
            expected_w = reference.modulus(h @ h.T, p.beta_w)
            expected_h = reference.modulus(w.T @ w, p.beta_h, smooth)
            assert np.float64(lipschitz_w(h, p)).tobytes() == np.float64(expected_w).tobytes(), (d, k)
            assert np.float64(lipschitz_h(w, n, p)).tobytes() == np.float64(expected_h).tobytes(), (d, k)
            if not w.any() and beta == 0:
                assert lipschitz_w(h, p) == objective.LIPSCHITZ_FLOOR
                assert (lipschitz_h(w, n, p) == objective.LIPSCHITZ_FLOOR) == (smooth == 0)


# A weight of 0, or from 1e-6 to 1e7, relative to the entries' scale.
_WEIGHTS = st.just(0.0) | st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(-6, 6))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    d=st.integers(1, 600),
    n=st.integers(1, 600),
    k=st.integers(1, 40),
    zero_rows=st.lists(st.integers(0, 599), max_size=3),
    zero_cols=st.lists(st.integers(0, 599), max_size=3),
    exponent=st.integers(-150, 140),
    weights=st.tuples(_WEIGHTS, _WEIGHTS, _WEIGHTS, _WEIGHTS),
    seed=st.integers(0, 2**32),
    iterations=st.integers(20, 60),
)
@example(257, 100, 16, [3], [5], 0, (0.5, 1.0, 0.1, 0.1), 4, 20)
@example(513, 200, 20, [3], [5], 0, (0.5, 1.0, 0.1, 0.1), 4, 20)
def test_solve_is_the_oracle_at_any_shape(d, n, k, zero_rows, zero_cols, exponent, weights, seed, iterations):
    # Entries below 10**exponent, at most 1e140, keep every sum of squares
    # (the cost, a Gram's norm) finite at D, N <= 600: frobenius would
    # rescale one that overflows, while the oracle's norm would go to inf.
    # The weights scale with the entries as in test_scaling_law_is_exact,
    # so that no exponent makes them all negligible or all dominant. A
    # tolerance of 1e-300 stops only on a step of zero.
    scale = 10.0**exponent
    v = np.random.default_rng(seed).uniform(0.0, scale, (d, n))
    v[[i % d for i in zero_rows]] = 0.0
    v[:, [j % n for j in zero_cols]] = 0.0
    lam, eta, beta_w, beta_h = weights
    params = ObjectiveParams(lam=lam * scale**1.5, eta=eta * scale, beta_w=beta_w * scale, beta_h=beta_h * scale)
    config = SolverConfig(k=k, seed=seed, max_iter=iterations, tol=1e-300)
    if params.eta > 0 and n == 1:
        with pytest.raises(ValueError, match="at least 2 columns"):
            solve(v, params, config)
        return
    try:
        res = solve(v, params, config)
    except NumericError:
        return  # the one error solve may raise on a valid v
    w, h, trace = reference.solve(v, params, config)
    assert res.iterations == len(res.objective_trace) - 1 == len(trace) - 1 <= iterations
    assert res.w.tobytes() == w.tobytes()
    assert res.h.tobytes() == h.tobytes()
    if v.size <= objective._BLOCK:
        assert np.array(res.objective_trace).tobytes() == np.array(trace).tobytes()
    for a, b in zip(res.objective_trace, trace):
        assert abs(a - b) <= 4 * math.ulp(b)
    again = solve(v, params, config)
    assert again.w.tobytes() == res.w.tobytes() and again.h.tobytes() == res.h.tobytes()
    assert again.objective_trace == res.objective_trace and again.iterations == res.iterations
    assert np.isfinite(res.w).all() and np.isfinite(res.h).all()
    assert res.w.min() >= 0 and res.h.min() >= 0
    # Each step lowers the cost by at least (gamma - 1/2) L ||step||^2 per
    # block, as in test_solver's prox-gradient bound, so the trace is
    # monotone up to the slack. The loop replays solve's iterates. The
    # slack covers rounding relative to the cost, and the rounding of
    # v - w h and of h's differences, whose norm err is relative to
    # |v| + |w||h| and to |h|, not to the cost. Where the fit is exact to
    # ulps of v, the trace reads 0, or rises: a 248x1 solve with k = 1 and
    # no weights went from 1.6e-30 to 1.1e-29.
    w, h = initialize(v, config)
    norm_v = np.linalg.norm(v)
    for f, f_next in zip(res.objective_trace, res.objective_trace[1:]):
        err = 1e-12 * (norm_v + np.linalg.norm(w) * np.linalg.norm(h) + math.sqrt(params.eta) * np.linalg.norm(h))
        slack = 1e-12 * f + err * (2.0 * math.sqrt(f) + err)
        l_w = lipschitz_w(h, params)
        w_next, h_next = palm_step(v, w, h, params, config)
        l_h = lipschitz_h(w_next, n, params)
        bound = (config.gamma1 - 0.5) * l_w * float(((w_next - w) ** 2).sum())
        bound += (config.gamma2 - 0.5) * l_h * float(((h_next - h) ** 2).sum())
        assert f - f_next >= bound - slack
        w, h = w_next, h_next
    assert w.tobytes() == res.w.tobytes() and h.tobytes() == res.h.tobytes()
