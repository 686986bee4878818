"""``solve`` against the plain PALM of ``reference.py``.

Any kernel change that claims to be a pure refactor (the same W, H and
objective trace, bit for bit) is checked here against the formulas.
"""

import math

import numpy as np
import pytest
import reference

import palmnmf.objective as objective
from palmnmf import (
    ObjectiveParams,
    SolverConfig,
    SyntheticSpec,
    default_variants,
    generate,
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
