"""Alternating proximal-gradient solver for nonnegative factorization.

Each iteration linearizes the smooth part of the cost around the current
point and takes one proximal step per block: first w (soft threshold onto
the nonnegative orthant, handling the l1 term), then h (plain nonnegative
projection) using the already-updated w. Step sizes come from per-block
Lipschitz bounds inflated by gamma1/gamma2 > 1, which guarantees monotone
descent of the objective.

``solve`` validates v once; ``palm_step`` and its kernels trust their arrays.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericError
from .linalg import Record, as_matrix, nonneg_project, require_allocatable, soft_threshold_nonneg
from .objective import (
    LIPSCHITZ_FLOOR,
    evaluate,
    grad_h,
    grad_w,
    lipschitz_h,
    lipschitz_w,
)


@dataclass(frozen=True)
class SolverConfig(Record):
    """Solver knobs: inner dimension, step inflations, stopping rule, seed."""

    k: int = field(metadata={"ge": 1, "help": "number of components"})
    gamma1: float = field(default=1.1, metadata={"gt": 1, "help": "W step safety factor"})
    gamma2: float = field(default=1.1, metadata={"gt": 1, "help": "H step safety factor"})
    max_iter: int = field(default=5000, metadata={"ge": 1, "help": "iteration cap"})
    tol: float = field(default=1e-6, metadata={"gt": 0, "help": "relative step tolerance"})
    seed: int = field(default=0, metadata={"ge": 0, "help": "initialization seed"})


@dataclass
class FactorizationResult:
    """Outcome of a solve: nonnegative factors plus the objective trace.

    objective_trace[k] is the cost after k steps, [0] at the initial point
    (iteration 0), so its length is iterations + 1. ``converged`` is True
    iff the relative-step criterion fired before the budget ran out.
    """

    w: np.ndarray
    h: np.ndarray
    objective_trace: list
    iterations: int
    converged: bool


def initialize(v, config):
    """Draw initial factors with i.i.d. entries uniform on [0, s].

    The scale s = sqrt(mean(v) / k) puts mean(w0 @ h0) on the order of
    mean(v). Deterministic given config.seed. A k whose factors, or whose
    k x k Gram matrices in the step moduli, would not fit in physical
    memory is a ValueError; a v whose mean overflows is a NumericError.
    """
    v = as_matrix(v, "v")
    if (v < 0).any():
        raise DomainError("v must be nonnegative")
    require_allocatable("w (rows of v x k)", v.shape[0], config.k)
    require_allocatable("h (k x columns of v)", config.k, v.shape[1])
    require_allocatable("the Gram h h^T (k x k)", config.k, config.k)
    with np.errstate(over="ignore"):
        mean = v.mean()
    if not math.isfinite(mean):
        raise NumericError("the mean of v overflows")
    scale = math.sqrt(mean / config.k)
    rng = np.random.default_rng(config.seed)
    w0 = rng.uniform(0.0, scale, size=(v.shape[0], config.k))
    h0 = rng.uniform(0.0, scale, size=(config.k, v.shape[1]))
    return w0, h0


def palm_step(v, w, h, params, config):
    """One alternating update; returns (w_next, h_next).

    The w block steps first; the h block then uses the updated w in both
    its step modulus and its gradient. v, w, h are trusted to be finite
    float64 2-D arrays of consistent shape, as ``solve`` passes them.
    """
    # Overflow inside the updates is detected by the explicit finiteness
    # checks below, so numpy's warnings are redundant here.
    with np.errstate(over="ignore", invalid="ignore"):
        c = config.gamma1 * lipschitz_w(h, params)
        z = w - grad_w(v, w, h, params) / c
        if not np.isfinite(z).all():
            raise NumericError("w update produced non-finite values")
        w_next = soft_threshold_nonneg(z, params.lam / c)

        d = config.gamma2 * lipschitz_h(w_next, h.shape[1], params)
        y = h - grad_h(v, w_next, h, params) / d
        if not np.isfinite(y).all():
            raise NumericError("h update produced non-finite values")
        h_next = nonneg_project(y)
    return w_next, h_next


def solve(v, params, config):
    """Factorize a nonnegative matrix v into nonnegative w (D x k) and h (k x N).

    Runs ``palm_step`` from a fresh initialization until the joint relative
    step over the (w, h) pair drops below config.tol or max_iter is reached.
    With params.eta > 0, a v too narrow or too wide for ``difference_operator``
    is its ValueError, raised at iteration 0, before any step.
    A non-finite objective, the initial one included, is a NumericError
    that names its iteration (0 for the initial point).

    Parameters
    ----------
    v : array_like
        Nonnegative D x N matrix to factorize.
    params : ObjectiveParams
        Regularization weights of the cost.
    config : SolverConfig
        Inner dimension, step inflations, stopping rule, seed.

    Returns
    -------
    FactorizationResult
        Final factors, per-iteration objective trace, iteration count,
        convergence flag.
    """
    v = as_matrix(v, "v")
    w, h = initialize(v, config)
    trace = []
    converged = False
    for k in range(config.max_iter + 1):  # iteration 0 is the initial point
        if k:
            try:
                w_next, h_next = palm_step(v, w, h, params, config)
            except NumericError as exc:
                raise NumericError(str(exc), iteration=k) from exc
            step = math.sqrt(float(np.sum((w_next - w) ** 2)) + float(np.sum((h_next - h) ** 2)))
            base = max(math.sqrt(float(np.sum(w * w)) + float(np.sum(h * h))), LIPSCHITZ_FLOOR)
            converged = step / base < config.tol
            w, h = w_next, h_next
        with np.errstate(over="ignore"):
            value = evaluate(v, w, h, params)
        if not math.isfinite(value):
            raise NumericError("objective became non-finite", iteration=k)
        trace.append(value)
        if converged:
            break
    return FactorizationResult(
        w=w, h=h, objective_trace=trace, iterations=len(trace) - 1, converged=converged
    )
