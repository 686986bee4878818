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
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError
from .linalg import Record, as_matrix, nonneg_project, soft_threshold_nonneg
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
    """Solver knobs.

    k        -- inner dimension of the factorization
    gamma1   -- step-modulus inflation for the w block (> 1)
    gamma2   -- step-modulus inflation for the h block (> 1)
    max_iter -- iteration budget
    tol      -- relative-step stopping threshold
    seed     -- RNG seed for initialization
    """

    k: int
    gamma1: float = 1.1
    gamma2: float = 1.1
    max_iter: int = 5000
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not self.gamma1 > 1:
            raise ValueError(f"gamma1 must be > 1, got {self.gamma1}")
        if not self.gamma2 > 1:
            raise ValueError(f"gamma2 must be > 1, got {self.gamma2}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class FactorizationResult:
    """Outcome of a solve: nonnegative factors plus the objective trace.

    objective_trace[0] is the cost at initialization, so its length is
    iterations + 1. ``converged`` is True iff the relative-step criterion
    fired before the iteration budget ran out.
    """

    w: np.ndarray
    h: np.ndarray
    objective_trace: list
    iterations: int
    converged: bool


def initialize(v, config):
    """Draw initial factors with i.i.d. entries uniform on [0, s].

    The scale s = sqrt(mean(v) / k) puts mean(w0 @ h0) on the order of
    mean(v). Deterministic given config.seed.
    """
    v = as_matrix(v, "v")
    if (v < 0).any():
        raise DomainError("v must be nonnegative")
    scale = math.sqrt(v.mean() / config.k)
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
    with np.errstate(over="ignore"):
        trace = [evaluate(v, w, h, params)]
    converged = False
    iterations = 0
    for k in range(1, config.max_iter + 1):
        try:
            w_next, h_next = palm_step(v, w, h, params, config)
        except NumericError as exc:
            raise NumericError(str(exc), iteration=k) from exc
        step = math.sqrt(
            float(np.sum((w_next - w) ** 2)) + float(np.sum((h_next - h) ** 2))
        )
        base = max(
            math.sqrt(float(np.sum(w * w)) + float(np.sum(h * h))), LIPSCHITZ_FLOOR
        )
        w, h = w_next, h_next
        with np.errstate(over="ignore"):
            value = evaluate(v, w, h, params)
        if not math.isfinite(value):
            raise NumericError("objective became non-finite", iteration=k)
        trace.append(value)
        iterations = k
        if step / base < config.tol:
            converged = True
            break
    return FactorizationResult(
        w=w, h=h, objective_trace=trace, iterations=iterations, converged=converged
    )
