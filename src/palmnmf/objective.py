"""Regularized factorization cost, its block gradients, and step moduli.

The cost of approximating v by w @ h is

    ||v - w h||_F^2 + eta ||h D||_F^2 + lam ||w||_1
                    + beta_w ||w||_F^2 + beta_h ||h||_F^2

where D is the adjacent-column difference operator, ||.||_1 is the
entrywise sum of absolute values, and w, h are kept nonnegative by the
solver. The l1 term is non-smooth and is handled by the solver's
proximal step; ``grad_w``/``grad_h`` differentiate everything else.

``evaluate`` validates its matrices. The gradients and step moduli are
step kernels that trust theirs (finite float64 2-D arrays of consistent
shape, as ``solve`` passes them) and check only scalars.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError
from .linalg import Record, as_matrix, difference_operator

# Floor for step moduli so a collapsed factor never yields a zero divisor.
LIPSCHITZ_FLOOR = 1e-12


@dataclass(frozen=True)
class ObjectiveParams(Record):
    """Regularization weights.

    lam    -- l1 weight on w (sparsity); JSON key and CLI flag "lambda"
    eta    -- weight of the adjacent-column smoothness penalty on h
    beta_w -- ridge weight on w (scale control)
    beta_h -- ridge weight on h (scale control)
    """

    lam: float = field(default=0.0, metadata={"key": "lambda"})
    eta: float = 0.0
    beta_w: float = 0.1
    beta_h: float = 0.1

    def __post_init__(self):
        super().__post_init__()
        for key, value in self.to_dict().items():
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{key} must be finite and >= 0, got {value}")


def evaluate(v, w, h, params):
    """Value of the regularized cost at nonnegative factors (w, h).

    Nonnegativity is required of the inputs rather than encoded as an
    infinite indicator value; the solver maintains it by construction.
    """
    v = as_matrix(v, "v")
    w = as_matrix(w, "w")
    h = as_matrix(h, "h")
    if w.shape[0] != v.shape[0] or h.shape[1] != v.shape[1] or w.shape[1] != h.shape[0]:
        raise ShapeError(
            "inconsistent shapes: v is {}x{}, w is {}x{}, h is {}x{}".format(
                *v.shape, *w.shape, *h.shape
            )
        )
    if params.eta > 0 and h.shape[1] < 2:
        raise ValueError("smoothness penalty requires at least 2 columns")
    if (w < 0).any():
        raise DomainError("w must be nonnegative")
    if (h < 0).any():
        raise DomainError("h must be nonnegative")
    residual = v - w @ h
    value = float(np.sum(residual * residual))
    if params.eta > 0:
        hd = h @ difference_operator(h.shape[1])
        value += params.eta * float(np.sum(hd * hd))
    value += params.lam * float(np.sum(np.abs(w)))
    value += params.beta_w * float(np.sum(w * w))
    value += params.beta_h * float(np.sum(h * h))
    return value


def grad_w(v, w, h, params):
    """Gradient of the smooth part of the cost with respect to w.

    2 w h h^T - 2 v h^T + 2 beta_w w; the l1 term is left to the prox.
    Inputs are trusted (see the module docstring).
    """
    return 2.0 * (w @ (h @ h.T) - v @ h.T + params.beta_w * w)


def grad_h(v, w, h, params):
    """Gradient of the smooth part of the cost with respect to h.

    2 w^T w h - 2 w^T v + 2 eta h D D^T + 2 beta_h h. Inputs are trusted;
    with eta > 0, h must have at least 2 columns.
    """
    g = (w.T @ w) @ h - w.T @ v + params.beta_h * h
    if params.eta > 0:
        d = difference_operator(h.shape[1])
        g = g + params.eta * ((h @ d) @ d.T)
    return 2.0 * g


def lipschitz_w(h, params):
    """Step modulus for the w block: 2 ||h h^T||_F + 2 beta_w, floored.

    A valid Lipschitz constant of ``grad_w`` as a function of w at fixed h,
    since the spectral norm is bounded by the Frobenius norm. h is trusted.
    """
    gram = h @ h.T
    value = 2.0 * float(np.sqrt(np.sum(gram * gram))) + 2.0 * params.beta_w
    return max(value, LIPSCHITZ_FLOOR)


def lipschitz_h(w, n, params):
    """Step modulus for the h block at fixed w, where n = h's column count.

    2 ||w^T w||_F + 2 eta ||D D^T||_F + 2 beta_h, floored. For the
    difference operator D of size n, ||D D^T||_F = sqrt(6n - 8): D D^T is
    tridiagonal with diagonal (1, 2, ..., 2, 1) and off-diagonals -1.
    w is trusted; n is checked.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    gram = w.T @ w
    value = 2.0 * float(np.sqrt(np.sum(gram * gram))) + 2.0 * params.beta_h
    if params.eta > 0 and n >= 2:
        value += 2.0 * params.eta * math.sqrt(6.0 * n - 8.0)
    return max(value, LIPSCHITZ_FLOOR)
