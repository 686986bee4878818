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

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ShapeError
from .linalg import Record, as_matrix, require_allocatable

# Floor for step moduli so a collapsed factor never yields a zero divisor.
LIPSCHITZ_FLOOR = 1e-12
# Entries of the residual v - w h that evaluate forms at once: 256 KiB of
# float64, which stay in a core's L2 cache with their rows of v. Of 2**14
# to 2**17, 2**15 was fastest at 1000x2000, k=20 (5.2 ms against 6.9 ms for
# the whole residual, one core); 2**14 lost to per-block overhead at 2.5
# blocks.
_BLOCK = 1 << 15


@dataclass(frozen=True)
class ObjectiveParams(Record):
    """Regularization weights, one per term of the cost."""

    lam: float = field(default=0.0, metadata={"key": "lambda", "ge": 0, "help": "l1 weight on W"})
    eta: float = field(default=0.0, metadata={"ge": 0, "help": "smoothness weight on H"})
    beta_w: float = field(default=0.1, metadata={"ge": 0, "help": "ridge weight on W"})
    beta_h: float = field(default=0.1, metadata={"ge": 0, "help": "ridge weight on H"})


@functools.lru_cache(maxsize=1, typed=True)
def difference_operator(n):
    """The n x (n-1) matrix D with D[j,j]=1, D[j+1,j]=-1, zero elsewhere.

    Right-multiplying takes adjacent-column differences:
    (M @ D)[:, j] == M[:, j] - M[:, j+1]. An n below 2, or whose D would
    not fit in physical memory, is a ValueError raised before allocating.

    The last D built is kept and returned, read-only, to every later call
    with the same n: one array of 8 n (n-1) bytes (32 MB at n = 2000)
    until another n is asked for or the process exits. Errors are not
    kept, so both checks run on every call that builds.
    """
    if n < 2:
        raise ValueError(f"the difference operator needs at least 2 columns, got n={n}")
    require_allocatable("the difference operator (n x n-1)", n, n - 1)
    d = np.zeros((n, n - 1))
    idx = np.arange(n - 1)
    d[idx, idx] = 1.0
    d[idx + 1, idx] = -1.0
    d.flags.writeable = False
    return d


def evaluate(v, w, h, params):
    """Value of the regularized cost at nonnegative factors (w, h).

    Nonnegativity is required of the inputs rather than encoded as an
    infinite indicator value; the solver maintains it by construction.
    With eta > 0, ``difference_operator`` checks h's width.
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
    if (w < 0).any():
        raise DomainError("w must be nonnegative")
    if (h < 0).any():
        raise DomainError("h must be nonnegative")
    # The fit term in blocks of whole rows, at most _BLOCK entries (or one
    # row): product, residual and square in place in one block. Up to
    # _BLOCK entries that is one block and one pairwise sum, as over the
    # whole residual; above, each block's sum has fewer terms and fsum adds
    # them with one rounding, so the error bound is no worse (Higham 1993).
    # Finite block sums whose total overflows make fsum raise; the total is
    # then inf, as one sum over the whole residual would give.
    rows = max(1, _BLOCK // v.shape[1])
    fit = []
    for i in range(0, v.shape[0], rows):
        r = w[i : i + rows] @ h
        np.subtract(v[i : i + rows], r, out=r)
        fit.append(float(np.sum(np.square(r, out=r))))
    try:
        value = math.fsum(fit)
    except OverflowError:
        value = math.inf
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
    with eta > 0, ``difference_operator`` checks h's width.
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
