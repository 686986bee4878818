"""Regularized factorization cost, its block gradients, and step moduli.

The cost of approximating v by w @ h is

    ||v - w h||_F^2 + eta ||h D||_F^2 + lam ||w||_1
                    + beta_w ||w||_F^2 + beta_h ||h||_F^2

where D is the adjacent-column difference operator, ||.||_1 is the
entrywise sum of absolute values, and w, h are kept nonnegative by the
solver. The l1 term is non-smooth and is handled by the solver's
proximal step; ``grad_w``/``grad_h`` differentiate everything else.
``grad_h`` and ``evaluate`` take h D by one slicing helper, and ``grad_h``
applies D^T as one shifted difference, so neither reads D. Both step
moduli are one rule, ``_modulus``: 2 ||gram||_F + 2 beta + smooth, floored.

``evaluate`` validates its matrices, plain float64 arrays by the value
it computes from them. The gradients and step moduli are step kernels
that trust theirs (finite float64 2-D arrays of consistent
shape, as ``solve`` passes them) and check only scalars.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .linalg import Record, as_matrix, frobenius, require_allocatable, require_count, require_nonnegative

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


def difference_operator(n):
    """The n x (n-1) matrix D with D[j,j]=1, D[j+1,j]=-1, zero elsewhere.

    Right-multiplying takes adjacent-column differences:
    (M @ D)[:, j] == M[:, j] - M[:, j+1]. An n below 2, or whose D would
    not fit in physical memory, is a ValueError raised before allocating:
    a product with D, or np.array(D), makes that dense array, because numpy
    copies a non-contiguous operand. D itself is a fresh read-only view of
    2n - 2 numbers per call: entry (i, j) is t[n - 2 + i - j] of a stencil t.
    """
    if n < 2:
        raise ValueError(f"the difference operator needs at least 2 columns, got n={n}")
    require_allocatable("the difference operator (n x n-1)", n, n - 1)
    n = int(n)  # exact, as require_allocatable admits integers only; numpy's would wrap below
    t = np.zeros(2 * n - 2)
    t[n - 2 : n] = 1.0, -1.0
    d = np.ndarray((n, n - 1), np.float64, t, 8 * (n - 2), (8, -8))
    d.flags.writeable = False  # every diagonal aliases one entry of t
    return d


def _differences(h):
    """h D by slicing, after ``difference_operator``'s two refusals."""
    difference_operator(h.shape[1])
    return h[:, :-1] - h[:, 1:]


def _plain(v, w, h):
    """True if v, w and h are float64 ndarrays proper (no subclass, for
    which ``*`` may be a matrix product), 2-D, non-empty and of consistent
    shapes: the arrays ``evaluate`` may cost before it checks them."""
    for m in (v, w, h):
        if type(m) is not np.ndarray or m.dtype != np.float64 or m.ndim != 2 or not m.size:
            return False
    return w.shape[0] == v.shape[0] and h.shape[1] == v.shape[1] and w.shape[1] == h.shape[0]


def _cost(v, w, h, params):
    """The cost of ``evaluate``, for arrays that pass its shape checks."""
    # The fit term in blocks of whole rows, at most _BLOCK entries (or one
    # row): product, residual and square in place in one block. Up to
    # _BLOCK entries that is one block and one pairwise sum, as over the
    # whole residual; above, each block's sum has fewer terms and fsum adds
    # them with one rounding, so the error bound is no worse (Higham 1993).
    # Finite block sums whose total overflows make fsum raise; the total is
    # then inf, as one sum over the whole residual would give. Every sum is
    # np.add.reduce(x, None), what x.sum() calls, without its wrapper.
    rows = max(1, _BLOCK // v.shape[1])
    fit = []
    for i in range(0, v.shape[0], rows):
        r = w[i : i + rows] @ h
        np.subtract(v[i : i + rows], r, out=r)
        fit.append(float(np.add.reduce(np.square(r, out=r), None)))
    try:
        value = math.fsum(fit)
    except OverflowError:
        value = math.inf
    if params.eta > 0:
        hd = _differences(h)  # h D but for the sign of a zero (see grad_h), which squaring drops
        value += params.eta * float(np.add.reduce(np.square(hd, out=hd), None))
    value += params.lam * float(np.add.reduce(w, None))  # no abs: w >= 0 is checked by the caller
    # The ridge terms must be added even at weight 0 (0 * inf is nan): they
    # carry every entry of w and h into the value, and evaluate's check by
    # the value relies on that.
    value += params.beta_w * float(np.add.reduce(w * w, None))
    value += params.beta_h * float(np.add.reduce(h * h, None))
    return value


def evaluate(v, w, h, params):
    """Value of the regularized cost at nonnegative factors (w, h).

    Nonnegativity is required of the inputs rather than encoded as an
    infinite indicator value; the solver maintains it by construction.
    With eta > 0, ``difference_operator`` checks h's width.

    Plain float64 arrays of consistent shape are costed first; a finite
    value skips only the input scans and the shape test. Anything else
    (another type, a non-finite value, an error from ``difference_operator``)
    takes them in order before the cost. Both paths share the sign checks,
    so errors and warnings do not depend on the path.
    """
    value = math.nan
    if _plain(v, w, h):
        # A finite value proves every entry finite, without a scan. Each
        # entry of v is in exactly one residual entry, and a nan or +-inf
        # there stays non-finite through numpy's subtract, square and sum
        # and then fsum; each entry of w and h is in its ridge term. A
        # non-finite term cannot be cancelled by the finite others, so
        # whatever BLAS gives for w h, a finite value has finite inputs.
        with np.errstate(all="ignore"):
            try:
                value = _cost(v, w, h, params)
            except ValueError:
                pass
    if not math.isfinite(value):
        v = as_matrix(v, "v")
        w = as_matrix(w, "w")
        h = as_matrix(h, "h")
        if not _plain(v, w, h):  # after as_matrix, only its shape clause can fail
            raise ShapeError(
                "inconsistent shapes: v is {}x{}, w is {}x{}, h is {}x{}".format(
                    *v.shape, *w.shape, *h.shape
                )
            )
    require_nonnegative(w, "w")  # entries are finite on both paths
    require_nonnegative(h, "h")
    return value if math.isfinite(value) else _cost(v, w, h, params)


def grad_w(v, w, h, params):
    """Gradient of the smooth part of the cost with respect to w.

    2 w h h^T - 2 v h^T + 2 beta_w w; the l1 term is left to the prox.
    v h^T is formed as (h v^T)^T. Inputs are trusted (see the module
    docstring).
    """
    # Each entry of v h^T and of (h v^T)^T is one dot product of a row of v
    # with a row of h, but BLAS may sum it in another order (OpenBLAS 0.3.31
    # did at some shapes, D of 257 or 513 with k >= 16; tests/reference.py
    # associates it this way too). This way runs the k x D product faster
    # when k is small against D and N: 4.2 -> 3.2 ms at 1000x2000, k=20, and
    # 0.67 to 1.13 times the time from 6x5 to 2000x4000 (one 2.1 GHz Xeon core).
    # In place on the fresh product g: the same operations in the same order
    # as the expression, without its temporaries.
    g = w @ (h @ h.T)
    g -= (h @ v.T).T
    g += params.beta_w * w
    g *= 2.0
    return g


def grad_h(v, w, h, params):
    """Gradient of the smooth part of the cost with respect to h.

    2 w^T w h - 2 w^T v + 2 eta h D D^T + 2 beta_h h. h D is taken by
    slicing, and D^T is applied to it as one shifted difference: column j
    of (h D) D^T is (h D)[:, j] - (h D)[:, j-1], less the terms past
    either end. Inputs are trusted; with eta > 0, ``difference_operator``
    checks h's width.
    """
    g = (w.T @ w) @ h  # in place from here, as in grad_w
    g -= w.T @ v
    g += params.beta_h * h
    if params.eta > 0:
        # h @ D and hd @ D^T sum, per entry, one or two products by +-1 and +0
        # terms: whatever BLAS's blocking, that rounds once, to the one
        # difference or term that the slices and the shifted difference take.
        # Only the sign of a zero may differ (a -0.0 in h; 0 + hd, 0 - hd).
        # g + (+-0) differs only where g is -0.0, and g, which ends in
        # + beta_h h, is not: h holds no -0.0 on any solver path (initialize
        # draws from [0, s]; np.maximum(y, 0.0) is +0.0 for y = +-0). So g is
        # the dense products' bit for bit.
        hd = _differences(h)
        hddt = np.zeros(h.shape)
        hddt[:, :-1] += hd
        hddt[:, 1:] -= hd
        hddt *= params.eta
        g += hddt
    g *= 2.0
    return g


def _modulus(gram, beta, smooth=0.0):
    """The rule of both step moduli: 2 ||gram||_F + 2 beta + smooth, floored."""
    return max(2.0 * frobenius(gram) + 2.0 * beta + smooth, LIPSCHITZ_FLOOR)


def lipschitz_w(h, params):
    """Step modulus for the w block: 2 ||h h^T||_F + 2 beta_w, floored.

    ``_modulus``, the rule of both blocks, with no smoothness term: a valid
    Lipschitz constant of ``grad_w`` in w at fixed h, since the spectral
    norm is bounded by the Frobenius norm. h is trusted.
    The norm is finite whenever h h^T is, though its squares may overflow:
    then numpy warns ``overflow encountered in multiply`` unless the caller
    ignores overflow (``palm_step`` does), and the rescaled norm is returned.
    """
    return _modulus(h @ h.T, params.beta_w)


def lipschitz_h(w, n, params):
    """Step modulus for the h block at fixed w, where n = h's column count.

    2 ||w^T w||_F + 2 beta_h + 2 eta ||D D^T||_F, floored, by ``_modulus``.
    For D of size n, ||D D^T||_F = sqrt(6n - 8): D D^T is tridiagonal
    with diagonal (1, 2, ..., 2, 1) and off-diagonals -1.
    w is trusted; n is checked by ``require_count``. As in
    ``lipschitz_w``, the norm of a finite w^T w is finite, and squares
    that overflow warn unless overflow is ignored.
    """
    require_count("n", n)
    smooth = 2.0 * params.eta * math.sqrt(6.0 * n - 8.0) if params.eta > 0 and n >= 2 else 0.0
    return _modulus(w.T @ w, params.beta_h, smooth)
