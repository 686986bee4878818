"""Every oracle the tests compare against, written plainly from its
formulas: the PALM solve, the smooth cost and its central finite
differences, column normalization and the brute-force match; and
``TOO_WIDE``, the narrowest width whose difference operator G does not fit
in the physical memory that ``palmnmf`` read at import.

``solve`` is the oracle for ``palmnmf.solve``. At the shapes that
``test_reference.py`` runs, W and H match bit for bit, and so does the
objective trace up to one residual block of ``evaluate``; above that the
package sums the residual by blocks, and the trace is within 4 ulps.

It builds the dense difference operator G inline, reduces with ``np.sum``,
and has no validation, cache, blocking or stencil. Products are associated
as in the package (``w @ (h h^T)``, ``(w^T w) @ h``, and v h^T as
``(h v^T)^T``), since BLAS may round another association differently.
Only ``initialize`` is shared with the package.
"""

import itertools
import math

import numpy as np

from palmnmf import initialize
from palmnmf.linalg import _PHYS_BYTES

# The n x (n-1) float64 G needs 8 n (n-1) bytes: no n up to isqrt(bytes / 8)
# exceeds them, and isqrt(bytes / 8) + 2 always does.
TOO_WIDE = next(n for n in itertools.count(math.isqrt(_PHYS_BYTES // 8) + 1) if 8 * n * (n - 1) > _PHYS_BYTES)


def difference(n):
    """The n x (n-1) G with G[j, j] = 1 and G[j+1, j] = -1."""
    return np.eye(n, n - 1) - np.eye(n, n - 1, k=-1)


def cost(v, w, h, p):
    r = v - w @ h
    value = float(np.sum(r * r))
    if p.eta > 0:
        hg = h @ difference(h.shape[1])
        value += p.eta * float(np.sum(hg * hg))
    return value + p.lam * float(np.sum(np.abs(w))) + p.beta_w * float(np.sum(w * w)) + p.beta_h * float(np.sum(h * h))


def grad_w(v, w, h, p):
    """2 (w h h^T - v h^T + beta_w w), with v h^T formed as (h v^T)^T."""
    return 2.0 * (w @ (h @ h.T) - (h @ v.T).T + p.beta_w * w)


def grad_h(v, w, h, p):
    g = (w.T @ w) @ h - w.T @ v + p.beta_h * h
    if p.eta > 0:
        d = difference(h.shape[1])
        g = g + p.eta * ((h @ d) @ d.T)
    return 2.0 * g


def modulus(gram, beta, smooth=0.0):
    """2 ||gram||_F + 2 beta + smooth, floored at 1e-12."""
    return max(2.0 * np.sqrt(np.sum(gram * gram)) + 2.0 * beta + smooth, 1e-12)


def solve(v, p, config):
    """(w, h, trace), as ``palmnmf.solve`` defines them."""
    w, h = initialize(v, config)
    trace = [cost(v, w, h, p)]
    n = v.shape[1]
    for _ in range(config.max_iter):
        c = config.gamma1 * modulus(h @ h.T, p.beta_w)
        w_next = np.maximum(w - grad_w(v, w, h, p) / c - p.lam / c, 0.0)
        smooth = 2.0 * p.eta * np.sqrt(6.0 * n - 8.0) if p.eta > 0 and n >= 2 else 0.0
        d = config.gamma2 * modulus(w_next.T @ w_next, p.beta_h, smooth)
        h_next = np.maximum(h - grad_h(v, w_next, h, p) / d, 0.0)
        step = np.sqrt(np.sum((w_next - w) ** 2) + np.sum((h_next - h) ** 2))
        base = max(np.sqrt(np.sum(w * w) + np.sum(h * h)), 1e-12)
        w, h = w_next, h_next
        trace.append(cost(v, w, h, p))
        if step / base < config.tol:
            break
    return w, h, trace


def smooth_part(v, w, h, params):
    """Everything in the cost except the l1 term, sign-agnostic: it accepts
    the negative entries that finite-difference perturbation creates."""
    r = v - w @ h
    val = (r * r).sum()
    if params.eta > 0:
        adj = h[:, :-1] - h[:, 1:]
        val += params.eta * (adj * adj).sum()
    val += params.beta_w * (w * w).sum()
    val += params.beta_h * (h * h).sum()
    return float(val)


def fd_grad(f, m, step=1e-5):
    """Central finite differences of f with respect to the matrix m."""
    g = np.zeros_like(m)
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            plus = m.copy()
            minus = m.copy()
            plus[i, j] += step
            minus[i, j] -= step
            g[i, j] = (f(plus) - f(minus)) / (2.0 * step)
    return g


def normalize_cols(m):
    """m as floats, each nonzero column scaled to unit Euclidean norm."""
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
