"""Synthetic recovery benchmarks.

Generates ground-truth factor pairs (sparse w, smooth h), builds noisy
nonnegative observations from them, scores how well a factorization
recovers the truth up to component permutation and positive rescaling,
and compares regularization variants across repeated random
initializations.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericError, ShapeError
from .linalg import Record, as_matrix, require_allocatable
from .objective import ObjectiveParams
from .solver import solve

CLIP_MODES = ("max_zero", "absolute")
# Entries of noise that make_v draws at once, or one row if that is wider:
# 64 KiB, below glibc's default 128 KiB mmap threshold.
_NOISE = 1 << 13


@dataclass(frozen=True)
class SyntheticSpec(Record):
    """Recipe for one synthetic instance: v = clip(w_true @ h_true + noise).

    w, h and the noise are drawn with seed, seed + 1 and seed + 2.
    """

    d: int = field(metadata={"ge": 1, "help": "rows of the truth W"})
    k: int = field(metadata={"ge": 1, "help": "number of components"})
    n: int = field(metadata={"ge": 2, "help": "columns of the truth H"})
    sigma: float = field(metadata={"ge": 0, "help": "noise std"})
    w_density: float = field(
        default=1.0, metadata={"gt": 0, "le": 1, "help": "fraction of nonzero entries in the truth W"}
    )
    clip_mode: str = field(
        default="max_zero", metadata={"in": CLIP_MODES, "help": "how negatives after noise are made nonnegative"}
    )
    seed: int = field(default=0, metadata={"ge": 0, "help": "data seed"})


def gen_smooth_rows(k, n, seed):
    """k x n nonnegative matrix whose rows are sums of 2-4 Gaussian bumps.

    Bump centers are uniform over the column range, widths uniform in
    [n/20, n/6], amplitudes uniform in [0.5, 2]. Deterministic per seed.
    """
    SyntheticSpec.check(k=k, n=n, seed=seed)
    rng = np.random.default_rng(seed)
    grid = np.arange(n, dtype=np.float64)
    rows = np.zeros((k, n))
    for i in range(k):
        for _ in range(int(rng.integers(2, 5))):
            center = rng.uniform(0.0, n - 1.0)
            width = rng.uniform(n / 20.0, n / 6.0)
            amplitude = rng.uniform(0.5, 2.0)
            rows[i] += amplitude * np.exp(-((grid - center) ** 2) / (2.0 * width**2))
    return rows


def gen_sparse_matrix(d, k, w_density, seed):
    """d x k matrix of uniform [0, 1] entries with an exact fraction zeroed.

    Exactly round((1 - w_density) * d * k) entries, chosen uniformly
    without replacement, are set to zero. Deterministic per seed.
    """
    SyntheticSpec.check(d=d, k=k, w_density=w_density, seed=seed)
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.0, 1.0, size=(d, k))
    n_zero = round((1.0 - w_density) * d * k)
    if n_zero:
        idx = rng.choice(d * k, size=n_zero, replace=False)
        m.ravel()[idx] = 0.0
    return m


def _factors(w_r, h_r):
    """w_r and h_r validated as matrices whose product w_r @ h_r is defined."""
    w_r = as_matrix(w_r, "w_r")
    h_r = as_matrix(h_r, "h_r")
    if w_r.shape[1] != h_r.shape[0]:
        raise ShapeError(f"cannot multiply {w_r.shape[0]}x{w_r.shape[1]} by {h_r.shape[0]}x{h_r.shape[1]}")
    return w_r, h_r


def make_v(w_r, h_r, sigma, clip_mode, seed):
    """Noisy nonnegative observation of the product w_r @ h_r.

    Adds i.i.d. Gaussian(0, sigma^2) noise, then clamps negatives to zero
    ("max_zero") or takes absolute values ("absolute"). A non-finite
    noisy product is a NumericError naming sigma.

    The noise is added to the product, v's own array, one block of rows
    at a time, with the bytes of ``w_r @ h_r + default_rng(seed).normal(0.0,
    abs(sigma), (d, n))``; abs maps the -0.0 that "ge 0" admits to 0.0.
    """
    SyntheticSpec.check(sigma=sigma, clip_mode=clip_mode, seed=seed)
    w_r, h_r = _factors(w_r, h_r)
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):
        noisy = w_r @ h_r
        step = max(1, _NOISE // noisy.shape[1])
        block = np.empty((min(step, noisy.shape[0]), noisy.shape[1]))
        for first in range(0, noisy.shape[0], step):
            rows = noisy[first : first + step]
            noise = block[: len(rows)]
            # normal(0.0, abs(sigma)) is 0.0 + abs(sigma) * standard_normal:
            # adding 0.0 maps a noise of -0.0 to 0.0
            rng.standard_normal(out=noise)
            noise *= abs(sigma)
            noise += 0.0
            rows += noise
    if not np.isfinite(noisy).all():  # before clipping, which maps -inf to 0
        raise NumericError(f"the noisy product w_r @ h_r is not finite at sigma={sigma!r}")
    if clip_mode == "max_zero":
        return np.maximum(noisy, 0.0, out=noisy)
    return np.abs(noisy, out=noisy)


def default_sigma(w_r, h_r):
    """Noise level used when none is given: 10% of the mean product entry."""
    w_r, h_r = _factors(w_r, h_r)
    return 0.1 * float((w_r @ h_r).mean())


def ground_truth(spec):
    """The noiseless factors (w_true, h_true) of a synthetic spec; they do
    not depend on its sigma or clip_mode. A spec whose v, w_true or h_true
    would not fit in physical memory is a ValueError, raised before any
    of them is drawn."""
    require_allocatable("v (d x n)", spec.d, spec.n)
    require_allocatable("w_true (d x k)", spec.d, spec.k)
    require_allocatable("h_true (k x n)", spec.k, spec.n)
    return (
        gen_sparse_matrix(spec.d, spec.k, spec.w_density, spec.seed),
        gen_smooth_rows(spec.k, spec.n, spec.seed + 1),
    )


def generate(spec):
    """Materialize (v, w_true, h_true) for a synthetic spec.

    Sub-seeds are derived deterministically: w_true uses spec.seed,
    h_true spec.seed + 1, the noise spec.seed + 2.
    """
    w_r, h_r = ground_truth(spec)
    v = make_v(w_r, h_r, spec.sigma, spec.clip_mode, spec.seed + 2)
    return v, w_r, h_r


@dataclass(frozen=True)
class RecoveryScore:
    """Permutation-matched, scale-normalized distances to the ground truth.

    permutation[j] is the index of the learned component assigned to
    ground-truth component j.
    """

    dist_w: float
    dist_h: float
    permutation: tuple


def _normalize_columns(m):
    # Each column is scaled by the power of two that brings its largest |x|
    # into [0.5, 1): exact, and a nonzero column's sum of squares is then in
    # [1/4, rows), far from overflow and underflow. It is reduced as a
    # contiguous row of m.T, so its norm does not depend on where it sits:
    # a permuted copy normalizes bitwise-identically.
    t = np.ascontiguousarray(m.T)
    _, e = np.frexp(np.abs(t).max(axis=1, keepdims=True))
    t = np.ldexp(t, -e)
    norm = np.sqrt(np.sum(t * t, axis=1, keepdims=True))
    out = np.empty_like(m)  # m's memory layout, on which the callers' sums depend
    np.divide(t, np.where(norm > 0, norm, 1.0), out=out.T)
    return out


def _assign(cost):
    """Column assigned to each row of the square *cost* matrix in a
    minimum-sum matching: ``cost[i, col[i]]`` summed is least.

    The shortest-augmenting-path method of D. F. Crouse, "On implementing
    2D rectangular assignment algorithms", IEEE Trans. Aerospace and
    Electronic Systems 52(4), 2016, as SciPy's ``linear_sum_assignment``
    implements it, with each Dijkstra step done over all remaining
    columns at once. The scan order and tie rule are SciPy's too, so the
    same permutation comes out even on ties: the remaining columns are
    kept in SciPy's order, and among those at the least path cost the
    last unassigned one wins, else the first. O(k^3) in the worst case.
    """
    n = cost.shape[0]
    u = np.zeros(n)
    v = np.zeros(n)
    path = np.full(n, -1)
    col4row = np.full(n, -1)
    row4col = np.full(n, -1)
    for cur in range(n):
        spc = np.full(n, np.inf)  # shortest path cost to each column
        rows_seen = np.zeros(n, dtype=bool)
        cols_seen = np.zeros(n, dtype=bool)
        remaining = np.arange(n - 1, -1, -1)  # reversed: a constant cost gives the identity
        left = n
        i, min_val, sink = cur, 0.0, -1
        while sink < 0:
            rows_seen[i] = True
            rem = remaining[:left]
            r = min_val + cost[i, rem] - u[i] - v[rem]
            better = r < spc[rem]
            path[rem[better]] = i
            spc[rem[better]] = r[better]
            s = spc[rem]
            tied = s == s.min()
            free = np.flatnonzero(tied & (row4col[rem] < 0))
            index = free[-1] if free.size else np.flatnonzero(tied)[0]
            j = rem[index]
            min_val = s[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            cols_seen[j] = True
            left -= 1
            remaining[index] = remaining[left]
        u[cur] += min_val
        rows_seen[cur] = False
        u[rows_seen] += min_val - spc[col4row[rows_seen]]
        v[cols_seen] -= min_val - spc[cols_seen]
        j = sink
        while True:  # augment along the path back to the current row
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def score_recovery(w, h, w_true, h_true):
    """Score learned factors against the truth, invariant to component
    order and positive per-component rescaling.

    Columns of both w matrices and rows of both h matrices are
    L2-normalized (zero columns/rows stay zero); components are matched by
    the permutation minimizing the summed Euclidean distance between
    normalized w columns, found by exact assignment; the Frobenius
    distances of the reordered, normalized factors are returned.
    """
    w = as_matrix(w, "w")
    h = as_matrix(h, "h")
    w_true = as_matrix(w_true, "w_true")
    h_true = as_matrix(h_true, "h_true")
    if w.shape != w_true.shape or h.shape != h_true.shape or w.shape[1] != h.shape[0]:
        raise ShapeError(
            "mismatched factor shapes: w is {}x{} vs {}x{}, h is {}x{} vs {}x{}".format(
                *w.shape, *w_true.shape, *h.shape, *h_true.shape
            )
        )
    wn = _normalize_columns(w)
    wrn = _normalize_columns(w_true)
    hn = _normalize_columns(h.T).T
    hrn = _normalize_columns(h_true.T).T
    # cost[j, i] = distance from truth component j to learned component i,
    # one truth column at a time so no k x D x k temporary is built
    cost = np.empty((wn.shape[1], wn.shape[1]))
    for j in range(wn.shape[1]):
        cost[j] = np.linalg.norm(wrn[:, [j]] - wn, axis=0)
    perm = _assign(cost)
    dist_w = float(np.linalg.norm(wn[:, perm] - wrn))
    dist_h = float(np.linalg.norm(hn[perm, :] - hrn))
    return RecoveryScore(dist_w=dist_w, dist_h=dist_h, permutation=tuple(int(i) for i in perm))


def variant_label(params):
    """Short name for a regularization variant, by which penalties are on."""
    if params.lam > 0 and params.eta > 0:
        return "sparse+smooth"
    if params.lam > 0:
        return "sparse"
    if params.eta > 0:
        return "smooth"
    return "plain"


def default_variants():
    """The four standard comparison variants: plain, sparse (lambda 0.5),
    smooth (eta 1) and both, each with the default ridge weights."""
    return [ObjectiveParams(lam=lam, eta=eta) for lam, eta in ((0.0, 0.0), (0.5, 0.0), (0.0, 1.0), (0.5, 1.0))]


@dataclass(frozen=True)
class RunScore:
    """One solve's recovery score. ``error`` is set when the run failed,
    in which case the distances are NaN."""

    seed: int
    dist_w: float
    dist_h: float
    converged: bool
    error: str = None


@dataclass(frozen=True)
class VariantResult:
    """All runs of one variant plus summary statistics."""

    label: str
    params: ObjectiveParams
    runs: tuple

    def stats(self):
        """Mean, median, and population std of dist_w, dist_h, and their
        per-run sum ("score"), over the successful runs."""
        ok = [r for r in self.runs if r.error is None]
        out = {}
        for name, values in (
            ("dist_w", [r.dist_w for r in ok]),
            ("dist_h", [r.dist_h for r in ok]),
            ("score", [r.dist_w + r.dist_h for r in ok]),
        ):
            if values:
                arr = np.asarray(values)
                out[name] = {
                    "mean": float(arr.mean()),
                    "median": float(np.median(arr)),
                    "std": float(arr.std()),
                }
            else:
                out[name] = {"mean": None, "median": None, "std": None}
        return out


def run_comparison(spec, variants, config, repeats):
    """Compare regularization variants on one synthetic instance.

    Each variant is solved ``repeats`` times on the same v, with
    initialization seeds config.seed, config.seed + 1, ... (the data seed
    stays fixed in ``spec``), and every run is scored against the ground
    truth. Per-run failures (NumericError, ValueError) are recorded in the
    table instead of raised; any other exception propagates. A bool or a
    number below 1 as ``repeats``, and a config.k other than spec.k, are
    ValueErrors, raised before anything is drawn.

    Returns a list of VariantResult in the order the variants were given.
    """
    if isinstance(repeats, bool):  # an int to Python, but not a count, as in Record.check
        raise ValueError(f"repeats must be an integer, got {repeats!r}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if config.k != spec.k:
        raise ValueError(f"config.k must equal spec.k, got {config.k} and {spec.k}")
    v, w_r, h_r = generate(spec)
    results = []
    for params in variants:
        runs = []
        for r in range(repeats):
            run_config = replace(config, seed=config.seed + r)
            try:
                res = solve(v, params, run_config)
                score = score_recovery(res.w, res.h, w_r, h_r)
                runs.append(RunScore(run_config.seed, score.dist_w, score.dist_h, res.converged))
            except (NumericError, ValueError) as exc:
                runs.append(RunScore(run_config.seed, math.nan, math.nan, False, str(exc)))
        results.append(VariantResult(label=variant_label(params), params=params, runs=tuple(runs)))
    return results
