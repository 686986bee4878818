"""Synthetic recovery benchmarks.

Generates ground-truth factor pairs (sparse w, smooth h), builds noisy
nonnegative observations from them, scores how well a factorization
recovers the truth up to component permutation and positive rescaling,
and compares regularization variants across repeated random
initializations.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import NumericError, ShapeError
from .linalg import Record, as_matrix
from .objective import ObjectiveParams
from .solver import solve

CLIP_MODES = ("max_zero", "absolute")


@dataclass(frozen=True)
class SyntheticSpec(Record):
    """Recipe for one synthetic instance: v = clip(w_true @ h_true + noise).

    d, k, n   -- shapes: w_true is d x k, h_true is k x n
    sigma     -- standard deviation of the additive Gaussian noise
    w_density -- fraction of w_true entries left nonzero (in (0, 1])
    clip_mode -- "max_zero" clamps negatives to 0, "absolute" takes |.|
    seed      -- base seed; w, h, and noise use seed, seed+1, seed+2
    """

    d: int
    k: int
    n: int
    sigma: float
    w_density: float = 1.0
    clip_mode: str = "max_zero"
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.d < 1 or self.k < 1 or self.n < 1:
            raise ValueError(
                f"d, k, n must be >= 1, got d={self.d}, k={self.k}, n={self.n}"
            )
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if not 0 < self.w_density <= 1:
            raise ValueError(f"w_density must be in (0, 1], got {self.w_density}")
        if self.clip_mode not in CLIP_MODES:
            raise ValueError(f"clip_mode must be one of {CLIP_MODES}, got {self.clip_mode!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def gen_smooth_rows(k, n, seed):
    """k x n nonnegative matrix whose rows are sums of 2-4 Gaussian bumps.

    Bump centers are uniform over the column range, widths uniform in
    [n/20, n/6], amplitudes uniform in [0.5, 2]. Deterministic per seed.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
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


def gen_sparse_matrix(d, k, density, seed):
    """d x k matrix of uniform [0, 1] entries with an exact fraction zeroed.

    Exactly round((1 - density) * d * k) entries, chosen uniformly without
    replacement, are set to zero. Deterministic per seed.
    """
    if d < 1 or k < 1:
        raise ValueError(f"d and k must be >= 1, got d={d}, k={k}")
    if not 0 < density <= 1:
        raise ValueError(f"density must be in (0, 1], got {density}")
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.0, 1.0, size=(d, k))
    n_zero = round((1.0 - density) * d * k)
    if n_zero:
        idx = rng.choice(d * k, size=n_zero, replace=False)
        m.ravel()[idx] = 0.0
    return m


def make_v(w_r, h_r, sigma, clip_mode, seed):
    """Noisy nonnegative observation of the product w_r @ h_r.

    Adds i.i.d. Gaussian(0, sigma^2) noise, then clamps negatives to zero
    ("max_zero") or takes absolute values ("absolute").
    """
    w_r = as_matrix(w_r, "w_r")
    h_r = as_matrix(h_r, "h_r")
    if w_r.shape[1] != h_r.shape[0]:
        raise ShapeError(
            f"cannot multiply {w_r.shape[0]}x{w_r.shape[1]} by {h_r.shape[0]}x{h_r.shape[1]}"
        )
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    if clip_mode not in CLIP_MODES:
        raise ValueError(f"clip_mode must be one of {CLIP_MODES}, got {clip_mode!r}")
    noisy = w_r @ h_r + np.random.default_rng(seed).normal(0.0, sigma, size=(w_r.shape[0], h_r.shape[1]))
    if clip_mode == "max_zero":
        return np.maximum(noisy, 0.0)
    return np.abs(noisy)


def default_sigma(w_r, h_r):
    """Noise level used when none is given: 10% of the mean product entry."""
    return 0.1 * float((as_matrix(w_r) @ as_matrix(h_r)).mean())


def generate(spec):
    """Materialize (v, w_true, h_true) for a synthetic spec.

    Sub-seeds are derived deterministically: w_true uses spec.seed,
    h_true spec.seed + 1, the noise spec.seed + 2.
    """
    w_r = gen_sparse_matrix(spec.d, spec.k, spec.w_density, spec.seed)
    h_r = gen_smooth_rows(spec.k, spec.n, spec.seed + 1)
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
    # Each column is reduced as a contiguous 1-D array so its norm depends
    # only on the column's values, not on where the column sits in the
    # matrix; a permuted copy therefore normalizes bitwise-identically,
    # which keeps the permutation-invariance of the score exact.
    out = m.astype(np.float64, copy=True)
    for j in range(out.shape[1]):
        col = np.ascontiguousarray(out[:, j])
        norm = math.sqrt(float(np.sum(col * col)))
        if norm > 0:
            out[:, j] = col / norm
    return out


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
    # cost[j, i] = distance from truth component j to learned component i
    cost = np.linalg.norm(wrn.T[:, :, None] - wn[None, :, :], axis=1)
    _, perm = linear_sum_assignment(cost)
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


def default_variants(lam=0.5, eta=1.0, beta_w=0.1, beta_h=0.1):
    """The four standard comparison variants: plain, sparse, smooth, both."""
    return [
        ObjectiveParams(lam=0.0, eta=0.0, beta_w=beta_w, beta_h=beta_h),
        ObjectiveParams(lam=lam, eta=0.0, beta_w=beta_w, beta_h=beta_h),
        ObjectiveParams(lam=0.0, eta=eta, beta_w=beta_w, beta_h=beta_h),
        ObjectiveParams(lam=lam, eta=eta, beta_w=beta_w, beta_h=beta_h),
    ]


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
    table instead of raised; any other exception propagates.

    Returns a list of VariantResult in the order the variants were given.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    v, w_r, h_r = generate(spec)
    results = []
    for params in variants:
        runs = []
        for r in range(repeats):
            run_config = replace(config, seed=config.seed + r)
            try:
                res = solve(v, params, run_config)
                score = score_recovery(res.w, res.h, w_r, h_r)
                runs.append(
                    RunScore(
                        seed=run_config.seed,
                        dist_w=score.dist_w,
                        dist_h=score.dist_h,
                        converged=res.converged,
                    )
                )
            except (NumericError, ValueError) as exc:
                runs.append(
                    RunScore(
                        seed=run_config.seed,
                        dist_w=float("nan"),
                        dist_h=float("nan"),
                        converged=False,
                        error=str(exc),
                    )
                )
        results.append(VariantResult(label=variant_label(params), params=params, runs=tuple(runs)))
    return results
