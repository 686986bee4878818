"""Acceptance suite: ten numbered criteria, one test and one PASS/FAIL
line each.

Each test re-derives its expected answers from first principles (finite
differences, grid search, exhaustive permutation enumeration) or pins
the qualitative recovery properties of the committed benchmark
instances. Runtime budgets are asserted where a criterion carries one.
"""

import sys
import time

import numpy as np
import pytest
from reference import brute_force_match, fd_grad, normalize_cols, smooth_part

from palmnmf import (
    ObjectiveParams,
    SolverConfig,
    SyntheticSpec,
    default_sigma,
    default_variants,
    difference_operator,
    gen_smooth_rows,
    gen_sparse_matrix,
    generate,
    grad_h,
    grad_w,
    make_v,
    run_comparison,
    score_recovery,
    soft_threshold_nonneg,
    solve,
)

DESCENT_SLACK = 1e-9

_console = None


@pytest.fixture(autouse=True)
def _verdict_console(capfd):
    # The one-line verdicts below must reach the terminal even under
    # pytest's default fd-level capture, which also swallows writes to
    # sys.__stdout__.
    global _console
    _console = capfd
    yield
    _console = None


def _finish(n, ok, detail=""):
    line = f"ACCEPTANCE {n:02d} {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    if _console is not None:
        with _console.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_01_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    weights = (0.0, 0.1, 1.0)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 11))
        n = int(rng.integers(2, 11))
        k = int(rng.integers(1, 5))
        v = rng.uniform(0, 1, (d, n))
        w = rng.uniform(0.05, 1, (d, k))
        h = rng.uniform(0.05, 1, (k, n))
        params = ObjectiveParams(
            lam=float(rng.choice(weights)),
            eta=float(rng.choice(weights)),
            beta_w=float(rng.choice(weights)),
            beta_h=float(rng.choice(weights)),
        )
        for grad, block in ((grad_w, w), (grad_h, h)):
            g = grad(v, w, h, params)
            if block is w:
                g_fd = fd_grad(lambda m: smooth_part(v, m, h, params), w)
            else:
                g_fd = fd_grad(lambda m: smooth_part(v, w, m, params), h)
            rel = np.linalg.norm(g - g_fd) / max(np.linalg.norm(g_fd), 1e-12)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    _finish(1, worst < 1e-5 and elapsed < 10.0, f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_prox_matches_grid_search():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        y = float(rng.uniform(-3, 3))
        lam = float(rng.uniform(0, 2))
        t = float(rng.uniform(0.1, 10))
        grid = np.arange(0.0, abs(y) + 1.0, 1e-4)
        oracle = grid[np.argmin(0.5 * t * (grid - y) ** 2 + lam * grid)]
        got = soft_threshold_nonneg(np.array([[y]]), lam / t)[0, 0]
        worst = max(worst, abs(got - oracle))
    elapsed = time.perf_counter() - t0
    _finish(2, worst <= 1e-3 and elapsed < 5.0, f"worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_objective_trace_monotone():
    rng = np.random.default_rng(42)
    mixes = [
        ObjectiveParams(),
        ObjectiveParams(lam=0.5),
        ObjectiveParams(eta=2.0),
        ObjectiveParams(lam=1.0, eta=1.0),
        ObjectiveParams(lam=0.2, eta=0.3, beta_w=0.0, beta_h=0.0),
    ]
    ok = True
    worst = -np.inf
    for i, params in enumerate(mixes * 2):
        d = int(rng.integers(4, 16))
        n = int(rng.integers(4, 16))
        v = rng.uniform(0, 2, (d, n))
        res = solve(v, params, SolverConfig(k=int(rng.integers(2, 5)), seed=i, max_iter=200))
        t = np.asarray(res.objective_trace)
        excess = np.diff(t) - DESCENT_SLACK * (1.0 + np.abs(t[:-1]))
        worst = max(worst, float(excess.max()))
        ok = ok and bool((excess <= 0).all())
    _finish(3, ok, f"max slack excess {worst:.2e}")


def test_criterion_04_noiseless_exact_recovery():
    rng = np.random.default_rng(42)
    v = rng.uniform(0, 1, (10, 3)) @ rng.uniform(0, 1, (3, 20))
    params = ObjectiveParams(lam=0.0, eta=0.0, beta_w=0.0, beta_h=0.0)
    t0 = time.perf_counter()
    errs = []
    for seed in range(10):
        res = solve(v, params, SolverConfig(k=3, seed=seed, max_iter=5000))
        errs.append(float(np.linalg.norm(v - res.w @ res.h) / np.linalg.norm(v)))
    elapsed = time.perf_counter() - t0
    _finish(4, min(errs) < 1e-2 and elapsed < 30.0, f"best rel err {min(errs):.2e}, {elapsed:.1f}s")


def test_criterion_05_smoothness_improves_h_recovery():
    # Committed dense instance: defaults-shaped, data seed 0, default
    # noise level. The smoothness-on variant must recover H better in
    # median; the unpenalized variant must fit V at least as closely.
    data_seed = 0
    w_r = gen_sparse_matrix(100, 5, 1.0, data_seed)
    h_r = gen_smooth_rows(5, 200, data_seed + 1)
    v = make_v(w_r, h_r, default_sigma(w_r, h_r), "max_zero", data_seed + 2)

    t0 = time.perf_counter()
    medians = {}
    for eta in (0.0, 20.0):
        dist_h, recon = [], []
        for r in range(15):
            res = solve(
                v,
                ObjectiveParams(eta=eta),
                SolverConfig(k=5, seed=1000 + r, max_iter=5000, tol=1e-6),
            )
            dist_h.append(score_recovery(res.w, res.h, w_r, h_r).dist_h)
            recon.append(float(np.linalg.norm(v - res.w @ res.h)))
        medians[eta] = (float(np.median(dist_h)), float(np.median(recon)))
    elapsed = time.perf_counter() - t0

    smoother_h = medians[20.0][0] < medians[0.0][0]
    closer_fit = medians[0.0][1] <= medians[20.0][1]
    _finish(
        5,
        smoother_h and closer_fit and elapsed < 600.0,
        f"median dist_h {medians[20.0][0]:.3f} (on) vs {medians[0.0][0]:.3f} (off), "
        f"median recon {medians[0.0][1]:.2f} vs {medians[20.0][1]:.2f}, {elapsed:.0f}s",
    )


def test_criterion_06_variant_comparison_ordering(acceptance_06_spec):
    config = SolverConfig(k=5, seed=1000, max_iter=20000, tol=1e-5)
    t0 = time.perf_counter()
    results = run_comparison(acceptance_06_spec, default_variants(), config, repeats=15)
    elapsed = time.perf_counter() - t0

    stats = {vr.label: vr.stats()["score"] for vr in results}
    best = min(stats, key=lambda label: stats[label]["median"])
    lower_spread = all(
        stats[label]["std"] < stats["plain"]["std"]
        for label in ("sparse", "smooth", "sparse+smooth")
    )
    detail = ", ".join(
        f"{label} med {stats[label]['median']:.3f} std {stats[label]['std']:.3f}"
        for label in ("plain", "sparse", "smooth", "sparse+smooth")
    )
    _finish(
        6,
        best == "sparse+smooth" and lower_spread and elapsed < 900.0,
        f"{detail}, {elapsed:.0f}s",
    )


def test_criterion_07_near_zero_count_grows_with_l1_weight(acceptance_06_v):
    counts = []
    for lam in (0.0, 0.1, 1.0, 10.0):
        res = solve(
            acceptance_06_v,
            ObjectiveParams(lam=lam),
            SolverConfig(k=5, seed=1000, max_iter=20000, tol=1e-5),
        )
        counts.append(int((res.w < 1e-8).sum()))
    ok = all(a <= b for a, b in zip(counts, counts[1:]))
    _finish(7, ok, f"counts {counts}")


def test_criterion_08_matching_equals_brute_force():
    rng = np.random.default_rng(42)
    ok = True
    for _ in range(50):
        k = int(rng.integers(2, 6))
        d = int(rng.integers(k, 12))
        n = int(rng.integers(2, 9))
        w = rng.uniform(0, 1, (d, k))
        w_true = rng.uniform(0, 1, (d, k))
        h = rng.uniform(0, 1, (k, n))
        h_true = rng.uniform(0, 1, (k, n))
        s = score_recovery(w, h, w_true, h_true)
        wn, wrn = normalize_cols(w), normalize_cols(w_true)
        matched_cost = sum(np.linalg.norm(wn[:, s.permutation[j]] - wrn[:, j]) for j in range(k))
        brute = brute_force_match(w, w_true)[0]
        ok = ok and abs(matched_cost - brute) <= 1e-12

    # generalized-permutation invariance: exact zeros for a permuted copy
    # rescaled by powers of two
    w_true = rng.uniform(0.1, 1, (9, 4))
    h_true = rng.uniform(0.1, 1, (4, 11))
    perm = [2, 3, 1, 0]
    scales = np.array([0.25, 2.0, 8.0, 0.5])
    s = score_recovery(w_true[:, perm] * scales, h_true[perm, :] / scales[:, None], w_true, h_true)
    exact = s.dist_w == 0.0 and s.dist_h == 0.0
    _finish(8, ok and exact, f"50 brute-force cases, zero-distance copy dist_w={s.dist_w}")


def test_criterion_09_difference_gram_structure():
    ok = True
    for n in range(2, 51):
        d = difference_operator(n)
        gram = d @ d.T
        expected = np.zeros((n, n))
        expected[np.arange(n), np.arange(n)] = 2.0
        expected[0, 0] = expected[-1, -1] = 1.0
        expected[np.arange(n - 1), np.arange(1, n)] = -1.0
        expected[np.arange(1, n), np.arange(n - 1)] = -1.0
        ok = ok and np.array_equal(gram, expected)
        ok = ok and np.isclose(np.linalg.norm(gram), np.sqrt(6.0 * n - 8.0), rtol=1e-13)
    _finish(9, ok, "n = 2..50")


def _exit_failure(args, proc):
    stderr = proc.stderr.decode(errors="replace").strip().splitlines()
    last = stderr[-1] if stderr else "<no stderr>"
    return f"{args[0]} exited {proc.returncode}: {last}"


def test_criterion_10_byte_reproducibility(tmp_path, run_cli):
    # identical flags (seeds included) must reproduce every artifact and
    # the printed summary byte for byte; solver runs must match bitwise
    synth = ["synth", "--d", "10", "--k", "2", "--n", "16", "--seed", "3", "--out", "data"]
    fact = ["factorize", "--input", "data/V.csv", "--k", "2", "--lambda", "0.1",
            "--eta", "0.5", "--max-iter", "60", "--seed", "4", "--out", "run"]
    score = ["score", "--w", "run/W.csv", "--h", "run/H.csv",
             "--w-true", "data/W_true.csv", "--h-true", "data/H_true.csv"]
    bench = ["bench", "--d", "8", "--k", "2", "--n", "12", "--seed", "5",
             "--repeats", "2", "--max-iter", "40", "--out", "cmp"]

    failure = None
    snapshots = []
    for _ in range(2):
        stdout = b""
        for args in (synth, fact, score, bench):
            proc = run_cli(args, cwd=tmp_path, text=False)
            if proc.returncode != 0 and failure is None:
                failure = _exit_failure(args, proc)
            stdout += proc.stdout
        files = {
            str(p.relative_to(tmp_path)): p.read_bytes()
            for p in sorted(tmp_path.rglob("*"))
            if p.is_file()
        }
        snapshots.append((stdout, files))

    same = snapshots[0] == snapshots[1]

    v, _, _ = generate(SyntheticSpec(d=8, k=2, n=10, sigma=0.1, seed=1))
    a = solve(v, ObjectiveParams(lam=0.2), SolverConfig(k=2, seed=6, max_iter=50))
    b = solve(v, ObjectiveParams(lam=0.2), SolverConfig(k=2, seed=6, max_iter=50))
    bitwise = (
        np.array_equal(a.w, b.w)
        and np.array_equal(a.h, b.h)
        and a.objective_trace == b.objective_trace
    )
    _finish(10, failure is None and same and bitwise, failure or "4 commands rerun + solver bitwise")
