"""The benchmark's three workloads, their inputs and their output checks.

Every workload is a closed loop: one caller, and each call waits for the
previous one to return. A run repeats the workload's pass (a fixed piece
of work) while one more pass still fits in ``--seconds``, and always
runs at least one. The work is single-threaded (BLAS is pinned to one
thread), so each timing is CPU time: ``time.process_time`` in process,
and the user plus system time of each CLI subprocess. Each is
calibrated against a fixed kernel run just before and just after it
(see ``calibration.py``), and each reported timing is the median of the
run's repeats of identical work. Wall times are printed beside them,
raw. Counts, objectives and scores come from the first pass, and every
later pass must reproduce its outputs bitwise.

Why each workload was chosen:

compare-sparse
    Library ``run_comparison`` on the committed acceptance-06 instance
    (100x200, k=5, 80 % zeros in W, folded noise at 0.3x the mean
    signal, data seed 5): the four ``default_variants()`` from init
    seed 1000, tol=1e-5, max_iter=20000. One iteration costs only about
    0.3-0.5 ms, most of it Python and validation overhead, and a solve
    takes 2.5k-11k iterations depending on variant and init seed. So both a kernel-overhead change and an algorithm change show
    here, and it does no file I/O.
smooth-large
    Library ``solve`` on a synthetic 1000x2000, k=20 instance (noise
    sigma 2, about 0.25x the mean signal) with lam=0.5, eta=1.0, for a
    fixed budget of 20 iterations that the stopping test does not cut
    short. BLAS work dominates, including the dense 2000x1999
    difference operators built twice per iteration.
    Python overhead is negligible and the iteration count is fixed, so
    only cost per iteration, memory and the final objective can move.
cli-large
    The four CLI commands in sequence, each a ``python -m palmnmf.cli``
    subprocess, on a 1000x2000, k=20 instance: ``synth``; ``factorize``
    with eta=0 and 10 iterations; ``score``; ``bench --spec`` with one
    init seed per variant and 3 iterations. It is the only workload
    that writes files as well as reading them (``synth`` writes a 38 MB
    ``V.csv`` that ``factorize`` parses back), and every command pays
    for interpreter and scipy import, which the library workloads never
    do. Solver work is a small share.

The workload seed decides the data seed and the init seed of smooth-large
and cli-large. compare-sparse keeps the committed instance and init
seed, and the workload seed only rotates the order of the variants:
with the init seed drawn from the workload seed, the total iterations of
a pass spread by about 40 % between seeds (interquartile range over
median), far outside any usable bound. The noise of the large instances
is set where the objective is noise-dominated: at sigma 1 the final
objective spread 9 % between data seeds, at sigma 2 it spreads 4 %.
"""

import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import palmnmf.benchmark
import palmnmf.solver
from palmnmf import (
    ObjectiveParams,
    SolverConfig,
    SyntheticSpec,
    default_variants,
    gen_smooth_rows,
    gen_sparse_matrix,
    generate,
    score_recovery,
    variant_label,
)
from calibration import calibrated, kernel_s
from tracer import LayerStat, merge_stats

HERE = Path(__file__).resolve().parent

# Relative slack for "non-increasing", as in the package's own tests.
DESCENT_SLACK = 1e-9

COMPARE_DATA_SEED = 5
COMPARE_INIT_SEED = 1000
COMPARE_REPEATS = 1

LARGE_D, LARGE_K, LARGE_N = 1000, 20, 2000
LARGE_SIGMA = 2.0
SMOOTH_PARAMS = ObjectiveParams(lam=0.5, eta=1.0)
SMOOTH_BUDGET = 20
FACTORIZE_LAMBDA = 0.5
FACTORIZE_ITERS = 10
BENCH_ITERS = 3


def derive_seeds(seed):
    """(data seed, init seed) of the large workloads, from the workload seed."""
    state = np.random.SeedSequence(seed).generate_state(2)
    return int(state[0] % 10**9), int(state[1] % 10**9)


def compare_spec():
    """The committed acceptance-06 instance."""
    w_r = gen_sparse_matrix(100, 5, 0.2, COMPARE_DATA_SEED)
    h_r = gen_smooth_rows(5, 200, COMPARE_DATA_SEED + 1)
    sigma = 0.3 * float((w_r @ h_r).mean())
    return SyntheticSpec(
        d=100, k=5, n=200, sigma=sigma, w_density=0.2, clip_mode="absolute",
        seed=COMPARE_DATA_SEED,
    )


def large_spec(seed):
    return SyntheticSpec(
        d=LARGE_D, k=LARGE_K, n=LARGE_N, sigma=LARGE_SIGMA, seed=derive_seeds(seed)[0]
    )


def make_instance(workload, seed):
    """Generate the workload's instance, as ``setup_s`` times it."""
    spec = compare_spec() if workload == "compare-sparse" else large_spec(seed)
    return spec, generate(spec)


@dataclass
class Outcome:
    """What one run measured and what its checks found.

    ``values`` maps a metric name to (value, sample count). Operations
    are keyed by name; an operation fails when any check on it fails.
    """

    values: dict = field(default_factory=dict)
    operations: set = field(default_factory=set)
    failed: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    digest: str = ""
    stats: dict = field(default_factory=dict)
    # calibrated ms per iteration of each pass; in trace mode the last
    # two are the untraced and the traced pass
    pass_ms_per_iter: list = field(default_factory=list)
    # CPU seconds of every calibration kernel run
    kernel_runs: list = field(default_factory=list)

    def median(self, name, samples):
        """Record the median of repeats of identical work."""
        self.values[name] = (statistics.median(samples), len(samples))

    def single(self, name, value):
        self.values[name] = (value, 1)

    def check(self, ok, op, message):
        self.operations.add(op)
        if not ok:
            self.failed.add(op)
            self.problems.append(f"{op}: {message}")
        return ok


def descent_ok(trace):
    t = np.asarray(trace, dtype=np.float64)
    return bool(np.all(np.diff(t) <= DESCENT_SLACK * (1.0 + np.abs(t[:-1]))))


def factor_ok(m):
    return bool(np.isfinite(m).all() and (m >= 0).all())


def check_result(out, op, result):
    """Trace non-increasing and one longer than the iterations; factors
    finite and nonnegative."""
    out.check(len(result.objective_trace) == result.iterations + 1, op, "trace length")
    out.check(descent_ok(result.objective_trace), op, "objective increased")
    out.check(factor_ok(result.w), op, "W not finite and nonnegative")
    out.check(factor_ok(result.h), op, "H not finite and nonnegative")


def result_digest(result):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(result.w).tobytes())
    h.update(np.ascontiguousarray(result.h).tobytes())
    h.update(np.asarray(result.objective_trace, dtype=np.float64).tobytes())
    return h.hexdigest()


def combined_digest(digests):
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def children_cpu_s():
    """User plus system seconds of every child waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@contextmanager
def recording_solves(module, kernel_runs):
    """Time each call of ``module.solve`` in CPU seconds and keep its
    result. A calibration kernel runs before each call, and its times go
    to ``kernel_runs``; the caller runs one more after the last call."""
    original = module.solve
    records = []

    def timed(v, params, config):
        kernel_runs.append(kernel_s())
        start = time.process_time()
        result = original(v, params, config)
        records.append((time.process_time() - start, params, result))
        return result

    module.solve = timed
    try:
        yield records
    finally:
        module.solve = original


def run_passes(seconds, one_pass, tracer, warmups=0):
    """Untraced: call ``one_pass(i, None)`` at least once, and again while
    one more pass of median length still fits in ``seconds``. Traced:
    ``warmups`` untraced passes, one more untraced pass and one traced
    pass, so the last two give the tracing overhead."""
    if tracer is not None:
        for i in range(warmups + 1):
            one_pass(i, None)
        one_pass(warmups + 1, tracer)
        return
    start = time.perf_counter()
    lengths = []
    while True:
        t0 = time.perf_counter()
        one_pass(len(lengths), None)
        lengths.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(lengths) > seconds:
            return


def check_same_as_first(out, firsts, op, digest):
    out.check(firsts.setdefault(op.split("/", 1)[1], digest) == digest, op,
              "output differs bitwise from pass 0")


# --------------------------------------------------------------------------


def compare_sparse(seed, seconds, tracer=None, **_):
    out = Outcome()
    spec = compare_spec()
    _, w_r, h_r = generate(spec)
    variants = default_variants()
    shift = seed % len(variants)
    variants = variants[shift:] + variants[:shift]
    config = SolverConfig(k=5, seed=COMPARE_INIT_SEED, max_iter=20000, tol=1e-5)
    firsts = {}
    cpus, walls = [], []
    # (variant label, init seed) -> iterations and calibrated seconds of
    # every pass
    jobs = {}

    def one_pass(index, tracer):
        kernels = []
        with tracer or nullcontext(), recording_solves(palmnmf.benchmark, kernels) as records:
            w0, c0 = time.perf_counter(), time.process_time()
            table = palmnmf.benchmark.run_comparison(spec, variants, config, COMPARE_REPEATS)
            # the kernel runs inside the pass are not part of its cost
            cpu = time.process_time() - c0 - sum(kernels)
            wall = time.perf_counter() - w0 - sum(kernels)
        kernels.append(kernel_s())
        out.kernel_runs.extend(kernels)
        # each solve is calibrated by the kernel runs next to it, and the
        # rest of the pass by all of them
        solves = [calibrated(rec[0], kernels[i:i + 2]) for i, rec in enumerate(records)]
        cpus.append(sum(solves) + calibrated(cpu - sum(rec[0] for rec in records), kernels))
        walls.append(wall)
        runs = [run for vr in table for run in vr.runs]
        out.check(len(records) == len(runs), f"pass{index}/run_comparison", "one solve per run")
        for run, (_, params, result), secs in zip(runs, records, solves):
            job = (variant_label(params), run.seed)
            op = f"pass{index}/{job[0]}/{job[1]}"
            jobs.setdefault(job, (result.iterations, []))[1].append(secs)
            if not out.check(run.error is None, op, f"run failed: {run.error}"):
                continue
            check_result(out, op, result)
            score = score_recovery(result.w, result.h, w_r, h_r)
            out.check((score.dist_w, score.dist_h) == (run.dist_w, run.dist_h), op,
                      "run_comparison score differs from score_recovery")
            check_same_as_first(out, firsts, op, result_digest(result))
        out.pass_ms_per_iter.append(variant_ms_per_iter(
            (job[0], iters, times[-1]) for job, (iters, times) in jobs.items()))
        if index == 0:
            results = [r for _, _, r in records]
            out.single("iters_to_tol", sum(r.iterations for r in results))
            out.single("final_objective", statistics.median(r.objective_trace[-1] for r in results))
            out.single("recovery_score", statistics.median(run.dist_w + run.dist_h for run in runs))
            out.digest = combined_digest(result_digest(r) for r in results)

    run_passes(seconds, one_pass, tracer)
    out.median("cpu_s", cpus)
    out.median("wall_s", walls)
    out.values["solve_s"] = (statistics.median(
        statistics.median(times) for _, times in jobs.values()), len(cpus) * len(jobs))
    out.values["ms_per_iter"] = (variant_ms_per_iter(
        (job[0], iters, statistics.median(times)) for job, (iters, times) in jobs.items()),
        len(cpus))
    out.stats = tracer.stats if tracer is not None else {}
    return out


def variant_ms_per_iter(jobs):
    """Mean over variants of the variant's solver ms per iteration, from
    (variant label, iterations, seconds) per solve, so the figure does not
    move with how iterations split between cheap and dear variants."""
    per_variant = {}
    for label, iters, secs in jobs:
        n, s = per_variant.get(label, (0, 0.0))
        per_variant[label] = (n + iters, s + secs)
    return statistics.fmean(1e3 * s / n for n, s in per_variant.values())


def smooth_large(seed, seconds, tracer=None, **_):
    out = Outcome()
    with tracer or nullcontext():
        v, w_r, h_r = palmnmf.benchmark.generate(large_spec(seed))
    config = SolverConfig(k=LARGE_K, seed=derive_seeds(seed)[1], max_iter=SMOOTH_BUDGET, tol=1e-12)
    firsts = {}
    cpus, walls, solves = [], [], []

    def one_pass(index, tracer):
        before = kernel_s()
        with tracer or nullcontext():
            w0, c0 = time.perf_counter(), time.process_time()
            result = palmnmf.solver.solve(v, SMOOTH_PARAMS, config)
            solve = time.process_time() - c0
            score = palmnmf.benchmark.score_recovery(result.w, result.h, w_r, h_r)
            cpu = time.process_time() - c0
            walls.append(time.perf_counter() - w0)
        kernels = (before, kernel_s())
        out.kernel_runs.extend(kernels)
        solves.append(calibrated(solve, kernels))
        cpus.append(calibrated(cpu, kernels))
        op = f"pass{index}/solve"
        check_result(out, op, result)
        out.check(result.iterations == SMOOTH_BUDGET and not result.converged, op,
                  f"stopped after {result.iterations} of {SMOOTH_BUDGET} iterations")
        check_same_as_first(out, firsts, op, result_digest(result))
        out.pass_ms_per_iter.append(1e3 * solves[-1] / SMOOTH_BUDGET)
        if index == 0:
            out.single("iters_to_tol", result.iterations)
            out.single("final_objective", result.objective_trace[-1])
            out.single("recovery_score", score.dist_w + score.dist_h)
            out.digest = result_digest(result)

    # A short pass: warm up once, so the untraced pass the traced one is
    # compared with does not pay for first-touch page faults.
    run_passes(seconds, one_pass, tracer, warmups=1)
    out.median("cpu_s", cpus)
    out.median("wall_s", walls)
    out.median("solve_s", solves)
    out.median("ms_per_iter", out.pass_ms_per_iter)
    out.stats = tracer.stats if tracer is not None else {}
    return out


# --------------------------------------------------------------------------


def cli_commands(seed):
    data_seed, init_seed = derive_seeds(seed)
    return [
        ("synth", ["synth", "--d", str(LARGE_D), "--k", str(LARGE_K), "--n", str(LARGE_N),
                   "--sigma", repr(LARGE_SIGMA), "--seed", str(data_seed), "--out", "data"]),
        ("factorize", ["factorize", "--input", "data/V.csv", "--k", str(LARGE_K),
                       "--lambda", repr(FACTORIZE_LAMBDA), "--eta", "0",
                       "--max-iter", str(FACTORIZE_ITERS), "--seed", str(init_seed),
                       "--out", "run"]),
        ("score", ["score", "--w", "run/W.csv", "--h", "run/H.csv",
                   "--w-true", "data/W_true.csv", "--h-true", "data/H_true.csv"]),
        ("bench", ["bench", "--spec", "data/spec.json", "--repeats", "1",
                   "--max-iter", str(BENCH_ITERS), "--init-seed", str(init_seed),
                   "--out", "cmp"]),
    ]


COMMAND_FILES = {
    "synth": ("data/V.csv", "data/W_true.csv", "data/H_true.csv", "data/spec.json"),
    "factorize": ("run/W.csv", "run/H.csv", "run/trace.csv", "run/manifest.json"),
    "score": (),
    "bench": ("cmp/comparison.csv", "cmp/comparison.json"),
}


def _load_csv(path):
    # An independent parser, so the check does not rely on palmnmf's reader.
    return np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)


def check_cli_outputs(out, pass_dir, stdouts, spec, v, w_r, h_r):
    """Check the first pass's files and stdout against in-process results.

    Returns the factorize output (W, H, objective trace) for the check
    against the library solve, or None when it could not be read."""
    op = "pass0/synth"
    out.check(stdouts.get("synth") == {"files": ["V.csv", "W_true.csv", "H_true.csv", "spec.json"],
                                       "sigma": spec.sigma}, op, "unexpected stdout")
    for name, want in (("V", v), ("W_true", w_r), ("H_true", h_r)):
        path = pass_dir / "data" / f"{name}.csv"
        got = _load_csv(path) if path.is_file() else None
        out.check(got is not None and got.shape == want.shape and np.array_equal(got, want), op,
                  f"{name}.csv does not reload bitwise equal to generate(spec)")

    op = "pass0/factorize"
    summary = stdouts.get("factorize", {})
    try:
        w = _load_csv(pass_dir / "run/W.csv")
        h = _load_csv(pass_dir / "run/H.csv")
        rows = _load_csv(pass_dir / "run/trace.csv")
    except (OSError, ValueError) as exc:
        out.check(False, op, f"outputs unreadable: {exc}")
        return None
    trace = rows[:, 1].tolist()
    out.check(factor_ok(w) and factor_ok(h), op, "W or H not finite and nonnegative")
    out.check(descent_ok(trace), op, "objective increased")
    out.check(np.array_equal(rows[:, 0], np.arange(len(trace))), op, "trace.csv iteration column")
    out.check(summary.get("iterations") == FACTORIZE_ITERS == len(trace) - 1, op,
              f"ran {summary.get('iterations')} iterations, expected {FACTORIZE_ITERS}")
    out.check(summary.get("objective") == trace[-1], op, "printed objective is not the trace's last")

    op = "pass0/score"
    score = score_recovery(w, h, _load_csv(pass_dir / "data/W_true.csv"),
                           _load_csv(pass_dir / "data/H_true.csv"))
    out.check(stdouts.get("score") == {"dist_w": score.dist_w, "dist_h": score.dist_h,
                                       "permutation": list(score.permutation)},
              op, "stdout differs from score_recovery on the loaded matrices")

    op = "pass0/bench"
    rows = stdouts.get("bench")
    labels = [variant_label(p) for p in default_variants()]
    out.check(isinstance(rows, list) and [r.get("variant") for r in rows] == labels
              and all(r.get("failed") == 0 for r in rows), op, "unexpected stdout")
    return w, h, trace


def cli_large(seed, seconds, tracer=None, work=None, env=None):
    out = Outcome()
    spec = large_spec(seed)
    v, w_r, h_r = generate(spec)
    commands = cli_commands(seed)
    firsts = {}
    first = {}
    command_cpu = {name: [] for name, _ in commands}
    command_wall = {name: [] for name, _ in commands}
    # calibrated CPU seconds of factorize's solve, one per pass, timed
    # and calibrated inside the factorize process
    solves = []

    def one_pass(index, tracer):
        pass_dir = work / f"pass{index}"
        pass_dir.mkdir(parents=True)
        stdouts, dumps = {}, {}
        # one calibration kernel run before the first command and after each
        kernels = [kernel_s()]
        for name, args in commands:
            argv = [sys.executable, str(HERE / "cli_child.py"), str(int(tracer is not None)),
                    f"timing-{name}.json", *args]
            w0, c0 = time.perf_counter(), children_cpu_s()
            proc = subprocess.run(argv, cwd=pass_dir, env=env, capture_output=True, check=False)
            cpu = children_cpu_s() - c0
            wall = time.perf_counter() - w0
            kernels.append(kernel_s())
            op = f"pass{index}/{name}"
            if out.check(proc.returncode == 0, op,
                         f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-400:]}"):
                dumps[name] = json.loads((pass_dir / f"timing-{name}.json").read_text())
                try:
                    stdouts[name] = json.loads(proc.stdout)
                except ValueError:
                    out.check(False, op, f"stdout is not JSON: {proc.stdout[:200]!r}")
            # the child's own calibration kernel runs are not part of the command's cost
            child_kernels = dumps.get(name, {}).get("calibration_s", 0.0)
            command_cpu[name].append(calibrated(cpu - child_kernels, kernels[-2:]))
            command_wall[name].append(wall - child_kernels)
        for name, _ in commands:
            h = hashlib.sha256(json.dumps(stdouts.get(name)).encode())
            for rel in COMMAND_FILES[name]:
                path = pass_dir / rel
                h.update(path.read_bytes() if path.is_file() else b"missing")
            check_same_as_first(out, firsts, f"pass{index}/{name}", h.hexdigest())
        out.kernel_runs.extend(kernels)
        timed = dumps.get("factorize", {}).get("solves", [])
        if out.check(len(timed) == 1 and timed[0][1] == FACTORIZE_ITERS, f"pass{index}/factorize",
                     f"expected one solve of {FACTORIZE_ITERS} iterations, timed {timed}"):
            solves.append(timed[0][0])
            out.pass_ms_per_iter.append(1e3 * solves[-1] / FACTORIZE_ITERS)
        if tracer is not None:
            for dump in dumps.values():
                merge_stats(out.stats, {k: LayerStat.from_dict(d) for k, d in dump["stats"].items()})
            imports = [dump["import_s"] for dump in dumps.values()]
            out.values["cli.import_s"] = (statistics.median(imports), len(imports))
        if index == 0:
            first["stdouts"] = stdouts
            got = check_cli_outputs(out, pass_dir, stdouts, spec, v, w_r, h_r)
            # The library solve on factorize's input and settings must
            # give its output bitwise.
            ref = palmnmf.solver.solve(
                v, ObjectiveParams(lam=FACTORIZE_LAMBDA, eta=0.0),
                SolverConfig(k=LARGE_K, max_iter=FACTORIZE_ITERS, seed=derive_seeds(seed)[1]))
            out.check(got is not None and np.array_equal(ref.w, got[0])
                      and np.array_equal(ref.h, got[1]) and ref.objective_trace == got[2],
                      "pass0/factorize", "output differs from the library solve on the same input")
            out.digest = firsts["factorize"]
        shutil.rmtree(pass_dir)

    # Traced: one untraced pass, then a traced one; the factorize solves
    # of the two give the tracing overhead.
    run_passes(seconds, one_pass, tracer)
    for name, _ in commands:
        out.median(f"cli.{name}_s", command_cpu[name])
    runs = len(command_cpu["synth"])
    out.values["cpu_s"] = (sum(map(statistics.median, command_cpu.values())), runs)
    out.values["wall_s"] = (sum(map(statistics.median, command_wall.values())), runs)
    if solves:
        out.median("solve_s", solves)
        out.values["ms_per_iter"] = (1e3 * statistics.median(solves) / FACTORIZE_ITERS, len(solves))
    summary = first["stdouts"].get("factorize", {})
    score = first["stdouts"].get("score", {})
    out.single("iters_to_tol", summary.get("iterations", 0))
    out.single("final_objective", summary.get("objective", 0.0))
    out.single("recovery_score", score.get("dist_w", 0.0) + score.get("dist_h", 0.0))
    return out


WORKLOADS = {
    "compare-sparse": compare_sparse,
    "smooth-large": smooth_large,
    "cli-large": cli_large,
}
