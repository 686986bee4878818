"""palmnmf benchmark: one workload per run, end-to-end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload compare-sparse --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it reports the per-layer metrics of a traced pass. It
prints a readable report first and, as its last line, one JSON object
with the keys correct, attempted, failed and metrics. Exit code 0 when
every output check passed, 1 when one failed, 2 when the checkout holds
no palmnmf sources.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# One BLAS thread, pinned before numpy is imported here or in any child.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)
# One vCPU for this process and every child it starts, so that the
# calibration kernel runs where the work it calibrates runs: the vCPUs of
# a shared machine are slowed by other tenants independently.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
# Fresh processes timed per run for setup_s; the median is reported.
SETUP_PROBES = 7


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def environment(env):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, check=False)
            sha = proc.stdout.strip() or sha
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_pins": {k: env[k] for k in THREAD_PINS},
        "git_sha": sha,
    }


def setup_samples(workload, seed, env, kernel_runs):
    """Calibrated CPU seconds of each set-up probe."""
    from calibration import calibrated, kernel_s

    samples = []
    kernels = [kernel_s()]
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True,
        )
        kernels.append(kernel_s())
        samples.append(calibrated(float(proc.stdout), kernels[-2:]))
    kernel_runs.extend(kernels)
    return samples


def peak_rss_mb():
    """Peak resident set of this process and of every child waited for so
    far."""
    return max(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def per_layer_metrics(out):
    """The per-layer metrics of a traced pass (see README.md for each).
    A layer the workload does not exercise reads 0."""
    from tracer import LayerStat

    def stat(label):
        return out.stats.get(label, LayerStat())

    def ratio(a, b):
        return a / b if b else 0.0

    solve = stat("solver.solve")
    iters = solve.counts.get("iterations", 0)
    m = {
        "solver.iterations": iters,
        "solver.solve.calls": solve.calls,
        "solver.solve.self_us_per_iter": ratio(1e6 * solve.self_s, iters),
        "solver.initialize.ms": ratio(1e3 * stat("solver.initialize").total_s,
                                      stat("solver.initialize").calls),
        "linalg.prox.us_per_call": ratio(1e6 * stat("linalg.prox").total_s, stat("linalg.prox").calls),
    }
    for label in ("solver.palm_step", "objective.evaluate", "objective.grad_w", "objective.grad_h",
                  "objective.lipschitz_w", "objective.lipschitz_h"):
        s = stat(label)
        m[f"{label}.us_per_call"] = ratio(1e6 * s.total_s, s.calls)
    m["solver.palm_step.calls"] = stat("solver.palm_step").calls
    for label in ("objective.evaluate", "linalg.as_matrix", "linalg.difference_operator"):
        s = stat(label)
        m[f"{label}.calls"] = s.calls
        m[f"{label}.calls_per_iter"] = ratio(s.calls, iters)
        m[f"{label}.us_per_iter"] = ratio(1e6 * s.total_s, iters)
        m[f"{label}.share"] = 100.0 * ratio(s.total_s, solve.total_s)
    for label in ("fileio.load_matrix", "fileio.save_matrix"):
        s = stat(label)
        m[f"{label}.calls"] = s.calls
        m[f"{label}.s"] = s.total_s
        m[f"{label}.mb_per_s"] = ratio(s.counts.get("bytes", 0) / 1e6, s.total_s)
    m["benchmark.generate.s"] = stat("benchmark.generate").total_s
    score = stat("benchmark.score_recovery")
    m["benchmark.score_recovery.ms_per_call"] = ratio(1e3 * score.total_s, score.calls)
    m["benchmark.run_comparison.self_s"] = stat("benchmark.run_comparison").self_s
    m["cli.import_s"] = out.values.get("cli.import_s", (0.0, 0))[0]
    for command in ("synth", "factorize", "score", "bench"):
        m[f"cli.{command}.self_s"] = stat(f"cli.{command}").self_s
    untraced, traced = out.pass_ms_per_iter[-2:]
    m["trace.overhead_ms_per_iter"] = traced - untraced
    return m


def main(argv=None):
    spec = load_spec()
    args = parse_args(argv, spec)
    if not (SRC / "palmnmf" / "__init__.py").is_file():
        print(f"error: no palmnmf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracer import Tracer
    from workloads import WORKLOADS

    # Children get the pins and an absolute source path: the package need
    # not be installed, and the CLI runs with its own working directory.
    env = dict(os.environ, **THREAD_PINS, PYTHONPATH=str(SRC))
    work = WORK / f"{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        out = WORKLOADS[args.workload](args.seed, args.seconds, tracer=tracer, work=work, env=env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    if args.trace:
        values = {name: (value, 1) for name, value in per_layer_metrics(out).items()}
        wanted = spec["per_layer"]
    else:
        values = out.values
        values["peak_rss_mb"] = (peak_rss_mb(), 1)
        setup = setup_samples(args.workload, args.seed, env, out.kernel_runs)
        values["setup_s"] = (statistics.median(setup), len(setup))
        values["calibration_s"] = (statistics.median(out.kernel_runs), len(out.kernel_runs))
        wanted = spec["end_to_end"]
    # A metric a failed run could not measure reads 0; the run reports
    # correct: false anyway.
    metrics = {m["name"]: {"value": values.get(m["name"], (0.0, 0))[0], "unit": m["unit"]}
               for m in wanted}

    attempted, failed = len(out.operations), len(out.failed)
    print(f"palmnmf benchmark: workload {args.workload}, seed {args.seed}, "
          f"seconds {args.seconds:g}, trace {args.trace}")
    print("environment " + json.dumps(environment(env)))
    print(f"{'metric':<40}{'value':>14}  {'unit':<8}{'n':>4}")
    units = {m["name"]: m["unit"] for m in wanted}
    extra = [] if args.trace else [n for n in values if n not in metrics]
    for name in [*metrics, *extra]:
        value, n = values.get(name, (0.0, 0))
        print(f"{name:<40}{value:>14.6g}  {units.get(name, 's'):<8}{n:>4}")
    print(f"{'failed_frac':<40}{failed / max(attempted, 1):>14.6g}  {'1':<8}{attempted:>4}")
    print(f"sha256 of final W, H and objective trace: {out.digest}")
    for problem in out.problems:
        print(f"CHECK FAILED {problem}")
    correct = attempted > 0 and not out.problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
