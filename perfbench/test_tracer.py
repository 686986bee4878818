"""Tests of the benchmark's per-layer tracer.

Run from the root of a checkout: python3 -m pytest -q perfbench
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import palmnmf.benchmark  # noqa: E402
import palmnmf.solver  # noqa: E402
from palmnmf import ObjectiveParams, SolverConfig, SyntheticSpec, generate  # noqa: E402
from tracer import LAYER_PATCHES, Tracer  # noqa: E402

SPEC = SyntheticSpec(d=12, k=3, n=15, sigma=0.1, seed=3)
CONFIG = SolverConfig(k=3, seed=4, max_iter=40, tol=1e-12)


def bindings():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _, _ in LAYER_PATCHES}


def traced_solve(params, config=CONFIG):
    v, _, _ = generate(SPEC)
    with Tracer() as tracer:
        result = palmnmf.solver.solve(v, params, config)
    return tracer, result


def calls(tracer):
    return {label: stat.calls for label, stat in tracer.stats.items()}


def test_wrapped_names_are_restored():
    before = bindings()
    with Tracer():
        during = bindings()
        assert all(during[key] is not before[key] for key in before)
    assert bindings() == before
    with pytest.raises(RuntimeError), Tracer():
        raise RuntimeError("boom")
    assert all(bindings()[key] is before[key] for key in before)


def test_two_traced_runs_give_identical_counts():
    params = ObjectiveParams(lam=0.3, eta=0.5)
    first, _ = traced_solve(params)
    second, _ = traced_solve(params)
    assert calls(first) == calls(second)

    def comparison():
        config = SolverConfig(k=3, seed=7, max_iter=30, tol=1e-4)
        with Tracer() as tracer:
            palmnmf.benchmark.run_comparison(SPEC, [params, ObjectiveParams()], config, 2)
        return calls(tracer)

    assert comparison() == comparison()


@pytest.mark.parametrize("eta", [0.0, 0.5])
def test_per_iteration_counts(eta):
    for config in (CONFIG, SolverConfig(k=3, seed=4, max_iter=5000, tol=1e-3)):
        tracer, result = traced_solve(ObjectiveParams(lam=0.3, eta=eta), config)
        iters = result.iterations
        assert tracer.stats["solver.solve"].counts["iterations"] == iters
        assert tracer.stats["solver.palm_step"].calls == iters
        assert tracer.stats["objective.evaluate"].calls == iters + 1
        # once in grad_h per iteration, and once in every evaluate
        expected = 2 * iters + 1 if eta > 0 else 0
        assert tracer.stats["linalg.difference_operator"].calls == expected
    assert result.converged and result.iterations < 5000


def test_self_time_excludes_nested_calls():
    tracer, _ = traced_solve(ObjectiveParams(lam=0.3, eta=0.5))
    solve = tracer.stats["solver.solve"]
    nested = sum(tracer.stats[label].total_s for label in
                 ("solver.initialize", "solver.palm_step", "objective.evaluate"))
    assert 0 <= solve.self_s <= solve.total_s
    assert solve.nested_s >= nested


def cli_child(tmp_path, trace, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(HERE / "cli_child.py"), str(trace), "dump.json", *args],
        cwd=tmp_path, env=env, capture_output=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), json.loads((tmp_path / "dump.json").read_text())


SYNTH = ("synth", "--d", "5", "--k", "2", "--n", "6", "--seed", "1", "--out", "data")
FACTORIZE = ("factorize", "--input", "data/V.csv", "--k", "2", "--max-iter", "7", "--tol", "1e-12",
             "--out", "run")


@pytest.mark.parametrize("trace", [0, 1])
def test_cli_child_times_the_factorize_solve(tmp_path, trace):
    cli_child(tmp_path, 0, *SYNTH)
    summary, dump = cli_child(tmp_path, trace, *FACTORIZE)
    assert summary["iterations"] == 7
    assert len(dump["solves"]) == 1
    seconds, iterations = dump["solves"][0]
    assert seconds > 0 and iterations == 7
    if trace:
        assert dump["stats"]["solver.solve"]["counts"]["iterations"] == 7
    else:
        assert dump["stats"] == {}


def test_cli_child_dumps_layer_stats(tmp_path):
    stdout, dump = cli_child(tmp_path, 1, *SYNTH)
    assert stdout["files"][0] == "V.csv"
    assert dump["import_s"] > 0
    assert dump["solves"] == []
    stats = dump["stats"]
    assert stats["cli.synth"]["calls"] == 1
    assert stats["fileio.save_matrix"]["calls"] == 3
    written = sum((tmp_path / "data" / f).stat().st_size for f in ("V.csv", "W_true.csv", "H_true.csv"))
    assert stats["fileio.save_matrix"]["counts"]["bytes"] == written
