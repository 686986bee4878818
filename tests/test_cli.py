"""End-to-end CLI behavior: flags, files, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import palmnmf.cli as cli
from palmnmf import (
    NumericError,
    ObjectiveParams,
    SolverConfig,
    SyntheticSpec,
    default_variants,
    load_matrix,
    save_matrix,
)
from palmnmf.benchmark import CLIP_MODES
from palmnmf.cli import main


def read_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.fixture
def small_input(tmp_path):
    rng = np.random.default_rng(42)
    v = rng.uniform(0, 1, (6, 3)) @ rng.uniform(0, 1, (3, 10))
    path = tmp_path / "V.csv"
    save_matrix(v, path)
    return path


class TestFactorize:
    def test_smoke_and_outputs(self, small_input, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main([
            "factorize", "--input", str(small_input), "--k", "3",
            "--max-iter", "50", "--out", str(out),
        ])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert set(summary) == {"objective", "converged", "iterations"}
        for name in ("W.csv", "H.csv", "trace.csv", "manifest.json"):
            assert (out / name).exists()
        w = load_matrix(out / "W.csv")
        h = load_matrix(out / "H.csv")
        assert w.shape == (6, 3) and h.shape == (3, 10)

    def test_trace_non_increasing(self, small_input, tmp_path):
        out = tmp_path / "run"
        main(["factorize", "--input", str(small_input), "--k", "2", "--max-iter", "80", "--out", str(out)])
        trace = load_matrix(out / "trace.csv")
        np.testing.assert_array_equal(trace[:, 0], np.arange(trace.shape[0]))
        objectives = trace[:, 1]
        assert np.all(np.diff(objectives) <= 1e-9 * (1.0 + np.abs(objectives[:-1])))

    def test_manifest_records_invocation(self, small_input, tmp_path):
        out = tmp_path / "run"
        main([
            "factorize", "--input", str(small_input), "--k", "2", "--lambda", "0.5",
            "--eta", "1.5", "--max-iter", "30", "--seed", "4", "--out", str(out),
        ])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["input"] == str(small_input)
        assert manifest["params"]["lambda"] == 0.5
        assert manifest["params"]["eta"] == 1.5
        assert manifest["config"]["seed"] == 4
        assert manifest["files"] == ["W.csv", "H.csv", "trace.csv", "manifest.json"]
        assert sorted(manifest["files"]) == sorted(path.name for path in out.iterdir())

    def test_missing_input_flag_is_usage_error(self, capsys):
        rc = main(["factorize", "--k", "3", "--out", "x"])
        assert rc == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(["factorize", "--input", str(tmp_path / "none.csv"), "--k", "2", "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_bad_k_rejected(self, small_input, tmp_path, capsys):
        rc = main(["factorize", "--input", str(small_input), "--k", "0", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [(["--k", "0"], "k must be >= 1, got 0"), (["--k", "2", "--tol", "-1"], "tol must be > 0, got -1.0")],
        ids=["k", "tol"],
    )
    def test_flags_checked_before_input_is_read(self, tmp_path, capsys, flags, message):
        # The flag's error, not the input's: the flags fail before the
        # file is read.
        bad = tmp_path / "bad.csv"
        bad.write_text("1,x\n")
        rc = main(["factorize", "--input", str(bad), *flags, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_numeric_failure_exits_1(self, small_input, tmp_path, capsys, monkeypatch):
        def blow_up(v, params, config):
            raise NumericError("w update produced non-finite values", iteration=3)

        monkeypatch.setattr(cli, "solve", blow_up)
        rc = main(["factorize", "--input", str(small_input), "--k", "2", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "iteration 3" in capsys.readouterr().err

    def test_out_of_memory_exits_1(self, small_input, tmp_path, capsys, monkeypatch):
        # Raised, not provoked: whether a huge allocation fails at once
        # depends on the machine's overcommit policy.
        def out_of_memory(v, params, config):
            raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 99999)")

        monkeypatch.setattr(cli, "solve", out_of_memory)
        out = tmp_path / "o"
        rc = main(["factorize", "--input", str(small_input), "--k", "2", "--eta", "1", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: Unable to allocate 74.5 GiB for an array with shape (100000, 99999)\n"
        assert not out.exists()

    def test_out_of_memory_without_message_exits_1(self, small_input, tmp_path, capsys, monkeypatch):
        # What Python raises when an allocation outside numpy fails.
        def out_of_memory(v, params, config):
            raise MemoryError()

        monkeypatch.setattr(cli, "solve", out_of_memory)
        out = tmp_path / "o"
        rc = main(["factorize", "--input", str(small_input), "--k", "2", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: out of memory\n"
        assert not out.exists()

    def test_reruns_byte_identical(self, small_input, tmp_path):
        args = ["factorize", "--input", str(small_input), "--k", "3", "--lambda", "0.1", "--max-iter", "60"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        t1, t2 = read_tree(out1), read_tree(out2)
        # manifests differ only in the recorded out_dir
        assert t1.pop("manifest.json") != t2.pop("manifest.json")
        assert t1 == t2


class TestSynth:
    def test_default_shapes(self, tmp_path, capsys):
        out = tmp_path / "data"
        rc = main(["synth", "--out", str(out)])
        assert rc == 0
        files = json.loads(capsys.readouterr().out)["files"]
        assert files == ["V.csv", "W_true.csv", "H_true.csv", "spec.json"]
        assert sorted(files) == sorted(path.name for path in out.iterdir())
        assert load_matrix(out / "V.csv").shape == (100, 200)
        assert load_matrix(out / "W_true.csv").shape == (100, 5)
        assert load_matrix(out / "H_true.csv").shape == (5, 200)
        spec = SyntheticSpec.from_dict(json.loads((out / "spec.json").read_text()))
        assert (spec.d, spec.k, spec.n) == (100, 5, 200)
        assert spec.sigma > 0  # default noise scales with the instance

    def test_sigma_zero_gives_exact_product(self, tmp_path):
        out = tmp_path / "data"
        main(["synth", "--d", "9", "--k", "2", "--n", "14", "--sigma", "0", "--out", str(out)])
        v = load_matrix(out / "V.csv")
        prod = load_matrix(out / "W_true.csv") @ load_matrix(out / "H_true.csv")
        np.testing.assert_allclose(v, prod, atol=1e-12)

    def test_w_density_zero_count(self, tmp_path):
        out = tmp_path / "data"
        main(["synth", "--w-density", "0.2", "--out", str(out)])
        assert (load_matrix(out / "W_true.csv") == 0).sum() == 400

    def test_invalid_density_is_usage_error(self, tmp_path, capsys):
        rc = main(["synth", "--w-density", "0", "--out", str(tmp_path / "d")])
        assert rc == 2

    @pytest.mark.parametrize("sigma", [[], ["--sigma", "0.1"]], ids=["default-sigma", "given-sigma"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--w-density", "0"], "w_density must be > 0, got 0.0"),
            (["--d", "0"], "d must be >= 1, got 0"),
            (["--seed", "-1"], "seed must be >= 0, got -1"),
        ],
        ids=["w-density", "d", "seed"],
    )
    def test_bad_flag_has_one_message(self, flags, message, sigma, tmp_path, capsys):
        # The spec is checked before the default sigma draws its truth, so
        # whether --sigma is given does not change the message.
        out = tmp_path / "data"
        assert main(["synth", *flags, *sigma, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_spec_json_reusable_by_bench(self, tmp_path):
        out = tmp_path / "data"
        main(["synth", "--d", "8", "--k", "2", "--n", "12", "--sigma", "0.05", "--out", str(out)])
        bench_out = tmp_path / "bench"
        rc = main([
            "bench", "--spec", str(out / "spec.json"), "--repeats", "1",
            "--max-iter", "30", "--out", str(bench_out),
        ])
        assert rc == 0
        table = json.loads((bench_out / "comparison.json").read_text())
        assert table["spec"] == json.loads((out / "spec.json").read_text())  # sigma too: a file's sigma is not redrawn


class TestScore:
    def test_self_match(self, tmp_path, capsys):
        rng = np.random.default_rng(42)
        w = rng.uniform(0, 1, (7, 3))
        h = rng.uniform(0, 1, (3, 9))
        paths = {}
        for name, m in {"w": w, "h": h}.items():
            paths[name] = tmp_path / f"{name}.csv"
            save_matrix(m, paths[name])
        rc = main([
            "score", "--w", str(paths["w"]), "--h", str(paths["h"]),
            "--w-true", str(paths["w"]), "--h-true", str(paths["h"]),
        ])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert result == {"dist_w": 0.0, "dist_h": 0.0, "permutation": [0, 1, 2]}

    def test_shape_mismatch_is_usage_error(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        save_matrix(np.ones((3, 2)), a)
        save_matrix(np.ones((2, 3)), b)
        wrong = tmp_path / "w.csv"
        save_matrix(np.ones((3, 3)), wrong)
        rc = main(["score", "--w", str(a), "--h", str(b), "--w-true", str(wrong), "--h-true", str(b)])
        assert rc == 2


class TestBench:
    def test_row_count_and_summary(self, tmp_path, capsys):
        out = tmp_path / "bench"
        rc = main([
            "bench", "--d", "8", "--k", "2", "--n", "12", "--seed", "3",
            "--repeats", "2", "--max-iter", "40", "--out", str(out),
        ])
        assert rc == 0
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[0] == "variant,seed,dist_w,dist_h"
        assert len(lines) == 1 + 4 * 2  # four default variants, two repeats
        summary = json.loads(capsys.readouterr().out)
        assert [row["variant"] for row in summary] == ["plain", "sparse", "smooth", "sparse+smooth"]
        assert all(row["failed"] == 0 for row in summary)

    def test_flags_override_spec_keys(self, tmp_path):
        data, out = tmp_path / "data", tmp_path / "bench"
        main(["synth", "--d", "4", "--k", "2", "--n", "6", "--seed", "3", "--out", str(data)])
        spec = json.loads((data / "spec.json").read_text())
        rc = main([
            "bench", "--spec", str(data / "spec.json"), "--d", "7", "--n", "9", "--sigma", "5",
            "--repeats", "1", "--max-iter", "5", "--out", str(out),
        ])
        assert rc == 0
        table = json.loads((out / "comparison.json").read_text())
        assert table["spec"] == {**spec, "d": 7, "n": 9, "sigma": 5.0}

    def test_inline_variants(self, tmp_path, capsys):
        out = tmp_path / "bench"
        variants = json.dumps([{"lambda": 0.0}, {"lambda": 0.3}])
        rc = main([
            "bench", "--d", "8", "--k", "2", "--n", "12", "--repeats", "1",
            "--variants", variants, "--max-iter", "30", "--out", str(out),
        ])
        assert rc == 0
        table = json.loads((out / "comparison.json").read_text())
        assert [v["label"] for v in table["variants"]] == ["plain", "sparse"]

    def test_variants_file(self, tmp_path, capsys):
        vfile = tmp_path / "variants.json"
        vfile.write_text(json.dumps([{"eta": 2.0}]))
        out = tmp_path / "bench"
        rc = main([
            "bench", "--d", "8", "--k", "2", "--n", "12", "--repeats", "1",
            "--variants", str(vfile), "--max-iter", "30", "--out", str(out),
        ])
        assert rc == 0
        table = json.loads((out / "comparison.json").read_text())
        assert [v["label"] for v in table["variants"]] == ["smooth"]

    def test_reruns_byte_identical(self, tmp_path):
        args = [
            "bench", "--d", "8", "--k", "2", "--n", "12", "--seed", "5",
            "--repeats", "2", "--max-iter", "40",
        ]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        assert read_tree(out1) == read_tree(out2)

    def test_failed_runs_marked_and_exit_codes(self, tmp_path, capsys, monkeypatch):
        import palmnmf.benchmark as benchmark

        real_solve = benchmark.solve

        def flaky(v, params, config):
            if config.seed == 1000:
                raise NumericError("bad step")
            return real_solve(v, params, config)

        monkeypatch.setattr(benchmark, "solve", flaky)
        out = tmp_path / "bench"
        variants = json.dumps([{"lambda": 0.0}])
        rc = main([
            "bench", "--d", "8", "--k", "2", "--n", "12", "--repeats", "2",
            "--variants", variants, "--max-iter", "30", "--out", str(out),
        ])
        assert rc == 0  # one seed still succeeded
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines[1] == "plain,1000,failed,failed"
        table = json.loads((out / "comparison.json").read_text())
        assert table["variants"][0]["runs"][0]["dist_w"] is None
        self.assert_outputs_agree(out, capsys.readouterr().out)

        monkeypatch.setattr(benchmark, "solve", lambda *a, **k: (_ for _ in ()).throw(NumericError("dead")))
        rc = main([
            "bench", "--d", "8", "--k", "2", "--n", "12", "--repeats", "2",
            "--variants", variants, "--max-iter", "30", "--out", str(tmp_path / "bench2"),
        ])
        assert rc == 1
        self.assert_outputs_agree(tmp_path / "bench2", capsys.readouterr().out)

        # an empty message still marks a failed run
        def silent(v, params, config):
            if config.seed == 1001:
                raise NumericError("")
            return real_solve(v, params, config)

        monkeypatch.setattr(benchmark, "solve", silent)
        rc = main([
            "bench", "--d", "8", "--k", "2", "--n", "12", "--repeats", "2",
            "--variants", variants, "--max-iter", "30", "--out", str(tmp_path / "bench3"),
        ])
        assert rc == 0
        assert (tmp_path / "bench3" / "comparison.csv").read_text().splitlines()[2] == "plain,1001,failed,failed"
        run = json.loads((tmp_path / "bench3" / "comparison.json").read_text())["variants"][0]["runs"][1]
        assert run == {"seed": 1001, "dist_w": None, "dist_h": None, "converged": False, "error": ""}
        self.assert_outputs_agree(tmp_path / "bench3", capsys.readouterr().out)

    @staticmethod
    def assert_outputs_agree(out, stdout):
        """comparison.csv rows restate comparison.json's runs, and each
        stdout summary row counts its variant's failed runs."""
        variants = json.loads((out / "comparison.json").read_text())["variants"]
        rows = [
            [vr["label"], str(run["seed"])]
            + ["failed" if run[key] is None else "%.17g" % run[key] for key in ("dist_w", "dist_h")]
            for vr in variants
            for run in vr["runs"]
        ]
        lines = (out / "comparison.csv").read_text().splitlines()
        assert lines == ["variant,seed,dist_w,dist_h"] + [",".join(row) for row in rows]
        for vr in variants:
            assert all((run["error"] is None) == (run["dist_w"] is not None) for run in vr["runs"])
        summary = json.loads(stdout)
        assert [(s["variant"], s["failed"]) for s in summary] == [
            (vr["label"], sum(run["error"] is not None for run in vr["runs"])) for vr in variants
        ]


class TestDefaults:
    """A flag that is not given takes its record's default."""

    def test_factorize(self, small_input, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["factorize", "--input", str(small_input), "--k", "3", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["params"] == ObjectiveParams().to_dict()
        assert manifest["config"] == SolverConfig(k=3).to_dict()

    def test_bench(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert main(["bench", "--d", "4", "--k", "2", "--n", "6", "--repeats", "1", "--out", str(out)]) == 0
        table = json.loads((out / "comparison.json").read_text())
        spec = SyntheticSpec.from_dict(table["spec"])
        assert table["spec"] == SyntheticSpec(d=4, k=2, n=6, sigma=spec.sigma).to_dict()
        assert table["config"] == SolverConfig(k=spec.k, seed=1000).to_dict()
        assert [v["params"] for v in table["variants"]] == [p.to_dict() for p in default_variants()]


def usage_error(args, cli_env, cwd=None):
    """Run the CLI as a child process, check that it reports a usage error
    (exit 2, one ``error:`` line on stderr, no traceback) and return stderr."""
    result = subprocess.run(
        [sys.executable, "-m", "palmnmf.cli", *args], capture_output=True, text=True, env=cli_env, cwd=cwd
    )
    assert result.returncode == 2
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr
    return result.stderr


@pytest.mark.parametrize(
    "case, named",
    [
        ({"variants": "[1,2]"}, "--variants"),
        ({"variants": '[{"lambda": "x"}]'}, "lambda"),
        ({"spec": {"k": 2, "n": 6, "sigma": 0.1}}, "'d'"),
        ({"spec": {"d": "6", "k": 2, "n": 6, "sigma": 0.1}}, "d must be an integer"),
        ({"spec": [{"d": 6, "k": 2, "n": 6, "sigma": 0.1}]}, "JSON object"),
        ({"spec": {"d": 6, "k": "2", "n": 6, "sigma": 0.1}}, "k must be an integer"),
        ({"variants": '[{"lamda": 0.5}]'}, "'lamda'"),
        ({"spec": {"d": 6, "k": 2, "n": 6, "sigma": 0.1, "w_desnity": 0.5}}, "'w_desnity'"),
        ({"spec": b'{"d": 6, "k": 2, '}, "spec.json: Expecting property name"),
        ({"spec": b'{"d": \xff}'}, "spec.json: 'utf-8' codec can't decode"),
        ({"spec": b"[" * 100_000}, "spec.json: maximum recursion depth"),
        ({"variants": '[{"lambda": 0.5'}, "--variants: Expecting ',' delimiter"),
        ({"variants_file": b'[{"eta": '}, "variants.json: Expecting value"),
        ({"variants_file": b'[{"eta": "\xff"}]'}, "variants.json: 'utf-8' codec can't decode"),
        ({"variants": '[{"eta": %d}]' % 10**400}, "eta must be a finite number"),
        ({"spec": {"d": 6, "k": 2, "n": 6, "sigma": 10**400}}, "sigma must be a finite number"),
        ({"spec": {"d": 10**8, "k": 2, "n": 10**8, "sigma": 0.1}}, "v (d x n) would be 100000000x100000000"),
        ({"variants": '{"lambda": 1}'}, "--variants must be a non-empty JSON list of parameter objects"),
    ],
    ids=[
        "variants-ints", "variants-str-weight", "spec-no-d", "spec-str-d", "spec-list", "spec-str-k",
        "variants-misspelt-key", "spec-misspelt-key", "spec-truncated", "spec-bad-utf8", "spec-too-deep",
        "variants-truncated", "variants-file-truncated", "variants-file-bad-utf8",
        "variants-huge-int-weight", "spec-huge-int-sigma", "spec-beyond-memory", "variants-inline-object",
    ],
)
def test_malformed_bench_input_exits_2(case, named, tmp_path, cli_env):
    """A ``spec`` or ``variants_file`` case is written to a file: bytes as
    they are, anything else as JSON; a ``variants`` case is passed inline."""
    [(kind, value)] = case.items()
    args = ["bench", "--repeats", "1", "--max-iter", "5", "--out", str(tmp_path / "o")]
    if kind != "spec":
        args += ["--d", "4", "--k", "2", "--n", "6"]
    if kind == "variants":
        args += ["--variants", value]
    else:
        path = tmp_path / ("spec.json" if kind == "spec" else "variants.json")
        path.write_bytes(value if isinstance(value, bytes) else json.dumps(value).encode())
        args += ["--spec" if kind == "spec" else "--variants", str(path)]
    assert named in usage_error(args, cli_env)


@pytest.mark.parametrize(
    "args, named",
    [
        (["factorize", "--input", "{input}", "--k", str(10**18)], "w (rows of v x k) would be 6x%d" % 10**18),
        (["factorize", "--input", "{input}", "--k", str(10**400)], "w (rows of v x k) would be 6x%d" % 10**400),
        (["synth", "--d", str(10**8), "--k", "2", "--n", str(10**8)], "v (d x n) would be 100000000x100000000"),
        (["factorize", "--input", "{input}", "--k", str(10**7)], "the Gram h h^T (k x k) would be 10000000x10000000"),
        (
            ["factorize", "--input", "{wide}", "--k", "1", "--eta", "1"],
            "the difference operator (n x n-1) would be {n}x{n_1}",
        ),
    ],
    ids=["factorize-k", "factorize-400-digit-k", "synth-d-n", "factorize-k-gram", "factorize-eta-wide"],
)
def test_sizes_beyond_memory_exit_2(args, named, small_input, tmp_path, cli_env):
    # Sizes far beyond any machine's memory, refused before numpy allocates.
    # {wide} is a one-row V with n = isqrt(physical memory / 8) + 2
    # columns, whose dense n x (n-1) difference operator does not fit.
    n = math.isqrt(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 8) + 2
    wide = tmp_path / "wide.csv"
    if "{wide}" in args:
        wide.write_text(",".join(["1"] * n) + "\n")
    out = tmp_path / "o"
    args = [a.format(input=small_input, wide=wide) for a in args] + ["--out", str(out)]
    assert named.format(n=n, n_1=n - 1) in usage_error(args, cli_env)
    assert not out.exists()


@pytest.mark.parametrize(
    "entry, message",
    [
        ("1e308", "error: the mean of v overflows\n"),
        ("1e154", "error: iteration 0: objective became non-finite\n"),
    ],
    ids=["mean-overflows", "initial-objective-overflows"],
)
def test_overflow_before_the_first_step_exits_1(entry, message, tmp_path, cli_env):
    # Every entry of V is finite; the failure comes before the first step.
    v = tmp_path / "V.csv"
    v.write_text(f"{entry},{entry}\n{entry},{entry}\n")
    out = tmp_path / "o"
    args = ["factorize", "--input", str(v), "--k", "1", "--max-iter", "5", "--out", str(out)]
    result = subprocess.run(
        [sys.executable, "-m", "palmnmf.cli", *args], capture_output=True, text=True, env=cli_env
    )
    assert result.returncode == 1
    assert result.stderr == message
    assert not out.exists()


@pytest.mark.parametrize("command", [["synth"], ["bench", "--repeats", "1", "--max-iter", "1"]])
def test_overflowing_synthetic_v_exits_1(command, tmp_path, cli_env):
    out = tmp_path / "o"
    args = [*command, "--d", "3", "--k", "1", "--n", "4", "--sigma", "1e308", "--out", str(out)]
    result = subprocess.run(
        [sys.executable, "-m", "palmnmf.cli", *args], capture_output=True, text=True, env=cli_env
    )
    assert result.returncode == 1
    assert result.stderr == "error: the noisy product w_r @ h_r is not finite at sigma=1e+308\n"
    assert not out.exists()


# The commands whose flags each record makes, and the defaults the CLI
# shows in place of the record's.
RECORD_FLAGS = {
    SolverConfig: (["factorize"], {}),
    ObjectiveParams: (["factorize"], {}),
    SyntheticSpec: (
        ["synth", "bench"],
        {"d": 100, "k": 5, "n": 200, "sigma": "0.1 x mean entry of the noiseless product"},
    ),
}


@pytest.mark.parametrize("cls", list(RECORD_FLAGS))
def test_record_flags_follow_the_records(cls, capsys):
    """Each field has a flag in each command of its record: its JSON key,
    of its type, showing its help and default, and parsed into the JSON
    key. ``--clip`` alone spells its values otherwise, and shows its
    field's help."""
    parser = cli.build_parser()
    commands, defaults = RECORD_FLAGS[cls]
    for command in commands:
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--help"])
        shown = " ".join(capsys.readouterr().out.split())
        argv = [command, "--input", "v.csv", "--k", "2"] if command == "factorize" else [command]
        argv += ["--out", "o"]
        flagged = [(f, key) for f, key in zip(fields(cls), cls.keys()) if key != "clip_mode"]
        for f, key in flagged:
            flag = "--" + key.replace("_", "-")
            default = defaults.get(key, f.default)
            default = "" if default is MISSING else f" (default {default})"
            assert f"{flag} {key.upper()} {f.metadata['help']}{default}" in shown
            argv += [flag, "3"]
        if cls is SyntheticSpec:
            clip = "--clip {absolute,max-zero} how negatives after noise are made nonnegative (default max-zero)"
            assert clip in shown
        args = parser.parse_args(argv)
        for f, key in flagged:
            assert type(getattr(args, key)) is f.type and getattr(args, key) == 3


def test_score_at_huge_scale_prints_nothing_on_stderr(tmp_path, cli_env):
    rng = np.random.default_rng(0)
    paths = []
    for name, shape in (("w", (5, 3)), ("h", (3, 4)), ("w_true", (5, 3)), ("h_true", (3, 4))):
        paths.append(tmp_path / f"{name}.csv")
        save_matrix(rng.uniform(1, 2, shape) * 1e200, paths[-1])
    flags = [a for flag, path in zip(("--w", "--h", "--w-true", "--h-true"), paths) for a in (flag, str(path))]
    result = subprocess.run(
        [sys.executable, "-m", "palmnmf.cli", "score", *flags], capture_output=True, text=True, env=cli_env
    )
    assert result.returncode == 0
    assert result.stderr == ""
    assert set(json.loads(result.stdout)) == {"dist_w", "dist_h", "permutation"}


def test_factorize_bytes_repeat_on_threaded_blas(tmp_path, cli_env):
    # A 1000x2000 V is above OpenBLAS's threading threshold, so v @ h.T and
    # w.T @ v run on two threads, a path the small instances of acceptance
    # 10 never take. The bytes are compared at one thread count only: they
    # are not claimed to match across thread counts.
    rng = np.random.default_rng(11)
    save_matrix(rng.uniform(0, 1, (1000, 20)) @ rng.uniform(0, 1, (20, 2000)), tmp_path / "V.csv")
    env = {**cli_env, "OPENBLAS_NUM_THREADS": "2"}
    args = ["factorize", "--input", "V.csv", "--k", "20", "--lambda", "0.5", "--eta", "1",
            "--max-iter", "2", "--out", "run"]
    runs = []
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, "-m", "palmnmf.cli", *args], capture_output=True, cwd=tmp_path, env=env
        )
        assert result.returncode == 0, result.stderr
        runs.append((result.stdout, read_tree(tmp_path / "run")))
    assert sorted(runs[0][1]) == ["H.csv", "W.csv", "manifest.json", "trace.csv"]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("flag, value", [("--tol", "inf"), ("--gamma1", "1e999")])
def test_non_finite_solver_flag_fails_before_solving(flag, value, small_input, tmp_path, cli_env):
    out = tmp_path / "o"
    stderr = usage_error(["factorize", "--input", str(small_input), "--k", "2", flag, value, "--out", str(out)], cli_env)
    assert f"{flag[2:]} must be a finite number" in stderr
    assert not out.exists()


def test_bad_init_seed_names_its_flag(tmp_path, cli_env):
    args = ["bench", "--d", "4", "--k", "2", "--n", "6", "--init-seed", "-1", "--out", str(tmp_path / "o")]
    assert usage_error(args, cli_env) == "error: --init-seed: seed must be >= 0, got -1\n"


# JSON documents for the fuzz test below: keys mostly the records' own, so
# that many documents get past the key check; integers small, so that no
# drawn spec asks for a large allocation (but for +-10**400, which numpy
# rejects as a dimension before it allocates anything); lists short.
json_keys = st.sampled_from(SyntheticSpec.keys() + ObjectiveParams.keys()) | st.text(max_size=3)
json_docs = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 20)
    | st.sampled_from([10**400, -(10**400)])
    | st.floats(-3, 20)
    | st.sampled_from([float("nan"), float("inf"), 1e-300])
    | st.sampled_from(CLIP_MODES)
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(json_keys, children, max_size=8),
    max_leaves=16,
)


@given(
    spec=json_docs.map(json.dumps) | st.text(max_size=20),
    variants=st.lists(json_docs, max_size=3).map(json.dumps) | st.text(max_size=20).map("[".__add__),
)
@settings(max_examples=150, deadline=None)
def test_any_json_input_exits_0_1_or_2(spec, variants):
    """Arbitrary JSON text as ``--spec`` (a file) or inline ``--variants``
    ends in an exit code of the documented contract, never an exception."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(spec, encoding="utf-8")
        common = ["--repeats", "1", "--max-iter", "1"]
        assert main(["bench", "--spec", str(path), *common, "--out", str(Path(tmp) / "a")]) in (0, 1, 2)
        assert main([
            "bench", "--d", "4", "--k", "2", "--n", "6", "--variants", variants, *common,
            "--out", str(Path(tmp) / "b"),
        ]) in (0, 1, 2)


SMALL = ["--d", "4", "--k", "2", "--n", "6"]
QUICK = ["--repeats", "1", "--max-iter", "1"]


@pytest.mark.parametrize(
    "args, named",
    [
        (["factorize", "--input", "{dir}", "--k", "2", "--out", "{tmp}/o"], "Is a directory"),
        (["bench", *SMALL, "--variants", "{dir}", "--out", "{tmp}/o"], "Is a directory"),
        (["synth", *SMALL, "--out", "{file}"], "File exists"),
        (["bench", "--spec", "", *QUICK, "--out", "{tmp}/o"], "''"),
        (["bench", *SMALL, "--variants", "", "--out", "{tmp}/o"], "''"),
        (["factorize", "--input", "V.csv", "--k", "1", "--out", ""], "''"),
        (["synth", *SMALL, "--out", ""], "''"),
        (["bench", *SMALL, *QUICK, "--out", ""], "''"),
        (["bench", *SMALL, *QUICK, "--out", "{file}/o"], "Not a directory"),
    ],
    ids=[
        "factorize-input-dir", "bench-variants-dir", "synth-out-file", "bench-spec-empty",
        "bench-variants-empty", "factorize-out-empty", "synth-out-empty", "bench-out-empty",
        "bench-out-under-file",
    ],
)
def test_path_usage_errors_exit_2(args, named, tmp_path, cli_env):
    # Run in tmp_path, so that an empty path read as "." would write there.
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    save_matrix(np.ones((2, 3)), tmp_path / "V.csv")
    before = {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}
    paths = {"dir": tmp_path / "dir", "file": tmp_path / "file", "tmp": tmp_path}
    assert named in usage_error([a.format(**paths) for a in args], cli_env, cwd=tmp_path)
    assert {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")} == before


@pytest.mark.parametrize(
    "command",
    [["factorize", "--input", "V.csv", "--k", "1"], ["synth", *SMALL], ["bench", *SMALL, *QUICK]],
    ids=["factorize", "synth", "bench"],
)
@pytest.mark.parametrize(
    "out, named",
    [("", "No such file or directory: ''"), ("{file}", "File exists"), ("{file}/o/p", "Not a directory")],
    ids=["empty", "file", "under-file"],
)
def test_unusable_out_refused_before_the_work(command, out, named, tmp_path, monkeypatch, capsys):
    (tmp_path / "file").write_text("")
    save_matrix(np.ones((2, 3)), tmp_path / "V.csv")
    monkeypatch.chdir(tmp_path)

    def work(*args, **kwargs):
        raise AssertionError("the work ran before --out was checked")

    for name in ("load_matrix", "solve", "generate", "run_comparison"):
        monkeypatch.setattr(cli, name, work)
    assert main([*command, "--out", out.format(file=tmp_path / "file")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and err.count("\n") == 1


class TestTopLevel:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "factorize" in capsys.readouterr().out

    def test_module_entry_point(self, tmp_path, cli_env):
        result = subprocess.run(
            [sys.executable, "-m", "palmnmf.cli", "synth", "--d", "4", "--k", "2",
             "--n", "6", "--sigma", "0", "--out", str(tmp_path / "d")],
            capture_output=True, text=True, env=cli_env,
        )
        assert result.returncode == 0
        assert (tmp_path / "d" / "V.csv").exists()

    def test_import_leaves_scipy_unloaded(self, cli_env):
        # The package does not use scipy, so importing it must not load it.
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, palmnmf.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
            capture_output=True, text=True, env=cli_env,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_commands_leave_scipy_unloaded(self, tmp_path, cli_env):
        # score_recovery has its own exact assignment, so no command,
        # scoring ones included, pays for importing scipy.
        script = """
import sys
from palmnmf.cli import main
d, o = sys.argv[1] + "/d", sys.argv[1] + "/o"
common = ["--max-iter", "3", "--out"]
assert main(["synth", "--d", "6", "--k", "2", "--n", "8", "--seed", "1", "--out", d]) == 0
assert main(["factorize", "--input", d + "/V.csv", "--k", "2", *common, o]) == 0
assert main(["score", "--w", o + "/W.csv", "--h", o + "/H.csv",
             "--w-true", d + "/W_true.csv", "--h-true", d + "/H_true.csv"]) == 0
assert main(["bench", "--spec", d + "/spec.json", "--repeats", "1", *common, sys.argv[1] + "/b"]) == 0
print([m for m in sys.modules if m.split(".")[0] == "scipy"], file=sys.stderr)
"""
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True, env=cli_env
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr.strip() == "[]"
