"""End-to-end CLI behavior: flags, files, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import tempfile
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
        assert table["spec"]["d"] == 8


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

        monkeypatch.setattr(benchmark, "solve", lambda *a, **k: (_ for _ in ()).throw(NumericError("dead")))
        rc = main([
            "bench", "--d", "8", "--k", "2", "--n", "12", "--repeats", "2",
            "--variants", variants, "--max-iter", "30", "--out", str(tmp_path / "bench2"),
        ])
        assert rc == 1


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


def usage_error(args, cli_env):
    """Run the CLI as a child process, check that it reports a usage error
    (exit 2, one ``error:`` line on stderr, no traceback) and return stderr."""
    result = subprocess.run(
        [sys.executable, "-m", "palmnmf.cli", *args], capture_output=True, text=True, env=cli_env
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
            "the difference operator (columns of v x columns of v - 1) would be {n}x{n_1}",
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
        path.write_text(spec)
        common = ["--repeats", "1", "--max-iter", "1"]
        assert main(["bench", "--spec", str(path), *common, "--out", str(Path(tmp) / "a")]) in (0, 1, 2)
        assert main([
            "bench", "--d", "4", "--k", "2", "--n", "6", "--variants", variants, *common,
            "--out", str(Path(tmp) / "b"),
        ]) in (0, 1, 2)


@pytest.mark.parametrize(
    "args",
    [
        ["factorize", "--input", "{dir}", "--k", "2", "--out", "{tmp}/o"],
        ["bench", "--d", "4", "--k", "2", "--n", "6", "--variants", "{dir}", "--out", "{tmp}/o"],
        ["synth", "--d", "4", "--k", "2", "--n", "6", "--out", "{file}"],
    ],
    ids=["factorize-input-dir", "bench-variants-dir", "synth-out-file"],
)
def test_path_usage_errors_exit_2(args, tmp_path, cli_env):
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    paths = {"dir": tmp_path / "dir", "file": tmp_path / "file", "tmp": tmp_path}
    usage_error([a.format(**paths) for a in args], cli_env)


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
