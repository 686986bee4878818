"""End-to-end CLI behavior: flags, files, exit codes, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

import palmnmf.cli as cli
from palmnmf import NumericError, SyntheticSpec, load_matrix, save_matrix
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
    ],
    ids=[
        "variants-ints", "variants-str-weight", "spec-no-d", "spec-str-d", "spec-list", "spec-str-k",
        "variants-misspelt-key", "spec-misspelt-key",
    ],
)
def test_malformed_bench_input_exits_2(case, named, tmp_path, cli_env):
    args = ["bench", "--repeats", "1", "--max-iter", "5", "--out", str(tmp_path / "o")]
    if "variants" in case:
        args += ["--d", "4", "--k", "2", "--n", "6", "--variants", case["variants"]]
    else:
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(case["spec"]))
        args += ["--spec", str(spec)]
    assert named in usage_error(args, cli_env)


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
