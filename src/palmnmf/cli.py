"""Command-line interface.

Subcommands:
  factorize  -- run the solver on a CSV matrix, write W/H/trace/manifest
  synth      -- generate a synthetic benchmark instance
  score      -- score learned factors against ground truth
  bench      -- run the multi-seed regularization-variant comparison

Exit codes: 0 success, 1 runtime/numeric failure, 2 usage or validation
error. stdout carries only the documented JSON summaries; everything
else goes to stderr.
"""

import argparse
import json
import sys
from pathlib import Path

from .benchmark import (
    SyntheticSpec,
    default_sigma,
    default_variants,
    gen_smooth_rows,
    gen_sparse_matrix,
    generate,
    run_comparison,
    score_recovery,
)
from .errors import NumericError
from .fileio import RunManifest, load_json, load_matrix, save_json, save_matrix
from .objective import ObjectiveParams
from .solver import SolverConfig, solve

_CLIP_FLAG_TO_MODE = {"max-zero": "max_zero", "absolute": "absolute"}


def _add_synth_flags(sub):
    sub.add_argument("--d", type=int, default=100, help="rows of the truth W (default 100)")
    sub.add_argument("--k", type=int, default=5, help="number of components (default 5)")
    sub.add_argument("--n", type=int, default=200, help="columns of the truth H (default 200)")
    sub.add_argument(
        "--sigma",
        type=float,
        default=None,
        help="noise std; default 0.1 x mean entry of the noiseless product",
    )
    sub.add_argument(
        "--w-density",
        type=float,
        default=1.0,
        help="fraction of nonzero entries in the truth W (default 1.0)",
    )
    sub.add_argument(
        "--clip",
        choices=sorted(_CLIP_FLAG_TO_MODE),
        default="max-zero",
        help="how negatives after noise are made nonnegative (default max-zero)",
    )
    sub.add_argument("--seed", type=int, default=0, help="data seed (default 0)")


def _spec_from_flags(args):
    sigma = args.sigma
    if sigma is None:
        w_r = gen_sparse_matrix(args.d, args.k, args.w_density, args.seed)
        h_r = gen_smooth_rows(args.k, args.n, args.seed + 1)
        sigma = default_sigma(w_r, h_r)
    return SyntheticSpec(
        d=args.d,
        k=args.k,
        n=args.n,
        sigma=sigma,
        w_density=args.w_density,
        clip_mode=_CLIP_FLAG_TO_MODE[args.clip],
        seed=args.seed,
    )


def cmd_factorize(args):
    v = load_matrix(args.input)
    params = ObjectiveParams(lam=args.lam, eta=args.eta, beta_w=args.beta_w, beta_h=args.beta_h)
    config = SolverConfig(
        k=args.k,
        gamma1=args.gamma1,
        gamma2=args.gamma2,
        max_iter=args.max_iter,
        tol=args.tol,
        seed=args.seed,
    )
    result = solve(v, params, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_matrix(result.w, out / "W.csv")
    save_matrix(result.h, out / "H.csv")
    save_matrix(list(enumerate(result.objective_trace)), out / "trace.csv")
    manifest = RunManifest(
        input=args.input,
        params=params,
        config=config,
        out_dir=args.out,
        files=("W.csv", "H.csv", "trace.csv", "manifest.json"),
    )
    save_json(manifest.to_dict(), out / "manifest.json")
    print(
        json.dumps(
            {
                "objective": result.objective_trace[-1],
                "converged": result.converged,
                "iterations": result.iterations,
            }
        )
    )
    return 0


def cmd_synth(args):
    spec = _spec_from_flags(args)
    v, w_r, h_r = generate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_matrix(v, out / "V.csv")
    save_matrix(w_r, out / "W_true.csv")
    save_matrix(h_r, out / "H_true.csv")
    save_json(spec.to_dict(), out / "spec.json")
    print(json.dumps({"files": ["V.csv", "W_true.csv", "H_true.csv", "spec.json"], "sigma": spec.sigma}))
    return 0


def cmd_score(args):
    score = score_recovery(
        load_matrix(args.w),
        load_matrix(args.h),
        load_matrix(args.w_true),
        load_matrix(args.h_true),
    )
    print(
        json.dumps(
            {
                "dist_w": score.dist_w,
                "dist_h": score.dist_h,
                "permutation": list(score.permutation),
            }
        )
    )
    return 0


def _load_variants(value):
    if value is None:
        return default_variants()
    text = value if value.lstrip().startswith("[") else Path(value).read_text()
    items = json.loads(text)
    if not isinstance(items, list) or not items or not all(isinstance(i, dict) for i in items):
        raise ValueError("--variants must be a non-empty JSON list of parameter objects")
    return [ObjectiveParams.from_dict(item) for item in items]


def cmd_bench(args):
    if args.spec:
        spec = SyntheticSpec.from_dict(load_json(args.spec))
    else:
        spec = _spec_from_flags(args)
    variants = _load_variants(args.variants)
    config = SolverConfig(
        k=spec.k,
        max_iter=args.max_iter,
        tol=args.tol,
        seed=args.init_seed,
    )
    results = run_comparison(spec, variants, config, args.repeats)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_lines = ["variant,seed,dist_w,dist_h"]
    for vr in results:
        for run in vr.runs:
            if run.error is None:
                csv_lines.append("%s,%d,%.17g,%.17g" % (vr.label, run.seed, run.dist_w, run.dist_h))
            else:
                csv_lines.append("%s,%d,failed,failed" % (vr.label, run.seed))
    (out / "comparison.csv").write_text("\n".join(csv_lines) + "\n")

    table = {
        "spec": spec.to_dict(),
        "config": config.to_dict(),
        "repeats": args.repeats,
        "variants": [
            {
                "label": vr.label,
                "params": vr.params.to_dict(),
                "runs": [
                    {
                        "seed": run.seed,
                        "dist_w": None if run.error is not None else run.dist_w,
                        "dist_h": None if run.error is not None else run.dist_h,
                        "converged": run.converged,
                        "error": run.error,
                    }
                    for run in vr.runs
                ],
                "stats": vr.stats(),
            }
            for vr in results
        ],
    }
    save_json(table, out / "comparison.json")

    summary = []
    for vr in results:
        stats = vr.stats()
        summary.append(
            {
                "variant": vr.label,
                "median_dist_w": stats["dist_w"]["median"],
                "median_dist_h": stats["dist_h"]["median"],
                "median_score": stats["score"]["median"],
                "failed": sum(1 for run in vr.runs if run.error is not None),
            }
        )
    print(json.dumps(summary))

    if all(run.error is not None for vr in results for run in vr.runs):
        print("all runs failed", file=sys.stderr)
        return 1
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="palmnmf",
        description="Non-negative matrix factorization with sparsity and smoothness penalties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factorize", help="factorize a CSV matrix")
    p.add_argument("--input", required=True, help="input matrix CSV")
    p.add_argument("--k", type=int, required=True, help="number of components")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0, help="l1 weight on W (default 0)")
    p.add_argument("--eta", type=float, default=0.0, help="smoothness weight on H (default 0)")
    p.add_argument("--beta-w", type=float, default=0.1, help="ridge weight on W (default 0.1)")
    p.add_argument("--beta-h", type=float, default=0.1, help="ridge weight on H (default 0.1)")
    p.add_argument("--gamma1", type=float, default=1.1, help="W step safety factor (default 1.1)")
    p.add_argument("--gamma2", type=float, default=1.1, help="H step safety factor (default 1.1)")
    p.add_argument("--max-iter", type=int, default=5000, help="iteration cap (default 5000)")
    p.add_argument("--tol", type=float, default=1e-6, help="relative step tolerance (default 1e-6)")
    p.add_argument("--seed", type=int, default=0, help="initialization seed (default 0)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("synth", help="generate a synthetic instance")
    _add_synth_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("score", help="score factors against ground truth")
    p.add_argument("--w", required=True, help="learned W CSV")
    p.add_argument("--h", required=True, help="learned H CSV")
    p.add_argument("--w-true", required=True, help="ground-truth W CSV")
    p.add_argument("--h-true", required=True, help="ground-truth H CSV")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("bench", help="compare regularization variants")
    p.add_argument("--spec", default=None, help="spec.json path (overrides the synth flags)")
    _add_synth_flags(p)
    p.add_argument("--repeats", type=int, default=15, help="runs per variant (default 15)")
    p.add_argument(
        "--variants",
        default=None,
        help="JSON list of parameter objects, inline or a file path "
        "(default: plain, sparse, smooth, sparse+smooth)",
    )
    p.add_argument("--max-iter", type=int, default=5000, help="iteration cap (default 5000)")
    p.add_argument("--tol", type=float, default=1e-6, help="relative step tolerance (default 1e-6)")
    p.add_argument(
        "--init-seed",
        type=int,
        default=1000,
        help="first initialization seed; run r uses init-seed + r (default 1000)",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, FileExistsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
