"""Command-line interface.

Subcommands:
  factorize  -- run the solver on a CSV matrix, write W/H/trace/manifest
  synth      -- generate a synthetic benchmark instance
  score      -- score learned factors against ground truth
  bench      -- run the multi-seed regularization-variant comparison

A flag that sets a field of ObjectiveParams, SolverConfig or SyntheticSpec
is that field's JSON key with "-" for "_" (``--beta-w`` sets ``beta_w``),
and only ``--clip`` spells its values differently (``max-zero``). Such a
flag is unset unless given: the record is built by the same ``from_dict``
that reads ``--spec`` and ``--variants``, so it supplies the default.

Exit codes: 0 success, 1 runtime, numeric or out-of-memory failure, 2
usage or validation error. stdout carries only the documented JSON
summaries; everything else goes to stderr.
"""

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .benchmark import (
    CLIP_MODES,
    SyntheticSpec,
    default_sigma,
    default_variants,
    generate,
    ground_truth,
    run_comparison,
    score_recovery,
)
from .errors import NumericError
from .fileio import load_json, load_matrix, parse_json, save_json, save_matrix, save_text
from .objective import ObjectiveParams
from .solver import SolverConfig, solve


def _record(cls, args, **fixed):
    """Build record *cls* from the flags given for its JSON keys, then
    *fixed*; a key set by neither takes the record's default."""
    given = {key: getattr(args, key) for key in cls.keys() if getattr(args, key, None) is not None}
    return cls.from_dict({**given, **fixed})


def _add_synth_flags(sub):
    sub.add_argument("--d", type=int, default=100, help="rows of the truth W (default 100)")
    sub.add_argument("--k", type=int, default=5, help="number of components (default 5)")
    sub.add_argument("--n", type=int, default=200, help="columns of the truth H (default 200)")
    sub.add_argument("--sigma", type=float, help="noise std; default 0.1 x mean entry of the noiseless product")
    sub.add_argument(
        "--w-density",
        type=float,
        help=f"fraction of nonzero entries in the truth W (default {SyntheticSpec.w_density})",
    )
    sub.add_argument(
        "--clip",
        choices=sorted(mode.replace("_", "-") for mode in CLIP_MODES),
        help="how negatives after noise are made nonnegative "
        f"(default {SyntheticSpec.clip_mode.replace('_', '-')})",
    )
    sub.add_argument("--seed", type=int, help=f"data seed (default {SyntheticSpec.seed})")


def _add_stop_flags(sub):
    sub.add_argument("--max-iter", type=int, help=f"iteration cap (default {SolverConfig.max_iter})")
    sub.add_argument("--tol", type=float, help=f"relative step tolerance (default {SolverConfig.tol})")


def _spec_from_flags(args):
    """The spec the synth flags give, checked before anything is drawn.
    Without --sigma, sigma is the default noise level of the spec's truth."""
    fixed = {} if args.clip is None else {"clip_mode": args.clip.replace("-", "_")}
    if args.sigma is None:
        fixed["sigma"] = 0.0  # stands in until the truth is drawn
    spec = _record(SyntheticSpec, args, **fixed)
    if args.sigma is None:
        spec = replace(spec, sigma=default_sigma(*ground_truth(spec)))
    return spec


def cmd_factorize(args):
    v = load_matrix(args.input)
    params = _record(ObjectiveParams, args)
    config = _record(SolverConfig, args)
    result = solve(v, params, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_matrix(result.w, out / "W.csv")
    save_matrix(result.h, out / "H.csv")
    save_matrix(list(enumerate(result.objective_trace)), out / "trace.csv")
    manifest = {
        "input": args.input,
        "params": params.to_dict(),
        "config": config.to_dict(),
        "out_dir": args.out,
        "files": ["W.csv", "H.csv", "trace.csv", "manifest.json"],
    }
    save_json(manifest, out / "manifest.json")
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
    print(json.dumps(asdict(score)))
    return 0


def _load_variants(value):
    if value is None:
        return default_variants()
    if value.lstrip().startswith(("[", "{")):
        items = parse_json(value, "--variants")
    else:
        items = load_json(value)
    if not isinstance(items, list) or not items or not all(isinstance(i, dict) for i in items):
        raise ValueError("--variants must be a non-empty JSON list of parameter objects")
    return [ObjectiveParams.from_dict(item) for item in items]


def cmd_bench(args):
    spec = SyntheticSpec.from_dict(load_json(args.spec)) if args.spec else _spec_from_flags(args)
    variants = _load_variants(args.variants)
    # --seed is the data seed here; the config's seed comes from --init-seed,
    # set on its own so that an error in it names that flag.
    config = _record(SolverConfig, args, k=spec.k, seed=SolverConfig.seed)
    try:
        config = replace(config, seed=args.init_seed)
    except ValueError as exc:
        raise ValueError(f"--init-seed: {exc}") from None
    results = run_comparison(spec, variants, config, args.repeats)

    csv_lines = ["variant,seed,dist_w,dist_h"]
    table_variants = []
    summary = []
    for vr in results:
        runs = []
        for run in vr.runs:
            if run.error is None:
                csv_lines.append("%s,%d,%.17g,%.17g" % (vr.label, run.seed, run.dist_w, run.dist_h))
                dist_w, dist_h = run.dist_w, run.dist_h
            else:
                csv_lines.append("%s,%d,failed,failed" % (vr.label, run.seed))
                dist_w = dist_h = None
            runs.append(
                {"seed": run.seed, "dist_w": dist_w, "dist_h": dist_h, "converged": run.converged, "error": run.error}
            )
        stats = vr.stats()
        table_variants.append({"label": vr.label, "params": vr.params.to_dict(), "runs": runs, "stats": stats})
        summary.append(
            {
                "variant": vr.label,
                "median_dist_w": stats["dist_w"]["median"],
                "median_dist_h": stats["dist_h"]["median"],
                "median_score": stats["score"]["median"],
                "failed": sum(run.error is not None for run in vr.runs),
            }
        )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_text("\n".join(csv_lines) + "\n", out / "comparison.csv")
    table = {"spec": spec.to_dict(), "config": config.to_dict(), "repeats": args.repeats, "variants": table_variants}
    save_json(table, out / "comparison.json")
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
    p.add_argument("--lambda", type=float, help=f"l1 weight on W (default {ObjectiveParams.lam})")
    p.add_argument("--eta", type=float, help=f"smoothness weight on H (default {ObjectiveParams.eta})")
    p.add_argument("--beta-w", type=float, help=f"ridge weight on W (default {ObjectiveParams.beta_w})")
    p.add_argument("--beta-h", type=float, help=f"ridge weight on H (default {ObjectiveParams.beta_h})")
    p.add_argument("--gamma1", type=float, help=f"W step safety factor (default {SolverConfig.gamma1})")
    p.add_argument("--gamma2", type=float, help=f"H step safety factor (default {SolverConfig.gamma2})")
    _add_stop_flags(p)
    p.add_argument("--seed", type=int, help=f"initialization seed (default {SolverConfig.seed})")
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
    _add_stop_flags(p)
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
    except MemoryError as exc:  # a failed allocation outside numpy has no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
