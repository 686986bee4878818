"""Command-line interface.

Subcommands:
  factorize  -- run the solver on a CSV matrix: W, H, trace and manifest
  synth      -- generate a synthetic benchmark instance
  score      -- score learned factors against ground truth
  bench      -- run the multi-seed regularization-variant comparison

A flag that sets a field of ObjectiveParams, SolverConfig or SyntheticSpec
is that field's JSON key with "-" for "_" (``--beta-w`` sets ``beta_w``),
and only ``--clip`` spells its values differently (``max-zero``). Such a
flag is unset unless given: the record is built by the same ``from_dict``
that reads ``--spec`` and ``--variants``, so it supplies the default; in
``bench`` a synth flag given overrides its ``--spec`` key. Each such flag
but ``--clip`` is made from its field: type, help and default, or the
CLI's own default where it has one (``--d``, ``--k``, ``--n``, ``--sigma``).

Each ``cmd_*`` only computes: it returns its files (name -> array, rows,
dict or text) and its JSON summary, and ``bench`` whether every run
failed. ``main`` alone checks ``--out``, writes the files once the
command has returned, prints the summary and maps an error to its code.

Exit codes: 0 success, 1 runtime, numeric or out-of-memory failure, 2
usage or validation error (``_USAGE_ERRORS``); an error is printed as
one ``error:`` line. stdout carries only the documented JSON summaries;
everything else goes to stderr.
"""

import argparse
import errno
import json
import os
import sys
from dataclasses import MISSING, asdict, fields, replace
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


def _record(cls, args, base=(), **fixed):
    """Build record *cls* from *base*, then the flags given for its JSON
    keys, then *fixed*; a key set by none takes the record's default."""
    given = {key: getattr(args, key) for key in cls.keys() if getattr(args, key, None) is not None}
    return cls.from_dict({**dict(base), **given, **fixed})


def _add_record_flags(sub, cls, *names, defaults=None):
    """Add a flag for each named field of record *cls* (all, if none is
    named): "--" and its JSON key with "-" for "_", of the field's type,
    with its help and its default in *defaults*, else the field's; a field
    with neither is required."""
    by_name = {f.name: (key, f) for key, f in zip(cls.keys(), fields(cls))}
    for name in names or by_name:
        key, f = by_name[name]
        default = (defaults or {}).get(name, f.default)
        shown = "" if default is MISSING else f" (default {default})"
        flag = "--" + key.replace("_", "-")
        sub.add_argument(flag, type=f.type, required=not shown, help=f.metadata["help"] + shown)


_SIZES = {"d": 100, "k": 5, "n": 200}


def _add_synth_flags(sub):
    sigma = "0.1 x mean entry of the noiseless product"
    _add_record_flags(sub, SyntheticSpec, "d", "k", "n", "sigma", "w_density", defaults={**_SIZES, "sigma": sigma})
    clip = SyntheticSpec.__dataclass_fields__["clip_mode"]
    sub.add_argument(
        "--clip",
        choices=sorted(mode.replace("_", "-") for mode in CLIP_MODES),
        help=f"{clip.metadata['help']} (default {clip.default.replace('_', '-')})",
    )
    _add_record_flags(sub, SyntheticSpec, "seed")


def _spec_from_flags(args, path=None):
    """The spec of the --spec file at *path*, if any, then the synth flags
    given, checked before anything is drawn. Without a file, d, k and n
    default to _SIZES, and an unset --sigma to the truth's noise level."""
    fixed = {} if args.clip is None else {"clip_mode": args.clip.replace("-", "_")}
    if path is not None:
        return _record(SyntheticSpec, args, SyntheticSpec.from_dict(load_json(path)).to_dict(), **fixed)
    spec = _record(SyntheticSpec, args, {**_SIZES, "sigma": 0.0}, **fixed)  # 0.0 stands in until the truth is drawn
    if args.sigma is None:
        spec = replace(spec, sigma=default_sigma(*ground_truth(spec)))
    return spec


def _out_dir(path):
    """Output directory *path*, refused before any work if it cannot be
    one: empty (rather than read as "."), an existing file or dangling
    symbolic link, or under one, with makedirs's error. Nothing is made
    here; ``main`` makes the directory once the command has succeeded,
    so a failed run leaves none."""
    if not path:
        raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    out = Path(path)
    found = next(p for p in (out, *out.parents) if os.path.lexists(p))
    if not found.is_dir():
        code = errno.EEXIST if found == out else errno.ENOTDIR
        raise OSError(code, os.strerror(code), path)
    return out


def cmd_factorize(args):
    params = _record(ObjectiveParams, args)
    config = _record(SolverConfig, args)
    result = solve(load_matrix(args.input), params, config)
    manifest = {"input": args.input, "params": params.to_dict(), "config": config.to_dict(), "out_dir": args.out}
    files = {
        "W.csv": result.w,
        "H.csv": result.h,
        "trace.csv": list(enumerate(result.objective_trace)),
        "manifest.json": manifest,
    }
    manifest["files"] = [*files]
    summary = {"objective": result.objective_trace[-1], "converged": result.converged, "iterations": result.iterations}
    return files, summary


def cmd_synth(args):
    spec = _spec_from_flags(args)
    files = dict(zip(("V.csv", "W_true.csv", "H_true.csv", "spec.json"), (*generate(spec), spec.to_dict())))
    return files, {"files": [*files], "sigma": spec.sigma}


def cmd_score(args):
    score = score_recovery(
        load_matrix(args.w),
        load_matrix(args.h),
        load_matrix(args.w_true),
        load_matrix(args.h_true),
    )
    return {}, asdict(score)


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
    spec = _spec_from_flags(args, args.spec)
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
        runs = [asdict(run) for run in vr.runs]
        for run in runs:
            if run["error"] is not None:  # even an empty message marks a failed run
                run["dist_w"] = run["dist_h"] = None
            dists = ["failed" if run[key] is None else "%.17g" % run[key] for key in ("dist_w", "dist_h")]
            csv_lines.append(",".join([vr.label, str(run["seed"]), *dists]))
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

    table = {"spec": spec.to_dict(), "config": config.to_dict(), "repeats": args.repeats, "variants": table_variants}
    files = {"comparison.csv": "\n".join(csv_lines) + "\n", "comparison.json": table}
    return files, summary, all(run.error is not None for vr in results for run in vr.runs)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="palmnmf",
        description="Non-negative matrix factorization with sparsity and smoothness penalties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factorize", help="factorize a CSV matrix")
    p.add_argument("--input", required=True, help="input matrix CSV")
    _add_record_flags(p, SolverConfig)
    _add_record_flags(p, ObjectiveParams)
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
    p.add_argument("--spec", default=None, help="spec.json path; each synth flag given overrides its key")
    _add_synth_flags(p)
    p.add_argument("--repeats", type=int, default=15, help="runs per variant (default %(default)s)")
    p.add_argument(
        "--variants",
        default=None,
        help="JSON list of parameter objects, inline or a file path "
        "(default: plain, sparse, smooth, sparse+smooth)",
    )
    _add_record_flags(p, SolverConfig, "max_iter", "tol")
    p.add_argument(
        "--init-seed",
        type=int,
        default=1000,
        help="first initialization seed; run r uses init-seed + r (default %(default)s)",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_bench)

    return parser


# Usage errors, which exit 2; every other error that main catches exits 1.
_USAGE_ERRORS = (ValueError, FileNotFoundError, IsADirectoryError, NotADirectoryError, FileExistsError)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        out = _out_dir(args.out) if hasattr(args, "out") else None
        files, summary, *all_failed = args.func(args)  # bench adds whether every run failed
        if files:
            out.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            save = save_json if isinstance(content, dict) else save_text if isinstance(content, str) else save_matrix
            save(content, out / name)
        print(json.dumps(summary))
        if any(all_failed):
            print("all runs failed", file=sys.stderr)
            return 1
        return 0
    except (NumericError, OSError, ValueError, MemoryError) as exc:
        bare_memory = isinstance(exc, MemoryError) and not str(exc)  # a failed allocation outside numpy
        print(f"error: {'out of memory' if bare_memory else exc}", file=sys.stderr)
        return 2 if isinstance(exc, _USAGE_ERRORS) else 1


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
