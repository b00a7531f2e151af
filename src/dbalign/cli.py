"""Command-line interface.

Exit codes: 0 success, 2 configuration/validation error, 3 infeasible
problem size, 4 detection failure (misdetection or single-component
distance series), 5 no useful remapping found.

The DBALIGN_OUT_DIR environment variable, when set, re-roots relative
output paths.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import deletions, matching, replicas
from .dbio import load_json_object, load_model_spec, read_matrix, write_matrix
from .experiment import CONFIG_KEYS, ExperimentConfig, InfeasibleSizeError, render, run_experiment
from .infotheory import capacity
from .model import as_permutation, sample_instance

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_DETECTION = 4
EXIT_NO_REMAPPING = 5


def _out_path(path):
    base = os.environ.get("DBALIGN_OUT_DIR")
    if path is None or base is None or os.path.isabs(path):
        return path
    return os.path.join(base, path)


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
        return
    with open(_out_path(path), "w", encoding="utf-8") as fh:
        fh.write(text)


def _alphabet_size(args, *mats):
    k = args.alphabet_size  # inferred only when not given: 0 is bad input, not "unset"
    return deletions.infer_alphabet_size(*mats) if k is None else k


def _cmd_capacity(args) -> int:
    spec = load_model_spec(args.config)
    report = capacity(spec)
    _write_text(args.out, json.dumps(report.to_dict(), indent=2) + "\n")
    return EXIT_OK


def _cmd_gen(args) -> int:
    config = ExperimentConfig.from_json_file(args.config)
    out_dir = _out_path(args.out)
    os.makedirs(out_dir, exist_ok=True)
    pair, seeds = sample_instance(
        config.m, config.n, config.num_seeds, config.spec, config.master_seed
    )
    write_matrix(os.path.join(out_dir, "d1.dbm"), pair.d1)
    write_matrix(os.path.join(out_dir, "d2.dbm"), pair.d2)
    write_matrix(os.path.join(out_dir, "g1.dbm"), seeds.g1)
    write_matrix(os.path.join(out_dir, "g2.dbm"), seeds.g2)
    truth = {
        "sigma": pair.sigma.tolist(),
        "pattern": pair.pattern.s.tolist(),
        "master_seed": config.master_seed,
        "m": config.m,
        "n": config.n,
        "lambda": config.num_seeds,
    }
    with open(os.path.join(out_dir, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump(truth, fh, indent=2)
        fh.write("\n")
    print(f"wrote d1/d2/g1/g2 and truth.json to {out_dir}")
    return EXIT_OK


def _cmd_detect_replicas(args) -> int:
    d2 = read_matrix(args.d2)
    h = replicas.running_hamming(d2)
    decisions = replicas.detect_replicas(d2)
    lines = ["j,hamming,is_replica"]
    lines += [f"{j},{h[j]},{int(decisions[j])}" for j in range(h.size)]
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_detect_deletions(args) -> int:
    g1 = read_matrix(args.g1)
    g2 = read_matrix(args.g2)
    if args.dedup:
        g2 = g2[:, replicas.column_runs(replicas.detect_replicas(g2), g2.shape[1])[0]]
    alphabet_size = _alphabet_size(args, g1, g2)
    counts = None
    if args.dump_l is not None:
        deletions.check_symbols(alphabet_size, g1, g2)
        deletions.check_remap_alphabet(alphabet_size)
        phi = np.arange(1, alphabet_size + 1, dtype=np.uint8)  # the identity remapping
        counts = deletions.cooccurrence(g1, g2, alphabet_size)
        cross = deletions.cross_hamming(g1, g2, phi, counts, args.threshold_constant)
        rows = [",".join(str(v) for v in row) for row in cross.l]
        _write_text(args.dump_l, "\n".join(rows) + "\n")
    result = deletions.detect_deletions(
        g1, g2, alphabet_size, args.threshold_constant, counts=counts
    )
    out = {
        "retained": result.retained.tolist(),
        "deleted": result.deleted.tolist(),
        "n": result.n,
    }
    _write_text(args.out, json.dumps(out, indent=2) + "\n")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    g1 = read_matrix(args.g1)
    g2 = read_matrix(args.g2)
    # The seeds share the database's pattern, so g2 also fixes the pattern.
    result = matching.estimate_stages(
        g2,
        g1,
        g2,
        _alphabet_size(args, g1, g2),
        args.s_max,
        args.threshold_constant,
    )
    # What detection found is not a configuration error: a recorded failure
    # exits 4, or 5 for no useful remapping as in `detect-deletions`.
    if isinstance(result.error, deletions.NoUsefulRemappingError):
        raise result.error
    if result.error is not None:
        print(f"detection failed ({result.failed_stage}): {result.error}", file=sys.stderr)
        return EXIT_DETECTION
    _write_text(args.out, json.dumps(result.estimate.to_dict(), indent=2) + "\n")
    return EXIT_OK


def _cmd_match(args) -> int:
    d1 = read_matrix(args.d1)
    d2 = read_matrix(args.d2)
    g1 = read_matrix(args.g1)
    g2 = read_matrix(args.g2)
    alphabet_size = _alphabet_size(args, d1, d2, g1, g2)
    result = matching.deanonymize(
        d1,
        d2,
        g1,
        g2,
        alphabet_size=alphabet_size,
        s_max=args.s_max,
        epsilon=args.epsilon,
        threshold_constant=args.threshold_constant,
    )
    out = {
        "config": {
            "d1": args.d1,
            "d2": args.d2,
            "g1": args.g1,
            "g2": args.g2,
            "alphabet_size": alphabet_size,
            "s_max": args.s_max,
            "epsilon": args.epsilon,
            "threshold_constant": args.threshold_constant,
        },
        "stages": result.stage_flags(),
        "failed_stage": result.failed_stage,
        "failure": result.failure,
    }
    if result.match is not None:
        out["status_counts"] = result.match.status_counts()
        out["sigma_hat"] = result.match.sigma_hat().tolist()
    if args.truth is not None:
        with open(args.truth, "r", encoding="utf-8") as fh:
            truth = json.load(fh)
        if "sigma" not in truth:
            raise ValueError(f"{args.truth} has no 'sigma' key")
        sigma = as_permutation(truth["sigma"], d1.shape[0])
        out["master_seed"] = truth.get("master_seed")
        out["row_error_rate"] = (
            result.match.row_error_rate(sigma) if result.match is not None else 1.0
        )
    _write_text(args.out, json.dumps(out, indent=2) + "\n")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    raw = load_json_object(args.config)
    # flags mirror config keys and win over the file
    flags = {key: getattr(args, key) for key in CONFIG_KEYS}
    if args.sweep_values is not None:
        flags["sweep_values"] = [int(v) for v in args.sweep_values.split(",") if v]
    raw.update((key, value) for key, value in flags.items() if value is not None)
    config = ExperimentConfig.from_dict(raw)
    _write_text(args.out, render(run_experiment(config), args.format))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbalign",
        description=(
            "Simulate and run distribution-agnostic row de-anonymization of "
            "correlated databases under column repetitions and noise."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", help="print the matching-capacity report")
    p.add_argument("--config", required=True, help="model spec JSON")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("gen", help="generate an instance and write it to disk")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("detect-replicas", help="adjacent-column replica decisions as CSV")
    p.add_argument("--d2", required=True, help="repeated database matrix file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_detect_replicas)

    p = sub.add_parser("detect-deletions", help="seeded deletion detection")
    p.add_argument("--g1", required=True)
    p.add_argument("--g2", required=True)
    p.add_argument("--alphabet-size", type=int, default=None)
    p.add_argument("--threshold-constant", type=float, default=2.0)
    p.add_argument("--dedup", action="store_true", help="remove replica columns from g2 first")
    p.add_argument("--dump-l", default=None, help="write the identity-remapping distance matrix as CSV")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_detect_deletions)

    p = sub.add_parser("estimate", help="plug-in distribution estimate from seeds")
    p.add_argument("--g1", required=True)
    p.add_argument("--g2", required=True)
    p.add_argument("--alphabet-size", type=int, default=None)
    p.add_argument("--s-max", type=int, required=True)
    p.add_argument("--threshold-constant", type=float, default=2.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("match", help="full de-anonymization pipeline")
    p.add_argument("--d1", required=True)
    p.add_argument("--d2", required=True)
    p.add_argument("--g1", required=True)
    p.add_argument("--g2", required=True)
    p.add_argument("--alphabet-size", type=int, default=None)
    p.add_argument("--s-max", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--threshold-constant", type=float, default=2.0)
    p.add_argument("--truth", default=None, help="truth.json for error-rate scoring")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--lambda", type=int, default=None, dest="lambda")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--master-seed", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--threshold-constant", type=float, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--sweep-axis", choices=("m", "n"), default=None)
    p.add_argument("--sweep-values", default=None, help="comma-separated values")
    p.add_argument("--memory-cap-bytes", type=int, default=None)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (deletions.MisdetectionError, replicas.SingleComponentError) as exc:
        print(f"detection failed: {exc}", file=sys.stderr)
        return EXIT_DETECTION
    except deletions.NoUsefulRemappingError as exc:
        print(f"detection failed: {exc}", file=sys.stderr)
        return EXIT_NO_REMAPPING
    except InfeasibleSizeError as exc:
        print(f"infeasible size: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
