"""Command-line interface.

Exit codes: 0 success, 2 configuration/validation error (a command-line
parse error too), 3 infeasible problem size, 4 detection failure
(misdetection or single-component distance series), 5 no useful remapping
found.

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
from .dbio import load_json_object, model_spec_from_dict, read_matrix, write_matrix
from .experiment import (
    ExperimentConfig,
    InfeasibleSizeError,
    check_config_keys,
    check_feasible,
    check_memory,
    render,
    run_experiment,
)
from .infotheory import capacity
from .model import as_permutation, instance_bytes, sample_instance

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
    # A model spec or a whole experiment config; any other key is a typo.
    raw = load_json_object(args.config)
    check_config_keys(raw)
    spec = model_spec_from_dict(raw)
    check_feasible(spec)  # an oversized table is an infeasible size, as for `experiment`
    report = capacity(spec)
    _write_text(args.out, json.dumps(report.to_dict(), indent=2) + "\n")
    return EXIT_OK


def _cmd_gen(args) -> int:
    config = ExperimentConfig.from_dict(load_json_object(args.config))
    # The experiment's memory guard, for the instance alone; checked before
    # the output directory is made.
    check_memory(
        f"instance m={config.m} n={config.n} lambda={config.num_seeds}",
        instance_bytes(config.m, config.n, config.num_seeds, config.spec.s_max),
        config.memory_cap_bytes,
    )
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


def _seed_stages(args):
    """Read the seeds and run every stage before matching on them once. The
    seeds share the database's pattern, so g2 stands in for d2."""
    g1, g2 = read_matrix(args.g1), read_matrix(args.g2)
    alphabet_size = _alphabet_size(args, g1, g2)
    return g1, g2, alphabet_size, matching.estimate_stages(g2, g1, g2, alphabet_size)


def _detection_exit(result) -> int:
    # What detection found is not a configuration error: a recorded failure
    # exits 4, or 5 for no useful remapping.
    print(f"detection failed ({result.failed_stage}): {result.error}", file=sys.stderr)
    no_remapping = isinstance(result.error, deletions.NoUsefulRemappingError)
    return EXIT_NO_REMAPPING if no_remapping else EXIT_DETECTION


def _cmd_detect_deletions(args) -> int:
    g1, g2, alphabet_size, result = _seed_stages(args)
    if args.dump_l is not None and result.failed_stage != "replica":
        # Distances to the replica-free seed columns, written even when
        # deletion detection then fails.
        g2 = g2[:, replicas.column_runs(result.is_replica, g2.shape[1])[0]]
        phi = np.arange(1, alphabet_size + 1, dtype=np.uint8)  # the identity remapping
        l = deletions.cross_hamming(g1, g2, phi, deletions.cooccurrence(g1, g2, alphabet_size)[0])
        rows = [",".join(str(v) for v in row) for row in l]
        _write_text(args.dump_l, "\n".join(rows) + "\n")
    if result.retention is None:
        return _detection_exit(result)
    out = {
        "retained": result.retention.retained.tolist(),
        "deleted": result.retention.deleted.tolist(),
        "n": result.retention.n,
    }
    _write_text(args.out, json.dumps(out, indent=2) + "\n")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    result = _seed_stages(args)[-1]
    if not result.ok:
        return _detection_exit(result)
    _write_text(args.out, json.dumps(result.estimate.to_dict(), indent=2) + "\n")
    return EXIT_OK


def _cmd_match(args) -> int:
    d1 = read_matrix(args.d1)
    d2 = read_matrix(args.d2)
    g1 = read_matrix(args.g1)
    g2 = read_matrix(args.g2)
    alphabet_size = _alphabet_size(args, d1, d2, g1, g2)
    result = matching.deanonymize(
        d1, d2, g1, g2, alphabet_size=alphabet_size, epsilon=args.epsilon
    )
    out = {
        "config": {
            "d1": args.d1,
            "d2": args.d2,
            "g1": args.g1,
            "g2": args.g2,
            "alphabet_size": alphabet_size,
            "epsilon": args.epsilon,
        },
        "stages": result.stage_flags(),
        "failed_stage": result.failed_stage,
        "failure": result.failure,
    }
    if result.match is not None:
        out["status_counts"] = result.match.status_counts()
        out["sigma_hat"] = result.match.sigma_hat().tolist()
    if args.truth is not None:
        truth = load_json_object(args.truth)
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
    config = ExperimentConfig.from_dict(load_json_object(args.config))
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
    p.add_argument("--dump-l", default=None, help="write the identity-remapping distance matrix as CSV")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_detect_deletions)

    p = sub.add_parser("estimate", help="plug-in distribution estimate from seeds")
    p.add_argument("--g1", required=True)
    p.add_argument("--g2", required=True)
    p.add_argument("--alphabet-size", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("match", help="full de-anonymization pipeline")
    p.add_argument("--d1", required=True)
    p.add_argument("--d2", required=True)
    p.add_argument("--g1", required=True)
    p.add_argument("--g2", required=True)
    p.add_argument("--alphabet-size", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=matching.DEFAULT_EPSILON)
    p.add_argument("--truth", default=None, help="truth.json for error-rate scoring")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits after --help (0) and on a parse error (2)
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        return args.func(args)
    except replicas.SingleComponentError as exc:  # detect-replicas; the seed stages record theirs
        print(f"detection failed: {exc}", file=sys.stderr)
        return EXIT_DETECTION
    except InfeasibleSizeError as exc:
        print(f"infeasible size: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
