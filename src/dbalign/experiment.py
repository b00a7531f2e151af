"""Monte Carlo experiment runner with deterministic seeding.

Each trial draws a fresh instance from its own substream, runs the full
pipeline, and scores every stage against the hidden ground truth. Trials
are independent, so worker threads never change the numbers, and the
emitted CSV is byte-identical for a fixed master seed.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from . import estimation, matching
from .dbio import model_spec_from_dict, model_spec_to_dict
from .infotheory import TABLE_LIMIT, capacity
from .model import ModelSpec, sample_instance, substream

CSV_COLUMNS = (
    "trial",
    "n",
    "m",
    "lambda",
    "R",
    "capacity",
    "replica_ok",
    "deletion_ok",
    "est_tv",
    "row_error_rate",
    "seed",
)

DEFAULT_MEMORY_CAP = 2 * 1024 ** 3

# Report keys that differ from the dataclass field names.
KEY_NAMES = {"num_seeds": "lambda", "growth_rate": "R"}


class InfeasibleSizeError(RuntimeError):
    """Estimated working-set size exceeds the configured memory cap."""


@dataclass
class ExperimentConfig:
    """Everything one experiment needs, sweepable over m or n."""

    spec: ModelSpec
    m: int
    n: int
    num_seeds: int
    trials: int = 10
    master_seed: int = 0
    epsilon: float = 0.05
    threshold_constant: float = 2.0
    sweep_axis: str | None = None
    sweep_values: list = field(default_factory=list)
    workers: int = 1
    memory_cap_bytes: int = DEFAULT_MEMORY_CAP

    def __post_init__(self):
        if self.m < 1 or self.n < 1 or self.num_seeds < 1:
            raise ValueError("m, n, and lambda must be positive")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.workers < 1:
            raise ValueError("worker count must be positive")
        if self.sweep_axis not in (None, "m", "n"):
            raise ValueError("sweep axis must be 'm' or 'n'")
        if self.sweep_axis is None and self.sweep_values:
            raise ValueError("sweep values given without a sweep axis")
        if any(int(v) < 1 for v in self.sweep_values):
            raise ValueError("sweep values must be positive")

    def points(self) -> list[tuple[int, int]]:
        """(m, n) per experiment point; empty sweep gives no points."""
        if self.sweep_axis is None:
            return [(self.m, self.n)]
        if self.sweep_axis == "m":
            return [(int(v), self.n) for v in self.sweep_values]
        return [(self.m, int(v)) for v in self.sweep_values]

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        spec = model_spec_from_dict(d)
        try:
            return cls(
                spec=spec,
                m=int(d["m"]),
                n=int(d["n"]),
                num_seeds=int(d["lambda"]),
                trials=int(d.get("trials", 10)),
                master_seed=int(d.get("master_seed", 0)),
                epsilon=float(d.get("epsilon", 0.05)),
                threshold_constant=float(d.get("threshold_constant", 2.0)),
                sweep_axis=d.get("sweep_axis"),
                sweep_values=list(d.get("sweep_values", [])),
                workers=int(d.get("workers", 1)),
                memory_cap_bytes=int(d.get("memory_cap_bytes", DEFAULT_MEMORY_CAP)),
            )
        except KeyError as exc:
            raise ValueError(f"experiment config is missing key {exc}") from exc

    def to_dict(self) -> dict:
        out = model_spec_to_dict(self.spec)
        out.update(
            m=self.m,
            n=self.n,
            trials=self.trials,
            master_seed=self.master_seed,
            epsilon=self.epsilon,
            threshold_constant=self.threshold_constant,
            sweep_axis=self.sweep_axis,
            sweep_values=list(self.sweep_values),
            workers=self.workers,
            memory_cap_bytes=self.memory_cap_bytes,
        )
        out["lambda"] = self.num_seeds
        return out

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _plain(value):
    if is_dataclass(value):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


class _Record:
    """Dict form of a report dataclass: its fields in order, keys renamed
    by KEY_NAMES, tuples as lists and nested records as dicts."""

    def to_dict(self) -> dict:
        return {
            KEY_NAMES.get(f.name, f.name): _plain(getattr(self, f.name)) for f in fields(self)
        }

    @classmethod
    def from_dict(cls, d: dict, **parsed):
        """Inverse of ``to_dict`` for flat fields; ``parsed`` supplies the
        rest. Keys missing from ``d`` take the field default."""
        keys = {f.name: KEY_NAMES.get(f.name, f.name) for f in fields(cls)}
        present = {name: d[key] for name, key in keys.items() if key in d}
        return cls(**{**present, **parsed})


@dataclass
class TrialRecord(_Record):
    trial: int
    n: int
    m: int
    num_seeds: int
    growth_rate: float
    capacity: float
    replica_ok: bool
    deletion_ok: bool
    est_tv: float
    row_error_rate: float
    seed: int
    failed_stage: str | None = None


@dataclass
class PointSummary(_Record):
    m: int
    n: int
    growth_rate: float
    capacity: float
    replica_rate: float
    replica_ci: tuple
    deletion_rate: float
    deletion_ci: tuple
    mean_est_tv: float
    mean_row_error_rate: float
    trials: list  # last: the field order is the JSON report's key order


@dataclass
class ExperimentReport(_Record):
    config: dict
    points: list


def wilson_interval(successes: int, total: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson 95% score interval; behaves sensibly at small counts."""
    if total == 0:
        return (0.0, 1.0)
    phat = successes / total
    denom = 1.0 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _true_adjacency(pattern) -> np.ndarray:
    cols = np.repeat(np.arange(pattern.n), pattern.s)
    return cols[1:] == cols[:-1]


def estimate_tv_distance(spec: ModelSpec, est: estimation.DistributionEstimate) -> float:
    """Total variation between true and estimated joints over (s, x, y^s)."""
    truth = estimation.from_model_spec(spec)
    s_max = max(truth.s_max, est.s_max)
    total = 0.0
    for s in range(s_max + 1):
        t = truth.tables.get(s)
        e = est.tables.get(s)
        pt = float(truth.p_s[s]) if s <= truth.s_max else 0.0
        pe = float(est.p_s[s]) if s <= est.s_max else 0.0
        if t is None:
            total += pe * float(np.abs(e).sum())
        elif e is None:
            total += pt * float(np.abs(t).sum())
        else:
            total += float(np.abs(pt * t - pe * e).sum())
    return 0.5 * total


def _estimated_bytes(m: int, n: int, num_seeds: int, s_max: int) -> int:
    """Working set of one trial, dominated by the matcher's m x m arrays."""
    k_max = n * max(s_max, 1)
    match_working = 10 * m * m  # float64 score matrix plus two bool masks
    instance = 2 * m * (n + k_max) + 4 * num_seeds * (n + k_max)
    cross = 8 * n * n
    return int(1.5 * (match_working + instance + cross))


def run_trial(
    spec: ModelSpec,
    m: int,
    n: int,
    num_seeds: int,
    epsilon: float,
    threshold_constant: float,
    master_seed: int,
    point: int,
    trial: int,
) -> TrialRecord:
    """One seeded end-to-end trial scored against ground truth."""
    pair, seeds = sample_instance(m, n, num_seeds, spec, master_seed, point, trial)
    result = matching.deanonymize(
        pair.d1,
        pair.d2,
        seeds.g1,
        seeds.g2,
        alphabet_size=spec.alphabet_size,
        s_max=spec.s_max,
        epsilon=epsilon,
        threshold_constant=threshold_constant,
    )

    true_adj = _true_adjacency(pair.pattern)
    replica_ok = (
        result.is_replica is not None
        and np.array_equal(result.is_replica, true_adj)
        and np.array_equal(result.is_replica_seeds, true_adj)
    )
    deletion_ok = result.retention is not None and np.array_equal(
        result.retention.retained, pair.pattern.retained_indices()
    )
    est_tv = (
        estimate_tv_distance(spec, result.estimate)
        if result.estimate is not None
        else math.nan
    )
    row_error = (
        result.match.row_error_rate(pair.sigma) if result.match is not None else 1.0
    )
    fingerprint = int(
        np.random.SeedSequence(master_seed, spawn_key=(point, trial)).generate_state(1)[0]
    )
    cap = capacity(spec).capacity
    return TrialRecord(
        trial=trial,
        n=n,
        m=m,
        num_seeds=num_seeds,
        growth_rate=math.log2(m) / n,
        capacity=cap,
        replica_ok=bool(replica_ok),
        deletion_ok=bool(deletion_ok),
        est_tv=est_tv,
        row_error_rate=row_error,
        seed=fingerprint,
        failed_stage=result.failed_stage,
    )


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """All sweep points and trials; deterministic for a fixed master seed."""
    points = config.points()
    concurrent = min(config.workers, config.trials)  # each thread holds its own trial
    for m, n in points:
        need = concurrent * _estimated_bytes(m, n, config.num_seeds, config.spec.s_max)
        if need > config.memory_cap_bytes:
            raise InfeasibleSizeError(
                f"point m={m} n={n} needs ~{need} bytes for {concurrent} concurrent "
                f"trial(s), cap is {config.memory_cap_bytes}"
            )
        if config.spec.alphabet_size ** (config.spec.s_max + 1) > TABLE_LIMIT:
            raise InfeasibleSizeError("joint table enumeration is infeasible")

    summaries = []
    for point_idx, (m, n) in enumerate(points):
        args = [
            (
                config.spec,
                m,
                n,
                config.num_seeds,
                config.epsilon,
                config.threshold_constant,
                config.master_seed,
                point_idx,
                trial,
            )
            for trial in range(config.trials)
        ]
        if config.workers > 1:
            with ThreadPoolExecutor(max_workers=config.workers) as pool:
                records = list(pool.map(lambda a: run_trial(*a), args))
        else:
            records = [run_trial(*a) for a in args]

        replica_hits = sum(r.replica_ok for r in records)
        deletion_hits = sum(r.deletion_ok for r in records)
        tvs = [r.est_tv for r in records if not math.isnan(r.est_tv)]
        summaries.append(
            PointSummary(
                m=m,
                n=n,
                growth_rate=records[0].growth_rate,
                capacity=records[0].capacity,
                trials=records,
                replica_rate=replica_hits / len(records),
                replica_ci=wilson_interval(replica_hits, len(records)),
                deletion_rate=deletion_hits / len(records),
                deletion_ci=wilson_interval(deletion_hits, len(records)),
                mean_est_tv=float(np.mean(tvs)) if tvs else math.nan,
                mean_row_error_rate=float(
                    np.mean([r.row_error_rate for r in records])
                ),
            )
        )
    return ExperimentReport(config=config.to_dict(), points=summaries)


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit(report: ExperimentReport, fmt: str, path) -> None:
    """Write the report as CSV (per-trial rows) or JSON (full schema)."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown report format {fmt!r}")
    try:
        with open(path, "w", encoding="utf-8") as fh:
            if fmt == "json":
                json.dump(report.to_dict(), fh, indent=2)
                fh.write("\n")
                return
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for point in report.points:
                for r in point.trials:
                    row = r.to_dict()
                    fh.write(",".join(_csv_cell(row[c]) for c in CSV_COLUMNS) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def report_from_dict(d: dict) -> ExperimentReport:
    points = [
        PointSummary.from_dict(
            p,
            replica_ci=tuple(p["replica_ci"]),
            deletion_ci=tuple(p["deletion_ci"]),
            trials=[TrialRecord.from_dict(t) for t in p["trials"]],
        )
        for p in d["points"]
    ]
    return ExperimentReport(config=d["config"], points=points)
