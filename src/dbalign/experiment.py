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
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import numpy as np

from . import deletions, estimation, matching
from .dbio import (
    SPEC_KEYS, as_integer, as_real, load_json_object, model_spec_from_dict, model_spec_to_dict
)
from .infotheory import capacity, check_table_size, repetition_table
from .model import ModelSpec, instance_bytes, sample_instance

DEFAULT_MEMORY_CAP = 2 * 1024 ** 3

# Report keys that differ from the dataclass field names.
KEY_NAMES = {"num_seeds": "lambda", "growth_rate": "R"}


class InfeasibleSizeError(RuntimeError):
    """Estimated working-set size exceeds the configured memory cap."""


def _keyed_fields(record) -> list:
    """(field, report key) of each field of a dataclass, in field order."""
    return [(f, KEY_NAMES.get(f.name, f.name)) for f in fields(record)]


def _key(parse, **kwargs):
    """A config key's field; ``parse(key, value)`` reads its JSON value."""
    return field(metadata={"parse": parse}, **kwargs)


def _as_is(key, value):
    return value  # sweep_axis: __post_init__ checks it, as for a direct call


def _integer_list(key, value) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list, got {value!r}")
    return [as_integer(key, v) for v in value]


@dataclass(kw_only=True)
class ExperimentConfig:
    """Everything one experiment needs, sweepable over m or n.

    Each field after ``spec`` is one config key, named by KEY_NAMES where
    they differ, and the field order is the report's key order after the
    model spec's keys.
    """

    spec: ModelSpec
    m: int = _key(as_integer)
    n: int = _key(as_integer)
    trials: int = _key(as_integer, default=10)
    master_seed: int = _key(as_integer, default=0)
    epsilon: float = _key(as_real, default=0.05)
    sweep_axis: str | None = _key(_as_is, default=None)
    sweep_values: list = _key(_integer_list, default_factory=list)
    workers: int = _key(as_integer, default=1)
    memory_cap_bytes: int = _key(as_integer, default=DEFAULT_MEMORY_CAP)
    num_seeds: int = _key(as_integer)

    def __post_init__(self):
        if self.m < 1 or self.n < 1 or self.num_seeds < 1:
            raise ValueError("m, n, and lambda must be positive")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and positive")
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
        check_config_keys(d)
        spec = model_spec_from_dict(d)
        values = {}
        for f, key in _keyed_fields(cls)[1:]:
            if key in d:
                values[f.name] = f.metadata["parse"](key, d[key])
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"experiment config is missing key {key!r}")
        return cls(spec=spec, **values)

    def to_dict(self) -> dict:
        out = model_spec_to_dict(self.spec)
        out.update((key, _plain(getattr(self, f.name))) for f, key in _keyed_fields(self)[1:])
        return out

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        return cls.from_dict(load_json_object(path))


# (field, key) of each config key after the model spec's, in report order.
CONFIG_FIELDS = _keyed_fields(ExperimentConfig)[1:]
CONFIG_KEYS = tuple(key for _, key in CONFIG_FIELDS)


def check_config_keys(d: dict) -> None:
    """Raise ValueError naming every key of ``d`` that is neither a model-spec
    key nor an experiment config key."""
    unknown = [key for key in d if key not in SPEC_KEYS + CONFIG_KEYS]
    if unknown:
        raise ValueError(f"unknown experiment config keys: {', '.join(map(repr, unknown))}")


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
        return {key: _plain(getattr(self, f.name)) for f, key in _keyed_fields(self)}


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


# Per-trial CSV columns: every TrialRecord key but the last, failed_stage.
CSV_COLUMNS = tuple(key for _, key in _keyed_fields(TrialRecord))[:-1]


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
    total = 0.0
    for s in range(max(spec.s_max, est.s_max) + 1):
        pt = float(spec.p_s[s]) if s <= spec.s_max else 0.0
        pe = float(est.p_s[s]) if s <= est.s_max else 0.0
        t = repetition_table(spec.p_x, spec.p_y_given_x, s)
        e = repetition_table(est.p_x, est.p_y_given_x, s)
        total += float(np.abs(pt * t - pe * e).sum())
    return 0.5 * total


def _estimated_bytes(m: int, n: int, num_seeds: int, s_max: int, alphabet_size: int) -> int:
    """Working set of one trial: the matcher, the instance and the seed stages."""
    instance = instance_bytes(m, n, num_seeds, s_max)
    seeds = deletions.seed_bytes(n, num_seeds, alphabet_size)
    return int(1.5 * (matching.match_bytes(m, n, s_max, alphabet_size) + instance + seeds))


def run_trial(config: ExperimentConfig, point: int, trial: int) -> TrialRecord:
    """One seeded end-to-end trial at ``config.points()[point]``, scored
    against ground truth."""
    m, n = config.points()[point]
    spec = config.spec
    pair, seeds = sample_instance(m, n, config.num_seeds, spec, config.master_seed, point, trial)
    result = matching.deanonymize(
        pair.d1,
        pair.d2,
        seeds.g1,
        seeds.g2,
        alphabet_size=spec.alphabet_size,
        epsilon=config.epsilon,
    )

    true_adj = _true_adjacency(pair.pattern)
    replica_ok = result.is_replica is not None and np.array_equal(result.is_replica, true_adj)
    deletion_ok = result.retention is not None and np.array_equal(
        result.retention.retained, pair.pattern.retained_indices()
    )
    est_tv = math.nan if result.estimate is None else estimate_tv_distance(spec, result.estimate)
    row_error = 1.0 if result.match is None else result.match.row_error_rate(pair.sigma)
    fingerprint = int(
        np.random.SeedSequence(config.master_seed, spawn_key=(point, trial)).generate_state(1)[0]
    )
    cap = capacity(spec).capacity
    return TrialRecord(
        trial=trial,
        n=n,
        m=m,
        num_seeds=config.num_seeds,
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
    try:
        check_table_size(config.spec.alphabet_size, config.spec.s_max)
    except ValueError as exc:
        raise InfeasibleSizeError(str(exc)) from exc
    concurrent = min(config.workers, config.trials)  # each thread holds its own trial
    for m, n in points:
        need = concurrent * _estimated_bytes(
            m, n, config.num_seeds, config.spec.s_max, config.spec.alphabet_size
        )
        if need > config.memory_cap_bytes:
            raise InfeasibleSizeError(
                f"point m={m} n={n} needs ~{need} bytes for {concurrent} concurrent "
                f"trial(s), cap is {config.memory_cap_bytes}"
            )

    summaries = []
    for point_idx, (m, n) in enumerate(points):
        trials = range(config.trials)
        if config.workers > 1:
            with ThreadPoolExecutor(max_workers=config.workers) as pool:
                records = list(pool.map(lambda i: run_trial(config, point_idx, i), trials))
        else:
            records = [run_trial(config, point_idx, i) for i in trials]

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


def render(report: ExperimentReport, fmt: str) -> str:
    """The report as CSV (per-trial rows) or JSON (full schema) text."""
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    rows = [r.to_dict() for point in report.points for r in point.trials]
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(_csv_cell(row[c]) for c in CSV_COLUMNS) for row in rows]
    return "\n".join(lines) + "\n"
