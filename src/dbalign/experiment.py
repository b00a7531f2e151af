"""Monte Carlo experiment runner with deterministic seeding.

Each trial draws a fresh instance from its own substream, runs the full
pipeline, and scores every stage against the hidden ground truth. Trials
are independent, so how they are spread over threads never changes the
numbers, and the emitted CSV is byte-identical for a fixed master seed.

``run_experiment`` splits each point's trials into ``min(workers,
trials)`` contiguous parts and fans them out (``fanout``), the first on
the calling thread. Inside ``fanout.cores`` the OpenBLAS that numpy
loaded runs one thread, and each part runs its trials in order on the
budget that ``cores`` sets, at which the memory guard sizes them and
the sampler, the seed co-occurrence and the matcher split their work. No
report depends on the count or the budget: the matcher's screen holds
for a float32 GEMM in any summation order, the seed co-occurrence counts
are exact, and a split draw consumes the same uniforms.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import deletions, estimation, fanout, matching
from .dbio import SPEC_KEYS, as_epsilon, as_integer, model_spec_from_dict, model_spec_to_dict
from .infotheory import capacity, check_table_size, repetition_table
from .model import ModelSpec, instance_bytes, sample_instance

DEFAULT_MEMORY_CAP = 2 * 1024 ** 3
WILSON_Z = 1.96  # the normal quantile of a two-sided 95% interval

# Report keys that differ from the dataclass field names, and the field
# that each sweep axis, named by its config key, sets at every point.
KEY_NAMES = {"num_seeds": "lambda", "growth_rate": "R"}
SWEEP_FIELDS = {"m": "m", "n": "n", "lambda": "num_seeds"}


class InfeasibleSizeError(RuntimeError):
    """Estimated working-set size exceeds the configured memory cap."""


def _keyed_fields(record) -> list:
    """(field, report key) of each field of a dataclass, in field order."""
    return [(f, KEY_NAMES.get(f.name, f.name)) for f in fields(record)]


@dataclass(kw_only=True)
class ExperimentConfig:
    """Everything one experiment needs, sweepable over m, n or lambda.

    Each field after ``spec`` is one config key, named by KEY_NAMES where
    they differ, and the field order is the report's key order after the
    model spec's keys.
    """

    spec: ModelSpec
    m: int
    n: int
    trials: int = 10
    master_seed: int = 0
    epsilon: float = matching.DEFAULT_EPSILON
    sweep_axis: str | None = None
    sweep_values: list = field(default_factory=list)
    workers: int = 1
    memory_cap_bytes: int = DEFAULT_MEMORY_CAP
    num_seeds: int

    def __post_init__(self):
        # A config file's rule, however the config is built: ints as ints.
        for f, key in CONFIG_FIELDS:
            if f.type == "int":
                setattr(self, f.name, as_integer(key, getattr(self, f.name)))
        self.epsilon = as_epsilon(self.epsilon)
        if not isinstance(self.sweep_values, (list, tuple)):
            raise ValueError(f"sweep_values must be a list, got {self.sweep_values!r}")
        self.sweep_values = [as_integer("sweep_values", v) for v in self.sweep_values]
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.workers < 1:
            raise ValueError("worker count must be positive")
        if self.master_seed < 0 or self.memory_cap_bytes < 1:
            raise ValueError("need master_seed >= 0 and memory_cap_bytes >= 1")
        if self.sweep_axis not in (None, *SWEEP_FIELDS):
            raise ValueError("sweep axis must be 'm', 'n' or 'lambda'")
        if self.sweep_axis is None and self.sweep_values:
            raise ValueError("sweep values given without a sweep axis")
        if self.num_seeds < 1 or self.m < 1 or self.n < deletions.MIN_COLUMNS:
            raise ValueError(f"need lambda, m >= 1 and n >= {deletions.MIN_COLUMNS} at each point")
        self.points()  # each point checks its own sizes as it is built

    def points(self) -> list["ExperimentConfig"]:
        """One unswept config per experiment point; an empty sweep gives none."""
        if self.sweep_axis is None:
            return [self]
        axis = SWEEP_FIELDS[self.sweep_axis]
        return [replace(self, sweep_axis=None, sweep_values=[], **{axis: v})
                for v in self.sweep_values]

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        check_config_keys(d)
        spec = model_spec_from_dict(d)
        for f, key in CONFIG_FIELDS:
            if key not in d and f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"experiment config is missing key {key!r}")
        return cls(spec=spec, **{f.name: d[key] for f, key in CONFIG_FIELDS if key in d})

    def to_dict(self) -> dict:
        out = model_spec_to_dict(self.spec)
        out.update((key, _plain(getattr(self, f.name))) for f, key in CONFIG_FIELDS)
        return out


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
    if isinstance(value, float) and math.isnan(value):
        return None  # an unscored estimate; JSON has no NaN
    return value


class _Record:
    """Dict form of a report dataclass: its fields in order, keys renamed
    by KEY_NAMES, tuples as lists, nested records as dicts and NaN as None."""

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


def wilson_interval(successes: int, total: int) -> tuple[float, float]:
    """Wilson 95% score interval; behaves sensibly at small counts."""
    if total == 0:
        return (0.0, 1.0)
    z = WILSON_Z
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
    """Working set of one trial on the calling thread's budget: the
    matcher, the instance and the seed stages."""
    instance = instance_bytes(m, n, num_seeds, s_max)
    seeds = deletions.seed_bytes(n, num_seeds, alphabet_size)
    matcher = matching.match_bytes(m, n, s_max, alphabet_size)
    return matcher + instance + seeds


def check_memory(
    what: str, working_set: int, cap: int, concurrent: int = 1, held: int = 0
) -> None:
    """Raise InfeasibleSizeError unless ``concurrent`` working sets of
    ``working_set`` bytes, each with half again as slack, fit ``cap`` beside
    ``held`` bytes already resident; ``what`` names the size in the message."""
    need = concurrent * int(1.5 * working_set) + held
    if need > cap:
        trials = f" for {concurrent} concurrent trial(s)" if concurrent > 1 else ""
        raise InfeasibleSizeError(f"{what} needs ~{need} bytes{trials}, cap is {cap}")


@fanout.scope()  # the instance is borrowed
def run_trial(config: ExperimentConfig, point: int, trial: int) -> TrialRecord:
    """One seeded end-to-end trial at ``config.points()[point]``, scored
    against ground truth; m, n, lambda and epsilon are that point's own."""
    cfg = config.points()[point]
    m, n, spec = cfg.m, cfg.n, cfg.spec
    pair, seeds = sample_instance(m, n, cfg.num_seeds, spec, cfg.master_seed, point, trial)
    result = matching.deanonymize(
        pair.d1,
        pair.d2,
        seeds.g1,
        seeds.g2,
        alphabet_size=spec.alphabet_size,
        epsilon=cfg.epsilon,
    )

    true_adj = _true_adjacency(pair.pattern)
    replica_ok = result.is_replica is not None and np.array_equal(result.is_replica, true_adj)
    deletion_ok = result.retention is not None and np.array_equal(
        result.retention.retained, pair.pattern.retained_indices()
    )
    est_tv = math.nan if result.estimate is None else estimate_tv_distance(spec, result.estimate)
    row_error = 1.0 if result.match is None else result.match.row_error_rate(pair.sigma)
    fingerprint = int(
        np.random.SeedSequence(cfg.master_seed, spawn_key=(point, trial)).generate_state(1)[0]
    )
    cap = capacity(spec).capacity
    return TrialRecord(
        trial=trial,
        n=n,
        m=m,
        num_seeds=cfg.num_seeds,
        growth_rate=math.log2(m) / n,
        capacity=cap,
        replica_ok=bool(replica_ok),
        deletion_ok=bool(deletion_ok),
        est_tv=est_tv,
        row_error_rate=row_error,
        seed=fingerprint,
        failed_stage=result.failed_stage,
    )


def check_feasible(spec: ModelSpec) -> None:
    """Raise InfeasibleSizeError unless spec's (X, Y^s) tables fit TABLE_LIMIT."""
    try:
        check_table_size(spec.alphabet_size, spec.s_max)
    except ValueError as exc:
        raise InfeasibleSizeError(str(exc)) from exc


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """All sweep points and trials; deterministic for a fixed master seed.

    Each point's trials run in ``min(workers, trials)`` contiguous parts at
    once, each part's in order on its own thread, the first on the calling
    thread. numpy's OpenBLAS runs one thread until all are done, and each
    part gets its share of the old count as the budget that the memory
    guard sizes each trial at.
    """
    check_feasible(config.spec)
    concurrent = min(config.workers, config.trials)  # each part holds one trial at a time
    with fanout.cores(concurrent):
        sizes = [
            _estimated_bytes(p.m, p.n, p.num_seeds, p.spec.s_max, p.spec.alphabet_size)
            for p in config.points()
        ]
        # The pooled workspaces stay resident: they are counted, or freed
        # where a point fits only without them.
        cap = config.memory_cap_bytes
        if any(concurrent * int(1.5 * size) + fanout.held() > cap for size in sizes):
            fanout.release()
        for p, size in zip(config.points(), sizes):
            what = f"point m={p.m} n={p.n} lambda={p.num_seeds}"
            check_memory(what, size, cap, concurrent, fanout.held())
        # Each trial part's workspace reserves a trial's whole working set;
        # a page that no borrow reaches is never touched.
        arena = max(sizes, default=0)
        return _report(config, fanout.parts(config.trials, 1, concurrent), arena)


def _report(config: ExperimentConfig, spans: list, arena: int) -> ExperimentReport:
    """Run every point's trials in the contiguous ``spans`` of trial
    numbers, fanned out, each span on the calling thread's budget and in a
    workspace of ``arena`` bytes, and summarise."""
    threads = fanout.threads()
    summaries = []
    for point_idx, p in enumerate(config.points()):

        def part(span):
            with fanout.budget(threads), fanout.workspace(arena):
                return [run_trial(config, point_idx, i) for i in range(*span)]

        records = [r for rs in fanout.fan_out(part, spans) for r in rs]
        replica_hits = sum(r.replica_ok for r in records)
        deletion_hits = sum(r.deletion_ok for r in records)
        tvs = [r.est_tv for r in records if not math.isnan(r.est_tv)]
        summaries.append(
            PointSummary(
                m=p.m,
                n=p.n,
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
    if value is None:
        return "nan"  # the record's NaN, an unscored estimate
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render(report: ExperimentReport, fmt: str) -> str:
    """The report as CSV (per-trial rows, an unscored estimate as nan) or
    JSON (full schema, an unscored estimate as null) text."""
    if fmt == "json":
        return json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    rows = [r.to_dict() for point in report.points for r in point.trials]
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(_csv_cell(row[c]) for c in CSV_COLUMNS) for row in rows]
    return "\n".join(lines) + "\n"
