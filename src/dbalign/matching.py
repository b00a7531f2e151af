"""End-to-end row de-anonymization.

Composes the two detectors, plug-in estimation, and marker segmentation,
then matches rows by three-part weak typicality: a candidate pair is
accepted when the joint and both marginal empirical log-likelihood rates
sit within epsilon of the corresponding plug-in entropies, and exactly
one candidate survives. Everything before matching is one shared stage
function, ``estimate_stages``, which the CLI also calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import deletions, estimation, replicas
from .deletions import RetentionResult
from .estimation import DistributionEstimate
from .model import RepetitionPattern

# Finite stand-in for log2(0) inside the vectorized accumulation; large
# enough that a single zero-probability observation pushes the deviation
# far past any usable epsilon.
LOG_ZERO = -1.0e30

STATUS_MATCHED = 0
STATUS_AMBIGUOUS = 1
STATUS_NO_CANDIDATE = 2

STATUS_NAMES = {
    STATUS_MATCHED: "matched",
    STATUS_AMBIGUOUS: "ambiguous",
    STATUS_NO_CANDIDATE: "no_typical_candidate",
}


@dataclass(frozen=True)
class SegmentedDatabase:
    """The repeated database with columns grouped into per-origin cells.

    Row i has one cell per original column: the run of ``pattern.s[j]``
    symbols starting at column ``offsets[j]``, empty (an erasure) for a
    deleted column. The matcher works directly off the column offsets.
    """

    d2: np.ndarray
    pattern: RepetitionPattern
    offsets: np.ndarray

    @property
    def num_rows(self) -> int:
        return self.d2.shape[0]

    @property
    def n(self) -> int:
        return self.pattern.n


def segment(d2: np.ndarray, pattern: RepetitionPattern) -> SegmentedDatabase:
    """Group the repeated database's columns into runs per the pattern."""
    d2 = np.asarray(d2)
    if pattern.total != d2.shape[1]:
        raise ValueError(
            f"pattern repetitions sum to {pattern.total} but d2 has "
            f"{d2.shape[1]} columns"
        )
    offsets = np.concatenate(([0], np.cumsum(pattern.s)[:-1]))
    return SegmentedDatabase(d2=d2, pattern=pattern, offsets=offsets)


@dataclass(frozen=True)
class MatchResult:
    """Per-row matching outcome.

    ``assigned[l]`` is the anonymized row matched to repeated row l, or
    -1 when none was declared; ``status[l]`` is one of the STATUS_*
    codes. Matched assignments are injective by construction.
    """

    assigned: np.ndarray
    status: np.ndarray

    @property
    def num_rows(self) -> int:
        return self.assigned.size

    def sigma_hat(self) -> np.ndarray:
        """Estimated permutation over anonymized rows (-1 where unmatched)."""
        out = np.full(self.num_rows, -1, dtype=np.int64)
        matched = self.status == STATUS_MATCHED
        out[self.assigned[matched]] = np.flatnonzero(matched)
        return out

    def status_counts(self) -> dict:
        return {
            name: int((self.status == code).sum())
            for code, name in STATUS_NAMES.items()
        }

    def row_error_rate(self, sigma_true: np.ndarray) -> float:
        """Fraction of rows not correctly and uniquely matched."""
        sigma_true = np.asarray(sigma_true)
        correct = (self.status[sigma_true] == STATUS_MATCHED) & (
            self.assigned[sigma_true] == np.arange(sigma_true.size)
        )
        return 1.0 - float(correct.mean())


def _safe_log2(p: np.ndarray) -> np.ndarray:
    out = np.full(p.shape, LOG_ZERO)
    np.log2(p, out=out, where=p > 0.0)
    return out


def match_rows(
    d1: np.ndarray,
    segmented: SegmentedDatabase,
    est: DistributionEstimate,
    epsilon: float,
) -> MatchResult:
    """Match every repeated row to its unique typical anonymized row.

    A repeated row with zero typical candidates gets the no-candidate
    status; with several, ambiguous. When two repeated rows claim the
    same anonymized row, both are demoted to ambiguous so that matched
    assignments stay injective.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    d1 = np.asarray(d1)
    m1, n = d1.shape
    if segmented.n != n:
        raise ValueError("segmented database has a different column count")
    d2 = segmented.d2
    m2 = d2.shape[0]
    if m1 != m2:
        raise ValueError("row matching needs equal row counts on both sides")
    k = est.alphabet_size
    deletions.check_symbols(k, d1, d2)
    d1_idx = d1.astype(np.intp) - 1
    retained = np.flatnonzero(segmented.pattern.s)

    # X-marginal deviation: depends on the anonymized row only.
    log_px = _safe_log2(est.p_x)
    ll_x = log_px[d1_idx].sum(axis=1)
    dev_x = np.abs(-ll_x / n - est.x_entropy)

    # cell_ll[x, j, l]: log2 p(cell j of repeated row l | X = x) over the
    # retained cells; the copies are conditionally independent given x,
    # and the runs tile d2's columns in order. An erasure is certain
    # whatever x is, so it adds nothing to the joint or Y log-likelihood.
    log_channel = _safe_log2(est.p_y_given_x)
    d2_idx = d2.astype(np.intp) - 1
    cell_ll = np.add.reduceat(
        log_channel[:, d2_idx.T], segmented.offsets[retained], axis=1
    )

    # Joint log-likelihood: d1's one-hot cells against cell_ll in one GEMM.
    width = k * retained.size
    onehot = d1_idx[:, None, retained] == np.arange(k)[:, None]
    joint_ll = onehot.reshape(m1, width).astype(float) @ cell_ll.reshape(width, m2)
    joint_ll += ll_x[:, None]
    # in place: dev_joint = |(-joint_ll / n) - joint_entropy|
    joint_ll *= -1.0 / n
    joint_ll -= est.joint_entropy
    dev_joint = np.abs(joint_ll, out=joint_ll)

    # Y-marginal deviation: depends on the repeated row only; each cell's
    # probability is its likelihood averaged over the source symbol.
    q_y = np.tensordot(est.p_x, np.exp2(cell_ll), axes=1)
    dev_y = np.abs(-_safe_log2(q_y).sum(axis=0) / n - est.y_entropy)

    typical = (dev_joint <= epsilon) & (dev_x <= epsilon)[:, None]
    typical &= (dev_y <= epsilon)[None, :]
    counts = typical.sum(axis=0)
    unique = counts == 1
    assigned = np.where(unique, typical.argmax(axis=0), -1)
    status = np.where(
        unique, STATUS_MATCHED, np.where(counts == 0, STATUS_NO_CANDIDATE, STATUS_AMBIGUOUS)
    ).astype(np.int8)

    # Two repeated rows claiming one anonymized row cannot both be right.
    matched_rows = np.flatnonzero(unique)
    targets, hits = np.unique(assigned[matched_rows], return_counts=True)
    for target, count in zip(targets, hits):
        if count > 1:
            collided = matched_rows[assigned[matched_rows] == target]
            status[collided] = STATUS_AMBIGUOUS
            assigned[collided] = -1
    return MatchResult(assigned=assigned, status=status)


def pattern_from_detections(
    is_replica: np.ndarray,
    retention: RetentionResult,
    n: int,
    num_columns: int | None = None,
) -> RepetitionPattern:
    """Reconstruct the repetition pattern from both detector outputs.

    Replica runs give the repetition count of each retained column in
    order; deleted columns get 0. The run count must equal the retained
    count. ``num_columns`` is as in ``replicas.column_runs``.
    """
    _, lengths = replicas.column_runs(is_replica, num_columns)
    if lengths.size != retention.num_retained:
        raise ValueError(
            f"{lengths.size} replica runs for {retention.num_retained} retained columns"
        )
    s = np.zeros(n, dtype=np.int64)
    s[retention.retained] = lengths
    return RepetitionPattern(s)


@dataclass
class PipelineResult:
    """Everything the de-anonymization pipeline produced.

    ``failed_stage`` is None on full completion, else one of 'replica',
    'deletion', 'pattern' with the exception in ``error``; later fields
    stay None after a failure.
    """

    is_replica: np.ndarray | None = None
    is_replica_seeds: np.ndarray | None = None
    retention: RetentionResult | None = None
    pattern: RepetitionPattern | None = None
    estimate: DistributionEstimate | None = None
    match: MatchResult | None = None
    failed_stage: str | None = None
    error: Exception | None = None

    @property
    def ok(self) -> bool:
        return self.failed_stage is None

    @property
    def failure(self) -> str | None:
        return None if self.error is None else str(self.error)

    def fail(self, stage: str, error: Exception) -> "PipelineResult":
        self.failed_stage, self.error = stage, error
        return self

    def stage_flags(self) -> dict:
        return {
            "replica": self.is_replica is not None,
            "deletion": self.retention is not None,
            "pattern": self.pattern is not None,
            "estimate": self.estimate is not None,
            "match": self.match is not None,
        }


def replica_decisions(d2: np.ndarray, s_max: int) -> np.ndarray:
    """Replica decisions for the adjacent columns of ``d2``.

    With s_max <= 1 replicas are impossible: every pair is independent,
    and the estimator, whose series would be single-component, is skipped.
    """
    if s_max <= 1:
        return np.zeros(max(d2.shape[1] - 1, 0), dtype=bool)
    return replicas.detect_replicas(d2)


def estimate_stages(
    d2: np.ndarray,
    g1: np.ndarray,
    g2: np.ndarray,
    alphabet_size: int,
    s_max: int,
    threshold_constant: float = 2.0,
) -> PipelineResult:
    """Every stage before matching: replicas, deletions, pattern, estimate.

    The pattern comes from d2's replica runs; with seeds alone, g2 can
    stand in for d2 since it shares the pattern. The estimate covers
    repetition counts up to s_max or the largest detected one. Detection
    failures are recorded in the result instead of raising.
    """
    d2, g1, g2 = np.asarray(d2), np.asarray(g1), np.asarray(g2)
    if g2.shape[1] != d2.shape[1]:
        raise ValueError("g2 must share the database's repetition pattern")
    n = g1.shape[1]
    result = PipelineResult()

    try:
        result.is_replica = replica_decisions(d2, s_max)
        result.is_replica_seeds = replica_decisions(g2, s_max)
    except replicas.SingleComponentError as exc:
        return result.fail("replica", exc)
    g2_free = replicas.replica_free(g2, result.is_replica_seeds)
    if g2_free.shape[1] > n:
        return result.fail(
            "replica", ValueError(f"{g2_free.shape[1]} replica runs for {n} original columns")
        )

    try:
        result.retention = deletions.detect_deletions(
            g1, g2_free, alphabet_size, threshold_constant
        )
    except (deletions.MisdetectionError, deletions.NoUsefulRemappingError) as exc:
        return result.fail("deletion", exc)

    try:
        result.pattern = pattern_from_detections(
            result.is_replica, result.retention, n, d2.shape[1]
        )
    except ValueError as exc:
        return result.fail("pattern", exc)

    s_max = max(s_max, int(result.pattern.s.max()))
    result.estimate = estimation.estimate_from_seeds(
        g1, g2_free, result.retention, result.pattern, alphabet_size, s_max=s_max
    )
    return result


def deanonymize(
    d1: np.ndarray,
    d2: np.ndarray,
    g1: np.ndarray,
    g2: np.ndarray,
    alphabet_size: int,
    s_max: int,
    epsilon: float = 0.05,
    threshold_constant: float = 2.0,
) -> PipelineResult:
    """Full pipeline: ``estimate_stages``, then match rows.

    ``alphabet_size`` and ``s_max`` are assumed known. Algorithmic
    failures are recorded, never raised, so a Monte Carlo harness never
    aborts.
    """
    result = estimate_stages(d2, g1, g2, alphabet_size, s_max, threshold_constant)
    if result.ok:
        result.match = match_rows(d1, segment(d2, result.pattern), result.estimate, epsilon)
    return result
