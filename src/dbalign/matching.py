"""End-to-end row de-anonymization.

Composes the two detectors, plug-in estimation, and marker segmentation,
then matches rows by three-part weak typicality: a candidate pair is
accepted when the joint and both marginal empirical log-likelihood rates
sit within epsilon of the corresponding plug-in entropies, and exactly
one candidate survives. Everything before matching is one shared stage
function, ``estimate_stages``, which the CLI also calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import deletions, estimation, replicas
from .deletions import RetentionResult
from .estimation import DistributionEstimate
from .infotheory import check_table_size
from .model import RepetitionPattern, as_permutation

# Finite stand-in for log2(0) inside the vectorized accumulation; large
# enough that a single zero-probability observation pushes the deviation
# far past any usable epsilon.
LOG_ZERO = -1.0e30

# Bytes of float64 joint scores the matcher holds at once: it scores d1
# against TILE_BYTES // (8 m) repeated rows at a time, so its working set
# grows linearly in m. 4 MiB timed faster than 2, 8 and 16 MiB at m=8192
# and m=16384 on a 2-core Xeon with 2 MiB of L2 per core.
TILE_BYTES = 4 * 1024 * 1024

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
        """Fraction of rows not correctly and uniquely matched.

        Raises ValueError unless sigma_true is a permutation of the rows.
        """
        sigma_true = as_permutation(sigma_true, self.num_rows)
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
    if not 0.0 < epsilon < math.inf:
        raise ValueError("epsilon must be finite and positive")
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

    # cell_ll[l, x, j]: log2 p(cell j of repeated row l | X = x) over the
    # retained cells; the copies are conditionally independent given x,
    # and the runs tile d2's columns in order. An erasure is certain
    # whatever x is, so it adds nothing to the joint or Y log-likelihood.
    # The cells fill the first k * r columns of the GEMM operand cell_t,
    # repeated rows leading, so the scores need no transposed copy.
    log_channel = _safe_log2(est.p_y_given_x)
    d2_idx = d2.astype(np.intp) - 1
    width = k * retained.size
    cell_t = np.empty((m2, width + 1))
    cell_ll = cell_t[:, :width].reshape(m2, k, retained.size)
    if cell_ll.base is not cell_t:
        raise RuntimeError("cell scores must be a view of the GEMM operand")
    np.add.reduceat(
        log_channel[:, d2_idx],
        segmented.offsets[retained],
        axis=2,
        out=cell_ll.transpose(1, 0, 2),
    )

    # Y-marginal deviation: depends on the repeated row only; each cell's
    # probability is its likelihood averaged over the source symbol.
    q_y = np.matmul(est.p_x, np.exp2(cell_ll))
    dev_y = np.abs(-_safe_log2(q_y).sum(axis=1) / n - est.y_entropy)

    # Joint typicality of one tile of repeated rows against every
    # anonymized row, in one GEMM of the tile's cell scores against d1's
    # one-hot cells. |-(joint_ll + ll_x) / n - H| <= eps is
    # |joint_ll + ll_x + n H| <= n eps, so an extra column of ones in
    # cell_t meets an extra row of ll_x + n H in onehot_t and the GEMM
    # yields the offset score. NaN marks a marginally atypical row on
    # either side and never compares <= n eps.
    cell_t[:, width] = np.where(dev_y <= epsilon, 1.0, np.nan)
    onehot_t = np.empty((width + 1, m1))
    np.equal(
        d1_idx.T[retained],
        np.arange(k)[:, None, None],
        out=onehot_t[:width].reshape(k, retained.size, m1),
    )
    onehot_t[width] = np.where(dev_x <= epsilon, ll_x + n * est.joint_entropy, np.nan)
    bound = n * epsilon
    # A repeated row's count saturates at 2: status needs no, one or
    # several hits, so the first hit is cleared and the rest tested.
    counts = np.empty(m2, dtype=np.intp)
    first = np.empty(m2, dtype=np.intp)
    rows = max(1, min(m2, TILE_BYTES // (8 * max(m1, 1))))
    tile = np.empty((rows, m1))
    typical = np.empty((rows, m1), dtype=bool)
    for l0 in range(0, m2, rows):
        l1 = min(l0 + rows, m2)
        scores = np.matmul(cell_t[l0:l1], onehot_t, out=tile[: l1 - l0])
        hits = np.less_equal(np.abs(scores, out=scores), bound, out=typical[: l1 - l0])
        top = np.arange(l1 - l0), hits.argmax(axis=1)
        first[l0:l1] = top[1]
        counts[l0:l1] = hits[top]
        hits[top] = False
        counts[l0:l1] += hits.any(axis=1)
    unique = counts == 1
    assigned = np.where(unique, first, -1)
    status = np.where(
        unique, STATUS_MATCHED, np.where(counts == 0, STATUS_NO_CANDIDATE, STATUS_AMBIGUOUS)
    ).astype(np.int8)

    # Two repeated rows claiming one anonymized row cannot both be right.
    claims = np.bincount(assigned[unique], minlength=m1)
    collided = unique & (claims[assigned] > 1)
    status[collided] = STATUS_AMBIGUOUS
    assigned[collided] = -1
    return MatchResult(assigned=assigned, status=status)


def pattern_from_detections(
    is_replica: np.ndarray,
    retention: RetentionResult,
    n: int,
    num_columns: int,
) -> RepetitionPattern:
    """Reconstruct the repetition pattern from both detector outputs.

    Replica runs over the repeated side's ``num_columns`` columns give the
    repetition count of each retained column in order; deleted columns
    get 0. The run count must equal the retained count.
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
    'deletion', 'pattern' with the exception in ``error``; the failed
    stage's field and later ones stay None. 'pattern' means a detected
    repetition count too long to tabulate (``infotheory.check_table_size``).
    """

    is_replica: np.ndarray | None = None
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


def estimate_stages(
    d2: np.ndarray,
    g1: np.ndarray,
    g2: np.ndarray,
    alphabet_size: int,
    s_max: int,
    threshold_constant: float = 2.0,
) -> PipelineResult:
    """Every stage before matching: replicas, deletions, pattern, estimate.

    Replica detection runs once, on d2's rows. The seeds share d2's
    repetition pattern, so g2's replica-free columns take d2's decisions;
    with seeds alone, g2 can stand in for d2. The estimate covers
    repetition counts up to s_max or the largest detected one. Detection
    failures, and a detected count too long to tabulate, are recorded in
    the result instead of raising; an s_max too long to tabulate is bad
    input and raises ValueError.
    """
    d2, g1, g2 = np.asarray(d2), np.asarray(g1), np.asarray(g2)
    if g2.shape[1] != d2.shape[1]:
        raise ValueError("g2 must share the database's repetition pattern")
    check_table_size(alphabet_size, s_max)
    n = g1.shape[1]
    result = PipelineResult()

    # With s_max <= 1 replicas are impossible: every pair is independent,
    # and the estimator, whose series would be single-component, is skipped.
    try:
        result.is_replica = (
            replicas.detect_replicas(d2)
            if s_max > 1
            else np.zeros(max(d2.shape[1] - 1, 0), dtype=bool)
        )
    except replicas.SingleComponentError as exc:
        return result.fail("replica", exc)
    g2_free = replicas.replica_free(g2, result.is_replica)
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

    pattern = pattern_from_detections(result.is_replica, result.retention, n, d2.shape[1])
    s_max = max(s_max, int(pattern.s.max()))
    try:
        check_table_size(alphabet_size, s_max)
    except ValueError as exc:
        return result.fail("pattern", exc)
    result.pattern = pattern
    result.estimate = estimation.estimate_from_seeds(
        g1, result.retention, result.pattern, alphabet_size, s_max
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
