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

# Finite stand-in for log2(0) in the marginal log-likelihoods: one
# zero-probability observation pushes a marginal deviation far past any
# usable epsilon. The joint scores never carry it: it would cancel in the
# matcher's cell differences, so their cells are clamped to a penalty
# sized to the instance instead (see match_rows).
LOG_ZERO = -1.0e30

# The matcher scores d1 against TILE_BYTES // (8 m) repeated rows at a
# time, so its working set grows linearly in m: a float32 tile of half
# TILE_BYTES plus two bool masks. 4 MiB of float64 scores timed faster
# than 2, 8 and 16 MiB at m=8192 and m=16384 on a 2-core Xeon with 2 MiB
# of L2 per core.
TILE_BYTES = 4 * 1024 * 1024

# Unit roundoff of float32, the precision of the matcher's screen.
_F32_UNIT = 2.0**-24

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


def _screen(
    cells: np.ndarray,
    y_typical: np.ndarray,
    x_cells: np.ndarray,
    offset: np.ndarray,
    bound: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Float32 GEMM operands of the joint scores and each row's screen.

    The joint score of repeated row l and anonymized row i is
    S[l, i] = sum_j cells[l, x_ij, j] + offset[i], with x_ij = x_cells[i, j]
    (0-based symbols) and every cell finite and <= 0; the pair is typical
    when |S| <= bound. NaN in ``offset`` marks an X-atypical row, and
    ``y_typical`` False a Y-atypical one; their scores are NaN.

    d1's one-hot cells sum to 1 over the symbols of each column, so
    S = base_l + sum_{x >= 1, j} (cells[l, x, j] - cells[l, 0, j])
    [x_ij = x] + offset[i] with base_l = sum_j cells[l, 0, j]. The returned
    ``a @ b`` is S in float32 at width w = (k - 1) r + 2: ``a`` holds the
    differences, base_l and a column of ones (NaN for Y-atypical rows);
    ``b`` holds the one-hot cells of symbols 1..k-1, a row of ones and
    the offset row.

    Soundness, with u = 2^-24 and gamma_j = j u / (1 - j u): let
    T_l = sum_t |a[l, t]| (t < w - 1) + max_i |offset[i]|. Every product
    in row l's dot products is bounded by these terms, so a float32 GEMM
    in any summation order is within gamma_w T_l of the exact product of
    the float32 operands (Higham, Theorem 3.1). Rounding the operands to
    float32 moves the exact value by at most gamma_2 T_l, and T_l itself
    is taken from the rounded operands. Since each cell is <= 0,
    sum_j |cells[l, x_ij, j]| <= |base_l| + sum of |differences|, so the
    float64 score, summed either way, is within 2 gamma'_{r+1} T_l of the
    exact one, with gamma' in float64 units: less than u T_l for
    r < 2^28. Hence |S32 - S64| <= delta_l = gamma_{w+4} T_l, and with
    ``hi`` = bound + delta_l and ``lo`` = bound - delta_l each rounded one
    float32 step outward (a step exceeds the float64 rounding of the sum):
      - |S64| <= bound implies |S32| <= hi: the screen keeps every pair
        the float64 formula finds typical;
      - |S32| <= lo implies |S64| <= bound: those hits need no recheck.
    Only lo < |S32| <= hi is decided in float64.
    """
    m2, k, r = cells.shape
    m1 = x_cells.shape[0]
    w = (k - 1) * r + 2
    a = np.empty((m2, w), dtype=np.float32)
    np.subtract(cells[:, 1:], cells[:, :1], out=a[:, : w - 2].reshape(m2, k - 1, r))
    a[:, w - 2] = cells[:, 0].sum(axis=1)
    a[:, w - 1] = np.where(y_typical, 1.0, np.nan)
    b = np.empty((w, m1), dtype=np.float32)
    np.equal(x_cells.T, np.arange(1, k)[:, None, None], out=b[: w - 2].reshape(k - 1, r, m1))
    b[w - 2] = 1.0
    b[w - 1] = offset

    scale = np.abs(a[:, : w - 1]).sum(axis=1, dtype=np.float64)
    scale += np.fmax.reduce(np.abs(offset), initial=0.0)  # NaN marks skipped
    slack = scale * ((w + 4) * _F32_UNIT / (1.0 - (w + 4) * _F32_UNIT))
    hi = np.nextafter((bound + slack).astype(np.float32), np.float32(np.inf))
    lo = np.nextafter((bound - slack).astype(np.float32), np.float32(-np.inf))
    return a, b, lo, hi


def _check_match_input(d1, d2, n: int, alphabet_size: int, epsilon: float) -> None:
    """Raise ValueError on row-matching input that is bad whatever the
    estimate: epsilon not finite and positive, d1 not n columns wide,
    unequal row counts, or a d1 or d2 symbol outside 1..alphabet_size."""
    if not 0.0 < epsilon < math.inf:
        raise ValueError("epsilon must be finite and positive")
    if d1.shape[1] != n:
        raise ValueError(f"d1 has {d1.shape[1]} columns, the repetition pattern {n}")
    if d1.shape[0] != d2.shape[0]:
        raise ValueError("row matching needs equal row counts on both sides")
    deletions.check_symbols(alphabet_size, d1, d2)


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

    Joint typicality is screened in float32 (``_screen``, whose docstring
    proves the bounds) and decided in float64: hits within a row's
    rounding band of n epsilon are recomputed from the float64 cells.
    """
    d1, d2, k = np.asarray(d1), segmented.d2, est.alphabet_size
    _check_match_input(d1, d2, segmented.n, k, epsilon)
    m1, n = d1.shape
    m2 = d2.shape[0]
    # Zero-probability cells sit at LOG_ZERO; the clamp below must reach them.
    penalty = -2.0 * (n * (est.joint_entropy + epsilon) + 1.0)
    if penalty < LOG_ZERO:
        raise ValueError(f"epsilon {epsilon:g} too large for {n} columns")
    d1_idx = d1.astype(np.intp) - 1
    retained = np.flatnonzero(segmented.pattern.s)

    # X-marginal deviation: depends on the anonymized row only.
    log_px = _safe_log2(est.p_x)
    ll_x = log_px[d1_idx].sum(axis=1)
    dev_x = np.abs(-ll_x / n - est.x_entropy)

    # cells[l, x, j]: log2 p(cell j of repeated row l | X = x) over the
    # retained cells; the copies are conditionally independent given x,
    # and the runs tile d2's columns in order. An erasure is certain
    # whatever x is, so it adds nothing to the joint or Y log-likelihood.
    log_channel = _safe_log2(est.p_y_given_x)
    r = retained.size
    cells = np.empty((m2, k, r))
    np.add.reduceat(
        log_channel[:, d2.astype(np.intp) - 1],
        segmented.offsets[retained],
        axis=2,
        out=cells.transpose(1, 0, 2),
    )

    # Y-marginal deviation: depends on the repeated row only; each cell's
    # probability is its likelihood averaged over the source symbol.
    q_y = np.matmul(est.p_x, np.exp2(cells))
    dev_y = np.abs(-_safe_log2(q_y).sum(axis=1) / n - est.y_entropy)

    # Joint typicality: |-(joint_ll + ll_x) / n - H| <= eps is |S| <= n eps
    # with S = joint_ll + ll_x + n H. Every cell log-likelihood and ll_x
    # is <= 0, so a pair with a cell below P = -2 (n (H + eps) + 1) has
    # S <= P + n H < -n eps whether that cell keeps its value or is
    # clamped to P: the pair is atypical either way. The clamp keeps the
    # cells finite, so their differences in the screen do not cancel.
    np.maximum(cells, penalty, out=cells)
    offset = np.where(dev_x <= epsilon, ll_x + n * est.joint_entropy, np.nan)
    bound = n * epsilon
    a, b, lo, hi = _screen(cells, dev_y <= epsilon, d1_idx[:, retained], offset, bound)

    # Each tile takes one float32 GEMM, an abs and two compares: hits up to
    # lo are typical, and the band lo < |S| <= hi is recomputed in float64
    # from the cells, at most TILE_BYTES of gathered cells at a time. A
    # repeated row's count saturates at 2: status needs no, one or several
    # hits, so the first hit is cleared and the rest tested.
    counts = np.empty(m2, dtype=np.intp)
    first = np.empty(m2, dtype=np.intp)
    rows = max(1, min(m2, TILE_BYTES // (8 * max(m1, 1))))
    chunk = max(1, TILE_BYTES // (16 * (r + 3)))
    tile = np.empty((rows, m1), dtype=np.float32)
    typical = np.empty((rows, m1), dtype=bool)
    band = np.empty((rows, m1), dtype=bool)
    for l0 in range(0, m2, rows):
        l1 = min(l0 + rows, m2)
        scores = np.matmul(a[l0:l1], b, out=tile[: l1 - l0])
        np.abs(scores, out=scores)
        hits = np.less_equal(scores, hi[l0:l1, None], out=typical[: l1 - l0])
        sure = np.less_equal(scores, lo[l0:l1, None], out=band[: l1 - l0])
        recheck = np.flatnonzero(np.not_equal(hits, sure, out=sure))
        for c in range(0, recheck.size, chunk):
            flat = recheck[c : c + chunk]
            l, i = np.divmod(flat, m1)
            pair_cells = cells[l0 + l[:, None], d1_idx[i[:, None], retained], np.arange(r)]
            np.put(hits, flat, np.abs(pair_cells.sum(axis=1) + offset[i]) <= bound)
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

    Replica detection runs once, on d2's rows, and groups its columns into
    runs. The seeds share d2's pattern, so g2 can stand in for d2, and
    deletion detection reads g2's first column of each run. It retains one
    original column per run, in order, which the pattern gives that run's
    length (0 to deleted ones). The estimate covers counts up to s_max or
    the largest detected one. Detection failures, and a detected count too
    long to tabulate, are recorded in the result instead of raising. Bad
    input raises ValueError before any stage runs: a g1 symbol outside
    1..alphabet_size, an alphabet size outside 1..MAX_REMAP_ALPHABET, a
    negative s_max, or one too long to tabulate.
    """
    d2, g1, g2 = np.asarray(d2), np.asarray(g1), np.asarray(g2)
    if g2.shape[1] != d2.shape[1]:
        raise ValueError("g2 must share the database's repetition pattern")
    # In deletion detection's order: a bad alphabet names g1's symbols first.
    deletions.check_symbols(alphabet_size, g1)
    deletions.check_remap_alphabet(alphabet_size)
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
    starts, lengths = replicas.column_runs(result.is_replica, d2.shape[1])
    if starts.size > n:
        return result.fail(
            "replica", ValueError(f"{starts.size} replica runs for {n} original columns")
        )

    try:
        result.retention = deletions.detect_deletions(
            g1, g2[:, starts], alphabet_size, threshold_constant
        )
    except (deletions.MisdetectionError, deletions.NoUsefulRemappingError) as exc:
        return result.fail("deletion", exc)

    s = np.zeros(n, dtype=np.int64)
    s[result.retention.retained] = lengths
    s_max = max(s_max, int(s.max()))
    try:
        check_table_size(alphabet_size, s_max)
    except ValueError as exc:
        return result.fail("pattern", exc)
    result.pattern = RepetitionPattern(s)
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
    aborts. Bad input raises ValueError before any stage runs, the
    matcher's own checks included.
    """
    d1, d2 = np.asarray(d1), np.asarray(d2)
    _check_match_input(d1, d2, np.shape(g1)[1], alphabet_size, epsilon)
    result = estimate_stages(d2, g1, g2, alphabet_size, s_max, threshold_constant)
    if result.ok:
        result.match = match_rows(d1, segment(d2, result.pattern), result.estimate, epsilon)
    return result
