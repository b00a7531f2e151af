"""End-to-end row de-anonymization.

Composes the two detectors and plug-in estimation, groups the repeated
database's columns into one run per original column by the detected
repetition pattern, then matches rows by three-part weak typicality: a
candidate pair is accepted when the joint and both marginal empirical
log-likelihood rates sit within epsilon of the corresponding plug-in
entropies, and exactly one candidate survives. The matcher scores each
distinct run once, in a table indexed by run codes; one generator yields
the joint scores tile by tile, and the typicality rule reads the tiles
in any order. Everything before matching is one shared stage function,
``estimate_stages``, which the CLI also calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import deletions, estimation, fanout, replicas
from .dbio import as_epsilon
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

# The typicality slack when none is given: `deanonymize`, `dbalign match`
# and the experiment config all default to it.
DEFAULT_EPSILON = 0.05

# All the matcher's tiles hold TILE_BYTES of float64 scores, as float32 in
# half of it: each of its parts scores TILE_BYTES // (8 MATCH_PART parts)
# repeated rows against MATCH_PART rows of d1 at a time, whatever m is. On
# a 2-core Xeon (2 MiB L2 per core, paper_bsc's model, BLAS pinned), 4 MiB
# ran m=8192 and 16384 6-20% faster than 2 or 8 MiB at a budget of 2, a
# paper-scale trial's; at a budget of 1, 2 MiB was 13% faster than 4 MiB.
TILE_BYTES = 4 * 1024 * 1024

# Fewest repeated rows per part of a split matcher, and the width of every
# tile in rows of d1 (see match_rows); the budget sets the part count.
MATCH_PART = 1024

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


def _blocks(m: int) -> list[slice]:
    """Slices of MATCH_PART rows that tile range(m), in order."""
    return [slice(l0, l0 + MATCH_PART) for l0 in range(0, m, MATCH_PART)]


def _block_buffers(ids: np.ndarray, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Borrowed (``fanout.borrow``) buffers for one block of rows of ``ids``
    (``_blocks``): its ids as intp, which ``np.take`` indexes by without a
    hidden copy, and a gather of them in ``dtype``."""
    shape = (min(ids.shape[0], MATCH_PART), *ids.shape[1:])
    return fanout.borrow(shape, np.intp), fanout.borrow(shape, dtype)


@fanout.scope()
def _gathered_sums(values: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``values.take(ids).sum(axis=1)`` in float64, gathered one block of
    rows of ``ids`` at a time (``_blocks``): each row is summed as in one
    gather, so the result is bit-identical and no gather outgrows a block."""
    out = np.empty(ids.shape[0])
    index, gathered = _block_buffers(ids, values.dtype)
    for rows in _blocks(ids.shape[0]):
        height = ids[rows].shape[0]
        index[:height] = ids[rows]
        np.take(values, index[:height], out=gathered[:height], mode="clip")
        gathered[:height].sum(axis=1, out=out[rows])
    return out


def _cell_table(
    d2: np.ndarray, starts: np.ndarray, lengths: np.ndarray, log_channel: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The cells of d2's runs, scored once per distinct run.

    Run j of row l is the ``lengths[j]`` symbols of d2 from column
    ``starts[j]``. Its code is the run read as a bijective base-k numeral,
    sum_t y_t k^(s - 1 - t) over its copies y_0..y_{s-1} (symbols 1..k):
    the runs of length s are ordered lexicographically, the first copy
    most significant, in their own block of codes from sum_{t < s} k^t
    on. ``log_channel[x, y]`` is log2 p(y | X = x + 1) with a zero column
    at y = 0. Returns ``table``, k by the number of distinct runs, and
    ``ids``, with table[x, ids[l, j]] the log-likelihood of row l's run j
    given X = x + 1: its copies' log-likelihoods summed in order by
    ``np.add.reduceat``, so each cell is the one a reduceat over the row
    itself would give. ``ids`` has the least unsigned dtype that holds the
    number of distinct runs, and the codes are built MATCH_PART rows of d2
    at a time. ``ids`` is borrowed in the caller's scope
    (``fanout.borrow``), over the codes' bytes.
    """
    k = log_channel.shape[0]
    s_max = int(lengths.max(initial=0))
    check_table_size(k, s_max)  # bounds the code space below
    base = np.cumsum([k**s for s in range(s_max + 1)])  # base[s - 1]: first code of length s
    # One Horner pass per copy over all runs at once: a run without copy t
    # is multiplied by 1 and adds 0. Every code is below base[-1]: within
    # TABLE_LIMIT by the check, or s_max + 1 when k = 1.
    codes = fanout.borrow((d2.shape[0], starts.size), np.min_scalar_type(int(base[-1]) - 1))
    present = np.zeros(int(base[-1]), dtype=bool)
    with fanout.scope():
        run_codes, copy = _block_buffers(codes, d2.dtype)
        for rows in _blocks(d2.shape[0]):
            height = codes[rows].shape[0]
            run, symbols = run_codes[:height], copy[:height]
            np.take(d2[rows], starts, axis=1, out=symbols, mode="clip")
            run[...] = symbols
            for t in range(1, s_max):
                live = lengths > t
                np.take(d2[rows], starts + t * live, axis=1, out=symbols, mode="clip")
                symbols *= live.astype(symbols.dtype)
                run *= np.where(live, k, 1)
                run += symbols
            present[run] = True
            codes[rows] = run
        used = np.flatnonzero(present)
        lookup = np.empty(present.size, dtype=np.min_scalar_type(max(used.size - 1, 0)))
        lookup[used] = np.arange(used.size)
        # The ids overwrite the codes' bytes from the front, no narrower
        # than the codes, so every block's codes are read before any id
        # reaches them.
        ids = codes.reshape(-1).view(np.uint8)[: codes.size * lookup.itemsize]
        ids = ids.view(lookup.dtype).reshape(codes.shape)
        for rows in _blocks(d2.shape[0]):
            height = codes[rows].shape[0]
            run_codes[:height] = codes[rows]
            np.take(lookup, run_codes[:height], out=ids[rows], mode="clip")
        del codes, run_codes, copy, run, symbols  # outside a workspace, freed here

    # Each used run's copies in order, decoded from its code, then one
    # reduceat over them all.
    blocks = np.split(used, np.searchsorted(used, base[1:-1]))
    symbols = [
        ((block - base[s - 1])[:, None] // k ** np.arange(s - 1, -1, -1) % k + 1).ravel()
        for s, block in enumerate(blocks, start=1)
    ]
    run_lengths = np.repeat(np.arange(1, len(blocks) + 1), [block.size for block in blocks])
    run_starts = np.cumsum(run_lengths) - run_lengths
    table = np.add.reduceat(log_channel.take(np.concatenate(symbols), axis=1), run_starts, axis=1)
    return table, ids


def _screen(
    table: np.ndarray,
    ids: np.ndarray,
    y_typical: np.ndarray,
    x_cells: np.ndarray,
    offset: np.ndarray,
    bound: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Float32 GEMM operands of the joint scores and each row's screen.

    ``table`` holds one column per distinct run of d2: table[x, u] is its
    log-likelihood given the 0-based source symbol x, finite and <= 0.
    Repeated row l's cell j is the run ``ids[l, j]``, so its joint score
    with anonymized row i is S[l, i] = sum_j table[x_ij, ids[l, j]] +
    offset[i], with x_ij = x_cells[i, j] (0-based symbols); the pair is
    typical when |S| <= bound. NaN in ``offset`` marks an X-atypical row,
    and ``y_typical`` False a Y-atypical one; their scores are NaN. Write
    cells[l, x, j] = table[x, ids[l, j]] below.

    d1's one-hot cells sum to 1 over the symbols of each column, so
    S = base_l + sum_{x >= 1, j} (cells[l, x, j] - cells[l, 0, j])
    [x_ij = x] + offset[i] with base_l = sum_j cells[l, 0, j]. The returned
    ``a @ b`` is S in float32 at width w = (k - 1) r + 2: ``a`` holds the
    differences, each taken once per run in the table and gathered by
    ``ids``, base_l and a column of ones (NaN for Y-atypical rows); ``b``
    holds the one-hot cells of symbols 1..k-1, a row of ones and the
    offset row. Both are borrowed in the caller's scope (``fanout.borrow``).

    Soundness, with u = 2^-24 and gamma_j = j u / (1 - j u): let
    T_l = sum_t |a[l, t]| (t < w - 1) + max_i |offset[i]|, summed as ``a``
    is built: each run's |differences| once, gathered by ``ids``. Every
    product in row l's dot products is bounded by these terms, so a
    float32 GEMM in any summation order is within gamma_w T_l of the
    exact product of the float32 operands (Higham, Theorem 3.1). Rounding
    the operands to float32 moves the exact value by at most gamma_2 T_l,
    and T_l itself is taken from the rounded operands. Since each cell is
    <= 0, sum_j |cells[l, x_ij, j]| <= |base_l| + sum of |differences|, so
    the float64 score, summed either way, is within 2 gamma'_{r+1} T_l of
    the exact one, with gamma' in float64 units: less than u T_l for
    r < 2^28. That is gamma_{w+3} T_l in all; T_l is summed in float64 at
    most w additions deep, in any order, and the margin's last u covers
    that rounding for w < 2^25. Hence |S32 - S64| <= delta_l = gamma_{w+4} T_l,
    and with ``hi`` = bound + delta_l and ``lo`` = bound - delta_l each rounded
    one float32 step outward (a step exceeds the float64 rounding of the sum):
      - |S64| <= bound implies |S32| <= hi: the screen keeps every pair
        the float64 formula finds typical;
      - |S32| <= lo implies |S64| <= bound: those hits need no recheck.
    Only lo < |S32| <= hi is decided in float64.
    """
    k = table.shape[0]
    m2, r = ids.shape
    m1 = x_cells.shape[0]
    w = (k - 1) * r + 2
    baseline = _gathered_sums(table[0], ids).astype(np.float32)
    differences = (table[1:] - table[:1]).astype(np.float32)
    scale = _gathered_sums(np.abs(differences).sum(axis=0, dtype=np.float64), ids)
    scale += np.abs(baseline)
    scale += np.fmax.reduce(np.abs(offset), initial=0.0)  # NaN marks skipped
    a = fanout.borrow((m2, w), np.float32)
    with fanout.scope():
        # One block's ids as intp, and their cells contiguous, as np.take
        # writes them: each block is then copied into its rows of ``a``.
        index = fanout.borrow((min(m2, MATCH_PART), r), np.intp)
        gathered = fanout.borrow((k - 1) * index.size, np.float32)
        for rows in _blocks(m2):
            height = ids[rows].shape[0]
            index[:height] = ids[rows]
            cells = gathered[: (k - 1) * height * r].reshape(k - 1, height, r)
            np.take(differences, index[:height], axis=1, out=cells, mode="clip")
            a[rows, : w - 2].reshape(height, k - 1, r).transpose(1, 0, 2)[...] = cells
        del index, gathered, cells  # outside a workspace, freed here as borrows are returned
    a[:, w - 2] = baseline
    a[:, w - 1] = np.where(y_typical, 1.0, np.nan)
    b = fanout.borrow((w, m1), np.float32)
    symbols = np.arange(1, k, dtype=x_cells.dtype)
    np.equal(x_cells.T, symbols[:, None, None], out=b[: w - 2].reshape(k - 1, r, m1))
    b[w - 2] = 1.0
    b[w - 1] = offset

    slack = scale * ((w + 4) * _F32_UNIT / (1.0 - (w + 4) * _F32_UNIT))
    hi = np.nextafter((bound + slack).astype(np.float32), np.float32(np.inf))
    lo = np.nextafter((bound - slack).astype(np.float32), np.float32(-np.inf))
    return a, b, lo, hi


def _at_least(values: np.ndarray, floor, mask: np.ndarray) -> np.ndarray:
    """Ascending indices of the entries of the flat ``values`` >= ``floor``.

    ``mask`` is a bool buffer of at least ``values.size`` entries rounded
    up to whole 8-byte words. Few entries reach the floor: a uint64 view
    finds the nonzero words, an eighth as many, and only those are
    searched byte by byte. On numpy 2.4.6 (2-core Xeon) a call took 31 us
    against 42 for ``np.flatnonzero`` on a 64 x 4096 tile, 38 against 48
    on 256 x 1024; end to end the two read within pair noise (README), so
    judge a swap by benchmark pairs.
    """
    size = values.size
    padded = -(-size // 8) * 8
    np.greater_equal(values, floor, out=mask[:size])
    mask[size:padded] = False
    nonzero = np.flatnonzero(mask[:padded].view(np.uint64) != 0)
    word, byte = np.nonzero(mask[:padded].reshape(-1, 8)[nonzero])
    flat = 8 * nonzero[word]
    flat += byte
    return flat


def _tiles(a: np.ndarray, b: np.ndarray, span: tuple[int, int], rows: int, tile: np.ndarray):
    """Yield ``(l0, c0, scores)``, scores[l - l0, i - c0] = (a @ b)[l, i], for
    every block of up to ``rows`` of the rows ``span`` and ``MATCH_PART``
    columns of ``b``: one float32 GEMM into a C-contiguous prefix of ``tile``
    (a strided out= is written through a copy), overwritten by the next."""
    p0, p1 = span
    m1 = b.shape[1]
    for l0 in range(p0, p1, rows):
        l1 = min(l0 + rows, p1)
        for c0 in range(0, m1, MATCH_PART):
            width = min(MATCH_PART, m1 - c0)
            scores = tile[: (l1 - l0) * width].reshape(l1 - l0, width)
            np.matmul(a[l0:l1], b[:, c0 : c0 + width], out=scores)
            yield l0, c0, scores


def _check_match_input(d1, d2, n: int, alphabet_size: int, epsilon: float) -> None:
    """Raise ValueError on row-matching input that is bad whatever the
    estimate: epsilon not a finite positive real (a bool is none), d1 or d2
    not 2-D, d1 not n columns wide, unequal row counts, a symbol not an
    integer in 1..alphabet_size, or epsilon past `match_rows`' clamp for
    any plug-in estimate (whose n H is at most log2(k) (n + d2's width))."""
    as_epsilon(epsilon)
    if d1.ndim != 2 or d2.ndim != 2:
        raise ValueError("databases must be 2-D")
    if d1.shape[1] != n:
        raise ValueError(f"d1 has {d1.shape[1]} columns, the repetition pattern {n}")
    if d1.shape[0] != d2.shape[0]:
        raise ValueError("row matching needs equal row counts on both sides")
    deletions.check_symbols(alphabet_size, d1, d2)
    most_joint = math.log2(max(alphabet_size, 1)) * (n + d2.shape[1])  # at least n H
    if -2.0 * (most_joint + n * epsilon + 1.0) < LOG_ZERO:
        raise ValueError(f"epsilon {epsilon:g} too large for {n} columns")


@fanout.scope()  # the arrays sized by the instance that it does not return are borrowed
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
    Any order of ``_tiles``' score tiles gives the same decisions. Each
    distinct run of d2 is scored once (``_cell_table``); a run too long
    to tabulate (``infotheory.check_table_size``) raises ValueError.
    """
    d1, d2, k = np.asarray(d1), segmented.d2, est.alphabet_size
    _check_match_input(d1, d2, segmented.n, k, epsilon)
    # Symbols lie in 1..k now: the least unsigned type holding k reads them.
    d1, d2 = (mat.astype(np.min_scalar_type(k), copy=False) for mat in (d1, d2))
    (m1, n), m2 = d1.shape, d2.shape[0]
    # Zero-probability cells sit at LOG_ZERO; the clamp below must reach them.
    penalty = -2.0 * (n * (est.joint_entropy + epsilon) + 1.0)
    if not penalty >= LOG_ZERO:  # NaN too: it would silently match no row
        raise ValueError(
            f"no finite clamp for {n} columns: the estimate's joint entropy is "
            f"{est.joint_entropy:g}, epsilon {epsilon:g}"
        )
    retained = np.flatnonzero(segmented.pattern.s)

    # X-marginal deviation: depends on the anonymized row only. A zero in
    # front of the log-probabilities lets d1's symbols 1..k index them.
    log_px = np.zeros(k + 1)
    log_px[1:] = _safe_log2(est.p_x)
    ll_x = _gathered_sums(log_px, d1)
    dev_x = np.abs(-ll_x / n - est.x_entropy)

    # table[x, ids[l, j]]: log2 p(cell j of repeated row l | X = x) over the
    # retained cells; the copies are conditionally independent given x,
    # and the runs tile d2's columns in order. An erasure is certain
    # whatever x is, so it adds nothing to the joint or Y log-likelihood.
    log_channel = np.zeros((k, k + 1))
    log_channel[:, 1:] = _safe_log2(est.p_y_given_x)
    table, ids = _cell_table(
        d2, segmented.offsets[retained], segmented.pattern.s[retained], log_channel
    )

    # Y-marginal deviation: depends on the repeated row only; each cell's
    # probability is its likelihood averaged over the source symbol.
    log_q_y = _safe_log2(np.matmul(est.p_x, np.exp2(table)))
    dev_y = np.abs(-_gathered_sums(log_q_y, ids) / n - est.y_entropy)

    # Joint typicality: |-(joint_ll + ll_x) / n - H| <= eps is |S| <= n eps
    # with S = joint_ll + ll_x + n H. Every cell log-likelihood and ll_x
    # is <= 0, so a pair with a cell below P = -2 (n (H + eps) + 1) has
    # S <= P + n H < -n eps whether that cell keeps its value or is
    # clamped to P: the pair is atypical either way. The clamp keeps the
    # cells finite, so their differences in the screen do not cancel.
    np.maximum(table, penalty, out=table)
    offset = np.where(dev_x <= epsilon, ll_x + n * est.joint_entropy, np.nan)
    bound = n * epsilon
    x_cells = fanout.borrow((m1, retained.size), d1.dtype)
    np.take(d1, retained, axis=1, out=x_cells, mode="clip")
    x_cells -= 1  # 0-based, in d1's own dtype
    a, b, lo, hi = _screen(table, ids, dev_y <= epsilon, x_cells, offset, bound)

    # One one-sided compare per tile. A pair the float64 rule finds typical
    # has S32 >= -hi[l] >= -max(hi) over the tile's rows, so every pair
    # below that floor is atypical, as is every NaN score (never >=). The
    # rest are typical up to lo, decided by `recheck` in the band
    # lo < |S32| <= hi, and atypical beyond it (scores above +n eps too).
    # A row's hit count and one of its hits outlive the tile; the hit is
    # read only where the count is 1, so tiles may come in any order. The
    # repeated rows split into contiguous parts over the thread budget
    # (fanout.parts), each row decided on one thread; all the parts'
    # tiles and recheck chunks share one TILE_BYTES.
    spans = fanout.parts(m2, MATCH_PART)
    rows = max(1, TILE_BYTES // (8 * MATCH_PART * len(spans)))
    chunk = max(1, TILE_BYTES // (16 * (retained.size + 3) * len(spans)))
    counts, any_hit = fanout.borrow((2, m2), np.intp)
    counts.fill(0)
    sizes = [min(rows, p1 - p0) * MATCH_PART for p0, p1 in spans]
    buffers = [
        (fanout.borrow(size, np.float32), fanout.borrow(-(-size // 8) * 8, bool)) for size in sizes
    ]

    def recheck(l, i, band, hit):
        """Decide the pairs (l, i)[band] in float64 into ``hit``, ``chunk`` at a time."""
        for c in range(0, band.size, chunk):
            at = band[c : c + chunk]
            pl, pi = l[at], i[at]
            hit[at] = np.abs(table[x_cells[pi], ids[pl]].sum(axis=1) + offset[pi]) <= bound

    def typicality(j):
        tile, mask = buffers[j]
        for l0, c0, scores in _tiles(a, b, spans[j], rows, tile):
            height, width = scores.shape
            floor = -hi[l0 : l0 + height].max()
            l, i = np.divmod(_at_least(scores.ravel(), floor, mask), width)
            magnitude = np.abs(scores[l, i])
            l += l0
            i += c0
            hit = magnitude <= lo[l]
            band = np.flatnonzero(np.not_equal(magnitude <= hi[l], hit))
            del magnitude  # match_bytes counts it only until here
            recheck(l, i, band, hit)
            l = l[hit]
            any_hit[l] = i[hit]
            counts[l0 : l0 + height] += np.bincount(l - l0, minlength=height)
            del l, i, hit, band  # nothing per candidate outlives its tile

    fanout.fan_out(typicality, range(len(spans)))
    unique = counts == 1
    assigned = np.where(unique, any_hit, -1)
    status = np.where(
        unique, STATUS_MATCHED, np.where(counts == 0, STATUS_NO_CANDIDATE, STATUS_AMBIGUOUS)
    ).astype(np.int8)

    # Two repeated rows claiming one anonymized row cannot both be right.
    claims = np.bincount(assigned[unique], minlength=m1)
    collided = unique & (claims[assigned] > 1)
    status[collided] = STATUS_AMBIGUOUS
    assigned[collided] = -1
    return MatchResult(assigned=assigned, status=status)


def match_bytes(m: int, n: int, s_max: int, alphabet_size: int) -> int:
    """Upper bound on `match_rows`' working set at m rows, on any thread budget.

    Every array it holds is linear in m, except the table of distinct runs, the
    blocks of its preparation, the tiles of joint scores and the chunks of the
    float64 recheck. Per row it holds the run ids, in the bytes of the run
    codes (the least unsigned dtype that holds the code space), the uint8
    ``x_cells`` and the float32 GEMM
    operands ``a`` and ``b`` (8 w bytes at the GEMM width w = (k - 1) n + 2);
    per-row vectors add 64 bytes. Its preparation gathers MATCH_PART rows at a
    time, at most 16 bytes per cell of a block: a float64 gather and its intp
    indices. Runs of up to s_max copies take sum_{s <= s_max} k^s codes, each
    with a presence flag and an index in the ids' dtype; each distinct run, at
    most min(m * n, codes) of them, holds its decoded copies, their k
    log-likelihoods each, its k cells and their exp2, and a few scalars. The
    tiles of all row parts, MATCH_PART columns wide, share TILE_BYTES or are one
    row high in at most m / MATCH_PART parts, so they hold at most
    max(TILE_BYTES // 8, m) float32 scores and their bool masks between them. At
    worst every score is a candidate, so per score the tiles also hold, at once,
    the candidate's int64 row and column, its float32 |S32|, two bool masks and
    the int64 index of the band to recheck; the search for candidates holds
    less, an int64 flat index and the two int64 halves it is built from. The
    recheck chunks of all parts hold at most 17 bytes per gathered cell between
    them, under 2 * TILE_BYTES. Each of its at most 8 borrows, and 2 per row
    part, is carved on an ALIGN-byte boundary (``fanout.borrow``).
    """
    k = alphabet_size
    w = (k - 1) * n + 2
    codes = sum(k**s for s in range(s_max + 1))
    runs = min(m * n, codes)
    id_bytes = np.min_scalar_type(max(runs - 1, 0)).itemsize
    code_bytes = np.min_scalar_type(codes - 1).itemsize
    per_row = (code_bytes + 1) * n + 8 * w + 64
    block = 16 * min(m, MATCH_PART) * n
    table = (1 + id_bytes) * codes + runs * (8 * s_max * (k + 4) + 16 * k + 64)
    per_score = 4 + 1 + (8 + 8 + 4 + 1 + 1 + 8)  # tile, mask, then each candidate's share
    tile = per_score * max(TILE_BYTES // 8, m) + 2 * TILE_BYTES
    padding = fanout.ALIGN * (8 + 2 * max(1, m // MATCH_PART))
    return m * per_row + block + table + tile + padding


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


@fanout.scope()  # g2's first column of each run is borrowed
def estimate_stages(
    d2: np.ndarray,
    g1: np.ndarray,
    g2: np.ndarray,
    alphabet_size: int,
) -> PipelineResult:
    """Every stage before matching: replicas, deletions, pattern, estimate.

    Replica detection runs once, on d2's rows alone, and groups its
    columns into runs. The seeds share d2's pattern, so g2 can stand in
    for d2, and deletion detection reads g2's first column of each run.
    It retains one original column per run, in order, which the pattern
    gives that run's length (0 to deleted ones). The estimate covers
    counts up to the largest detected one. Detection failures, and a
    detected count too long to tabulate, are recorded in the result
    instead of raising. Bad input raises ValueError before any stage
    runs: a d2 that is not 2-D, seeds that `deletions.check_seeds`
    rejects, or a g2 whose column count is not d2's.
    """
    d2, g1, g2 = np.asarray(d2), np.asarray(g1), np.asarray(g2)
    if d2.ndim != 2:
        raise ValueError("databases must be 2-D")
    deletions.check_seeds(g1, g2, alphabet_size)
    if g2.shape[1] != d2.shape[1]:
        raise ValueError("g2 must share the database's repetition pattern")
    n = g1.shape[1]
    result = PipelineResult()

    try:
        result.is_replica = replicas.detect_replicas(d2)
    except replicas.SingleComponentError as exc:
        return result.fail("replica", exc)
    starts, lengths = replicas.column_runs(result.is_replica, d2.shape[1])
    if starts.size > n:
        return result.fail(
            "replica", ValueError(f"{starts.size} replica runs for {n} original columns")
        )

    first = fanout.borrow((g2.shape[0], starts.size), g2.dtype)  # g2[:, starts]
    np.take(g2, starts, axis=1, out=first, mode="clip")
    try:
        result.retention = deletions.detect_deletions(g1, first, alphabet_size)
    except (deletions.MisdetectionError, deletions.NoUsefulRemappingError) as exc:
        return result.fail("deletion", exc)
    del first  # outside a workspace, freed here

    s = np.zeros(n, dtype=np.int64)
    s[result.retention.retained] = lengths
    try:
        check_table_size(alphabet_size, int(s.max()))
    except ValueError as exc:
        return result.fail("pattern", exc)
    result.pattern = RepetitionPattern(s)
    result.estimate = estimation.estimate_from_seeds(result.retention, result.pattern)
    return result


def deanonymize(
    d1: np.ndarray,
    d2: np.ndarray,
    g1: np.ndarray,
    g2: np.ndarray,
    alphabet_size: int,
    epsilon: float = DEFAULT_EPSILON,
) -> PipelineResult:
    """Full pipeline: ``estimate_stages``, then match rows.

    Of the model, only ``alphabet_size`` is assumed known. Algorithmic
    failures are recorded, never raised, so a Monte Carlo harness never
    aborts. Bad input raises ValueError before any stage runs: seeds
    that `deletions.check_seeds` rejects, then the matcher's own checks.
    """
    d1, d2 = np.asarray(d1), np.asarray(d2)
    deletions.check_seeds(g1, g2, alphabet_size)
    _check_match_input(d1, d2, np.shape(g1)[1], alphabet_size, epsilon)
    result = estimate_stages(d2, g1, g2, alphabet_size)
    if result.ok:
        result.match = match_rows(d1, segment(d2, result.pattern), result.estimate, epsilon)
    return result
