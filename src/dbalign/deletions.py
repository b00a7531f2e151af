"""Seeded deletion detection via an alphabet-remapping outlier scan.

Each replica-free seed column on the repeated side is correlated with
exactly one original seed column, so in the cross Hamming-distance
matrix that one entry deviates from the grand mean while the remaining
n-1 entries in its column concentrate around it. Some channels hide the
correlated entry under the identity map, so the scan sweeps bijective
symbol remappings of the repeated side until one separates an outlier
in every column. The outlier's row index is the retained original
column. The threshold depends only on the seed count and the column
count, so it is computed once per detection. The seeds are read once,
into symbol co-occurrence counts and g1's symbol totals. Every remapping's
distance matrix is read off those counts, as is the symbol-pair table at
the detected column pairs; the totals are the source's counts.
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import fanout

MAX_REMAP_ALPHABET = 8  # 8! = 40320 remappings; larger sweeps are rejected

MIN_COLUMNS = 3  # an outlier needs a bulk to stand out from

# c of the threshold c * Lambda^(2/3) * (log2 n)^(1/3); the seed-size
# claim holds for any fixed c.
THRESHOLD_CONSTANT = 2.0

# Seed rows one-hot encoded at a time by `cooccurrence`; bounds its
# working set independently of the seed count, and keeps every count in
# a block's float32 product below 2^24, where float32 sums are exact.
SEED_BLOCK = 2048


class MisdetectionError(RuntimeError):
    """A seed column selected zero-or-multiple original columns in a way
    that cannot be a valid retention set."""


class NoUsefulRemappingError(RuntimeError):
    """Every alphabet remapping was swept without separating outliers."""


@dataclass(frozen=True)
class RetentionResult:
    """Detected retained/deleted original column indices (0-based).

    ``pair_counts[x, y]`` counts seed entries where a retained original
    column holds x+1 and its replica-free seed column holds y+1.
    ``source_counts[x]`` counts g1 entries equal to x+1.
    """

    retained: np.ndarray
    deleted: np.ndarray
    n: int
    pair_counts: np.ndarray
    source_counts: np.ndarray


def check_remap_alphabet(alphabet_size: int) -> None:
    """Raise ValueError unless the alphabet is positive and within the remapping cap."""
    if alphabet_size < 1:
        raise ValueError("alphabet size must be positive")
    if alphabet_size > MAX_REMAP_ALPHABET:
        raise ValueError(
            f"alphabet size {alphabet_size} exceeds remapping cap {MAX_REMAP_ALPHABET}"
        )


def enumerate_remappings(alphabet_size: int) -> Iterator[np.ndarray]:
    """All bijections of the symbol alphabet, lexicographic, identity first.

    ``phi[x - 1]`` is the image of symbol x. The cap is checked at the
    call, and each remapping is built as the sweep reads it.
    """
    check_remap_alphabet(alphabet_size)
    symbols = range(1, alphabet_size + 1)
    return (np.array(p, dtype=np.uint8) for p in itertools.permutations(symbols))


def infer_alphabet_size(*mats: np.ndarray) -> int:
    """Alphabet size when unknown: the largest symbol in any matrix, empty or not."""
    return max(int(np.max(mat, initial=0)) for mat in mats)


def check_symbols(alphabet_size: int, *mats: np.ndarray) -> None:
    """Raise ValueError unless every matrix holds integers in 1..alphabet_size."""
    for mat in map(np.asarray, mats):
        if mat.dtype.kind not in "iu":
            raise ValueError(f"symbols must be integers, got dtype {mat.dtype}")
        if mat.size and (mat.min() < 1 or mat.max() > alphabet_size):
            raise ValueError(f"symbols must lie in 1..{alphabet_size}")


def check_seeds(g1: np.ndarray, g2: np.ndarray, alphabet_size: int) -> None:
    """Raise ValueError unless g1 and g2 are a seed pair, in this order: both
    2-D, equal row counts, a seed row, MIN_COLUMNS original columns, an
    integer alphabet size (a bool is none), every symbol in
    1..alphabet_size, and the alphabet within the remapping cap."""
    if np.ndim(g1) != 2 or np.ndim(g2) != 2:
        raise ValueError("seed matrices must be 2-D")
    num_seeds, n = np.shape(g1)
    if num_seeds != np.shape(g2)[0]:
        raise ValueError("seed matrices must have the same row count")
    if num_seeds < 1:
        raise ValueError("need at least one seed row")
    if n < MIN_COLUMNS:
        raise ValueError(f"need at least {MIN_COLUMNS} original columns")
    if isinstance(alphabet_size, bool) or not isinstance(alphabet_size, numbers.Integral):
        raise ValueError(f"alphabet size must be an integer, got {alphabet_size!r}")
    check_symbols(alphabet_size, g1, g2)
    check_remap_alphabet(alphabet_size)


def deletion_threshold(num_seeds: int, n: int) -> float:
    """Outlier threshold: THRESHOLD_CONSTANT * Lambda^(2/3) * (log2 n)^(1/3).

    Grows sublinearly in the seed count, so true outliers (which deviate
    proportionally to Lambda) clear it while bulk fluctuations stay
    below.
    """
    return THRESHOLD_CONSTANT * num_seeds ** (2.0 / 3.0) * math.log2(n) ** (1.0 / 3.0)


def cooccurrence(
    g1: np.ndarray, g2: np.ndarray, alphabet_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Symbol co-occurrence counts between every g1 and every g2 column,
    and g1's symbol totals.

    ``C[x, i, y, j]`` (int64) is the number of seed rows where g1 column
    i holds symbol x+1 and g2 column j holds y+1; ``source_counts[x]``
    (int64) is the number of g1 entries equal to x+1.

    Only symbols 2..k are one-hot encoded, as float32 indicators, each
    operand closed by a column of ones. One GEMM per block of SEED_BLOCK
    seed rows then gives C at x, y >= 1, g1's per-column symbol counts
    N1[x, i] (against g2's ones), g2's N2[y, j] (against g1's ones) and
    the block's row count. Every entry of a block's product is a count of
    at most SEED_BLOCK < 2^24 rows; each partial sum is an integer of at
    most that size, so every float32 addition is exact, in whatever order
    the GEMM sums. Each product is added straight into a float64 total,
    whose integer sums stay exact below 2^53, and the totals are cast to
    int64 once, as the counts are built. The blocks split into contiguous
    runs over the calling thread's budget (``fanout.parts``), each run
    with its own operands, product and total, and the totals are summed:
    exact integers, so the split never changes a count.
    Symbol 1's rows and columns are the complements over the other
    symbols, in integers:

        C[0, i, y, j] = N2[y, j] - sum_{x >= 1} C[x, i, y, j]
        C[x, i, 0, j] = N1[x, i] - sum_{y >= 1} C[x, i, y, j]
        C[0, i, 0, j] = Lambda - sum_x N1[x, i] - sum_y N2[y, j]
                        + sum_{x, y >= 1} C[x, i, y, j]

    which is one subtraction along the g1 symbol axis and then one along
    the g2 symbol axis. The source totals are N1 summed over the columns,
    and symbol 1's is Lambda * n minus the rest, with or without g2 columns.
    """
    g1 = np.asarray(g1)
    g2 = np.asarray(g2)
    if g1.shape[0] != g2.shape[0]:
        raise ValueError("seed matrices must have the same row count")
    num_seeds, n = g1.shape
    kt = g2.shape[1]
    k = alphabet_size
    block = min(num_seeds, SEED_BLOCK)
    starts = range(0, num_seeds, SEED_BLOCK)
    spans = fanout.parts(len(starts), 1)
    width1, width2 = (k - 1) * n + 1, (k - 1) * kt + 1
    buffers = [
        (
            np.ones((block, width1), dtype=np.float32),
            np.ones((block, width2), dtype=np.float32),
            np.empty((width1, width2), dtype=np.float32),
            np.zeros((width1, width2)),
        )
        for _ in spans
    ]

    def tabulate(j):
        hot1, hot2, product, total = buffers[j]
        for start in starts[slice(*spans[j])]:
            b1 = g1[start : start + SEED_BLOCK]
            b2 = g2[start : start + SEED_BLOCK]
            rows = b1.shape[0]
            for x in range(2, k + 1):
                np.equal(b1, b1.dtype.type(x), out=hot1[:rows, (x - 2) * n : (x - 1) * n])
                np.equal(b2, b2.dtype.type(x), out=hot2[:rows, (x - 2) * kt : (x - 1) * kt])
            np.matmul(hot1[:rows].T, hot2[:rows], out=product)
            total += product
        return total

    total, *others = fanout.fan_out(tabulate, range(len(spans)))
    for other in others:
        total += other
    del buffers, others  # only the sum outlives the tabulation

    n1 = total[:-1, -1].reshape(k - 1, n)
    counts = np.empty((k, n, k, kt), dtype=np.int64)  # the totals are cast to int64 here
    counts[1:, :, 1:] = total[:-1, :-1].reshape(k - 1, n, k - 1, kt)
    counts[1:, :, 0] = n1[..., None]
    counts[0, :, 1:] = total[-1, :-1].reshape(k - 1, kt)
    counts[0, :, 0] = num_seeds
    counts[0] -= counts[1:].sum(axis=0)
    counts[:, :, 0] -= counts[:, :, 1:].sum(axis=2)
    source_counts = np.concatenate([[num_seeds * n - n1.sum()], n1.sum(axis=1)])
    return counts, source_counts.astype(np.int64)


def seed_bytes(n: int, num_seeds: int, alphabet_size: int, threads: int = 1) -> int:
    """Upper bound on the seed stages' working set: deletion detection, with
    at most n replica-free g2 columns, on a thread budget of ``threads``.
    The plug-in estimate reads only the counts detection returns.

    Each of `cooccurrence`'s parts, one per thread the budget gives its
    seed blocks, holds two float32 operands of one seed block by
    (k - 1) * n + 1 columns, one block's float32 product and the float64
    total of the products; then come the k^2 * n^2 int64 counts with one
    k * n^2 sum while symbol 1's counts are rebuilt. Each remapping of the
    sweep gathers k * n^2 counts, sums them to n^2 distances and scans
    their float64 deviations.
    """
    k = alphabet_size
    width = (k - 1) * n + 1
    block = min(num_seeds, SEED_BLOCK)
    parts = len(fanout.parts(-(-num_seeds // SEED_BLOCK), 1, threads))
    operands = 4 * block * 2 * width
    products = (4 + 8) * width * width
    counts = 8 * k * k * n * n + 8 * (k + 4) * n * n
    return parts * (operands + products) + counts


def cross_hamming(
    g1: np.ndarray, g2: np.ndarray, phi: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Distances between every g1 column and every remapped g2 column.

    ``l[i, j]`` (int64) counts seed rows where g1 column i and remapped
    g2 column j disagree. Read off the co-occurrence counts of g1 and g2
    (`cooccurrence` with ``alphabet_size == len(phi)``): g1 column i
    agrees with remapped g2 column j on every row where g2 holds y and g1
    holds phi(y), so ``l = Lambda - sum_y C[phi(y)-1, :, y-1, :]``.
    """
    g1 = np.asarray(g1)
    g2 = np.asarray(g2)
    if g1.shape[0] != g2.shape[0]:
        raise ValueError("seed matrices must have the same row count")
    num_seeds, n = g1.shape
    kt = g2.shape[1]
    phi = np.asarray(phi)
    k = phi.size
    if counts.shape != (k, n, k, kt):
        raise ValueError(f"counts must have shape {(k, n, k, kt)}")
    agree = counts[phi.astype(np.intp) - 1, :, np.arange(k), :].sum(axis=0)
    return num_seeds - agree


def scan_remapping(l: np.ndarray, tau_hat: float) -> np.ndarray | None:
    """Outlier scan of one remapping's distance matrix ``l``.

    Walks the columns in order counting entries whose absolute deviation
    from the grand mean of ``l`` (0 when empty) reaches ``tau_hat``. The
    first anomalous column decides: more than one outlier raises
    MisdetectionError, zero outliers means the remapping is useless
    (returns None). Otherwise the per-column outlier rows are returned;
    they must be strictly increasing since repetition preserves column
    order, and any other arrangement is a misdetection.
    """
    mu = float(l.mean()) if l.size else 0.0
    outlier = np.abs(l - mu) >= tau_hat
    counts = outlier.sum(axis=0)
    anomalies = np.flatnonzero(counts != 1)
    if anomalies.size:
        first = anomalies[0]
        if counts[first] > 1:
            raise MisdetectionError(
                f"column {first} has {counts[first]} outliers"
            )
        return None
    rows = np.argmax(outlier, axis=0)
    if np.any(np.diff(rows) <= 0):
        raise MisdetectionError("outlier rows are not strictly increasing")
    return rows


def detect_deletions(g1: np.ndarray, g2: np.ndarray, alphabet_size: int) -> RetentionResult:
    """Infer which original columns survived, from replica-free seeds.

    g2 must already be replica-free (one column per retained original
    column; with none, every original column is deleted). Sweeps
    remappings in lexicographic order and returns the retention set of
    the first useful one, with the symbol-pair counts at its column pairs
    and g1's symbol totals.

    Raises ValueError on seeds `check_seeds` rejects or a g2 wider than
    g1, MisdetectionError on an inconsistent outlier pattern and
    NoUsefulRemappingError when the sweep is exhausted.
    """
    g1, g2 = np.asarray(g1), np.asarray(g2)
    check_seeds(g1, g2, alphabet_size)
    num_seeds, n = g1.shape
    kt = g2.shape[1]
    if kt > n:
        raise ValueError("replica-free g2 cannot have more columns than g1")
    tau_hat = deletion_threshold(num_seeds, n)
    counts, source_counts = cooccurrence(g1, g2, alphabet_size)
    for phi in enumerate_remappings(alphabet_size):
        rows = scan_remapping(cross_hamming(g1, g2, phi, counts), tau_hat)
        if rows is not None:
            deleted = np.setdiff1d(np.arange(n), rows)
            pair_counts = counts[:, rows, :, np.arange(kt)].sum(axis=0)
            return RetentionResult(rows, deleted, n, pair_counts, source_counts)
    raise NoUsefulRemappingError("all remappings useless")
