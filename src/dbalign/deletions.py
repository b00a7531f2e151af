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
into symbol co-occurrence counts, and every remapping's distance matrix
is read off those counts, as is the symbol-pair table at the detected
column pairs.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

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
    """

    retained: np.ndarray
    deleted: np.ndarray
    n: int
    pair_counts: np.ndarray


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
    """Raise ValueError unless every symbol in every matrix lies in 1..alphabet_size."""
    for mat in mats:
        if np.size(mat) and (np.min(mat) < 1 or np.max(mat) > alphabet_size):
            raise ValueError(f"symbols must lie in 1..{alphabet_size}")


def deletion_threshold(num_seeds: int, n: int) -> float:
    """Outlier threshold: THRESHOLD_CONSTANT * Lambda^(2/3) * (log2 n)^(1/3).

    Grows sublinearly in the seed count, so true outliers (which deviate
    proportionally to Lambda) clear it while bulk fluctuations stay
    below.
    """
    return THRESHOLD_CONSTANT * num_seeds ** (2.0 / 3.0) * math.log2(n) ** (1.0 / 3.0)


def cooccurrence(g1: np.ndarray, g2: np.ndarray, alphabet_size: int) -> np.ndarray:
    """Symbol co-occurrence counts between every g1 and every g2 column.

    ``C[x, i, y, j]`` (int64) is the number of seed rows where g1 column
    i holds symbol x+1 and g2 column j holds y+1.

    Only symbols 2..k are one-hot encoded, as float32 indicators, each
    operand closed by a column of ones. One GEMM per block of SEED_BLOCK
    seed rows then gives C at x, y >= 1, g1's per-column symbol counts
    N1[x, i] (against g2's ones), g2's N2[y, j] (against g1's ones) and
    the block's row count. Every entry of a block's product is a count of
    at most SEED_BLOCK < 2^24 rows; each partial sum is an integer of at
    most that size, so every float32 addition is exact, in whatever order
    the GEMM sums. The products are added into an int64 accumulator.
    Symbol 1's rows and columns are the complements over the other
    symbols, in integers:

        C[0, i, y, j] = N2[y, j] - sum_{x >= 1} C[x, i, y, j]
        C[x, i, 0, j] = N1[x, i] - sum_{y >= 1} C[x, i, y, j]
        C[0, i, 0, j] = Lambda - sum_x N1[x, i] - sum_y N2[y, j]
                        + sum_{x, y >= 1} C[x, i, y, j]

    which is one subtraction along the g1 symbol axis and then one along
    the g2 symbol axis.
    """
    g1 = np.asarray(g1)
    g2 = np.asarray(g2)
    if g1.shape[0] != g2.shape[0]:
        raise ValueError("seed matrices must have the same row count")
    num_seeds, n = g1.shape
    kt = g2.shape[1]
    k = alphabet_size
    block = min(num_seeds, SEED_BLOCK)
    hot1 = np.ones((block, (k - 1) * n + 1), dtype=np.float32)
    hot2 = np.ones((block, (k - 1) * kt + 1), dtype=np.float32)
    total = np.zeros((hot1.shape[1], hot2.shape[1]), dtype=np.int64)
    for start in range(0, num_seeds, SEED_BLOCK):
        b1 = g1[start : start + SEED_BLOCK]
        b2 = g2[start : start + SEED_BLOCK]
        rows = b1.shape[0]
        for x in range(2, k + 1):
            np.equal(b1, b1.dtype.type(x), out=hot1[:rows, (x - 2) * n : (x - 1) * n])
            np.equal(b2, b2.dtype.type(x), out=hot2[:rows, (x - 2) * kt : (x - 1) * kt])
        total += (hot1[:rows].T @ hot2[:rows]).astype(np.int64)

    counts = np.empty((k, n, k, kt), dtype=np.int64)
    counts[1:, :, 1:] = total[:-1, :-1].reshape(k - 1, n, k - 1, kt)
    counts[1:, :, 0] = total[:-1, -1].reshape(k - 1, n, 1)
    counts[0, :, 1:] = total[-1, :-1].reshape(k - 1, kt)
    counts[0, :, 0] = num_seeds
    counts[0] -= counts[1:].sum(axis=0)
    counts[:, :, 0] -= counts[:, :, 1:].sum(axis=2)
    return counts


def seed_bytes(n: int, num_seeds: int, alphabet_size: int) -> int:
    """Upper bound on the seed stages' working set: deletion detection and
    the plug-in estimate, with at most n replica-free g2 columns.

    `cooccurrence` holds two float32 operands of one seed block by
    (k - 1) * n + 1 columns, the int64 accumulator of their products, one
    block's float32 product and its int64 cast, and then the k^2 * n^2
    int64 counts with one k * n^2 sum while symbol 1's counts are rebuilt.
    Each remapping of the sweep gathers k * n^2 counts, sums them to n^2
    distances and scans their float64 deviations. The source estimate
    holds one bool mask of the seeds at a time.
    """
    k = alphabet_size
    width = (k - 1) * n + 1
    block = min(num_seeds, SEED_BLOCK)
    operands = 4 * block * 2 * width
    products = (8 + 4 + 8) * width * width
    counts = 8 * k * k * n * n + 8 * (k + 4) * n * n
    return operands + products + counts + num_seeds * n


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
    if rows.size > 1 and np.any(np.diff(rows) <= 0):
        raise MisdetectionError("outlier rows are not strictly increasing")
    return rows


def detect_deletions(
    g1: np.ndarray,
    g2: np.ndarray,
    alphabet_size: int,
    *,
    counts: np.ndarray | None = None,
) -> RetentionResult:
    """Infer which original columns survived, from replica-free seeds.

    g2 must already be replica-free (one column per retained original
    column; with none, every original column is deleted). Sweeps
    remappings in lexicographic order and returns the retention set of
    the first useful one, with the symbol-pair counts at its column pairs.
    Pass ``counts`` (from `cooccurrence` of the same g1, g2 and alphabet)
    to reuse them; they are computed here when omitted.

    Raises MisdetectionError on an inconsistent outlier pattern and
    NoUsefulRemappingError when the sweep is exhausted.
    """
    g1 = np.asarray(g1)
    g2 = np.asarray(g2)
    if g1.shape[0] != g2.shape[0]:
        raise ValueError("seed matrices must have the same row count")
    n = g1.shape[1]
    kt = g2.shape[1]
    if n < MIN_COLUMNS:
        raise ValueError(f"need at least {MIN_COLUMNS} original columns")
    if kt > n:
        raise ValueError("replica-free g2 cannot have more columns than g1")
    check_symbols(alphabet_size, g1, g2)
    remappings = enumerate_remappings(alphabet_size)  # rejects a large alphabet first
    tau_hat = deletion_threshold(g1.shape[0], n)
    if counts is None:
        counts = cooccurrence(g1, g2, alphabet_size)
    for phi in remappings:
        rows = scan_remapping(cross_hamming(g1, g2, phi, counts), tau_hat)
        if rows is not None:
            deleted = np.setdiff1d(np.arange(n), rows)
            pair_counts = counts[:, rows, :, np.arange(kt)].sum(axis=0)
            return RetentionResult(retained=rows, deleted=deleted, n=n, pair_counts=pair_counts)
    raise NoUsefulRemappingError("all remappings useless")
