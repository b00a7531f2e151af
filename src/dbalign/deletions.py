"""Seeded deletion detection via an alphabet-remapping outlier scan.

Each replica-free seed column on the repeated side is correlated with
exactly one original seed column, so in the cross Hamming-distance
matrix that one entry deviates from the grand mean while the remaining
n-1 entries in its column concentrate around it. Some channels hide the
correlated entry under the identity map, so the scan sweeps bijective
symbol remappings of the repeated side until one separates an outlier
in every column. The outlier's row index is the retained original
column.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

MAX_REMAP_ALPHABET = 8  # 8! = 40320 remappings; larger sweeps are rejected

MIN_COLUMNS = 3  # an outlier needs a bulk to stand out from


class MisdetectionError(RuntimeError):
    """A seed column selected zero-or-multiple original columns in a way
    that cannot be a valid retention set."""


class NoUsefulRemappingError(RuntimeError):
    """Every alphabet remapping was swept without separating outliers."""


@dataclass(frozen=True)
class CrossDistanceMatrix:
    """Column-to-column Hamming distances under one remapping.

    ``l[i, j]`` counts seed rows where original column i and remapped
    repeated column j disagree; ``mu`` is the grand mean and ``tau_hat``
    the outlier threshold used by the scan.
    """

    l: np.ndarray
    mu: float
    tau_hat: float


@dataclass(frozen=True)
class RetentionResult:
    """Detected retained/deleted original column indices (0-based)."""

    retained: np.ndarray
    deleted: np.ndarray
    n: int

    @property
    def num_retained(self) -> int:
        return self.retained.size


def enumerate_remappings(alphabet_size: int) -> list[np.ndarray]:
    """All bijections of the symbol alphabet, lexicographic, identity first.

    ``phi[x - 1]`` is the image of symbol x.
    """
    if alphabet_size < 1:
        raise ValueError("alphabet size must be positive")
    if alphabet_size > MAX_REMAP_ALPHABET:
        raise ValueError(
            f"alphabet size {alphabet_size} exceeds remapping cap {MAX_REMAP_ALPHABET}"
        )
    symbols = range(1, alphabet_size + 1)
    return [np.array(p, dtype=np.uint8) for p in itertools.permutations(symbols)]


def infer_alphabet_size(*mats: np.ndarray) -> int:
    """Alphabet size when unknown: the largest symbol in any matrix, empty or not."""
    return max(int(np.max(mat, initial=0)) for mat in mats)


def check_symbols(alphabet_size: int, *mats: np.ndarray) -> None:
    """Raise ValueError unless every symbol in every matrix lies in 1..alphabet_size."""
    for mat in mats:
        if np.size(mat) and (np.min(mat) < 1 or np.max(mat) > alphabet_size):
            raise ValueError(f"symbols must lie in 1..{alphabet_size}")


def deletion_threshold(num_seeds: int, n: int, constant: float = 2.0) -> float:
    """Outlier threshold: constant * Lambda^(2/3) * (log2 n)^(1/3).

    Grows sublinearly in the seed count, so true outliers (which deviate
    proportionally to Lambda) clear it while bulk fluctuations stay
    below.
    """
    return constant * num_seeds ** (2.0 / 3.0) * math.log2(n) ** (1.0 / 3.0)


def cross_hamming(
    g1: np.ndarray,
    g2: np.ndarray,
    phi: np.ndarray,
    threshold_constant: float = 2.0,
) -> CrossDistanceMatrix:
    """Distances between every g1 column and every remapped g2 column."""
    g1 = np.asarray(g1)
    g2 = np.asarray(g2)
    if g1.shape[0] != g2.shape[0]:
        raise ValueError("seed matrices must have the same row count")
    num_seeds, n = g1.shape
    kt = g2.shape[1]
    phi = np.asarray(phi)
    mapped = phi[g2.astype(np.intp) - 1]
    l = np.empty((n, kt), dtype=np.int64)
    for i in range(n):
        l[i] = (g1[:, i : i + 1] != mapped).sum(axis=0)
    return CrossDistanceMatrix(
        l=l,
        mu=float(l.mean()) if l.size else 0.0,
        tau_hat=deletion_threshold(num_seeds, n, threshold_constant),
    )


def scan_remapping(cross: CrossDistanceMatrix) -> np.ndarray | None:
    """Outlier scan of one remapping's distance matrix.

    Walks the columns in order counting entries whose absolute deviation
    from the mean reaches the threshold. The first anomalous column
    decides: more than one outlier raises MisdetectionError, zero
    outliers means the remapping is useless (returns None). Otherwise
    the per-column outlier rows are returned; they must be strictly
    increasing since repetition preserves column order, and any other
    arrangement is a misdetection.
    """
    deviation = np.abs(cross.l - cross.mu)
    outlier = deviation >= cross.tau_hat
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
    alphabet_size: int | None = None,
    threshold_constant: float = 2.0,
) -> RetentionResult:
    """Infer which original columns survived, from replica-free seeds.

    g2 must already be replica-free (one column per retained original
    column; with none, every original column is deleted). Sweeps
    remappings in lexicographic order and returns the retention set of
    the first useful one.

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
    if alphabet_size is None:
        alphabet_size = infer_alphabet_size(g1, g2)
    check_symbols(alphabet_size, g1, g2)
    for phi in enumerate_remappings(alphabet_size):
        rows = scan_remapping(cross_hamming(g1, g2, phi, threshold_constant))
        if rows is not None:
            deleted = np.setdiff1d(np.arange(n), rows)
            return RetentionResult(retained=rows, deleted=deleted, n=n)
    raise NoUsefulRemappingError("all remappings useless")
