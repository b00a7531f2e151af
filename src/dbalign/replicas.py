"""Noisy-replica detection from adjacent-column Hamming distances.

Adjacent columns of the repeated database are either independent draws
or noisy copies of the same original column, so the per-pair Hamming
distances form a two-component Binomial mixture. Both component
parameters are recovered with Blischke's factorial-moment estimator and
pairs below the midpoint threshold are flagged as replicas. No knowledge
of the underlying distributions is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEGENERATE_ATOL = 1e-12
# Small negative discriminants are moment-estimator jitter, not evidence
# of a one-component series.
DISC_JITTER = -1e-9


class SingleComponentError(ValueError):
    """The distance series shows a single Binomial component, so there is
    no replica/non-replica split to estimate."""


@dataclass(frozen=True)
class MixtureEstimate:
    """Estimated success parameters of the two-component mixture.

    Canonical order p0_hat >= p1_hat (independent pairs differ more
    often than replica pairs whenever the databases are correlated).
    """

    p0_hat: float
    p1_hat: float

    @property
    def tau(self) -> float:
        """Midpoint decision threshold on the per-row disagreement rate."""
        return 0.5 * (self.p0_hat + self.p1_hat)


def running_hamming(d2: np.ndarray) -> np.ndarray:
    """Hamming distance between each pair of adjacent columns.

    Returns a length K-1 vector, empty when K < 2 since there are no
    adjacent pairs.
    """
    d2 = np.asarray(d2)
    return (d2[:, 1:] != d2[:, :-1]).sum(axis=0, dtype=np.int64)


def factorial_moments(h: np.ndarray, m: int) -> tuple[float, float, float]:
    """First three sample factorial moments of the distance series.

    The k-th moment averages prod_{i<k} (h_j - i) / (m - i) over the
    series; for Binomial(m, p) samples its expectation is p**k.
    """
    h = np.asarray(h, dtype=float)
    if h.size == 0:
        raise ValueError("distance series is empty")
    if m < 3:
        raise ValueError("need at least 3 rows for three factorial moments")
    f1 = float(np.mean(h / m))
    f2 = float(np.mean(h * (h - 1.0) / (m * (m - 1.0))))
    f3 = float(np.mean(h * (h - 1.0) * (h - 2.0) / (m * (m - 1.0) * (m - 2.0))))
    return f1, f2, f3


def blischke_estimate(h: np.ndarray, m: int) -> MixtureEstimate:
    """Recover both Binomial success parameters by the method of moments.

    Estimates are clamped to [0, 1]; at small sample sizes the raw
    moment solution can exit the unit interval.

    Raises SingleComponentError when the moments are consistent with a
    single component (vanishing central second moment, or a discriminant
    below the numerical jitter allowance).
    """
    h = np.asarray(h, dtype=float)
    if h.size < 2:
        raise ValueError("need at least two adjacent-pair distances")
    f1, f2, f3 = factorial_moments(h, m)
    denom = f2 - f1 * f1
    if abs(denom) < DEGENERATE_ATOL:
        raise SingleComponentError("single-component series")
    a = (f3 - f1 * f2) / denom
    disc = a * a - 4.0 * a * f1 + 4.0 * f2
    if disc < DISC_JITTER:
        raise SingleComponentError("single-component series")
    root = math.sqrt(max(disc, 0.0))
    p0 = min(max((a + root) / 2.0, 0.0), 1.0)
    p1 = min(max((a - root) / 2.0, 0.0), 1.0)
    return MixtureEstimate(p0_hat=p0, p1_hat=p1)


def detect_replicas(d2: np.ndarray) -> np.ndarray:
    """Flag adjacent column pairs that are noisy replicas of one column.

    Returns a boolean vector of length K-1; entry j is True when columns
    j and j+1 have the same origin. Ties on the threshold count as
    replicas. Propagates SingleComponentError from the estimator.
    """
    d2 = np.asarray(d2)
    m = d2.shape[0]
    h = running_hamming(d2)
    if h.size == 0:
        return np.zeros(0, dtype=bool)
    est = blischke_estimate(h, m)
    return h <= m * est.tau


def column_runs(
    is_replica: np.ndarray, num_columns: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Group columns into same-origin runs given adjacency decisions.

    A True at position j glues columns j and j+1 into one run. Returns
    (first column index of each run, run lengths); lengths sum to the
    column count K. K defaults to len(is_replica) + 1, which holds for
    every K >= 1; pass it when it may be 0.
    """
    is_replica = np.asarray(is_replica, dtype=bool)
    k = is_replica.size + 1 if num_columns is None else num_columns
    starts = np.flatnonzero(np.concatenate(([True], ~is_replica))[:k])
    lengths = np.diff(np.append(starts, k))
    return starts, lengths


def replica_free(mat: np.ndarray, is_replica: np.ndarray) -> np.ndarray:
    """The first column of each replica run of ``mat``, for any column count."""
    mat = np.asarray(mat)
    starts, _ = column_runs(is_replica, mat.shape[1])
    return mat[:, starts]
