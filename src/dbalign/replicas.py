"""Noisy-replica detection from adjacent-column Hamming distances.

Adjacent columns of the repeated database are either independent draws
or noisy copies of the same original column, so the per-pair Hamming
distances form a two-component Binomial mixture. Replicas are declared
only when the distances are over-dispersed for a single Binomial, at
false-alarm level 1 / (FALSE_ALARM_SCALE * K) for K columns; both
component parameters are then recovered with Blischke's factorial-moment
estimator and pairs below the midpoint threshold are flagged as
replicas. No knowledge of the underlying distributions, nor of the
largest repetition count, is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fanout

DEGENERATE_ATOL = 1e-12
# Small negative discriminants are moment-estimator jitter, not evidence
# of a one-component series.
DISC_JITTER = -1e-9

# At 10 * K, 8 of 100,000 replica-free databases of remap_sweep's shape
# showed replicas; at 1000 * K none did, the largest D at 0.94 of the bound.
FALSE_ALARM_SCALE = 1000


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


@fanout.scope()  # the disagreement mask is borrowed
def running_hamming(d2: np.ndarray) -> np.ndarray:
    """Hamming distance between each pair of adjacent columns.

    Returns a length K-1 vector, empty when K < 2 since there are no
    adjacent pairs.
    """
    d2 = np.asarray(d2)
    differ = fanout.borrow((d2.shape[0], max(d2.shape[1] - 1, 0)), bool)
    np.not_equal(d2[:, 1:], d2[:, :-1], out=differ)
    return differ.sum(axis=0, dtype=np.int64)


def _factorial_moments(h: np.ndarray, m: int) -> tuple[float, float, float]:
    """First three sample factorial moments of the distance series, m >= 3.

    The k-th moment averages prod_{i<k} (h_j - i) / (m - i) over the
    series; for Binomial(m, p) samples its expectation is p**k.
    """
    f1 = float(np.mean(h / m))
    f2 = float(np.mean(h * (h - 1.0) / (m * (m - 1.0))))
    f3 = float(np.mean(h * (h - 1.0) * (h - 2.0) / (m * (m - 1.0) * (m - 2.0))))
    return f1, f2, f3


def blischke_estimate(h: np.ndarray, m: int) -> MixtureEstimate:
    """Recover both Binomial success parameters by the method of moments.

    Estimates are clamped to [0, 1]; at small sample sizes the raw
    moment solution can exit the unit interval.

    Raises SingleComponentError when there are fewer than two distances
    or fewer than three rows, or when the moments are consistent with a
    single component (vanishing central second moment, or a discriminant
    below the numerical jitter allowance).
    """
    h = np.asarray(h, dtype=float)
    if h.size < 2:
        raise SingleComponentError("need at least two adjacent-pair distances")
    if m < 3:
        raise SingleComponentError("need at least 3 rows for three factorial moments")
    f1, f2, f3 = _factorial_moments(h, m)
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


def dispersion(h: np.ndarray, m: int) -> float:
    """D = sum_j (h_j - mean h)^2 / (m f1 (1 - f1)), f1 = mean h / m, or 0
    when every distance is 0 or every one is m."""
    f1 = float(np.mean(h)) / m
    return 0.0 if f1 in (0.0, 1.0) else float(np.var(h)) * np.size(h) / (m * f1 * (1.0 - f1))


def dispersion_bound(num_columns: int) -> float:
    """Replica threshold on the dispersion of K = num_columns >= 3 columns:
    the Laurent-Massart bound (Ann. Statist. 2000) d + 2 sqrt(d x) + 2 x
    on chi-square with d = K - 2 degrees of freedom, exceeded with
    probability at most e^-x, at x = ln(FALSE_ALARM_SCALE * K)."""
    d = num_columns - 2
    x = math.log(FALSE_ALARM_SCALE * num_columns)
    return d + 2.0 * math.sqrt(d * x) + 2.0 * x


def detect_replicas(d2: np.ndarray) -> np.ndarray:
    """Flag adjacent column pairs that are noisy replicas of one column.

    Returns a boolean vector of length K-1; entry j is True when columns
    j and j+1 have the same origin. It is all False for fewer than two
    distances or a dispersion below ``dispersion_bound(K)``. Ties on the
    threshold count as replicas. Raises SingleComponentError for fewer
    than 3 rows and two columns, and propagates it from the estimator.
    """
    d2 = np.asarray(d2)
    m = d2.shape[0]
    h = running_hamming(d2)
    if h.size and m < 3:
        raise SingleComponentError("need at least 3 rows for three factorial moments")
    if h.size < 2 or dispersion(h, m) < dispersion_bound(h.size + 1):
        return np.zeros(h.size, dtype=bool)
    return h <= m * blischke_estimate(h, m).tau


def column_runs(is_replica: np.ndarray, num_columns: int) -> tuple[np.ndarray, np.ndarray]:
    """Group columns into same-origin runs given adjacency decisions.

    A True at position j glues columns j and j+1 into one run. Returns
    (first column index of each run, run lengths); lengths sum to
    num_columns, which may be 0.
    """
    is_replica = np.asarray(is_replica, dtype=bool)
    starts = np.flatnonzero(np.concatenate(([True], ~is_replica))[:num_columns])
    lengths = np.diff(np.append(starts, num_columns))
    return starts, lengths
