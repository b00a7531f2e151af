"""Exact information quantities for ground truth and diagnostics.

All logarithms are base 2; every entropy, divergence, and mutual
information is in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelSpec

# Largest joint table (alphabet^(s+1) cells) we will enumerate exactly.
TABLE_LIMIT = 10_000_000


def entropy(p) -> float:
    """Shannon entropy in bits, with the 0 log 0 = 0 convention.

    Accepts any array shape; entries are treated as one flat
    (sub)distribution.
    """
    p = np.asarray(p, dtype=float).ravel()
    nz = p[p > 0.0]
    return float(-(nz * np.log2(nz)).sum())


def check_table_size(size: int, s: int) -> None:
    """Raise ValueError unless s >= 0 and the (X, Y^s) table fits in TABLE_LIMIT cells."""
    if s < 0:
        raise ValueError("repetition count must be nonnegative")
    if size ** (s + 1) > TABLE_LIMIT:
        raise ValueError(f"joint table with {size}^{s + 1} cells exceeds limit {TABLE_LIMIT}")


def repetition_table(p_x: np.ndarray, p_y_given_x: np.ndarray, s: int) -> np.ndarray:
    """Joint distribution of (X, Y^s): shape (|alphabet|, |alphabet|**s).

    Output tuples are enumerated lexicographically with the first copy
    most significant. s = 0 gives a single certain "erased" outcome, so
    the table reduces to the symbol distribution itself.
    """
    p_x = np.asarray(p_x, dtype=float)
    p_y_given_x = np.asarray(p_y_given_x, dtype=float)
    size = p_x.size
    check_table_size(size, s)
    table = p_x[:, None].copy()
    for _ in range(s):
        table = (table[:, :, None] * p_y_given_x[:, None, :]).reshape(size, -1)
    return table


def repetition_entropies(
    p_x: np.ndarray, p_y_given_x: np.ndarray, s_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """H(Y^s) and H(X, Y^s) for s = 0..s_max, one repetition table each."""
    h_y = np.empty(s_max + 1)
    h_xy = np.empty(s_max + 1)
    for s in range(s_max + 1):
        table = repetition_table(p_x, p_y_given_x, s)
        h_y[s] = entropy(table.sum(axis=0))
        h_xy[s] = entropy(table)
    return h_y, h_xy


@dataclass(frozen=True)
class CapacityReport:
    """Matching capacity and its per-repetition-count decomposition.

    ``capacity`` is the supremum growth rate log2(m)/n below which row
    matching is achievable; ``per_s[s]`` is the information one column
    carries when repeated s times.
    """

    capacity: float
    per_s: np.ndarray
    h_x: float
    h_s: float

    def to_dict(self) -> dict:
        return {
            "capacity": self.capacity,
            "per_s": self.per_s.tolist(),
            "h_x": self.h_x,
            "h_s": self.h_s,
        }


def capacity(spec: ModelSpec) -> CapacityReport:
    """Exact capacity by exhaustive enumeration of the per-s joints.

    per_s[s] = H(X) + H(Y^s) - H(X, Y^s), averaged over the repetition
    distribution. Values are clamped at 0 to absorb float round-off
    (the exact quantity is nonnegative).
    """
    h_x = entropy(spec.p_x)
    h_y, h_xy = repetition_entropies(spec.p_x, spec.p_y_given_x, spec.s_max)
    per_s = np.maximum(0.0, h_x + h_y - h_xy)
    return CapacityReport(
        capacity=float(spec.p_s @ per_s),
        per_s=per_s,
        h_x=h_x,
        h_s=entropy(spec.p_s),
    )


@dataclass(frozen=True)
class MixtureTruth:
    """Exact disagreement rates behind both detectors (diagnostic only).

    p0/p1 are the adjacent-column rates for independent and replica
    pairs; q0/q1 the seed cross-column rates for independent and
    correlated pairs under a remapping; alpha_limit is the limiting
    fraction of independent adjacencies, (1 - delta) / E[S].
    """

    p0: float
    p1: float
    q0: float
    q1: float
    alpha_limit: float


def mixture_truth(spec: ModelSpec, phi: np.ndarray | None = None) -> MixtureTruth:
    """Evaluate the mixture parameters from the true distributions.

    ``phi`` is a symbol remapping applied to the repeated side before
    comparison (identity when omitted); it only affects q0/q1.
    """
    p_y = spec.p_y()
    p0 = 1.0 - float((p_y ** 2).sum())
    p1 = 1.0 - float(spec.p_x @ (spec.p_y_given_x ** 2).sum(axis=1))

    size = spec.alphabet_size
    if phi is None:
        phi = np.arange(1, size + 1)
    phi = np.asarray(phi, dtype=np.int64)
    if np.any(np.sort(phi) != np.arange(1, size + 1)):
        raise ValueError("phi must be a permutation of the alphabet")
    phi_inv = np.empty(size, dtype=np.int64)
    phi_inv[phi - 1] = np.arange(size)
    # Pr(phi(Y) = x) and Pr(phi(Y) = x | X = x) for each symbol x.
    q0 = 1.0 - float(spec.p_x @ p_y[phi_inv])
    q1 = 1.0 - float(spec.p_x @ spec.p_y_given_x[np.arange(size), phi_inv])

    expected_s = spec.expected_repetitions()
    alpha_limit = (1.0 - spec.delta) / expected_s if expected_s > 0 else math.nan
    return MixtureTruth(p0=p0, p1=p1, q0=q0, q1=q1, alpha_limit=alpha_limit)
