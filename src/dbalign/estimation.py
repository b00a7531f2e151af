"""Plug-in estimation of the source, noise, and repetition distributions.

Everything is estimated from the seed matrices and the detected
repetition pattern as raw empirical frequencies.
The assembled per-repetition-count joint tables give the entropies that
the typicality matcher compares its empirical rates against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deletions import check_symbols
from .infotheory import entropy, repetition_table
from .model import ModelSpec


@dataclass(frozen=True)
class DistributionEstimate:
    """Component estimates and the assembled joint tables.

    ``tables[s]`` is the estimated joint of (X, Y^s) with shape
    (|alphabet|, |alphabet|**s); for s = 0 the single outcome is the
    erasure. ``unsupported_x`` flags symbols never observed among the
    retained original seed columns: their conditional rows are all-zero
    rather than silently normalized, so the matcher treats those events
    as probability zero. The three entropies are derived from the
    tables, which factor through the same p_x and p_y_given_x that the
    matcher scores cells with.
    """

    p_x: np.ndarray
    p_y_given_x: np.ndarray
    p_s: np.ndarray
    unsupported_x: np.ndarray
    tables: dict
    x_entropy: float
    y_entropy: float
    joint_entropy: float

    @property
    def alphabet_size(self) -> int:
        return self.p_x.size

    @property
    def s_max(self) -> int:
        return self.p_s.size - 1

    def to_dict(self) -> dict:
        return {
            "alphabet_size": self.alphabet_size,
            "p_x": self.p_x.tolist(),
            "p_y_given_x": self.p_y_given_x.tolist(),
            "p_s": self.p_s.tolist(),
            "s_max": self.s_max,
        }


def estimate_p_x(g1: np.ndarray, alphabet_size: int) -> np.ndarray:
    """Empirical symbol frequencies over all seed entries."""
    g1 = np.asarray(g1)
    if g1.size == 0:
        raise ValueError("seed matrix is empty")
    check_symbols(alphabet_size, g1)
    counts = np.bincount(g1.ravel().astype(np.intp), minlength=alphabet_size + 1)
    return counts[1:] / g1.size


def estimate_p_y_given_x(
    g1: np.ndarray,
    g2: np.ndarray,
    retained,
    alphabet_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical noise matrix from aligned seed entry pairs.

    ``retained`` maps each replica-free g2 column to its original g1
    column (a RetentionResult or an index array). Counts of each (x, y)
    pair are normalized by the occurrences of x, making each supported
    row a proper conditional distribution. Returns (matrix, unsupported)
    where unsupported flags symbols with no observations; their rows are
    left all-zero.
    """
    g1 = np.asarray(g1)
    g2 = np.asarray(g2)
    retained = np.asarray(getattr(retained, "retained", retained), dtype=np.int64)
    if retained.size != g2.shape[1]:
        raise ValueError("retained index count must match g2 column count")
    check_symbols(alphabet_size, g1, g2)
    k = alphabet_size
    if retained.size == 0:
        return np.zeros((k, k)), np.ones(k, dtype=bool)
    x = g1[:, retained].astype(np.intp).ravel()
    y = g2.astype(np.intp).ravel()
    joint = np.bincount((x - 1) * k + (y - 1), minlength=k * k).reshape(k, k)
    totals = joint.sum(axis=1)
    unsupported = totals == 0
    matrix = np.zeros((k, k))
    rows = ~unsupported
    matrix[rows] = joint[rows] / totals[rows, None]
    return matrix, unsupported


def estimate_p_s(pattern, s_max: int | None = None) -> np.ndarray:
    """Empirical repetition-count frequencies over {0, ..., s_max}.

    s_max defaults to the largest observed count.
    """
    s = np.asarray(getattr(pattern, "s", pattern), dtype=np.int64)
    if s.size == 0:
        raise ValueError("pattern is empty")
    observed_max = int(s.max())
    if s_max is None:
        s_max = observed_max
    elif s_max < observed_max:
        raise ValueError("s_max is smaller than an observed repetition count")
    return np.bincount(s, minlength=s_max + 1) / s.size


def assemble_joint(
    p_x: np.ndarray,
    p_y_given_x: np.ndarray,
    p_s: np.ndarray,
    unsupported_x: np.ndarray | None = None,
) -> DistributionEstimate:
    """Build the per-s joint tables and their entropies.

    Each table for s >= 1 is p_x(x) * prod_j p_y_given_x(y_j | x)
    (replicas are conditionally independent given the original entry);
    s = 0 reduces to p_x against the certain erasure. Table mass is
    validated to 1e-9 against the supported-symbol mass.
    """
    p_x = np.asarray(p_x, dtype=float)
    p_y_given_x = np.asarray(p_y_given_x, dtype=float)
    p_s = np.asarray(p_s, dtype=float)
    size = p_x.size
    if unsupported_x is None:
        unsupported_x = np.zeros(size, dtype=bool)
    unsupported_x = np.asarray(unsupported_x, dtype=bool)

    s_max = p_s.size - 1
    tables = {}
    supported_mass = float(p_x[~unsupported_x].sum())
    for s in range(s_max + 1):
        table = repetition_table(p_x, p_y_given_x, s)
        expected = 1.0 if s == 0 else supported_mass
        if abs(float(table.sum()) - expected) > 1e-9:
            raise ValueError(f"table mass for s={s} deviates from {expected}")
        tables[s] = table

    x_entropy = entropy(p_x)
    y_entropy = float(
        sum(p_s[s] * entropy(tables[s].sum(axis=0)) for s in range(s_max + 1))
    )
    joint_entropy = float(
        sum(p_s[s] * entropy(tables[s]) for s in range(s_max + 1))
    )
    return DistributionEstimate(
        p_x=p_x,
        p_y_given_x=p_y_given_x,
        p_s=p_s,
        unsupported_x=unsupported_x,
        tables=tables,
        x_entropy=x_entropy,
        y_entropy=y_entropy,
        joint_entropy=joint_entropy,
    )


def from_model_spec(spec: ModelSpec) -> DistributionEstimate:
    """Assemble the exact tables from a ground-truth spec (no estimation)."""
    return assemble_joint(spec.p_x, spec.p_y_given_x, spec.p_s)


def from_dict(d: dict) -> DistributionEstimate:
    """Rebuild an estimate from its serialized form.

    All-zero conditional rows are recovered as unsupported symbols.
    """
    p_y_given_x = np.asarray(d["p_y_given_x"], dtype=float)
    unsupported = p_y_given_x.sum(axis=1) < 0.5
    return assemble_joint(
        np.asarray(d["p_x"], dtype=float),
        p_y_given_x,
        np.asarray(d["p_s"], dtype=float),
        unsupported,
    )


def estimate_from_seeds(
    g1: np.ndarray,
    g2_replicafree: np.ndarray,
    retained,
    pattern,
    alphabet_size: int,
    s_max: int | None = None,
) -> DistributionEstimate:
    """Full plug-in estimate from seeds plus the detected pattern."""
    p_x = estimate_p_x(g1, alphabet_size)
    p_y_given_x, unsupported = estimate_p_y_given_x(g1, g2_replicafree, retained, alphabet_size)
    p_s = estimate_p_s(pattern, s_max)
    return assemble_joint(p_x, p_y_given_x, p_s, unsupported)
