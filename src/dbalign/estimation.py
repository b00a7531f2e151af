"""Plug-in estimation of the source, noise, and repetition distributions.

Everything is estimated as raw empirical frequencies: the source from
the original seeds, the channel from deletion detection's pair counts,
and the repetition counts from the detected pattern. Their entropies
are what the typicality matcher compares its empirical rates against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dbio import model_spec_to_dict
from .deletions import RetentionResult, check_symbols
from .infotheory import entropy, repetition_entropies
from .model import ModelSpec, RepetitionPattern


@dataclass(frozen=True)
class DistributionEstimate:
    """Component estimates and the entropies derived from them.

    ``p_y_given_x`` has an all-zero row for each symbol never observed
    among the retained original seed columns, rather than a silently
    normalized one, so the matcher treats those events as probability
    zero. The entropies are H(X), H(Y^S | S) and H(X, Y^S | S), the
    last two averaged over ``p_s``; the joint of (X, Y^s) is
    ``infotheory.repetition_table`` of the same p_x and p_y_given_x that
    the matcher scores cells with.
    """

    p_x: np.ndarray
    p_y_given_x: np.ndarray
    p_s: np.ndarray
    x_entropy: float
    y_entropy: float
    joint_entropy: float

    @property
    def unsupported_x(self) -> np.ndarray:
        """Symbols whose conditional row is all-zero."""
        return ~self.p_y_given_x.any(axis=1)

    @property
    def alphabet_size(self) -> int:
        return self.p_x.size

    @property
    def s_max(self) -> int:
        return self.p_s.size - 1

    def to_dict(self) -> dict:
        """The five keys of a model spec JSON, in its layout."""
        return model_spec_to_dict(self)


def estimate_p_x(g1: np.ndarray, alphabet_size: int) -> np.ndarray:
    """Empirical symbol frequencies over all seed entries."""
    g1 = np.asarray(g1)
    if g1.size == 0:
        raise ValueError("seed matrix is empty")
    check_symbols(alphabet_size, g1)
    counts = np.bincount(g1.ravel().astype(np.intp), minlength=alphabet_size + 1)
    return counts[1:] / g1.size


def estimate_p_y_given_x(pair_counts: np.ndarray) -> np.ndarray:
    """Empirical noise matrix from aligned seed entry pair counts.

    ``pair_counts`` is a k x k table such as ``RetentionResult.pair_counts``.
    Each row is normalized by the occurrences of x, making each supported
    row a proper conditional distribution; rows of symbols with no
    observations are left all-zero.
    """
    joint = np.asarray(pair_counts)
    if joint.ndim != 2 or joint.shape[0] != joint.shape[1]:
        raise ValueError("pair counts must be a square 2-D table")
    totals = joint.sum(axis=1)
    matrix = np.zeros(joint.shape)
    rows = totals > 0
    matrix[rows] = joint[rows] / totals[rows, None]
    return matrix


def estimate_p_s(pattern: RepetitionPattern, s_max: int) -> np.ndarray:
    """Empirical repetition-count frequencies over {0, ..., s_max}."""
    if s_max < int(pattern.s.max()):
        raise ValueError("s_max is smaller than an observed repetition count")
    return np.bincount(pattern.s, minlength=s_max + 1) / pattern.n


def assemble_joint(
    p_x: np.ndarray, p_y_given_x: np.ndarray, p_s: np.ndarray
) -> DistributionEstimate:
    """Validate the components and derive their entropies.

    p_x and p_s must each sum to 1, and each channel row must sum to 1
    or be all-zero (an unsupported symbol), all to 1e-9.
    """
    p_x = np.asarray(p_x, dtype=float)
    p_y_given_x = np.asarray(p_y_given_x, dtype=float)
    p_s = np.asarray(p_s, dtype=float)
    for name, p in (("p_x", p_x), ("p_s", p_s)):
        if not abs(float(p.sum()) - 1.0) <= 1e-9:
            raise ValueError(f"{name} mass deviates from 1")
    rows = p_y_given_x.sum(axis=1)
    if np.any(~(np.abs(rows - 1.0) <= 1e-9) & p_y_given_x.any(axis=1)):
        raise ValueError("a channel row mass deviates from 1")

    h_y, h_xy = repetition_entropies(p_x, p_y_given_x, p_s.size - 1)
    return DistributionEstimate(
        p_x=p_x,
        p_y_given_x=p_y_given_x,
        p_s=p_s,
        x_entropy=entropy(p_x),
        y_entropy=float(sum(p_s * h_y)),
        joint_entropy=float(sum(p_s * h_xy)),
    )


def from_model_spec(spec: ModelSpec) -> DistributionEstimate:
    """The estimate of a ground-truth spec's own components (no estimation)."""
    return assemble_joint(spec.p_x, spec.p_y_given_x, spec.p_s)


def estimate_from_seeds(
    g1: np.ndarray,
    retention: RetentionResult,
    pattern: RepetitionPattern,
    alphabet_size: int,
    s_max: int,
) -> DistributionEstimate:
    """Full plug-in estimate from the original seeds and both detector outputs."""
    if np.shape(retention.pair_counts) != (alphabet_size, alphabet_size):
        raise ValueError(f"pair counts must be a {alphabet_size} x {alphabet_size} table")
    p_x = estimate_p_x(g1, alphabet_size)
    p_y_given_x = estimate_p_y_given_x(retention.pair_counts)
    p_s = estimate_p_s(pattern, s_max)
    return assemble_joint(p_x, p_y_given_x, p_s)
