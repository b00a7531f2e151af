"""Plug-in estimation of the source, noise, and repetition distributions.

Everything is estimated as raw empirical frequencies: the source and
the channel from the counts deletion detection tabulated off the seeds,
and the repetition counts from the detected pattern. Their entropies
are what the typicality matcher compares its empirical rates against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dbio import model_spec_to_dict
from .deletions import RetentionResult
from .infotheory import entropy, repetition_entropies
from .model import ModelSpec, RepetitionPattern, check_prob_vector

# Mass tolerance of an estimate's components: frequencies from counts
# carry the rounding of one division per entry.
ESTIMATE_ATOL = 1e-9


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
    def alphabet_size(self) -> int:
        return self.p_x.size

    @property
    def s_max(self) -> int:
        return self.p_s.size - 1

    def to_dict(self) -> dict:
        """The five keys of a model spec JSON, in its layout."""
        return model_spec_to_dict(self)


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


def estimate_p_s(pattern: RepetitionPattern) -> np.ndarray:
    """Empirical repetition-count frequencies over 0 up to the largest count."""
    return np.bincount(pattern.s) / pattern.n


def assemble_joint(
    p_x: np.ndarray, p_y_given_x: np.ndarray, p_s: np.ndarray
) -> DistributionEstimate:
    """Validate the components and derive their entropies.

    p_x, p_s and each channel row must pass a ModelSpec's rule
    (``model.check_prob_vector``) at the mass tolerance ESTIMATE_ATOL; a
    channel row may also be all-zero (an unsupported symbol).
    """
    p_x = check_prob_vector(p_x, "p_x", ESTIMATE_ATOL)
    p_s = check_prob_vector(p_s, "p_s", ESTIMATE_ATOL)
    p_y_given_x = np.asarray(p_y_given_x, dtype=float)
    for i, row in enumerate(p_y_given_x):
        if row.any():
            check_prob_vector(row, f"channel row {i}", ESTIMATE_ATOL)

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
    retention: RetentionResult, pattern: RepetitionPattern
) -> DistributionEstimate:
    """Full plug-in estimate from both detector outputs: the source from
    g1's symbol totals, the channel from the pair counts, and p_s from the
    pattern. The alphabet is the totals' length."""
    k = np.size(retention.source_counts)
    if np.shape(retention.pair_counts) != (k, k):
        raise ValueError(f"pair counts must be a {k} x {k} table")
    p_x = retention.source_counts / np.sum(retention.source_counts)
    p_y_given_x = estimate_p_y_given_x(retention.pair_counts)
    p_s = estimate_p_s(pattern)
    return assemble_joint(p_x, p_y_given_x, p_s)
