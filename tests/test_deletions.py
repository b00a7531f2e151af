import numpy as np
import pytest

from dbalign import (
    MisdetectionError,
    NoUsefulRemappingError,
    RepetitionPattern,
    cross_hamming,
    deletion_threshold,
    detect_deletions,
    enumerate_remappings,
    generate_seeds,
    mixture_truth,
    substream,
)
from dbalign.deletions import CrossDistanceMatrix, scan_remapping

from conftest import bsc_spec, noiseless_spec, symmetric_spec, unit_trace_cyclic_spec


def _deletion_pattern(n, deleted):
    s = np.ones(n, dtype=int)
    s[list(deleted)] = 0
    return RepetitionPattern(s)


def test_enumerate_remappings_binary():
    maps = enumerate_remappings(2)
    assert np.array_equal(maps[0], [1, 2])
    assert np.array_equal(maps[1], [2, 1])


def test_enumerate_remappings_ternary_identity_first():
    maps = enumerate_remappings(3)
    assert len(maps) == 6
    assert np.array_equal(maps[0], [1, 2, 3])
    assert len({tuple(p) for p in maps}) == 6


def test_enumerate_remappings_group_order():
    maps = enumerate_remappings(4)
    assert len(maps) == 24
    assert len({tuple(p) for p in maps}) == 24


def test_enumerate_remappings_cap():
    with pytest.raises(ValueError):
        enumerate_remappings(9)


def test_cross_hamming_matched_copy(rng):
    g1 = rng.integers(1, 4, size=(100, 4)).astype(np.uint8)
    g2 = g1[:, [1, 3]]
    cross = cross_hamming(g1, g2, np.array([1, 2, 3]))
    assert cross.l[1, 0] == 0
    assert cross.l[3, 1] == 0
    assert cross.l.shape == (4, 2)


def test_cross_hamming_small_retention_outlier_profile():
    # Four uniform symbols with channel diagonal 0.08: independent column
    # pairs disagree at rate 0.75, matched pairs at 0.92; every retained
    # column shows exactly one high outlier in its distance column.
    spec = symmetric_spec(4, diag=0.08, p_s=(0.3, 0.7))
    truth = mixture_truth(spec)
    assert truth.q0 == pytest.approx(0.75)
    assert truth.q1 == pytest.approx(0.92)
    pattern = _deletion_pattern(10, (3, 5, 9))
    seeds = generate_seeds(10_000, 10, pattern, spec, substream(42, 0))
    cross = cross_hamming(seeds.g1, seeds.g2, np.arange(1, 5))
    retained = pattern.retained_indices()
    for j in range(7):
        col = cross.l[:, j]
        high = col >= 9050
        assert high.sum() == 1
        assert np.flatnonzero(high)[0] == retained[j]
        assert np.all((col[~high] >= 7350) & (col[~high] <= 7750))
        assert 9050 <= col[high][0] <= 9350


def test_cross_hamming_dimension_mismatch(rng):
    g1 = rng.integers(1, 3, size=(10, 4)).astype(np.uint8)
    g2 = rng.integers(1, 3, size=(11, 3)).astype(np.uint8)
    with pytest.raises(ValueError):
        cross_hamming(g1, g2, np.array([1, 2]))


def test_threshold_formula():
    assert deletion_threshold(10_000, 10) == pytest.approx(
        2 * 10_000 ** (2 / 3) * np.log2(10) ** (1 / 3)
    )
    assert deletion_threshold(10_000, 10, constant=1.0) == pytest.approx(
        10_000 ** (2 / 3) * np.log2(10) ** (1 / 3)
    )


def test_scan_remapping_misdetection_and_order():
    # Two outliers in one column is a misdetection.
    l = np.full((5, 2), 100.0)
    l[1, 0] = l[3, 0] = 900.0
    l[2, 1] = 900.0
    with pytest.raises(MisdetectionError):
        scan_remapping(CrossDistanceMatrix(l=l, mu=100.0, tau_hat=400.0))
    # Outlier rows that do not increase violate column order.
    l = np.full((5, 2), 100.0)
    l[3, 0] = 900.0
    l[1, 1] = 900.0
    with pytest.raises(MisdetectionError):
        scan_remapping(CrossDistanceMatrix(l=l, mu=100.0, tau_hat=400.0))


def test_scan_remapping_useless_before_later_misdetection():
    # The scan walks columns in order: a zero-outlier column rejects the
    # remapping before any later column can raise.
    l = np.full((5, 3), 100.0)
    l[1, 1] = l[3, 1] = 900.0
    assert scan_remapping(CrossDistanceMatrix(l=l, mu=100.0, tau_hat=400.0)) is None


def test_fig3_style_exact_recovery():
    spec = symmetric_spec(4, diag=0.08, p_s=(0.3, 0.7))
    pattern = _deletion_pattern(10, (3, 5, 9))
    seeds = generate_seeds(10_000, 10, pattern, spec, substream(7, 0))
    result = detect_deletions(seeds.g1, seeds.g2, alphabet_size=4)
    assert np.array_equal(result.retained, [0, 1, 2, 4, 6, 7, 8])
    assert np.array_equal(result.deleted, [3, 5, 9])
    assert result.num_retained == 7


def test_noiseless_no_deletions_all_retained():
    spec = noiseless_spec(size=2, p_s=(0.0, 1.0))
    pattern = RepetitionPattern(np.ones(10, dtype=int))
    seeds = generate_seeds(10_000, 10, pattern, spec, substream(11, 0))
    result = detect_deletions(seeds.g1, seeds.g2, alphabet_size=2)
    assert np.array_equal(result.retained, np.arange(10))
    assert result.deleted.size == 0


def test_unit_trace_channel_needs_remapping():
    # Identity remapping equalizes both rates exactly, so the scan must
    # skip it and succeed under a later permutation.
    spec = unit_trace_cyclic_spec()
    truth = mixture_truth(spec)
    assert truth.q0 == pytest.approx(truth.q1)
    pattern = _deletion_pattern(10, (2, 6))
    seeds = generate_seeds(10_000, 10, pattern, spec, substream(13, 0))
    identity_cross = cross_hamming(seeds.g1, seeds.g2, np.array([1, 2, 3]))
    assert scan_remapping(identity_cross) is None
    result = detect_deletions(seeds.g1, seeds.g2, alphabet_size=3)
    assert np.array_equal(result.deleted, [2, 6])


def test_unit_trace_monte_carlo():
    spec = unit_trace_cyclic_spec(p_s=(0.3, 0.7))
    hits = 0
    for trial in range(100):
        pattern = RepetitionPattern(substream(1000, trial).binomial(1, 0.7, size=10))
        if pattern.num_retained == 0:
            hits += 1
            continue
        seeds = generate_seeds(10_000, 10, pattern, spec, substream(2000, trial))
        try:
            result = detect_deletions(seeds.g1, seeds.g2, alphabet_size=3)
        except (MisdetectionError, NoUsefulRemappingError):
            continue
        hits += np.array_equal(result.retained, pattern.retained_indices())
    assert hits >= 99


def test_exact_recovery_across_spec_family():
    # Any spec whose best remapping separates the rates by at least 0.1
    # recovers the exact retention set nearly always at this seed size.
    family = [
        bsc_spec(flip=0.1, p_s=(0.3, 0.7)),
        symmetric_spec(4, diag=0.08, p_s=(0.2, 0.8)),
        bsc_spec(flip=0.2, p_s=(0.3, 0.7), p_x=(0.7, 0.3)),
    ]
    for spec_idx, spec in enumerate(family):
        hits = 0
        for trial in range(50):
            rng = substream(31_337, spec_idx, trial)
            s = rng.binomial(1, 1 - spec.delta, size=12)
            pattern = RepetitionPattern(s)
            if pattern.num_retained == 0:
                hits += 1
                continue
            seeds = generate_seeds(10_000, 12, pattern, spec, rng)
            try:
                result = detect_deletions(
                    seeds.g1, seeds.g2, alphabet_size=spec.alphabet_size
                )
            except (MisdetectionError, NoUsefulRemappingError):
                continue
            hits += np.array_equal(result.retained, pattern.retained_indices())
        assert hits >= 48, f"only {hits}/50 exact recoveries"


def test_seed_row_permutation_invariance(rng):
    spec = bsc_spec(flip=0.1, p_s=(0.3, 0.7))
    pattern = _deletion_pattern(8, (1, 4))
    seeds = generate_seeds(5000, 8, pattern, spec, substream(77, 0))
    base = detect_deletions(seeds.g1, seeds.g2, alphabet_size=2)
    perm = rng.permutation(5000)
    permuted = detect_deletions(seeds.g1[perm], seeds.g2[perm], alphabet_size=2)
    assert np.array_equal(base.retained, permuted.retained)


def test_detect_deletions_preconditions(rng):
    g1 = rng.integers(1, 3, size=(100, 2)).astype(np.uint8)
    with pytest.raises(ValueError):
        detect_deletions(g1, g1, alphabet_size=2)
    g1 = rng.integers(1, 3, size=(100, 4)).astype(np.uint8)
    g2 = rng.integers(1, 3, size=(100, 5)).astype(np.uint8)
    with pytest.raises(ValueError):
        detect_deletions(g1, g2, alphabet_size=2)


@pytest.mark.parametrize("side, value", [("g1", 0), ("g2", 3)])
def test_detect_deletions_rejects_symbols_outside_alphabet(side, value):
    spec = bsc_spec(flip=0.1, p_s=(0.3, 0.7))
    seeds = generate_seeds(5000, 10, _deletion_pattern(10, (2, 7)), spec, substream(3, 0))
    mats = {"g1": seeds.g1.copy(), "g2": seeds.g2.copy()}
    mats[side][0, 0] = value
    with pytest.raises(ValueError, match="1..2"):
        detect_deletions(mats["g1"], mats["g2"], alphabet_size=2)


def test_all_columns_deleted_trivial_result(rng):
    g1 = rng.integers(1, 3, size=(100, 5)).astype(np.uint8)
    g2 = np.zeros((100, 0), dtype=np.uint8)
    result = detect_deletions(g1, g2, alphabet_size=2)
    assert result.retained.size == 0
    assert np.array_equal(result.deleted, np.arange(5))


def test_detection_is_deterministic():
    spec = bsc_spec(flip=0.1, p_s=(0.3, 0.7))
    pattern = _deletion_pattern(10, (0, 7))
    seeds = generate_seeds(8000, 10, pattern, spec, substream(5, 0))
    a = detect_deletions(seeds.g1, seeds.g2, alphabet_size=4)
    b = detect_deletions(seeds.g1, seeds.g2, alphabet_size=4)
    assert np.array_equal(a.retained, b.retained)
