import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dbalign import deletions, fanout
from dbalign.deletions import (
    MAX_REMAP_ALPHABET,
    MisdetectionError,
    NoUsefulRemappingError,
    SEED_BLOCK,
    cooccurrence,
    cross_hamming,
    deletion_threshold,
    detect_deletions,
    enumerate_remappings,
    scan_remapping,
)
from dbalign.infotheory import mixture_truth
from dbalign.model import RepetitionPattern, generate_seeds, substream

from conftest import bsc_spec, noiseless_spec, symmetric_spec, unit_trace_cyclic_spec
from oracles import (
    aligned_pair_counts,
    cooccurrence_loop,
    cross_hamming_loop,
    scan_remapping_loop,
)


def _deletion_pattern(n, deleted):
    s = np.ones(n, dtype=int)
    s[list(deleted)] = 0
    return RepetitionPattern(s)


def test_enumerate_remappings_binary():
    maps = list(enumerate_remappings(2))
    assert np.array_equal(maps[0], [1, 2])
    assert np.array_equal(maps[1], [2, 1])


def test_enumerate_remappings_ternary_identity_first():
    maps = list(enumerate_remappings(3))
    assert len(maps) == 6
    assert np.array_equal(maps[0], [1, 2, 3])
    assert len({tuple(p) for p in maps}) == 6


def test_enumerate_remappings_group_order():
    maps = list(enumerate_remappings(4))
    assert len(maps) == 24
    assert len({tuple(p) for p in maps}) == 24


def test_enumerate_remappings_cap():
    with pytest.raises(ValueError):
        enumerate_remappings(9)
    with pytest.raises(ValueError, match="alphabet size must be positive"):
        enumerate_remappings(0)


def test_cross_hamming_matched_copy(rng):
    g1 = rng.integers(1, 4, size=(100, 4)).astype(np.uint8)
    g2 = g1[:, [1, 3]]
    l = cross_hamming(g1, g2, np.array([1, 2, 3]), cooccurrence(g1, g2, 3)[0])
    assert l[1, 0] == 0
    assert l[3, 1] == 0
    assert l.shape == (4, 2)


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
    l = cross_hamming(seeds.g1, seeds.g2, np.arange(1, 5), cooccurrence(seeds.g1, seeds.g2, 4)[0])
    retained = pattern.retained_indices()
    for j in range(7):
        col = l[:, j]
        high = col >= 9050
        assert high.sum() == 1
        assert np.flatnonzero(high)[0] == retained[j]
        assert np.all((col[~high] >= 7350) & (col[~high] <= 7750))
        assert 9050 <= col[high][0] <= 9350


ORACLE_SPECS = {
    "bsc": bsc_spec(flip=0.1, p_s=(0.3, 0.7)),
    "symmetric3": symmetric_spec(3, diag=0.8, p_s=(0.3, 0.7)),
    "symmetric4": symmetric_spec(4, diag=0.08, p_s=(0.3, 0.7)),
    "unit_trace_cyclic": unit_trace_cyclic_spec(),
    "noiseless": noiseless_spec(size=2, p_s=(0.0, 1.0)),
}


@pytest.mark.parametrize("deleted", [(2, 5), tuple(range(8))], ids=["kt=6", "kt=0"])
@pytest.mark.parametrize("num_seeds", [500, SEED_BLOCK, 2 * SEED_BLOCK + 37])
@pytest.mark.parametrize("spec_name", sorted(ORACLE_SPECS))
def test_cross_hamming_matches_column_loop_oracle(spec_name, num_seeds, deleted):
    # Seed counts below, at and off a multiple of the block size cover
    # the partial and exact last blocks of the co-occurrence counts.
    spec = ORACLE_SPECS[spec_name]
    pattern = _deletion_pattern(8, deleted)
    seeds = generate_seeds(num_seeds, 8, pattern, spec, substream(17, num_seeds))
    counts, _ = cooccurrence(seeds.g1, seeds.g2, spec.alphabet_size)
    for phi in enumerate_remappings(spec.alphabet_size):
        expected = cross_hamming_loop(seeds.g1, seeds.g2, phi)
        l = cross_hamming(seeds.g1, seeds.g2, phi, counts)
        assert l.dtype == expected.dtype
        assert np.array_equal(l, expected)
        tau_hat = deletion_threshold(num_seeds, 8)
        assert _scan_outcome(scan_remapping, l, tau_hat) == _scan_outcome(
            scan_remapping_loop, expected, tau_hat
        )


def test_seed_block_keeps_float32_counts_exact():
    # A block's float32 product holds counts of at most SEED_BLOCK rows;
    # float32 holds every integer up to 2^24, so its sums are exact.
    assert SEED_BLOCK < 2**24


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    k=st.integers(1, MAX_REMAP_ALPHABET),
    num_seeds=st.sampled_from([1, SEED_BLOCK, SEED_BLOCK + 1, 2 * SEED_BLOCK + 37]),
    n=st.integers(0, 5),
    dtype=st.sampled_from([np.uint8, np.int64]),
    budget=st.integers(1, 3),
    data=st.data(),
)
def test_cooccurrence_matches_add_at_oracle(k, num_seeds, n, dtype, budget, data):
    # Exact int64 counts and g1 symbol totals for every alphabet the sweep
    # accepts, across block edges, with any number of g2 columns (kt = 0
    # included) and symbols absent from a side, on any thread budget: up
    # to 3 seed blocks make up to 3 parts.
    kt = data.draw(st.integers(0, n), label="kt")
    symbols = st.lists(st.integers(1, k), min_size=1, unique=True)
    present1 = data.draw(symbols, label="g1 symbols")
    present2 = data.draw(symbols, label="g2 symbols")
    rng = substream(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    g1 = rng.choice(present1, size=(num_seeds, n)).astype(dtype)
    g2 = rng.choice(present2, size=(num_seeds, kt)).astype(dtype)
    with fanout.budget(budget):
        counts, source_counts = cooccurrence(g1, g2, k)
    expected = cooccurrence_loop(g1, g2, k)
    assert counts.dtype == np.int64
    assert counts.shape == (k, n, k, kt)
    assert np.array_equal(counts, expected)
    assert source_counts.dtype == np.int64
    assert np.array_equal(source_counts, np.bincount(g1.ravel(), minlength=k + 1)[1:])


# The 4-symbol channel with diagonal 0.08 needs about 5000 seeds to be
# detected at n=8; a stronger one keeps these seed counts detectable.
DETECTABLE_SPECS = dict(ORACLE_SPECS, symmetric4=symmetric_spec(4, diag=0.6, p_s=(0.3, 0.7)))


@pytest.mark.parametrize("deleted", [(2, 5), tuple(range(8))], ids=["kt=6", "kt=0"])
@pytest.mark.parametrize("num_seeds", [1500, 2 * SEED_BLOCK + 37])
@pytest.mark.parametrize("spec_name", sorted(DETECTABLE_SPECS))
def test_detect_deletions_pair_counts_match_bincount_oracle(spec_name, num_seeds, deleted):
    # The channel counts read off the co-occurrence tensor equal one
    # bincount over the aligned seed entries, exactly and as int64.
    spec = DETECTABLE_SPECS[spec_name]
    k = spec.alphabet_size
    seeds = generate_seeds(num_seeds, 8, _deletion_pattern(8, deleted), spec, substream(23, num_seeds))
    result = detect_deletions(seeds.g1, seeds.g2, alphabet_size=k)
    expected = aligned_pair_counts(seeds.g1, seeds.g2, result.retained, k)
    assert result.pair_counts.dtype == np.int64
    assert result.pair_counts.shape == (k, k)
    assert np.array_equal(result.pair_counts, expected)
    assert result.pair_counts.sum() == num_seeds * (8 - len(deleted))
    # The source totals ride on the same tabulation, g2 columns or none.
    assert result.source_counts.dtype == np.int64
    assert np.array_equal(result.source_counts, np.bincount(seeds.g1.ravel(), minlength=k + 1)[1:])


def test_cross_hamming_rejects_counts_of_another_shape(rng):
    g1 = rng.integers(1, 4, size=(50, 4)).astype(np.uint8)
    g2 = g1[:, [0, 2]]
    with pytest.raises(ValueError, match="shape"):
        cross_hamming(g1, g2, np.array([1, 2]), cooccurrence(g1, g2, 3)[0])


def test_cross_hamming_dimension_mismatch(rng):
    g1 = rng.integers(1, 3, size=(10, 4)).astype(np.uint8)
    g2 = rng.integers(1, 3, size=(11, 3)).astype(np.uint8)
    counts, _ = cooccurrence(g1, g2[:10], 2)
    with pytest.raises(ValueError, match="same row count"):
        cross_hamming(g1, g2, np.array([1, 2]), counts)
    with pytest.raises(ValueError, match="same row count"):
        cooccurrence(g1, g2, 2)


def test_threshold_formula():
    assert deletion_threshold(10_000, 10) == pytest.approx(
        2 * 10_000 ** (2 / 3) * np.log2(10) ** (1 / 3)
    )


@pytest.mark.parametrize("constant", [math.nan, math.inf, 0.0, -1.0])
def test_deletion_threshold_rejects_constant_not_finite_and_positive(constant):
    # The constant is fixed at 2: a caller's own constant fails loudly.
    with pytest.raises(TypeError):
        deletion_threshold(10_000, 10, constant)


def test_scan_remapping_misdetection_and_order():
    # Two outliers in one column is a misdetection.
    l = np.full((5, 2), 100.0)
    l[1, 0] = l[3, 0] = 900.0
    l[2, 1] = 900.0
    with pytest.raises(MisdetectionError):
        scan_remapping(l, 400.0)
    # Outlier rows that do not increase violate column order.
    l = np.full((5, 2), 100.0)
    l[3, 0] = 900.0
    l[1, 1] = 900.0
    with pytest.raises(MisdetectionError):
        scan_remapping(l, 400.0)


def test_scan_remapping_useless_before_later_misdetection():
    # The scan walks columns in order: a zero-outlier column rejects the
    # remapping before any later column can raise.
    l = np.full((5, 3), 100.0)
    l[1, 1] = l[3, 1] = 900.0
    assert scan_remapping(l, 400.0) is None


def _scan_outcome(scan, l, tau_hat):
    try:
        rows = scan(l, tau_hat)
    except MisdetectionError:
        return MisdetectionError
    return None if rows is None else rows.tolist()


@st.composite
def _spiked_distances(draw):
    """A small-valued matrix with zero, one or two spikes of 40 per column."""
    rows, cols = draw(st.tuples(st.integers(1, 6), st.integers(0, 5)))
    l = draw(arrays(np.int64, (rows, cols), elements=st.integers(0, 3)))
    for j in range(cols):
        spikes = draw(st.sampled_from([1, 1, 1, 1, 0, 2]))
        l[draw(st.lists(st.integers(0, rows - 1), min_size=spikes, max_size=spikes)), j] = 40
    return l


@settings(derandomize=True, deadline=None, max_examples=300)
@given(l=_spiked_distances(), tau_hat=st.sampled_from([0.0, 10.0, 20.0, 30.0]))
def test_scan_remapping_matches_column_loop_oracle(l, tau_hat):
    # Useless, misdetected at a first or later column, out of row order,
    # empty and detected matrices all reach the scan.
    assert _scan_outcome(scan_remapping, l, tau_hat) == _scan_outcome(
        scan_remapping_loop, l, tau_hat
    )


def _counting(monkeypatch, name):
    """Record the positional arguments of every call to ``deletions.<name>``."""
    calls = []
    original = getattr(deletions, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(deletions, name, counting)
    return calls


@pytest.mark.parametrize(
    "spec, deleted, expect_sweep",
    [
        (bsc_spec(flip=0.1, p_s=(0.3, 0.7)), (1, 4), False),
        (unit_trace_cyclic_spec(), (2, 6), True),
    ],
    ids=["bsc", "unit_trace_cyclic"],
)
def test_detect_deletions_calls_cross_hamming_per_remapping(monkeypatch, spec, deleted, expect_sweep):
    # The benchmark's traced run wraps `deletions.cross_hamming` and reads
    # g1 and g2 from its first two positional arguments: one call per
    # swept remapping, in sweep order, looked up through the module.
    seeds = generate_seeds(10_000, 10, _deletion_pattern(10, deleted), spec, substream(13, 0))
    calls = _counting(monkeypatch, "cross_hamming")
    result = detect_deletions(seeds.g1, seeds.g2, alphabet_size=spec.alphabet_size)
    assert np.array_equal(result.deleted, deleted)
    assert (len(calls) > 1) if expect_sweep else (len(calls) == 1)
    remappings = enumerate_remappings(spec.alphabet_size)
    for args, phi in zip(calls, remappings):
        assert np.array_equal(args[0], seeds.g1)
        assert np.array_equal(args[1], seeds.g2)
        assert np.array_equal(args[2], phi)


def test_detect_deletions_decides_the_threshold_once(monkeypatch):
    # The threshold depends only on the seed count and n: one call per
    # detection, however many remappings the unit-trace channel sweeps.
    seeds = generate_seeds(
        10_000, 10, _deletion_pattern(10, (2, 6)), unit_trace_cyclic_spec(), substream(13, 0)
    )
    thresholds = _counting(monkeypatch, "deletion_threshold")
    remaps = _counting(monkeypatch, "cross_hamming")
    result = detect_deletions(seeds.g1, seeds.g2, alphabet_size=3)
    assert np.array_equal(result.deleted, [2, 6])
    assert len(remaps) > 1
    assert thresholds == [(10_000, 10)]


@pytest.mark.parametrize("constant", [math.nan, math.inf, 0.0, -1.0])
def test_detect_deletions_rejects_a_bad_constant_before_the_counts(monkeypatch, constant):
    seeds = generate_seeds(
        2000, 8, _deletion_pattern(8, (1, 4)), bsc_spec(p_s=(0.3, 0.7)), substream(3, 0)
    )
    built = _counting(monkeypatch, "cooccurrence")
    # The constant is fixed at 2, and ``counts`` is keyword-only, so a
    # caller's own constant fails loudly, by keyword or by position.
    with pytest.raises(TypeError, match="threshold_constant"):
        detect_deletions(seeds.g1, seeds.g2, alphabet_size=2, threshold_constant=constant)
    with pytest.raises(TypeError, match="positional"):
        detect_deletions(seeds.g1, seeds.g2, 2, constant)
    assert built == []


def test_fig3_style_exact_recovery():
    spec = symmetric_spec(4, diag=0.08, p_s=(0.3, 0.7))
    pattern = _deletion_pattern(10, (3, 5, 9))
    seeds = generate_seeds(10_000, 10, pattern, spec, substream(7, 0))
    result = detect_deletions(seeds.g1, seeds.g2, alphabet_size=4)
    assert np.array_equal(result.retained, [0, 1, 2, 4, 6, 7, 8])
    assert np.array_equal(result.deleted, [3, 5, 9])
    assert result.retained.size == 7


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
    counts, _ = cooccurrence(seeds.g1, seeds.g2, 3)
    identity_l = cross_hamming(seeds.g1, seeds.g2, np.array([1, 2, 3]), counts)
    assert scan_remapping(identity_l, deletion_threshold(10_000, 10)) is None
    result = detect_deletions(seeds.g1, seeds.g2, alphabet_size=3)
    assert np.array_equal(result.deleted, [2, 6])


def test_unit_trace_monte_carlo():
    spec = unit_trace_cyclic_spec(p_s=(0.3, 0.7))
    hits = 0
    for trial in range(100):
        pattern = RepetitionPattern(substream(1000, trial).binomial(1, 0.7, size=10))
        if not pattern.s.any():
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
            if not pattern.s.any():
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


def _retention_or_error(g1, g2, alphabet_size):
    try:
        result = detect_deletions(g1, g2, alphabet_size=alphabet_size)
    except (MisdetectionError, NoUsefulRemappingError) as exc:
        return type(exc)
    return result.retained.tolist(), result.deleted.tolist(), result.pair_counts.tolist()


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    spec=st.sampled_from(list(ORACLE_SPECS.values())),
    seed=st.integers(0, 10_000),
    num_seeds=st.sampled_from([300, 3000]),
)
def test_detect_deletions_row_permutation_property(spec, seed, num_seeds):
    # Seed rows are exchangeable: one row permutation applied to both
    # seed matrices is the same evidence, whatever the outcome.
    rng = substream(seed, 0)
    pattern = RepetitionPattern(rng.binomial(1, 0.7, size=10))
    seeds = generate_seeds(num_seeds, 10, pattern, spec, rng)
    perm = rng.permutation(num_seeds)
    k = spec.alphabet_size
    assert _retention_or_error(seeds.g1[perm], seeds.g2[perm], k) == _retention_or_error(
        seeds.g1, seeds.g2, k
    )
