import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbalign import (
    ModelSpec,
    RepetitionPattern,
    assemble_joint,
    deanonymize,
    from_model_spec,
    generate_database,
    match_rows,
    pattern_from_detections,
    sample_instance,
    segment,
    substream,
)
from dbalign.deletions import RetentionResult
from dbalign.estimation import from_dict
from dbalign.matching import STATUS_AMBIGUOUS, STATUS_MATCHED, MatchResult

from conftest import bsc_spec, noiseless_spec, symmetric_spec, unit_trace_cyclic_spec
from oracles import ERASURE, cell, row_cells, typicality_deviation


def brute_force_match(d1, segmented, est, epsilon):
    """Oracle matcher: scalar reference deviations plus uniqueness."""
    m1 = d1.shape[0]
    m2 = segmented.num_rows
    assigned = np.full(m2, -1, dtype=np.int64)
    n_candidates = np.zeros(m2, dtype=np.int64)
    for l in range(m2):
        cells = row_cells(segmented, l)
        hits = [
            i
            for i in range(m1)
            if all(d <= epsilon for d in typicality_deviation(d1[i], cells, est))
        ]
        n_candidates[l] = len(hits)
        if len(hits) == 1:
            assigned[l] = hits[0]
    # injectivity: colliding claims are not matches
    for target in set(assigned[assigned >= 0].tolist()):
        claims = np.flatnonzero(assigned == target)
        if claims.size > 1:
            assigned[claims] = -1
    return assigned, n_candidates


def test_segment_all_single_columns(rng):
    d2 = rng.integers(1, 3, size=(4, 5)).astype(np.uint8)
    seg = segment(d2, RepetitionPattern(np.ones(5, dtype=int)))
    assert row_cells(seg, 0) == [(int(v),) for v in d2[0]]


def test_segment_deletion_and_replication():
    d2 = np.array([[5, 6, 7]], dtype=np.uint8)
    seg = segment(d2, RepetitionPattern([1, 0, 2]))
    assert cell(seg, 0, 0) == (5,)
    assert cell(seg, 0, 1) is ERASURE
    assert cell(seg, 0, 2) == (6, 7)


def test_segment_illustration_pattern(rng):
    # One column replicated twice, one deleted, like the walkthrough
    # figure: the replicated run becomes a 2-tuple, the deletion an
    # erasure cell.
    d2 = rng.integers(1, 3, size=(6, 6)).astype(np.uint8)
    seg = segment(d2, RepetitionPattern([1, 2, 1, 0, 1, 1]))
    assert len(cell(seg, 2, 1)) == 2
    assert cell(seg, 2, 3) is ERASURE
    assert [len(c) if c is not ERASURE else 0 for c in row_cells(seg, 0)] == [1, 2, 1, 0, 1, 1]


def test_segment_arity_mismatch():
    with pytest.raises(ValueError):
        segment(np.ones((2, 3), dtype=np.uint8), RepetitionPattern([1, 1]))


def test_typicality_deviation_deterministic_model():
    spec = noiseless_spec(size=1, p_s=(0.0, 1.0), p_x=[1.0])
    est = from_model_spec(spec)
    devs = typicality_deviation(np.ones(6, dtype=np.uint8), [(1,)] * 6, est)
    assert devs == (0.0, 0.0, 0.0)


def test_typicality_deviation_zero_probability_is_infinite():
    est = from_model_spec(noiseless_spec(size=2))
    # identity channel: observing (x=1, y=2) has probability zero
    devs = typicality_deviation(np.array([1, 2]), [(2,), (2,)], est)
    assert devs[0] == math.inf
    assert devs[1] < math.inf and devs[2] < math.inf


def test_typicality_deviation_concentrates_for_true_pairs():
    spec = bsc_spec(flip=0.1, p_s=(0.0, 1.0))
    est = from_model_spec(spec)
    n = 10_000
    hits = 0
    for seed in range(100):
        pair, _ = sample_instance(1, n, 1, spec, master_seed=seed)
        cells = row_cells(segment(pair.d2, pair.pattern), pair.sigma[0])
        dev_joint, _, _ = typicality_deviation(pair.d1[0], cells, est)
        hits += dev_joint <= 0.05
    assert hits >= 99


def test_match_rows_duplicate_rows_are_ambiguous():
    spec = noiseless_spec(size=2)
    d1 = np.array([[1, 2, 1, 2], [1, 2, 1, 2], [2, 1, 2, 2]], dtype=np.uint8)
    seg = segment(d1.copy(), RepetitionPattern(np.ones(4, dtype=int)))
    result = match_rows(d1, seg, from_model_spec(spec), epsilon=0.1)
    assert result.status[0] == STATUS_AMBIGUOUS
    assert result.status[1] == STATUS_AMBIGUOUS
    assert result.status[2] == STATUS_MATCHED
    assert result.assigned[2] == 2


def test_match_rows_small_noiseless_exact():
    spec = noiseless_spec(size=2, p_s=(0.0, 1.0))
    est = from_model_spec(spec)
    exact = 0
    for seed in range(100):
        pair, _ = sample_instance(4, 50, 1, spec, master_seed=seed)
        seg = segment(pair.d2, pair.pattern)
        result = match_rows(pair.d1, seg, est, epsilon=0.1)
        exact += result.row_error_rate(pair.sigma) == 0.0
    assert exact >= 95


def _unsupported_symbol_case():
    # Symbol 3 was never seen in a retained seed column: its channel row
    # is all zero, so every cell scored against it has probability zero.
    spec = symmetric_spec(3, 0.8, (0.2, 0.5, 0.3))
    chan = [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.0, 0.0, 0.0]]
    est = from_dict({"p_x": spec.p_x.tolist(), "p_y_given_x": chan, "p_s": spec.p_s.tolist()})
    return spec, est


ORACLE_CASES = {
    "bsc": (bsc_spec(flip=0.15, p_s=(0.2, 0.5, 0.3)), None),
    "skewed_source": (bsc_spec(flip=0.15, p_s=(0.2, 0.5, 0.3), p_x=(0.8, 0.2)), None),
    "unit_trace_cyclic": (unit_trace_cyclic_spec((0.2, 0.5, 0.3)), None),
    "ternary": (symmetric_spec(3, 0.8, (0.1, 0.4, 0.3, 0.2)), None),
    "quaternary": (symmetric_spec(4, 0.7, (0.2, 0.5, 0.3)), None),
    "all_deleted": (bsc_spec(flip=0.15, p_s=(1.0, 0.0)), None),
    "unsupported_symbol": _unsupported_symbol_case(),
}


@pytest.mark.parametrize("spec, est", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_match_rows_agrees_with_brute_force_oracle(spec, est):
    if est is None:
        est = from_model_spec(spec)
    for seed in range(8):
        pair, _ = sample_instance(12, 9, 1, spec, master_seed=900 + seed)
        seg = segment(pair.d2, pair.pattern)
        for epsilon in (0.2, 0.5, 1.0):
            fast = match_rows(pair.d1, seg, est, epsilon)
            assigned, n_candidates = brute_force_match(pair.d1, seg, est, epsilon)
            assert np.array_equal(fast.assigned, assigned)
            matched = fast.status == STATUS_MATCHED
            assert np.array_equal(matched, assigned >= 0)
            no_cand = n_candidates == 0
            assert np.array_equal(fast.status == 2, no_cand)


RELABEL_SPECS = [
    bsc_spec(flip=0.15, p_s=(0.2, 0.5, 0.3), p_x=(0.7, 0.3)),
    unit_trace_cyclic_spec((0.2, 0.5, 0.3)),
    symmetric_spec(3, 0.8, (0.1, 0.4, 0.3, 0.2)),
    symmetric_spec(4, 0.7, (0.2, 0.5, 0.3)),
]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    spec=st.sampled_from(RELABEL_SPECS),
    seed=st.integers(0, 10_000),
    epsilon=st.sampled_from([0.2, 0.5, 1.0]),
    data=st.data(),
)
def test_match_rows_symbol_relabelling_equivariance(spec, seed, epsilon, data):
    # Renaming the symbols of d1 and of d2, with the distributions renamed
    # to match, is the same instance: the matching must not change.
    k = spec.alphabet_size
    perm_x = np.array(data.draw(st.permutations(range(k))))
    perm_y = np.array(data.draw(st.permutations(range(k))))
    pair, _ = sample_instance(16, 12, 1, spec, master_seed=seed)
    base = match_rows(pair.d1, segment(pair.d2, pair.pattern), from_model_spec(spec), epsilon)

    p_x = np.empty(k)
    p_x[perm_x] = spec.p_x
    chan = np.empty((k, k))
    chan[np.ix_(perm_x, perm_y)] = spec.p_y_given_x
    relabelled = match_rows(
        (perm_x + 1).astype(np.uint8)[pair.d1 - 1],
        segment((perm_y + 1).astype(np.uint8)[pair.d2 - 1], pair.pattern),
        assemble_joint(p_x, chan, spec.p_s),
        epsilon,
    )
    assert np.array_equal(relabelled.assigned, base.assigned)
    assert np.array_equal(relabelled.status, base.status)


def test_match_result_accessors():
    assigned = np.array([2, -1, 0])
    status = np.array([STATUS_MATCHED, STATUS_AMBIGUOUS, STATUS_MATCHED], dtype=np.int8)
    result = MatchResult(assigned=assigned, status=status)
    sigma_hat = result.sigma_hat()
    assert sigma_hat[2] == 0 and sigma_hat[0] == 2 and sigma_hat[1] == -1
    counts = result.status_counts()
    assert counts["matched"] == 2 and counts["ambiguous"] == 1
    # truth sigma = (2, 0, 1): only d1 row 0 is correctly recovered
    # (d2 row 0 points at d1 row 2, and d2 row 1 is ambiguous)
    assert result.row_error_rate(np.array([2, 0, 1])) == pytest.approx(2 / 3)


def test_match_rows_injective(rng):
    spec = bsc_spec(flip=0.3, p_s=(0.0, 1.0))
    est = from_model_spec(spec)
    for seed in range(10):
        pair, _ = sample_instance(20, 6, 1, spec, master_seed=3000 + seed)
        seg = segment(pair.d2, pair.pattern)
        result = match_rows(pair.d1, seg, est, epsilon=1.0)
        matched = result.assigned[result.status == STATUS_MATCHED]
        assert len(set(matched.tolist())) == matched.size


def test_match_equivariance_under_row_relabeling(rng):
    spec = bsc_spec(flip=0.1, p_s=(0.0, 1.0))
    est = from_model_spec(spec)
    pair, _ = sample_instance(16, 40, 1, spec, master_seed=77)
    seg = segment(pair.d2, pair.pattern)
    base = match_rows(pair.d1, seg, est, epsilon=0.3)
    pi = rng.permutation(16)
    d2_new = np.empty_like(pair.d2)
    d2_new[pi] = pair.d2
    relabeled = match_rows(pair.d1, segment(d2_new, pair.pattern), est, epsilon=0.3)
    assert np.array_equal(relabeled.assigned[pi], base.assigned)
    assert np.array_equal(relabeled.status[pi], base.status)
    assert relabeled.row_error_rate(pi[pair.sigma]) == base.row_error_rate(pair.sigma)


def test_pattern_from_detections_round_trip(rng):
    for _ in range(20):
        n = int(rng.integers(3, 12))
        s = rng.integers(0, 3, size=n)
        if s.sum() == 0:
            continue
        pattern = RepetitionPattern(s)
        cols = np.repeat(np.arange(n), s)
        is_replica = cols[1:] == cols[:-1]
        retention = RetentionResult(
            retained=pattern.retained_indices(),
            deleted=pattern.deleted_indices(),
            n=n,
        )
        rebuilt = pattern_from_detections(is_replica, retention, n)
        assert np.array_equal(rebuilt.s, s)
        assert rebuilt.total == pattern.total


def test_pattern_from_detections_mismatch():
    retention = RetentionResult(retained=np.array([0, 2]), deleted=np.array([1]), n=3)
    with pytest.raises(ValueError):
        pattern_from_detections(np.array([False, False]), retention, 3)


def test_deanonymize_illustration_instance():
    # Walkthrough-scale instance: six columns, one replicated twice, one
    # deleted, no noise; the hidden permutation is recovered exactly.
    spec = noiseless_spec(size=2, p_s=(0.0, 1.0))
    d1 = generate_database(8, 6, spec, substream(1, 0))
    pattern = RepetitionPattern([1, 2, 1, 0, 1, 1])
    sigma = substream(1, 1).permutation(8)
    from dbalign import apply_channel, generate_seeds

    d2 = apply_channel(d1, pattern, sigma, spec, substream(1, 2))
    seeds = generate_seeds(10_000, 6, pattern, spec, substream(1, 3))
    assert len({tuple(r) for r in d1.tolist()}) == 8  # rows distinct for this draw
    result = deanonymize(
        d1, d2, seeds.g1, seeds.g2, alphabet_size=2, s_max=2, epsilon=0.2
    )
    assert result.failed_stage is None
    assert np.array_equal(result.pattern.s, pattern.s)
    assert result.match.row_error_rate(sigma) == 0.0
    assert np.array_equal(result.match.sigma_hat(), sigma)


def test_deanonymize_noiseless_moderate_rate():
    spec = noiseless_spec(size=2, p_s=(0.0, 1.0))
    for seed in range(10):
        pair, seeds = sample_instance(64, 40, 10_000, spec, master_seed=6000 + seed)
        result = deanonymize(
            pair.d1, pair.d2, seeds.g1, seeds.g2, alphabet_size=2, s_max=1, epsilon=0.2
        )
        assert result.failed_stage is None
        assert result.match.row_error_rate(pair.sigma) == 0.0


def test_deanonymize_records_stage_failure():
    # Independent databases: every remapping equalizes the two rates, so
    # deletion detection finds no outliers and the trial fails cleanly.
    spec = ModelSpec(
        p_x=[0.5, 0.5],
        p_y_given_x=[[0.7, 0.3], [0.7, 0.3]],
        p_s=[0.3, 0.7],
    )
    pair, seeds = sample_instance(10, 10, 1000, spec, master_seed=8)
    result = deanonymize(
        pair.d1, pair.d2, seeds.g1, seeds.g2, alphabet_size=2, s_max=1, epsilon=0.2
    )
    assert result.failed_stage == "deletion"
    assert "useless" in result.failure
    assert result.match is None
    assert result.is_replica is not None  # earlier stage completed


def test_deanonymize_pattern_sum_invariant():
    spec = bsc_spec(flip=0.05, p_s=(0.2, 0.5, 0.3))
    for seed in range(5):
        pair, seeds = sample_instance(50, 12, 10_000, spec, master_seed=7000 + seed)
        result = deanonymize(
            pair.d1, pair.d2, seeds.g1, seeds.g2, alphabet_size=2, s_max=2, epsilon=0.5
        )
        if result.pattern is not None:
            assert result.pattern.total == pair.d2.shape[1]


def test_match_rows_requires_equal_row_counts():
    spec = noiseless_spec(size=2)
    est = from_model_spec(spec)
    d1 = np.ones((4, 3), dtype=np.uint8)
    seg = segment(np.ones((5, 3), dtype=np.uint8), RepetitionPattern([1, 1, 1]))
    with pytest.raises(ValueError):
        match_rows(d1, seg, est, epsilon=0.1)


@pytest.mark.parametrize("side, value", [("d1", 0), ("d2", 3), ("g2", 3)])
def test_deanonymize_rejects_symbols_outside_alphabet(side, value):
    spec = bsc_spec(flip=0.1, p_s=(0.2, 0.5, 0.3))
    pair, seeds = sample_instance(32, 12, 5000, spec, master_seed=1)
    mats = {"d1": pair.d1.copy(), "d2": pair.d2.copy(), "g1": seeds.g1, "g2": seeds.g2.copy()}
    mats[side][0, 0] = value
    with pytest.raises(ValueError, match="1..2"):
        deanonymize(
            mats["d1"], mats["d2"], mats["g1"], mats["g2"], alphabet_size=2, s_max=2, epsilon=0.3
        )


def test_deanonymize_validates_shared_pattern():
    spec = bsc_spec()
    pair, seeds = sample_instance(6, 5, 10, spec, master_seed=1)
    with pytest.raises(ValueError):
        deanonymize(
            pair.d1, pair.d2, seeds.g1, seeds.g2[:, :-1], alphabet_size=2, s_max=1
        )


def test_deanonymize_all_deleted_instance():
    # Every column deleted: d2 and g2 have no columns, so the pattern is
    # all zeros and no repeated row tells one anonymized row from another.
    spec = bsc_spec(p_s=(1.0, 0.0))
    pair, seeds = sample_instance(16, 6, 2000, spec, master_seed=7)
    assert pair.d2.shape[1] == 0
    result = deanonymize(
        pair.d1, pair.d2, seeds.g1, seeds.g2, alphabet_size=2, s_max=1, epsilon=0.3
    )
    assert result.failed_stage is None
    assert np.array_equal(result.pattern.s, np.zeros(6))
    assert np.array_equal(result.retention.deleted, np.arange(6))
    assert result.match.status_counts()["ambiguous"] == 16


def test_deanonymize_understated_s_max_is_recorded():
    # s_max=1 rules replicas out, so the replica-free seeds keep every
    # repeated column: more than there are original columns.
    spec = bsc_spec(flip=0.1, p_s=(0.2, 0.5, 0.3))
    pair, seeds = sample_instance(64, 20, 5000, spec, master_seed=0)
    assert pair.d2.shape[1] > 20
    result = deanonymize(
        pair.d1, pair.d2, seeds.g1, seeds.g2, alphabet_size=2, s_max=1, epsilon=0.3
    )
    assert result.failed_stage == "replica"
    assert "replica runs" in result.failure
    assert result.retention is None and result.match is None
