import dataclasses
import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dbalign import deletions, estimation, fanout, matching, replicas
from dbalign.deletions import MIN_COLUMNS, RetentionResult
from dbalign.estimation import assemble_joint, from_model_spec
from dbalign.infotheory import TABLE_LIMIT
from dbalign.matching import (
    MatchResult,
    STATUS_AMBIGUOUS,
    STATUS_MATCHED,
    deanonymize,
    estimate_stages,
    match_rows,
    segment,
)
from dbalign.model import (
    ModelSpec,
    RepetitionPattern,
    apply_channel,
    draw_pattern,
    generate_database,
    sample_instance,
    substream,
)
from dbalign.replicas import dispersion, dispersion_bound, running_hamming

from conftest import (
    bsc_spec,
    long_run_instance,
    noiseless_spec,
    symmetric_spec,
    unit_trace_cyclic_spec,
)
from oracles import (
    ERASURE,
    cell,
    dense_match_rows,
    markov_rows,
    reduceat_cells,
    row_cells,
    typicality_deviation,
    typicality_deviations,
    ungated_replicas,
)


def brute_force_match(d1, segmented, est, epsilon):
    """Oracle matcher: scalar reference deviations plus uniqueness."""
    m1 = d1.shape[0]
    m2 = segmented.d2.shape[0]
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


@pytest.mark.parametrize(
    "spec",
    [
        bsc_spec(flip=0.1, p_s=(0.0, 1.0)),
        bsc_spec(flip=0.1, p_s=(0.2, 0.5, 0.3)),
        symmetric_spec(3, 0.8, (0.1, 0.4, 0.3, 0.2)),
        noiseless_spec(size=2, p_s=(0.2, 0.4, 0.4)),  # false pairs reach zero probability
    ],
)
def test_vectorized_typicality_deviations_agree_with_the_scalar_oracle(spec):
    pair, _ = sample_instance(6, 40, 1, spec, master_seed=5)
    seg, est = segment(pair.d2, pair.pattern), from_model_spec(spec)
    for x_row in pair.d1:
        for i in range(6):
            fast = typicality_deviations(x_row, seg, i, est)
            slow = typicality_deviation(x_row, row_cells(seg, i), est)
            assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)


def test_typicality_deviation_concentrates_for_true_pairs():
    spec = bsc_spec(flip=0.1, p_s=(0.0, 1.0))
    est = from_model_spec(spec)
    n = 10_000
    hits = 0
    for seed in range(100):
        pair, _ = sample_instance(1, n, 1, spec, master_seed=seed)
        seg = segment(pair.d2, pair.pattern)
        dev_joint, _, _ = typicality_deviations(pair.d1[0], seg, pair.sigma[0], est)
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
    est = assemble_joint(spec.p_x, chan, spec.p_s)
    return spec, est


ORACLE_CASES = {
    "bsc": (bsc_spec(flip=0.15, p_s=(0.2, 0.5, 0.3)), None),
    "skewed_source": (bsc_spec(flip=0.15, p_s=(0.2, 0.5, 0.3), p_x=(0.8, 0.2)), None),
    "unit_trace_cyclic": (unit_trace_cyclic_spec((0.2, 0.5, 0.3)), None),
    "ternary": (symmetric_spec(3, 0.8, (0.1, 0.4, 0.3, 0.2)), None),
    "quaternary": (symmetric_spec(4, 0.7, (0.2, 0.5, 0.3)), None),
    "all_deleted": (bsc_spec(flip=0.15, p_s=(1.0, 0.0)), None),
    "long_runs": (bsc_spec(flip=0.15, p_s=(0.1, 0.4) + (0.0,) * 8 + (0.5,)), None),
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


def _tile_sizes(m):
    """One row, a size that does not divide m, one that does, all of m."""
    ragged = next(r for r in range(2, m) if m % r)
    even = next((r for r in range(2, m) if m % r == 0), m)
    return (1, ragged, even, m)


# Pinned examples that reach the cases the matcher's NaN marks and its
# saturating candidate count must get right, next to matched rows;
# test_oracle_examples_reach_every_case checks that they do.
ORACLE_EXAMPLES = [
    dict(case="skewed_source", seed=3, m=16, n=6, epsilon=0.2),
    dict(case="bsc", seed=3, m=16, n=6, epsilon=0.05),
]


def _oracle_instance(case, seed, m, n):
    spec, est = ORACLE_CASES[case]
    pair, _ = sample_instance(m, n, 1, spec, master_seed=seed)
    return pair, segment(pair.d2, pair.pattern), from_model_spec(spec) if est is None else est


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    case=st.sampled_from(sorted(ORACLE_CASES)),
    seed=st.integers(0, 10_000),
    m=st.integers(3, 24),
    n=st.integers(3, 10),
    epsilon=st.sampled_from([0.05, 0.2, 0.5, 1.0]),
)
@example(case="all_deleted", seed=0, m=12, n=6, epsilon=0.5)
@example(case="long_runs", seed=0, m=16, n=8, epsilon=0.5)  # runs of 10 copies
@example(**ORACLE_EXAMPLES[0])
@example(**ORACLE_EXAMPLES[1])
def test_match_rows_tiles_agree_with_dense_oracle(case, seed, m, n, epsilon):
    # Each repeated row is decided on one thread from its own scores, so
    # no split of the repeated rows into parts (one per thread of the
    # budget, of at least MATCH_PART rows each), no tile height and no tile
    # width (MATCH_PART columns of d1) can change the result. Widths of 2
    # and 3 leave a narrower last column tile where they do not divide m.
    pair, seg, est = _oracle_instance(case, seed, m, n)
    dense = dense_match_rows(pair.d1, seg, est, epsilon)
    for rows, width, budget in itertools.product(_tile_sizes(m), (1, 2, 3, m), (1, 2, 3)):
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("error")
            mp.setattr(matching, "TILE_BYTES", 8 * width * rows)
            mp.setattr(matching, "MATCH_PART", width)
            with fanout.budget(budget):
                tiled = match_rows(pair.d1, seg, est, epsilon)
        assert np.array_equal(tiled.assigned, dense.assigned)
        assert np.array_equal(tiled.status, dense.status)


def test_oracle_examples_reach_every_case():
    x_atypical = y_atypical = most_candidates = matched = 0
    for ex in ORACLE_EXAMPLES:
        pair, seg, est = _oracle_instance(ex["case"], ex["seed"], ex["m"], ex["n"])
        dev = np.array(
            [
                [typicality_deviation(x_row, row_cells(seg, l), est) for x_row in pair.d1]
                for l in range(ex["m"])
            ]
        )
        typical = dev <= ex["epsilon"]
        x_atypical += int((~typical[0, :, 1]).sum())
        y_atypical += int((~typical[:, 0, 2]).sum())
        most_candidates = max(most_candidates, int(typical.all(axis=2).sum(axis=1).max()))
        dense = dense_match_rows(pair.d1, seg, est, ex["epsilon"])
        matched += int((dense.status == STATUS_MATCHED).sum())
    assert x_atypical and y_atypical and matched
    assert most_candidates >= 3


@pytest.mark.parametrize(
    "ex", [*ORACLE_EXAMPLES, dict(case="long_runs", seed=0, m=16, n=8, epsilon=0.5)]
)
def test_match_rows_decides_the_same_whatever_order_the_tiles_come_in(ex, monkeypatch):
    # The rule keeps a count and one hit per repeated row, so a part's
    # tiles may come in any order. Tiles at most 2 rows high, 3 columns wide,
    # give each part several row blocks and column tiles to reverse.
    pair, seg, est = _oracle_instance(ex["case"], ex["seed"], ex["m"], ex["n"])
    dense = dense_match_rows(pair.d1, seg, est, ex["epsilon"])
    monkeypatch.setattr(matching, "TILE_BYTES", 8 * 3 * 2)
    monkeypatch.setattr(matching, "MATCH_PART", 3)
    in_order = matching._tiles

    def reversed_tiles(*args):
        # _tiles writes every tile into one buffer, so each is copied.
        return reversed([(l0, c0, scores.copy()) for l0, c0, scores in in_order(*args)])

    for budget in (1, 2, 3):
        with fanout.budget(budget):
            forward = match_rows(pair.d1, seg, est, ex["epsilon"])
            with monkeypatch.context() as mp:
                mp.setattr(matching, "_tiles", reversed_tiles)
                backward = match_rows(pair.d1, seg, est, ex["epsilon"])
        for result in (forward, backward):
            assert np.array_equal(result.assigned, dense.assigned)
            assert np.array_equal(result.status, dense.status)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    k=st.integers(1, 8),
    lengths=st.lists(st.integers(1, 12), min_size=1, max_size=8),
    m=st.integers(1, 40),
    seed=st.integers(0, 10_000),
)
@example(k=2, lengths=[9, 1, 12, 10], m=40, seed=0)
@example(k=8, lengths=[6, 1, 2], m=40, seed=0)
def test_cell_table_scores_each_distinct_run_once_as_reduceat_does(k, lengths, m, seed):
    # A run of 9 or more copies is where numpy's pairwise sum changes
    # form; the run lengths are capped where the code space outgrows
    # TABLE_LIMIT. Every cell gathered from the table must equal, bit for
    # bit, a reduceat over its own row, zero-probability entries included.
    longest = max(s for s in range(1, 13) if k ** (s + 1) <= TABLE_LIMIT)
    lengths = np.minimum(lengths, longest)
    starts = np.cumsum(lengths) - lengths
    rng = np.random.default_rng(seed)
    d2 = rng.integers(1, k + 1, size=(m, lengths.sum()), dtype=np.uint8)
    channel = rng.uniform(size=(k, k))
    channel[channel < 0.1] = 0.0
    log_channel = np.zeros((k, k + 1))
    log_channel[:, 1:] = matching._safe_log2(channel)

    table, ids = matching._cell_table(d2, starts, lengths, log_channel)
    gathered = np.ascontiguousarray(table[:, ids].transpose(1, 0, 2))
    expected = reduceat_cells(d2, starts, log_channel)
    assert gathered.view(np.uint64).tobytes() == expected.view(np.uint64).tobytes()
    runs = {tuple(row[a : a + s]) for row in d2 for a, s in zip(starts, lengths)}
    assert table.shape == (k, len(runs))
    assert len(runs) <= min(m * lengths.size, sum(k**s for s in range(1, lengths.max() + 1)))


def _float64_scores(cells, x_cells, offset):
    """The float64 joint-score formula: each pair's cells summed, plus its offset."""
    return cells[:, x_cells, np.arange(x_cells.shape[1])].sum(axis=2) + offset


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    k=st.sampled_from([2, 3, 4]),
    r=st.integers(1, 500),
    epsilon=st.sampled_from([0.05, 0.3, 1.0, 5.0]),
    steered=st.sampled_from([0, 1]),
    seed=st.integers(0, 10_000),
)
@example(k=2, r=1, epsilon=0.05, steered=0, seed=0)
@example(k=4, r=500, epsilon=5.0, steered=1, seed=0)
def test_screen_keeps_every_pair_typical_in_float64(k, r, epsilon, steered, seed):
    # The steered row's float64 scores sit at most three float32 ulps of
    # n eps from +n eps or -n eps, where only the screen's slack keeps the
    # typical ones; row 1 holds penalty cells, row 3 is Y-atypical and a
    # tenth of the anonymized rows X-atypical.
    rng = np.random.default_rng(seed)
    m2, m1, n = 4, 64, r + 3
    bound = n * epsilon
    cells = np.log2(rng.uniform(0.02, 1.0, size=(m2, k, r)))
    penalty = -2.0 * (n * (1.0 + epsilon) + 1.0)
    cells[1][rng.random((k, r)) < 0.2] = penalty
    x_cells = rng.integers(0, k, size=(m1, r))
    ulp = float(np.spacing(np.float32(bound)))
    target = rng.choice([-bound, bound], size=m1) + ulp * rng.integers(-3, 4, size=m1)
    offset = target - _float64_scores(cells[steered : steered + 1], x_cells, 0.0)[0]
    offset[rng.random(m1) < 0.1] = np.nan
    y_typical = np.array([True, True, True, False])

    # Every cell is its own run: the table has one column per cell.
    table = cells.transpose(1, 0, 2).reshape(k, m2 * r)
    ids = np.arange(m2 * r).reshape(m2, r)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, b, lo, hi = matching._screen(table, ids, y_typical, x_cells, offset, bound)
        screened = np.abs(a @ b)
    assert a.dtype == b.dtype == np.float32 and a.shape[1] == (k - 1) * r + 2
    s64 = _float64_scores(cells, x_cells, offset)
    typical = (np.abs(s64) <= bound) & y_typical[:, None]
    hits = screened <= hi[:, None]
    assert hits[typical].all()
    assert not hits[~y_typical].any() and not hits[:, np.isnan(offset)].any()
    assert typical[screened <= lo[:, None]].all()
    near = np.abs(np.abs(s64[steered]) - bound) <= 3.5 * ulp
    assert near[~np.isnan(offset)].all()


# Two pairs of one instance whose joint scores S are positive and negative;
# epsilon puts |S| one float32 ulp inside or outside n eps, which no
# float32 score can resolve, so the float64 recheck decides.
@pytest.mark.parametrize("l, i", [(0, 5), (1, 3)], ids=["positive", "negative"])
def test_match_rows_decides_scores_one_float32_ulp_from_the_bound(l, i):
    spec = bsc_spec(flip=0.15, p_s=(0.2, 0.5, 0.3))
    est = from_model_spec(spec)
    n = 40
    pair, _ = sample_instance(16, n, 1, spec, master_seed=0)
    seg = segment(pair.d2, pair.pattern)
    dev_joint, dev_x, dev_y = typicality_deviation(pair.d1[i], row_cells(seg, l), est)
    score = n * dev_joint
    ulp = float(np.spacing(np.float32(score)))
    statuses = []
    for side in (1, -1):
        epsilon = (score + side * ulp) / n
        assert dev_x <= epsilon and dev_y <= epsilon
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = match_rows(pair.d1, seg, est, epsilon)
        dense = dense_match_rows(pair.d1, seg, est, epsilon)
        assert np.array_equal(result.assigned, dense.assigned)
        assert np.array_equal(result.status, dense.status)
        statuses.append(result.status[l])
    assert statuses[0] != statuses[1]


def test_match_rows_rejects_pairs_too_likely_to_be_typical():
    # BSC(0.1) without repetitions: a pair that agrees in all n = 10 columns
    # scores S = n (H - log2(1 / 0.45)) = 3.17 > n eps = 2, above the bound
    # by far more than any rounding slack. It reaches the matcher's
    # one-sided floor, so only the decision on |S| keeps it out.
    spec = bsc_spec(flip=0.1)
    est = from_model_spec(spec)
    m, n, epsilon = 16, 10, 0.2
    pair, _ = sample_instance(m, n, 1, spec, master_seed=0)
    seg = segment(pair.d2, pair.pattern)
    x = pair.d1.astype(np.intp)[:, None, :] - 1
    y = pair.d2.astype(np.intp)[None, :, :] - 1
    joint = np.log2(est.p_x[x] * est.p_y_given_x[x, y]).sum(axis=2)
    too_likely = joint + n * est.joint_entropy > n * epsilon + 1.0
    assert too_likely.sum() >= 5
    dense = dense_match_rows(pair.d1, seg, est, epsilon)
    assert dense.status_counts()["matched"] >= 5
    for rows in _tile_sizes(m):
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("error")
            mp.setattr(matching, "TILE_BYTES", 8 * m * rows)
            mp.setattr(matching, "MATCH_PART", m)  # tiles of `rows` rows, m wide
            tiled = match_rows(pair.d1, seg, est, epsilon)
        assert np.array_equal(tiled.assigned, dense.assigned)
        assert np.array_equal(tiled.status, dense.status)


@pytest.mark.parametrize("case", ["unsupported_symbol", "unit_trace_cyclic"])
@pytest.mark.parametrize("epsilon", [5.0, 50.0])
def test_match_rows_never_accepts_a_zero_probability_pair(case, epsilon):
    # At a wide epsilon every pair of positive probability is typical, so
    # the clamped cells alone keep the others out. Each pair is matched on
    # its own, which reports exactly whether it is typical.
    zero = typical = 0
    for seed in range(4):
        pair, seg, est = _oracle_instance(case, seed, 12, 9)
        for l in range(12):
            alone = segment(pair.d2[l : l + 1], pair.pattern)
            for i in range(12):
                devs = typicality_deviation(pair.d1[i], row_cells(seg, l), est)
                result = match_rows(pair.d1[i : i + 1], alone, est, epsilon)
                expected = all(d <= epsilon for d in devs)
                assert (result.status[0] == STATUS_MATCHED) == expected
                zero += devs[0] == math.inf
                typical += expected
        assigned, n_candidates = brute_force_match(pair.d1, seg, est, epsilon)
        result = match_rows(pair.d1, seg, est, epsilon)
        assert np.array_equal(result.assigned, assigned)
        assert np.array_equal(result.status == 2, n_candidates == 0)
    assert zero and typical


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


@pytest.mark.parametrize(
    "sigma",
    [[2, 0], [0, 0, 0], [3, 0, 1], [-1, 0, 1], [2.0, 0.0, 1.0], [[2, 0, 1]]],
    ids=["one_short", "all_zero", "out_of_range", "negative", "float", "2d"],
)
def test_row_error_rate_rejects_sigma_that_is_not_a_permutation(sigma):
    result = MatchResult(assigned=np.array([2, -1, 0]), status=np.zeros(3, dtype=np.int8))
    with pytest.raises(ValueError, match="permutation of 0..2"):
        result.row_error_rate(np.array(sigma))


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


@settings(derandomize=True, deadline=None)
@given(s=st.lists(st.integers(0, 3), min_size=MIN_COLUMNS, max_size=12))
@example(s=[0, 0, 0])
def test_estimate_stages_pattern_round_trip(s):
    # Any pattern of at least MIN_COLUMNS columns, all-deleted included.
    # Segmenting a database whose columns name their origin gives each
    # origin its run. With both detectors returning the truth,
    # estimate_stages hands deletion detection the first seed column of
    # each run and gives the pattern back, grouping the columns into runs
    # once.
    pattern = RepetitionPattern(s)
    origin = np.repeat(np.arange(pattern.n), pattern.s)
    seg = segment(origin[None, :] + 1, pattern)
    for j, count in enumerate(s):
        assert cell(seg, 0, j) == ((j + 1,) * count if count else ERASURE)
    # Binary symbols: seed row r holds bit r of each column's origin, so no
    # two origins share a seed column, and every symbol is in the alphabet.
    g1 = np.tile(np.arange(pattern.n) % 2 + 1, (4, 1)).astype(np.uint8)
    g2 = ((origin >> np.arange(4)[:, None]) % 2 + 1).astype(np.uint8)
    d2 = g2[:3]
    runs = []
    column_runs = replicas.column_runs

    def truth_retention(g1_, g2_free, alphabet_size):
        assert g1_ is g1
        assert np.array_equal(g2_free, g2[:, np.flatnonzero(np.diff(origin, prepend=-1))])
        return RetentionResult(
            retained=pattern.retained_indices(),
            deleted=np.flatnonzero(pattern.s == 0),
            n=pattern.n,
            pair_counts=np.ones((2, 2), dtype=np.int64),
            source_counts=np.ones(2, dtype=np.int64),
        )

    def counting(*args):
        runs.append(args)
        return column_runs(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(replicas, "detect_replicas", lambda mat: origin[1:] == origin[:-1])
        mp.setattr(replicas, "column_runs", counting)
        mp.setattr(deletions, "detect_deletions", truth_retention)
        result = estimate_stages(d2, g1, g2, alphabet_size=2)
    assert result.failed_stage is None
    assert np.array_equal(result.pattern.s, pattern.s)
    assert len(runs) == 1


@pytest.mark.parametrize("bad", [*map(str, range(1, MIN_COLUMNS)), "1-D d2"])
def test_estimate_stages_rejects_bad_input(bad):
    # Too few original columns, or a d2 that is not 2-D, is refused up front.
    if bad == "1-D d2":
        g = np.ones((4, MIN_COLUMNS), dtype=np.uint8)
        d2, message = g[0], "databases must be 2-D"
    else:
        d2 = g = np.ones((4, int(bad)), dtype=np.uint8)
        message = f"at least {MIN_COLUMNS} original columns"
    with pytest.raises(ValueError, match=message):
        estimate_stages(d2, g, g, alphabet_size=2)


def test_deanonymize_illustration_instance():
    # Walkthrough-scale instance: six columns, one replicated twice, one
    # deleted, no noise. Eight rows give 5 adjacent distances whose
    # dispersion (about 10.8) stays below the bound (about 33.2), so no
    # replica is declared; both copies of column 1 then select original
    # column 1, a recorded misdetection rather than a wrong permutation.
    spec = noiseless_spec(size=2, p_s=(0.0, 1.0))
    d1 = generate_database(8, 6, spec, substream(1, 0))
    pattern = RepetitionPattern([1, 2, 1, 0, 1, 1])
    sigma = substream(1, 1).permutation(8)
    from dbalign.model import apply_channel, generate_seeds

    d2 = np.empty((8, pattern.total), dtype=np.uint8)
    d2[sigma] = apply_channel(d1, pattern, spec, substream(1, 2))
    seeds = generate_seeds(10_000, 6, pattern, spec, substream(1, 3))
    assert len({tuple(r) for r in d1.tolist()}) == 8  # rows distinct for this draw
    h = running_hamming(d2)
    assert dispersion(h, 8) < dispersion_bound(6)
    result = deanonymize(d1, d2, seeds.g1, seeds.g2, alphabet_size=2, epsilon=0.2)
    assert not result.is_replica.any()
    assert result.failed_stage == "deletion"
    assert "not strictly increasing" in result.failure
    assert result.match is None


def test_deanonymize_noiseless_moderate_rate():
    spec = noiseless_spec(size=2, p_s=(0.0, 1.0))
    for seed in range(10):
        pair, seeds = sample_instance(64, 40, 10_000, spec, master_seed=6000 + seed)
        result = deanonymize(
            pair.d1, pair.d2, seeds.g1, seeds.g2, alphabet_size=2, epsilon=0.2
        )
        assert result.failed_stage is None
        assert result.match.row_error_rate(pair.sigma) == 0.0


def test_deanonymize_finds_no_replicas_in_a_replica_free_instance():
    # Every column kept once, so every adjacent pair is independent. Told
    # nothing of p_s, the pipeline must not split the series into two
    # components; an ungated estimator declares 56 replicas on this draw.
    spec = bsc_spec(flip=0.1, p_s=(0.0, 1.0))
    pair, seeds = sample_instance(4096, 60, 10_000, spec, master_seed=2)
    assert ungated_replicas(pair.d2).sum() == 56
    result = deanonymize(pair.d1, pair.d2, seeds.g1, seeds.g2, alphabet_size=2, epsilon=0.3)
    assert result.failed_stage is None
    assert not result.is_replica.any()
    assert np.array_equal(result.pattern.s, np.ones(60))
    assert np.array_equal(result.estimate.p_s, [0.0, 1.0])
    assert result.match.row_error_rate(pair.sigma) <= 0.1


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
        pair.d1, pair.d2, seeds.g1, seeds.g2, alphabet_size=2, epsilon=0.2
    )
    assert result.failed_stage == "deletion"
    assert "useless" in result.failure
    assert result.match is None
    assert result.is_replica is not None  # earlier stage completed


@pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.int64, np.uint64])
def test_deanonymize_matches_every_integer_dtype_as_uint8(dtype):
    # check_symbols admits any integer dtype, so every stage must read it.
    pair, seeds = sample_instance(512, 30, 1000, bsc_spec(p_s=(0.1, 0.5, 0.4)), master_seed=1)
    mats = (pair.d1, pair.d2, seeds.g1, seeds.g2)
    want = deanonymize(*mats, alphabet_size=2, epsilon=0.3)
    got = deanonymize(*(mat.astype(dtype) for mat in mats), alphabet_size=2, epsilon=0.3)
    assert want.ok and got.ok
    assert np.array_equal(got.pattern.s, want.pattern.s)
    assert np.array_equal(got.match.assigned, want.match.assigned)
    assert np.array_equal(got.match.status, want.match.status)


@pytest.mark.parametrize(
    "spec",
    [bsc_spec(p_s=(0.1, 0.5, 0.4)), symmetric_spec(3, 0.8, (0.1, 0.4, 0.3, 0.2))],
    ids=["bsc", "ternary"],
)
def test_deanonymize_is_never_silent_on_markov_rows(spec):
    # Off the i.i.d. model (rows of d1 and g1 are Markov chains with p_x
    # as marginal), a trial recovers the true pattern or records a failed
    # stage. The grid spans both: exact at rho = 0, loud at rho = 0.9.
    m, n, num_seeds = 512, 60, 10_000
    outcomes = {}
    for rho, draw in itertools.product((0.0, 0.2, 0.4, 0.6, 0.8, 0.9), range(3)):
        rng = substream(draw, round(10 * rho))
        pattern = draw_pattern(n, spec, rng)
        d1 = markov_rows(m, n, spec.p_x, rho, rng)
        d2 = apply_channel(d1, pattern, spec, rng)[rng.permutation(m)]
        g1 = markov_rows(num_seeds, n, spec.p_x, rho, rng)
        g2 = apply_channel(g1, pattern, spec, rng)
        result = deanonymize(d1, d2, g1, g2, spec.alphabet_size, epsilon=0.3)
        assert not result.ok or np.array_equal(result.pattern.s, pattern.s), (rho, draw)
        outcomes.setdefault(rho, set()).add(result.ok)
    assert outcomes[0.0] == {True} and outcomes[0.9] == {False}


def test_deanonymize_pattern_sum_invariant():
    spec = bsc_spec(flip=0.05, p_s=(0.2, 0.5, 0.3))
    for seed in range(5):
        pair, seeds = sample_instance(50, 12, 10_000, spec, master_seed=7000 + seed)
        result = deanonymize(
            pair.d1, pair.d2, seeds.g1, seeds.g2, alphabet_size=2, epsilon=0.5
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


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, 0.0, -1.0])
def test_match_rows_rejects_epsilon_not_finite_and_positive(epsilon):
    spec = noiseless_spec(size=2)
    d1 = np.ones((4, 3), dtype=np.uint8)
    seg = segment(d1.copy(), RepetitionPattern([1, 1, 1]))
    with pytest.raises(ValueError, match="epsilon must be finite and positive"):
        match_rows(d1, seg, from_model_spec(spec), epsilon)


@pytest.mark.parametrize("epsilon", [True, "0.3", None])
def test_deanonymize_rejects_an_epsilon_that_is_not_a_real_number(epsilon):
    # True would otherwise run at epsilon 1, before the matcher is reached.
    spec = bsc_spec(flip=0.1, p_s=(0.2, 0.5, 0.3))
    pair, seeds = sample_instance(32, 12, 5000, spec, master_seed=1)
    with pytest.raises(ValueError, match="^epsilon must be a real number, got "):
        deanonymize(pair.d1, pair.d2, seeds.g1, seeds.g2, alphabet_size=2, epsilon=epsilon)


def test_match_rows_rejects_epsilon_past_the_log_zero_clamp():
    # The clamp on the joint cells, -2 (n (H + eps) + 1), must reach the
    # LOG_ZERO of a zero-probability cell, or such pairs count as typical.
    spec = unit_trace_cyclic_spec((0.3, 0.7))
    pair, _ = sample_instance(12, 9, 1, spec, master_seed=3)
    seg, est = segment(pair.d2, pair.pattern), from_model_spec(spec)
    edge = (-matching.LOG_ZERO / 2 - 1) / 9 - est.joint_entropy
    inside = edge * (1 - 1e-9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = match_rows(pair.d1, seg, est, inside)
    assigned, n_candidates = brute_force_match(pair.d1, seg, est, inside)
    assert np.array_equal(result.assigned, assigned)
    assert np.array_equal(result.status == 2, n_candidates == 0)
    # Every pair of positive probability is typical here, so only the
    # clamp keeps the zero-probability ones out, and some rows still match.
    assert (n_candidates < 12).all() and (result.status == STATUS_MATCHED).any()
    for epsilon in (edge * (1 + 1e-9), 1e31, 1e38):
        with pytest.raises(ValueError, match="too large for 9 columns"):
            match_rows(pair.d1, seg, est, epsilon)


@pytest.mark.parametrize("joint_entropy", [math.nan, 1e30])
def test_match_rows_rejects_an_estimate_past_the_log_zero_clamp(joint_entropy):
    # The input check bounds any plug-in estimate of the input; an estimate
    # past that bound, or NaN, must raise and name its entropy. With NaN the
    # clamp never fires and every row would get no typical candidate.
    spec = bsc_spec(flip=0.1, p_s=(0.1, 0.5, 0.4))
    pair, _ = sample_instance(256, 30, 1, spec, master_seed=3)
    est = dataclasses.replace(from_model_spec(spec), joint_entropy=joint_entropy)
    message = f"the estimate's joint entropy is {joint_entropy:g}, epsilon 0.3"
    with pytest.raises(ValueError, match=re.escape(message)):
        match_rows(pair.d1, segment(pair.d2, pair.pattern), est, 0.3)


@pytest.mark.parametrize("side, value", [("d1", 0), ("d2", 3), ("g2", 3)])
def test_deanonymize_rejects_symbols_outside_alphabet(side, value):
    spec = bsc_spec(flip=0.1, p_s=(0.2, 0.5, 0.3))
    pair, seeds = sample_instance(32, 12, 5000, spec, master_seed=1)
    mats = {"d1": pair.d1.copy(), "d2": pair.d2.copy(), "g1": seeds.g1, "g2": seeds.g2.copy()}
    mats[side][0, 0] = value
    with pytest.raises(ValueError, match="1..2"):
        deanonymize(
            mats["d1"], mats["d2"], mats["g1"], mats["g2"], alphabet_size=2, epsilon=0.3
        )


@pytest.mark.parametrize(
    "alphabet_size, message",
    [
        (0, "symbols must lie in 1..0"),
        (-1, "symbols must lie in 1..-1"),
        (9, "exceeds remapping cap 8"),
        (2.0, "alphabet size must be an integer, got 2.0"),
        (2.5, "alphabet size must be an integer, got 2.5"),
        (True, "alphabet size must be an integer, got True"),
    ],
)
def test_deanonymize_rejects_bad_alphabet_before_a_stage_fails(alphabet_size, message):
    # Two rows fail replica detection, but a bad alphabet is bad input and
    # must raise, not hide behind that recorded failure.
    pair, seeds = sample_instance(2, 12, 3000, bsc_spec(p_s=(0.2, 0.5, 0.3)), master_seed=1)
    assert deanonymize(pair.d1, pair.d2, seeds.g1, seeds.g2, 2).failed_stage == "replica"
    with pytest.raises(ValueError, match=re.escape(message)):
        deanonymize(pair.d1, pair.d2, seeds.g1, seeds.g2, alphabet_size)


@pytest.mark.parametrize(
    "bad", ["d1 symbol", "d2 symbol", "d1 dtype", "epsilon", "d1 width", "epsilon ceiling"]
)
def test_deanonymize_rejects_bad_matcher_input_before_a_stage_fails(bad):
    # Two rows fail replica detection, but input the matcher rejects is bad
    # input and must raise, not hide behind that recorded failure.
    pair, seeds = sample_instance(2, 12, 3000, bsc_spec(p_s=(0.2, 0.5, 0.3)), master_seed=1)
    d1, d2, epsilon = pair.d1.copy(), pair.d2.copy(), 0.05
    assert deanonymize(d1, d2, seeds.g1, seeds.g2, 2).failed_stage == "replica"
    message = "symbols must lie in 1..2"
    if bad == "d1 symbol":
        d1[0, 0] = 7
    elif bad == "d2 symbol":
        d2[0, 0] = 7
    elif bad == "d1 dtype":
        # Symbols 1.0 and 2.0 lie in range, but the matcher indexes by them.
        d1, message = d1.astype(np.float64), "symbols must be integers, got dtype float64"
    elif bad == "epsilon":
        epsilon, message = math.nan, "epsilon must be finite and positive"
    elif bad == "epsilon ceiling":
        # Past match_rows' clamp check, which needs the estimate: the bound
        # on the plug-in entropy rejects it from the input alone.
        epsilon, message = 1e29, "epsilon 1e+29 too large for 12 columns"
    else:
        d1, message = d1[:, 1:], "d1 has 11 columns, the repetition pattern 12"
    with pytest.raises(ValueError, match=re.escape(message)):
        deanonymize(d1, d2, seeds.g1, seeds.g2, 2, epsilon=epsilon)


BAD_SEEDS = {
    "g2 symbol in a replica column": "symbols must lie in 1..2",
    "seed row mismatch": "same row count",
    "zero seed rows": "at least one seed row",
    "two original columns": f"at least {MIN_COLUMNS} original columns",
    "1-D d1": "databases must be 2-D",
    "1-D g1": "seed matrices must be 2-D",
    "float g1": "symbols must be integers, got dtype float64",
}


@pytest.mark.parametrize("bad", BAD_SEEDS)
def test_deanonymize_rejects_bad_seeds_before_any_stage(bad, monkeypatch):
    # Every seed rule is checked once, up front: no stage runs on input
    # that deletion detection would refuse.
    spec = bsc_spec(p_s=(0.1, 0.5, 0.4))
    n = 2 if bad == "two original columns" else 12
    pair, seeds = sample_instance(64, n, 3000, spec, master_seed=1)
    d1, d2, g1, g2 = pair.d1, pair.d2, seeds.g1, seeds.g2.copy()
    if bad == "g2 symbol in a replica column":
        assert np.repeat(np.arange(12), pair.pattern.s)[1:3].tolist() == [1, 1]
        g2[0, 2] = 7
    elif bad == "seed row mismatch":
        g2 = g2[:-1]
    elif bad == "zero seed rows":
        g1, g2 = g1[:0], g2[:0]
    elif bad == "1-D d1":
        d1 = d1[0]
    elif bad == "1-D g1":
        g1 = g1[0]
    elif bad == "float g1":
        g1 = g1.astype(np.float64)
        g1[0, 0] = 2.5  # in range, and tabulated as symbol 1 if let through
    stages = []

    def spy(module, name):
        stage = getattr(module, name)

        def spied(*args, **kwargs):
            stages.append(name)
            return stage(*args, **kwargs)

        monkeypatch.setattr(module, name, spied)

    spy(replicas, "detect_replicas")
    spy(deletions, "detect_deletions")
    spy(estimation, "estimate_from_seeds")
    with pytest.raises(ValueError, match=re.escape(BAD_SEEDS[bad])):
        deanonymize(d1, d2, g1, g2, alphabet_size=2)
    assert stages == []


@pytest.mark.parametrize("constant", [math.nan, -1.0, 0.0, math.inf])
def test_deanonymize_rejects_bad_threshold_constant_before_a_stage_fails(constant):
    # Two rows fail replica detection, before deletion detection would run;
    # the threshold's constant is fixed, so passing one raises all the same.
    pair, seeds = sample_instance(2, 12, 3000, bsc_spec(p_s=(0.2, 0.5, 0.3)), master_seed=1)
    assert deanonymize(pair.d1, pair.d2, seeds.g1, seeds.g2, 2).failed_stage == "replica"
    with pytest.raises(TypeError, match="threshold_constant"):
        deanonymize(pair.d1, pair.d2, seeds.g1, seeds.g2, 2, threshold_constant=constant)


def test_deanonymize_validates_shared_pattern():
    spec = bsc_spec()
    pair, seeds = sample_instance(6, 5, 10, spec, master_seed=1)
    with pytest.raises(ValueError):
        deanonymize(pair.d1, pair.d2, seeds.g1, seeds.g2[:, :-1], alphabet_size=2)


def test_deanonymize_all_deleted_instance():
    # Every column deleted: d2 and g2 have no columns, so the pattern is
    # all zeros and no repeated row tells one anonymized row from another.
    spec = bsc_spec(p_s=(1.0, 0.0))
    pair, seeds = sample_instance(16, 6, 2000, spec, master_seed=7)
    assert pair.d2.shape[1] == 0
    result = deanonymize(
        pair.d1, pair.d2, seeds.g1, seeds.g2, alphabet_size=2, epsilon=0.3
    )
    assert result.failed_stage is None
    assert np.array_equal(result.pattern.s, np.zeros(6))
    assert np.array_equal(result.retention.deleted, np.arange(6))
    assert result.match.status_counts()["ambiguous"] == 16


def test_deanonymize_two_repeated_columns_is_recorded():
    # Pattern [2, 0, 0]: d2 has two columns, one adjacent distance, which
    # shows no replicas; both columns then select original column 0.
    spec = bsc_spec(flip=0.1, p_s=(0.3, 0.3, 0.4))
    pair, seeds = sample_instance(64, 3, 2000, spec, master_seed=5)
    assert np.array_equal(pair.pattern.s, [2, 0, 0])
    result = deanonymize(
        pair.d1, pair.d2, seeds.g1, seeds.g2, alphabet_size=2, epsilon=0.3
    )
    assert np.array_equal(result.is_replica, [False])
    assert result.failed_stage == "deletion"
    assert "not strictly increasing" in result.failure
    assert result.retention is None and result.match is None


def test_deanonymize_more_runs_than_columns_is_recorded():
    # Pattern [1, 2, 1]: three distances are too few to show the replica,
    # so d2's 4 columns form 4 runs, more than the 3 original columns.
    spec = bsc_spec(flip=0.1, p_s=(0.3, 0.3, 0.4))
    pair, seeds = sample_instance(64, 3, 2000, spec, master_seed=5, trial=1)
    assert np.array_equal(pair.pattern.s, [1, 2, 1])
    result = deanonymize(pair.d1, pair.d2, seeds.g1, seeds.g2, alphabet_size=2, epsilon=0.3)
    assert result.failed_stage == "replica"
    assert "4 replica runs for 3 original columns" in result.failure
    assert result.retention is None and result.match is None


def test_deanonymize_over_long_run_is_recorded():
    # The detected run of 25 copies asks for a 2^26-cell joint table.
    d1, d2, g1, g2 = long_run_instance()
    result = deanonymize(d1, d2, g1, g2, alphabet_size=2, epsilon=0.3)
    assert result.failed_stage == "pattern"
    assert "2^26 cells exceeds limit" in result.failure
    assert result.retention is not None and result.retention.retained.size == 17
    assert result.pattern is None and result.estimate is None and result.match is None


def _replica_instance():
    spec = bsc_spec(flip=0.1, p_s=(0.2, 0.5, 0.3))
    pair, seeds = sample_instance(256, 20, 10_000, spec, master_seed=3)
    return pair.d2, seeds.g1, seeds.g2


def test_estimate_stages_detects_replicas_once_on_d2(monkeypatch):
    # The seeds share d2's pattern, so d2's decisions serve g2 as well.
    calls = []
    detect = replicas.detect_replicas

    def counting(mat):
        calls.append(mat)
        return detect(mat)

    monkeypatch.setattr(replicas, "detect_replicas", counting)
    d2, g1, g2 = _replica_instance()
    result = estimate_stages(d2, g1, g2, alphabet_size=2)
    assert result.failed_stage is None
    assert len(calls) == 1 and calls[0] is d2


def test_estimate_stages_reads_no_replica_evidence_from_seeds(monkeypatch):
    # Only d2's decisions count: the seeds' adjacent columns are never
    # estimated, so a seed set too small for that is no failure.
    d2, g1, g2 = _replica_instance()
    detect = replicas.detect_replicas

    def d2_only(mat):
        if mat is not d2:
            raise replicas.SingleComponentError("seed columns are not estimated")
        return detect(mat)

    monkeypatch.setattr(replicas, "detect_replicas", d2_only)
    result = estimate_stages(d2, g1, g2, alphabet_size=2)
    assert result.failed_stage is None
    assert result.pattern.total == d2.shape[1]


def _stage_outputs(d2, g1, g2, k):
    result = estimate_stages(d2, g1, g2, k)
    est = result.estimate
    return (
        result.failed_stage,
        type(result.error),
        None if result.is_replica is None else result.is_replica.tolist(),
        None if result.retention is None else result.retention.retained.tolist(),
        None if result.pattern is None else result.pattern.s.tolist(),
        None
        if est is None
        else (
            est.p_x.tolist(),
            est.p_y_given_x.tolist(),
            est.p_s.tolist(),
            est.x_entropy,
            est.y_entropy,
            est.joint_entropy,
        ),
    )


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    spec=st.sampled_from(
        [
            bsc_spec(flip=0.1, p_s=(0.1, 0.5, 0.4)),
            symmetric_spec(3, 0.8, (0.1, 0.4, 0.3, 0.2)),
            unit_trace_cyclic_spec((0.2, 0.5, 0.3)),
            noiseless_spec(size=2, p_s=(0.1, 0.5, 0.4)),
        ]
    ),
    seed=st.integers(0, 10_000),
    m=st.sampled_from([8, 40, 400]),
    num_seeds=st.sampled_from([500, 3000]),
)
def test_estimate_stages_row_permutation_property(spec, seed, m, num_seeds):
    # Seed rows (permuted jointly) and database rows are exchangeable, so
    # every stage's output, or the stage that failed, is unchanged.
    pair, seeds = sample_instance(m, 10, num_seeds, spec, master_seed=seed)
    base = _stage_outputs(pair.d2, seeds.g1, seeds.g2, spec.alphabet_size)
    rng = substream(seed, 9)
    perm = rng.permutation(num_seeds)
    assert _stage_outputs(pair.d2, seeds.g1[perm], seeds.g2[perm], spec.alphabet_size) == base
    assert _stage_outputs(pair.d2[rng.permutation(m)], seeds.g1, seeds.g2, spec.alphabet_size) == base
