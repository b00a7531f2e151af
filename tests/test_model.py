import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from dbalign import fanout, model
from dbalign.dbio import load_json_object, model_spec_from_dict, model_spec_to_dict, read_matrix, write_matrix
from dbalign.model import (
    DatabasePair,
    ModelSpec,
    RepetitionPattern,
    SeedPair,
    _draw,
    apply_channel,
    draw_pattern,
    generate_database,
    generate_seeds,
    sample_instance,
    substream,
)

from conftest import bsc_spec, noiseless_spec, symmetric_spec, unit_trace_cyclic_spec
from oracles import serial_channel


def test_spec_validation_rejects_bad_vectors():
    with pytest.raises(ValueError):
        ModelSpec(p_x=[0.5, 0.6], p_y_given_x=np.eye(2), p_s=[1.0])
    with pytest.raises(ValueError):
        ModelSpec(p_x=[0.5, 0.5], p_y_given_x=[[0.9, 0.2], [0.1, 0.9]], p_s=[1.0])
    with pytest.raises(ValueError):
        ModelSpec(p_x=[0.5, 0.5], p_y_given_x=np.eye(2), p_s=[-0.1, 1.1])
    with pytest.raises(ValueError):
        ModelSpec(p_x=[1.0], p_y_given_x=np.eye(2), p_s=[1.0])
    for p_x in ([], [[0.5, 0.5]]):
        with pytest.raises(ValueError, match="p_x must be a nonempty 1-D probability vector"):
            ModelSpec(p_x=p_x, p_y_given_x=np.eye(2), p_s=[1.0])
    with pytest.raises(ValueError, match="alphabet size 256 exceeds 255"):
        ModelSpec(p_x=np.full(256, 1 / 256), p_y_given_x=np.eye(256), p_s=[1.0])
    with pytest.raises(ValueError, match="repetition counts must be nonnegative"):
        RepetitionPattern(np.array([1, -1]))
    for s in ([], [[1, 2]], [1.5, 2.7], [True, False], [1.0, 2.0]):
        with pytest.raises(ValueError, match="pattern must be a nonempty 1-D integer vector"):
            RepetitionPattern(s)


@pytest.mark.parametrize(
    "p_x, chan, p_s, name",
    [
        ([np.nan, 1.0], np.eye(2), [0.0, 1.0], "p_x"),
        ([0.5, 0.5], [[0.9, 0.1], [np.nan, 1.0]], [0.0, 1.0], r"p_y_given_x\[1\]"),
        ([0.5, 0.5], np.eye(2), [np.nan, 1.0], "p_s"),
        ([np.inf, 1.0], np.eye(2), [0.0, 1.0], "p_x"),
    ],
    ids=["nan-p_x", "nan-channel-row", "nan-p_s", "inf-p_x"],
)
def test_spec_rejects_non_finite_probabilities(p_x, chan, p_s, name):
    # A NaN fails every comparison, so a tolerance test written as
    # "deviation > atol" lets it through; the mass test must reject it.
    with pytest.raises(ValueError, match=rf"{name} mass deviates from 1"):
        ModelSpec(p_x=p_x, p_y_given_x=chan, p_s=p_s)


def test_point_mass_alphabet(rng):
    spec = ModelSpec(p_x=[1.0], p_y_given_x=[[1.0]], p_s=[0.0, 1.0])
    mat = generate_database(5, 7, spec, rng)
    assert mat.shape == (5, 7)
    assert np.all(mat == 1)


def test_binary_uniform_frequency(rng):
    mat = generate_database(1000, 100, bsc_spec(), rng)
    freq = np.mean(mat == 1)
    assert 0.45 <= freq <= 0.55


def test_illustration_scale_matrix(rng):
    assert generate_database(6, 6, bsc_spec(), rng).shape == (6, 6)


def test_point_mass_pattern(rng):
    spec = bsc_spec(p_s=(0.0, 1.0))
    pattern = draw_pattern(50, spec, rng)
    assert np.all(pattern.s == 1)
    assert pattern.total == 50


def test_pattern_has_deletions_and_replications():
    spec = bsc_spec(p_s=(1 / 3, 1 / 3, 1 / 3))
    pattern = draw_pattern(60, spec, substream(99, 0))
    assert np.any(pattern.s == 0) and np.any(pattern.s == 2)


def test_pattern_frequencies_clt(rng):
    n = 30_000
    pattern = draw_pattern(n, bsc_spec(p_s=(1 / 3, 1 / 3, 1 / 3)), rng)
    for value in (0, 1, 2):
        # 5 sigma around 1/3 for Binomial(n, 1/3) frequencies
        assert abs(np.mean(pattern.s == value) - 1 / 3) < 0.015


def test_identity_channel_is_identity(rng):
    spec = noiseless_spec(size=3)
    d1 = generate_database(40, 15, spec, rng)
    pattern = RepetitionPattern(np.ones(15, dtype=int))
    d2 = apply_channel(d1, pattern, spec, rng)
    assert np.array_equal(d2, d1)


def test_replicas_are_independent_noisy_copies(rng):
    # One column repeated twice: each copy disagrees with the original at
    # the flip rate, the two copies with each other at the two-flip rate.
    spec = bsc_spec(flip=0.1, p_s=(0.0, 0.0, 1.0))
    m = 200_000
    d1 = generate_database(m, 1, spec, rng)
    d2 = apply_channel(d1, RepetitionPattern([2]), spec, rng)
    assert d2.shape == (m, 2)
    for copy in range(2):
        assert abs(np.mean(d2[:, copy] != d1[:, 0]) - 0.1) < 0.005
    assert abs(np.mean(d2[:, 0] != d2[:, 1]) - 0.18) < 0.005


def test_bsc_disagreement_rate(rng):
    spec = bsc_spec(flip=0.1)
    m, n = 1000, 100
    d1 = generate_database(m, n, spec, rng)
    d2 = apply_channel(d1, RepetitionPattern(np.ones(n, dtype=int)), spec, rng)
    rate = np.mean(d2 != d1)
    assert abs(rate - 0.1) < 0.01


def test_channel_dimension_mismatch(rng):
    spec = bsc_spec()
    d1 = generate_database(10, 5, spec, rng)
    with pytest.raises(ValueError):
        apply_channel(d1, RepetitionPattern([1, 1]), spec, rng)


def _rejects_without_drawing(d1, pattern):
    """apply_channel rejects d1, and the caller's PCG64 or MT19937 stream
    draws on as an untouched twin does."""
    for bit_generator in (np.random.PCG64, np.random.MT19937):
        ours, twin = (np.random.Generator(bit_generator(1)) for _ in range(2))
        with pytest.raises(ValueError, match=r"symbols must lie in 1\.\.2"):
            apply_channel(d1, pattern, bsc_spec(), ours)
        assert ours.random() == twin.random()


@pytest.mark.parametrize("symbol", [0, 3, 7])
def test_channel_rejects_symbols_outside_the_alphabet(rng, symbol):
    # No row of the channel draws an output for such a symbol, so the
    # entry would otherwise be returned unwritten. The symbol counts catch
    # it before any draw, so the caller's stream is not used up.
    d1 = generate_database(10, 5, bsc_spec(), rng)
    d1[4, 2] = symbol
    _rejects_without_drawing(d1, RepetitionPattern([1, 2, 1, 0, 1]))
    _rejects_without_drawing(np.full((3, 4), symbol, np.uint8), RepetitionPattern([1] * 4))


def test_deleted_columns_absent(rng):
    spec = bsc_spec(p_s=(0.5, 0.5))
    d1 = generate_database(30, 20, spec, rng)
    pattern = draw_pattern(20, spec, rng)
    d2 = apply_channel(d1, pattern, spec, rng)
    assert d2.shape[1] == pattern.total


@pytest.mark.parametrize("size", [0, -1])
def test_sampler_rejects_sizes_below_one(rng, size):
    spec = bsc_spec()
    with pytest.raises(ValueError):
        draw_pattern(size, spec, rng)
    with pytest.raises(ValueError):
        generate_seeds(size, 4, RepetitionPattern(np.ones(4, dtype=int)), spec, rng)
    with pytest.raises(ValueError):
        sample_instance(4, size, 1, spec, master_seed=0)


def _uniform_with_zeros(k, zeros):
    w = np.ones(k)
    w[list(zeros)] = 0.0
    return w


# The first uniform of seed 0 lies in [0.5, 1), so [u, 1 - u] sums to
# exactly 1 and its cdf edge is u itself: a tie that choice breaks upward.
_TIE = np.random.default_rng(0).random()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    weights=arrays(
        np.float64,
        st.integers(1, 8),
        elements=st.just(0.0) | st.floats(1e-3, 1.0),
    ).filter(np.any),
    size=st.integers(0, 300) | st.tuples(st.integers(0, 12), st.integers(0, 12)),
    seed=st.integers(0, 2**32 - 1),
)
@example(weights=np.array([0.0, 1.0, 2.0]), size=50, seed=1)
@example(weights=np.array([1.0, 0.0, 0.0, 2.0]), size=50, seed=2)
@example(weights=np.array([1.0, 2.0, 0.0]), size=50, seed=3)
@example(weights=np.array([1.0]), size=(4, 5), seed=4)
@example(weights=np.array([0.3, 0.7]), size=0, seed=5)
@example(weights=np.array([_TIE, 1.0 - _TIE]), size=1, seed=0)
@example(weights=np.ones(255), size=(100, 60), seed=6)
@example(weights=_uniform_with_zeros(255, [0, 1, 100, 101, 254]), size=20_000, seed=7)
def test_draw_is_bit_identical_to_choice(weights, size, seed):
    # The sampler replicates Generator.choice with p: same values, same
    # dtype, and the same uniforms consumed, so later draws are unchanged.
    p = weights / weights.sum()
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _draw(p, size, ours)
    want = theirs.choice(np.arange(1, p.size + 1, dtype=np.uint8), size, p=p)
    assert got.dtype == want.dtype == np.uint8
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert ours.random() == theirs.random()


@pytest.mark.parametrize(
    "weights, compares",
    [
        pytest.param([0.5, 0.5, 0.0], 1, id="trailing-zero"),
        pytest.param([0.0, 0.5, 0.5], 1, id="leading-zero"),
        pytest.param([0.4, 0.0, 0.6], 1, id="two-equal-edges"),
        pytest.param([0.2, 0.0, 0.0, 0.3, 0.5], 2, id="three-equal-edges"),
        pytest.param([0.2, 0.3, 0.5], 2, id="no-zero"),
    ],
)
def test_draw_compares_each_reachable_cdf_edge_once(weights, compares):
    # A uniform lies in [0, 1): a cdf edge at 1 never counts, one at 0
    # always does, and a repeated edge counts once per repeat. So the draw
    # compares each distinct edge inside (0, 1) once, and its symbols and
    # the stream it leaves still match Generator.choice.
    p = np.array(weights)
    assert len(model._edges(p)[1]) == compares
    ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
    got = _draw(p, 5000, ours)
    want = theirs.choice(np.arange(1, p.size + 1, dtype=np.uint8), 5000, p=p)
    assert np.array_equal(got, want)
    assert ours.random() == theirs.random()


def test_unit_trace_cyclic_channel_needs_one_compare_per_symbol():
    # Each row of the channel holds a zero, so one of its two cdf edges is
    # 0, 1 or a repeat of the other.
    spec = unit_trace_cyclic_spec()
    assert [len(model._edges(row)[1]) for row in spec.p_y_given_x] == [1, 1, 1]


# Sizes below, at and above twice the part size (the least draw that is
# split), with the part size forced down to 64 uniforms.
SPLIT_PART = 64
SPLIT_SIZES = [0, 5, 2 * SPLIT_PART - 1, 2 * SPLIT_PART, (3, 2 * SPLIT_PART + 1), 1000]


@pytest.mark.parametrize("budget", [1, 2, 3])
@pytest.mark.parametrize("size", SPLIT_SIZES, ids=str)
@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
def test_draw_does_not_depend_on_the_thread_budget(monkeypatch, bit_generator, size, budget):
    # A split PCG64 draw fills each part from a copy of the stream advanced
    # to the part's offset; any other stream draws in one part. Either
    # way the symbols and the stream left behind match Generator.choice.
    monkeypatch.setattr(model, "DRAW_PART", SPLIT_PART)
    p = np.array([0.2, 0.5, 0.3])
    ours, theirs = (np.random.Generator(bit_generator(17)) for _ in range(2))
    with fanout.budget(budget):
        got = _draw(p, size, ours)
    want = theirs.choice(np.arange(1, 4, dtype=np.uint8), size, p=p)
    assert got.dtype == np.uint8 and got.shape == want.shape
    assert np.array_equal(got, want)
    assert ours.random() == theirs.random()


def test_draw_keeps_a_buffered_half_output_in_one_part(monkeypatch):
    # A stream holding half of a 64-bit output is not split, so the half
    # stays where the next 32-bit draw expects it.
    monkeypatch.setattr(model, "DRAW_PART", SPLIT_PART)
    ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
    for rng in (ours, theirs):
        rng.integers(2**32, dtype=np.uint32)
    with fanout.budget(3):
        got = _draw(np.array([0.5, 0.5]), 1000, ours)
    assert np.array_equal(got, theirs.choice(np.arange(1, 3, dtype=np.uint8), 1000, p=[0.5, 0.5]))
    assert ours.integers(2**32, dtype=np.uint32) == theirs.integers(2**32, dtype=np.uint32)


def _buffered_half(rng):
    rng.integers(2**32, dtype=np.uint32)
    return rng


# Streams a channel test draws from: a PCG64 may be split, and neither an
# MT19937 nor a PCG64 holding half of a 64-bit output may.
CHANNEL_STREAMS = {
    "pcg64": lambda: np.random.default_rng(17),
    "mt19937": lambda: np.random.Generator(np.random.MT19937(17)),
    "pcg64-half": lambda: _buffered_half(np.random.default_rng(17)),
}

# (rows, pattern, most parts) with the part size forced to SPLIT_PART
# entries: no entry, too few entries for two parts, exactly two parts, and
# parts walked in several chunks. A budget splits a PCG64 channel into as
# many parts as it allows, up to the most.
CHANNEL_SHAPES = [
    pytest.param(40, [0, 0, 0], 1, id="no-entry"),
    pytest.param(3, [1, 0, 2], 1, id="one-chunk"),
    pytest.param(15, [1, 2, 0, 1, 4], 1, id="under-two-parts"),
    pytest.param(16, [1, 2, 0, 1, 4], 2, id="two-parts"),
    pytest.param(200, [1], 3, id="one-column"),
    pytest.param(300, [0, 1, 2, 3, 1, 0, 2], 3, id="chunked-parts"),
]


@pytest.mark.parametrize("budget", [1, 2, 3])
@pytest.mark.parametrize("rows, s, most", CHANNEL_SHAPES)
@pytest.mark.parametrize("stream", CHANNEL_STREAMS)
def test_channel_does_not_depend_on_the_thread_budget(monkeypatch, stream, rows, s, most, budget):
    # Each part of a split channel resamples its own entries of each symbol
    # from a copy of the stream advanced to that (part, symbol)'s offset;
    # the outputs and the stream left behind match one loop over the
    # symbols on one stream.
    monkeypatch.setattr(model, "DRAW_PART", SPLIT_PART)
    fan_outs, fan_out = [], fanout.fan_out

    def recording_fan_out(work, jobs):
        fan_outs.append(len(jobs))
        return fan_out(work, jobs)

    monkeypatch.setattr(fanout, "fan_out", recording_fan_out)
    spec = symmetric_spec(3, 0.6, (0.0, 1.0))
    d1 = generate_database(rows, len(s), spec, substream(11, rows))
    pattern = RepetitionPattern(s)
    ours, theirs = CHANNEL_STREAMS[stream](), CHANNEL_STREAMS[stream]()
    with fanout.budget(budget):
        got = apply_channel(d1, pattern, spec, ours)
    want = serial_channel(d1, pattern, spec, theirs)
    assert got.dtype == np.uint8 and got.shape == want.shape and got.flags.c_contiguous
    assert np.array_equal(got, want)
    assert max(fan_outs) == (min(budget, most) if stream == "pcg64" else 1)
    assert ours.integers(2**32, dtype=np.uint32) == theirs.integers(2**32, dtype=np.uint32)
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("budget", [1, 2, 3])
def test_split_channel_rejects_symbols_outside_the_alphabet(monkeypatch, budget):
    monkeypatch.setattr(model, "DRAW_PART", SPLIT_PART)
    d1 = generate_database(300, 7, bsc_spec(), substream(3, 0))
    pattern = RepetitionPattern([1, 2, 0, 1, 3, 1, 1])
    for row, col, symbol in ((0, 0, 0), (299, 4, 3), (150, 6, 255)):
        bad = d1.copy()
        bad[row, col] = symbol
        with fanout.budget(budget):
            _rejects_without_drawing(bad, pattern)


@pytest.mark.parametrize("budget", [1, 2])
def test_channel_holds_a_few_chunks_per_part(budget):
    # Each part walks its entries in chunks of DRAW_PART at every budget,
    # so beside the expanded input and the output the channel holds only
    # each part's mask, uniforms, symbols and positions of one chunk.
    spec = bsc_spec(p_s=(0.0, 0.0, 1.0))
    d1 = generate_database(40_000, 60, spec, substream(5, 0))
    pattern = RepetitionPattern([2] * 60)
    apply_channel(d1[:16], pattern, spec, substream(5, 1))  # imports numpy's lazy modules
    with fanout.budget(budget):
        tracemalloc.start()
        try:
            noisy = apply_channel(d1, pattern, spec, substream(5, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert noisy.size >= 4_000_000
    assert peak <= 2 * noisy.nbytes + 32 * model.DRAW_PART * budget


@pytest.mark.parametrize("budget", [1, 2])
def test_sampler_transient_does_not_grow_with_the_seed_count(budget):
    # Every draw and every channel walks each part in chunks of DRAW_PART,
    # so beyond the arrays it returns sample_instance holds a few chunks per
    # part (and d2 beside the channel's output, m rows), however many seed
    # rows it draws.
    spec = unit_trace_cyclic_spec((0.3, 0.7))  # remap_sweep's model
    sample_instance(16, 60, 1, spec, master_seed=7)  # imports numpy's lazy modules
    for num_seeds in (10_000, 200_000):
        with fanout.budget(budget):
            tracemalloc.start()
            try:
                pair, seeds = sample_instance(1024, 60, num_seeds, spec, master_seed=7)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        returned = sum(a.nbytes for a in (pair.d1, pair.d2, pair.sigma, seeds.g1, seeds.g2))
        assert peak - returned <= 20 * model.DRAW_PART * budget


@pytest.mark.parametrize("part", [SPLIT_PART, model.DRAW_PART])
def test_sample_instance_does_not_depend_on_the_thread_budget(monkeypatch, part):
    monkeypatch.setattr(model, "DRAW_PART", part)
    spec = symmetric_spec(3, 0.8, (0.1, 0.4, 0.3, 0.2))
    instances = []
    for budget in (1, 2, 3):
        with fanout.budget(budget):
            instances.append(sample_instance(300, 40, 500, spec, master_seed=9, point=1, trial=2))
    (pair0, seeds0), *others = instances
    for pair, seeds in others:
        for name in ("d1", "d2", "sigma"):
            assert np.array_equal(getattr(pair, name), getattr(pair0, name))
        assert np.array_equal(pair.pattern.s, pair0.pattern.s)
        assert np.array_equal(seeds.g1, seeds0.g1) and np.array_equal(seeds.g2, seeds0.g2)


def test_channel_output_is_c_contiguous(rng):
    # The channel scatters through a flat view of its output, and that view
    # is only a view of a C-ordered array.
    spec = symmetric_spec(3, 0.8, (0.2, 0.4, 0.2, 0.2))
    d1 = generate_database(40, 15, spec, rng)
    d2 = apply_channel(d1, RepetitionPattern([0, 1, 2, 3, 1] * 3), spec, rng)
    assert d2.shape == (40, 21) and d2.flags.c_contiguous
    pair, seeds = sample_instance(40, 15, 30, spec, master_seed=3)
    assert pair.d2.flags.c_contiguous and seeds.g2.flags.c_contiguous


def test_seed_identity_channel(rng):
    seeds = generate_seeds(1, 8, RepetitionPattern(np.ones(8, dtype=int)), noiseless_spec(), rng)
    assert np.array_equal(seeds.g1, seeds.g2)


def test_seed_shapes_small_retention(rng):
    s = np.ones(10, dtype=int)
    s[[3, 5, 9]] = 0
    pattern = RepetitionPattern(s)
    seeds = generate_seeds(10_000, 10, pattern, bsc_spec(p_s=(0.3, 0.7)), rng)
    assert seeds.g1.shape == (10_000, 10)
    assert seeds.g2.shape == (10_000, pattern.total)
    assert np.count_nonzero(pattern.s) == 7


def test_seed_column_order_preserved(rng):
    spec = noiseless_spec(size=4)
    pattern = RepetitionPattern([1, 0, 2])
    seeds = generate_seeds(50, 3, pattern, spec, rng)
    assert seeds.g2.shape[1] == 3
    assert np.array_equal(seeds.g2[:, 0], seeds.g1[:, 0])
    assert np.array_equal(seeds.g2[:, 1], seeds.g1[:, 2])
    assert np.array_equal(seeds.g2[:, 2], seeds.g1[:, 2])


def test_matching_rows_noiseless_restriction(rng):
    spec = noiseless_spec(size=3, p_s=(0.2, 0.5, 0.3))
    pair, _ = sample_instance(25, 12, 10, spec, master_seed=5)
    expanded = np.repeat(np.arange(12), pair.pattern.s)
    for i in range(25):
        assert np.array_equal(pair.d2[pair.sigma[i]], pair.d1[i][expanded])


def test_determinism_bit_identical():
    spec = bsc_spec(p_s=(0.2, 0.5, 0.3))
    a_pair, a_seeds = sample_instance(30, 10, 20, spec, master_seed=123)
    b_pair, b_seeds = sample_instance(30, 10, 20, spec, master_seed=123)
    assert np.array_equal(a_pair.d1, b_pair.d1)
    assert np.array_equal(a_pair.d2, b_pair.d2)
    assert np.array_equal(a_pair.sigma, b_pair.sigma)
    assert np.array_equal(a_pair.pattern.s, b_pair.pattern.s)
    assert np.array_equal(a_seeds.g1, b_seeds.g1)
    assert np.array_equal(a_seeds.g2, b_seeds.g2)
    c_pair, _ = sample_instance(30, 10, 20, spec, master_seed=124)
    assert not np.array_equal(a_pair.d1, c_pair.d1)


def _sha256(arr):
    arr = np.ascontiguousarray(arr)
    return hashlib.sha256(arr.tobytes() + f"{arr.dtype}{arr.shape}".encode()).hexdigest()


# sha256 of (bytes, dtype, shape) of each array. The first two were
# recorded when the channel still scattered rows by sigma itself, the third
# while symbols were still drawn by Generator.choice; neither change may
# move a bit of any instance. The third channel has zero cells and runs to
# 300 rows and 400 seeds.
PINNED_INSTANCES = {
    "bsc": (
        (bsc_spec(flip=0.1, p_s=(0.0, 0.5, 0.5)), 64, 12, 100, 5),
        {
            "d1": "79031cfedcf0e8b6137f13a61f54b5c3202da7c8b5d51b5a9846200b1d7b85cc",
            "d2": "f5c17a5aa08f79c00661278af99529e9345140190383017111d4a1717499bd73",
            "sigma": "dc2fffb14dcbfb15ec531a83ba7e887e85d87fe7b63f539e527796ca74f41b50",
            "g1": "072e244262589a4f4b630dd92f3f4521222c7e8d74d6059db8290f8b51049055",
            "g2": "1252ff0e2c6767c6683372db05326b232f62d20b2f7376291cb4f322e2ee8313",
        },
    ),
    "ternary_deleted": (
        (symmetric_spec(3, 0.8, (0.2, 0.4, 0.2, 0.2)), 48, 10, 80, 11),
        {
            "d1": "2963c3982e5265afc1f45d0bf17afa6cf0ea1c28217a100393de30073329e2cb",
            "d2": "86f59ee29ac9c38dd2838bab1313d62d85099243689f3275de68f4733077e88d",
            "sigma": "04c4f562c109afa96167324af4f3cb1b2c659355c094ae2c817737aa10affe5c",
            "g1": "7f7fbc0d1b78853f1fec78a2d46518c7e53fa9b95ea6bf5438cf2c12d2eb0e2c",
            "g2": "5bd5dede11c7e514864f62b1c3a685e395bec12662a8a4daf8ef7825537c453b",
        },
    ),
    "unit_trace_cyclic": (
        (unit_trace_cyclic_spec((0.2, 0.5, 0.3)), 300, 20, 400, 13),
        {
            "d1": "08dcdea7cb4bce0cc2685feb8f809c0910a7adfa38ba3750a3de8ae2d9b010fe",
            "d2": "ba1b1d30e03be2c34217f4921a15f6aa8de314e97cc840a8186848d2eaa8239a",
            "sigma": "09e268b50a125e3006038c47addc7937d3d48c0d0dd4030039688315079d3db5",
            "g1": "553bd90d1b40c89db08b04f87adcd72fcd4ad6efb7659f976d044bf64b4c15a9",
            "g2": "4c89a35d8409fbcfd9fd64aede3f28385d2d81bf807e53312c902378e930650d",
        },
    ),
}


def _check_pinned(name):
    (spec, m, n, num_seeds, master_seed), expected = PINNED_INSTANCES[name]
    pair, seeds = sample_instance(m, n, num_seeds, spec, master_seed, point=1, trial=2)
    if name != "bsc":
        assert np.any(pair.pattern.s == 0) and np.any(pair.pattern.s > 1)
    arrays = {"d1": pair.d1, "d2": pair.d2, "sigma": pair.sigma, "g1": seeds.g1, "g2": seeds.g2}
    assert {key: _sha256(arr) for key, arr in arrays.items()} == expected


@pytest.mark.parametrize("name", PINNED_INSTANCES)
def test_sample_instance_is_pinned_bit_for_bit(name):
    _check_pinned(name)


@pytest.mark.parametrize("budget", [2, 3])
@pytest.mark.parametrize("name", PINNED_INSTANCES)
def test_split_sample_instance_is_pinned_bit_for_bit(monkeypatch, name, budget):
    # Every pinned instance is smaller than two parts of DRAW_PART, so the
    # pins are checked again with parts of SPLIT_PART, where every symbol
    # draw and channel of each instance splits.
    monkeypatch.setattr(model, "DRAW_PART", SPLIT_PART)
    with fanout.budget(budget):
        _check_pinned(name)


def test_empirical_frequencies_converge():
    spec = bsc_spec()
    m, n = 1000, 100
    bound = 3.0 / np.sqrt(m * n)
    passes = 0
    for seed in range(20):
        d1 = generate_database(m, n, spec, substream(seed, 0))
        freq = np.bincount(d1.ravel(), minlength=3)[1:] / d1.size
        tv = 0.5 * np.abs(freq - spec.p_x).sum()
        passes += tv <= bound
    assert passes >= 18


def test_database_pair_invariants(rng):
    spec = bsc_spec(p_s=(0.2, 0.5, 0.3))
    d1 = generate_database(10, 6, spec, rng)
    pattern = draw_pattern(6, spec, rng)
    d2 = apply_channel(d1, pattern, spec, rng)
    with pytest.raises(ValueError):
        DatabasePair(d1, d2[:, :-1] if d2.shape[1] else d2, np.arange(10), pattern)
    with pytest.raises(ValueError):
        DatabasePair(d1, d2, np.zeros(10, dtype=int), pattern)
    with pytest.raises(ValueError, match="d1 and d2 must have the same row count"):
        DatabasePair(d1, d2[:-1], np.arange(10), pattern)
    with pytest.raises(ValueError, match="seed matrices must have the same row count"):
        SeedPair(d1, d2[:-1])


def test_substreams_disjoint():
    a = substream(7, 0, 0, 0).random(4)
    b = substream(7, 0, 0, 1).random(4)
    assert not np.allclose(a, b)
    assert np.allclose(a, substream(7, 0, 0, 0).random(4))


def test_matrix_io_round_trip(tmp_path, rng):
    mat = generate_database(13, 9, bsc_spec(), rng)
    path = tmp_path / "mat.dbm"
    write_matrix(path, mat)
    back = read_matrix(path)
    assert back.dtype == np.uint8
    assert np.array_equal(back, mat)


@settings(derandomize=True, deadline=None)
@given(
    mat=arrays(
        np.uint8,
        array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=12),
        elements=st.integers(1, 255),
    )
)
@example(mat=np.zeros((0, 5), dtype=np.uint8))
@example(mat=np.zeros((5, 0), dtype=np.uint8))
def test_matrix_io_round_trip_property(tmp_path_factory, mat):
    path = tmp_path_factory.mktemp("dbm") / "mat.dbm"
    write_matrix(path, mat)
    back = read_matrix(path)
    assert back.dtype == np.uint8
    assert back.shape == mat.shape
    assert np.array_equal(back, mat)


def test_matrix_io_rejects_corruption(tmp_path, rng):
    path = tmp_path / "mat.dbm"
    write_matrix(path, generate_database(4, 4, bsc_spec(), rng))
    raw = path.read_bytes()
    (tmp_path / "bad_magic.dbm").write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError):
        read_matrix(tmp_path / "bad_magic.dbm")
    (tmp_path / "truncated.dbm").write_bytes(raw[:-3])
    with pytest.raises(ValueError):
        read_matrix(tmp_path / "truncated.dbm")
    (tmp_path / "short_header.dbm").write_bytes(raw[:10])
    with pytest.raises(ValueError, match="truncated header"):
        read_matrix(tmp_path / "short_header.dbm")
    (tmp_path / "version.dbm").write_bytes(raw[:4] + (2).to_bytes(2, "little") + raw[6:])
    with pytest.raises(ValueError, match="unsupported version 2"):
        read_matrix(tmp_path / "version.dbm")
    with pytest.raises(ValueError):
        write_matrix(tmp_path / "zeros.dbm", np.zeros((2, 2), dtype=int))
    for shape in ((4,), (2, 2, 2)):
        with pytest.raises(ValueError, match="only 2-D"):
            write_matrix(tmp_path / "flat.dbm", np.ones(shape, dtype=np.uint8))


@pytest.mark.parametrize(
    "mat", [np.array([[1.7, 2.2]]), np.array([[True, True]]), np.array([[1.0, 2.0]])],
    ids=["float", "bool", "whole floats"],
)
def test_matrix_io_rejects_symbols_that_are_not_integers(tmp_path, mat):
    # Cast to one-byte symbols, [[1.7, 2.2]] would read back as [[1, 2]]
    # and an all-True bool matrix as 1s; only integer dtypes are written.
    path = tmp_path / "mat.dbm"
    with pytest.raises(ValueError, match="integers"):
        write_matrix(path, mat)
    assert not path.exists()


def test_matrix_io_rejects_zero_symbol_on_read(tmp_path, rng):
    # The writer refuses symbols outside 1..255; the reader must too.
    path = tmp_path / "mat.dbm"
    write_matrix(path, generate_database(4, 4, bsc_spec(), rng))
    raw = bytearray(path.read_bytes())
    raw[-1] = 0
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="1..255"):
        read_matrix(path)


def test_model_spec_json_round_trip(tmp_path):
    spec = bsc_spec(flip=0.2, p_s=(0.1, 0.6, 0.3))
    d = model_spec_to_dict(spec)
    assert d["alphabet_size"] == 2 and d["s_max"] == 2
    back = model_spec_from_dict(d)
    assert np.allclose(back.p_x, spec.p_x)
    assert np.allclose(back.p_y_given_x, spec.p_y_given_x)
    assert np.allclose(back.p_s, spec.p_s)
    with pytest.raises(ValueError):
        model_spec_from_dict({**d, "alphabet_size": 3})
    path = tmp_path / "spec.json"
    import json

    path.write_text(json.dumps(d))
    assert np.allclose(model_spec_from_dict(load_json_object(path)).p_x, spec.p_x)
