import numpy as np
import pytest

from dbalign import (
    DatabasePair,
    ModelSpec,
    RepetitionPattern,
    apply_channel,
    draw_pattern,
    generate_database,
    generate_seeds,
    sample_instance,
    substream,
)
from dbalign.dbio import (
    load_model_spec,
    model_spec_from_dict,
    model_spec_to_dict,
    read_matrix,
    write_matrix,
)

from conftest import bsc_spec, noiseless_spec


def test_spec_validation_rejects_bad_vectors():
    with pytest.raises(ValueError):
        ModelSpec(p_x=[0.5, 0.6], p_y_given_x=np.eye(2), p_s=[1.0])
    with pytest.raises(ValueError):
        ModelSpec(p_x=[0.5, 0.5], p_y_given_x=[[0.9, 0.2], [0.1, 0.9]], p_s=[1.0])
    with pytest.raises(ValueError):
        ModelSpec(p_x=[0.5, 0.5], p_y_given_x=np.eye(2), p_s=[-0.1, 1.1])
    with pytest.raises(ValueError):
        ModelSpec(p_x=[1.0], p_y_given_x=np.eye(2), p_s=[1.0])


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
    d2 = apply_channel(d1, pattern, np.arange(40), spec, rng)
    assert np.array_equal(d2, d1)


def test_replicas_are_independent_noisy_copies(rng):
    # One column repeated twice: each copy disagrees with the original at
    # the flip rate, the two copies with each other at the two-flip rate.
    spec = bsc_spec(flip=0.1, p_s=(0.0, 0.0, 1.0))
    m = 200_000
    d1 = generate_database(m, 1, spec, rng)
    d2 = apply_channel(d1, RepetitionPattern([2]), np.arange(m), spec, rng)
    assert d2.shape == (m, 2)
    for copy in range(2):
        assert abs(np.mean(d2[:, copy] != d1[:, 0]) - 0.1) < 0.005
    assert abs(np.mean(d2[:, 0] != d2[:, 1]) - 0.18) < 0.005


def test_bsc_disagreement_rate(rng):
    spec = bsc_spec(flip=0.1)
    m, n = 1000, 100
    d1 = generate_database(m, n, spec, rng)
    sigma = rng.permutation(m)
    d2 = apply_channel(d1, RepetitionPattern(np.ones(n, dtype=int)), sigma, spec, rng)
    rate = np.mean(d2[sigma] != d1)
    assert abs(rate - 0.1) < 0.01


def test_channel_dimension_mismatch(rng):
    spec = bsc_spec()
    d1 = generate_database(10, 5, spec, rng)
    with pytest.raises(ValueError):
        apply_channel(d1, RepetitionPattern([1, 1]), np.arange(10), spec, rng)
    with pytest.raises(ValueError):
        apply_channel(d1, RepetitionPattern(np.ones(5, dtype=int)), np.zeros(10, dtype=int), spec, rng)


def test_deleted_columns_absent(rng):
    spec = bsc_spec(p_s=(0.5, 0.5))
    d1 = generate_database(30, 20, spec, rng)
    pattern = draw_pattern(20, spec, rng)
    d2 = apply_channel(d1, pattern, np.arange(30), spec, rng)
    assert d2.shape[1] == pattern.total


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
    assert pattern.num_retained == 7


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
    d2 = apply_channel(d1, pattern, np.arange(10), spec, rng)
    with pytest.raises(ValueError):
        DatabasePair(d1, d2[:, :-1] if d2.shape[1] else d2, np.arange(10), pattern)
    with pytest.raises(ValueError):
        DatabasePair(d1, d2, np.zeros(10, dtype=int), pattern)


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
    with pytest.raises(ValueError):
        write_matrix(tmp_path / "zeros.dbm", np.zeros((2, 2), dtype=int))


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
    assert np.allclose(load_model_spec(path).p_x, spec.p_x)
