import numpy as np
import pytest

from dbalign import (
    RepetitionPattern,
    assemble_joint,
    capacity,
    estimate_from_seeds,
    estimate_p_s,
    estimate_p_x,
    estimate_p_y_given_x,
    from_model_spec,
    generate_database,
    generate_seeds,
    repetition_table,
    substream,
)
from dbalign.deletions import RetentionResult
from dbalign.estimation import from_dict

from conftest import bsc_spec, noiseless_spec


def test_estimate_p_x_point_mass():
    g1 = np.ones((3, 4), dtype=np.uint8)
    assert np.array_equal(estimate_p_x(g1, 1), [1.0])
    assert np.array_equal(estimate_p_x(g1, 3), [1.0, 0.0, 0.0])


def test_estimate_p_x_direct_count():
    g1 = np.array([[1, 2], [2, 1]], dtype=np.uint8)
    assert np.array_equal(estimate_p_x(g1, 2), [0.5, 0.5])


def test_estimate_p_x_concentration():
    for seed in range(20):
        g1 = generate_database(1000, 1000, bsc_spec(), substream(seed, 4))
        assert abs(estimate_p_x(g1, 2)[0] - 0.5) <= 0.002


def test_estimate_p_y_given_x_identity_channel():
    spec = noiseless_spec(size=3, p_s=(0.0, 1.0))
    pattern = RepetitionPattern(np.ones(20, dtype=int))
    seeds = generate_seeds(5000, 20, pattern, spec, substream(9, 0))
    matrix, unsupported = estimate_p_y_given_x(seeds.g1, seeds.g2, np.arange(20), 3)
    assert not unsupported.any()
    assert np.allclose(matrix, np.eye(3), atol=0.01)


def test_estimate_p_y_given_x_bsc():
    spec = bsc_spec(flip=0.1)
    pattern = RepetitionPattern(np.ones(20, dtype=int))
    seeds = generate_seeds(5000, 20, pattern, spec, substream(10, 0))
    matrix, _ = estimate_p_y_given_x(seeds.g1, seeds.g2, np.arange(20), 2)
    assert abs(matrix[0, 1] - 0.1) <= 0.01
    assert abs(matrix[1, 0] - 0.1) <= 0.01
    assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-12)


def test_estimate_p_y_given_x_single_observation_flags_rows():
    g1 = np.array([[1]], dtype=np.uint8)
    g2 = np.array([[2]], dtype=np.uint8)
    matrix, unsupported = estimate_p_y_given_x(g1, g2, np.array([0]), 3)
    assert np.array_equal(matrix[0], [0.0, 1.0, 0.0])
    assert np.array_equal(unsupported, [False, True, True])
    assert np.all(matrix[1:] == 0.0)


def test_estimate_p_y_given_x_accepts_retention_result():
    g1 = np.array([[1, 2, 1], [2, 1, 2]], dtype=np.uint8)
    retention = RetentionResult(
        retained=np.array([0, 2]), deleted=np.array([1]), n=3
    )
    matrix, _ = estimate_p_y_given_x(g1, g1[:, [0, 2]], retention, 2)
    assert np.allclose(matrix, np.eye(2))
    with pytest.raises(ValueError):
        estimate_p_y_given_x(g1, g1, retention, 2)


def test_estimate_p_s_direct_count():
    assert np.array_equal(estimate_p_s(np.array([1, 1, 2, 0])), [0.25, 0.5, 0.25])


def test_estimate_p_s_point_mass():
    assert np.array_equal(estimate_p_s(np.ones(6, dtype=int)), [0.0, 1.0])


def test_estimate_p_s_explicit_support():
    assert np.array_equal(
        estimate_p_s(np.array([1, 1, 0, 1]), s_max=3), [0.25, 0.75, 0.0, 0.0]
    )
    with pytest.raises(ValueError):
        estimate_p_s(np.array([0, 3]), s_max=2)


def test_estimate_p_s_concentration():
    spec = bsc_spec(p_s=(0.3, 0.4, 0.3))
    for seed in range(20):
        pattern = substream(seed, 6).choice([0, 1, 2], size=10_000, p=spec.p_s)
        est = estimate_p_s(pattern, s_max=2)
        assert np.all(np.abs(est - spec.p_s) <= 0.02)


def test_assemble_joint_erasure_case():
    est = from_model_spec(bsc_spec(flip=0.1, p_s=(0.5, 0.5)))
    assert est.tables[0].shape == (2, 1)
    assert np.allclose(est.tables[0][:, 0], est.p_x)


def test_assemble_joint_single_copy_value():
    est = from_model_spec(bsc_spec(flip=0.1))
    assert est.tables[1][0, 0] == pytest.approx(0.45, abs=1e-12)


def test_assemble_joint_product_structure():
    spec = bsc_spec(flip=0.2, p_s=(0.2, 0.3, 0.5))
    est = from_model_spec(spec)
    table = est.tables[2]
    assert table.shape == (2, 4)
    for x in range(2):
        for y1 in range(2):
            for y2 in range(2):
                expected = (
                    spec.p_x[x]
                    * spec.p_y_given_x[x, y1]
                    * spec.p_y_given_x[x, y2]
                )
                assert table[x, 2 * y1 + y2] == pytest.approx(expected, abs=1e-15)


def test_assemble_joint_tables_are_distributions():
    rng = np.random.default_rng(0)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        p_x = rng.dirichlet(np.ones(k))
        chan = rng.dirichlet(np.ones(k), size=k)
        p_s = rng.dirichlet(np.ones(3))
        est = assemble_joint(p_x, chan, p_s)
        for s, table in est.tables.items():
            assert np.all(table >= 0.0)
            assert table.sum() == pytest.approx(1.0, abs=1e-9)


def test_assemble_joint_table_limit():
    k = 40
    p_x = np.full(k, 1 / k)
    chan = np.full((k, k), 1 / k)
    with pytest.raises(ValueError):
        assemble_joint(p_x, chan, np.array([0.0, 0.0, 0.0, 0.0, 1.0]))


def test_truth_assembly_matches_capacity_module():
    spec = bsc_spec(flip=0.1, p_s=(0.2, 0.5, 0.3))
    est = from_model_spec(spec)
    for s in range(spec.s_max + 1):
        assert np.array_equal(est.tables[s], repetition_table(spec.p_x, spec.p_y_given_x, s))
    # I(X; Y^S | S) from the assembled entropies equals the capacity oracle.
    info = est.x_entropy + est.y_entropy - est.joint_entropy
    assert info == pytest.approx(capacity(spec).capacity, abs=1e-12)


def test_estimation_error_halves_when_seeds_quadruple():
    spec = bsc_spec(flip=0.1, p_s=(0.0, 1.0))
    pattern = RepetitionPattern(np.ones(10, dtype=int))
    mean_err = {}
    for lam in (500, 2000):
        errs = []
        for seed in range(30):
            seeds = generate_seeds(lam, 10, pattern, spec, substream(seed, lam))
            matrix, _ = estimate_p_y_given_x(seeds.g1, seeds.g2, np.arange(10), 2)
            errs.append(np.abs(matrix - spec.p_y_given_x).sum())
        mean_err[lam] = np.mean(errs)
    assert 0.3 <= mean_err[2000] / mean_err[500] <= 0.75


def test_estimators_reject_symbols_outside_alphabet():
    # A 0 in g2 would otherwise be counted as the pair (x - 1, k).
    g1 = np.array([[2]], dtype=np.uint8)
    with pytest.raises(ValueError, match="1..2"):
        estimate_p_y_given_x(g1, np.array([[0]], dtype=np.uint8), np.array([0]), 2)
    with pytest.raises(ValueError, match="1..2"):
        estimate_p_x(np.array([[3]], dtype=np.uint8), 2)


def test_estimate_serialization_round_trip():
    spec = bsc_spec(flip=0.15, p_s=(0.3, 0.7))
    est = from_model_spec(spec)
    back = from_dict(est.to_dict())
    assert np.allclose(back.p_x, est.p_x)
    assert np.allclose(back.p_y_given_x, est.p_y_given_x)
    assert np.allclose(back.p_s, est.p_s)
    assert back.joint_entropy == pytest.approx(est.joint_entropy, abs=1e-12)
    assert not back.unsupported_x.any()

    flagged = assemble_joint(
        np.array([0.5, 0.5]),
        np.array([[0.9, 0.1], [0.0, 0.0]]),
        np.array([0.5, 0.5]),
        unsupported_x=np.array([False, True]),
    )
    again = from_dict(flagged.to_dict())
    assert np.array_equal(again.unsupported_x, [False, True])


def test_estimate_from_seeds_full_pipeline():
    spec = bsc_spec(flip=0.1, p_s=(0.3, 0.7))
    s = np.ones(12, dtype=int)
    s[[2, 8]] = 0
    pattern = RepetitionPattern(s)
    seeds = generate_seeds(20_000, 12, pattern, spec, substream(55, 0))
    retained = pattern.retained_indices()
    est = estimate_from_seeds(seeds.g1, seeds.g2, retained, pattern, 2, s_max=1)
    assert np.allclose(est.p_x, spec.p_x, atol=0.01)
    assert np.allclose(est.p_y_given_x, spec.p_y_given_x, atol=0.01)
    assert np.array_equal(est.p_s, estimate_p_s(pattern, s_max=1))
