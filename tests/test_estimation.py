import json

import numpy as np
import pytest

from dbalign.deletions import RetentionResult, cooccurrence, detect_deletions
from dbalign.estimation import (
    assemble_joint,
    estimate_from_seeds,
    estimate_p_s,
    estimate_p_y_given_x,
    from_model_spec,
)
from dbalign.infotheory import capacity, entropy, repetition_table
from dbalign.model import RepetitionPattern, generate_database, generate_seeds, substream

from conftest import bsc_spec, noiseless_spec
from oracles import aligned_pair_counts, unsupported_x


def _p_x(g1, alphabet_size):
    """The plug-in source estimate of g1: its symbol totals, tabulated
    against no g2 columns (every original column deleted), estimated."""
    source_counts = cooccurrence(g1, g1[:, :0], alphabet_size)[1]
    n = g1.shape[1]
    retention = RetentionResult(
        retained=np.arange(0),
        deleted=np.arange(n),
        n=n,
        pair_counts=np.eye(alphabet_size, dtype=np.int64),
        source_counts=source_counts,
    )
    return estimate_from_seeds(retention, RepetitionPattern(np.zeros(n, dtype=int))).p_x


def test_estimate_p_x_point_mass():
    g1 = np.ones((3, 4), dtype=np.uint8)
    assert np.array_equal(_p_x(g1, 1), [1.0])
    assert np.array_equal(_p_x(g1, 3), [1.0, 0.0, 0.0])


def test_estimate_p_x_direct_count():
    g1 = np.array([[1, 2], [2, 1]], dtype=np.uint8)
    assert np.array_equal(_p_x(g1, 2), [0.5, 0.5])


@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
def test_estimate_p_x_equals_bincount(dtype):
    # The totals read off the co-occurrence GEMM give the bincount's
    # frequencies bit for bit, with symbols 2 and 5 absent from the seeds.
    g1 = substream(8, 0).choice([1, 3, 4], size=(500, 7)).astype(dtype)
    expected = np.bincount(g1.ravel().astype(np.intp), minlength=6)[1:] / g1.size
    p_x = _p_x(g1, 5)
    assert p_x.dtype == expected.dtype
    assert np.array_equal(p_x, expected)
    assert p_x[1] == p_x[4] == 0.0


def test_estimate_p_x_concentration():
    for seed in range(20):
        g1 = generate_database(1000, 1000, bsc_spec(), substream(seed, 4))
        assert abs(_p_x(g1, 2)[0] - 0.5) <= 0.002


def test_estimate_p_y_given_x_identity_channel():
    spec = noiseless_spec(size=3, p_s=(0.0, 1.0))
    pattern = RepetitionPattern(np.ones(20, dtype=int))
    seeds = generate_seeds(5000, 20, pattern, spec, substream(9, 0))
    matrix = estimate_p_y_given_x(aligned_pair_counts(seeds.g1, seeds.g2, np.arange(20), 3))
    assert not unsupported_x(assemble_joint(np.full(3, 1 / 3), matrix, [0.0, 1.0])).any()
    assert np.allclose(matrix, np.eye(3), atol=0.01)


def test_estimate_p_y_given_x_bsc():
    spec = bsc_spec(flip=0.1)
    pattern = RepetitionPattern(np.ones(20, dtype=int))
    seeds = generate_seeds(5000, 20, pattern, spec, substream(10, 0))
    matrix = estimate_p_y_given_x(aligned_pair_counts(seeds.g1, seeds.g2, np.arange(20), 2))
    assert abs(matrix[0, 1] - 0.1) <= 0.01
    assert abs(matrix[1, 0] - 0.1) <= 0.01
    assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-12)


def test_estimate_p_y_given_x_single_observation_flags_rows():
    g1 = np.array([[1]], dtype=np.uint8)
    g2 = np.array([[2]], dtype=np.uint8)
    matrix = estimate_p_y_given_x(aligned_pair_counts(g1, g2, np.array([0]), 3))
    assert np.array_equal(matrix[0], [0.0, 1.0, 0.0])
    est = assemble_joint([1.0, 0.0, 0.0], matrix, [0.0, 1.0])
    assert np.array_equal(unsupported_x(est), [False, True, True])
    assert np.all(matrix[1:] == 0.0)


def test_estimate_p_y_given_x_all_zero_table_flags_every_row():
    matrix = estimate_p_y_given_x(np.zeros((3, 3), dtype=np.int64))
    assert np.array_equal(matrix, np.zeros((3, 3)))
    assert unsupported_x(assemble_joint(np.full(3, 1 / 3), matrix, [0.0, 1.0])).all()


@pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2), ()])
def test_estimate_p_y_given_x_rejects_non_square_table(shape):
    with pytest.raises(ValueError, match="square"):
        estimate_p_y_given_x(np.ones(shape, dtype=np.int64))


def test_estimate_p_s_direct_count():
    assert np.array_equal(estimate_p_s(RepetitionPattern([1, 1, 2, 0])), [0.25, 0.5, 0.25])


def test_estimate_p_s_point_mass():
    assert np.array_equal(estimate_p_s(RepetitionPattern(np.ones(6, dtype=int))), [0.0, 1.0])


def test_estimate_p_s_explicit_support():
    # The support runs from 0 to the largest detected count, gaps included.
    assert np.array_equal(estimate_p_s(RepetitionPattern([1, 1, 0, 1])), [0.25, 0.75])
    assert np.array_equal(estimate_p_s(RepetitionPattern([0, 3])), [0.5, 0.0, 0.0, 0.5])


def test_estimate_p_s_concentration():
    spec = bsc_spec(p_s=(0.3, 0.4, 0.3))
    for seed in range(20):
        pattern = RepetitionPattern(substream(seed, 6).choice([0, 1, 2], size=10_000, p=spec.p_s))
        est = estimate_p_s(pattern)
        assert np.all(np.abs(est - spec.p_s) <= 0.02)


def test_assemble_joint_erasure_case():
    est = from_model_spec(bsc_spec(flip=0.1, p_s=(0.5, 0.5)))
    table = repetition_table(est.p_x, est.p_y_given_x, 0)
    assert table.shape == (2, 1)
    assert np.allclose(table[:, 0], est.p_x)


def test_assemble_joint_single_copy_value():
    est = from_model_spec(bsc_spec(flip=0.1))
    assert repetition_table(est.p_x, est.p_y_given_x, 1)[0, 0] == pytest.approx(0.45, abs=1e-12)


def test_assemble_joint_product_structure():
    spec = bsc_spec(flip=0.2, p_s=(0.2, 0.3, 0.5))
    est = from_model_spec(spec)
    table = repetition_table(est.p_x, est.p_y_given_x, 2)
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
        for s in range(est.s_max + 1):
            table = repetition_table(est.p_x, est.p_y_given_x, s)
            assert np.all(table >= 0.0)
            assert table.sum() == pytest.approx(1.0, abs=1e-9)


def test_assemble_joint_table_limit():
    k = 40
    p_x = np.full(k, 1 / k)
    chan = np.full((k, k), 1 / k)
    with pytest.raises(ValueError):
        assemble_joint(p_x, chan, np.array([0.0, 0.0, 0.0, 0.0, 1.0]))


@pytest.mark.parametrize(
    "components, message",
    [
        (([0.5, 0.6], [[0.9, 0.1], [0.1, 0.9]], [0.0, 1.0]), "p_x mass"),
        (([0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]], [0.5, 0.4]), "p_s mass"),
        (([0.5, 0.5], [[0.9, 0.2], [0.1, 0.9]], [0.0, 1.0]), "channel row"),
        (([0.5, 0.5], [[0.9, 0.1], [0.0, 1e-3]], [0.0, 1.0]), "channel row"),
        (([0.5, 0.5], [[0.9, 0.1], [np.nan, 0.0]], [0.0, 1.0]), "channel row"),
        (([np.nan, 0.5], [[0.9, 0.1], [0.1, 0.9]], [0.0, 1.0]), "p_x mass"),
        # These sum to 1, so only the range test catches them; unchecked,
        # p_x = [1.5, -0.5] gives H(X) = -0.877.
        (([1.5, -0.5], [[1.0, 0.0], [0.0, 1.0]], [0.0, 1.0]), "p_x entries"),
        (([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]], [-0.5, 1.5]), "p_s entries"),
        (([0.5, 0.5], [[1.2, -0.2], [0.0, 1.0]], [0.0, 1.0]), "channel row 0 entries"),
    ],
)
def test_assemble_joint_rejects_components_that_are_not_distributions(components, message):
    with pytest.raises(ValueError, match=message):
        assemble_joint(*components)


def test_assemble_joint_entropies_from_repetition_tables():
    # Each entropy is the p_s-average of the same enumeration the
    # capacity uses, including an all-zero (unsupported) channel row.
    p_x = np.array([0.6, 0.4])
    chan = np.array([[0.8, 0.2], [0.0, 0.0]])
    p_s = np.array([0.2, 0.3, 0.5])
    est = assemble_joint(p_x, chan, p_s)
    tables = [repetition_table(p_x, chan, s) for s in range(3)]
    assert est.x_entropy == entropy(p_x)
    assert est.y_entropy == pytest.approx(sum(p * entropy(t.sum(axis=0)) for p, t in zip(p_s, tables)))
    assert est.joint_entropy == pytest.approx(sum(p * entropy(t) for p, t in zip(p_s, tables)))


def test_truth_assembly_matches_capacity_module():
    spec = bsc_spec(flip=0.1, p_s=(0.2, 0.5, 0.3))
    est = from_model_spec(spec)
    for name in ("p_x", "p_y_given_x", "p_s"):
        assert np.array_equal(getattr(est, name), getattr(spec, name))
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
            counts = aligned_pair_counts(seeds.g1, seeds.g2, np.arange(10), 2)
            matrix = estimate_p_y_given_x(counts)
            errs.append(np.abs(matrix - spec.p_y_given_x).sum())
        mean_err[lam] = np.mean(errs)
    assert 0.3 <= mean_err[2000] / mean_err[500] <= 0.75


def test_estimators_reject_symbols_outside_alphabet():
    # A bad g1 or g2 symbol is rejected by deletion detection, which owns
    # the seed counts; the estimator reads only what detection returned.
    g1 = np.array([[3, 1, 2]], dtype=np.uint8)
    for g2 in (g1[:, :0], np.array([[1, 2, 1]], dtype=np.uint8)):
        with pytest.raises(ValueError, match="1..2"):
            detect_deletions(g1, g2, 2)
    with pytest.raises(ValueError, match="1..2"):
        detect_deletions(g1[:, [1, 2, 2]], g1, 2)


def _round_trip(est):
    d = json.loads(json.dumps(est.to_dict()))
    return assemble_joint(d["p_x"], d["p_y_given_x"], d["p_s"])


def test_estimate_serialization_round_trip():
    spec = bsc_spec(flip=0.15, p_s=(0.3, 0.7))
    est = from_model_spec(spec)
    back = _round_trip(est)
    assert np.allclose(back.p_x, est.p_x)
    assert np.allclose(back.p_y_given_x, est.p_y_given_x)
    assert np.allclose(back.p_s, est.p_s)
    assert back.joint_entropy == pytest.approx(est.joint_entropy, abs=1e-12)
    assert not unsupported_x(back).any()

    flagged = assemble_joint(
        np.array([0.5, 0.5]),
        np.array([[0.9, 0.1], [0.0, 0.0]]),
        np.array([0.5, 0.5]),
    )
    assert np.array_equal(unsupported_x(flagged), [False, True])
    again = _round_trip(flagged)
    assert np.array_equal(unsupported_x(again), [False, True])


def test_estimate_from_seeds_full_pipeline():
    spec = bsc_spec(flip=0.1, p_s=(0.3, 0.7))
    s = np.ones(12, dtype=int)
    s[[2, 8]] = 0
    pattern = RepetitionPattern(s)
    seeds = generate_seeds(20_000, 12, pattern, spec, substream(55, 0))
    retention = detect_deletions(seeds.g1, seeds.g2, alphabet_size=2)
    assert np.array_equal(retention.retained, pattern.retained_indices())
    est = estimate_from_seeds(retention, pattern)
    assert np.array_equal(est.p_x, np.bincount(seeds.g1.ravel())[1:] / seeds.g1.size)
    assert np.allclose(est.p_x, spec.p_x, atol=0.01)
    assert np.allclose(est.p_y_given_x, spec.p_y_given_x, atol=0.01)
    assert np.array_equal(est.p_s, estimate_p_s(pattern))


@pytest.mark.parametrize("counts_size", [2, 4])
def test_estimate_from_seeds_rejects_pair_counts_of_another_alphabet(counts_size):
    # A hand-built result whose tables disagree on the alphabet fails loudly;
    # the source totals set it.
    retention = RetentionResult(
        retained=np.arange(3),
        deleted=np.array([], dtype=np.int64),
        n=3,
        pair_counts=np.ones((counts_size, counts_size), dtype=np.int64),
        source_counts=np.array([2, 2, 2], dtype=np.int64),
    )
    with pytest.raises(ValueError, match="3 x 3"):
        estimate_from_seeds(retention, RepetitionPattern(np.ones(3, dtype=int)))
