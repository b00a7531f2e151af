import numpy as np
import pytest

from dbalign import (
    RepetitionPattern,
    SingleComponentError,
    apply_channel,
    blischke_estimate,
    column_runs,
    detect_replicas,
    draw_pattern,
    factorial_moments,
    generate_database,
    mixture_truth,
    replica_free,
    running_hamming,
    substream,
)

from conftest import bsc_spec, noiseless_spec


def test_running_hamming_identical_columns():
    d2 = np.array([[1, 1], [2, 2], [1, 1]], dtype=np.uint8)
    assert np.array_equal(running_hamming(d2), [0])


def test_running_hamming_complementary_columns():
    d2 = np.array([[1, 2]] * 5, dtype=np.uint8)
    assert np.array_equal(running_hamming(d2), [5])


def test_running_hamming_single_column_empty():
    assert running_hamming(np.ones((4, 1), dtype=np.uint8)).size == 0


def test_running_hamming_independent_columns(rng):
    # Independent binary-uniform columns under a symmetric channel:
    # disagreement parameter is p0 = 1 - sum p_Y(y)^2 = 0.5.
    m = 10_000
    d2 = rng.integers(1, 3, size=(m, 4)).astype(np.uint8)
    h = running_hamming(d2)
    sigma = np.sqrt(m * 0.25)
    assert np.all(np.abs(h - m * 0.5) <= 3 * sigma)


def test_running_hamming_row_permutation_invariant(rng):
    d2 = rng.integers(1, 4, size=(50, 12)).astype(np.uint8)
    perm = rng.permutation(50)
    assert np.array_equal(running_hamming(d2), running_hamming(d2[perm]))


def test_factorial_moments_saturated_series():
    m = 20
    assert factorial_moments(np.full(9, m), m) == (1.0, 1.0, 1.0)
    assert factorial_moments(np.zeros(9), m) == (0.0, 0.0, 0.0)


def test_factorial_moment_matches_binomial_parameter(rng):
    h = rng.binomial(1000, 0.5, size=10_000)
    f1, f2, f3 = factorial_moments(h, 1000)
    assert abs(f1 - 0.5) < 0.01
    assert abs(f2 - 0.25) < 0.01
    assert abs(f3 - 0.125) < 0.01


def test_blischke_recovers_mixture(rng):
    m = 1000
    p0, p1, alpha = 0.5, 0.18, 0.6
    for _ in range(20):
        comp = rng.random(2000) < alpha
        h = np.where(comp, rng.binomial(m, p0, 2000), rng.binomial(m, p1, 2000))
        est = blischke_estimate(h, m)
        assert abs(est.p0_hat - p0) <= 0.02
        assert abs(est.p1_hat - p1) <= 0.02
        assert est.p1_hat <= est.tau <= est.p0_hat


def test_blischke_single_component_raises():
    # A pure-Binomial series has no second component; the degeneracy
    # triggers are numeric, so use a draw where they fire.
    h = np.random.default_rng(17).binomial(1000, 0.5, size=150)
    with pytest.raises(SingleComponentError):
        blischke_estimate(h, 1000)


def test_blischke_constant_series_raises():
    with pytest.raises(SingleComponentError):
        blischke_estimate(np.full(40, 500), 1000)
    with pytest.raises(SingleComponentError):
        blischke_estimate(np.zeros(40), 1000)
    with pytest.raises(SingleComponentError):
        blischke_estimate(np.full(40, 1000), 1000)


def test_blischke_estimates_stay_clamped(rng):
    # Fuzz: estimates are canonical and inside the unit interval even on
    # junk series (or the estimator refuses outright).
    for _ in range(200):
        m = int(rng.integers(5, 50))
        h = rng.integers(0, m + 1, size=int(rng.integers(2, 30)))
        try:
            est = blischke_estimate(h, m)
        except SingleComponentError:
            continue
        assert 0.0 <= est.p1_hat <= est.p0_hat <= 1.0
        assert est.p1_hat <= est.tau <= est.p0_hat


def test_detect_replicas_noiseless():
    spec = noiseless_spec(size=2, p_s=(0.0, 0.5, 0.5))
    # Identity channel: replica adjacencies have distance exactly 0 and
    # are always flagged; cross-boundary pairs never are.
    for seed in range(10):
        d1 = generate_database(1000, 30, spec, substream(seed, 1))
        pattern = draw_pattern(30, spec, substream(seed, 2))
        d2 = apply_channel(d1, pattern, np.arange(1000), spec, substream(seed, 3))
        cols = np.repeat(np.arange(30), pattern.s)
        truth = cols[1:] == cols[:-1]
        assert np.array_equal(detect_replicas(d2), truth)


def test_detect_replicas_single_column():
    assert detect_replicas(np.ones((10, 1), dtype=np.uint8)).size == 0


def test_detect_replicas_row_permutation_invariant(rng):
    spec = bsc_spec(p_s=(0.0, 0.5, 0.5))
    d1 = generate_database(500, 40, spec, substream(3, 0))
    pattern = draw_pattern(40, spec, substream(3, 1))
    d2 = apply_channel(d1, pattern, np.arange(500), spec, substream(3, 2))
    base = detect_replicas(d2)
    assert np.array_equal(base, detect_replicas(d2[rng.permutation(500)]))


def test_independent_databases_give_no_separation(rng):
    # Channel rows identical: replica and independent pairs share one
    # distance distribution, so detection either refuses or reports an
    # (arbitrary) clamped estimate; nothing meaningful separates.
    spec = bsc_spec(p_s=(0.0, 0.5, 0.5))
    truth = mixture_truth(
        type(spec)(p_x=[0.5, 0.5], p_y_given_x=[[0.7, 0.3], [0.7, 0.3]], p_s=[0.0, 0.5, 0.5])
    )
    assert truth.p0 == pytest.approx(truth.p1)
    h = rng.binomial(400, truth.p0, size=60)
    try:
        est = blischke_estimate(h, 400)
    except SingleComponentError:
        return
    assert 0.0 <= est.p1_hat <= est.p0_hat <= 1.0


def test_single_entry_flip_is_local(rng):
    # Flipping one entry moves only the two adjacent distances, each by
    # at most one, so at a fixed threshold at most two decisions change.
    d2 = rng.integers(1, 3, size=(60, 15)).astype(np.uint8)
    h = running_hamming(d2)
    flipped = d2.copy()
    flipped[20, 7] = 3 - flipped[20, 7]
    h2 = running_hamming(flipped)
    assert np.abs(h2 - h).sum() <= 2
    assert np.all(np.abs(h2 - h) <= 2)
    tau = 0.5
    before = h <= d2.shape[0] * tau
    after = h2 <= d2.shape[0] * tau
    assert (before != after).sum() <= 2


def test_column_runs():
    starts, lengths = column_runs(np.array([True, False, True, True, False]))
    assert np.array_equal(starts, [0, 2, 5])
    assert np.array_equal(lengths, [2, 3, 1])
    starts, lengths = column_runs(np.zeros(0, dtype=bool))
    assert np.array_equal(starts, [0])
    assert np.array_equal(lengths, [1])


def test_replica_free_any_column_count():
    mat = np.arange(1, 13, dtype=np.uint8).reshape(2, 6)
    free = replica_free(mat, np.array([True, False, True, True, False]))
    assert np.array_equal(free, mat[:, [0, 2, 5]])
    assert np.array_equal(replica_free(mat[:, :1], np.zeros(0, dtype=bool)), mat[:, :1])
    assert replica_free(mat[:, :0], np.zeros(0, dtype=bool)).shape == (2, 0)
    starts, lengths = column_runs(np.zeros(0, dtype=bool), 0)
    assert starts.size == 0 and lengths.size == 0
