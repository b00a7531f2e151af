import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dbalign import replicas
from dbalign.infotheory import mixture_truth
from dbalign.model import RepetitionPattern, apply_channel, draw_pattern, generate_database, substream
from dbalign.replicas import (
    SingleComponentError,
    _factorial_moments,
    blischke_estimate,
    column_runs,
    detect_replicas,
    dispersion,
    dispersion_bound,
    running_hamming,
)

from conftest import bsc_spec, noiseless_spec, symmetric_spec, unit_trace_cyclic_spec
from oracles import ungated_replicas


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
    assert _factorial_moments(np.full(9, m), m) == (1.0, 1.0, 1.0)
    assert _factorial_moments(np.zeros(9), m) == (0.0, 0.0, 0.0)


def test_factorial_moment_matches_binomial_parameter(rng):
    h = rng.binomial(1000, 0.5, size=10_000)
    f1, f2, f3 = _factorial_moments(h, 1000)
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


def test_blischke_single_distance_is_single_component():
    # Two columns give one adjacent distance, which cannot show two
    # components; the error is the one the pipeline records.
    with pytest.raises(SingleComponentError, match="at least two"):
        blischke_estimate(np.array([10]), 100)


@pytest.mark.parametrize("m", [1, 2])
def test_blischke_too_few_rows_is_single_component(m):
    # Three factorial moments need three rows; the refusal is an
    # algorithmic failure, so the pipeline records it.
    with pytest.raises(SingleComponentError, match="3 rows"):
        blischke_estimate(np.array([0.0, 1.0, 2.0]), m)


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
        d2 = apply_channel(d1, pattern, spec, substream(seed, 3))
        cols = np.repeat(np.arange(30), pattern.s)
        truth = cols[1:] == cols[:-1]
        assert np.array_equal(detect_replicas(d2), truth)


def test_detect_replicas_single_column():
    assert detect_replicas(np.ones((10, 1), dtype=np.uint8)).size == 0


def test_detect_replicas_row_permutation_invariant(rng):
    spec = bsc_spec(p_s=(0.0, 0.5, 0.5))
    d1 = generate_database(500, 40, spec, substream(3, 0))
    pattern = draw_pattern(40, spec, substream(3, 1))
    d2 = apply_channel(d1, pattern, spec, substream(3, 2))
    base = detect_replicas(d2)
    assert np.array_equal(base, detect_replicas(d2[rng.permutation(500)]))


def _replica_decisions_or_error(d2, detect=detect_replicas):
    try:
        return detect(d2).tolist()
    except SingleComponentError as exc:
        return type(exc)


def _draw_d2(spec, m, n, seed):
    d1 = generate_database(m, n, spec, substream(seed, 0))
    pattern = draw_pattern(n, spec, substream(seed, 1))
    return apply_channel(d1, pattern, spec, substream(seed, 2)), pattern


def _binary_with_distances(h, m):
    """A binary m-row matrix whose adjacent columns differ in h[j] rows."""
    cols = [np.ones(m, dtype=np.uint8)]
    for hj in h:
        nxt = cols[-1].copy()
        nxt[:hj] = 3 - nxt[:hj]
        cols.append(nxt)
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("delta, replicas_declared", [(28, False), (29, True)])
def test_dispersion_gate_at_the_bound(monkeypatch, delta, replicas_declared):
    # 20 distances alternating 500 +- delta among 1000 rows: f1 = 1/2, so
    # D = 20 delta^2 / 250, 62.72 and 67.28 on either side of the bound
    # for K = 21 columns, 19 + 2 sqrt(19 x) + 2 x at x = ln(21000).
    x = np.log(21_000)
    assert dispersion_bound(21) == pytest.approx(19 + 2 * np.sqrt(19 * x) + 2 * x)
    assert dispersion_bound(21) == pytest.approx(66.4068, abs=1e-4)
    h = np.array([500 + delta, 500 - delta] * 10)
    assert dispersion(h, 1000) == pytest.approx(20 * delta**2 / 250)
    d2 = _binary_with_distances(h, 1000)
    assert np.array_equal(running_hamming(d2), h)
    fits = []
    estimate = replicas.blischke_estimate

    def counting(h, m):
        fits.append(h)
        return estimate(h, m)

    monkeypatch.setattr(replicas, "blischke_estimate", counting)
    decisions = _replica_decisions_or_error(d2)
    assert len(fits) == replicas_declared
    if not replicas_declared:
        assert decisions == [False] * 20


def test_dispersion_of_a_saturated_series_is_zero():
    # f1 in {0, 1}: every distance is 0 or every one is m, so no replicas.
    assert dispersion(np.zeros(9), 20) == 0.0
    assert dispersion(np.full(9, 20), 20) == 0.0
    assert not detect_replicas(np.ones((5, 10), dtype=np.uint8)).any()


def test_replica_free_draws_declare_no_replica():
    # remap_sweep's shape: unit-trace cyclic channel, p_s = (0.3, 0.7),
    # m = 1024, n = 60, where every adjacent pair is independent.
    spec = unit_trace_cyclic_spec((0.3, 0.7))
    for seed in range(400):
        d2, _ = _draw_d2(spec, 1024, 60, seed)
        assert not detect_replicas(d2).any()


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    spec=st.sampled_from(
        [
            bsc_spec(p_s=(1 / 3, 1 / 3, 1 / 3)),
            bsc_spec(p_s=(0.3, 0.4, 0.3)),
            symmetric_spec(3, 0.8, (0.1, 0.4, 0.3, 0.2)),
            unit_trace_cyclic_spec((0.2, 0.5, 0.3)),
        ]
    ),
    seed=st.integers(0, 10_000),
    m=st.sampled_from([800, 2000]),
    n=st.sampled_from([12, 100]),
)
def test_gate_keeps_the_estimator_decisions_with_replicas(spec, seed, m, n):
    # At the acceptance tests' sizes the gate never hides a replica that
    # Blischke's estimator alone would find, nor changes a refusal.
    d2, pattern = _draw_d2(spec, m, n, seed)
    assume(pattern.s.max() > 1)
    assert _replica_decisions_or_error(d2) == _replica_decisions_or_error(d2, ungated_replicas)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    spec=st.sampled_from(
        [
            bsc_spec(p_s=(0.0, 0.5, 0.5)),
            symmetric_spec(3, 0.8, (0.1, 0.4, 0.3, 0.2)),
            unit_trace_cyclic_spec((0.2, 0.5, 0.3)),
            noiseless_spec(size=2, p_s=(0.1, 0.5, 0.4)),
        ]
    ),
    seed=st.integers(0, 10_000),
    m=st.sampled_from([40, 400]),
)
def test_detect_replicas_row_permutation_property(spec, seed, m):
    # Database rows are exchangeable: any row order of d2 gives the same
    # adjacent distances, hence the same decisions or the same refusal.
    d2, _ = _draw_d2(spec, m, 30, seed)
    perm = substream(seed, 3).permutation(m)
    assert _replica_decisions_or_error(d2[perm]) == _replica_decisions_or_error(d2)


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
    starts, lengths = column_runs(np.array([True, False, True, True, False]), 6)
    assert np.array_equal(starts, [0, 2, 5])
    assert np.array_equal(lengths, [2, 3, 1])
    starts, lengths = column_runs(np.zeros(0, dtype=bool), 1)
    assert np.array_equal(starts, [0])
    assert np.array_equal(lengths, [1])
    starts, lengths = column_runs(np.zeros(0, dtype=bool), 0)
    assert starts.size == 0 and lengths.size == 0


def test_replica_free_any_column_count():
    # The run starts pick a matrix's replica-free columns at any column
    # count, zero and one included.
    mat = np.arange(1, 13, dtype=np.uint8).reshape(2, 6)

    def replica_free(mat, is_replica):
        return mat[:, column_runs(is_replica, mat.shape[1])[0]]

    free = replica_free(mat, np.array([True, False, True, True, False]))
    assert np.array_equal(free, mat[:, [0, 2, 5]])
    assert np.array_equal(replica_free(mat[:, :1], np.zeros(0, dtype=bool)), mat[:, :1])
    assert replica_free(mat[:, :0], np.zeros(0, dtype=bool)).shape == (2, 0)
