import itertools
import math

import numpy as np
import pytest

from dbalign.infotheory import (
    TABLE_LIMIT,
    capacity,
    check_table_size,
    entropy,
    mixture_truth,
    repetition_entropies,
    repetition_table,
)
from dbalign.model import ModelSpec

from conftest import bsc_spec, noiseless_spec, symmetric_spec, unit_trace_cyclic_spec


def bernoulli_kl(p, q):
    """D(p || q) between Bernoulli(p) and Bernoulli(q) in bits.

    Infinite when q is degenerate and p puts mass where q has none.
    """
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise ValueError("arguments must lie in [0, 1]")
    total = 0.0
    if p > 0.0:
        if q == 0.0:
            return math.inf
        total += p * math.log2(p / q)
    if p < 1.0:
        if q == 1.0:
            return math.inf
        total += (1.0 - p) * math.log2((1.0 - p) / (1.0 - q))
    return total


def brute_force_capacity(spec):
    """Independent oracle: plain nested loops over every outcome.

    Sums p(s) * p(x, y^s) * log2( p(x, y^s) / (p(x) p(y^s)) ) directly,
    with no shared code path with the library's entropy-based route.
    """
    size = spec.alphabet_size
    symbols = range(size)
    total = 0.0
    for s, ps in enumerate(spec.p_s):
        if ps == 0.0:
            continue
        joint = {}
        for x in symbols:
            for ys in itertools.product(symbols, repeat=s):
                p = spec.p_x[x]
                for y in ys:
                    p *= spec.p_y_given_x[x, y]
                joint[(x, ys)] = p
        marg_y = {}
        for (x, ys), p in joint.items():
            marg_y[ys] = marg_y.get(ys, 0.0) + p
        info = 0.0
        for (x, ys), p in joint.items():
            if p > 0.0:
                info += p * math.log2(p / (spec.p_x[x] * marg_y[ys]))
        total += ps * info
    return total


def test_entropy_point_mass():
    assert entropy([1.0, 0.0, 0.0]) == 0.0


def test_entropy_uniform():
    assert entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-12)


def test_entropy_binary_skewed():
    assert entropy([0.9, 0.1]) == pytest.approx(0.4690, abs=5e-5)


def test_bernoulli_kl_identity():
    for p in (0.0, 0.3, 1.0):
        assert bernoulli_kl(p, p) == 0.0


def test_bernoulli_kl_value():
    assert bernoulli_kl(0.5, 0.25) == pytest.approx(0.2075, abs=5e-5)
    direct = 0.18 * math.log2(0.18 / 0.34) + 0.82 * math.log2(0.82 / 0.66)
    assert bernoulli_kl(0.18, 0.34) == pytest.approx(direct, abs=1e-12)


def test_bernoulli_kl_degenerate():
    assert bernoulli_kl(0.5, 0.0) == math.inf
    assert bernoulli_kl(0.5, 1.0) == math.inf
    assert bernoulli_kl(0.0, 1.0) == math.inf
    assert bernoulli_kl(0.0, 0.3) == pytest.approx(math.log2(1 / 0.7), abs=1e-12)
    with pytest.raises(ValueError):
        bernoulli_kl(-0.1, 0.5)


def test_chernoff_bound_predicts_error_magnitude(rng):
    # Threshold decision at tau on a Binomial(200, 0.5) series: the
    # false-classification rate is bounded by 2^(-m D(tau || 0.5)) and
    # lands within a couple orders of magnitude of it.
    m, tau = 200, 0.34
    bound = 2.0 ** (-m * bernoulli_kl(tau, 0.5))
    draws = rng.binomial(m, 0.5, size=20_000_000)
    mc = np.mean(draws <= m * tau)
    assert mc <= bound
    assert mc >= bound / 50.0


def test_capacity_all_deleted_is_zero():
    spec = bsc_spec(p_s=(1.0,))
    assert capacity(spec).capacity == 0.0


def test_capacity_bsc_closed_form():
    h2 = -(0.1 * math.log2(0.1) + 0.9 * math.log2(0.9))
    report = capacity(bsc_spec(flip=0.1, p_s=(0.0, 1.0)))
    assert report.capacity == pytest.approx(1.0 - h2, abs=1e-9)
    assert report.h_x == pytest.approx(1.0, abs=1e-12)


def test_capacity_independent_channel_is_zero():
    spec = ModelSpec(
        p_x=[0.5, 0.5],
        p_y_given_x=[[0.7, 0.3], [0.7, 0.3]],
        p_s=[0.2, 0.5, 0.3],
    )
    assert capacity(spec).capacity == pytest.approx(0.0, abs=1e-12)


def test_capacity_positive_when_correlated():
    assert capacity(bsc_spec(p_s=(0.5, 0.5))).capacity > 0.01


def test_capacity_decomposition_consistency():
    spec = bsc_spec(flip=0.15, p_s=(0.2, 0.3, 0.5))
    report = capacity(spec)
    assert report.capacity == pytest.approx(float(spec.p_s @ report.per_s), abs=1e-12)
    assert report.per_s[0] == 0.0
    assert np.all(np.diff(report.per_s) >= -1e-12)  # more copies, more information


def test_capacity_matches_brute_force_grid():
    grid = [
        bsc_spec(flip=0.1, p_s=(0.2, 0.5, 0.3)),
        bsc_spec(flip=0.25, p_s=(0.1, 0.2, 0.3, 0.4), p_x=(0.7, 0.3)),
        symmetric_spec(3, diag=0.6, p_s=(0.3, 0.4, 0.3)),
        symmetric_spec(4, diag=0.08, p_s=(0.25, 0.25, 0.25, 0.25)),
        unit_trace_cyclic_spec(p_s=(0.0, 0.4, 0.3, 0.3)),
        noiseless_spec(size=4, p_s=(0.5, 0.5)),
    ]
    for spec in grid:
        report = capacity(spec)
        assert report.capacity == pytest.approx(brute_force_capacity(spec), abs=1e-9)
        for s in range(spec.s_max + 1):
            assert np.all(np.diff(report.per_s) >= -1e-12)


def test_repetition_table_shapes_and_mass():
    spec = bsc_spec(flip=0.2)
    for s in range(4):
        table = repetition_table(spec.p_x, spec.p_y_given_x, s)
        assert table.shape == (2, 2 ** s)
        assert table.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        repetition_table(np.full(40, 1 / 40), np.full((40, 40), 1 / 40), 4)


def test_repetition_entropies_are_those_of_the_tables():
    spec = bsc_spec(flip=0.15, p_s=(0.2, 0.3, 0.5), p_x=(0.7, 0.3))
    h_y, h_xy = repetition_entropies(spec.p_x, spec.p_y_given_x, spec.s_max)
    for s in range(spec.s_max + 1):
        table = repetition_table(spec.p_x, spec.p_y_given_x, s)
        assert h_y[s] == entropy(table.sum(axis=0))
        assert h_xy[s] == entropy(table)
    report = capacity(spec)
    assert np.array_equal(report.per_s, np.maximum(0.0, report.h_x + h_y - h_xy))


def test_mixture_truth_bsc_values():
    truth = mixture_truth(bsc_spec(flip=0.1, p_s=(0.3, 0.4, 0.3)))
    assert truth.p0 == pytest.approx(0.5, abs=1e-12)
    assert truth.p1 == pytest.approx(0.18, abs=1e-12)
    assert truth.q0 == pytest.approx(0.5, abs=1e-12)
    assert truth.q1 == pytest.approx(0.1, abs=1e-12)
    assert truth.alpha_limit == pytest.approx(0.7, abs=1e-12)


def test_mixture_truth_unit_trace_degeneracy():
    spec = unit_trace_cyclic_spec()
    truth = mixture_truth(spec)
    assert truth.q0 == pytest.approx(2 / 3, abs=1e-12)
    assert truth.q1 == pytest.approx(2 / 3, abs=1e-12)
    cyclic = mixture_truth(spec, phi=np.array([2, 3, 1]))
    assert cyclic.q0 == pytest.approx(2 / 3, abs=1e-12)
    assert cyclic.q1 == pytest.approx(1.0, abs=1e-12)


def test_mixture_truth_independent_databases():
    spec = ModelSpec(
        p_x=[0.6, 0.4],
        p_y_given_x=[[0.55, 0.45], [0.55, 0.45]],
        p_s=[0.0, 1.0],
    )
    truth = mixture_truth(spec)
    assert truth.p0 == pytest.approx(truth.p1, abs=1e-12)


def test_mixture_truth_alpha_degenerate():
    truth = mixture_truth(bsc_spec(p_s=(1.0,)))
    assert math.isnan(truth.alpha_limit)


def test_mixing_weight_converges_to_alpha_limit(rng):
    # The fraction of independent adjacent pairs in the distance series
    # approaches (1 - delta) / E[S].
    spec = bsc_spec(p_s=(0.3, 0.3, 0.4))
    limit = mixture_truth(spec).alpha_limit
    assert limit == pytest.approx(0.7 / 1.1, abs=1e-12)
    s = rng.choice([0, 1, 2], size=200_000, p=spec.p_s)
    k = s.sum()
    same_origin = (s - 1).clip(min=0).sum()
    alpha_emp = (k - 1 - same_origin) / (k - 1)
    assert abs(alpha_emp - limit) < 0.01


def test_mixture_truth_matches_monte_carlo(rng):
    spec = symmetric_spec(3, diag=0.5, p_s=(0.2, 0.8))
    truth = mixture_truth(spec, phi=np.array([2, 3, 1]))
    n = 1_000_000
    x = rng.choice([1, 2, 3], size=n, p=spec.p_x)
    x_ind = rng.choice([1, 2, 3], size=n, p=spec.p_x)
    y1 = np.empty(n, dtype=np.int64)
    y2 = np.empty(n, dtype=np.int64)
    for sym in (1, 2, 3):
        mask = x == sym
        y1[mask] = rng.choice([1, 2, 3], size=int(mask.sum()), p=spec.p_y_given_x[sym - 1])
        y2[mask] = rng.choice([1, 2, 3], size=int(mask.sum()), p=spec.p_y_given_x[sym - 1])
    phi = np.array([2, 3, 1])

    def three_sigma(p):
        return 3 * math.sqrt(p * (1 - p) / n)

    mc_p1 = np.mean(y1 != y2)  # replica columns share the input symbol
    assert abs(mc_p1 - truth.p1) <= three_sigma(truth.p1)

    exact = mixture_truth(spec)
    y_ind = y2[rng.permutation(n)]  # decouple the pair
    mc_p0 = np.mean(y1 != y_ind)
    assert abs(mc_p0 - exact.p0) <= three_sigma(exact.p0)

    mc_q1 = np.mean(phi[y1 - 1] != x)
    assert abs(mc_q1 - truth.q1) <= three_sigma(truth.q1)
    mc_q0 = np.mean(phi[y1 - 1] != x_ind)
    assert abs(mc_q0 - truth.q0) <= three_sigma(truth.q0)


def test_mixture_truth_rejects_bad_remapping():
    with pytest.raises(ValueError):
        mixture_truth(bsc_spec(), phi=np.array([1, 1]))


def test_check_table_size_limit():
    assert TABLE_LIMIT == 10**7
    check_table_size(10, 6)  # exactly TABLE_LIMIT cells
    with pytest.raises(ValueError, match=r"10\^8 cells exceeds limit"):
        check_table_size(10, 7)
    with pytest.raises(ValueError, match="repetition count must be nonnegative"):
        check_table_size(2, -1)
    with pytest.raises(ValueError, match=r"2\^24 cells"):
        repetition_table([0.5, 0.5], np.eye(2), 23)
