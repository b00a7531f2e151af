"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. The Monte Carlo criteria use fixed master seeds, so
every run checks the same frozen instances.
"""

import itertools
import math
import time

import numpy as np
import pytest

from dbalign.deletions import detect_deletions
from dbalign.estimation import from_model_spec
from dbalign.experiment import ExperimentConfig, render, run_experiment, run_trial
from dbalign.infotheory import capacity, mixture_truth, repetition_table
from dbalign.matching import deanonymize, match_rows, segment
from dbalign.model import ModelSpec, RepetitionPattern, generate_seeds, sample_instance, substream
from dbalign.replicas import blischke_estimate, detect_replicas

from conftest import bsc_spec, noiseless_spec, symmetric_spec, unit_trace_cyclic_spec
from oracles import unsupported_x
from test_infotheory import brute_force_capacity

# Desk-scale typicality slack for the phase-transition runs: small enough
# to reject impostors at n = 60, large enough that true pairs pass the
# empirical-rate test at these block lengths.
PHASE_EPSILON = 0.3

PHASE_SPEC = bsc_spec(flip=0.1, p_s=(0.0, 1.0))
PHASE_M = 4096
PHASE_SEEDS = 10_000
PHASE_TRIALS = 10


def _report(name, elapsed, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail}; {elapsed:.1f}s)")


def test_criterion_1_deletion_detection_small_instance():
    start = time.time()
    spec = symmetric_spec(4, diag=0.08, p_s=(0.3, 0.7))
    truth = mixture_truth(spec)
    assert truth.q0 == pytest.approx(0.75, abs=1e-12)
    assert truth.q1 == pytest.approx(0.92, abs=1e-12)

    n, num_seeds, trials = 10, 10_000, 100
    hits = 0
    for trial in range(trials):
        rng = substream(101, trial)
        deleted = rng.choice(n, size=3, replace=False)
        s = np.ones(n, dtype=int)
        s[deleted] = 0
        pattern = RepetitionPattern(s)
        seeds = generate_seeds(num_seeds, n, pattern, spec, rng)
        result = detect_deletions(seeds.g1, seeds.g2, alphabet_size=4)
        hits += np.array_equal(result.deleted, np.sort(deleted))
    elapsed = time.time() - start
    assert hits >= 95, f"exact deleted set in only {hits}/{trials} trials"
    assert elapsed < 60.0
    _report("1 fig3-deletion-detection", elapsed, f"{hits}/{trials} exact")


def test_criterion_2_mixture_estimator():
    start = time.time()
    m, samples, trials = 1000, 2000, 100
    hits = 0
    for trial in range(trials):
        rng = substream(202, trial)
        gap = rng.uniform(0.1, 0.4)
        p1 = rng.uniform(0.05, 0.9 - gap)
        p0 = p1 + gap
        alpha = rng.uniform(0.3, 0.7)
        component = rng.random(samples) < alpha
        h = np.where(
            component, rng.binomial(m, p0, samples), rng.binomial(m, p1, samples)
        )
        est = blischke_estimate(h, m)
        hits += abs(est.p0_hat - p0) <= 0.02 and abs(est.p1_hat - p1) <= 0.02
    elapsed = time.time() - start
    assert hits >= 95, f"both parameters recovered in only {hits}/{trials} trials"
    assert elapsed < 10.0
    _report("2 blischke-estimator", elapsed, f"{hits}/{trials} within ±0.02")


def test_criterion_3_replica_detection():
    start = time.time()
    spec = bsc_spec(flip=0.1, p_s=(1 / 3, 1 / 3, 1 / 3))
    m, n, trials = 2000, 100, 100
    hits = 0
    for trial in range(trials):
        pair, _ = sample_instance(m, n, 1, spec, master_seed=303, trial=trial)
        cols = np.repeat(np.arange(n), pair.pattern.s)
        truth = cols[1:] == cols[:-1]
        hits += np.array_equal(detect_replicas(pair.d2), truth)
    elapsed = time.time() - start
    assert hits >= 99, f"all adjacency decisions correct in only {hits}/{trials} trials"
    assert elapsed < 60.0
    _report("3 replica-detection", elapsed, f"{hits}/{trials} fully correct")


def test_criterion_4_capacity_oracle():
    start = time.time()
    channels = {
        2: [np.eye(2), [[0.9, 0.1], [0.1, 0.9]], [[0.6, 0.4], [0.3, 0.7]]],
        3: [[[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]]],
        4: [symmetric_spec(4, diag=0.08, p_s=(0.5, 0.5)).p_y_given_x],
    }
    sources = {
        2: [[0.5, 0.5], [0.8, 0.2]],
        3: [[1 / 3, 1 / 3, 1 / 3]],
        4: [[0.25] * 4, [0.4, 0.3, 0.2, 0.1]],
    }
    repetitions = [
        [1.0],
        [0.0, 1.0],
        [0.3, 0.4, 0.3],
        [0.1, 0.2, 0.3, 0.4],
    ]
    checked = 0
    for size in (2, 3, 4):
        for p_x, chan, p_s in itertools.product(
            sources[size], channels[size], repetitions
        ):
            spec = ModelSpec(p_x=p_x, p_y_given_x=chan, p_s=p_s)
            assert capacity(spec).capacity == pytest.approx(
                brute_force_capacity(spec), abs=1e-9
            )
            checked += 1

    h2 = -(0.1 * math.log2(0.1) + 0.9 * math.log2(0.9))
    bsc_cap = capacity(bsc_spec(flip=0.1, p_s=(0.0, 1.0))).capacity
    assert bsc_cap == pytest.approx(1.0 - h2, abs=1e-9)
    assert bsc_cap == pytest.approx(0.5310, abs=5e-5)
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report("4 capacity-oracle", elapsed, f"{checked} grid specs + closed form")


@pytest.fixture(scope="module")
def achievable_trials():
    """Full-pipeline runs at n=60 (growth rate 0.2 < capacity 0.531)."""
    out = []
    for trial in range(PHASE_TRIALS):
        pair, seeds = sample_instance(
            PHASE_M, 60, PHASE_SEEDS, PHASE_SPEC, master_seed=505, trial=trial
        )
        result = deanonymize(
            pair.d1,
            pair.d2,
            seeds.g1,
            seeds.g2,
            alphabet_size=2,
            epsilon=PHASE_EPSILON,
        )
        out.append((pair, result))
    return out


def test_criterion_5_phase_transition(achievable_trials):
    start = time.time()
    low_errors = [
        result.match.row_error_rate(pair.sigma) if result.match is not None else 1.0
        for pair, result in achievable_trials
    ]

    high_errors = []
    for trial in range(PHASE_TRIALS):
        pair, seeds = sample_instance(
            PHASE_M, 12, PHASE_SEEDS, PHASE_SPEC, master_seed=606, trial=trial
        )
        result = deanonymize(
            pair.d1,
            pair.d2,
            seeds.g1,
            seeds.g2,
            alphabet_size=2,
            epsilon=PHASE_EPSILON,
        )
        high_errors.append(
            result.match.row_error_rate(pair.sigma) if result.match is not None else 1.0
        )
    elapsed = time.time() - start

    assert math.log2(PHASE_M) / 60 < capacity(PHASE_SPEC).capacity  # R = 0.2
    assert math.log2(PHASE_M) / 12 > capacity(PHASE_SPEC).capacity  # R = 1.0
    mean_low, mean_high = np.mean(low_errors), np.mean(high_errors)
    assert mean_low <= 0.1, f"below capacity: mean row error {mean_low:.3f}"
    assert mean_high >= 0.5, f"above capacity: mean row error {mean_high:.3f}"
    assert elapsed < 600.0
    _report(
        "5 phase-transition",
        elapsed,
        f"error {mean_low:.3f} at R=0.2 vs {mean_high:.3f} at R=1.0",
    )


def test_criterion_6_distribution_agnostic_parity(achievable_trials):
    start = time.time()
    truth_est = from_model_spec(PHASE_SPEC)
    plugin_success = []
    truth_success = []
    for pair, result in achievable_trials:
        plugin_err = (
            result.match.row_error_rate(pair.sigma) if result.match is not None else 1.0
        )
        plugin_success.append(1.0 - plugin_err)
        oracle = match_rows(
            pair.d1, segment(pair.d2, pair.pattern), truth_est, PHASE_EPSILON
        )
        truth_success.append(1.0 - oracle.row_error_rate(pair.sigma))
    elapsed = time.time() - start
    gap = abs(np.mean(plugin_success) - np.mean(truth_success))
    assert gap <= 0.05, f"plug-in vs ground-truth success gap {gap:.4f}"
    assert elapsed < 600.0
    _report(
        "6 distribution-agnostic-parity",
        elapsed,
        f"success {np.mean(plugin_success):.3f} plug-in vs {np.mean(truth_success):.3f} truth",
    )


def test_criterion_7_invariant_suites(tmp_path):
    start = time.time()

    # Match equivariance under relabeling of the repeated database's rows.
    spec = bsc_spec(flip=0.1, p_s=(0.0, 1.0))
    est = from_model_spec(spec)
    pair, _ = sample_instance(24, 40, 1, spec, master_seed=707)
    seg = segment(pair.d2, pair.pattern)
    base = match_rows(pair.d1, seg, est, epsilon=PHASE_EPSILON)
    pi = substream(707, 9).permutation(24)
    relabeled_d2 = np.empty_like(pair.d2)
    relabeled_d2[pi] = pair.d2
    relabeled = match_rows(
        pair.d1, segment(relabeled_d2, pair.pattern), est, epsilon=PHASE_EPSILON
    )
    assert np.array_equal(relabeled.assigned[pi], base.assigned)
    assert np.array_equal(relabeled.status[pi], base.status)

    # Row-permutation invariance of both detectors.
    rep_spec = bsc_spec(flip=0.1, p_s=(0.3, 0.4, 0.3))
    rep_pair, rep_seeds = sample_instance(800, 12, 10_000, rep_spec, master_seed=808)
    perm = substream(808, 9).permutation(800)
    assert np.array_equal(
        detect_replicas(rep_pair.d2), detect_replicas(rep_pair.d2[perm])
    )
    starts_perm = substream(808, 10).permutation(10_000)
    dedup = rep_seeds.g2[:, np.flatnonzero(np.concatenate(([True], ~detect_replicas(rep_seeds.g2))))]
    a = detect_deletions(rep_seeds.g1, dedup, alphabet_size=2)
    b = detect_deletions(rep_seeds.g1[starts_perm], dedup[starts_perm], alphabet_size=2)
    assert np.array_equal(a.retained, b.retained)

    # Probability-table validity of pipeline estimates.
    result = deanonymize(
        rep_pair.d1,
        rep_pair.d2,
        rep_seeds.g1,
        rep_seeds.g2,
        alphabet_size=2,
        epsilon=PHASE_EPSILON,
    )
    assert result.estimate is not None
    assert abs(result.estimate.p_x.sum() - 1.0) < 1e-9
    assert abs(result.estimate.p_s.sum() - 1.0) < 1e-9
    for x in range(2):
        if not unsupported_x(result.estimate)[x]:
            assert abs(result.estimate.p_y_given_x[x].sum() - 1.0) < 1e-9
    est = result.estimate
    for s in range(est.s_max + 1):
        table = repetition_table(est.p_x, est.p_y_given_x, s)
        assert np.all(table >= 0.0)
        assert table.sum() <= 1.0 + 1e-9

    # Determinism from the master seed, through the full harness.
    config = ExperimentConfig(
        spec=rep_spec, m=32, n=12, num_seeds=5000, trials=2, master_seed=909, epsilon=0.4
    )
    (tmp_path / "a.csv").write_text(render(run_experiment(config), "csv"))
    (tmp_path / "b.csv").write_text(render(run_experiment(config), "csv"))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    record = run_trial(config, 0, 0)
    again = run_trial(config, 0, 0)
    assert record == again

    elapsed = time.time() - start
    _report("7 invariant-suites", elapsed, "equivariance/invariance/validity/determinism")
