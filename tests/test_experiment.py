import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dbalign import (
    ExperimentConfig,
    InfeasibleSizeError,
    detect_deletions,
    estimate_from_seeds,
    from_model_spec,
    match_rows,
    run_experiment,
    sample_instance,
    segment,
    wilson_interval,
)
from dbalign.deletions import seed_bytes
from dbalign.experiment import (
    CSV_COLUMNS,
    DEFAULT_MEMORY_CAP,
    _estimated_bytes,
    estimate_tv_distance,
    render,
)
from dbalign.matching import match_bytes
from dbalign.model import instance_bytes

from conftest import bsc_spec, noiseless_spec, symmetric_spec, unit_trace_cyclic_spec


def small_config(**overrides):
    base = dict(
        spec=bsc_spec(flip=0.1, p_s=(0.3, 0.7)),
        m=16,
        n=10,
        num_seeds=4000,
        trials=3,
        master_seed=11,
        epsilon=0.4,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


BAD_KNOB_VALUES = [math.nan, math.inf, 0.0, -1.0]


# threshold_constant is no knob: the deletion threshold's constant is fixed.
KNOB_ERRORS = {
    "epsilon": (ValueError, "epsilon must be finite and positive"),
    "threshold_constant": (TypeError, "unexpected keyword argument 'threshold_constant'"),
}


@pytest.mark.parametrize("value", BAD_KNOB_VALUES)
@pytest.mark.parametrize("key", KNOB_ERRORS)
def test_config_rejects_knobs_that_are_not_finite_and_positive(key, value):
    error, message = KNOB_ERRORS[key]
    with pytest.raises(error, match=message):
        small_config(**{key: value})


def test_config_from_dict_names_every_unknown_key():
    d = {**small_config().to_dict(), "epsilonn": 0.3, "threshold_constnat": 2.0}
    with pytest.raises(ValueError, match="keys: 'epsilonn', 'threshold_constnat'$"):
        ExperimentConfig.from_dict(d)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(trials=0)
    with pytest.raises(ValueError):
        small_config(m=0)
    with pytest.raises(ValueError):
        small_config(epsilon=0.0)
    with pytest.raises(ValueError):
        small_config(sweep_axis="k", sweep_values=[1])
    with pytest.raises(ValueError):
        small_config(sweep_axis=None, sweep_values=[4])
    with pytest.raises(ValueError):
        small_config(sweep_axis="n", sweep_values=[0])


def test_config_dict_round_trip():
    config = small_config(sweep_axis="n", sweep_values=[10, 12])
    d = config.to_dict()
    assert d["lambda"] == 4000
    back = ExperimentConfig.from_dict(json.loads(json.dumps(d)))
    assert back.to_dict() == d
    assert back.points() == [(16, 10), (16, 12)]


def test_config_from_json_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config().to_dict()))
    config = ExperimentConfig.from_json_file(path)
    assert config.m == 16 and config.num_seeds == 4000
    with pytest.raises(ValueError):
        bad = small_config().to_dict()
        del bad["m"]
        ExperimentConfig.from_dict(bad)


@pytest.mark.parametrize(
    "key, value",
    [
        ("m", 4096.9),
        ("trials", 2.7),
        ("lambda", "4000"),
        ("workers", True),
        ("master_seed", None),
        ("memory_cap_bytes", float("inf")),
        ("sweep_values", "1234"),
        ("sweep_values", [10, 12.5]),
    ],
)
def test_config_from_dict_rejects_values_that_are_not_whole_numbers(key, value):
    # int() would truncate a fraction and list() would split a string
    # into digits; both must fail instead of running another experiment.
    d = dict(small_config().to_dict(), sweep_axis="n", sweep_values=[10])
    d[key] = value
    with pytest.raises(ValueError, match=key):
        ExperimentConfig.from_dict(d)


def test_config_from_dict_accepts_integral_floats():
    d = dict(small_config().to_dict(), m=32.0, sweep_axis="n", sweep_values=[10.0, 12])
    config = ExperimentConfig.from_dict(d)
    assert config.points() == [(32, 10), (32, 12)]
    assert type(config.m) is int and all(type(v) is int for v in config.sweep_values)


def test_wilson_interval():
    lo, hi = wilson_interval(0, 0)
    assert (lo, hi) == (0.0, 1.0)
    lo, hi = wilson_interval(9, 10)
    # hand-computed Wilson score interval at z = 1.96
    assert lo == pytest.approx(0.5958, abs=2e-4)
    assert hi == pytest.approx(0.9821, abs=2e-4)
    assert wilson_interval(10, 10)[1] == 1.0


def test_trivial_experiment_all_stages_succeed():
    config = ExperimentConfig(
        spec=noiseless_spec(size=2, p_s=(0.0, 1.0)),
        m=16,
        n=20,
        num_seeds=4000,
        trials=1,
        master_seed=3,
        epsilon=0.2,
    )
    report = run_experiment(config)
    assert len(report.points) == 1
    point = report.points[0]
    record = point.trials[0]
    assert record.replica_ok and record.deletion_ok
    assert record.row_error_rate == 0.0
    assert record.failed_stage is None
    assert point.replica_rate == 1.0 and point.deletion_rate == 1.0
    assert record.growth_rate == pytest.approx(math.log2(16) / 20)


def test_emitted_csv_is_deterministic(tmp_path):
    config = small_config()
    for name in ("a.csv", "b.csv"):
        (tmp_path / name).write_text(render(run_experiment(config), "csv"))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_worker_count_does_not_change_results(tmp_path):
    (tmp_path / "w1.csv").write_text(render(run_experiment(small_config(workers=1)), "csv"))
    (tmp_path / "w3.csv").write_text(render(run_experiment(small_config(workers=3)), "csv"))
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w3.csv").read_bytes()


def test_empty_sweep_emits_header_only(tmp_path):
    report = run_experiment(small_config(sweep_axis="n", sweep_values=[]))
    path = tmp_path / "empty.csv"
    path.write_text(render(report, "csv"))
    assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_sweep_rows_and_growth_rates(tmp_path):
    report = run_experiment(
        small_config(trials=2, sweep_axis="n", sweep_values=[10, 12])
    )
    path = tmp_path / "sweep.csv"
    path.write_text(render(report, "csv"))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 4  # 2 points x 2 trials
    rates = {p.n: p.growth_rate for p in report.points}
    assert rates[10] == pytest.approx(0.4)
    assert rates[12] == pytest.approx(math.log2(16) / 12)


def test_m_sweep_runs_each_point_at_its_row_count():
    report = run_experiment(small_config(trials=2, sweep_axis="m", sweep_values=[16, 32]))
    assert [(p.m, p.n) for p in report.points] == [(16, 10), (32, 10)]
    for point in report.points:
        assert len(point.trials) == 2
        assert all(t.m == point.m and t.n == 10 for t in point.trials)
        assert point.growth_rate == pytest.approx(math.log2(point.m) / 10)


def test_aggregates_recomputable_from_trials():
    report = run_experiment(small_config(trials=4))
    for point in report.points:
        assert point.replica_rate == pytest.approx(
            np.mean([t.replica_ok for t in point.trials])
        )
        assert point.deletion_rate == pytest.approx(
            np.mean([t.deletion_ok for t in point.trials])
        )
        assert point.mean_row_error_rate == pytest.approx(
            np.mean([t.row_error_rate for t in point.trials])
        )
        tvs = [t.est_tv for t in point.trials if not math.isnan(t.est_tv)]
        assert point.mean_est_tv == pytest.approx(np.mean(tvs))


def test_json_report_round_trip():
    report = run_experiment(small_config(trials=2))
    loaded = json.loads(render(report, "json"))
    assert list(loaded) == ["config", "points"]
    assert loaded["config"]["lambda"] == 4000
    (point,) = loaded["points"]
    assert list(point) == [
        "m",
        "n",
        "R",
        "capacity",
        "replica_rate",
        "replica_ci",
        "deletion_rate",
        "deletion_ci",
        "mean_est_tv",
        "mean_row_error_rate",
        "trials",
    ]
    assert len(point["trials"]) == 2
    for trial in point["trials"]:
        assert list(trial) == [*CSV_COLUMNS, "failed_stage"]


def test_infeasible_size_rejected_up_front():
    with pytest.raises(InfeasibleSizeError):
        run_experiment(small_config(memory_cap_bytes=1000))


def test_memory_cap_counts_concurrent_trials():
    # Each worker thread holds its own trial's working set.
    config = small_config()
    one_trial = _estimated_bytes(
        config.m, config.n, config.num_seeds, config.spec.s_max, config.spec.alphabet_size
    )
    cap = one_trial * 3 // 2
    with pytest.raises(InfeasibleSizeError, match="2 concurrent"):
        run_experiment(small_config(workers=2, memory_cap_bytes=cap))
    report = run_experiment(small_config(workers=1, memory_cap_bytes=cap))
    assert len(report.points[0].trials) == config.trials


def test_memory_estimate_grows_with_alphabet_size():
    # Deletion detection holds k^2 * n * kt co-occurrence counts and one
    # seed block's one-hots, both growing with the alphabet.
    sizes = [_estimated_bytes(256, 240, 5000, 3, k) for k in (2, 3, 4, 8)]
    assert sizes == sorted(set(sizes))


def _matcher_peak(spec, m, n, epsilon):
    """match_rows' tracemalloc peak on a sampled instance, and its result."""
    pair, _ = sample_instance(m, n, 1, spec, master_seed=7)
    segmented, est = segment(pair.d2, pair.pattern), from_model_spec(spec)
    tracemalloc.start()
    try:
        result = match_rows(pair.d1, segmented, est, epsilon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, result


@pytest.mark.parametrize(
    "spec, m, n",
    [
        (bsc_spec(flip=0.1, p_s=(0.1, 0.5, 0.4)), 256, 60),
        (bsc_spec(flip=0.1, p_s=(0.1, 0.5, 0.4)), 3000, 60),
        (bsc_spec(flip=0.1, p_s=(0.0, 0.0, 1.0)), 4096, 60),
        (symmetric_spec(3, 0.8, (0.1, 0.4, 0.3, 0.2)), 2048, 120),
        (bsc_spec(flip=0.1), 4096, 4),  # narrow: the score tile dominates
        (symmetric_spec(3, 0.8, (0.1, 0.4, 0.3, 0.2)), 2048, 240),  # wide_repeat's shape
    ],
)
def test_memory_estimate_bounds_the_matcher(spec, m, n):
    # The guard is only as truthful as its matcher term: the measured peak,
    # one score tile included, must stay within it.
    peak, _ = _matcher_peak(spec, m, n, 0.3)
    assert peak <= match_bytes(m, n, spec.s_max, spec.alphabet_size)


@pytest.mark.parametrize(
    "spec, m, n",
    [
        (bsc_spec(flip=0.1, p_s=(0.1, 0.5, 0.4)), 3000, 60),
        (bsc_spec(flip=0.1), 4096, 4),
    ],
)
def test_memory_estimate_bounds_the_matcher_when_every_pair_is_a_candidate(spec, m, n):
    # At a wide epsilon every score of every tile is a typical candidate,
    # the matcher's worst case: each tile then lists all of its pairs.
    peak, result = _matcher_peak(spec, m, n, 5.0)
    assert result.status_counts()["ambiguous"] == m
    assert peak <= match_bytes(m, n, spec.s_max, spec.alphabet_size)


@pytest.mark.parametrize(
    "spec, m, n, num_seeds",
    [
        (bsc_spec(flip=0.1, p_s=(0.1, 0.5, 0.4)), 8192, 60, 10_000),  # paper_bsc
        (unit_trace_cyclic_spec((0.3, 0.7)), 1024, 60, 30_000),  # remap_sweep
        (symmetric_spec(3, 0.8, (0.1, 0.4, 0.3, 0.2)), 2048, 240, 5000),  # wide_repeat
        (bsc_spec(flip=0.1, p_s=(0.1, 0.9)), 1024, 60, 200_000),
    ],
)
def test_memory_estimate_bounds_the_generator(spec, m, n, num_seeds):
    # The instance term must cover the generator's transient uniforms and
    # positions, not only the arrays it keeps.
    tracemalloc.start()
    try:
        sample_instance(m, n, num_seeds, spec, master_seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= instance_bytes(m, n, num_seeds, spec.s_max)


def _traced_peak(call):
    """``call()``'s result and the tracemalloc peak it reached."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "spec, n, num_seeds",
    [
        (bsc_spec(flip=0.1, p_s=(0.1, 0.5, 0.4)), 60, 10_000),  # paper_bsc
        (unit_trace_cyclic_spec((0.3, 0.7)), 60, 30_000),  # remap_sweep
        (symmetric_spec(3, 0.8, (0.1, 0.4, 0.3, 0.2)), 240, 5000),  # wide_repeat
        (symmetric_spec(8, 0.6, (0.0, 1.0)), 60, 5000),  # 8! remappings, kt = n
    ],
)
def test_memory_estimate_bounds_the_seed_stages(spec, n, num_seeds):
    # The seed term must cover deletion detection (the co-occurrence GEMM,
    # the rebuilt counts and the remapping sweep) and the plug-in estimate,
    # each measured on its own from the replica-free seeds.
    pair, seeds = sample_instance(16, n, num_seeds, spec, master_seed=7)
    s = pair.pattern.s
    g2_free = seeds.g2[:, (np.cumsum(s) - s)[s > 0]]
    k = spec.alphabet_size
    retention, detect_peak = _traced_peak(lambda: detect_deletions(seeds.g1, g2_free, k))
    _, estimate_peak = _traced_peak(
        lambda: estimate_from_seeds(seeds.g1, retention, pair.pattern, k)
    )
    assert detect_peak <= seed_bytes(n, num_seeds, k)
    assert estimate_peak <= seed_bytes(n, num_seeds, k)


def test_paper_scale_fits_default_cap_at_m_2_16():
    # The matcher's working set is linear in m, so the paper's binary model
    # at n=60 and 10^4 seeds fits the default cap on one worker at m=2^16.
    assert _estimated_bytes(2**16, 60, 10_000, 2, 2) <= DEFAULT_MEMORY_CAP


def test_render_unknown_format():
    report = run_experiment(small_config(trials=1))
    with pytest.raises(ValueError, match="unknown report format 'xml'"):
        render(report, "xml")


def test_estimate_tv_distance_scale():
    spec = bsc_spec(flip=0.1, p_s=(0.0, 1.0))
    assert estimate_tv_distance(spec, from_model_spec(spec)) == pytest.approx(0.0, abs=1e-12)
    other = bsc_spec(flip=0.2, p_s=(0.0, 1.0))
    assert estimate_tv_distance(spec, from_model_spec(other)) == pytest.approx(0.1, abs=1e-12)


def test_sweep_error_rate_decreases_across_capacity():
    # Growth rates 1.0, 0.6, 0.4, 0.2 against capacity 0.531: the mean
    # row error rate falls monotonically as the rate crosses below it.
    config = ExperimentConfig(
        spec=bsc_spec(flip=0.1, p_s=(0.0, 1.0)),
        m=4096,
        n=60,
        num_seeds=10_000,
        trials=3,
        master_seed=42,
        epsilon=0.3,
        sweep_axis="n",
        sweep_values=[12, 20, 30, 60],
    )
    report = run_experiment(config)
    errors = [p.mean_row_error_rate for p in report.points]
    assert all(a >= b for a, b in zip(errors, errors[1:]))
    assert errors[0] >= 0.5  # well above capacity
    assert errors[-1] <= 0.1  # well below capacity


def test_two_column_trial_is_recorded_not_raised():
    # Trial 0 draws pattern [2, 0, 0], whose single adjacent distance
    # shows no replicas, so deletion detection sees both copies; trials 1
    # and 2 have too few distances to show their replica, and more runs
    # than original columns.
    config = ExperimentConfig(
        spec=bsc_spec(flip=0.1, p_s=(0.3, 0.3, 0.4)),
        m=64,
        n=3,
        num_seeds=2000,
        trials=3,
        master_seed=5,
        epsilon=0.3,
    )
    records = run_experiment(config).points[0].trials
    assert [r.failed_stage for r in records] == ["deletion", "replica", "replica"]
    assert all(r.row_error_rate == 1.0 for r in records)


@pytest.mark.parametrize("m", [1, 2])
def test_too_few_rows_trial_is_recorded_not_raised(m):
    # Fewer than 3 database rows cannot feed the replica estimator's
    # three factorial moments.
    config = ExperimentConfig(
        spec=bsc_spec(flip=0.1, p_s=(0.1, 0.5, 0.4)),
        m=m,
        n=10,
        num_seeds=3000,
        trials=2,
        master_seed=1,
        epsilon=0.3,
    )
    records = run_experiment(config).points[0].trials
    assert [r.failed_stage for r in records] == ["replica", "replica"]
    assert all(r.row_error_rate == 1.0 for r in records)


def test_infeasible_joint_table_rejected_up_front():
    spec = symmetric_spec(10, 0.5, (0.1,) * 10)  # 10^10 cells at s_max = 9
    with pytest.raises(InfeasibleSizeError, match="cells exceeds limit"):
        run_experiment(small_config(spec=spec))


def test_failed_trials_count_as_full_error():
    # Independent channel: deletion detection cannot work; the harness
    # records the stage and a worst-case row error rather than aborting.
    from dbalign import ModelSpec

    config = ExperimentConfig(
        spec=ModelSpec(
            p_x=[0.5, 0.5],
            p_y_given_x=[[0.7, 0.3], [0.7, 0.3]],
            p_s=[0.3, 0.7],
        ),
        m=8,
        n=10,
        num_seeds=500,
        trials=2,
        master_seed=5,
    )
    report = run_experiment(config)
    for record in report.points[0].trials:
        assert record.failed_stage == "deletion"
        assert record.row_error_rate == 1.0
        assert math.isnan(record.est_tv)
        assert not record.deletion_ok
    assert math.isnan(report.points[0].mean_est_tv)


GOLDEN = Path(__file__).parent / "golden"

# (spec, m, n, lambda) of each committed report; every run uses master
# seed 7, 3 trials, epsilon 0.3 and 2 workers.
GOLDEN_CONFIGS = {
    "bsc": (bsc_spec(flip=0.1, p_s=(0.1, 0.5, 0.4)), 512, 60, 10_000),
    "cyclic": (unit_trace_cyclic_spec((0.3, 0.7)), 256, 60, 30_000),
    "ternary": (symmetric_spec(3, 0.8, (0.1, 0.4, 0.3, 0.2)), 256, 120, 5000),
    "deleted": (bsc_spec(flip=0.1, p_s=(1.0, 0.0)), 16, 6, 2000),
}


def _golden_report(name):
    spec, m, n, num_seeds = GOLDEN_CONFIGS[name]
    config = ExperimentConfig(
        spec=spec, m=m, n=n, num_seeds=num_seeds, trials=3, master_seed=7, epsilon=0.3, workers=2
    )
    return run_experiment(config)


@pytest.mark.parametrize("name", GOLDEN_CONFIGS)
def test_report_csv_is_byte_identical_to_committed(name):
    # A refactor that keeps the arithmetic keeps every byte of the report;
    # a change that alters a figure must regenerate the file on purpose.
    expected = (GOLDEN / f"report_{name}.csv").read_text()
    assert render(_golden_report(name), "csv") == expected


def test_report_json_is_byte_identical_to_committed():
    # The JSON report also carries the config, the per-point summaries and
    # each trial's failed stage, so one configuration is pinned in it too.
    expected = (GOLDEN / "report_bsc.json").read_text()
    assert render(_golden_report("bsc"), "json") == expected
