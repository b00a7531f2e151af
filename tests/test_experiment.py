import json
import math

import numpy as np
import pytest

from dbalign import (
    ExperimentConfig,
    InfeasibleSizeError,
    emit,
    from_model_spec,
    run_experiment,
    wilson_interval,
)
from dbalign.experiment import (
    CSV_COLUMNS,
    _estimated_bytes,
    estimate_tv_distance,
    report_from_dict,
)

from conftest import bsc_spec, noiseless_spec


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
        emit(run_experiment(config), "csv", tmp_path / name)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_worker_count_does_not_change_results(tmp_path):
    emit(run_experiment(small_config(workers=1)), "csv", tmp_path / "w1.csv")
    emit(run_experiment(small_config(workers=3)), "csv", tmp_path / "w3.csv")
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w3.csv").read_bytes()


def test_empty_sweep_emits_header_only(tmp_path):
    report = run_experiment(small_config(sweep_axis="n", sweep_values=[]))
    path = tmp_path / "empty.csv"
    emit(report, "csv", path)
    assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_sweep_rows_and_growth_rates(tmp_path):
    report = run_experiment(
        small_config(trials=2, sweep_axis="n", sweep_values=[10, 12])
    )
    path = tmp_path / "sweep.csv"
    emit(report, "csv", path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 4  # 2 points x 2 trials
    rates = {p.n: p.growth_rate for p in report.points}
    assert rates[10] == pytest.approx(0.4)
    assert rates[12] == pytest.approx(math.log2(16) / 12)


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


def test_json_report_round_trip(tmp_path):
    report = run_experiment(small_config(trials=2))
    path = tmp_path / "report.json"
    emit(report, "json", path)
    loaded = report_from_dict(json.loads(path.read_text()))
    path2 = tmp_path / "report2.json"
    emit(loaded, "json", path2)
    assert path.read_bytes() == path2.read_bytes()
    assert loaded.config["lambda"] == 4000


def test_infeasible_size_rejected_up_front():
    with pytest.raises(InfeasibleSizeError):
        run_experiment(small_config(memory_cap_bytes=1000))


def test_memory_cap_counts_concurrent_trials():
    # Each worker thread holds its own trial's working set.
    config = small_config()
    one_trial = _estimated_bytes(config.m, config.n, config.num_seeds, config.spec.s_max)
    cap = one_trial * 3 // 2
    with pytest.raises(InfeasibleSizeError, match="2 concurrent"):
        run_experiment(small_config(workers=2, memory_cap_bytes=cap))
    report = run_experiment(small_config(workers=1, memory_cap_bytes=cap))
    assert len(report.points[0].trials) == config.trials


def test_emit_unknown_format_and_io_error(tmp_path):
    report = run_experiment(small_config(trials=1))
    with pytest.raises(ValueError):
        emit(report, "xml", tmp_path / "nope")
    with pytest.raises(OSError, match="missing-dir"):
        emit(report, "csv", tmp_path / "missing-dir" / "out.csv")


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
