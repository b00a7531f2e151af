import csv
import hashlib
import importlib
import itertools
import json
import math
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dbalign import deletions, experiment, fanout, matching, model
from dbalign.cli import main
from dbalign.dbio import load_json_object, model_spec_from_dict, model_spec_to_dict
from dbalign.deletions import MIN_COLUMNS, SEED_BLOCK, THRESHOLD_CONSTANT, detect_deletions, seed_bytes
from dbalign.estimation import estimate_from_seeds, from_model_spec
from dbalign.experiment import (
    CONFIG_FIELDS,
    CSV_COLUMNS,
    DEFAULT_MEMORY_CAP,
    ExperimentConfig,
    InfeasibleSizeError,
    _estimated_bytes,
    check_memory,
    estimate_tv_distance,
    render,
    run_experiment,
    wilson_interval,
)
from dbalign.infotheory import capacity, mixture_truth
from dbalign.matching import match_bytes, match_rows, segment
from dbalign.model import ROLE_PATTERN, draw_pattern, instance_bytes, sample_instance, substream

from conftest import bsc_spec, noiseless_spec, symmetric_spec, unit_trace_cyclic_spec
from oracles import pattern_min_distance_row_error, typicality_row_error


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
    with pytest.raises(ValueError, match="worker count must be positive"):
        small_config(workers=0)
    # A negative seed would fail mid-run inside numpy, and a cap of no
    # bytes would read as an infeasible size; both are config errors.
    with pytest.raises(ValueError, match="master_seed >= 0"):
        small_config(master_seed=-1)
    for cap in (0, -1):
        with pytest.raises(ValueError, match="memory_cap_bytes >= 1"):
            small_config(memory_cap_bytes=cap)


@pytest.mark.parametrize(
    "overrides, key",
    [
        pytest.param(dict(m=True), "m", id="overrides1-m"),
        pytest.param(dict(num_seeds="4000"), "lambda", id="overrides2-lambda"),
        pytest.param(dict(trials=True), "trials", id="overrides3-trials"),
        pytest.param(dict(master_seed=1.5), "master_seed", id="overrides5-master_seed"),
        pytest.param(dict(sweep_axis="m", sweep_values=[16, False]), "sweep_values",
                     id="overrides8-sweep_values"),
    ],
)
def test_config_rejects_integer_fields_of_another_type(overrides, key):
    # A direct construction is checked like a config file: a fraction,
    # string or bool would otherwise fail only at the first trial.
    with pytest.raises(ValueError, match=f"^{key} must be an integer, got "):
        small_config(**overrides)


@pytest.mark.parametrize(
    "overrides, name, value",
    [
        (dict(n=10.0), "n", 10),
        (dict(workers=2.0), "workers", 2),
        (dict(memory_cap_bytes=2e9), "memory_cap_bytes", 2 * 10**9),
        (dict(sweep_axis="n", sweep_values=[10.0]), "sweep_values", [10]),
    ],
    ids=["n", "workers", "memory_cap_bytes", "sweep_values"],
)
def test_config_reads_an_integral_float_as_an_int(overrides, name, value):
    # As in a config file, 10.0 is the whole number 10, stored as an int
    # before any trial runs, where numpy would refuse a float size.
    config = small_config(**overrides)
    assert getattr(config, name) == value and type(getattr(config, name)) is type(value)
    assert all(type(v) is int for v in config.sweep_values)


INTEGER_KEYS = ("m", "n", "lambda", "trials", "master_seed", "workers", "memory_cap_bytes")


def _built_directly(d):
    """``d``'s config from the constructor, each key's value as given."""
    values = {f.name: d[key] for f, key in CONFIG_FIELDS if key in d}
    return ExperimentConfig(spec=model_spec_from_dict(d), **values)


def _result_or_message(call, *args, **kwargs):
    """What ``call`` returns, or the message of the ValueError it raises."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "value",
    [10, 10.0, np.int64(10), np.float64(10.0), 10.5, True, "10", None, math.inf, math.nan,
     np.float64(math.inf)],
    ids=repr,
)
@pytest.mark.parametrize("key", [*INTEGER_KEYS, "sweep_values"])
def test_config_file_and_constructor_read_an_integer_alike(key, value):
    d = small_config().to_dict()
    if key == "sweep_values":
        d.update(sweep_axis="n", sweep_values=[value])
    else:
        d[key] = value
    from_file = _result_or_message(ExperimentConfig.from_dict, d)
    direct = _result_or_message(_built_directly, d)
    if isinstance(from_file, str):
        assert from_file == direct
        assert from_file.startswith(f"{key} must be an integer, got ")
        return
    assert isinstance(direct, ExperimentConfig)
    assert from_file.to_dict() == direct.to_dict()
    for config in (from_file.to_dict(), direct.to_dict()):
        assert all(type(config[k]) is int for k in INTEGER_KEYS)
        assert all(type(v) is int for v in config["sweep_values"])


@pytest.mark.parametrize("value", [True, "0.3", None, math.nan, math.inf, 0, -1], ids=repr)
def test_config_file_constructor_and_deanonymize_reject_an_epsilon_alike(value):
    d = {**small_config().to_dict(), "epsilon": value}
    spec = bsc_spec(flip=0.1, p_s=(0.2, 0.5, 0.3))
    pair, seeds = sample_instance(32, 12, 5000, spec, master_seed=1)
    messages = [
        _result_or_message(ExperimentConfig.from_dict, d),
        _result_or_message(_built_directly, d),
        _result_or_message(matching.deanonymize, pair.d1, pair.d2, seeds.g1, seeds.g2,
                           alphabet_size=2, epsilon=value),
    ]
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    expected = "epsilon must be finite and positive" if real else "epsilon must be a real number, got "
    assert messages == [messages[0]] * 3 and messages[0].startswith(expected)


def test_config_takes_a_numpy_or_integer_epsilon_as_a_float():
    for value in (np.float32(0.5), 1):
        config = small_config(epsilon=value)
        assert type(config.epsilon) is float and config.epsilon == float(value)


def test_config_takes_numpy_integers_as_ints():
    config = small_config(m=np.int64(16), sweep_axis="n", sweep_values=[np.uint8(10)])
    assert type(config.m) is int and [type(v) for v in config.sweep_values] == [int]
    assert json.loads(json.dumps(config.to_dict()))["m"] == 16


@pytest.mark.parametrize(
    "overrides",
    [
        dict(n=2),
        dict(n=2, sweep_axis="m", sweep_values=[16, 32]),
        dict(sweep_axis="n", sweep_values=[10, 2]),
        dict(n=2, sweep_axis="n", sweep_values=[10, 12]),
    ],
    ids=["n", "m sweep", "n sweep", "n under an n sweep"],
)
def test_config_rejects_fewer_than_three_columns_at_any_point(overrides):
    # Deletion detection needs MIN_COLUMNS original columns, so every trial
    # of such a point would raise; the config refuses it up front.
    with pytest.raises(ValueError, match=f"n >= {MIN_COLUMNS} at each point"):
        small_config(**overrides)


def test_config_dict_round_trip():
    config = small_config(sweep_axis="n", sweep_values=[10, 12])
    d = config.to_dict()
    assert d["lambda"] == 4000
    back = ExperimentConfig.from_dict(json.loads(json.dumps(d)))
    assert back.to_dict() == d
    assert [(p.m, p.n) for p in back.points()] == [(16, 10), (16, 12)]


def test_config_from_json_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_config().to_dict()))
    config = ExperimentConfig.from_dict(load_json_object(path))
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
    assert [(p.m, p.n) for p in config.points()] == [(32, 10), (32, 12)]
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
    # 5 trials over 3 workers make parts of unequal sizes, whose records
    # still come back in trial order.
    for trials in (3, 5):
        serial = run_experiment(small_config(workers=1, trials=trials))
        fanned = run_experiment(small_config(workers=3, trials=trials))
        assert [r.trial for r in fanned.points[0].trials] == list(range(trials))
        (tmp_path / "w1.csv").write_text(render(serial, "csv"))
        (tmp_path / "w3.csv").write_text(render(fanned, "csv"))
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w3.csv").read_bytes()


@pytest.fixture
def blas():
    """(get, set) of numpy's OpenBLAS thread count, restored after the test."""
    found = fanout.openblas_threads()
    if found is None:
        pytest.skip("numpy's OpenBLAS was not found under a known name")
    get, put = found
    before = get()
    yield found
    put(before)


def _record_blas_threads(monkeypatch, get) -> list:
    """(BLAS thread count, thread budget) seen at the start of each trial,
    in start order."""
    seen = []
    trial = experiment.run_trial

    def recorded(config, point, i):
        seen.append((get(), fanout.threads()))
        return trial(config, point, i)

    monkeypatch.setattr(experiment, "run_trial", recorded)
    return seen


@pytest.mark.parametrize(
    "workers, trials, budget",
    [(2, 2, 2), (4, 3, 1), (3, 5, 1), (4, 1, 4), (1, 3, 4)],
)
def test_blas_is_capped_while_trials_run_at_once(blas, monkeypatch, workers, trials, budget):
    # BLAS runs one thread while the trials run, one at a time or not, and
    # its 4 threads are shared out as budgets over min(workers, trials)
    # concurrent trials.
    get, put = blas
    put(4)
    seen = _record_blas_threads(monkeypatch, get)
    run_experiment(small_config(workers=workers, trials=trials))
    assert seen == [(1, budget)] * trials
    assert get() == 4 and fanout.threads() == 1


@pytest.mark.parametrize("workers, budget", [(1, 4), (2, 2), (4, 1)])
def test_the_guard_sizes_each_trial_at_the_budget_it_runs_at(blas, monkeypatch, workers, budget):
    # The memory bounds read the budget as the stages they bound do, so the
    # guard's instance and seed terms count the parts that the sampler and
    # deletion detection split into in the trials.
    _, put = blas
    put(4)
    seen = {}

    def record(module, name):
        call = getattr(module, name)

        def recorded(*args, **kwargs):
            seen.setdefault(name, set()).add(fanout.threads())
            return call(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)

    called = ["instance_bytes", "seed_bytes", "sample_instance", "detect_deletions"]
    for module, name in zip([experiment, deletions, experiment, deletions], called):
        record(module, name)
    run_experiment(small_config(workers=workers, trials=3))
    assert seen == dict.fromkeys(called, {budget})


def _fails_once(monkeypatch):
    """Make trial 1 of every point raise RuntimeError."""
    trial = experiment.run_trial

    def fails_once(config, point, i):
        if i == 1:
            raise RuntimeError("trial 1 failed")
        return trial(config, point, i)

    monkeypatch.setattr(experiment, "run_trial", fails_once)


def test_blas_count_is_restored_when_a_trial_raises(blas, monkeypatch):
    get, put = blas
    put(4)
    _fails_once(monkeypatch)
    with pytest.raises(RuntimeError, match="trial 1 failed"):
        run_experiment(small_config(workers=2, trials=3))
    assert get() == 4 and fanout.threads() == 1


def test_blas_count_and_budget_are_restored_when_a_one_worker_run_raises(blas, monkeypatch):
    # One worker runs its trials on the calling thread, which holds the
    # whole budget while they run.
    get, put = blas
    put(4)
    _fails_once(monkeypatch)
    with pytest.raises(RuntimeError, match="trial 1 failed"):
        run_experiment(small_config(workers=1, trials=3))
    assert get() == 4 and fanout.threads() == 1


def test_blas_count_is_restored_after_nested_calls(blas, monkeypatch):
    get, put = blas
    put(4)
    inner = []
    trial = experiment.run_trial

    def nests(config, point, i):
        if config.trials == 2 and i == 0:  # an outer trial runs an inner experiment
            run_experiment(small_config(workers=2, trials=3))
        elif config.trials == 3:
            inner.append((get(), fanout.threads()))
        return trial(config, point, i)

    monkeypatch.setattr(experiment, "run_trial", nests)
    run_experiment(small_config(workers=2, trials=2))
    # The inner call shares out the saved 4, not the outer pin of 1.
    assert inner == [(1, 2)] * 3
    assert get() == 4


def test_blas_count_is_restored_after_concurrent_calls(blas, monkeypatch):
    # Three experiments of two trial threads each, switching often; each
    # holds its first trial until all three are inside the cap, so that
    # their saves and restores interleave.
    get, put = blas
    put(4)
    inside = threading.Barrier(3, timeout=30)
    trial = experiment.run_trial

    def meets(config, point, i):
        if i == 0:
            inside.wait()
        return trial(config, point, i)

    monkeypatch.setattr(experiment, "run_trial", meets)
    errors = []

    def one_experiment():
        try:
            run_experiment(small_config(workers=2, trials=3))
        except Exception as exc:  # noqa: BLE001 - reported by the assert below
            errors.append(exc)

    threads = [threading.Thread(target=one_experiment) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert get() == 4


def test_one_trial_runs_serially_with_blas_pinned_and_the_whole_budget(blas, monkeypatch):
    get, put = blas
    put(4)
    here, ran_on = threading.get_ident(), []
    trial = experiment.run_trial

    def recorded(config, point, i):
        ran_on.append(threading.get_ident())
        return trial(config, point, i)

    monkeypatch.setattr(experiment, "run_trial", recorded)
    seen = _record_blas_threads(monkeypatch, get)
    report = run_experiment(small_config(workers=4, trials=1))
    assert len(report.points[0].trials) == 1 and ran_on == [here]
    assert seen == [(1, 4)] and get() == 4


def test_without_openblas_the_thread_count_is_untouched(blas, monkeypatch):
    # Without the library there is no count to share, so every budget is 1.
    get, put = blas
    put(4)
    seen = _record_blas_threads(monkeypatch, get)
    monkeypatch.setattr(fanout, "openblas_threads", lambda: None)
    for workers, trials in ((2, 2), (1, 1)):
        run_experiment(small_config(workers=workers, trials=trials))
    assert seen == [(4, 1)] * 3 and get() == 4


def test_openblas_lookup_without_a_known_library_finds_none(monkeypatch):
    monkeypatch.setattr(fanout, "OPENBLAS_NAMES", (("libnothing*.so*", "get", "set"),))
    assert fanout.openblas_threads.__wrapped__() is None


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


def test_lambda_sweep_runs_each_point_at_its_seed_count():
    config = small_config(trials=2, sweep_axis="lambda", sweep_values=[2000, 4000])
    report = run_experiment(config)
    assert len(report.points) == 2
    for num_seeds, point in zip(config.sweep_values, report.points):
        assert [t.to_dict()["lambda"] for t in point.trials] == [num_seeds, num_seeds]


def test_memory_guard_sizes_each_lambda_point(monkeypatch):
    # The seed stages grow with lambda, so a lambda sweep is sized point by
    # point: the first point fits the cap, the last does not.
    config = small_config()
    lambdas = [100, 1_000_000]
    first, last = (
        _estimated_bytes(config.m, config.n, v, config.spec.s_max, config.spec.alphabet_size)
        for v in lambdas
    )
    assert first < last
    ran = []
    monkeypatch.setattr(experiment, "run_trial", lambda *args: ran.append(args))
    cap = first * 3 // 2  # the guard's half again as slack
    swept = small_config(sweep_axis="lambda", sweep_values=lambdas, memory_cap_bytes=cap)
    with pytest.raises(InfeasibleSizeError, match=f"lambda={lambdas[-1]} needs"):
        run_experiment(swept)
    assert ran == []


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
    cap = (one_trial * 3 // 2) * 3 // 2  # half again over the guard's own slack
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
        # one symbol: the GEMM is 2 wide, so a float64 gather by ids is the
        # largest per-row array
        (noiseless_spec(size=1, p_s=(0.1, 0.5, 0.4), p_x=[1.0]), 4096, 60),
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
        (symmetric_spec(3, 0.8, (0.1, 0.4, 0.3, 0.2)), 2048, 120),
        (symmetric_spec(3, 0.8, (0.1, 0.4, 0.3, 0.2)), 2048, 240),  # wide_repeat's shape
        (symmetric_spec(5, 0.6, (0.1, 0.4, 0.3, 0.2)), 2048, 60),
    ],
)
def test_memory_estimate_bounds_the_matcher_when_every_pair_is_a_candidate(spec, m, n):
    # At a wide epsilon every score of every tile is a typical candidate,
    # the matcher's worst case: each tile then lists all of its pairs. The
    # bound counts the matcher's peak phase, so it stays within 2x of the
    # peak; a reorder of its allocations that moves the peak fails one side
    # or the other.
    peak, result = _matcher_peak(spec, m, n, 5.0)
    assert result.status_counts()["ambiguous"] == m
    assert peak <= match_bytes(m, n, spec.s_max, spec.alphabet_size) <= 2 * peak


def test_matcher_bound_grows_per_row_as_the_peak_does():
    # The guard's matcher term charges each added row what the peak phase
    # holds for it: at least the measured growth, and at most a quarter
    # more, so that it admits every m that fits.
    spec = bsc_spec(flip=0.1, p_s=(0.1, 0.5, 0.4))  # the paper model
    (low, _), (high, _) = (_matcher_peak(spec, m, 60, 0.3) for m in (2**13, 2**14))
    charged = match_bytes(2**14, 60, spec.s_max, 2) - match_bytes(2**13, 60, spec.s_max, 2)
    assert high - low <= charged <= 1.25 * (high - low)


def _screen_arguments(spec, m, n):
    """The arguments `match_rows` passes `_screen` on a sampled instance."""
    pair, _ = sample_instance(m, n, 1, spec, master_seed=7)
    calls, screen = [], matching._screen
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matching, "_screen", lambda *args: calls.append(args) or screen(*args))
        match_rows(pair.d1, segment(pair.d2, pair.pattern), from_model_spec(spec), 0.3)
    (args,) = calls
    return args


@pytest.mark.parametrize(
    "spec, m, n",
    [
        (bsc_spec(flip=0.1, p_s=(0.1, 0.5, 0.4)), 4096, 60),  # the paper model
        (symmetric_spec(3, 0.8, (0.1, 0.4, 0.3, 0.2)), 2048, 240),  # wide_repeat's shape
        (symmetric_spec(5, 0.6, (0.1, 0.4, 0.3, 0.2)), 2048, 60),
    ],
)
def test_screen_holds_nothing_per_row_beyond_its_operands(spec, m, n):
    # The screen sums each row's rounding scale once per distinct run and
    # gathers it by ids before it allocates its operands, so it holds no
    # array of the GEMM's width besides ``a`` and ``b``: above its inputs it
    # peaks at the larger of the operands and one float64 gather by ids,
    # plus per-row vectors and a few arrays the size of the run table.
    args = _screen_arguments(spec, m, n)
    table, ids = args[:2]
    (a, b, _, _), peak = _traced_peak(lambda: matching._screen(*args))
    assert peak <= max(a.nbytes + b.nbytes, 8 * ids.size) + 64 * m + 2 * table.nbytes


GENERATOR_SIZES = [
    (bsc_spec(flip=0.1, p_s=(0.1, 0.5, 0.4)), 8192, 60, 10_000),  # paper_bsc
    (unit_trace_cyclic_spec((0.3, 0.7)), 1024, 60, 30_000),  # remap_sweep
    (symmetric_spec(3, 0.8, (0.1, 0.4, 0.3, 0.2)), 2048, 240, 5000),  # wide_repeat
    (bsc_spec(flip=0.1, p_s=(0.1, 0.9)), 1024, 60, 200_000),
    # one source symbol, every column at s_max: the channel resamples every
    # entry at once, beside sigma, its mask and its drawn symbols
    (bsc_spec(flip=0.1, p_s=(0.0, 0.0, 1.0), p_x=(1.0, 0.0)), 20_000, 8, 10),
]


@pytest.mark.parametrize("spec, m, n, num_seeds", GENERATOR_SIZES)
def test_memory_estimate_bounds_the_generator(spec, m, n, num_seeds):
    # The instance term must cover the generator's transient uniforms and
    # positions, not only the arrays it keeps, and count nothing it no
    # longer holds, so that the guard refuses no size that fits. A first
    # small call imports what numpy.random loads lazily, outside the trace.
    sample_instance(16, n, 1, spec, master_seed=7)
    tracemalloc.start()
    try:
        sample_instance(m, n, num_seeds, spec, master_seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= instance_bytes(m, n, num_seeds, spec.s_max) <= 2 * peak


@pytest.mark.parametrize("budget", [2, 3])
@pytest.mark.parametrize("spec, m, n, num_seeds", GENERATOR_SIZES)
def test_memory_estimate_bounds_the_split_generator(spec, m, n, num_seeds, budget):
    # Each part of a split draw fills its share of one uniform array, and
    # each part of a split channel holds its own chunk buffers and
    # positions; the tracemalloc peak counts the allocations of every thread.
    sample_instance(16, n, 1, spec, master_seed=7)
    with fanout.budget(budget):
        _, peak = _traced_peak(lambda: sample_instance(m, n, num_seeds, spec, master_seed=7))
        assert peak <= instance_bytes(m, n, num_seeds, spec.s_max) <= 2 * peak


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
        lambda: estimate_from_seeds(retention, pair.pattern)
    )
    assert detect_peak <= seed_bytes(n, num_seeds, k) <= 2 * detect_peak
    assert estimate_peak <= seed_bytes(n, num_seeds, k)


@pytest.mark.parametrize("budget", [2, 3])
def test_memory_estimate_bounds_the_split_stages(monkeypatch, budget):
    # Each part of a split co-occurrence holds its own seed block operands
    # and accumulator, and each row part of a split matcher its own tile
    # and mask; the tracemalloc peak counts the allocations of every thread.
    # Every pair is a candidate, the matcher's worst case.
    spec = bsc_spec(flip=0.1, p_s=(0.1, 0.5, 0.4))
    m, n, num_seeds, k = 3000, 60, 3 * SEED_BLOCK, spec.alphabet_size
    monkeypatch.setattr(matching, "MATCH_PART", m // budget)
    pair, seeds = sample_instance(m, n, num_seeds, spec, master_seed=7)
    s = pair.pattern.s
    g2_free = seeds.g2[:, (np.cumsum(s) - s)[s > 0]]
    segmented, est = segment(pair.d2, pair.pattern), from_model_spec(spec)
    with fanout.budget(budget):
        _, detect_peak = _traced_peak(lambda: detect_deletions(seeds.g1, g2_free, k))
        result, match_peak = _traced_peak(lambda: match_rows(pair.d1, segmented, est, 5.0))
        split_bound = seed_bytes(n, num_seeds, k)
    assert result.status_counts()["ambiguous"] == m
    assert seed_bytes(n, num_seeds, k) < detect_peak <= split_bound
    assert match_peak <= match_bytes(m, n, spec.s_max, k)


def test_paper_scale_fits_default_cap_at_m_2_16():
    # The matcher's working set is linear in m, so the paper's binary model
    # at n=60 and 10^4 seeds fits the default cap on one worker at m=2^16,
    # and at m=2^18 and 2^19 on a budget of 1 or 2.
    for m, budget in [(2**16, 1), (2**18, 1), (2**18, 2), (2**19, 1), (2**19, 2)]:
        with fanout.budget(budget):
            working_set = _estimated_bytes(m, 60, 10_000, 2, 2)
        check_memory(f"m={m} budget={budget}", working_set, DEFAULT_MEMORY_CAP)


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
    from dbalign.model import ModelSpec

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


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_json_report_writes_an_unscored_estimate_as_null():
    # Both trials fail at the replica stage, so neither scores an estimate:
    # the CSV keeps nan, and the JSON writes null, which strict JSON parsers
    # accept.
    report = run_experiment(small_config(m=2, n=10, num_seeds=50, trials=2))
    assert [r.failed_stage for r in report.points[0].trials] == ["replica", "replica"]
    point = json.loads(render(report, "json"), parse_constant=_reject_constant)["points"][0]
    assert point["mean_est_tv"] is None
    assert [t["est_tv"] for t in point["trials"]] == [None, None]
    rows = [line.split(",") for line in render(report, "csv").splitlines()[1:]]
    assert [row[CSV_COLUMNS.index("est_tv")] for row in rows] == ["nan", "nan"]
    # The records' dict forms are the JSON's, None where no estimate was scored.
    assert [t.to_dict() for t in report.points[0].trials] == point["trials"]


GOLDEN = Path(__file__).parent / "golden"

# (spec, m, n, lambda) of each committed report; every run uses master
# seed 7, 3 trials, epsilon 0.3 and 2 workers.
GOLDEN_CONFIGS = {
    "bsc": (bsc_spec(flip=0.1, p_s=(0.1, 0.5, 0.4)), 512, 60, 10_000),
    "cyclic": (unit_trace_cyclic_spec((0.3, 0.7)), 256, 60, 30_000),
    "ternary": (symmetric_spec(3, 0.8, (0.1, 0.4, 0.3, 0.2)), 256, 120, 5000),
    "deleted": (bsc_spec(flip=0.1, p_s=(1.0, 0.0)), 16, 6, 2000),
}


def _golden_report(name, workers=2):
    spec, m, n, num_seeds = GOLDEN_CONFIGS[name]
    config = ExperimentConfig(
        spec=spec,
        m=m,
        n=n,
        num_seeds=num_seeds,
        trials=3,
        master_seed=7,
        epsilon=0.3,
        workers=workers,
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


def test_benchmark_reports_match_their_committed_digests(monkeypatch):
    # The sha256 of both reports of one batch of every benchmark workload,
    # at master seeds 1 and 7919 and batches 0 and 1, as the benchmark
    # builds them; a change that keeps the arithmetic keeps every digest.
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    digests = json.loads((GOLDEN / "bench_reports.json").read_text())
    keys = [(d["workload"], d["seed"], d["batch"]) for d in digests]
    assert sorted(keys) == sorted(itertools.product(workloads.WORKLOADS, (1, 7919), (0, 1)))
    for (name, seed, batch), want in zip(keys, digests):
        config = workloads.build_config(workloads.WORKLOADS[name], workloads.batch_seed(seed, batch))
        report = run_experiment(config)
        for fmt in ("csv", "json"):
            got = hashlib.sha256(render(report, fmt).encode()).hexdigest()
            assert got == want[fmt], (name, seed, batch, fmt)


EXPERIMENTS = Path(__file__).parents[1] / "experiments"


def _readme_tables(text):
    """Each markdown table of ``text`` as a list of {header: cell} rows,
    backticks dropped from the headers."""
    tables, lines = [], []
    for line in text.splitlines() + [""]:
        if line.startswith("|"):
            lines.append([cell.strip() for cell in line.strip("|").split("|")])
        elif lines:
            header = [cell.strip("`") for cell in lines[0]]
            tables.append([dict(zip(header, row)) for row in lines[2:]])
            lines = []
    return tables


def _printed(value):
    """``value`` rounded to 3 decimals and printed without trailing zeros."""
    return format(round(value, 3), "g")


# The README columns that name a point, out of those that the test knows.
README_KEYS = ("m", "n", "lambda", "C")
# The oracle's row errors, printed beside each point of its model.
PREDICTION_KEYS = ("predicted, typicality", "predicted, min distance")


def _oracle_flip(spec):
    """p where ``spec`` is a uniform binary source through BSC(p) with runs
    of at most 2 copies, the model of the oracle's minimum-distance row
    error; None otherwise."""
    p = float(spec.p_y_given_x[0][1])
    oracle = model_spec_to_dict(bsc_spec(flip=p, p_s=spec.p_s))
    return p if spec.s_max <= 2 and model_spec_to_dict(spec) == oracle else None


def test_every_committed_experiment_is_consistent_with_its_report_and_readme():
    # Every config parses, its CSV holds one row per trial of each point
    # under the report's header, each capacity is the model's, and every
    # point's row of experiments/README.md prints its CSV's figures. Where
    # the oracle's model is the config's, a row that prints a row error
    # prints the minimum-distance prediction, the mean over the trials'
    # repetition patterns, and without repetitions the typicality one.
    tables = _readme_tables((EXPERIMENTS / "README.md").read_text())
    readme_rows = [row for table in tables for row in table]
    matched = []
    for path in sorted(EXPERIMENTS.glob("*.json")):
        config = ExperimentConfig.from_dict(load_json_object(path))
        header, *rows = path.with_suffix(".csv").read_text().splitlines()
        assert tuple(header.split(",")) == CSV_COLUMNS
        points = config.points()
        assert len(rows) == len(points) * config.trials, path.name
        rows = list(csv.DictReader([header, *rows]))
        c = capacity(config.spec).capacity
        assert {row["capacity"] for row in rows} == {repr(c)}
        flip = _oracle_flip(config.spec)
        repeats = tuple(config.spec.p_s) != (0, 1)
        for j, p in enumerate(points):
            trials = rows[j * config.trials : (j + 1) * config.trials]
            rate = math.log2(p.m) / p.n
            expected = {
                "m": f"2^{math.log2(p.m):g}",
                "n": str(p.n),
                "lambda": str(p.num_seeds),
                "R": f"{rate:.4f}",
                "C": f"{c:.4f}",
                "R/C": f"{rate / c:.2f}",
                "replica_rate": _printed(np.mean([r["replica_ok"] == "1" for r in trials])),
                "deletion_rate": _printed(np.mean([r["deletion_ok"] == "1" for r in trials])),
                "row error": _printed(np.mean([float(r["row_error_rate"]) for r in trials])),
            }
            found = [
                i for i, row in enumerate(readme_rows)
                if all(row[key] == expected[key] for key in README_KEYS if key in row)
            ]
            assert len(found) == 1, f"{path.name} point {j}: README rows {found}"
            row = readme_rows[found[0]]
            if flip is not None and "row error" in row:
                assert set(PREDICTION_KEYS[repeats:]) <= set(row), f"{path.name} point {j}"
                if not repeats:
                    expected[PREDICTION_KEYS[0]] = _printed(typicality_row_error(p.m, p.n, flip, p.epsilon))
                patterns = [
                    draw_pattern(p.n, p.spec, substream(p.master_seed, j, t, ROLE_PATTERN)).s
                    for t in range(p.trials)
                ]
                errors = [pattern_min_distance_row_error(p.m, flip, s) for s in patterns]
                expected[PREDICTION_KEYS[1]] = _printed(np.mean(errors))
            assert row == {key: expected[key] for key in row}
            matched += found
    assert sorted(matched) == list(range(len(readme_rows)))


def test_seed_size_report_is_reproduced_by_its_config(tmp_path):
    # The paper's seed-size transition as one lambda sweep: deletion
    # detection fails every trial up to lambda=800 and succeeds from 1200.
    out = tmp_path / "seed_size_bsc.csv"
    argv = ["experiment", "--config", str(EXPERIMENTS / "seed_size_bsc.json"), "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (EXPERIMENTS / "seed_size_bsc.csv").read_bytes()
    rows = list(csv.DictReader(out.read_text().splitlines()))
    by_lambda = {}
    for row in rows:
        by_lambda.setdefault(int(row["lambda"]), []).append(row)
    assert list(by_lambda) == [400, 600, 800, 1000, 1200, 1600]
    deletion_rate = [np.mean([r["deletion_ok"] == "1" for r in v]) for v in by_lambda.values()]
    assert deletion_rate == [0, 0, 0, 0.9, 1, 1]
    assert all(r["replica_ok"] == "1" for r in rows)
    # The scan's prediction c^3 * log2(n) / |q0 - q1|^3, noted beside the report.
    config = ExperimentConfig.from_dict(load_json_object(EXPERIMENTS / "seed_size_bsc.json"))
    truth = mixture_truth(config.spec)
    predicted = THRESHOLD_CONSTANT ** 3 * math.log2(config.n) / abs(truth.q0 - truth.q1) ** 3
    assert round(predicted) == 738


def _deletion_rates(csv_text):
    """{lambda: the share of its trials that detected the deletions}."""
    by_lambda = {}
    for row in csv.DictReader(csv_text.splitlines()):
        by_lambda.setdefault(int(row["lambda"]), []).append(row["deletion_ok"] == "1")
    return {key: float(np.mean(v)) for key, v in by_lambda.items()}


def test_seed_size_scan_over_n_steps_above_the_threshold(tmp_path):
    # The same lambda scan at n = 8 (re-run here) and n = 960 (its committed
    # CSV; CI re-runs it): every trial detects the deletions from 1.6 to 2.1
    # times the scan's lambda*, a lambda that grows with log2 n.
    out = tmp_path / "seed_size_bsc_n8.csv"
    argv = ["experiment", "--config", str(EXPERIMENTS / "seed_size_bsc_n8.json"), "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (EXPERIMENTS / "seed_size_bsc_n8.csv").read_bytes()
    expected = {
        "seed_size_bsc_n8": (375, [0, 0, 0, 0, 0.1, 1], 800),
        "seed_size_bsc": (738, [0, 0, 0, 0.9, 1, 1], 1200),
        "seed_size_bsc_n960": (1238, [0, 0, 0, 0.95, 1, 1], 2400),
    }
    for name, (threshold, rates, exact) in expected.items():
        config = ExperimentConfig.from_dict(load_json_object(EXPERIMENTS / f"{name}.json"))
        text = (EXPERIMENTS / f"{name}.csv").read_text()
        by_lambda = _deletion_rates(text)
        assert list(by_lambda.values()) == rates
        assert min(key for key, rate in by_lambda.items() if rate == 1) == exact
        assert all(row["replica_ok"] == "1" for row in csv.DictReader(text.splitlines()))
        truth = mixture_truth(config.spec)
        predicted = THRESHOLD_CONSTANT ** 3 * math.log2(config.n) / abs(truth.q0 - truth.q1) ** 3
        assert round(predicted) == threshold
        assert 1.6 <= exact / predicted <= 2.2


@pytest.mark.parametrize(
    "name, row_error",
    [
        pytest.param("phase_bsc_m1024", [0.034, 0.381, 0.644, 0.928, 1, 1], id="1024-row_error0"),
        pytest.param("phase_bsc_m4096", [0.025, 0.259, 0.867, 0.996, 1, 1], id="4096-row_error1"),
        pytest.param("phase_paper_bsc_m1024", [0.071, 0.327, 0.638, 0.879, 0.989, 0.981],
                     id="paper_bsc-1024"),
        pytest.param("phase_paper_bsc_m4096", [0.047, 0.313, 0.684, 0.918, 0.984, 0.996],
                     id="paper_bsc-4096"),
    ],
)
def test_phase_transition_report_is_reproduced_by_its_config(tmp_path, name, row_error):
    # The capacity phase transition as one n sweep per m, on BSC(0.1)
    # without repetitions and on the paper's model with deletions and
    # replicas, at R/C near 0.4, 0.6, 0.8, 1.0, 1.2 and 1.5: the mean row
    # error climbs from a few percent to about 1, while every trial
    # detects the replicas and deletions exactly. The m=2^14 config beside
    # these takes about 20 s and is not re-run here.
    out = tmp_path / f"{name}.csv"
    argv = ["experiment", "--config", str(EXPERIMENTS / f"{name}.json"), "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (EXPERIMENTS / f"{name}.csv").read_bytes()
    by_n = {}
    for row in csv.DictReader(out.read_text().splitlines()):
        by_n.setdefault(int(row["n"]), []).append(row)
    assert all(r["replica_ok"] == r["deletion_ok"] == "1" for rows in by_n.values() for r in rows)
    config = ExperimentConfig.from_dict(load_json_object(EXPERIMENTS / f"{name}.json"))
    c = capacity(config.spec).capacity
    assert {row["capacity"] for rows in by_n.values() for row in rows} == {repr(c)}
    ratios = [math.log2(config.m) / n / c for n in by_n]
    assert ratios == pytest.approx([0.4, 0.6, 0.8, 1.0, 1.2, 1.5], abs=0.06)
    errors = [np.mean([float(row["row_error_rate"]) for row in rows]) for rows in by_n.values()]
    assert [round(e, 3) for e in errors] == row_error


@pytest.mark.parametrize(
    "workers, threads", [(1, 1), (1, 2), (1, 4), (3, 4), (1, 3), (2, 4)]
)
def test_blas_thread_count_does_not_change_the_golden_report(blas, monkeypatch, workers, threads):
    # The count is shared out as the trials' thread budgets, max(1, threads
    # // min(workers, 3 trials)): 1, 2, 4, 1, 3 and 2. With the part sizes
    # forced down, every budget above 1 splits the sampler's draws, the
    # seed blocks and the matcher's repeated rows, whose column tiles of
    # d1 end in a narrower one, and each split GEMM sums its float32
    # products in another order; the split streams, the screen's bound and
    # the exact seed counts keep every byte.
    _, put = blas
    put(threads)
    monkeypatch.setattr(model, "DRAW_PART", 1000)
    monkeypatch.setattr(deletions, "SEED_BLOCK", 1000)
    monkeypatch.setattr(matching, "MATCH_PART", 100)
    expected = (GOLDEN / "report_bsc.csv").read_text()
    assert render(_golden_report("bsc", workers), "csv") == expected
