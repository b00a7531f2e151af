import argparse
import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dbalign
from dbalign.cli import (
    EXIT_CONFIG,
    EXIT_DETECTION,
    EXIT_INFEASIBLE,
    EXIT_NO_REMAPPING,
    EXIT_OK,
    build_parser,
    main,
)
from dbalign.dbio import load_json_object, model_spec_from_dict, model_spec_to_dict, read_matrix, write_matrix
from dbalign.experiment import CONFIG_FIELDS, CONFIG_KEYS, ExperimentConfig
from dbalign.matching import DEFAULT_EPSILON, deanonymize, estimate_stages
from dbalign.model import sample_instance
from dbalign.replicas import detect_replicas, running_hamming

from conftest import bsc_spec, long_run_instance, symmetric_spec
from oracles import cross_hamming_loop


@pytest.fixture
def config_file(tmp_path):
    cfg = {
        "alphabet_size": 2,
        "p_x": [0.5, 0.5],
        "p_y_given_x": [[0.9, 0.1], [0.1, 0.9]],
        "p_s": [0.2, 0.5, 0.3],
        "s_max": 2,
        "m": 16,
        "n": 10,
        "lambda": 5000,
        "master_seed": 21,
        "trials": 2,
        "epsilon": 0.4,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_parse_error_returns_exit_config(capsys):
    # In process, as in the shell: argparse's SystemExit does not escape main.
    assert main(["match", "--bogus"]) == EXIT_CONFIG
    assert "dbalign match: error:" in capsys.readouterr().err


def test_help_returns_exit_ok(capsys):
    assert main(["match", "--help"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: dbalign match")


# The deletion threshold's constant is fixed, so the option and the config
# key that set it are refused at any value.
UNKNOWN_FLAG = "unrecognized arguments: --threshold-constant"
UNKNOWN_KEY = "unknown experiment config keys: 'threshold_constant'"

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_cli_lines():
    """Each `dbalign ...` command of README's CLI shell block, continuation
    lines joined."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("dbalign ")]


def test_readme_cli_block_parses():
    # A flag removed from the parser must not stay in the documented commands.
    lines = _readme_cli_lines()
    assert len(lines) == 7
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


def _readme_config_section():
    return README.read_text(encoding="utf-8").split("\n## Configuration\n", 1)[1].split("\n## ")[0]


def test_readme_config_table_matches_the_config():
    # Each row's key and default are the first code spans of its cells.
    rows = re.findall(r"^\| `(\w+)`[^|]*\| `([^`]*)`", _readme_config_section(), re.M)
    assert [key for key, _ in rows] == [k for k in CONFIG_KEYS if k not in ("m", "n", "lambda")]
    fields_by_key = {key: f for f, key in CONFIG_FIELDS}
    for key, default in rows:
        f = fields_by_key[key]
        declared = f.default_factory() if f.default is dataclasses.MISSING else f.default
        assert json.loads(default) == declared, key


def test_readme_example_config_parses():
    block = re.search(r"```json\n(.*?)```", _readme_config_section(), re.S).group(1)
    assert ExperimentConfig.from_dict(json.loads(block)).master_seed == 7


def test_no_command_takes_a_threshold_constant():
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, sub in commands.choices.items():
        assert "threshold_constant" not in {a.dest for a in sub._actions}, name


@pytest.mark.parametrize("key", ["threshold_constant", "epsilonn"])
@pytest.mark.parametrize("command", ["gen", "experiment"])
def test_config_with_an_unknown_key_exit_config(tmp_path, config_file, capsys, command, key):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(json.loads(config_file.read_text()), **{key: 2.0})))
    argv = [command, "--config", str(bad)]
    if command == "gen":
        argv += ["--out", str(tmp_path / "inst")]
    assert main(argv) == EXIT_CONFIG
    assert f"unknown experiment config keys: {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "inst").exists()


@pytest.mark.parametrize("command", ["capacity", "experiment"])
def test_nan_probability_exit_config(tmp_path, config_file, capsys, command):
    # Python's json reads the literal NaN; the spec must refuse it rather
    # than report a capacity of 0.
    bad = tmp_path / "bad.json"
    bad.write_text(config_file.read_text().replace('"p_x": [0.5, 0.5]', '"p_x": [NaN, 1.0]'))
    assert main([command, "--config", str(bad)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "p_x mass deviates from 1" in captured.err
    assert captured.out == ""


def test_capacity_command(config_file, capsys):
    assert main(["capacity", "--config", str(config_file)]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert 0.0 < out["capacity"] < 1.0
    assert out["per_s"][0] == 0.0


def test_gen_and_match_round_trip(tmp_path, config_file, capsys):
    out_dir = tmp_path / "inst"
    assert main(["gen", "--config", str(config_file), "--out", str(out_dir)]) == EXIT_OK
    capsys.readouterr()
    d2 = read_matrix(out_dir / "d2.dbm")
    truth = json.loads((out_dir / "truth.json").read_text())
    assert d2.shape[1] == sum(truth["pattern"])
    assert sorted(truth["sigma"]) == list(range(16))

    rc = main(
        [
            "match",
            "--d1", str(out_dir / "d1.dbm"),
            "--d2", str(out_dir / "d2.dbm"),
            "--g1", str(out_dir / "g1.dbm"),
            "--g2", str(out_dir / "g2.dbm"),
            "--epsilon", "0.4",
            "--truth", str(out_dir / "truth.json"),
        ]
    )
    assert rc == EXIT_OK
    result = json.loads(capsys.readouterr().out)
    assert set(result["stages"]) == {"replica", "deletion", "pattern", "estimate", "match"}
    assert "row_error_rate" in result
    if result["failed_stage"] is None:
        assert len(result["sigma_hat"]) == 16


def _bad_sigma(truth, case):
    sigma = truth.pop("sigma")
    if case == "one_short":
        truth["sigma"] = sigma[:-1]
    elif case == "all_zero":
        truth["sigma"] = [0] * len(sigma)
    elif case == "out_of_range":
        truth["sigma"] = [len(sigma)] + sigma[1:]
    return truth


@pytest.mark.parametrize("case", ["one_short", "all_zero", "missing", "out_of_range"])
def test_match_rejects_truth_that_is_not_a_permutation(tmp_path, config_file, capsys, case):
    # A bad truth file must fail at the boundary, never score a silent
    # error rate over the wrong rows or end in a traceback.
    out_dir = tmp_path / "inst"
    assert main(["gen", "--config", str(config_file), "--out", str(out_dir)]) == EXIT_OK
    truth = _bad_sigma(json.loads((out_dir / "truth.json").read_text()), case)
    bad = tmp_path / "bad_truth.json"
    bad.write_text(json.dumps(truth))
    capsys.readouterr()
    argv = ["match", "--epsilon", "0.4", "--truth", str(bad)]
    for name in ("d1", "d2", "g1", "g2"):
        argv += [f"--{name}", str(out_dir / f"{name}.dbm")]
    assert main(argv) == EXIT_CONFIG
    assert "sigma" in capsys.readouterr().err


def test_detect_replicas_csv_matches_library(tmp_path, config_file, capsys):
    pair, _ = sample_instance(400, 10, 10, bsc_spec(p_s=(0.0, 0.5, 0.5)), master_seed=5)
    path = tmp_path / "d2.dbm"
    write_matrix(path, pair.d2)
    assert main(["detect-replicas", "--d2", str(path)]) == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "j,hamming,is_replica"
    h = running_hamming(pair.d2)
    decisions = detect_replicas(pair.d2)
    assert len(lines) == 1 + h.size
    for j, line in enumerate(lines[1:]):
        jj, hj, flag = line.split(",")
        assert (int(jj), int(hj), bool(int(flag))) == (j, h[j], decisions[j])


def test_detect_replicas_single_component_exit_code(tmp_path, capsys):
    # Identical columns: a constant distance series shows no replicas.
    constant = np.tile(np.array([[1], [2], [1]], dtype=np.uint8), (1, 6))
    path = tmp_path / "flat.dbm"
    write_matrix(path, constant)
    assert main(["detect-replicas", "--d2", str(path)]) == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[1:] == [f"{j},0,0" for j in range(5)]


def test_detect_replicas_two_columns_exit_code(tmp_path, capsys):
    # One adjacent distance cannot show two components, so no replicas.
    path = tmp_path / "two.dbm"
    write_matrix(path, np.array([[1, 1], [2, 1], [1, 2]], dtype=np.uint8))
    assert main(["detect-replicas", "--d2", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == "j,hamming,is_replica\n0,2,0\n"


def test_detect_replicas_two_rows_exit_code(tmp_path, capsys):
    # Two rows cannot give the estimator's three factorial moments.
    path = tmp_path / "two_rows.dbm"
    write_matrix(path, np.array([[1, 1, 2, 1], [2, 1, 1, 1]], dtype=np.uint8))
    assert main(["detect-replicas", "--d2", str(path)]) == EXIT_DETECTION
    assert "3 rows" in capsys.readouterr().err


def test_detect_deletions_command(tmp_path, capsys):
    from dbalign.model import RepetitionPattern, generate_seeds, substream

    spec = bsc_spec(flip=0.1, p_s=(0.3, 0.7))
    s = np.ones(10, dtype=int)
    s[[2, 7]] = 0
    seeds = generate_seeds(10_000, 10, RepetitionPattern(s), spec, substream(3, 0))
    g1_path, g2_path = tmp_path / "g1.dbm", tmp_path / "g2.dbm"
    write_matrix(g1_path, seeds.g1)
    write_matrix(g2_path, seeds.g2)
    dump = tmp_path / "l.csv"
    rc = main(
        [
            "detect-deletions",
            "--g1", str(g1_path),
            "--g2", str(g2_path),
            "--dump-l", str(dump),
        ]
    )
    assert rc == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["deleted"] == [2, 7]
    rows = dump.read_text().strip().split("\n")
    assert len(rows) == 10 and len(rows[0].split(",")) == 8


def test_detect_deletions_dump_l_is_the_identity_remapping(tmp_path, capsys, monkeypatch):
    # The dump holds the identity remapping's distances, byte for byte; the
    # remappings are enumerated once, by the detection, not for the dump.
    from dbalign import deletions
    from dbalign.model import RepetitionPattern, generate_seeds, substream

    calls = []
    enumerate_all = deletions.enumerate_remappings

    def counting(alphabet_size):
        calls.append(alphabet_size)
        return enumerate_all(alphabet_size)

    monkeypatch.setattr(deletions, "enumerate_remappings", counting)
    s = np.ones(9, dtype=int)
    s[4] = 0
    spec = symmetric_spec(3, 0.8, (0.2, 0.8))
    seeds = generate_seeds(2000, 9, RepetitionPattern(s), spec, substream(5, 0))
    write_matrix(tmp_path / "g1.dbm", seeds.g1)
    write_matrix(tmp_path / "g2.dbm", seeds.g2)
    dump = tmp_path / "l.csv"
    argv = ["detect-deletions", "--g1", str(tmp_path / "g1.dbm"), "--g2", str(tmp_path / "g2.dbm")]
    assert main([*argv, "--dump-l", str(dump)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["deleted"] == [4]
    assert calls == [3]
    identity = np.array([1, 2, 3], dtype=np.uint8)
    expected = "".join(
        ",".join(str(v) for v in row) + "\n"
        for row in cross_hamming_loop(seeds.g1, seeds.g2, identity)
    )
    assert dump.read_bytes() == expected.encode()


def test_detect_deletions_dump_l_rejects_a_large_alphabet_first(tmp_path, capsys):
    # The remapping cap is checked before the k^2 co-occurrence counts exist.
    g = np.full((50, 6), 9, dtype=np.uint8)
    write_matrix(tmp_path / "g.dbm", g)
    dump = tmp_path / "l.csv"
    argv = ["detect-deletions", "--g1", str(tmp_path / "g.dbm"), "--g2", str(tmp_path / "g.dbm")]
    assert main([*argv, "--dump-l", str(dump)]) == EXIT_CONFIG
    assert "exceeds remapping cap" in capsys.readouterr().err
    assert not dump.exists()


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
def test_detect_deletions_dump_l_rejects_a_bad_threshold_constant_first(tmp_path, capsys, value):
    # The parser refuses the option before the dump is written.
    g1 = np.random.default_rng(0).integers(1, 3, size=(50, 6)).astype(np.uint8)
    write_matrix(tmp_path / "g1.dbm", g1)
    write_matrix(tmp_path / "g2.dbm", g1[:, [0, 2, 4]])
    dump = tmp_path / "l.csv"
    argv = ["detect-deletions", "--g1", str(tmp_path / "g1.dbm"), "--g2", str(tmp_path / "g2.dbm")]
    assert main([*argv, "--dump-l", str(dump), f"--threshold-constant={value}"]) == EXIT_CONFIG
    assert UNKNOWN_FLAG in capsys.readouterr().err
    assert not dump.exists()


def _seed_argv(tmp_path, g1, g2):
    write_matrix(tmp_path / "g1.dbm", g1)
    write_matrix(tmp_path / "g2.dbm", g2)
    return ["--g1", str(tmp_path / "g1.dbm"), "--g2", str(tmp_path / "g2.dbm")]


def test_seed_commands_share_the_run_count_rule(tmp_path, capsys):
    # Both commands run one chain of seed stages: more replica runs than
    # original columns is a recorded replica failure in each, before a dump.
    rng = np.random.default_rng(0)
    g1 = rng.integers(1, 3, size=(2000, 3)).astype(np.uint8)
    g2 = rng.integers(1, 3, size=(2000, 6)).astype(np.uint8)  # unrelated
    seeds = _seed_argv(tmp_path, g1, g2)
    dump = tmp_path / "l.csv"
    for argv in (["estimate", *seeds], ["detect-deletions", *seeds, "--dump-l", str(dump)]):
        assert main(argv) == EXIT_DETECTION
        assert "detection failed (replica): 6 replica runs for 3 original columns" in capsys.readouterr().err
    assert not dump.exists()


def test_detect_deletions_reads_the_replica_free_seed_columns(tmp_path, capsys):
    # A generated instance with replicas: the command prints estimate_stages'
    # retention, and the dump holds the identity remapping's distances to
    # the first g2 column of each detected run.
    pair, seeds = sample_instance(256, 12, 3000, bsc_spec(p_s=(0.1, 0.5, 0.4)), master_seed=1)
    assert pair.pattern.s.max() > 1
    argv = ["detect-deletions", *_seed_argv(tmp_path, seeds.g1, seeds.g2)]
    dump = tmp_path / "l.csv"
    assert main([*argv, "--dump-l", str(dump)]) == EXIT_OK
    result = estimate_stages(seeds.g2, seeds.g1, seeds.g2, 2)
    assert json.loads(capsys.readouterr().out) == {
        "retained": result.retention.retained.tolist(),
        "deleted": result.retention.deleted.tolist(),
        "n": 12,
    }
    assert np.array_equal(result.pattern.s, pair.pattern.s)
    starts = np.flatnonzero(np.concatenate(([True], ~result.is_replica)))
    identity = np.array([1, 2], dtype=np.uint8)
    expected = "".join(
        ",".join(str(v) for v in row) + "\n"
        for row in cross_hamming_loop(seeds.g1, seeds.g2[:, starts], identity)
    )
    assert dump.read_bytes() == expected.encode()
    # Replica detection always runs, so there is no switch for it.
    assert main([*argv, "--dedup"]) == EXIT_CONFIG
    assert "unrecognized arguments: --dedup" in capsys.readouterr().err


def test_match_and_config_share_the_epsilon_default():
    match = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices["match"]
    config_default = next(f.default for f, key in CONFIG_FIELDS if key == "epsilon")
    assert match.get_default("epsilon") == config_default == DEFAULT_EPSILON


def test_detect_deletions_no_useful_remapping_exit(tmp_path, capsys):
    rng = np.random.default_rng(0)
    g1 = rng.integers(1, 3, size=(2000, 8)).astype(np.uint8)
    g2 = rng.integers(1, 3, size=(2000, 6)).astype(np.uint8)  # unrelated
    write_matrix(tmp_path / "g1.dbm", g1)
    write_matrix(tmp_path / "g2.dbm", g2)
    seeds = ["--g1", str(tmp_path / "g1.dbm"), "--g2", str(tmp_path / "g2.dbm")]
    assert main(["detect-deletions", *seeds]) == EXIT_NO_REMAPPING
    capsys.readouterr()
    # `estimate` reaches the same failure after its replica stage, and its
    # recorded error exits with the same code, not the generic 4.
    assert main(["estimate", *seeds]) == EXIT_NO_REMAPPING
    assert "detection failed (deletion): all remappings useless" in capsys.readouterr().err


def test_estimate_command_round_trips(tmp_path, config_file, capsys):
    out_dir = tmp_path / "inst"
    main(["gen", "--config", str(config_file), "--out", str(out_dir)])
    capsys.readouterr()
    rc = main(
        [
            "estimate",
            "--g1", str(out_dir / "g1.dbm"),
            "--g2", str(out_dir / "g2.dbm"),
        ]
    )
    assert rc == EXIT_OK
    est = json.loads(capsys.readouterr().out)
    from dbalign.estimation import assemble_joint

    rebuilt = assemble_joint(est["p_x"], est["p_y_given_x"], est["p_s"])
    assert abs(rebuilt.p_x.sum() - 1.0) < 1e-9
    assert abs(rebuilt.p_x[0] - 0.5) < 0.05


def test_experiment_command_csv(tmp_path, config_file):
    out = tmp_path / "report.csv"
    assert main(["experiment", "--config", str(config_file), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("trial,n,m,lambda,R,capacity")
    assert len(lines) == 3  # header + 2 trials


def test_experiment_bad_config_exit(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"alphabet_size": 2}))
    assert main(["experiment", "--config", str(bad)]) == EXIT_CONFIG
    missing = tmp_path / "nope.json"
    assert main(["experiment", "--config", str(missing)]) == EXIT_CONFIG


def test_experiment_rejects_fractional_size_exit(tmp_path, config_file, capsys):
    cfg = json.loads(config_file.read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(cfg, m=16.5)))
    assert main(["experiment", "--config", str(bad)]) == EXIT_CONFIG
    assert "m must be an integer" in capsys.readouterr().err


def test_capacity_rejects_unknown_keys_exit(tmp_path, config_file, capsys):
    # capacity takes a model spec or a whole experiment config, nothing else.
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps(dict(json.loads(config_file.read_text()), s_maxx=7, alphabet_sise=3)))
    assert main(["capacity", "--config", str(bad)]) == EXIT_CONFIG
    assert "unknown experiment config keys: 's_maxx', 'alphabet_sise'" in capsys.readouterr().err


ONE_SYMBOL_SPEC = {"p_x": [1.0], "p_y_given_x": [[1.0]], "p_s": [0.5, 0.5]}


@pytest.mark.parametrize("key", ["alphabet_size", "s_max"])
@pytest.mark.parametrize("value", [2.9, 2.5, "2", True])
def test_spec_redundant_keys_must_be_integers_exit(tmp_path, config_file, capsys, key, value):
    # Truncated, each value would match the spec's length: 2 for the binary
    # spec with s_max 2, 1 (True) for the one-symbol spec with s_max 1.
    spec = ONE_SYMBOL_SPEC if value is True else json.loads(config_file.read_text())
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps(dict(spec, **{key: value})))
    assert main(["capacity", "--config", str(bad)]) == EXIT_CONFIG
    assert f"{key} must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0.3", "2", True])
@pytest.mark.parametrize(
    "key, message",
    [("epsilon", "epsilon must be a real number"), ("threshold_constant", UNKNOWN_KEY)],
    ids=["epsilon", "threshold_constant"],
)
def test_experiment_real_keys_must_be_numbers_exit(tmp_path, config_file, capsys, key, message, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(json.loads(config_file.read_text()), **{key: value})))
    assert main(["experiment", "--config", str(bad)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("p_x", ["0.5", "0.5"]),
        ("p_x", [True, False]),
        ("p_y_given_x", [["0.9", 0.1], [0.1, 0.9]]),
        ("p_s", [0.2, 0.5, "0.3"]),
        ("p_s", [False, True, False]),
    ],
)
def test_spec_probabilities_must_be_numbers_exit(tmp_path, config_file, capsys, key, value):
    # Each value would otherwise convert to a valid distribution.
    bad = tmp_path / "spec.json"
    bad.write_text(json.dumps(dict(json.loads(config_file.read_text()), **{key: value})))
    assert main(["capacity", "--config", str(bad)]) == EXIT_CONFIG
    assert f"{key} must be a real number" in capsys.readouterr().err


def test_experiment_without_out_appends_to_redirected_stdout(tmp_path, config_file):
    # `dbalign experiment >> log` must write at the log's end, not truncate it.
    path = [str(Path(dbalign.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    log = tmp_path / "log.txt"
    log.write_text("before\n")
    with open(log, "a", encoding="utf-8") as fh:
        proc = subprocess.run(
            [sys.executable, "-m", "dbalign.cli", "experiment", "--config", str(config_file)],
            stdout=fh,
            env=env,
        )
    assert proc.returncode == EXIT_OK
    report = tmp_path / "report.csv"
    assert main(["experiment", "--config", str(config_file), "--out", str(report)]) == EXIT_OK
    assert log.read_text() == "before\n" + report.read_text()


def _config_with(tmp_path, config_file, **keys):
    """A copy of ``config_file`` with ``keys`` set."""
    path = tmp_path / "with.json"
    path.write_text(json.dumps(dict(json.loads(config_file.read_text()), **keys)))
    return path


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize(
    "knob, message",
    [("epsilon", "epsilon must be finite and positive"), ("--threshold-constant", UNKNOWN_FLAG)],
    ids=["--epsilon", "--threshold-constant"],
)
def test_experiment_rejects_knobs_not_finite_and_positive(tmp_path, config_file, capsys, knob, message, value):
    # epsilon is set in the config file (Python's JSON reader takes NaN and
    # Infinity); the threshold constant is fixed, so its option is unknown.
    argv = ["experiment", "--config", str(config_file)]
    if knob == "epsilon":
        argv[2] = str(_config_with(tmp_path, config_file, epsilon=float(value)))
    else:
        argv.append(f"{knob}={value}")
    assert main(argv) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_experiment_bad_sweep_axis_exit_config(tmp_path, config_file, capsys):
    argv = ["experiment", "--config", str(_config_with(tmp_path, config_file, sweep_axis="trials"))]
    assert main(argv) == EXIT_CONFIG
    assert "sweep axis must be 'm', 'n' or 'lambda'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "keys", [{"n": 2}, {"sweep_axis": "n", "sweep_values": [10, 2]}], ids=["n", "sweep"]
)
def test_experiment_too_few_columns_exit_config(tmp_path, config_file, capsys, keys):
    # Deletion detection needs three original columns; a point with fewer
    # is a configuration error, found before any trial runs.
    report = tmp_path / "report.csv"
    config = _config_with(tmp_path, config_file, **keys)
    assert main(["experiment", "--config", str(config), "--out", str(report)]) == EXIT_CONFIG
    assert "n >= 3 at each point" in capsys.readouterr().err
    assert not report.exists()


def test_experiment_infeasible_exit(tmp_path, config_file):
    cfg = json.loads(config_file.read_text())
    cfg["memory_cap_bytes"] = 10
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(path)]) == EXIT_INFEASIBLE


@pytest.mark.parametrize("key, value", [("m", 4_000_000_000), ("memory_cap_bytes", 10)])
def test_gen_infeasible_exit_leaves_no_directory(tmp_path, config_file, capsys, key, value):
    # gen applies the experiment's memory guard to the instance before it
    # makes the output directory, instead of failing to allocate it.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(dict(json.loads(config_file.read_text()), **{key: value})))
    out_dir = tmp_path / "inst"
    assert main(["gen", "--config", str(path), "--out", str(out_dir)]) == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert captured.err.startswith("infeasible size: instance m=")
    assert "cap is" in captured.err and captured.out == ""
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["capacity", "experiment"])
def test_oversized_table_exits_infeasible_for_every_command(tmp_path, capsys, command):
    # k=4 with p_s of length 12 makes a 4^12-cell (X, Y^s) table, past TABLE_LIMIT.
    p_s = [0.0] * 11 + [1.0]
    cfg = {"p_x": [0.25] * 4, "p_y_given_x": np.eye(4).tolist(), "p_s": p_s,
           "m": 16, "n": 10, "lambda": 100}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path)]) == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert captured.err.startswith("infeasible size: joint table with 4^12 cells")
    assert captured.out == ""


@pytest.mark.parametrize(
    "key, value", [("master_seed", -1), ("memory_cap_bytes", 0), ("memory_cap_bytes", -10)]
)
def test_experiment_out_of_range_seed_or_cap_exit_config(tmp_path, config_file, capsys, key, value):
    # Found at the config boundary and named there, before any trial runs.
    report = tmp_path / "report.csv"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(json.loads(config_file.read_text()), **{key: value})))
    assert main(["experiment", "--config", str(bad), "--out", str(report)]) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("source", ["config"])
def test_experiment_zero_workers_exit_config(tmp_path, config_file, capsys, source):
    report = tmp_path / "report.csv"
    config = _config_with(tmp_path, config_file, workers=0)
    assert main(["experiment", "--config", str(config), "--out", str(report)]) == EXIT_CONFIG
    assert "worker count must be positive" in capsys.readouterr().err
    assert not report.exists()


def test_out_dir_env_override(tmp_path, config_file, monkeypatch, capsys):
    monkeypatch.setenv("DBALIGN_OUT_DIR", str(tmp_path))
    assert main(["capacity", "--config", str(config_file), "--out", "cap.json"]) == EXIT_OK
    assert (tmp_path / "cap.json").exists()


@pytest.mark.parametrize(
    "spec",
    [bsc_spec(p_s=(0.2, 0.8)), symmetric_spec(3, 0.8, (0.1, 0.4, 0.3, 0.2))],
    ids=["s_max=1", "s_max=3"],
)
def test_estimate_command_matches_pipeline(tmp_path, capsys, spec):
    pair, seeds = sample_instance(1000, 30, 5000, spec, master_seed=1)
    write_matrix(tmp_path / "g1.dbm", seeds.g1)
    write_matrix(tmp_path / "g2.dbm", seeds.g2)
    rc = main(
        [
            "estimate",
            "--g1", str(tmp_path / "g1.dbm"),
            "--g2", str(tmp_path / "g2.dbm"),
        ]
    )
    assert rc == EXIT_OK
    result = deanonymize(
        pair.d1,
        pair.d2,
        seeds.g1,
        seeds.g2,
        alphabet_size=spec.alphabet_size,
        epsilon=0.3,
    )
    assert result.failed_stage is None
    assert json.loads(capsys.readouterr().out) == result.estimate.to_dict()


def test_all_deleted_instance_commands(tmp_path, config_file, capsys):
    cfg = json.loads(config_file.read_text())
    cfg.update(p_s=[1.0, 0.0], s_max=1, m=16, n=6, master_seed=7)
    cfg_path = tmp_path / "deleted.json"
    cfg_path.write_text(json.dumps(cfg))
    inst = tmp_path / "inst"
    assert main(["gen", "--config", str(cfg_path), "--out", str(inst)]) == EXIT_OK
    assert read_matrix(inst / "d2.dbm").shape == (16, 0)
    seeds = ["--g1", str(inst / "g1.dbm"), "--g2", str(inst / "g2.dbm")]
    capsys.readouterr()

    assert main(["detect-deletions", *seeds, "--dump-l", str(tmp_path / "l.csv")]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["deleted"] == list(range(6))

    assert main(["estimate", *seeds]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["p_s"] == [1.0]

    database = ["--d1", str(inst / "d1.dbm"), "--d2", str(inst / "d2.dbm")]
    assert main(["match", *database, *seeds, "--epsilon", "0.3"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["failed_stage"] is None
    assert out["status_counts"]["ambiguous"] == 16


def test_detect_replicas_without_pairs_prints_header(tmp_path, capsys):
    path = tmp_path / "one.dbm"
    write_matrix(path, np.ones((5, 1), dtype=np.uint8))
    assert main(["detect-replicas", "--d2", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == "j,hamming,is_replica\n"


SYMBOL_INPUTS = {
    "detect-replicas": ["d2"],
    "detect-deletions": ["g1", "g2"],
    "estimate": ["g1", "g2"],
    "match": ["d1", "d2", "g1", "g2"],
}


def _instance_argv(tmp_path, command):
    pair, seeds = sample_instance(32, 12, 5000, bsc_spec(p_s=(0.2, 0.5, 0.3)), master_seed=1)
    mats = {"d1": pair.d1, "d2": pair.d2, "g1": seeds.g1, "g2": seeds.g2}
    argv = [command]
    for name in SYMBOL_INPUTS[command]:
        write_matrix(tmp_path / f"{name}.dbm", mats[name])
        argv += [f"--{name}", str(tmp_path / f"{name}.dbm")]
    return argv


@pytest.mark.parametrize("command", SYMBOL_INPUTS)
def test_bad_symbols_exit_config(tmp_path, capsys, command):
    argv = _instance_argv(tmp_path, command)
    if command == "detect-deletions":
        argv += ["--dump-l", str(tmp_path / "l.csv")]

    # An alphabet smaller than the largest symbol.
    if command != "detect-replicas":
        assert main([*argv, "--alphabet-size", "1"]) == EXIT_CONFIG
        assert "symbols must lie in 1..1" in capsys.readouterr().err

    # A 0 byte, which the matrix writer refuses to produce.
    first = tmp_path / f"{SYMBOL_INPUTS[command][0]}.dbm"
    raw = bytearray(first.read_bytes())
    raw[-1] = 0
    first.write_bytes(bytes(raw))
    assert main(argv) == EXIT_CONFIG
    assert "symbols must lie in 1..255" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["detect-deletions", "estimate", "match"])
@pytest.mark.parametrize("size", ["0", "-1"])
def test_nonpositive_alphabet_size_exit_config(tmp_path, capsys, command, size):
    # A stated alphabet is never replaced by the inferred one, 0 included.
    argv = _instance_argv(tmp_path, command)
    assert main([*argv, "--alphabet-size", size]) == EXIT_CONFIG
    assert f"symbols must lie in 1..{size}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "size, message",
    [("0", "symbols must lie in 1..0"), ("-1", "symbols must lie in 1..-1"), ("9", "exceeds remapping cap 8")],
)
def test_match_bad_alphabet_size_on_two_rows_exit_config(tmp_path, capsys, size, message):
    # Two rows fail replica detection; the bad alphabet must still exit 2.
    assert main([*_two_row_match_argv(tmp_path), "--alphabet-size", size]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_match_epsilon_nan_on_two_rows_exit_config(tmp_path, capsys):
    # The recorded replica failure must not hide an epsilon the matcher rejects.
    argv = _two_row_match_argv(tmp_path)
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert main([*argv, "--epsilon", "nan"]) == EXIT_CONFIG
    assert "epsilon must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
def test_match_bad_threshold_constant_on_two_rows_exit_config(tmp_path, capsys, value):
    # The recorded replica failure must not hide a refused option, nor print
    # a constant as a JSON NaN.
    argv = _two_row_match_argv(tmp_path)
    assert main([*argv, f"--threshold-constant={value}"]) == EXIT_CONFIG
    assert UNKNOWN_FLAG in capsys.readouterr().err
    assert not (tmp_path / "match.json").exists()


@pytest.mark.parametrize(
    "value", [["sigma"], "sigma", 3, None], ids=["list", "string", "number", "null"]
)
def test_match_truth_that_is_not_a_json_object_exit_config(tmp_path, capsys, value):
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps(value))
    assert main([*_two_row_match_argv(tmp_path), "--truth", str(truth)]) == EXIT_CONFIG
    assert f"{truth}: config must be a JSON object" in capsys.readouterr().err


def _two_row_match_argv(tmp_path):
    pair, seeds = sample_instance(2, 12, 3000, bsc_spec(p_s=(0.2, 0.5, 0.3)), master_seed=1)
    argv = ["match", "--out", str(tmp_path / "match.json")]
    for name, mat in {"d1": pair.d1, "d2": pair.d2, "g1": seeds.g1, "g2": seeds.g2}.items():
        write_matrix(tmp_path / f"{name}.dbm", mat)
        argv += [f"--{name}", str(tmp_path / f"{name}.dbm")]
    return argv


@pytest.mark.parametrize("bad", ["g2 symbol in a replica column", "zero seed rows"])
@pytest.mark.parametrize("command", ["detect-deletions", "estimate", "match"])
def test_bad_seeds_exit_config(tmp_path, capsys, command, bad):
    # Seeds are checked whole before any stage: replica detection would drop
    # the bad column, and zero seed rows would fail it as a recorded stage.
    pair, seeds = sample_instance(64, 12, 3000, bsc_spec(p_s=(0.1, 0.5, 0.4)), master_seed=1)
    g1, g2 = seeds.g1, seeds.g2.copy()
    if bad == "zero seed rows":
        g1, g2, message = g1[:0], g2[:0], "need at least one seed row"
    else:
        assert np.repeat(np.arange(12), pair.pattern.s)[1:3].tolist() == [1, 1]
        g2[0, 2], message = 7, "symbols must lie in 1..2"
    mats = {"d1": pair.d1, "d2": pair.d2, "g1": g1, "g2": g2}
    out = tmp_path / "out.json"
    argv = [command, "--alphabet-size", "2", "--out", str(out)]
    for name in SYMBOL_INPUTS[command]:
        write_matrix(tmp_path / f"{name}.dbm", mats[name])
        argv += [f"--{name}", str(tmp_path / f"{name}.dbm")]
    assert main(argv) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_match_epsilon_past_the_log_zero_clamp_exit_config(tmp_path, capsys):
    argv = _instance_argv(tmp_path, "match")
    assert main([*argv, "--epsilon", "1e28"]) == EXIT_OK
    capsys.readouterr()
    assert main([*argv, "--epsilon", "1e29"]) == EXIT_CONFIG
    assert "too large for 12 columns" in capsys.readouterr().err


def test_match_infers_alphabet_from_seeds_too(tmp_path, capsys):
    # The database never shows symbol 3, the seeds do: the alphabet is 3.
    pair, seeds = sample_instance(8, 12, 3000, symmetric_spec(3, 0.8, (0.2, 0.5, 0.3)), master_seed=2)
    mats = {"d1": np.minimum(pair.d1, 2), "d2": np.minimum(pair.d2, 2), "g1": seeds.g1, "g2": seeds.g2}
    argv = ["match", "--epsilon", "0.3"]
    for name, mat in mats.items():
        write_matrix(tmp_path / f"{name}.dbm", mat)
        argv += [f"--{name}", str(tmp_path / f"{name}.dbm")]
    assert main(argv) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["config"]["alphabet_size"] == 3


def test_over_long_run_commands(tmp_path, capsys):
    # A detected run too long to tabulate is a recorded pattern failure in
    # `match`; `estimate` has no record to write, so it exits with the
    # detection-failure code.
    paths = [str(tmp_path / f"{name}.dbm") for name in ("d1", "d2", "g1", "g2")]
    for path, mat in zip(paths, long_run_instance()):
        write_matrix(path, mat)
    d1, d2, g1, g2 = paths
    seeds = ["--g1", g1, "--g2", g2]
    assert main(["match", "--d1", d1, "--d2", d2, *seeds]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["failed_stage"] == "pattern"
    assert "exceeds limit" in out["failure"]
    assert out["stages"]["deletion"] and not out["stages"]["pattern"]

    assert main(["estimate", *seeds]) == EXIT_DETECTION
    assert "exceeds limit" in capsys.readouterr().err

    # The retention is what `detect-deletions` prints, and it was found.
    assert main(["detect-deletions", *seeds]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["retained"]


def test_estimate_recorded_replica_failure_exits_detection(tmp_path, capsys):
    # `estimate` detects replicas on g2's rows, and two seeds cannot give
    # the estimator's three factorial moments.
    _, seeds = sample_instance(64, 20, 2, bsc_spec(p_s=(0.2, 0.5, 0.3)), master_seed=0)
    write_matrix(tmp_path / "g1.dbm", seeds.g1)
    write_matrix(tmp_path / "g2.dbm", seeds.g2)
    argv = ["estimate", "--g1", str(tmp_path / "g1.dbm"), "--g2", str(tmp_path / "g2.dbm")]
    assert main(argv) == EXIT_DETECTION
    assert "detection failed (replica): need at least 3 rows" in capsys.readouterr().err


@pytest.mark.parametrize("dump", [False, True])
def test_detect_deletions_counts_seeds_once(tmp_path, capsys, monkeypatch, dump):
    # Detection tabulates the seeds once; the dumped distance matrix is read
    # off a tabulation of its own.
    from dbalign import deletions
    from dbalign.model import RepetitionPattern, generate_seeds, substream

    calls = []
    build = deletions.cooccurrence

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(deletions, "cooccurrence", counting)
    s = np.ones(8, dtype=int)
    s[3] = 0
    seeds = generate_seeds(3000, 8, RepetitionPattern(s), bsc_spec(), substream(4, 0))
    write_matrix(tmp_path / "g1.dbm", seeds.g1)
    write_matrix(tmp_path / "g2.dbm", seeds.g2)
    argv = ["detect-deletions", "--g1", str(tmp_path / "g1.dbm"), "--g2", str(tmp_path / "g2.dbm")]
    if dump:
        argv += ["--dump-l", str(tmp_path / "l.csv")]
    assert main(argv) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["deleted"] == [3]
    assert len(calls) == 1 + dump


@pytest.mark.parametrize("content", ["[1, 2]", '"x"', "3", "null"])
@pytest.mark.parametrize("command", ["capacity", "gen", "experiment"])
def test_config_that_is_not_a_json_object_exit_config(tmp_path, capsys, command, content):
    path = tmp_path / "cfg.json"
    path.write_text(content)
    argv = [command, "--config", str(path)]
    if command == "gen":
        argv += ["--out", str(tmp_path / "inst")]
    assert main(argv) == EXIT_CONFIG
    assert "config must be a JSON object" in capsys.readouterr().err


# Every config key after the model spec's, each at a value that is not its default.
EVERY_KEY = {
    "m": 24,
    "n": 11,
    "trials": 3,
    "master_seed": 5,
    "epsilon": 0.45,
    "sweep_axis": "m",
    "sweep_values": [16, 20],
    "workers": 2,
    "memory_cap_bytes": 10**9,
    "lambda": 3000,
}


@pytest.mark.parametrize("key", CONFIG_KEYS)
def test_experiment_takes_no_config_key_as_a_flag(tmp_path, config_file, capsys, key):
    # The config file is the one place an experiment value is set.
    flag = f"--{key.replace('_', '-')}"
    report = tmp_path / "report.csv"
    argv = ["experiment", "--config", str(config_file), "--out", str(report), flag, "1"]
    assert main(argv) == EXIT_CONFIG
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not report.exists()


def test_config_with_every_key_set_round_trips(config_file):
    spec = model_spec_to_dict(model_spec_from_dict(load_json_object(config_file)))
    defaults = ExperimentConfig.from_dict({**spec, "m": 1, "n": 3, "lambda": 1}).to_dict()
    assert all(defaults[key] != value for key, value in EVERY_KEY.items())
    d = {**spec, **EVERY_KEY}
    config = ExperimentConfig.from_dict(d)
    assert config.to_dict() == d
    assert list(config.to_dict()) == [*spec, *CONFIG_KEYS]
