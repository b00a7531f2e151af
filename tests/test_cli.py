import json

import numpy as np
import pytest

from dbalign import deanonymize, detect_replicas, running_hamming, sample_instance
from dbalign.cli import (
    EXIT_CONFIG,
    EXIT_DETECTION,
    EXIT_INFEASIBLE,
    EXIT_NO_REMAPPING,
    EXIT_OK,
    main,
)
from dbalign.dbio import read_matrix, write_matrix

from conftest import bsc_spec, symmetric_spec


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
            "--s-max", "2",
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
    constant = np.tile(np.array([[1], [2], [1]], dtype=np.uint8), (1, 6))
    path = tmp_path / "flat.dbm"
    write_matrix(path, constant)
    assert main(["detect-replicas", "--d2", str(path)]) == EXIT_DETECTION


def test_detect_deletions_command(tmp_path, capsys):
    from dbalign import RepetitionPattern, generate_seeds, substream

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


def test_detect_deletions_no_useful_remapping_exit(tmp_path, capsys):
    rng = np.random.default_rng(0)
    g1 = rng.integers(1, 3, size=(2000, 8)).astype(np.uint8)
    g2 = rng.integers(1, 3, size=(2000, 6)).astype(np.uint8)  # unrelated
    write_matrix(tmp_path / "g1.dbm", g1)
    write_matrix(tmp_path / "g2.dbm", g2)
    rc = main(
        ["detect-deletions", "--g1", str(tmp_path / "g1.dbm"), "--g2", str(tmp_path / "g2.dbm")]
    )
    assert rc == EXIT_NO_REMAPPING


def test_estimate_command_round_trips(tmp_path, config_file, capsys):
    out_dir = tmp_path / "inst"
    main(["gen", "--config", str(config_file), "--out", str(out_dir)])
    capsys.readouterr()
    rc = main(
        [
            "estimate",
            "--g1", str(out_dir / "g1.dbm"),
            "--g2", str(out_dir / "g2.dbm"),
            "--s-max", "2",
        ]
    )
    assert rc == EXIT_OK
    est = json.loads(capsys.readouterr().out)
    from dbalign.estimation import from_dict

    rebuilt = from_dict(est)
    assert abs(rebuilt.p_x.sum() - 1.0) < 1e-9
    assert abs(rebuilt.p_x[0] - 0.5) < 0.05


def test_experiment_command_csv(tmp_path, config_file):
    out = tmp_path / "report.csv"
    assert main(["experiment", "--config", str(config_file), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("trial,n,m,lambda,R,capacity")
    assert len(lines) == 3  # header + 2 trials


def test_experiment_flags_override_config(tmp_path, config_file):
    out = tmp_path / "flagged.csv"
    rc = main(
        [
            "experiment",
            "--config", str(config_file),
            "--trials", "1",
            "--m", "8",
            "--out", str(out),
        ]
    )
    assert rc == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2  # --trials beat the config's 2
    assert lines[1].split(",")[2] == "8"  # m column reflects the flag


def test_experiment_bad_config_exit(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"alphabet_size": 2}))
    assert main(["experiment", "--config", str(bad)]) == EXIT_CONFIG
    missing = tmp_path / "nope.json"
    assert main(["experiment", "--config", str(missing)]) == EXIT_CONFIG


def test_experiment_infeasible_exit(tmp_path, config_file):
    cfg = json.loads(config_file.read_text())
    cfg["memory_cap_bytes"] = 10
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    assert main(["experiment", "--config", str(path)]) == EXIT_INFEASIBLE


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
            "--s-max", str(spec.s_max),
        ]
    )
    assert rc == EXIT_OK
    result = deanonymize(
        pair.d1,
        pair.d2,
        seeds.g1,
        seeds.g2,
        alphabet_size=spec.alphabet_size,
        s_max=spec.s_max,
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

    assert main(["detect-deletions", *seeds, "--dedup", "--dump-l", str(tmp_path / "l.csv")]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["deleted"] == list(range(6))

    assert main(["estimate", *seeds, "--s-max", "1"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["p_s"] == [1.0, 0.0]

    database = ["--d1", str(inst / "d1.dbm"), "--d2", str(inst / "d2.dbm")]
    assert main(["match", *database, *seeds, "--s-max", "1", "--epsilon", "0.3"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["failed_stage"] is None
    assert out["status_counts"]["ambiguous"] == 16


def test_estimate_requires_s_max(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--g1", str(tmp_path / "g1.dbm"), "--g2", str(tmp_path / "g2.dbm")])
    assert exc.value.code == EXIT_CONFIG


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


@pytest.mark.parametrize("command", SYMBOL_INPUTS)
def test_bad_symbols_exit_config(tmp_path, capsys, command):
    pair, seeds = sample_instance(32, 12, 5000, bsc_spec(p_s=(0.2, 0.5, 0.3)), master_seed=1)
    mats = {"d1": pair.d1, "d2": pair.d2, "g1": seeds.g1, "g2": seeds.g2}
    argv = [command]
    for name in SYMBOL_INPUTS[command]:
        write_matrix(tmp_path / f"{name}.dbm", mats[name])
        argv += [f"--{name}", str(tmp_path / f"{name}.dbm")]
    if command == "detect-deletions":
        argv += ["--dump-l", str(tmp_path / "l.csv")]
    if command in ("estimate", "match"):
        argv += ["--s-max", "2"]

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


def test_match_infers_alphabet_from_seeds_too(tmp_path, capsys):
    # The database never shows symbol 3, the seeds do: the alphabet is 3.
    pair, seeds = sample_instance(8, 12, 3000, symmetric_spec(3, 0.8, (0.2, 0.5, 0.3)), master_seed=2)
    mats = {"d1": np.minimum(pair.d1, 2), "d2": np.minimum(pair.d2, 2), "g1": seeds.g1, "g2": seeds.g2}
    argv = ["match", "--s-max", "2", "--epsilon", "0.3"]
    for name, mat in mats.items():
        write_matrix(tmp_path / f"{name}.dbm", mat)
        argv += [f"--{name}", str(tmp_path / f"{name}.dbm")]
    assert main(argv) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["config"]["alphabet_size"] == 3
