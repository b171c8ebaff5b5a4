import csv

import numpy as np
import pytest
import yaml

import cohsync
from cohsync import cli

ARTIFACTS = ("trajectory.csv", "report.txt", "report.csv", "metadata.yaml")


def write_config(tmp_path, cfg, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def fast_passing_config(**overrides):
    # zero disturbance settles and locks gains well before t=6
    cfg = {
        "graph": {"kind": "vicsek", "generation": 1, "directed": True},
        "protocol": {"d": 0.5},
        "disturbance": {"kind": "zero"},
        "integration": {"dt": 1e-3, "t_end": 6.0, "record_every": 10, "seed": 7},
    }
    for key, value in overrides.items():
        cfg[key] = value
    return cfg


def test_list_presets(capsys):
    assert cli.main(["list-presets"]) == 0
    out = capsys.readouterr().out
    for name in cli.PRESETS:
        assert name in out
    assert "sawtooth" in out
    assert "d=0.2" in out


def test_table1(capsys):
    assert cli.main(["table1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [line.split() for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [5, 25, 121]
    assert [int(r[1]) for r in rows] == [1, 2, 3]
    lams = [float(r[2]) for r in rows]
    assert lams[0] == pytest.approx(1.0, abs=5e-7)
    assert lams[1] == pytest.approx(0.069198, abs=5e-7)
    assert lams[2] == pytest.approx(0.005252, abs=5e-7)


def test_run_fast_config_passes(tmp_path, capsys):
    cfg_path = write_config(tmp_path, fast_passing_config())
    out = tmp_path / "out"
    assert cli.main(["run", cfg_path, "--out", str(out)]) == 0
    for artifact in ARTIFACTS:
        assert (out / artifact).exists()
    stdout = capsys.readouterr().out
    assert "PASS" in stdout
    assert str(out) in stdout


def test_run_short_horizon_fails_checks(tmp_path):
    # gains are still adapting at t=2, so the tail checks reject the run
    out = tmp_path / "out"
    assert cli.main(["run", "fig3a", "--t-end", "2", "--out", str(out), "--quiet"]) == 1
    for artifact in ARTIFACTS:
        assert (out / artifact).exists()
    report = (out / "report.txt").read_text()
    assert "FAIL" in report


def test_run_quiet_silences_stdout(tmp_path, capsys):
    cfg_path = write_config(tmp_path, fast_passing_config())
    assert cli.main(["run", cfg_path, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_run_is_byte_stable(tmp_path):
    cfg_path = write_config(tmp_path, fast_passing_config())
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert cli.main(["run", cfg_path, "--out", str(out), "--quiet"]) == 0
    for artifact in ARTIFACTS:
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()


def test_run_seed_flag_changes_data(tmp_path):
    cfg_path = write_config(tmp_path, fast_passing_config())
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", cfg_path, "--out", str(a), "--quiet", "--t-end", "1"]) in (0, 1)
    assert cli.main(["run", cfg_path, "--out", str(b), "--quiet", "--t-end", "1", "--seed", "8"]) in (0, 1)
    assert (a / "trajectory.csv").read_bytes() != (b / "trajectory.csv").read_bytes()
    meta = yaml.safe_load((b / "metadata.yaml").read_text())
    assert meta["seed"] == 8


def test_outdir_resolution(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, fast_passing_config(name="envrun"))
    env_base = tmp_path / "envbase"
    monkeypatch.setenv(cli.ENV_OUT, str(env_base))
    # an explicit --out beats the environment
    explicit = tmp_path / "explicit"
    assert cli.main(["run", cfg_path, "--quiet", "--t-end", "1", "--out", str(explicit)]) in (0, 1)
    assert (explicit / "trajectory.csv").exists()
    assert not (env_base / "envrun").exists()
    assert cli.main(["run", cfg_path, "--quiet", "--t-end", "1"]) in (0, 1)
    assert (env_base / "envrun" / "trajectory.csv").exists()


def test_outdir_from_config(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.ENV_OUT, raising=False)
    target = tmp_path / "fromcfg"
    cfg = fast_passing_config(output={"directory": str(target), "formats": ["trajectory", "report"]})
    cfg_path = write_config(tmp_path, cfg)
    assert cli.main(["run", cfg_path, "--quiet", "--t-end", "1"]) in (0, 1)
    assert (target / "trajectory.csv").exists()


def test_metadata_reconstructs_the_experiment(tmp_path):
    cfg_path = write_config(tmp_path, fast_passing_config())
    out = tmp_path / "out"
    assert cli.main(["run", cfg_path, "--out", str(out), "--quiet", "--t-end", "1"]) in (0, 1)
    meta = yaml.safe_load((out / "metadata.yaml").read_text())
    assert meta["version"] == cohsync.__version__
    assert meta["seed"] == 7
    # the echoed config is already normalized and buildable
    assert cli.normalize_config(meta["config"]) == meta["config"]
    cfg, checks, name = cli.build_experiment(meta["config"])
    assert cfg.t_end == 1.0
    assert cfg.graph.n_nodes == 5


def test_normalize_is_idempotent_on_presets():
    for name in cli.PRESETS:
        norm = cli.normalize_config(cli.preset_config(name), name)
        assert cli.normalize_config(norm, name) == norm


def test_config_files_mirror_presets():
    import pathlib

    configs = pathlib.Path(__file__).resolve().parents[1] / "configs"
    for name in cli.PRESETS:
        path = configs / f"{name}.yaml"
        assert path.exists(), f"missing {path}"
        from_file = cli.normalize_config(yaml.safe_load(path.read_text()), name)
        from_preset = cli.normalize_config(cli.preset_config(name), name)
        assert from_file == from_preset, name


def test_check_verb(tmp_path, capsys):
    assert cli.main(["check", "fig3a"]) == 0
    out = capsys.readouterr().out
    assert "config ok" in out
    assert "5 agents" in out
    assert cli.main(["check", "fig3a", "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_unknown_preset_is_a_config_error(capsys):
    assert cli.main(["run", "fig99"]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_field_is_a_config_error(tmp_path, capsys):
    cfg = fast_passing_config()
    cfg["integration"]["stepsize"] = 1e-3
    assert cli.main(["check", write_config(tmp_path, cfg)]) == 2
    assert "integration.stepsize" in capsys.readouterr().err


def test_threshold_above_level_is_a_config_error(tmp_path, capsys):
    # delta = 1.0 puts delta_bar ~ 0.635 below the requested d
    cfg = fast_passing_config(protocol={"delta": 1.0, "d": 0.7})
    assert cli.main(["check", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "protocol.d" in err
    assert "0 < d < delta_bar" in err


def test_schema_error_cases(tmp_path):
    bad = [
        {},  # protocol section missing entirely
        fast_passing_config(graph={"kind": "moebius"}),
        fast_passing_config(protocol={"d": -0.5}),
        fast_passing_config(integration={"dt": 1e-3, "t_end": 1e-4}),
        fast_passing_config(output={"formats": ["parquet"]}),
        fast_passing_config(model={"preset": "double-integrator"}),
        fast_passing_config(disturbance={"kind": "zero", "path": "x.csv"}),
    ]
    for k, cfg in enumerate(bad):
        assert cli.main(["check", write_config(tmp_path, cfg, f"bad{k}.yaml")]) == 2


@pytest.mark.parametrize(
    "patch, flags, field",
    [
        ({"protocol": {"d": float("nan")}}, [], "protocol.d"),
        ({"integration": {"t_end": float("inf")}}, [], "integration.t_end"),
        ({"protocol": {"rho0": float("inf")}}, [], "protocol.rho0"),
        ({}, ["--dt", "nan"], "integration.dt"),
        ({}, ["--t-end", "inf"], "integration.t_end"),
    ],
)
def test_non_finite_number_is_a_config_error(tmp_path, capsys, patch, flags, field):
    cfg = fast_passing_config()
    for section, fields in patch.items():
        cfg[section] = {**cfg[section], **fields}
    out = tmp_path / "out"
    assert cli.main(["run", write_config(tmp_path, cfg), *flags, "--out", str(out), "--quiet"]) == 2
    assert f"{field}: must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_missing_table_range_is_a_config_error(tmp_path, capsys):
    table = tmp_path / "w.csv"
    table.write_text("t,w1,w2,w3,w4,w5\n0,0,0,0,0,0\n1,0.1,0,0,0,0\n")
    cfg = fast_passing_config(disturbance={"kind": "custom-table", "path": str(table)})
    cfg["integration"]["t_end"] = 6.0
    assert cli.main(["check", write_config(tmp_path, cfg)]) == 2
    assert "extrapolation is refused" in capsys.readouterr().err


def test_table_disturbance_runs_when_range_covers(tmp_path):
    table = tmp_path / "w.csv"
    rows = ["t,w1,w2,w3,w4,w5"] + [f"{t},0.05,0,0,0,0" for t in (0.0, 3.0, 6.0)]
    table.write_text("\n".join(rows) + "\n")
    cfg = fast_passing_config(disturbance={"kind": "custom-table", "path": str(table)})
    out = tmp_path / "out"
    assert cli.main(["run", write_config(tmp_path, cfg), "--out", str(out), "--quiet"]) == 0


def test_assumption_violation_exits_3(tmp_path, capsys):
    cfg = fast_passing_config(
        model={"A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [1.0]], "E": [[1.0], [0.0]]},
    )
    assert cli.main(["check", write_config(tmp_path, cfg)]) == 3
    assert "not input-additive" in capsys.readouterr().err


def test_uncertifiable_design_exits_3(tmp_path, capsys):
    # passes the rank test, but the mode at 2 is reachable only through 1e-7
    cfg = fast_passing_config(
        model={"A": [[1.0, 0.0], [0.0, 2.0]], "B": [[1.0], [1e-7]], "E": [[1.0], [1e-7]]},
    )
    assert cli.main(["check", write_config(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("assumption violated:")
    assert "residual" in err[0]


def test_divergence_exits_4(tmp_path, capsys):
    cfg = fast_passing_config(
        model={"A": [[5.0]], "B": [[1.0]], "E": [[1.0]]},
        integration={"dt": 1e-3, "t_end": 8.0, "record_every": 100, "seed": 7},
    )
    out = tmp_path / "out"
    assert cli.main(["run", write_config(tmp_path, cfg), "--out", str(out), "--quiet"]) == 4
    assert "diverged" in capsys.readouterr().err


def test_sweep_runs_entries_in_order(tmp_path):
    cfg = fast_passing_config()
    cfg["sweep"] = [
        {"integration": {"t_end": 6.0}},
        {"name": "broken", "protocol": {"delta": 1.0, "d": 0.7}},
        {"integration": {"t_end": 6.0, "record_every": 20}},
    ]
    out = tmp_path / "sweepout"
    code = cli.main(["sweep", write_config(tmp_path, cfg), "--out", str(out), "--quiet"])
    assert code == 1  # one entry errored
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["entry", "status"]
    assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
    assert rows[1][1] == "pass"
    assert rows[2][1].startswith("error:")
    assert rows[3][1] == "pass"
    # per-entry artifact directories for the entries that ran
    assert (out / "exp_00" / "trajectory.csv").exists()
    assert (out / "exp_02" / "trajectory.csv").exists()
    assert not (out / "broken").exists()


def test_sweep_all_green_exits_0(tmp_path):
    cfg = fast_passing_config()
    cfg["sweep"] = [{}, {"integration": {"record_every": 25}}]
    out = tmp_path / "sweepout"
    assert cli.main(["sweep", write_config(tmp_path, cfg), "--out", str(out), "--quiet"]) == 0
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert all(r[1] == "pass" for r in rows[1:])


def test_sweep_entries_under_a_top_level_name_get_their_own_directories(tmp_path):
    cfg = fast_passing_config(name="named")
    cfg["sweep"] = [{}, {"integration": {"record_every": 25}}, {"name": "own"}]
    out = tmp_path / "sweepout"
    assert cli.main(["sweep", write_config(tmp_path, cfg), "--out", str(out), "--quiet", "--t-end", "1"]) in (0, 1)
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["named_00", "named_01", "own"]
    meta = yaml.safe_load((out / "named_01" / "metadata.yaml").read_text())
    assert meta["config"]["name"] == "named_01"
    assert meta["config"]["integration"]["record_every"] == 25


def test_full_benchmark_preset_passes(tmp_path):
    out = tmp_path / "fig3a"
    assert cli.main(["run", "fig3a", "--out", str(out), "--quiet"]) == 0
    report = (out / "report.txt").read_text()
    assert "PASS" in report
    with open(out / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header, row = rows
    rec = dict(zip(header, row))
    assert rec["passed"] == "1"
    assert rec["n_agents"] == "5"
    assert float(rec["tail_max_Vi"]) <= 1.0
