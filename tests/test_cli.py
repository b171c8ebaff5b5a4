import csv
import os
import subprocess
import sys
from pathlib import Path

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


def test_out_naming_a_file_is_refused_before_simulating(tmp_path, monkeypatch, capsys):
    def never(cfg):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli.sim, "simulate", never)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    cfg_path = write_config(tmp_path, fast_passing_config(sweep=[{}]))
    for verb in ("run", "sweep"):
        assert cli.main([verb, cfg_path, "--out", str(afile), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --out: ") and "Traceback" not in err
    assert afile.read_text() == "kept\n"


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
        fast_passing_config(integration={"dt": 1e-3, "t_end": 6.0, "seed": -1}),
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


OVERFLOWING_STEPS = {"dt": 1e-300, "t_end": 1e10}  # t_end / dt overflows to inf
# inputs that must exit 2, as overrides of EDGE_LIST_CONFIG plus flags, with the
# error each must name; the files they point to are written by `input_files`
REFUSED_INPUTS = {
    "negative seed": ({"integration": {"seed": -1}}, [], "integration.seed: must be >= 0"),
    "negative seed flag": ({}, ["--seed", "-1"], "integration.seed: must be >= 0"),
    "infinite weight": ({"graph": {"path": "chain_inf.txt"}}, [], "edge weights must be finite"),
    "nan weight": ({"graph": {"path": "chain_nan.txt"}}, [], "edge weights must be finite"),
    # t_end = 0.0015 integrates two steps, to t = 0.002
    "table short of the last step": (
        {"integration": {"t_end": 0.0015}, "disturbance": {"kind": "custom-table", "path": "ends_0.0015.csv"}},
        [],
        "extrapolation is refused",
    ),
    "table short of an agent": (
        {"disturbance": {"kind": "custom-table", "path": "two_agents.csv"}}, [], "extrapolation is refused",
    ),
    "edge list is a directory": ({"graph": {"path": "a_directory"}}, [], "graph.path: [Errno 21] Is a directory"),
    "table is a directory": (
        {"disturbance": {"kind": "custom-table", "path": "a_directory"}},
        [],
        "disturbance.path: [Errno 21] Is a directory",
    ),
    "step count overflows": ({"integration": OVERFLOWING_STEPS}, [], "config: t_end / dt = "),
    # numpy refuses a 71 PiB matrix at once, without touching memory
    "huge node count": ({"graph": {"path": "huge.txt"}}, [], "graph.path: 100000000 nodes need a dense"),
    "step count overflows with a table": (
        {"integration": OVERFLOWING_STEPS, "disturbance": {"kind": "custom-table", "path": "ends_0.0015.csv"}},
        [],
        "not a finite step count",
    ),
}
EDGE_LIST_CONFIG = fast_passing_config(graph={"kind": "edge-list", "path": "chain_1.0.txt"})


def with_overrides(cfg, overrides):
    return {**cfg, **{section: {**cfg[section], **fields} for section, fields in overrides.items()}}


@pytest.fixture
def input_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for weight in ("1.0", "inf", "nan"):
        # directed chain 1 -> 2 -> 3 in the edge-list exchange format
        (tmp_path / f"chain_{weight}.txt").write_text(f"nodes 3\n1 2 1.0\n2 3 {weight}\n")
    (tmp_path / "ends_0.0015.csv").write_text("t,w1,w2,w3\n0,0,0,0\n0.0015,0,0,0\n")
    (tmp_path / "two_agents.csv").write_text("t,w1,w2\n0,0,0\n6,0,0\n")
    (tmp_path / "a_directory").mkdir()
    (tmp_path / "huge.txt").write_text("nodes 100000000\n1 2 1.0\n")
    return tmp_path


def test_edge_list_graph_runs(input_files, capsys):
    cfg_path = write_config(input_files, EDGE_LIST_CONFIG)
    assert cli.main(["check", cfg_path]) == 0
    assert "config ok: exp: 3 agents" in capsys.readouterr().out
    assert cli.main(["run", cfg_path, "--out", "out", "--quiet"]) in (0, 1)
    with open(input_files / "out" / "trajectory.csv", newline="") as fh:
        assert {row["agent"] for row in csv.DictReader(fh)} == {"1", "2", "3"}


@pytest.mark.parametrize("case", list(REFUSED_INPUTS))
def test_refused_inputs_exit_2_from_check_and_run(input_files, capsys, case):
    overrides, flags, message = REFUSED_INPUTS[case]
    cfg_path = write_config(input_files, with_overrides(EDGE_LIST_CONFIG, overrides))
    assert cli.main(["check", cfg_path, *flags]) == 2
    assert message in capsys.readouterr().err
    assert cli.main(["run", cfg_path, *flags, "--out", "out", "--quiet"]) == 2
    assert message in capsys.readouterr().err
    assert not (input_files / "out").exists()


def test_sweep_records_refused_inputs_and_runs_the_rest(input_files):
    cases = [case for case in REFUSED_INPUTS.values() if not case[1]]
    cfg = dict(EDGE_LIST_CONFIG, sweep=[{}] + [case[0] for case in cases] + [{"integration": {"record_every": 20}}])
    assert cli.main(["sweep", write_config(input_files, cfg), "--out", "sweepout", "--quiet"]) == 1
    out = input_files / "sweepout"
    with open(out / "report.csv", newline="") as fh:
        status = [row[1] for row in csv.reader(fh)][1:]
    assert status[0] in ("pass", "fail") and status[-1] in ("pass", "fail")
    for got, (_, _, message) in zip(status[1:-1], cases, strict=True):
        assert got.startswith("error: ") and message in got
    last = f"exp_{len(cases) + 1:02d}"
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["exp_00", last]


def test_config_with_a_bad_encoding_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "exp.yaml"
    path.write_bytes(yaml.safe_dump(fast_passing_config()).encode() + b"name\xff\xfe: x\n")
    assert cli.main(["check", str(path)]) == 2
    assert "config error: config: not valid YAML" in capsys.readouterr().err
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert "config error: config: not valid YAML" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_directory_named_like_a_preset_loads_the_preset(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fig3a").mkdir()
    (tmp_path / "not_a_preset").mkdir()
    assert cli.main(["check", "fig3a"]) == 0
    assert "config ok: fig3a" in capsys.readouterr().out
    # 0.05 s is too short for the checks to pass, but the preset runs
    assert cli.main(["run", "fig3a", "--t-end", "0.05", "--out", "o", "--quiet"]) == 1
    assert "run fig3a: FAIL" in (tmp_path / "o" / "report.txt").read_text()
    assert cli.main(["check", "not_a_preset"]) == 2
    assert "is neither a config file nor a preset name" in capsys.readouterr().err


# bound and gains pass after 0.1 s, but the levels have not settled yet
REQUIRE_SETTLED_CONFIG = {
    "graph": {"kind": "vicsek", "generation": 1},
    "protocol": {"d": 0.5},
    "integration": {"t_end": 0.1},
    "checks": {"bound": 1.0e6, "tol": 1.0e6, "require_settled": True},
}


def test_require_settled_verdict_agrees_everywhere(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["run", write_config(tmp_path, REQUIRE_SETTLED_CONFIG), "--out", str(out), "--quiet"]) == 1
    assert (out / "report.txt").read_text().startswith("run exp: FAIL")
    with open(out / "report.csv", newline="") as fh:
        rec = next(csv.DictReader(fh))
    assert (rec["bound_ok"], rec["gains_converged"], rec["settled"], rec["passed"]) == ("1", "1", "0", "0")
    # the same run without require_settled passes, and the sweep reports both verdicts
    cfg = dict(REQUIRE_SETTLED_CONFIG, sweep=[{}, {"checks": {"require_settled": False}}])
    assert cli.main(["sweep", write_config(tmp_path, cfg, "sweep.yaml"), "--out", str(tmp_path / "s"), "--quiet"]) == 1
    with open(tmp_path / "s" / "report.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["status"], r["passed"]) for r in rows] == [("fail", "0"), ("pass", "1")]


def script_env(**overrides):
    """Environment for running the package from its source tree as `python -m cohsync.cli`."""
    src = str(Path(cohsync.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    return {**env, **overrides}


@pytest.mark.parametrize(
    "cfg, status, env",
    [
        (fast_passing_config(), 0, {}),  # block-buffered stdout: the failure comes at the flush
        (REQUIRE_SETTLED_CONFIG, 1, {"PYTHONUNBUFFERED": "1"}),  # unbuffered: it comes at the print
    ],
)
def test_closed_stdout_keeps_the_verdict(tmp_path, cfg, status, env):
    out = tmp_path / "out"
    proc = subprocess.Popen(
        [sys.executable, "-m", "cohsync.cli", "run", write_config(tmp_path, cfg), "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=script_env(**env),
    )
    proc.stdout.close()  # the reader goes away before the run prints, as in `cohsync run ... | head -0`
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == status, err
    assert "Traceback" not in err and "BrokenPipeError" not in err
    assert (out / "report.txt").read_text().startswith(f"run exp: {'PASS' if status == 0 else 'FAIL'}")


def test_sweep_without_entries_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "sweepout"
    assert cli.main(["sweep", "fig3a", "--out", str(out), "--quiet"]) == 2
    assert "config error: sweep:" in capsys.readouterr().err
    cfg = fast_passing_config(sweep=[])
    assert cli.main(["sweep", write_config(tmp_path, cfg), "--out", str(out), "--quiet"]) == 2
    assert "config error: sweep:" in capsys.readouterr().err
    assert not out.exists()


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


def test_unreachable_one_state_mode_exits_3(tmp_path, capsys):
    cfg = fast_passing_config(model={"A": [[1.0]], "B": [[1e-300]], "E": [[1e-300]]})
    assert cli.main(["check", write_config(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("assumption violated:")
    assert "not stabilizable" in err[0]


def test_module_runs_as_a_script():
    proc = subprocess.run(
        [sys.executable, "-m", "cohsync.cli", "check", "fig3a"],
        capture_output=True, text=True, env=script_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "config ok: fig3a" in proc.stdout


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
