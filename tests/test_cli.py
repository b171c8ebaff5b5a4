import csv
import gc
import os
import subprocess
import sys
import tracemalloc
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
    def never(*args):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli.sim, "simulate", never)
    monkeypatch.setattr(cli.sim, "simulate_union", never)
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
        norm = cli.normalize_config(cli.load_config(name)[0], name)
        assert cli.normalize_config(norm, name) == norm


def test_config_files_mirror_presets():
    import pathlib

    configs = pathlib.Path(__file__).resolve().parents[1] / "configs"
    for name in cli.PRESETS:
        path = configs / f"{name}.yaml"
        assert path.exists(), f"missing {path}"
        from_file = cli.normalize_config(yaml.safe_load(path.read_text()), name)
        from_preset = cli.normalize_config(cli.load_config(name)[0], name)
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


def test_schema_error_cases(tmp_path, capsys):
    without_protocol = {k: v for k, v in fast_passing_config().items() if k != "protocol"}
    bad = [
        ({}, "graph.kind"),  # the graph is the first section without a default
        (without_protocol, "protocol: needs d, delta, or both"),
        (fast_passing_config(graph={"kind": "moebius"}), "graph.kind"),
        (fast_passing_config(protocol={"d": -0.5}), "protocol.d"),
        (fast_passing_config(integration={"dt": 1e-3, "t_end": 1e-4}), "integration.t_end"),
        (fast_passing_config(output={"formats": ["parquet"]}), "output.formats"),
        (fast_passing_config(model={"preset": "double-integrator"}), "model.preset"),
        (fast_passing_config(disturbance={"kind": "zero", "path": "x.csv"}), "disturbance.path"),
        (fast_passing_config(integration={"dt": 1e-3, "t_end": 6.0, "seed": -1}), "integration.seed"),
    ]
    for k, (cfg, field) in enumerate(bad):
        assert cli.main(["check", write_config(tmp_path, cfg, f"bad{k}.yaml")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}")


@pytest.mark.parametrize(
    "patch, flags, field",
    [
        ({"protocol": {"d": float("nan")}}, [], "protocol.d"),
        ({"integration": {"t_end": float("inf")}}, [], "integration.t_end"),
        ({"protocol": {"rho0": float("inf")}}, [], "protocol.rho0"),
        ({}, ["--dt", "nan"], "integration.dt"),
        ({}, ["--t-end", "inf"], "integration.t_end"),
        ({"protocol": {"d": 10**400}}, [], "protocol.d"),  # an integer beyond the float range
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
TIMES_REFUSED = "disturbance.path: table times must be finite and strictly increasing"
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
    "end time beyond the float range": ({"integration": {"t_end": 10**400}}, [], "integration.t_end: must be finite"),
    "huge node count": ({"graph": {"path": "huge.txt"}}, [], "graph.path: 100000000 nodes: a graph has 1 to"),
    "table time nan": ({"disturbance": {"kind": "custom-table", "path": "time_nan.csv"}}, [], TIMES_REFUSED),
    "table time inf": ({"disturbance": {"kind": "custom-table", "path": "time_inf.csv"}}, [], TIMES_REFUSED),
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
    # a NaN time compares false with its neighbours; an inf time would hold its row forever
    (tmp_path / "time_nan.csv").write_text("t,w1,w2,w3\n0,0,0,0\nnan,1,1,1\n6,0,0,0\n")
    (tmp_path / "time_inf.csv").write_text("t,w1,w2,w3\n0,0,0,0\ninf,1,1,1\n")
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


@pytest.mark.parametrize(
    "graph_cfg, field",
    [
        ({"kind": "vicsek", "generation": 9}, "graph: generation 9 has over 1000000 nodes"),
        ({"kind": "circulant", "n": 10000000}, "graph: 10000000 nodes: a graph has 1 to 1000000 nodes"),
    ],
    ids=["vicsek", "circulant"],
)
def test_node_cap_exits_2_on_the_generators(input_files, capsys, graph_cfg, field):
    # an edge list's node count is REFUSED_INPUTS["huge node count"]
    cfg_path = write_config(input_files, fast_passing_config(graph=graph_cfg))
    for argv in (["check", cfg_path], ["run", cfg_path, "--out", "out", "--quiet"]):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"config error: {field} (graph.MAX_NODES)\n"
    assert not (input_files / "out").exists()


def test_edge_cap_exits_2_through_graph_offsets(input_files, capsys):
    # a few KB of config that would ask for 10**9 edges
    graph_cfg = {"kind": "circulant", "n": 1000000, "offsets": list(range(1, 1001))}
    cfg_path = write_config(input_files, fast_passing_config(graph=graph_cfg))
    for argv in (["check", cfg_path], ["run", cfg_path, "--out", "out", "--quiet"]):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            "config error: graph: 1000000000 edges: a graph has at most 4000000 edges (graph.MAX_EDGES)\n"
        )
    assert not (input_files / "out").exists()


def test_a_record_too_large_to_allocate_exits_2_and_leaves_no_directory(tmp_path, monkeypatch, capsys):
    # a run holds no record, so the allocation that fails is a sink's: the verdict of the run named "big",
    # and of the sweep's entry 0, raises numpy's MemoryError on its first sample
    call = cli.analysis.Verdict.__call__

    def exhausted(verdict, *sample):
        if verdict.label in ("big", "big_00"):
            raise MemoryError("Unable to allocate 7.28 PiB for an array with shape (1000000000000001,) "
                              "and data type float64")
        return call(verdict, *sample)

    monkeypatch.setattr(cli.analysis.Verdict, "__call__", exhausted)
    cfg_path = write_config(tmp_path, fast_passing_config(name="big"))
    assert cli.main(["check", cfg_path]) == 0
    out = tmp_path / "made" / "out"
    assert cli.main(["run", cfg_path, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("out of memory: ")
    assert not (tmp_path / "made").exists()
    cfg = dict(fast_passing_config(name="big"), sweep=[{}, {}])
    out = tmp_path / "sweepout"
    assert cli.main(["sweep", write_config(tmp_path, cfg), "--out", str(out), "--quiet"]) == 1
    with open(out / "report.csv", newline="") as fh:
        status = [row[1] for row in csv.reader(fh)][1:]
    assert status[0].startswith("error: ") and "allocate" in status[0]
    assert status[1] == "pass"
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["big_01"]


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


GOOD_YAML = yaml.safe_dump(fast_passing_config()).encode()
# documents every parser refuses; the message, which SafeLoader gives, quotes the source line and a caret
MALFORMED_YAML = {
    "bad encoding": GOOD_YAML + b"name\xff\xfe: x\n",
    "unterminated quote": GOOD_YAML + b'name: "exp\n',
    "tab indent": GOOD_YAML + b"checks:\n\tbound: 1.0\n",
    "two documents": GOOD_YAML + b"---\nname: exp\n",
}


@pytest.mark.parametrize("case", list(MALFORMED_YAML))
def test_malformed_yaml_is_refused_with_safeloaders_message(tmp_path, capsys, yaml_loader, case):
    path = tmp_path / "exp.yaml"
    path.write_bytes(MALFORMED_YAML[case])
    with pytest.raises(yaml.YAMLError):
        yaml.load(path.read_bytes(), yaml_loader)
    with pytest.raises(yaml.YAMLError) as refusal:
        yaml.safe_load(path.read_bytes())
    message = f"config error: config: not valid YAML: {refusal.value}\n"
    assert cli.main(["check", str(path)]) == 2
    assert capsys.readouterr().err == message
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert capsys.readouterr().err == message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "value, message",
    [("2001-13-45", "month must be in 1..12"), ("!!int x", "invalid literal for int() with base 10: 'x'")],
)
def test_a_value_that_cannot_be_made_is_a_config_error(tmp_path, capsys, yaml_loader, value, message):
    path = tmp_path / "exp.yaml"
    path.write_bytes(GOOD_YAML + f"name: {value}\n".encode())
    assert cli.main(["check", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: config: not valid YAML: {message}\n"


def test_a_yaml_1_3_directive_loads_as_safeloader_loads_it(tmp_path, capsys, yaml_loader):
    # libyaml refuses the version SafeLoader accepts
    path = tmp_path / "exp.yaml"
    path.write_bytes(b"%YAML 1.3\n---\n" + GOOD_YAML)
    assert cli.load_config(str(path)) == (yaml.safe_load(path.read_bytes()), "exp")
    assert cli.main(["check", str(path), "--quiet"]) == 0
    assert capsys.readouterr().err == ""


# configs nested too deeply for the config layer: each has more than cli.LOADER_DEPTH bytes that open a
# collection, so SafeLoader parses it, and its recursion runs out
NESTED_TOO_DEEPLY = {
    "flow sequence 5,000 deep": "a: " + "[" * 5000 + "]" * 5000 + "\n",
    "sweep entry 490 deep": GOOD_YAML.decode() + "sweep:\n- {a: " + "[" * 489 + "]" * 489 + "}\n",
    "model.A 5,000 deep": GOOD_YAML.decode() + "model: {A: " + "[" * 5000 + "1" + "]" * 5000 + ", B: [[1]]}\n",
}


@pytest.mark.parametrize("case", list(NESTED_TOO_DEEPLY))
def test_a_config_nested_too_deeply_is_a_config_error(tmp_path, capsys, yaml_loader, case):
    path = tmp_path / "exp.yaml"
    path.write_text(NESTED_TOO_DEEPLY[case])
    assert cli.main(["check", str(path)]) == 2
    assert capsys.readouterr().err == "config error: config: nested too deeply\n"


def test_a_document_too_deep_for_libyaml_is_refused_not_crashed(tmp_path):
    # libyaml's composer would overflow the C stack 200,000 levels down and kill the process
    path = tmp_path / "exp.yaml"
    path.write_text("a: " + "[" * 200_000 + "]" * 200_000 + "\n")
    argv = [sys.executable, "-m", "cohsync.cli", "check", str(path)]
    proc = subprocess.run(argv, capture_output=True, env=script_env(), timeout=120)
    assert (proc.returncode, proc.stderr.decode()) == (2, "config error: config: nested too deeply\n")


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


def test_design_that_overflows_exits_3(tmp_path, capsys):
    # B B' = 1e600 is beyond the float range, so the Hamiltonian is not finite
    cfg = fast_passing_config(model={"A": [[0.0]], "B": [[1.0e300]], "E": [[1.0e300]]})
    assert cli.main(["check", write_config(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["assumption violated: no certified stabilizing Riccati solution (residual inf)"]
    cfg = dict(cfg, sweep=[{}, {"protocol": {"d": 0.2}}])
    out = tmp_path / "sweepout"
    assert cli.main(["sweep", write_config(tmp_path, cfg), "--out", str(out), "--quiet"]) == 1
    with open(out / "report.csv", newline="") as fh:
        status = [row[1] for row in csv.reader(fh)][1:]
    assert status == ["error: no certified stabilizing Riccati solution (residual inf)"] * 2


def test_unreachable_one_state_mode_exits_3(tmp_path, capsys):
    cfg = fast_passing_config(model={"A": [[1.0]], "B": [[1e-300]], "E": [[1e-300]]})
    assert cli.main(["check", write_config(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("assumption violated:")
    assert "not stabilizable" in err[0]


def test_build_experiment_runs_the_pbh_test_once(tmp_path, capsys):
    # solve_care and SimConfig both ask it of one (A, B); the second asks the memo
    cli.linalg._pbh_test.cache_clear()
    cli.build_experiment(cli.normalize_config(cli.load_config("fig3a")[0], "fig3a"))
    info = cli.linalg._pbh_test.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # an unstabilizable pair is refused as before, by solve_care's message
    cfg = fast_passing_config(model={"A": [[1.0, 0.0], [0.0, -1.0]], "B": [[0.0], [1.0]], "E": [[0.0], [1.0]]})
    assert cli.main(["check", write_config(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["assumption violated: (A, B) is not stabilizable: rank test fails at eigenvalue(s) 1+0j"]


def test_sweep_on_one_model_solves_the_riccati_equation_once(tmp_path):
    # eight entries that vary seeds and deadzones share one (A, B): one solve, seven memo hits
    cli.linalg._care.cache_clear()
    entries = [{"integration": {"seed": s}, "protocol": {"d": d}} for s in range(4) for d in (0.5, 0.2)]
    cfg_path = write_config(tmp_path, fast_passing_config(sweep=entries))
    assert cli.main(["sweep", cfg_path, "--out", str(tmp_path / "out"), "--quiet", "--t-end", "0.05"]) in (0, 1)
    info = cli.linalg._care.cache_info()
    assert (info.misses, info.hits) == (1, 7)


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


def test_sweep_entries_sharing_a_directory_are_refused(tmp_path):
    # entry 2 runs as base_02 by default, so entry 3's explicit name collides with it;
    # ./same names the same directory as same
    cfg = fast_passing_config(name="base")
    cfg["sweep"] = [
        {"name": "same", "integration": {"seed": 1}},
        {"name": "same", "integration": {"seed": 2}},
        {"integration": {"seed": 3}},
        {"name": "base_02", "integration": {"seed": 4}},
        {"name": "./same", "integration": {"seed": 5}},
    ]
    out = tmp_path / "sweepout"
    assert cli.main(["sweep", write_config(tmp_path, cfg), "--out", str(out), "--quiet", "--t-end", "0.05"]) == 1
    with open(out / "report.csv", newline="") as fh:
        status = [r[1] for r in list(csv.reader(fh))[1:]]
    assert status[1] == "error: sweep[1].name: 'same' is already the directory of entry 0"
    assert status[3] == "error: sweep[3].name: 'base_02' is already the directory of entry 2"
    assert status[4] == "error: sweep[4].name: './same' is already the directory of entry 0"
    assert not status[0].startswith("error") and not status[2].startswith("error")
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["base_02", "same"]
    for name, seed in (("same", 1), ("base_02", 3)):
        assert yaml.safe_load((out / name / "metadata.yaml").read_text())["seed"] == seed


def test_names_that_leave_the_output_directory_are_refused(tmp_path, monkeypatch, capsys):
    outside = tmp_path / "outside"
    leaving = (str(outside), "../outside", ".")
    env_base = tmp_path / "envbase"
    monkeypatch.setenv(cli.ENV_OUT, str(env_base))
    for name in leaving:
        cfg_path = write_config(tmp_path, fast_passing_config(name=name, sweep=[{}]))
        for verb in ("run", "sweep"):
            assert cli.main([verb, cfg_path, "--quiet", "--t-end", "0.05"]) == 2
            assert capsys.readouterr().err.startswith(f"config error: name: {name!r} names a directory outside")
    # without the environment variable the default base is out/ in the working directory
    monkeypatch.delenv(cli.ENV_OUT)
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(tmp_path, fast_passing_config(name="../outside"))
    assert cli.main(["run", cfg_path, "--quiet", "--t-end", "0.05"]) == 2
    assert "config error: name: " in capsys.readouterr().err
    # in a sweep each such entry is an error row and the others run
    cfg = fast_passing_config(name="base", sweep=[{"name": name} for name in leaving] + [{}])
    out = tmp_path / "sweepout"
    assert cli.main(["sweep", write_config(tmp_path, cfg), "--out", str(out), "--quiet", "--t-end", "0.05"]) == 1
    with open(out / "report.csv", newline="") as fh:
        status = [r[1] for r in list(csv.reader(fh))[1:]]
    for k, name in enumerate(leaving):
        assert status[k] == f"error: sweep[{k}].name: {name!r} names a directory outside {str(out)!r}"
    assert status[3] in ("pass", "fail")
    assert sorted(p.name for p in out.iterdir()) == ["base_03", "report.csv", "report.txt"]
    assert not outside.exists() and not env_base.exists()


@pytest.fixture
def union_calls(monkeypatch):
    """The agent counts of the runs in each call of sim.simulate_union, in call order."""
    calls = []
    simulate_union = cli.sim.simulate_union

    def counted(cfgs, sinks=None):
        calls.append([cfg.graph.n_nodes for cfg in cfgs])
        return simulate_union(cfgs, sinks)

    monkeypatch.setattr(cli.sim, "simulate_union", counted)
    return calls


def assert_entries_write_what_run_writes(tmp_path, base, entries, out, ran=None):
    # each entry that ran holds in its directory the bytes `cohsync run` writes for its merged config
    for k, overrides in enumerate(entries):
        if ran is not None and k not in ran:
            continue
        name = f"{base['name']}_{k:02d}"
        cfg_path = write_config(tmp_path, dict(with_overrides(base, overrides), name=name), f"{name}.yaml")
        lone = tmp_path / "lone" / name
        assert cli.main(["run", cfg_path, "--out", str(lone), "--quiet"]) in (0, 1)
        for artifact in ARTIFACTS:
            assert (out / name / artifact).read_bytes() == (lone / artifact).read_bytes(), (name, artifact)


def test_sweep_entries_in_one_union_write_what_run_writes(tmp_path, union_calls):
    base = fast_passing_config(name="u", disturbance={"kind": "chirp"})
    base["integration"] = {**base["integration"], "t_end": 1.0}
    entries = [
        {"integration": {"seed": 1}},
        {"integration": {"seed": 2}, "graph": {"generation": 2}},
        {"integration": {"seed": 3}, "protocol": {"rho0": 0.5}},
        {"integration": {"seed": 4}, "graph": {"generation": 2}, "protocol": {"rho0": 0.5}},
    ]
    # each graph's rows are coupled by its own graph's map, as alone, so the bytes agree
    out = tmp_path / "sweepout"
    cfg_path = write_config(tmp_path, dict(base, sweep=entries))
    assert cli.main(["sweep", cfg_path, "--out", str(out), "--quiet"]) in (0, 1)
    assert union_calls == [[5, 25, 5, 25]]
    assert_entries_write_what_run_writes(tmp_path, base, entries, out)
    # undirected fractals and an undirected circulant, where rows hear several neighbours
    union_calls.clear()
    base = dict(base, name="w", graph={"kind": "vicsek", "generation": 1, "directed": False})
    entries = [
        {"integration": {"seed": 1}},
        {"integration": {"seed": 2}, "graph": {"generation": 2}},
        {"integration": {"seed": 3}, "graph": {"generation": 3}, "protocol": {"rho0": 0.5}},
        {"integration": {"seed": 4}, "protocol": {"d": 0.2}},
    ]
    out = tmp_path / "undirectedout"
    cfg_path = write_config(tmp_path, dict(base, sweep=entries))
    assert cli.main(["sweep", cfg_path, "--out", str(out), "--quiet"]) in (0, 1)
    assert union_calls == [[5, 25, 121, 5]]
    assert_entries_write_what_run_writes(tmp_path, base, entries, out)
    # copies of one undirected graph, each entry with its own d or delta, coupled by one
    # batched product that is each copy's lone product, then a distinct undirected circulant
    union_calls.clear()
    ring = {"kind": "circulant", "n": 30, "offsets": [1, 2], "directed": False}
    base = dict(base, name="v", graph=ring)
    entries = [
        {"integration": {"seed": 1}},
        {"integration": {"seed": 2}, "protocol": {"d": 0.05}},
        {"integration": {"seed": 3}, "protocol": {"delta": 1.5}},
        {"integration": {"seed": 4}, "protocol": {"d": 0.2, "delta": 1.0, "rho0": 0.5}},
        {"integration": {"seed": 5}, "graph": {"n": 17, "offsets": [1, 3]}},
    ]
    out = tmp_path / "ringout"
    cfg_path = write_config(tmp_path, dict(base, sweep=entries))
    assert cli.main(["sweep", cfg_path, "--out", str(out), "--quiet"]) in (0, 1)
    assert union_calls == [[30] * 4 + [17]]
    assert_entries_write_what_run_writes(tmp_path, base, entries, out)


def test_sweep_entry_that_switches_a_kind_replaces_the_section(tmp_path):
    # graph.generation and disturbance.path are fields of the base's kinds, not of
    # the entry's, so a section of another kind replaces the base's instead of merging
    (tmp_path / "w.csv").write_text("t,w1,w2,w3,w4,w5\n0,0,0,0,0,0\n1,0.5,-0.5,0.5,-0.5,0.5\n")
    base = fast_passing_config(name="k", disturbance={"kind": "custom-table", "path": str(tmp_path / "w.csv")})
    base["integration"] = {**base["integration"], "t_end": 1.0}
    switched = {"graph": {"kind": "circulant", "n": 7}, "disturbance": {"kind": "chirp"}}
    entries = [switched, {"graph": {"generation": 1}}]  # the second merges into the base's graph
    out = tmp_path / "sweepout"
    assert cli.main(["sweep", write_config(tmp_path, dict(base, sweep=entries)), "--out", str(out), "--quiet"]) in (0, 1)
    with open(out / "report.csv", newline="") as fh:
        assert not any(row[1].startswith("error") for row in list(csv.reader(fh))[1:])
    for name, cfg in (("k_00", dict(base, **switched)), ("k_01", base)):
        lone = tmp_path / "lone" / name
        cfg_path = write_config(tmp_path, dict(cfg, name=name), f"{name}.yaml")
        assert cli.main(["run", cfg_path, "--out", str(lone), "--quiet"]) in (0, 1)
        for artifact in ARTIFACTS:
            assert (out / name / artifact).read_bytes() == (lone / artifact).read_bytes(), (name, artifact)
    assert yaml.safe_load((out / "k_00" / "metadata.yaml").read_text())["config"]["graph"]["n"] == 7


def test_sweep_entry_that_switches_the_model_variant_replaces_it(tmp_path):
    # a named preset and inline matrices are the model's two variants: an entry of the
    # other variant replaces the base's model, one of the same variant merges into it
    model = cli.linalg.triple_integrator()
    inline = {"A": model.A.tolist(), "B": model.B.tolist(), "E": model.E.tolist()}
    damped = {"A": (model.A - 0.5 * np.eye(3)).tolist()}
    preset = {"preset": "triple-integrator"}
    for k, (base_model, entries, expected) in enumerate((
        (preset, [inline, {}], [inline, preset]),
        (inline, [preset, damped], [preset, {**inline, **damped}]),
    )):
        cfg = fast_passing_config(name=f"m{k}", model=base_model, sweep=[{"model": m} for m in entries])
        out = tmp_path / f"sweep{k}"
        assert cli.main(["sweep", write_config(tmp_path, cfg), "--out", str(out), "--quiet", "--t-end", "0.05"]) == 1
        with open(out / "report.csv", newline="") as fh:
            assert not any(row[1].startswith("error") for row in list(csv.reader(fh))[1:])
        for idx, model_cfg in enumerate(expected):
            meta = yaml.safe_load((out / f"m{k}_{idx:02d}" / "metadata.yaml").read_text())
            assert meta["config"]["model"] == model_cfg, (k, idx)


def test_sweep_entry_named_after_a_sweep_report_is_refused(tmp_path):
    # the sweep writes report.csv and report.txt into its directory, so no entry may take those names
    cfg = fast_passing_config(sweep=[{"name": "report.csv"}, {}, {"name": "report.txt"}])
    out = tmp_path / "sweepout"
    assert cli.main(["sweep", write_config(tmp_path, cfg), "--out", str(out), "--quiet", "--t-end", "0.05"]) == 1
    with open(out / "report.csv", newline="") as fh:
        status = [r[1] for r in list(csv.reader(fh))[1:]]
    assert status[0] == "error: sweep[0].name: 'report.csv' is already a report file of the sweep"
    assert status[2] == "error: sweep[2].name: 'report.txt' is already a report file of the sweep"
    assert not status[1].startswith("error")
    assert (out / "report.txt").is_file()
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["exp_01"]


def test_sweep_groups_entries_by_design_below_the_union_bound(tmp_path, monkeypatch, union_calls, capsys):
    # two recording grids alternate: each union gathers the entries of one grid, in entry order
    entries = [{"integration": {"seed": s, "record_every": r}} for s in range(4) for r in (10, 5)]
    cfg = fast_passing_config(sweep=entries)
    out = tmp_path / "sweepout"
    assert cli.main(["sweep", write_config(tmp_path, cfg), "--out", str(out), "--t-end", "0.05"]) in (0, 1)
    assert union_calls == [[5] * 4, [5] * 4]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == [f"[{k}]" for k in range(8)]
    # a union stays below UNION_AGENTS agents, and an entry that large runs alone
    union_calls.clear()
    monkeypatch.setattr(cli, "UNION_AGENTS", 25)
    large = {"graph": {"generation": 2}}
    cfg = fast_passing_config(sweep=[large] + [{"integration": {"seed": s}} for s in range(6)] + [large])
    assert cli.main(["sweep", write_config(tmp_path, cfg), "--out", str(out), "--quiet", "--t-end", "0.05"]) in (0, 1)
    assert union_calls == [[25], [5] * 4, [5] * 2, [25]]


def test_sweep_union_with_a_diverging_member_reports_each_entry_as_alone(tmp_path, union_calls, capsys):
    # one unstable scalar agent, x = x0 e^{5t}: seed 7 draws x0 = 1.25 and crosses 1e12
    # near t = 5.5, while seeds 39 and 227 draw |x0| < 0.04 and stay below it up to t = 6
    (tmp_path / "one.txt").write_text("nodes 1\n")
    base = fast_passing_config(
        name="div",
        model={"A": [[5.0]], "B": [[1.0]], "E": [[1.0]]},
        graph={"kind": "edge-list", "path": str(tmp_path / "one.txt")},
        integration={"dt": 1e-3, "t_end": 6.0, "record_every": 100, "seed": 7},
    )
    entries = [{"integration": {"seed": s}} for s in (7, 39, 227)]
    out = tmp_path / "sweepout"
    assert cli.main(["sweep", write_config(tmp_path, dict(base, sweep=entries)), "--out", str(out), "--quiet"]) == 1
    assert union_calls == [[1, 1, 1], [1], [1], [1]]
    with open(out / "report.csv", newline="") as fh:
        status = [r[1] for r in list(csv.reader(fh))[1:]]
    lone_path = write_config(tmp_path, dict(base, name="div_00"), "div_00.yaml")
    assert cli.main(["run", lone_path, "--out", str(tmp_path / "lone_00"), "--quiet"]) == 4
    err = capsys.readouterr().err
    assert status[0] == "error: " + err.removeprefix("simulation diverged: ").rstrip("\n")
    assert "agent 1 at t=5.4" in status[0]
    assert status[1:] == ["pass", "pass"]  # a lone agent has no disagreement to judge
    assert not (out / "div_00").exists()  # made before the run and removed, as by `cohsync run`
    assert not (tmp_path / "lone_00").exists()
    assert not list(out.rglob("*.part"))  # the union's CSVs, and the rerun's, were removed or moved
    assert_entries_write_what_run_writes(tmp_path, base, entries, out, ran=(1, 2))


def test_a_diverging_run_removes_only_the_directories_it_made(tmp_path, capsys):
    # the unstable one-agent model above: x = 1.25 e^{5t} crosses 1e12 near t = 5.5
    (tmp_path / "one.txt").write_text("nodes 1\n")
    path = write_config(tmp_path, fast_passing_config(
        name="div",
        model={"A": [[5.0]], "B": [[1.0]], "E": [[1.0]]},
        graph={"kind": "edge-list", "path": str(tmp_path / "one.txt")},
        integration={"dt": 1e-3, "t_end": 6.0, "record_every": 100, "seed": 7},
    ))
    out = tmp_path / "made" / "deeper" / "div"
    assert cli.main(["run", path, "--out", str(out), "--quiet"]) == 4
    assert "simulation diverged" in capsys.readouterr().err
    assert not (tmp_path / "made").exists()  # every directory the run made, and nothing else
    assert (tmp_path / "one.txt").exists()
    # a directory that was there before the run stays, empty or not, and so does an earlier run's CSV
    for kept in ("empty", "full"):
        (tmp_path / kept).mkdir()
    (tmp_path / "full" / "notes.txt").write_text("kept\n")
    (tmp_path / "full" / "trajectory.csv").write_bytes(b"t,agent\r\n0.0,1\r\n")
    for kept in ("empty", "full"):
        assert cli.main(["run", path, "--out", str(tmp_path / kept), "--quiet"]) == 4
    assert (tmp_path / "empty").is_dir() and not any((tmp_path / "empty").iterdir())
    assert (tmp_path / "full" / "notes.txt").read_text() == "kept\n"
    assert (tmp_path / "full" / "trajectory.csv").read_bytes() == b"t,agent\r\n0.0,1\r\n"
    # below a directory that was there before, only the part the run made goes
    assert cli.main(["run", path, "--out", str(tmp_path / "full" / "new" / "div"), "--quiet"]) == 4
    assert sorted(p.name for p in (tmp_path / "full").iterdir()) == ["notes.txt", "trajectory.csv"]


def test_a_run_holds_no_record_however_many_samples(tmp_path):
    # fig3c's graph (121 agents on the directed fractal), a sample every step, only the report written: the
    # loop hands each sample to the verdict, which keeps running figures, so 4x the samples (501 and 2,001)
    # peak within a fraction of one sample's record of t, x and rho, where a held record grew by 5.8 MB.
    # The verdict's tail figures, 3 KB, count towards the peak only if a block of disturbance terms is
    # evaluated in the tail window: both tails hold several blocks of 30 steps
    sample = 8 * (1 + 3 * 121 + 121)

    def peak(t_end):
        cfg = fast_passing_config(
            graph={"kind": "vicsek", "generation": 3, "directed": True},
            disturbance={"kind": "chirp"},
            integration={"dt": 1e-3, "t_end": t_end, "record_every": 1, "seed": 7},
            output={"formats": ["report"]},
        )
        out = tmp_path / f"out{t_end}"
        argv = ["run", write_config(tmp_path, cfg, f"exp{t_end}.yaml"), "--out", str(out), "--quiet"]
        gc.collect()  # garbage of earlier runs is freed now, not at some point of the traced one
        tracemalloc.start()
        try:
            assert cli.main(argv) in (0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(p.name for p in out.iterdir()) == ["metadata.yaml", "report.csv", "report.txt"]
        return peak

    peak(0.05)  # first-call caches
    short, long = peak(0.5), peak(2.0)
    assert abs(long - short) < sample / 4


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
