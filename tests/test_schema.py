"""The config schema: one refusal per field rule, a fuzz drawn from cli.SCHEMA, README's config block, and
load_config's YAML parse against yaml.safe_load on every shipped config, on drawn ones and on mutated ones."""

import math
import re
from functools import partial
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cohsync import cli
from cohsync.linalg import AssumptionError

BASE = {
    "graph": {"kind": "vicsek", "generation": 1, "directed": True},
    "protocol": {"d": 0.5},
    "disturbance": {"kind": "zero"},
    "integration": {"dt": 1e-3, "t_end": 6.0, "record_every": 10, "seed": 7},
}
INLINE = {"A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [1.0]], "E": [[0.0], [1.0]]}

# one refused input per field rule, as sections that replace BASE's, with the
# path its error must lead with; all exit 2
REFUSALS = {
    # wrong type
    "name not a string": ({"name": 5}, "name"),
    "section not a mapping": ({"protocol": [0.5]}, "protocol"),
    "matrix not a list of rows": ({"model": {**INLINE, "A": "x"}}, "model.A"),
    "matrix entry not a number": ({"model": {**INLINE, "B": [[0.0], ["x"]]}}, "model.B[1]"),
    "generation not an integer": ({"graph": {"kind": "vicsek", "generation": 1.5}}, "graph.generation"),
    "directed not a flag": ({"graph": {"kind": "vicsek", "directed": "yes"}}, "graph.directed"),
    "offsets not a list": ({"graph": {"kind": "circulant", "n": 5, "offsets": 1}}, "graph.offsets"),
    "edge-list path not a string": ({"graph": {"kind": "edge-list", "path": 5}}, "graph.path"),
    "rho0 not a number": ({"protocol": {"d": 0.5, "rho0": "x"}}, "protocol.rho0"),
    "table path not a string": ({"disturbance": {"kind": "custom-table", "path": 5}}, "disturbance.path"),
    "dt not a number": ({"integration": {"dt": "x"}}, "integration.dt"),
    "directory not a string": ({"output": {"directory": 5}}, "output.directory"),
    "formats not a list": ({"output": {"formats": "report"}}, "output.formats"),
    "require_settled not a flag": ({"checks": {"require_settled": "no"}}, "checks.require_settled"),
    "sweep not a list": ({"sweep": {"protocol": {"d": 0.2}}}, "sweep"),
    "sweep entry not a mapping": ({"sweep": [1]}, "sweep[0]"),
    # out of bounds
    "d not positive": ({"protocol": {"d": -0.5}}, "protocol.d"),
    "delta not positive": ({"protocol": {"delta": 0.0}}, "protocol.delta"),
    "negative gain": ({"protocol": {"d": 0.5, "rho0": [0.0, -1.0]}}, "protocol.rho0"),
    "generation below 1": ({"graph": {"kind": "vicsek", "generation": 0}}, "graph.generation"),
    "circulant below 2 nodes": ({"graph": {"kind": "circulant", "n": 1}}, "graph.n"),
    "offset below 1": ({"graph": {"kind": "circulant", "n": 5, "offsets": [1, 0]}}, "graph.offsets"),
    "dt not positive": ({"integration": {"dt": 0.0}}, "integration.dt"),
    "record_every below 1": ({"integration": {"record_every": 0}}, "integration.record_every"),
    "negative seed": ({"integration": {"seed": -1}}, "integration.seed"),
    "t_end below dt": ({"integration": {"dt": 1e-3, "t_end": 1e-4}}, "integration.t_end"),
    "no formats": ({"output": {"formats": []}}, "output.formats"),
    "unknown format": ({"output": {"formats": ["parquet"]}}, "output.formats"),
    "bound not positive": ({"checks": {"bound": -1.0}}, "checks.bound"),
    "tol not positive": ({"checks": {"tol": 0.0}}, "checks.tol"),
    "tail_fraction not below 1": ({"checks": {"tail_fraction": 1.0}}, "checks.tail_fraction"),
    # unknown field
    "unknown top-level field": ({"extra": 1}, "config.extra"),
    "unknown model field": ({"model": {**INLINE, "C": [[1.0]]}}, "model.C"),
    "unknown graph field": ({"graph": {"kind": "vicsek", "n": 5}}, "graph.n"),
    "unknown protocol field": ({"protocol": {"d": 0.5, "gain": 1.0}}, "protocol.gain"),
    "unknown disturbance field": ({"disturbance": {"kind": "zero", "path": "w.csv"}}, "disturbance.path"),
    "unknown integration field": ({"integration": {"stepsize": 1e-3}}, "integration.stepsize"),
    "unknown output field": ({"output": {"dir": "out"}}, "output.dir"),
    "unknown checks field": ({"checks": {"tolerance": 1e-3}}, "checks.tolerance"),
    # missing required field
    "no graph kind": ({"graph": {"generation": 1}}, "graph.kind"),
    "no circulant size": ({"graph": {"kind": "circulant"}}, "graph.n"),
    "no edge-list path": ({"graph": {"kind": "edge-list"}}, "graph.path"),
    "no table path": ({"disturbance": {"kind": "custom-table"}}, "disturbance.path"),
    "neither d nor delta": ({"protocol": {"rho0": 0.0}}, "protocol"),
    # a path narrowed from "model" to the missing matrix
    "inline model without B": ({"model": {"A": [[0.0]], "E": [[1.0]]}}, "model.B"),
    # a path narrowed from "model" to the first matrix beside the preset
    "preset and matrices": ({"model": {"preset": "triple-integrator", **INLINE}}, "model.A"),
    # unknown kind
    "unknown graph kind": ({"graph": {"kind": "moebius"}}, "graph.kind"),
    "unknown disturbance kind": ({"disturbance": {"kind": "noise"}}, "disturbance.kind"),
    "unknown model preset": ({"model": {"preset": "double-integrator"}}, "model.preset"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_each_field_rule_refuses_with_its_path(tmp_path, capsys, case):
    sections, field = REFUSALS[case]
    path = tmp_path / "exp.yaml"
    path.write_text(yaml.safe_dump({**BASE, **sections}))
    assert cli.main(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")


HUGE = 10**400  # an integer beyond the float range
# values that stand in for a field's own: wrong types, non-finite numbers, huge integers
ODD = st.sampled_from([None, True, "x", [], {}, [1.0], math.inf, -math.inf, math.nan, HUGE, -HUGE])
# the largest value drawn where a value sets the run's size, for run time only
SIZES = {"graph.generation": 3, "graph.n": 60, "graph.offsets": 3}
MAX_DIM = 4


def accepted(check, path):
    """Values that the field's check accepts, read off the check."""
    if isinstance(check, partial):
        kw = check.keywords
        if check.func is cli._items:
            return st.lists(accepted(kw["item"], path), min_size=1, max_size=3)
        if check.func is cli._choice:
            return st.sampled_from(kw["allowed"])
        if kw.get("integer"):
            return st.integers(kw["least"], SIZES.get(path, HUGE))
        least, below = 0.0 if kw.get("positive") else kw.get("least"), kw.get("below")
        return st.floats(
            least, below, exclude_min=kw.get("positive", False), exclude_max=below is not None, allow_infinity=False
        )
    gain = st.floats(0.0, allow_infinity=False)
    return {
        cli._flag: st.booleans(),
        cli._text: st.sampled_from(["exp", "no/such/file.csv"]),
        cli._gains: st.one_of(gain, st.lists(gain, min_size=1, max_size=4)),
        cli._overrides: st.lists(st.just({}), max_size=2),
    }[check]


@st.composite
def matrices(draw, rows, cols):
    """Entries of order one times a power of two from anywhere in the float range, often one."""
    scale = draw(st.one_of(st.just(1.0), st.integers(-1074, 1023).map(lambda k: 2.0**k)))
    return [[draw(st.floats(-1.0, 1.0)) * scale for _ in range(cols)] for _ in range(rows)]


@st.composite
def sections(draw, table, path, noise):
    """A raw mapping for one section of the table: each field valid, odd or absent, maybe one unknown field."""
    out = {}
    if isinstance(table, cli.Variants):
        name = draw(st.sampled_from(list(table.table)))
        table = table.table[name][0]
        if "kind" in table:
            out["kind"] = name if draw(st.integers(0, 99)) >= noise else draw(st.sampled_from(["moebius", None]))
    matching = {}
    if "B" in table:  # an inline model: A square, B and E of its height, E often a column of B
        n, m = draw(st.integers(1, MAX_DIM)), draw(st.integers(1, 2))
        A, B = draw(matrices(n, n)), draw(matrices(n, m))
        matching = {"A": A, "B": B, "E": [row[:1] for row in B] if draw(st.booleans()) else draw(matrices(n, 1))}
    for key, field in table.items():
        where = key if path == "config" else f"{path}.{key}"
        how = draw(st.integers(0, 99))
        optional = not isinstance(field, (dict, cli.Variants)) and field[1] is cli.OMITTED
        if key == "kind" or how < noise // 2 or optional and draw(st.booleans()):
            continue  # absent
        if how < noise:
            out[key] = draw(ODD)
        elif isinstance(field, (dict, cli.Variants)):
            out[key] = draw(sections(field, where, noise))
        elif key in matching:
            out[key] = matching[key]
        else:
            out[key] = draw(accepted(field[0], where))
    if draw(st.integers(0, 99)) < noise // 4:
        out["unknown"] = 1
    return out


@st.composite
def raw_configs(draw):
    noise = draw(st.sampled_from([0, 0, 4, 10, 30]))  # percent of fields drawn odd or left out
    if draw(st.integers(0, 99)) < noise // 4:
        return draw(ODD)
    return draw(sections(cli.SCHEMA, "config", noise))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(raw_configs())
def test_a_drawn_config_is_refused_or_normalizes_to_itself(raw):
    try:
        norm = cli.normalize_config(raw, "fuzz")
    except cli.SchemaError:
        return
    assert cli.normalize_config(norm, "other") == norm
    try:
        cli.build_experiment(norm)
    except (cli.SchemaError, AssumptionError):
        pass


def field_names(table):
    """Every field name of a table, its sections' and variants' included."""
    tables = table.table.values() if isinstance(table, cli.Variants) else [(table, None)]
    for fields, _ in tables:
        for key, field in fields.items():
            yield key
            if isinstance(field, (dict, cli.Variants)):
                yield from field_names(field)


ROOT = Path(__file__).resolve().parents[1]


def readme_config_block():
    readme = (ROOT / "README.md").read_text()
    return re.search(r"^## Configs$.*?^```yaml$(.*?)^```$", readme, re.S | re.M).group(1)


def test_readme_config_block_names_every_field_and_normalizes_to_itself():
    block = readme_config_block()
    raw = yaml.safe_load(block)
    assert cli.normalize_config(raw, "readme") == raw
    for name in set(field_names(cli.SCHEMA)):
        assert re.search(rf"\b{re.escape(name)}\b", block), name


def assert_loads_as_safeloader(path):
    """load_config gives the file's mapping as yaml.safe_load does: its types, key order and NaNs too."""
    raw, _ = cli.load_config(str(path))
    assert repr(raw) == repr(yaml.safe_load(path.read_bytes())), path


def test_shipped_configs_load_as_safeloader_loads_them(tmp_path, yaml_loader):
    readme = tmp_path / "readme.yaml"
    readme.write_text(readme_config_block())
    configs, perfbench = sorted(ROOT.glob("configs/*.yaml")), sorted(ROOT.glob("perfbench/*.yaml"))
    assert configs and perfbench
    for path in [*configs, *perfbench, readme]:
        assert_loads_as_safeloader(path)


@settings(
    derandomize=True, deadline=None, max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(raw=raw_configs().filter(lambda raw: isinstance(raw, dict)))
def test_a_drawn_config_loads_as_safeloader_loads_it(tmp_path, yaml_loader, raw):
    path = tmp_path / "drawn.yaml"
    path.write_text(yaml.safe_dump(raw))
    assert_loads_as_safeloader(path)


# texts to mutate: every shipped config, README's block, and the block again in flow style
SHIPPED_TEXTS = [
    *(path.read_bytes() for path in sorted([*ROOT.glob("configs/*.yaml"), *ROOT.glob("perfbench/*.yaml")])),
    readme_config_block().encode(),
    yaml.safe_dump(yaml.safe_load(readme_config_block()), default_flow_style=True).encode(),
]
# what a mutation inserts: bytes and tokens that YAML reads specially, where libyaml and SafeLoader may part
TOKENS = [
    *(c.encode() for c in "[]{}:-,'\"#&*!|>%@`\\?\t\n\r "),
    *(b"\xef\xbb\xbf", b"\xc2\x85", b"\xce\xb4", b"\x07", b"&a", b"*a", b"!!str", b"!!int", b"<<", b"---", b"..."),
    *(b"%YAML 1.3", b"\n- ", b"\n  ", b"|-", b"? ", b"2001-13-45", b"\\x41"),
]


@st.composite
def mutated_configs(draw):
    """A shipped config with a few spans deleted and tokens inserted."""
    text = bytearray(draw(st.sampled_from(SHIPPED_TEXTS)))
    for _ in range(draw(st.integers(1, 6))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            del text[at : at + draw(st.integers(1, 5))]
        else:
            text[at:at] = draw(st.sampled_from(TOKENS))
    return bytes(text)


def parsed(parse, text):
    try:
        return "loaded", repr(parse(text))
    except (yaml.YAMLError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(mutated_configs())
# documents that libyaml reads and SafeLoader refuses, or reads otherwise
@example(b"a:\t1\n")
@example(b"a: [1, 2?]\n")
@example(b"a: |-#\n  t\n")
@example(b"model:\n\xef\xbb\xbf  preset: triple-integrator\n")
def test_a_mutated_config_parses_as_safeloader_parses_it(text):
    # the document, or the message that refuses it, whichever parser cli._parse_yaml handed it to
    assert parsed(cli._parse_yaml, text) == parsed(partial(yaml.load, Loader=yaml.SafeLoader), text)


def test_a_document_nested_past_safeloaders_recursion_is_left_to_it():
    # libyaml would compose all 600 levels
    with pytest.raises(RecursionError):
        cli._parse_yaml(b"a: " + b"[" * 600 + b"]" * 600 + b"\n")


def nested(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize(
    "raw",
    [
        {**BASE, "sweep": [{"a": nested(2000)}]},  # too deep for the deepcopy of the sweep list
        {**BASE, "model": {**INLINE, "A": [[nested(2000)]]}},  # too deep for the repr of the refusal
    ],
    ids=["sweep entry", "model.A"],
)
def test_a_value_nested_too_deeply_is_refused_by_normalize_config(raw):
    with pytest.raises(cli.SchemaError, match="^config: nested too deeply$"):
        cli.normalize_config(raw)
