"""Scenario parsing, the experiment runner, determinism, and the CLI."""

import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import liftreach

from liftreach.cli import main
from liftreach import morphisms
from liftreach import scenario as scenario_module
from liftreach import systems
from liftreach.errors import DimensionMismatch, ParseError, SingularGram, UnresolvedReference
from liftreach.morphisms import Morphism, metric_lift_morphism
from liftreach.runner import run
from liftreach.scenario import (
    builtin_scenario_names,
    builtin_scenario_path,
    expected_verdicts,
    load_builtin,
    parse_scenario,
)

RANK_DROP = Path(__file__).parent / "data" / "rank_drop.json"
POOLED = {"verify", "global-in-time", "liftable"}
EXPECTED_NAMES = ["bundle", "circle", "connection-1d", "double-integrator",
                  "improper", "mobius", "projection"]


def test_builtin_names():
    assert builtin_scenario_names() == EXPECTED_NAMES


def test_all_builtins_parse(scenarios):
    for name, s in scenarios.items():
        assert s.name == name
        assert s.experiments


def test_mobius_scenario_shape(scenarios):
    s = scenarios["mobius"]
    assert set(s.atlases) == {"band", "s1"}
    assert "mlift" in s.morphisms
    assert "mlift.augmented" in s.systems
    assert not s.kernels["mlift"].global_ok  # chartwise sections do not glue


def test_bundle_kernel_is_global(scenarios):
    assert scenarios["bundle"].kernels["blift"].global_ok


def test_all_builtin_verdicts_match_expected(scenario_runs):
    for name, result in scenario_runs.items():
        expected = expected_verdicts(name)
        got = {e["name"]: e["verdict"] for e in result.experiments}
        assert got == expected, f"verdict mismatch in scenario {name!r}"


def test_summaries_are_byte_identical_for_fixed_seed(tmp_path):
    s = load_builtin("circle")
    run(s, seed=5, out_dir=tmp_path / "a")
    run(s, seed=5, out_dir=tmp_path / "b")
    a = (tmp_path / "a" / "summary.json").read_bytes()
    b = (tmp_path / "b" / "summary.json").read_bytes()
    assert a == b


def test_summary_schema(scenario_runs):
    result = scenario_runs["circle"]
    summary = json.loads(json.dumps(result.summary()))
    assert set(summary) == {"scenario", "seed", "experiments"}
    for e in summary["experiments"]:
        assert set(e) == {"name", "kind", "verdict", "metrics"}
        assert isinstance(e["verdict"], bool)


def test_reach_experiments_emit_csv(scenario_runs):
    result = scenario_runs["mobius"]
    reach_exp = next(e for e in result.experiments if e["name"] == "reach-band")
    assert len(reach_exp["metrics"]["artifacts"]) == 5


def test_parse_error_unknown_atlas_kind():
    with pytest.raises(ParseError, match="unknown atlas kind"):
        parse_scenario({"atlases": {"m": {"kind": "sphere"}}})


def test_parse_error_bad_expression():
    spec = {
        "atlases": {"m": {"kind": "interval", "box": [-1, 1]}},
        "fields": {"f": {"atlas": "m", "exprs": ["frob(x)"]}},
    }
    with pytest.raises(ParseError, match="unknown function 'frob'"):
        parse_scenario(spec)


def test_parse_error_invalid_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ParseError, match="invalid JSON"):
        parse_scenario(p)


def test_unresolved_references():
    with pytest.raises(UnresolvedReference):
        parse_scenario({"fields": {"f": {"atlas": "ghost", "exprs": ["1"]}}})
    with pytest.raises(UnresolvedReference):
        parse_scenario({
            "atlases": {"m": {"kind": "interval", "box": [-1, 1]}},
            "systems": {"s": {"atlas": "m", "generators": ["ghost"]}},
        })
    with pytest.raises(UnresolvedReference):
        parse_scenario({"experiments": [{"kind": "reach", "system": "ghost",
                                         "grid": 4, "dwell": 0.1,
                                         "horizon": 1.0}]})
    projection = {
        "atlases": {"plane": {"kind": "box", "box": [[-1, 1], [-1, 1]]},
                    "line": {"kind": "interval", "box": [-2, 2]}},
        "maps": {"proj": {"source": "plane", "target": "line", "exprs": ["x"]}},
        "fields": {"right": {"atlas": "line", "exprs": ["1"]}},
        "systems": {"down": {"atlas": "line", "generators": ["right"]}},
    }
    double_integrator = {
        "second_order": {"di": {"base": "line", "gamma": ["0"], "g": [["1"]]}},
    }
    ghost_kernel = {"mode": "global", "generators": ["ghost"]}
    for extra in (
        {"morphisms": {"m": {"map": "proj", "target_system": "down",
                             "kernel": ghost_kernel}}},
        {**double_integrator,
         "so_lifts": {"l": {"source": "di", "map": "proj", "kernel": ghost_kernel}}},
        {"connections": {"c": {"atlas": "line", "christoffel": [[["0"]]],
                               "controls": ["ghost"]}}},
    ):
        with pytest.raises(UnresolvedReference, match="'ghost'"):
            parse_scenario({**projection, **extra})


def test_unknown_experiment_kind():
    with pytest.raises(ParseError, match="unknown experiment kind"):
        parse_scenario({"experiments": [{"kind": "teleport"}]})


LINE = {"atlases": {"line": {"kind": "interval", "box": [-2, 2]}},
        "fields": {"right": {"atlas": "line", "exprs": ["1"]}},
        "systems": {"down": {"atlas": "line", "generators": ["right"]}}}


def test_reach_without_a_start_is_a_parse_error():
    with pytest.raises(ParseError, match=r"^r: a reach experiment needs 'start' or 'starts'$"):
        parse_scenario({**LINE, "experiments": [
            {"name": "r", "kind": "reach", "system": "down", "grid": 4, "dwell": 0.1,
             "horizon": 1.0}]})


def test_field_without_exprs_is_a_parse_error():
    with pytest.raises(ParseError, match=r"^f: missing 'exprs'$"):
        parse_scenario({"atlases": LINE["atlases"], "fields": {"f": {"atlas": "line"}}})


def test_map_without_exprs_is_a_parse_error():
    with pytest.raises(ParseError, match=r"^p: missing 'exprs'$"):
        parse_scenario({"atlases": LINE["atlases"],
                        "maps": {"p": {"source": "line", "target": "line"}}})


def test_box_atlas_without_box_is_a_parse_error():
    with pytest.raises(ParseError, match=r"^plane: missing 'box'$"):
        parse_scenario({"atlases": {"plane": {"kind": "box"}}})


PLANE = {"atlases": {**LINE["atlases"], "plane": {"kind": "box", "box": [[-1, 1], [-1, 1]]}}}


def _connection(christoffel):
    return {"atlases": LINE["atlases"],
            "connections": {"c": {"atlas": "line", "christoffel": christoffel}}}


def _bent(jacobian):
    return {**PLANE, "maps": {"p": {"source": "plane", "target": "line", "exprs": ["x"],
                                    "jacobian": jacobian}}}


@pytest.mark.parametrize("spec, where", [
    pytest.param(_connection([[["0"]], [["0"]]]), "'c'", id="christoffel-2x1x1"),
    pytest.param(_connection([[["0"], ["0"]]]), "'c'", id="christoffel-1x2x1"),
    pytest.param(_connection([["0.1"]]), "'c'", id="christoffel-1x1"),
    pytest.param({"atlases": {"plane": {"kind": "box", "box": [[-1, 1], [-1, 1]],
                                        "metric": [["1", "0"]]}}}, "'plane'",
                 id="metric-1x2"),
    pytest.param(_bent([["1"]]), "'p'", id="jacobian-1x1"),
    pytest.param(_bent([["1", "0", "0"]]), "'p'", id="jacobian-1x3"),
])
def test_misshapen_expression_arrays_are_dimension_mismatches(spec, where):
    """A metric is d x d, a map Jacobian target dim x source dim and Christoffel
    symbols n x n x n; any other nesting is named at parse time."""
    with pytest.raises(DimensionMismatch, match=f"of {where} must be"):
        parse_scenario(spec)


def test_list_for_a_reference_name_is_a_parse_error():
    with pytest.raises(ParseError, match=r"^down: expected a name, got \['right'\]$"):
        parse_scenario({**LINE, "systems": {"down": {"atlas": "line",
                                                     "generators": [["right"]]}}})


KINDS = {
    "atlases": {**LINE["atlases"], "plane": {"kind": "box", "box": [[-1, 1], [-1, 1]]}},
    "maps": {"proj": {"source": "plane", "target": "line", "exprs": ["x"],
                      "jacobian": [["1", "0"]]}},
    "fields": {**LINE["fields"], "drift": {"atlas": "plane", "exprs": ["1", "0"]}},
    "systems": {**LINE["systems"], "flat": {"atlas": "plane", "generators": ["drift"]}},
    "morphisms": {"m": {"map": "proj", "target_system": "down"}},
    "second_order": {"di": {"base": "line", "gamma": ["0"], "g": [["1"]]}},
}

# one experiment of each kind with exactly the keys its handler cannot do without
MINIMAL = {
    "reach": {"system": "down", "grid": 4, "dwell": 0.5, "horizon": 1.0,
              "start": {"coords": [0.0]}},
    "reachability-set": {"system": "down", "points": [{"coords": [0.0]}], "grid": 4,
                         "dwell": 0.5, "horizon": 1.0},
    "stlc": {"system": "down", "start": {"coords": [0.0]}, "times": [0.5], "grid": 4},
    "verify": {"morphism": "m", "target_system": "down"},
    "global-in-time": {"morphism": "m", "target_system": "down", "horizon": 0.5,
                       "starts": [{"coords": [0.0, 0.0]}]},
    "liftable": {"upstairs": "m.system", "downstairs": "down", "map": "proj"},
    "roundtrip": {"system": "down"},
    "second-order-check": {"system": "di"},
    "geodesic-check": {"system": "flat", "start": {"coords": [0.0, 0.0]}, "c": 0.5,
                       "times": [0.1]},
}


@pytest.mark.parametrize("kind", sorted(MINIMAL))
def test_missing_experiment_key_is_a_parse_error(kind, tmp_path):
    """Each key a handler reads without a default is checked at parse time;
    with all of them an unnamed experiment runs under its default name."""
    for key in MINIMAL[kind]:
        exp = {k: v for k, v in MINIMAL[kind].items() if k != key}
        message = ("a reach experiment needs 'start' or 'starts'"
                   if (kind, key) == ("reach", "start") else f"missing {key!r}")
        with pytest.raises(ParseError, match=f"^e: {message}$"):
            parse_scenario({**KINDS, "experiments": [{"name": "e", "kind": kind, **exp}]})
    s = parse_scenario({**KINDS, "experiments": [{"kind": kind, **MINIMAL[kind]}]})
    result = run(s, out_dir=tmp_path)
    assert [e["name"] for e in result.experiments] == ["experiment-0"]
    # a reach names its CSVs after the experiment, here its default name
    assert result.artifacts == (["experiment-0_0.csv"] if kind == "reach" else [])
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(result.artifacts
                                                                + ["summary.json"])


BAD_VALUES = [3, None, "zz", [1, 2]]


def _section_mutations():
    """Each section of every built-in but its name, and each entry of one,
    replaced by a value of the wrong kind, with the place a ParseError must
    name: the section, or the entry as section[key]. A list is the right
    kind for experiments, so [1, 2] there fails at its first entry."""
    for name in EXPECTED_NAMES:
        data = json.loads(builtin_scenario_path(name).read_text())
        for section, value in data.items():
            if section == "name":
                continue
            for key in [None, *(value if isinstance(value, dict) else range(len(value)))]:
                for bad in BAD_VALUES:
                    where = section if key is None else f"{section}[{key!r}]"
                    if key is None and section == "experiments" and isinstance(bad, list):
                        where = "experiments[0]"
                    yield pytest.param(name, section, key, bad, where,
                                       id=f"{name}-{section}-{key}-{bad!r}")


@pytest.mark.parametrize("name, section, key, bad, where", list(_section_mutations()))
def test_malformed_sections_are_parse_errors(name, section, key, bad, where):
    data = json.loads(builtin_scenario_path(name).read_text())
    if key is None:
        data[section] = bad
    else:
        data[section][key] = bad
    with pytest.raises(ParseError) as err:
        parse_scenario(data)
    assert err.value.where == where


# (built-in, section, entry, key, values): one entry for each key and value
# kind of the built-ins that once escaped as TypeError, AttributeError,
# ValueError or IndexError from a mutation of one key of one entry
ENTRY_MUTATIONS = [
    ("circle", "atlases", "band", "box", [3, None, "zz"]),
    ("projection", "atlases", "plane", "box", BAD_VALUES),
    ("circle", "atlases", "band", "coords", [3]),
    ("connection-1d", "atlases", "qline", "coords", [[1, 2]]),
    ("double-integrator", "atlases", "qline", "coords", [[1, 2]]),
    ("improper", "atlases", "holey", "charts", BAD_VALUES),
    ("mobius", "atlases", "s1", "period", [[1, 2]]),
    ("bundle", "fields", "vert", "exprs", [[1, 2]]),
    ("bundle", "systems", "rotsys", "generators", [3, None]),
    ("bundle", "morphisms", "blift", "kernel", [3, "zz", [1, 2]]),
    ("bundle", "experiments", 0, "kind", [[1, 2]]),
    ("double-integrator", "second_order", "di", "g", [3, None]),
    ("double-integrator", "second_order", "di", "v_bound", [None, "zz", [1, 2]]),
    ("double-integrator", "second_order", "di", "control_samples", [3, "zz", [1, 2]]),
    ("double-integrator", "so_lifts", "dil", "control_amplitude", [None, "zz", [1, 2]]),
    ("double-integrator", "so_lifts", "dil", "kernel", [3, "zz", [1, 2]]),
    ("connection-1d", "connections", "conn", "controls", [3, None]),
    ("connection-1d", "connections", "conn", "v_bound", [None, "zz", [1, 2]]),
]


@pytest.mark.parametrize("name, section, entry, key, bad", [
    pytest.param(*case[:4], bad, id=f"{case[0]}-{case[1]}-{case[2]}-{case[3]}-{bad!r}")
    for case in ENTRY_MUTATIONS for bad in case[4]])
def test_malformed_entry_values_are_parse_errors(name, section, entry, key, bad):
    """A value of the wrong kind inside an entry raises ParseError naming the
    entry: its key, or for an experiment its name."""
    data = json.loads(builtin_scenario_path(name).read_text())
    where = data[section][entry].get("name", entry) if section == "experiments" else entry
    data[section][entry][key] = bad
    with pytest.raises(ParseError) as err:
        parse_scenario(data)
    assert err.value.where == where


def _nested_mutations():
    """A kernel frame mode of the wrong kind or value, and Christoffel symbols
    of a 2-D connection that are not symmetric, with the entry a ParseError
    must name."""
    for name, path in [("mobius", ("morphisms", "mlift")),
                       ("double-integrator", ("so_lifts", "dil"))]:
        for bad in BAD_VALUES:
            data = json.loads(builtin_scenario_path(name).read_text())
            data[path[0]][path[1]]["kernel"]["mode"] = bad
            yield pytest.param(data, path[1], id=f"{name}-{path[1]}-kernel-mode-{bad!r}")
    data = {"atlases": {"plane": {"kind": "box", "box": [[-1, 1], [-1, 1]]}},
            "connections": {"conn": {"atlas": "plane", "christoffel": [
                [["0", "x"], ["0", "0"]], [["0", "0"], ["0", "0"]]]}}}
    yield pytest.param(data, "conn", id="box-conn-christoffel-not-symmetric")


@pytest.mark.parametrize("data, where", list(_nested_mutations()))
def test_malformed_nested_values_are_parse_errors(data, where):
    with pytest.raises(ParseError) as err:
        parse_scenario(data)
    assert err.value.where == where


NOT_NUMBERS = [None, "zz", [1, 2], True, {}, float("inf")]


def _refused(key, value):
    """Values of an experiment's number, flag or point key that its handler
    cannot take, given the built-in's own value: not numbers, counts that are
    not whole and positive, durations and steps that are not positive, flags
    that are not true or false (nine of them are more than any built-in stlc
    has times), and points that are not objects with coordinates in one
    chart of the atlas."""
    if key in ("grid", "substeps", "samples", "schedules"):
        return NOT_NUMBERS + [0, -1, 2.5]
    if key in ("dwell", "step"):
        return NOT_NUMBERS + [0, -0.5]
    if key == "horizon":
        return NOT_NUMBERS + [-1.0]
    if key == "times":
        return [None, "zz", 0.5, [0.5, "zz"], [0.5, 0.0], [-1.0], [[0.5]], [True]]
    if key in ("c", "tol", "tolerance"):
        return NOT_NUMBERS
    if key in ("expect", "verify"):
        return [None, "yes", "pass", 1, 0, 0.5, {}, [[True]], [True, "yes"], [True] * 9]
    if key == "min_coverage":  # null means no minimum
        return NOT_NUMBERS[1:]
    point = value if key == "start" else value[0]
    wrong = [3, "zz", [0.1], {}, {"chart": point.get("chart", "c0")},
             {"coords": "zz"}, {"coords": point["coords"] + [0.0]},
             {"chart": "nowhere", "coords": point["coords"]},
             {"chart": [1], "coords": point["coords"]}]
    return [None] + (wrong if key == "start" else ["zz", point] + [[p] for p in wrong])


def _experiment_value_keys():
    for name in EXPECTED_NAMES:
        data = json.loads(builtin_scenario_path(name).read_text())
        for i, exp in enumerate(data.get("experiments", [])):
            for key in exp:
                if key in ("grid", "substeps", "samples", "schedules", "dwell", "step",
                           "horizon", "times", "c", "tol", "min_coverage", "start",
                           "starts", "points", "expect", "verify"):
                    yield pytest.param(name, i, key, id=f"{name}-{exp['name']}-{key}")


@pytest.mark.parametrize("name, index, key", list(_experiment_value_keys()))
def test_malformed_experiment_values_are_parse_errors(scenarios, name, index, key):
    """Every number, flag and point key of every built-in experiment raises
    ParseError naming the experiment for each value its handler cannot take.
    The first such value goes through parse_scenario, the others through the
    experiment check of the parsed built-in, which is parsing's last step."""
    s = scenarios[name]
    exp = s.raw["experiments"][index]
    refused = _refused(key, exp[key])
    with pytest.raises(ParseError) as err:
        parse_scenario({**s.raw, "experiments": [{**exp, key: refused[0]}]})
    assert err.value.where == exp["name"]
    for bad in refused[1:]:
        with pytest.raises(ParseError) as err:
            scenario_module._validate_experiments(replace(s, experiments=[{**exp, key: bad}]))
        assert err.value.where == exp["name"], bad


@pytest.mark.parametrize("kind", sorted(MINIMAL))
def test_kind_defaults_are_what_its_handler_reads(kind, tmp_path):
    """An experiment that spells out every default of its kind writes the
    bytes of one that omits them, and each number or flag among the defaults
    refuses what the sweep above refuses, null too unless it is the default.
    Every kind has a minimal experiment, so a new kind cannot land untested."""
    from liftreach import runner

    assert set(MINIMAL) == set(runner._KINDS)
    defaults = runner._KINDS[kind].defaults
    written = []
    for exp in (MINIMAL[kind], {**defaults, **MINIMAL[kind]}):
        out = tmp_path / str(len(written))
        run(parse_scenario({**KINDS, "experiments": [{"kind": kind, **exp}]}), seed=3,
            out_dir=out)
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert written[0] == written[1]
    for key in defaults.keys() & {*scenario_module._EXPERIMENT_NUMBERS, "expect", "verify"}:
        for bad in _refused(key, defaults[key]):
            if bad is None and defaults[key] is None:
                continue
            exp = {"name": "e", "kind": kind, **MINIMAL[kind], key: bad}
            with pytest.raises(ParseError) as err:
                parse_scenario({**KINDS, "experiments": [exp]})
            assert err.value.where == "e", (key, bad)


@pytest.mark.parametrize("kind", sorted(MINIMAL))
def test_unread_experiment_key_is_a_parse_error(kind):
    """A key that an experiment's kind does not read, such as a misspelt
    default or another kind's key, is a ParseError naming the experiment and
    the key: every key some other kind reads, and one no kind reads. Every
    kind reads name and kind, and reach reads start and starts."""
    from liftreach import runner

    def keys(k):
        return {"name", "kind", *runner._KINDS[k].required, *runner._KINDS[k].defaults,
                *("start", "starts") * (k == "reach")}

    unread = set().union(*map(keys, runner._KINDS)) - keys(kind) | {"tolerances"}
    for key in sorted(unread):
        exp = {"name": "e", "kind": kind, **MINIMAL[kind], key: 1}
        with pytest.raises(ParseError, match=f"^e: unknown key {key!r} for kind {kind!r}$"):
            parse_scenario({**KINDS, "experiments": [exp]})
    parse_scenario({**KINDS, "experiments": [
        {"name": "e", "kind": kind, **MINIMAL[kind], **runner._KINDS[kind].defaults}]})


def test_cli_names_an_unread_experiment_key(tmp_path, capsys):
    """connection-1d's geodesic-closed-form with tol spelt tolerance used to
    run under the default tol of 1e-6; the CLI now exits 2 naming the
    experiment and the key, and runs nothing."""
    data = json.loads(builtin_scenario_path("connection-1d").read_text())
    exp = next(e for e in data["experiments"] if e["name"] == "geodesic-closed-form")
    exp["tolerance"] = 1e-30
    del exp["tol"]
    path = tmp_path / "misspelt.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("liftreach: error: geodesic-closed-form: unknown key "
                            "'tolerance' for kind 'geodesic-check'\n")


# override flag -> the experiment keys it writes; values each may take
OVERRIDES = {"grid": ("grid",), "dwell": ("dwell",), "horizon": ("horizon",),
             "step": ("step",), "tol": ("tol", "tolerance")}
# of 0, -1, nan, inf and 2.5, the values each flag may take
OVERRIDE_TAKES = {"grid": set(), "dwell": {2.5}, "horizon": {0, 2.5}, "step": {2.5},
                  "tol": {0, -1, 2.5}}


class HandlerRan(Exception):
    pass


def _override_cases():
    for name in EXPECTED_NAMES:
        data = json.loads(builtin_scenario_path(name).read_text())
        for exp in data.get("experiments", []):
            for flag, keys in OVERRIDES.items():
                if any(key in exp for key in keys):
                    yield pytest.param(name, exp["name"], flag, id=f"{name}-{exp['name']}-{flag}")


@pytest.mark.parametrize("name, experiment, flag", list(_override_cases()))
def test_bad_overrides_are_parse_errors_before_any_handler(scenarios, monkeypatch,
                                                           name, experiment, flag):
    """Each override flag, on every built-in experiment with its key, is
    checked as parsing checks the key: 0, negative, nan, inf and a grid of
    2.5 raise ParseError naming the experiment before any handler runs, and
    the values the key may take (a horizon of 0, any finite tol, 2.5 but as
    a grid) reach the handler. Handlers are replaced by one that raises, so
    no run starts."""
    from liftreach import runner

    def ran(*args):
        raise HandlerRan

    for kind in runner._HANDLERS:
        monkeypatch.setitem(runner._HANDLERS, kind, ran)
    for value in (0, -1, float("nan"), float("inf"), 2.5):
        taken = value in OVERRIDE_TAKES[flag]
        with pytest.raises(HandlerRan if taken else ParseError) as err:
            run(scenarios[name], experiment=experiment, overrides={flag: value})
        if not taken:
            assert err.value.where == experiment, value


@pytest.mark.parametrize("argv", [
    ["run", "improper", "--experiment", "escape-match", "--step", "0"],
    ["run", "circle", "--experiment", "reach-circle", "--grid", "0"],
    ["run", "circle", "--experiment", "reach-circle", "--dwell", "-1"],
])
def test_cli_bad_override_exits_2_naming_the_experiment(capsys, argv):
    """A step of 0 used to loop for ever, and a grid or dwell out of range
    to escape as a bare ValueError."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"liftreach: error: {argv[3]}: '{argv[4][2:]}' must be")


@pytest.mark.parametrize("charts", [{}, {"a": [[0, 1]], "b": [[0, 1], [0, 1]]}])
def test_union_charts_must_be_boxes_of_one_dimension(charts):
    with pytest.raises(ParseError) as err:
        parse_scenario({"atlases": {"u": {"kind": "union", "charts": charts}}})
    assert err.value.where == "u"


def test_unnamed_experiment_errors_use_the_default_name():
    with pytest.raises(ParseError, match=r"^experiment-1: missing 'grid'$"):
        parse_scenario({**KINDS, "experiments": [
            {"kind": "roundtrip", "system": "down"},
            {"kind": "stlc", "system": "down", "start": {"coords": [0.0]}, "times": [0.5]}]})


def test_cli_parse_error_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"atlases": LINE["atlases"],
                                "fields": {"f": {"atlas": "line"}}}))
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "liftreach: error: f: missing 'exprs'\n"
    assert captured.out == ""


def test_run_filters_by_kind_and_name(scenarios):
    s = scenarios["circle"]
    only_reach = run(s, kinds=("reach",))
    assert [e["kind"] for e in only_reach.experiments] == ["reach"]
    named = run(s, experiment="stlc-circle")
    assert [e["name"] for e in named.experiments] == ["stlc-circle"]


def test_overrides_change_experiment_parameters(scenarios):
    s = scenarios["circle"]
    result = run(s, kinds=("reach",), overrides={"grid": 10})
    assert result.experiments[0]["metrics"]["grid"] == 10


def test_cli_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out.split()
    assert out == EXPECTED_NAMES


def test_python_m_liftreach_runs_the_cli():
    """`python -m liftreach` works from a checkout with src on the path."""
    src = str(Path(liftreach.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-m", "liftreach", "list-scenarios"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == EXPECTED_NAMES


def test_cli_run_writes_summary(tmp_path, capsys):
    code = main(["run", "circle", "--seed", "3", "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["scenario"] == "circle"
    assert summary["seed"] == 3
    assert all(e["verdict"] for e in summary["experiments"])
    out = capsys.readouterr().out
    assert "[PASS]" in out


def test_cli_exit_one_on_failure(tmp_path, capsys):
    """Tightening the horizon below the travel time breaks full coverage."""
    code = main(["reach", "circle", "--experiment", "reach-circle",
                 "--horizon", "0.5"])
    assert code == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_cli_verify_subcommand(capsys):
    assert main(["verify", "improper"]) == 0
    out = capsys.readouterr().out
    assert "escape-mismatch" in out and "verify-badlift" in out


def test_cli_liftable_subcommand(capsys):
    assert main(["liftable", "projection"]) == 0
    out = capsys.readouterr().out
    assert "liftable-cube" in out


def test_cli_lift_subcommand(capsys):
    assert main(["lift", "circle"]) == 0
    assert "verify-cover" in capsys.readouterr().out


def test_cli_unknown_scenario_exits_two(capsys):
    assert main(["run", "nosuch"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "liftreach: error: unresolved reference: 'nosuch'\n"
    assert captured.out == ""


def test_cli_no_matching_experiments(capsys):
    assert main(["liftable", "connection-1d"]) == 1
    assert "no matching experiments" in capsys.readouterr().out


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("name", ["bundle", "improper", "mobius", "projection"])
def test_pooled_records_equal_each_experiment_alone(scenarios, name, seed):
    """Pooling the rows of every verify, global-in-time and liftable
    experiment into one integration per atlas and step changes no record."""
    s = scenarios[name]
    pooled = run(s, seed=seed, kinds=POOLED)
    alone = [run(s, seed=seed, experiment=e["name"])
             for e in s.experiments if e["kind"] in POOLED]
    assert json.dumps(pooled.experiments) == json.dumps(
        [r for a in alone for r in a.experiments])
    assert pooled.stats["integrations"] == 2 < sum(a.stats["integrations"] for a in alone)


def test_run_counts_its_integrations(scenarios, tmp_path):
    """improper's verify and two escape checks share an atlas and a step on
    each side: two integrations, where one per side and experiment made six.
    The counts stay in memory; the output directory holds the summary only."""
    result = run(scenarios["improper"], seed=0, out_dir=tmp_path)
    assert result.stats == {"integrations": 2, "rows": 12, "rk4_steps": 4002}
    assert [p.name for p in tmp_path.iterdir()] == ["summary.json"]


def test_liftable_without_rows_asks_for_no_integration(scenarios):
    """A liftable experiment integrates only when it verifies a lift it found."""
    s = scenarios["projection"]
    cube = run(s, experiment="liftable-cube")
    assert cube.experiments[0]["verdict"] and not cube.experiments[0]["metrics"]["liftable"]
    assert cube.stats == {"integrations": 0, "rows": 0, "rk4_steps": 0}
    affine = next(e for e in s.raw["experiments"] if e["name"] == "liftable-affine")
    bare = parse_scenario({**s.raw, "experiments": [
        {k: v for k, v in affine.items() if k != "verify"}]})
    result = run(bare)
    assert result.experiments[0]["verdict"]
    assert "verify_pass" not in result.experiments[0]["metrics"]
    assert result.stats["integrations"] == 0
    assert run(s, experiment="liftable-affine").stats["integrations"] == 2


def test_singular_gram_in_a_pooled_integration(capsys):
    """cross-drop's lift crosses the rank drop of x**3 at x = 0 in the
    integration it shares with verify-flat: the run raises the typed error,
    and the CLI exits 2 with one line and no verdict lines."""
    s = parse_scenario(RANK_DROP)
    assert run(s, experiment="verify-flat").passed
    with pytest.raises(SingularGram, match=r"^J G\^-1 J\^T is numerically singular at \(c0, "):
        run(s)
    assert main(["run", str(RANK_DROP)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("liftreach: error: J G^-1 J^T is numerically singular")
    assert captured.err.count("\n") == 1


def test_closed_form_lift_names_the_generic_singular_row(monkeypatch):
    """cross-drop lifts through x**3 as one generated fill. The stack that
    reaches x = 0 fails the Gram test and goes to the generic lift, whose
    SingularGram names the row that the generic lift alone names."""
    message = r"^J G\^-1 J\^T is numerically singular at \(c0, \[-0\.0005  0\.    \]\)$"
    with pytest.raises(SingularGram, match=message):
        run(parse_scenario(RANK_DROP), experiment="cross-drop")
    monkeypatch.setattr(scenario_module, "_closed_form", lambda m, *args: m)
    with pytest.raises(SingularGram, match=message):
        run(parse_scenario(RANK_DROP), experiment="cross-drop")


def _singular(field, coords) -> str:
    with pytest.raises(SingularGram) as exc:
        field.values("c0", coords)
    return str(exc.value)


def test_closed_form_lift_tests_its_gram_before_it_divides():
    """The closed-form fill tests its Gram before it divides: cross-drop's
    stack at x = 0 and rows where W = 0 raise no RuntimeWarning, only the
    SingularGram of the generic lift, which names the same row; through x**3
    without a jacobian block, the central differences at x = 0 give
    W = 1e-24, which fails the test too. A stack of no rows takes the generic
    lift, for Jacobians through x**3 and for the constant one of projx, whose
    W is one float."""
    s = parse_scenario(RANK_DROP)
    message = r"^J G\^-1 J\^T is numerically singular at \(c0, \[-0\.0005  0\.    \]\)$"
    zero_w = np.array([[0.2, 0.1], [0.0, 0.5], [-0.0, -1.0]])
    J = s.morphisms["cube_fd_frame"].phi.raw_jac_at("c0", zero_w)
    assert (J[1:, 0, 0] ** 2).tolist() == [1e-24, 1e-24]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularGram, match=message):
            run(s, experiment="cross-drop")
        for k in ("through_cube", "flat", "cube_fd_frame"):
            m = s.morphisms[k]
            Y = s.system(s.raw["morphisms"][k]["target_system"]).generators[0]
            closed, generic = m.lift(Y), metric_lift_morphism(m.phi).lift(Y)
            if k != "flat":
                assert _singular(closed, zero_w) == _singular(generic, zero_w)
            with mock.patch.object(morphisms, "_right_inverse_apply",
                                   wraps=morphisms._right_inverse_apply) as generic_calls:
                assert closed.values("c0", np.empty((0, 2))).shape == (0, 2)
            assert generic_calls.called


def test_coordinates_may_take_the_names_a_fill_binds(tmp_path):
    """Coordinates named like the names a generated fill binds for itself
    (_pow, _guard, _out) parse, evaluate and lift as plain names do: the
    closed-form lift, whose fill has a guard, equals the generic lift bit for
    bit and passes verify."""
    data = {
        "atlases": {"plane": {"kind": "box", "box": [[-1, 1], [-1, 1]],
                              "coords": ["_pow", "_guard"]},
                    "line": {"kind": "interval", "box": [-3, 3], "coords": ["_out"]}},
        "maps": {"bend": {"source": "plane", "target": "line",
                          "exprs": ["_pow + 0.5*_guard**2"], "jacobian": [["1", "_guard"]]}},
        "fields": {"right": {"atlas": "line", "exprs": ["1 + _out**2"]},
                   "swirl": {"atlas": "plane", "exprs": ["-_guard", "_pow**2"]}},
        "systems": {"down": {"atlas": "line", "generators": ["right"]}},
        "morphisms": {"m": {"map": "bend", "target_system": "down"}},
        "experiments": [{"name": "v", "kind": "verify", "morphism": "m",
                         "target_system": "down", "samples": 20, "schedules": 2}],
    }
    s = parse_scenario(data)
    X = np.array([[0.3, -0.5], [-0.7, 0.2], [0.0, -0.0]])
    want = np.stack([-X[:, 1], np.power(X[:, 0], 2.0)], axis=-1)
    assert s.fields["swirl"].values("c0", X).tobytes() == want.tobytes()
    lift = s.system("m.system").generators[0]
    generic = metric_lift_morphism(s.maps["bend"]).lift(s.fields["right"])
    with mock.patch.object(morphisms, "_right_inverse_apply") as generic_calls:
        closed = lift.values("c0", X)
    assert not generic_calls.called
    assert closed.tobytes() == generic.values("c0", X).tobytes()
    assert run(s, out_dir=tmp_path).passed


def test_finite_difference_fill_keeps_coordinates_named_like_constants():
    """Through a map without a jacobian block over coordinates named e and
    pi, the central differences read those coordinates, not the constants:
    the lift is one fill, bit for bit the generic lift."""
    data = {
        "atlases": {"plane": {"kind": "box", "box": [[-1, 1], [-1, 1]], "coords": ["e", "pi"]},
                    "line": {"kind": "interval", "box": [-9, 9], "coords": ["u"]}},
        "maps": {"bend": {"source": "plane", "target": "line", "exprs": ["e * pi + pi**2 + e"]}},
        "fields": {"right": {"atlas": "line", "exprs": ["1 + u**2"]}},
        "systems": {"down": {"atlas": "line", "generators": ["right"]}},
        "morphisms": {"m": {"map": "bend", "target_system": "down"}},
    }
    s = parse_scenario(data)
    X = np.array([[0.3, -0.5], [-0.7, 0.2], [0.0, -0.0]])
    generic = metric_lift_morphism(s.maps["bend"]).lift(s.fields["right"])
    with mock.patch.object(morphisms, "_right_inverse_apply") as generic_calls:
        closed = s.system("m.system").generators[0].values("c0", X)
    assert not generic_calls.called
    assert closed.tobytes() == generic.values("c0", X).tobytes()


@pytest.mark.parametrize("name, morphism", [("mobius", "mlift"), ("bundle", "blift")])
def test_verify_and_global_step_the_scenario_lift(scenarios, monkeypatch, name, morphism):
    """verify and global-in-time step the lifted system the scenario built
    at parse time: the upstairs request of each carries its fields, the
    very objects, so rows of one lifted field step as one group."""
    asked, integrate = [], systems.integrate_requests

    def recorded(requests, stats=None):
        asked.extend(requests)
        return integrate(requests, stats)

    monkeypatch.setattr(systems, "integrate_requests", recorded)
    s = scenarios[name]
    result = run(s, kinds={"verify", "global-in-time"})
    assert [e["kind"] for e in result.experiments] == ["verify", "global-in-time"]
    lifted = s.system(f"{morphism}.system").generators
    up = [r for r in asked if r.system.atlas is s.morphisms[morphism].phi.source]
    assert len(up) == 2
    for r in up:
        assert len(r.system.generators) == len(lifted)
        assert all(a is b for a, b in zip(r.system.generators, lifted))


def test_a_lift_parsing_did_not_build_is_built_once(monkeypatch):
    """double-integrator's verify-dil lifts di.tcs through the second-order
    lift dil, which parsing does not: its first run lifts it once, and every
    later run of the scenario steps that same lift."""
    s, calls, lift_system = load_builtin("double-integrator"), [], scenario_module.lift_system
    assert ("dil", "di.tcs") not in s.lifts

    def counted(*args, **kwargs):
        calls.append(args)
        return lift_system(*args, **kwargs)

    monkeypatch.setattr(scenario_module, "lift_system", counted)
    first = run(s, experiment="verify-dil")
    lifted = s.lifts["dil", "di.tcs"]
    assert run(s, experiment="verify-dil").experiments == first.experiments and first.passed
    assert len(calls) == 1 and s.lifted("dil", "di.tcs") is lifted


def test_wrapped_lifts_step_as_unwrapped_lifts(monkeypatch):
    """Wrapping every lifted field's func in a plain lambda, as the benchmark's
    tracer does, changes no group of rows an RK4 step takes, nor the work of
    a projection or a bundle run (integrations, rows, RK4 steps), nor any of
    its records. In bundle, verify and global-in-time lift through one
    morphism."""
    names, steps, rk4_step = ("projection", "bundle"), [], systems.rk4_step

    def counted(func, cid, coords, h):
        steps.append(np.shape(coords))
        return rk4_step(func, cid, coords, h)

    def runs():
        out = []
        for name in names:
            steps.clear()
            out.append((run(load_builtin(name)), steps[:]))
        return out

    monkeypatch.setattr(systems, "rk4_step", counted)
    plain, lift = runs(), Morphism.lift

    def wrapped(m, Y):
        X = lift(m, Y)
        return replace(X, func=lambda cid, coords: X.func(cid, coords))

    monkeypatch.setattr(Morphism, "lift", wrapped)
    for (result, got), (want, want_steps) in zip(runs(), plain):
        assert got == want_steps
        assert result.stats == want.stats
        assert result.experiments == want.experiments


def test_finite_difference_lift_steps_as_a_fill(monkeypatch):
    """projection's verify-fd lifts through projx_fd, a map without a
    jacobian block, as one generated fill. A seed-1 run calls
    _right_inverse_apply never and finite_difference_jacobian twice, for the
    residual's Jacobians, where the generic lift's RK4 stages made 6,204
    calls. Its records, RK4 steps (3,100) and row steps (1,676) are those of
    the generic lift."""
    from liftreach import geometry

    calls = {}

    def count(module, name):
        func, calls[name] = getattr(module, name), 0

        def counted(*args):
            calls[name] += 1
            return func(*args)

        monkeypatch.setattr(module, name, counted)

    for module, name in ((systems, "rk4_step"), (systems, "step_rows"),
                         (geometry, "finite_difference_jacobian"),
                         (morphisms, "_right_inverse_apply")):
        count(module, name)

    def verify_fd():
        s = load_builtin("projection")
        calls.update(dict.fromkeys(calls, 0))
        return run(s, seed=1, experiment="verify-fd").experiments, dict(calls)

    records, filled = verify_fd()
    monkeypatch.setattr(scenario_module, "_closed_form", lambda m, *args: m)
    generic_records, generic = verify_fd()
    assert records == generic_records and records[0]["verdict"]
    assert filled["_right_inverse_apply"] == 0 < generic["_right_inverse_apply"]
    assert filled["finite_difference_jacobian"] == 2 < generic["finite_difference_jacobian"]
    assert (filled["rk4_step"], filled["step_rows"]) == (generic["rk4_step"],
                                                         generic["step_rows"]) == (3100, 1676)


def test_cli_echo_lines_follow_experiment_order(capsys):
    assert main(["verify", "improper"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines[:3]] == [
        "verify-badlift", "escape-match", "escape-mismatch"]
