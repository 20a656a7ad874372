"""Scenario parsing, the experiment runner, determinism, and the CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import liftreach

from liftreach.cli import main
from liftreach.errors import DimensionMismatch, ParseError, SingularGram, UnresolvedReference
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


def test_cli_echo_lines_follow_experiment_order(capsys):
    assert main(["verify", "improper"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines[:3]] == [
        "verify-badlift", "escape-match", "escape-mismatch"]
