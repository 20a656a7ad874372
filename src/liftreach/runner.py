"""Execute scenario experiment blocks and emit JSON/CSV artifacts."""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import GeneratorType
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .errors import Escape
from .geometry import Atlas, Point, scan_max
from .morphisms import (
    check_liftable,
    global_body,
    lift_system,
    morphism_from_lifting,
    trajectory_body,
)
from .reach import is_reachability_set, reach, stlc_probe
from .second_order import is_second_order
from .systems import (
    RowRequest,
    Schedule,
    control_system_from_tcs,
    drive,
    tcs_from_control_system,
)

if TYPE_CHECKING:
    from .scenario import Scenario


@dataclass
class RunResult:
    scenario: str
    seed: int
    experiments: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)
    wall_clock: float = 0.0
    summary_path: Optional[str] = None
    # work of the run's integrations: integrations, rows, rk4_steps
    stats: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(e["verdict"] for e in self.experiments)

    def summary(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "experiments": self.experiments,
        }


def _point(atlas: Atlas, spec) -> Point:
    return atlas.normalize(spec["chart"], np.asarray(spec["coords"], dtype=float))


def _round(x, digits=12):
    if isinstance(x, float):
        return round(x, digits)
    if isinstance(x, (list, tuple)):
        return [_round(v, digits) for v in x]
    if isinstance(x, dict):
        return {k: _round(v, digits) for k, v in x.items()}
    if isinstance(x, (np.floating,)):
        return round(float(x), digits)
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.bool_,)):
        return bool(x)
    return x


# experiment key -> the override that replaces it where an experiment spells it out
_OVERRIDDEN = {"grid": "grid", "dwell": "dwell", "horizon": "horizon", "step": "step",
               "tol": "tol", "tolerance": "tol"}


def _apply_overrides(exp: dict, overrides: Optional[dict]) -> dict:
    overrides = overrides or {}
    return {**exp, **{key: overrides[flag] for key, flag in _OVERRIDDEN.items()
                      if key in exp and overrides.get(flag) is not None}}


def _run_reach(s: Scenario, exp: dict, seed: int, out_dir: Optional[Path]):
    sys = s.system(exp["system"])
    starts = exp["starts"] or [exp["start"]]
    coverages = []
    artifacts = []
    min_cov = exp["min_coverage"]
    verdict = True
    for i, spec in enumerate(starts):
        start = _point(sys.atlas, spec)
        rep = reach(sys, start, exp["grid"], exp["dwell"], exp["horizon"],
                    substeps=exp["substeps"])
        coverages.append(rep.coverage)
        if min_cov is not None and rep.coverage < min_cov:
            verdict = False
        if out_dir is not None:
            name = f"{exp['name']}_{i}.csv"
            rep.to_csv(out_dir / name)
            artifacts.append(name)
    metrics = {
        "coverage": coverages,
        "min_coverage": min_cov,
        "grid": exp["grid"],
        "dwell": exp["dwell"],
        "horizon": exp["horizon"],
        "artifacts": artifacts,
    }
    return verdict, metrics


def _run_reach_set(s: Scenario, exp: dict, seed: int, out_dir):
    sys = s.system(exp["system"])
    points = [_point(sys.atlas, spec) for spec in exp["points"]]
    ok, witness = is_reachability_set(
        sys, points, exp["dwell"], exp["horizon"], exp["grid"],
        substeps=exp["substeps"])
    metrics = {
        "mutually_reachable": bool(ok),
        "expected": exp["expect"],
        "pairs_ok": int(witness.sum()),
        "pairs_total": int(witness.size),
    }
    return bool(ok) == exp["expect"], metrics


def _run_stlc(s: Scenario, exp: dict, seed: int, out_dir):
    sys = s.system(exp["system"])
    x0 = _point(sys.atlas, exp["start"])
    verdicts = stlc_probe(sys, x0, exp["times"], exp["grid"],
                          dwell=exp["dwell"], substeps=exp["substeps"])
    expect = exp["expect"]
    if isinstance(expect, bool):
        expect = [expect] * len(verdicts)
    metrics = {"times": list(exp["times"]), "stlc": [bool(v) for v in verdicts],
               "expected": expect}
    return [bool(v) for v in verdicts] == expect, metrics


def _run_verify(s: Scenario, exp: dict, seed: int, out_dir):
    m = s.morphisms[exp["morphism"]]
    target = s.system(exp["target_system"])
    report = yield from trajectory_body(
        m, target, s.lifted(exp["morphism"], exp["target_system"]),
        samples=exp["samples"],
        schedules=exp["schedules"],
        tolerance=exp["tolerance"],
        h=exp["step"],
        seed=seed,
    )
    metrics = {
        "worst_residual": report["worst_residual"],
        "tolerance": report["tolerance"],
        "samples": report["samples"],
        "trajectory_excess": report["trajectory_excess"],
        "expected": exp["expect"],
    }
    return report["pass"] == exp["expect"], metrics


def _run_global(s: Scenario, exp: dict, seed: int, out_dir):
    m = s.morphisms[exp["morphism"]]
    target = s.system(exp["target_system"])
    starts = [_point(m.phi.source, spec) for spec in exp["starts"]]
    report = yield from global_body(m, target, s.lifted(exp["morphism"], exp["target_system"]),
                                    starts, exp["horizon"], h=exp["step"])
    gaps = [abs(d["escape_up"] - d["escape_down"]) for d in report["details"]]
    metrics = {
        "global_in_time": report["pass"],
        "expected": exp["expect"],
        "max_escape_gap": max(gaps) if gaps else 0.0,
        "tolerance": report["tolerance"],
        "horizon": exp["horizon"],
    }
    return report["pass"] == exp["expect"], metrics


def _run_liftable(s: Scenario, exp: dict, seed: int, out_dir):
    up = s.system(exp["upstairs"])
    down = s.system(exp["downstairs"])
    phi = s.maps[exp["map"]]
    sigma1 = control_system_from_tcs(up)
    sigma2 = control_system_from_tcs(down)
    ok, mapping = check_liftable(sigma1, sigma2, phi,
                                 tol=exp["tol"], seed=seed)
    verdict = ok == exp["expect"]
    metrics = {
        "liftable": bool(ok),
        "expected": exp["expect"],
        "mapped_controls": sum(1 for _, m in mapping if m is not None),
        "total_controls": len(mapping),
    }
    if ok and exp["verify"]:
        m = morphism_from_lifting(mapping, sigma1, sigma2, phi, seed=seed)
        report = yield from trajectory_body(
            m, down, lift_system(down, phi, morphism=m)[1], samples=exp["samples"],
            schedules=exp["schedules"], seed=seed)
        metrics["verify_pass"] = report["pass"]
        metrics["verify_worst_residual"] = report["worst_residual"]
        verdict = verdict and report["pass"]
    return verdict, metrics


def _run_roundtrip(s: Scenario, exp: dict, seed: int, out_dir):
    sys = s.system(exp["system"])
    cs = control_system_from_tcs(sys)
    back = tcs_from_control_system(cs)
    same = back.generators == sys.generators
    rows = sys.atlas.stack(sys.atlas.sample(np.random.default_rng(seed), exp["samples"]))
    worst = scan_max([np.max(np.abs(g.at_rows(rows, sys.atlas) - b.at_rows(rows, sys.atlas)),
                             axis=1) for g, b in zip(sys.generators, back.generators)])
    metrics = {"generators": len(sys.generators), "exact": bool(same),
               "max_residual": worst}
    return bool(same) and worst == 0.0, metrics


def _run_second_order(s: Scenario, exp: dict, seed: int, out_dir):
    so = s.second_order[exp["system"]]
    ok, worst = is_second_order(so, samples=exp["samples"], seed=seed)
    metrics = {"second_order": bool(ok), "worst_residual": worst,
               "expected": exp["expect"]}
    return bool(ok) == exp["expect"], metrics


def _run_geodesic(s: Scenario, exp: dict, seed: int, out_dir):
    sys = s.system(exp["system"])
    start = _point(sys.atlas, exp["start"])
    c = float(exp["c"])
    x0, y0 = float(start.coords[0]), float(start.coords[1])
    scheds = [Schedule.of((0, float(t))) for t in exp["times"]]
    flow, = yield [RowRequest(sys, sys.atlas.stack([start] * len(scheds)), scheds, exp["step"],
                              record=False)]
    left = np.flatnonzero(~np.isnan(flow.escapes))
    if len(left):
        raise Escape(float(flow.escapes[left[0]]))
    worst = 0.0
    for t, end in zip(exp["times"], flow.ends.coords):
        denom = 1.0 + c * y0 * t
        y_exact = y0 / denom
        x_exact = x0 + (np.log(denom) / c if c != 0.0 else y0 * t)
        worst = max(worst, abs(end[0] - x_exact), abs(end[1] - y_exact))
    metrics = {"times": list(exp["times"]), "max_error": worst, "tol": exp["tol"]}
    return worst <= exp["tol"], metrics


@dataclass
class Entry:  # the keys of one kind of scenario entry, which scenario._filled checks
    required: tuple  # keys the entry cannot do without
    defaults: dict   # the keys it may omit, and their values when omitted


@dataclass
class Kind(Entry):  # an experiment kind; a key may be null where its default is None
    handler: Callable


# verify, global-in-time, liftable and geodesic-check are bodies for systems.drive
_KINDS = {
    "reach": Kind(("system", "grid", "dwell", "horizon"),
                  {"starts": [], "substeps": 10, "min_coverage": None}, _run_reach),
    "reachability-set": Kind(("system", "points", "dwell", "horizon", "grid"),
                             {"substeps": 10, "expect": True}, _run_reach_set),
    "stlc": Kind(("system", "start", "times", "grid"),
                 {"dwell": None, "substeps": 16, "expect": True}, _run_stlc),
    "verify": Kind(("morphism", "target_system"), {"samples": 300, "schedules": 5,
                   "tolerance": None, "step": 1e-3, "expect": True}, _run_verify),
    "global-in-time": Kind(("morphism", "target_system", "starts", "horizon"),
                           {"step": 1e-3, "expect": True}, _run_global),
    "liftable": Kind(("upstairs", "downstairs", "map"), {"tol": 1e-6, "expect": True,
                     "verify": False, "samples": 200, "schedules": 3}, _run_liftable),
    "roundtrip": Kind(("system",), {"samples": 40}, _run_roundtrip),
    "second-order-check": Kind(("system",), {"samples": 200, "expect": True},
                               _run_second_order),
    "geodesic-check": Kind(("system", "start", "c", "times"), {"tol": 1e-6, "step": 1e-3},
                           _run_geodesic),
}
_HANDLERS = {kind: k.handler for kind, k in _KINDS.items()}


def run(scenario: Scenario, seed: int = 0, out_dir=None, overrides=None,
        kinds=None, experiment=None, echo=None) -> RunResult:
    """Run scenario experiments, optionally filtered by kind or name.

    Overrides replace the values the chosen experiments spell out, which
    then pass the parse-time checks before any handler runs: a value no
    handler can take is a ParseError naming its experiment. Handlers read
    the experiments as those checks fill them in.

    Handlers that are generator bodies are driven together (systems.drive)
    after the others, so their rows that share an atlas and a step size are
    one integration; records and echo lines keep experiment order. Writes
    summary.json (plus reach CSVs) to out_dir when given. The summary
    excludes wall-clock time so a fixed (scenario, seed) pair reproduces
    byte-identical output.
    """
    t_start = time.perf_counter()
    out_path = None
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
    from .scenario import _validate_experiments  # scenario imports this module

    result = RunResult(scenario=scenario.name, seed=seed)
    chosen = {idx: _apply_overrides(exp, overrides)
              for idx, exp in enumerate(scenario.experiments)
              if (kinds is None or exp["kind"] in kinds)
              and (experiment is None or exp.get("name") == experiment)}
    selected, outcomes, bodies = [], [], {}
    # the parse-time checks again, on the values the overrides wrote
    for idx, exp in _validate_experiments(scenario, chosen).items():
        exp_seed = seed * 100003 + idx
        out = _HANDLERS[exp["kind"]](scenario, exp, exp_seed, out_path)
        if isinstance(out, GeneratorType):
            bodies[len(outcomes)] = out
        selected.append(exp)
        outcomes.append(out)
    stats = Counter(integrations=0, rows=0, rk4_steps=0)
    for i, outcome in zip(bodies, drive(list(bodies.values()), stats)):
        outcomes[i] = outcome
    result.stats = dict(stats)
    for exp, (verdict, metrics) in zip(selected, outcomes):
        record = {
            "name": exp["name"],
            "kind": exp["kind"],
            "verdict": bool(verdict),
            "metrics": _round(metrics),
        }
        result.experiments.append(record)
        result.artifacts.extend(record["metrics"].get("artifacts", [])
                                if isinstance(metrics, dict) else [])
        if echo is not None:
            echo(f"[{'PASS' if verdict else 'FAIL'}] {record['name']} ({exp['kind']})")
    if out_path is not None:
        summary = out_path / "summary.json"
        summary.write_text(json.dumps(result.summary(), sort_keys=True, indent=2)
                           + "\n")
        result.summary_path = str(summary)
    result.wall_clock = time.perf_counter() - t_start
    return result
