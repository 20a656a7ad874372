"""Workload generation: turn (workload, seed) into scenario files.

The program only ever sees the generated scenario files. Each workload is
built from the built-in scenario it exercises, so the atlases, maps and
systems are the ones a user runs; only the experiment list is replaced.
The checks in ``checks.py`` derive their expectations from the constants
here, never from a stored copy of earlier output.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("band-reach", "tangent-reach", "certify")

# band-reach: the Mobius reach grid of the built-in "reach-band" experiment.
BAND_GRID, BAND_DWELL, BAND_HORIZON, BAND_SUBSTEPS = 40, 0.1, 6.0, 5
BAND_STARTS = 2        # seeded cell centres per round
BAND_FIBER_POINTS = 2  # seeded subset of the declared fiber-reach-set points

# tangent-reach: the built-in "fiber-tangent-reach" reachability set.
TANGENT_GRID, TANGENT_DWELL, TANGENT_HORIZON = 6, 0.5, 12.0
TANGENT_POINTS = 2     # the first declared points; the seed does not move them

CERTIFY_SCENARIOS = ("bundle", "circle", "connection-1d", "double-integrator",
                     "improper", "mobius", "projection")


class WorkloadError(Exception):
    """The built-in scenarios no longer match what a workload is defined on."""


@dataclass
class Plan:
    workload: str
    seed: int
    scenarios: dict = field(default_factory=dict)  # file stem -> scenario dict
    expected: dict = field(default_factory=dict)   # file stem -> {experiment: verdict}

    def operations(self) -> int:
        return sum(len(s["experiments"]) for s in self.scenarios.values())

    def write(self, directory: Path) -> dict:
        """Write each scenario as JSON; returns file stem -> path."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = {}
        for stem, data in self.scenarios.items():
            path = directory / f"{stem}.json"
            path.write_text(json.dumps(data, indent=1, sort_keys=True))
            paths[stem] = str(path)
        return paths


def _load(data_dir: Path, name: str):
    try:
        scenario = json.loads((data_dir / f"{name}.json").read_text())
        expected = json.loads((data_dir / f"{name}.expected.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise WorkloadError(f"cannot read built-in scenario {name!r}: {exc}") from exc
    return scenario, expected


def _experiment(scenario: dict, name: str) -> dict:
    for exp in scenario.get("experiments", []):
        if exp.get("name") == name:
            return dict(exp)
    raise WorkloadError(f"built-in scenario {scenario.get('name')!r} has no "
                        f"experiment {name!r}")


def _require(exp: dict, **values):
    for key, want in values.items():
        if exp.get(key) != want:
            raise WorkloadError(f"experiment {exp['name']!r}: {key} is "
                                f"{exp.get(key)!r}, the workload is defined at {want!r}")


def band_reach(data_dir: Path, seed: int) -> Plan:
    scenario, expected = _load(data_dir, "mobius")
    reach_band = _experiment(scenario, "reach-band")
    fiber = _experiment(scenario, "fiber-reach-set")
    for exp in (reach_band, fiber):
        _require(exp, grid=BAND_GRID, dwell=BAND_DWELL, horizon=BAND_HORIZON,
                 substeps=BAND_SUBSTEPS, system="mlift.augmented")
    rng = random.Random(seed)
    cells = rng.sample(range(BAND_GRID * BAND_GRID), BAND_STARTS)
    reach_band["starts"] = [
        {"coords": [(c // BAND_GRID + 0.5) / BAND_GRID, (c % BAND_GRID + 0.5) / BAND_GRID]}
        for c in cells
    ]
    picks = sorted(rng.sample(range(len(fiber["points"])), BAND_FIBER_POINTS))
    fiber["points"] = [fiber["points"][i] for i in picks]
    scenario["experiments"] = [reach_band, fiber]
    plan = Plan("band-reach", seed)
    plan.scenarios["mobius"] = scenario
    plan.expected["mobius"] = {e["name"]: expected[e["name"]] for e in scenario["experiments"]}
    return plan


def tangent_reach(data_dir: Path, seed: int) -> Plan:
    scenario, expected = _load(data_dir, "double-integrator")
    exp = _experiment(scenario, "fiber-tangent-reach")
    _require(exp, kind="reachability-set", grid=TANGENT_GRID, dwell=TANGENT_DWELL,
             horizon=TANGENT_HORIZON, system="dil.augmented")
    exp["points"] = exp["points"][:TANGENT_POINTS]
    scenario["experiments"] = [exp]
    plan = Plan("tangent-reach", seed)
    plan.scenarios["double-integrator"] = scenario
    plan.expected["double-integrator"] = {exp["name"]: expected[exp["name"]]}
    return plan


def _is_grid_search(exp: dict) -> bool:
    """Reachability sets and multi-start reaches belong to the reach workloads."""
    return exp["kind"] == "reachability-set" or (exp["kind"] == "reach" and "starts" in exp)


def certify(data_dir: Path, seed: int) -> Plan:
    plan = Plan("certify", seed)
    for name in CERTIFY_SCENARIOS:
        scenario, expected = _load(data_dir, name)
        scenario["experiments"] = [e for e in scenario["experiments"]
                                   if not _is_grid_search(e)]
        plan.scenarios[name] = scenario
        plan.expected[name] = {e["name"]: expected[e["name"]]
                               for e in scenario["experiments"]}
    return plan


def build(workload: str, seed: int, data_dir: Path) -> Plan:
    builder = {"band-reach": band_reach, "tangent-reach": tangent_reach,
               "certify": certify}[workload]
    try:
        return builder(data_dir, seed)
    except KeyError as exc:
        raise WorkloadError(f"built-in scenario data lacks {exc}") from exc
