"""Correctness checks on one round's outputs.

Every expectation comes from the mathematics of the scenario or from the
shipped ``*.expected.json`` verdicts (the paper's claims), never from a
stored copy of earlier output. The checks read the artifacts a user gets
(``summary.json`` and the reach CSVs) and, for closed forms, evaluate the
parsed scenario through the library's public objects at seeded points.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

FIELD_TOL = 1e-12   # closed-form fields are exact up to rounding
SAMPLES = 16        # seeded points per closed-form check


def _atlas_box(scenario: dict, atlas_name: str) -> list:
    """Chart box of a single-chart atlas, from the scenario's own data."""
    spec = scenario["atlases"][atlas_name]
    kind = spec["kind"]
    if kind == "interval":
        return [list(spec.get("box", [-1.0, 1.0]))]
    if kind == "box":
        return [list(b) for b in spec["box"]]
    if kind == "circle":
        return [[0.0, spec.get("period", 2 * math.pi)]]
    if kind == "torus":
        return [[0.0, p] for p in spec.get("periods", (2 * math.pi, 2 * math.pi))]
    if kind == "mobius":
        return [[0.0, 1.0], [0.0, 1.0]]
    raise ValueError(f"no single-chart box for atlas kind {kind!r}")


def system_box(scenario: dict, system: str) -> list:
    """Chart box of the atlas a (possibly derived) system lives on."""
    if system in scenario.get("systems", {}):
        return _atlas_box(scenario, scenario["systems"][system]["atlas"])
    owner = system.partition(".")[0]
    if owner in scenario.get("morphisms", {}):
        m = scenario["morphisms"][owner]
        return _atlas_box(scenario, scenario["maps"][m["map"]]["source"])
    if owner in scenario.get("so_lifts", {}):
        lift = scenario["so_lifts"][owner]
        base = _atlas_box(scenario, scenario["maps"][lift["map"]]["source"])
        vb = scenario["second_order"][lift["source"]].get("v_bound", 2.0)
        return base + [[-vb, vb]] * len(base)
    raise ValueError(f"cannot resolve the atlas of system {system!r}")


def _start_cell(box: list, coords: list, grid: int) -> tuple:
    return tuple(min(grid - 1, max(0, math.floor((c - lo) / (hi - lo) * grid)))
                 for c, (lo, hi) in zip(coords, box))


class Checker:
    """Collects failed checks for one round, each tied to the operation it fails.

    An operation is one experiment, named ``(stem, experiment)``. A check on
    a whole scenario (its summary file, its parsed fields) names
    ``(stem, None)`` and fails every experiment of that scenario.
    """

    def __init__(self, plan, parsed: dict, out_dirs: dict, seed: int):
        self.plan = plan
        self.parsed = parsed
        self.out_dirs = out_dirs
        self.seed = seed
        self.failures = []   # ((stem, experiment or None), message)

    def fail(self, op: tuple, message: str):
        self.failures.append((op, message))

    def run(self, raised: dict) -> list:
        """Check every scenario of the plan; raised maps stem -> the error its run raised."""
        for stem, scenario in self.plan.scenarios.items():
            if stem in raised:
                self.fail((stem, None), f"runner.run raised {raised[stem]}")
                continue
            try:
                self._scenario(stem, scenario)
            except Exception as exc:  # a check that cannot run is a failed check
                self.fail((stem, None), f"check raised {type(exc).__name__}: {exc}")
        return self.failures

    def failed_operations(self) -> set:
        ops = set()
        for (stem, name), _ in self.failures:
            names = ([name] if name is not None else
                     [e["name"] for e in self.plan.scenarios[stem]["experiments"]])
            ops.update((stem, n) for n in names)
        return ops

    def messages(self) -> list:
        return [f"{stem}{'' if name is None else '/' + name}: {message}"
                for (stem, name), message in self.failures]

    def _scenario(self, stem: str, scenario: dict):
        out = Path(self.out_dirs[stem])
        summary = json.loads((out / "summary.json").read_text())
        records = {e["name"]: e for e in summary["experiments"]}
        expected = self.plan.expected[stem]
        unplanned = sorted(set(records) - set(expected))
        if unplanned:
            self.fail((stem, None), f"unplanned experiments {unplanned}")
        for name, want in expected.items():
            rec = records.get(name)
            if rec is None:
                self.fail((stem, name), "missing from summary.json")
            elif rec["verdict"] != want:
                self.fail((stem, name), f"verdict {rec['verdict']} != expected {want}")
        for exp in scenario["experiments"]:
            rec = records.get(exp["name"])
            if rec is None:
                continue
            op = (stem, exp["name"])
            try:
                if exp["kind"] == "reach":
                    self._reach(op, scenario, exp, rec["metrics"], out)
                elif exp["kind"] == "reachability-set":
                    self._reach_set(op, scenario, exp, rec["metrics"])
                elif exp["name"] == "escape-mismatch":
                    self._escape_gap(op, exp, rec["metrics"])
                elif exp["kind"] == "geodesic-check":
                    self._geodesic(op, exp, rec["metrics"])
            except Exception as exc:
                self.fail(op, f"check raised {type(exc).__name__}: {exc}")
        if stem == "mobius" and self.plan.workload == "band-reach":
            self._band_fields(stem)
        if stem == "double-integrator" and self.plan.workload == "tangent-reach":
            self._tangent_drift(stem)

    def _reach(self, op, scenario, exp, metrics, out: Path):
        box = system_box(scenario, exp["system"])
        grid, horizon = exp["grid"], exp["horizon"]
        total = grid ** len(box)
        starts = exp.get("starts") or [exp["start"]]
        coverages = metrics["coverage"]
        if len(coverages) != len(starts) or len(metrics["artifacts"]) != len(starts):
            self.fail(op, f"{len(starts)} starts but coverage {coverages}")
            return
        for spec, cov, name in zip(starts, coverages, metrics["artifacts"]):
            if exp.get("min_coverage") is not None and cov < exp["min_coverage"]:
                self.fail(op, f"coverage {cov} < min_coverage {exp['min_coverage']}")
            with open(out / name, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            if not rows or round(len(rows) / cov) != total:
                self.fail(op, f"{name}: {len(rows)} cells at coverage {cov}, "
                                 f"total is not {grid}^{len(box)} = {total}")
            cells = {}
            for row in rows:
                idx = tuple(int(v) for v in row[1:-1])
                t = float(row[-1])
                if not all(0 <= i < grid for i in idx):
                    self.fail(op, f"{name}: cell {idx} outside a {grid}-cell axis")
                if not 0.0 <= t <= horizon:
                    self.fail(op, f"{name}: arrival {t} outside [0, {horizon}]")
                cells[idx] = t
            zeros = [idx for idx, t in cells.items() if t == 0.0]
            start = _start_cell(box, spec["coords"], grid)
            if zeros != [start]:
                self.fail(op, f"{name}: cells arriving at 0 are {zeros}, "
                                 f"expected only the start cell {start}")

    def _reach_set(self, op, scenario, exp, metrics):
        n = len(exp["points"])
        if exp.get("expect", True) and not (
                metrics["mutually_reachable"] and metrics["pairs_ok"] == n * n
                and metrics["pairs_total"] == n * n):
            self.fail(op, f"expected all {n * n} pairs reachable, got {metrics}")
        from liftreach.reach import Grid

        dim = len(system_box(scenario, exp["system"]))
        atlas = self.parsed[op[0]].system(exp["system"]).atlas
        total = len(Grid(atlas, exp["grid"]).all_valid_cells())
        if total != exp["grid"] ** dim:
            self.fail(op, f"{total} valid cells, expected {exp['grid']}^{dim}")

    def _escape_gap(self, op, exp, metrics):
        # upstairs leaves chart a at x = 0 at t = 1; downstairs reaches the horizon
        tol = 2 * exp.get("step", 1e-3)
        if metrics["global_in_time"] or abs(metrics["max_escape_gap"] - 1.0) > tol:
            self.fail(op, f"escape gap {metrics['max_escape_gap']} is not 1.0 +- {tol}, "
                             f"or global_in_time passed")

    def _geodesic(self, op, exp, metrics):
        from liftreach.systems import Schedule, integrate

        sys = self.parsed[op[0]].system(exp["system"])
        chart = exp["start"].get("chart", sys.atlas.charts[0].chart_id)
        start = sys.atlas.normalize(chart, np.asarray(exp["start"]["coords"], float))
        x0, y0 = exp["start"]["coords"]
        c, tol = float(exp["c"]), exp.get("tol", 1e-6)
        for t in exp["times"]:
            end = integrate(sys, start, Schedule.of((0, float(t))), exp.get("step", 1e-3))
            x, y = (float(v) for v in np.reshape(end.endpoint.coords, -1))
            want_x = x0 + math.log(1.0 + c * y0 * t) / c
            want_y = y0 / (1.0 + c * y0 * t)
            if abs(x - want_x) > tol or abs(y - want_y) > tol:
                self.fail(op, f"t={t}: endpoint ({x}, {y}) vs closed form "
                                 f"({want_x}, {want_y})")
        if not metrics["max_error"] <= tol:
            self.fail(op, f"reported max_error {metrics['max_error']} > {tol}")

    def _band_fields(self, stem):
        """Lift of rot is d/dx; the chartwise kernel frame spans d/dy."""
        sys = self.parsed[stem].system("mlift.augmented")
        chart = sys.atlas.charts[0].chart_id
        rng = np.random.default_rng(self.seed)
        for c in rng.uniform(0.02, 0.98, size=(SAMPLES, 2)):
            lift = np.reshape(sys.generators[0].func(chart, c), -1)
            err = np.max(np.abs(lift - [1.0, 0.0]))
            if err > FIELD_TOL:
                self.fail((stem, None), f"lift(rot) at {c.tolist()} is {err:.3g} from d/dx")
            frame = np.array([np.reshape(k.func(chart, c), -1) for k in sys.kernel_fields])
            if (frame.size == 0 or np.max(np.abs(frame[:, 0])) > FIELD_TOL
                    or abs(np.max(np.abs(frame[:, 1])) - 1.0) > FIELD_TOL):
                self.fail((stem, None), f"kernel frame at {c} is {frame.tolist()}, "
                                            f"does not span d/dy")

    def _tangent_drift(self, stem):
        """The lifted double-integrator drift is (vx, vz, 0, 0)."""
        so = self.parsed[stem].second_order["dil.system"]
        chart = so.drift.atlas.charts[0].chart_id
        rng = np.random.default_rng(self.seed)
        lo = np.array([-1.9, -1.9, -1.4, -1.4])
        for c in rng.uniform(lo, -lo, size=(SAMPLES, 4)):
            got = np.reshape(so.drift.func(chart, c), -1)
            err = np.max(np.abs(got - [c[2], c[3], 0.0, 0.0]))
            if err > FIELD_TOL:
                self.fail((stem, None), f"drift at {c.tolist()} is {err:.3g} "
                                           f"from (vx, vz, 0, 0)")
