"""Grid-certified reachability: BFS over chart cells under dwell-time flows."""

from __future__ import annotations

import csv
import itertools
import math
from array import array
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import Escape, OutOfAtlas
from .geometry import Atlas, Point
from .systems import GeneratedSystem, flow_field

CellKey = tuple  # (chart_id, idx_0, ..., idx_{d-1})


@dataclass(frozen=True)
class Grid:
    """Uniform cell grid per chart axis; only canonical cells are counted.

    A cell is valid when its center point normalizes back to the same cell,
    so overlapping chart boxes are not double counted.
    """

    atlas: Atlas
    cells_per_axis: int

    def cell_of(self, p: Point) -> CellKey:
        chart = self.atlas.chart(p.chart_id)
        n = self.cells_per_axis
        idx = np.floor((p.coords - chart.box[:, 0]) / chart.widths() * n).astype(int)
        idx = np.clip(idx, 0, n - 1)
        return (p.chart_id, *idx.tolist())

    def center_coords(self, key: CellKey) -> np.ndarray:
        chart = self.atlas.chart(key[0])
        idx = np.array(key[1:], dtype=float)
        return chart.box[:, 0] + (idx + 0.5) * chart.widths() / self.cells_per_axis

    def center_point(self, key: CellKey) -> Optional[Point]:
        """Canonical point for the cell center, or None if it normalizes away."""
        coords = self.center_coords(key)
        try:
            p = self.atlas.normalize(key[0], coords)
        except OutOfAtlas:
            return None
        return p

    def is_valid(self, key: CellKey) -> bool:
        p = self.center_point(key)
        return p is not None and self.cell_of(p) == key

    def all_valid_cells(self) -> list[CellKey]:
        out = []
        n = self.cells_per_axis
        for chart in self.atlas.charts:
            for idx in itertools.product(range(n), repeat=self.atlas.dim):
                key = (chart.chart_id, *idx)
                if self.is_valid(key):
                    out.append(key)
        return out

    def canonical_cell(self, key: CellKey) -> Optional[CellKey]:
        """Remap a raw cell to the valid cell its center belongs to."""
        if self.is_valid(key):
            return key
        p = self.center_point(key)
        if p is None:
            return None
        other = self.cell_of(p)
        return other if self.is_valid(other) else None

    def neighbors(self, key: CellKey) -> list[CellKey]:
        """Cells adjacent to key (full Moore neighborhood).

        Neighbor candidates are found by shifting the cell center one cell
        width per axis and normalizing, so gluings and chart overlaps are
        resolved the same way trajectory samples are.
        """
        chart = self.atlas.chart(key[0])
        widths = chart.widths() / self.cells_per_axis
        center = self.center_coords(key)
        out = []
        for offsets in itertools.product((-1, 0, 1), repeat=self.atlas.dim):
            if all(o == 0 for o in offsets):
                continue
            raw = center + np.array(offsets) * widths
            try:
                p = self.atlas.normalize(key[0], raw)
            except OutOfAtlas:
                continue
            cell = self.cell_of(p)
            if cell != key and cell not in out:
                out.append(cell)
        return out


@dataclass(frozen=True)
class ReachReport:
    start: Point
    grid: int
    horizon: float
    dwell: float
    arrivals: dict  # CellKey -> first arrival time
    total_cells: int

    @property
    def coverage(self) -> float:
        return len(self.arrivals) / self.total_cells

    def visited(self, key: CellKey) -> bool:
        return key in self.arrivals

    def to_csv(self, path):
        dim = len(self.start.coords)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["chart_id"] + [f"i{k}" for k in range(dim)] + ["arrival_time"])
            for key in sorted(self.arrivals):
                writer.writerow([key[0], *key[1:], repr(self.arrivals[key])])

    def summary(self) -> dict:
        return {
            "coverage": self.coverage,
            "visited_cells": len(self.arrivals),
            "total_cells": self.total_cells,
            "horizon": self.horizon,
            "dwell": self.dwell,
            "grid": self.grid,
        }


def _flow_fields(sys: GeneratedSystem) -> list:
    """Fields flowed from every frontier cell: generators forward, kernel
    fields in both signs (riding on kernel_base when one is declared)."""
    flows = [g.func for g in sys.generators]
    base = sys.kernel_base
    for k in sys.kernel_fields:
        for sign in (1.0, -1.0):
            def func(cid, coords, k=k, sign=sign):
                v = sign * np.asarray(k.func(cid, coords), float)
                if base is not None:
                    v = v + np.asarray(base.func(cid, coords), float)
                return v
            flows.append(func)
    return flows


class _Outcome(NamedTuple):
    """Hits of every flow integrated for one dwell from one representative.

    times are relative to the start of the dwell. ends closes one slice per
    integrated flow, in flow order; within a slice the hits keep their
    order and their times never decrease, so a horizon cut is a per-flow
    break. Only hits that can insert an arrival are kept: none on the
    expanding cell, and none on a cell already listed with an earlier or
    equal time. points holds the hit point of kept entries whose cell
    centre is not canonical.
    """

    times: array
    cells: tuple
    ends: tuple
    points: dict


class _GridMemo:
    """What reach shares between calls on one system and one grid."""

    def __init__(self, g: Grid):
        self.grid = g
        self.total = len(g.all_valid_cells())
        self.cells: dict = {}     # cell -> (interned cell, canonical centre or None)
        self.outcomes: dict = {}  # (dwell, substeps) -> {cell: _Outcome}

    def cell(self, key: CellKey) -> tuple:
        """The interned key of a cell and its centre, None unless canonical."""
        entry = self.cells.get(key)
        if entry is None:
            center = self.grid.center_point(key)
            if center is not None and self.grid.cell_of(center) != key:
                center = None
            entry = self.cells[key] = (key, center)
        return entry


def _expand(atlas: Atlas, flows: list, memo: _GridMemo, key: CellKey, rep: Point,
            dwell: float, h: float) -> _Outcome:
    """Integrate every flow for one dwell from rep, the representative of key."""
    times, cells, ends, points = array("d"), [], [], {}
    first = {key: -math.inf}  # earliest listed time per cell
    for func in flows:
        if float(np.max(np.abs(func(rep.chart_id, rep.coords)))) < 1e-13:
            continue  # exact RK4 fixed point: the flow never moves
        hits = []
        try:
            flow_field(atlas, func, rep, dwell, h,
                       record=lambda t, p: hits.append((t, p)))
        except Escape:
            pass  # escaping flows contribute whatever cells they touched
        for t, p in hits:
            cell, center = memo.cell(memo.grid.cell_of(p))
            if t < first.get(cell, math.inf):
                first[cell] = t
                if center is None:
                    points[len(times)] = p
                times.append(t)
                cells.append(cell)
        ends.append(len(times))
    return _Outcome(times, tuple(cells), tuple(ends), points)


def reach(sys: GeneratedSystem, start: Point, grid: int, dwell: float,
          horizon: float, substeps: int = 10) -> ReachReport:
    """Breadth-first cell exploration under dwell-time flows.

    From each frontier cell's representative point every flow field is
    integrated for the dwell time; every cell touched along the way within
    the horizon is marked with its first arrival time and queued.

    A cell other than the start cell is represented by its centre when the
    centre is canonical, so its expansion depends only on (grid, dwell,
    substeps, cell). Those expansions are kept on the system and replayed
    by every later call, which gives exactly the arrivals of a fresh
    integration.
    """
    if dwell <= 0:
        raise ValueError("dwell must be positive")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    memo = sys._memo.get(grid)
    if memo is None:
        memo = sys._memo[grid] = _GridMemo(Grid(sys.atlas, grid))
    outcomes = memo.outcomes.setdefault((dwell, substeps), {})
    flows = _flow_fields(sys)
    h = dwell / substeps
    eps = 1e-12

    start_key = memo.grid.cell_of(start)
    arrivals = {start_key: 0.0}
    reps = {start_key: start}
    queue = deque([start_key])

    while queue:
        key = queue.popleft()
        t0 = arrivals[key]
        if t0 >= horizon - eps:
            continue
        rep = reps[key]
        shared = key != start_key and memo.cell(key)[1] is not None
        outcome = outcomes.get(key) if shared else None
        if outcome is None:
            outcome = _expand(sys.atlas, flows, memo, key, rep, dwell, h)
            if shared:
                outcomes[key] = outcome
        times, cells, points = outcome.times, outcome.cells, outcome.points
        lo = 0
        for hi in outcome.ends:
            for i in range(lo, hi):
                arrival = t0 + times[i]
                if arrival > horizon + eps:
                    break
                cell = cells[i]
                if cell not in arrivals:
                    arrivals[cell] = arrival
                    center = memo.cells[cell][1]
                    reps[cell] = center if center is not None else points[i]
                    queue.append(cell)
            lo = hi

    return ReachReport(start=start, grid=grid, horizon=horizon, dwell=dwell,
                       arrivals=arrivals, total_cells=memo.total)


def is_reachability_set(sys: GeneratedSystem, points: Sequence[Point], dwell: float,
                        horizon: float, grid: int, substeps: int = 10):
    """Check pairwise mutual reachability of the sampled set at cell level.

    Returns (verdict, witness) where witness[i, j] says whether points[j]'s
    cell is visited from points[i].
    """
    g = Grid(sys.atlas, grid)
    m = len(points)
    witness = np.zeros((m, m), dtype=bool)
    reports = {}
    for i, x in enumerate(points):
        key = g.cell_of(x)
        if key not in reports:
            reports[key] = reach(sys, x, grid, dwell, horizon, substeps=substeps)
        rep = reports[key]
        for j, z in enumerate(points):
            witness[i, j] = rep.visited(g.cell_of(z))
    return bool(witness.all()), witness


def stlc_probe(sys: GeneratedSystem, x0: Point, times: Sequence[float], grid: int,
               dwell: Optional[float] = None, substeps: int = 16) -> list[bool]:
    """Discrete interiority proxy for small-time local controllability.

    For each horizon t, true iff every grid neighbor of x0's cell is visited
    by the time-bounded reachable set.
    """
    g = Grid(sys.atlas, grid)
    home = g.cell_of(x0)
    nbrs = g.neighbors(home)
    verdicts = []
    for t in times:
        rep = reach(sys, x0, grid, dwell if dwell is not None else t, t,
                    substeps=substeps)
        verdicts.append(all(rep.visited(c) for c in nbrs))
    return verdicts
