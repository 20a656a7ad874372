"""Grid-certified reachability: BFS over chart cells under dwell-time flows."""

from __future__ import annotations

import csv
import itertools
import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .geometry import Atlas, Point, Points, distinct
from .systems import GeneratedSystem, family_heads, plan_rows, step_rows, step_schedule

CellKey = tuple  # (chart_id, idx_0, ..., idx_{d-1})


@dataclass(frozen=True)
class Grid:
    """Uniform cell grid per chart axis; only canonical cells are counted.

    A cell is valid when its center point normalizes back to the same cell,
    so overlapping chart boxes are not double counted. Batched code names a
    cell by its flat index: chart index * cells_per_axis**dim plus the
    row-major index of the cell within its chart.
    """

    atlas: Atlas
    cells_per_axis: int

    @cached_property
    def _frame(self):
        """Per chart: box lower corners and widths, (charts, dim) each."""
        lo = np.array([c.box[:, 0] for c in self.atlas.charts])
        widths = np.array([c.widths() for c in self.atlas.charts])
        return lo, widths

    @property
    def _shape(self) -> tuple:
        return (self.cells_per_axis,) * self.atlas.dim

    @property
    def size(self) -> int:
        """Number of flat indices: every cell of every chart."""
        return len(self.atlas.charts) * self.cells_per_axis ** self.atlas.dim

    def cells_of(self, rows: Points) -> np.ndarray:
        """Flat index of the cell of each canonical row."""
        lo, widths = self._frame
        n = self.cells_per_axis
        idx = np.floor((rows.coords - lo[rows.charts]) / widths[rows.charts] * n).astype(int)
        idx = np.clip(idx, 0, n - 1)
        return rows.charts * n ** self.atlas.dim + np.ravel_multi_index(idx.T, self._shape)

    def keys_of(self, flat) -> list[CellKey]:
        """Cell keys of flat indices."""
        chart, rest = np.divmod(np.asarray(flat, dtype=int), self.cells_per_axis ** self.atlas.dim)
        ids = [c.chart_id for c in self.atlas.charts]
        idx = np.stack(np.unravel_index(rest, self._shape), axis=-1).tolist()
        return [(ids[c], *i) for c, i in zip(chart.tolist(), idx)]

    def cell_of(self, p: Point) -> CellKey:
        return self.keys_of(self.cells_of(self.atlas.stack([p])))[0]

    def _flat_of(self, key: CellKey) -> int:
        """Flat index of a cell key."""
        within = np.ravel_multi_index(tuple(key[1:]), self._shape)
        return self.atlas.chart_index(key[0]) * self.cells_per_axis ** self.atlas.dim + within

    def _raw_centers(self, flat: np.ndarray) -> tuple:
        """Chart index and raw center coords of each flat cell."""
        chart, rest = np.divmod(flat, self.cells_per_axis ** self.atlas.dim)
        lo, widths = self._frame
        idx = np.stack(np.unravel_index(rest, self._shape), axis=-1).astype(float)
        return chart, lo[chart] + (idx + 0.5) * widths[chart] / self.cells_per_axis

    def centers(self, flat) -> Points:
        """Normalized center points of flat cells; rows outside the atlas get chart -1."""
        chart, raw = self._raw_centers(np.asarray(flat, dtype=int))
        charts = np.full(len(chart), -1)
        for c in distinct(chart):
            sel = chart == c
            charts[sel], raw[sel] = self.atlas.normalize_rows(self.atlas.charts[c].chart_id,
                                                              raw[sel])
        return Points(charts, raw)

    def _cells(self, rows: Points) -> np.ndarray:
        """cells_of each row, -1 for a row outside the atlas."""
        inside = rows.charts >= 0
        cells = np.full(len(rows.charts), -1)
        cells[inside] = self.cells_of(Points(rows.charts[inside], rows.coords[inside]))
        return cells

    def center_point(self, key: CellKey) -> Optional[Point]:
        """Canonical point for the cell center, or None if it normalizes away."""
        (c,), (x,) = self.centers([self._flat_of(key)])
        return Point(self.atlas.charts[c].chart_id, x) if c >= 0 else None

    def is_valid(self, key: CellKey) -> bool:
        flat = self._flat_of(key)
        return bool(self._cells(self.centers([flat]))[0] == flat)

    def valid_flat(self) -> np.ndarray:
        """Flat indices of every valid cell, ascending."""
        flat = np.arange(self.size)
        return flat[self._cells(self.centers(flat)) == flat]

    def all_valid_cells(self) -> list[CellKey]:
        """Every valid cell, in chart order and row-major within a chart."""
        return self.keys_of(self.valid_flat())

    def neighbors(self, key: CellKey) -> list[CellKey]:
        """Cells adjacent to key (full Moore neighborhood), in first-seen order.

        Neighbor candidates are found by shifting the cell center one cell
        width per axis and normalizing, so gluings and chart overlaps are
        resolved the same way trajectory samples are.
        """
        flat = self._flat_of(key)
        chart, center = self._raw_centers(np.array([flat]))
        offsets = np.array([o for o in itertools.product((-1, 0, 1), repeat=self.atlas.dim)
                            if any(o)])
        raw = center + offsets * (self._frame[1][chart] / self.cells_per_axis)
        cells = self._cells(Points(*self.atlas.normalize_rows(key[0], raw))).tolist()
        return self.keys_of([c for c in dict.fromkeys(cells) if c not in (flat, -1)])


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


class _Outcome(NamedTuple):
    """Hits of every flow integrated for one dwell from one representative.

    times are relative to the start of the dwell and cells are flat cell
    indices. ends closes one slice per integrated flow, in flow order;
    within a slice the hits keep their order and their times never
    decrease, so a horizon cut is a per-flow break. Only hits that can
    insert an arrival are kept: none on the expanding cell, and none on a
    cell already listed with an earlier or equal time. points holds the hit
    point, as (chart index, coords), of kept entries whose cell is not valid.
    """

    times: array
    cells: array
    ends: tuple
    points: dict


class _GridMemo:
    """What reach shares between calls on one system and one grid."""

    def __init__(self, g: Grid):
        self.grid = g
        flat = g.valid_flat()
        self.total = len(flat)
        self.valid = np.zeros(g.size, dtype=bool)
        self.valid[flat] = True
        self.valid_list = self.valid.tolist()  # for per-hit lookups in Python loops
        # canonical centres of valid cells, the representatives of their expansions
        self.centres = np.zeros((g.size, g.atlas.dim))
        self.centres[flat] = g.centers(flat).coords
        self.outcomes: dict = {}  # (dwell, substeps) -> {flat cell: _Outcome}


def _integrate(memo: _GridMemo, flows: list, flow_of: np.ndarray, start: Points,
               steps: list) -> tuple[np.ndarray, dict]:
    """RK4-step every row under its flow through one dwell, all rows at once.

    Returns the flat cell each row is in after each step (-1 from the step
    at which it leaves the atlas on; that step records no hit, as in
    flow_field) and the hit points on cells that are not valid, keyed by
    (row, step).
    """
    atlas, grid = memo.grid.atlas, memo.grid
    funcs = [f.func for f in flows]
    charts, X = start.charts.copy(), start.coords.copy()
    hits = np.full((len(X), len(steps)), -1, dtype=np.int64)
    points = {}
    live = np.arange(len(X))
    head, plan = family_heads(funcs), None
    for s, step in enumerate(steps):
        if plan is None:
            plan = plan_rows(atlas, funcs, head, flow_of, charts, live)
        if step_rows(atlas, plan, charts, X, step):
            live, plan = live[charts[live] >= 0], None
        if not len(live):
            break
        cells = grid.cells_of(Points(charts[live], X[live]))
        hits[live, s] = cells
        for r in live[~memo.valid[cells]].tolist():
            points[r, s] = (int(charts[r]), X[r].copy())
    return hits, points


def _expand_layer(memo: _GridMemo, flows: list, cells: list, reps: Points,
                  steps: list, times: list) -> list:
    """The _Outcome of every cell, each integrated from its representative."""
    atlas = memo.grid.atlas
    # row (f, i) flows cell i under flow f; an exact RK4 fixed point never moves
    row_of = np.full((len(flows), len(cells)), -1)
    flow_of = []
    for f, field in enumerate(flows):
        moving = np.zeros(len(cells), dtype=bool)
        for c in distinct(reps.charts):
            sel = reps.charts == c
            k1 = field.values(atlas.charts[c].chart_id, reps.coords[sel])
            moving[sel] = ~(np.max(np.abs(k1), axis=1) < 1e-13)
        row_of[f, moving] = np.arange(len(flow_of), len(flow_of) + int(moving.sum()))
        flow_of += [f] * int(moving.sum())
    flow_of = np.array(flow_of, dtype=int)
    cell_of_row = np.nonzero(row_of >= 0)[1]
    hits, points = _integrate(memo, flows, flow_of,
                              Points(reps.charts[cell_of_row], reps.coords[cell_of_row]),
                              steps)
    valid = memo.valid_list
    out = []
    for i, key in enumerate(cells):
        kept_times, kept_cells, ends, kept_points = array("d"), array("q"), [], {}
        first = {key: -math.inf}  # earliest listed time per cell
        for r in row_of[:, i].tolist():
            if r < 0:
                continue
            for s, cell in enumerate(hits[r].tolist()):
                if cell < 0:
                    break
                t = times[s]
                if t < first.get(cell, math.inf):
                    first[cell] = t
                    if not valid[cell]:
                        kept_points[len(kept_times)] = points[r, s]
                    kept_times.append(t)
                    kept_cells.append(cell)
            ends.append(len(kept_times))
        out.append(_Outcome(kept_times, kept_cells, tuple(ends), kept_points))
    return out


def reach(sys: GeneratedSystem, start: Point, grid: int, dwell: float,
          horizon: float, substeps: int = 10) -> ReachReport:
    """Breadth-first cell exploration under dwell-time flows.

    From each frontier cell's representative point every flow field is
    integrated for the dwell time; every cell touched along the way within
    the horizon is marked with its first arrival time and queued.

    The search runs one BFS layer at a time: the expansions of a layer are
    integrated together as rows of one RK4 array, then replayed in queue
    order, which gives exactly the arrivals of expanding cell by cell.
    A cell other than the start cell is represented by its centre when the
    cell is valid, so its expansion depends only on (grid, dwell, substeps,
    cell). Those expansions are kept on the system and replayed by every
    later call.
    """
    if dwell <= 0:
        raise ValueError("dwell must be positive")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    memo = sys._memo.get(grid)
    if memo is None:
        memo = sys._memo[grid] = _GridMemo(Grid(sys.atlas, grid))
    outcomes = memo.outcomes.setdefault((dwell, substeps), {})
    flows = sys.flows()
    steps, times = step_schedule(dwell, dwell / substeps)
    eps = 1e-12
    g, valid = memo.grid, memo.valid_list
    per_chart = grid ** sys.atlas.dim

    start_rep = (sys.atlas.chart_index(start.chart_id), np.asarray(start.coords, float))
    start_cell = int(g.cells_of(Points(np.array([start_rep[0]]), start_rep[1][None, :]))[0])
    arrivals = {start_cell: 0.0}
    reps = {start_cell: start_rep}  # representatives of the start and of invalid cells
    layer = [start_cell]

    while layer:
        layer = [cell for cell in layer if arrivals[cell] < horizon - eps]
        shared = [cell != start_cell and valid[cell] for cell in layer]
        fresh = [cell for cell, sh in zip(layer, shared) if not (sh and cell in outcomes)]
        computed = {}
        if fresh:
            charts = [reps[c][0] if c in reps else c // per_chart for c in fresh]
            coords = [reps[c][1] if c in reps else memo.centres[c] for c in fresh]
            computed = dict(zip(fresh, _expand_layer(
                memo, flows, fresh, Points(np.array(charts), np.array(coords)), steps, times)))
            outcomes.update((cell, computed[cell]) for cell, sh in zip(layer, shared)
                            if sh and cell in computed)
        next_layer = []
        for cell, sh in zip(layer, shared):
            outcome = outcomes[cell] if sh else computed[cell]
            t0 = arrivals[cell]
            hit_times, hit_cells, points = outcome.times, outcome.cells, outcome.points
            lo = 0
            for hi in outcome.ends:
                for i in range(lo, hi):
                    arrival = t0 + hit_times[i]
                    if arrival > horizon + eps:
                        break
                    hit = hit_cells[i]
                    if hit not in arrivals:
                        arrivals[hit] = arrival
                        if not valid[hit]:
                            reps[hit] = points[i]
                        next_layer.append(hit)
                lo = hi
        layer = next_layer

    keys = g.keys_of(list(arrivals))
    return ReachReport(start=start, grid=grid, horizon=horizon, dwell=dwell,
                       arrivals=dict(zip(keys, arrivals.values())), total_cells=memo.total)


def is_reachability_set(sys: GeneratedSystem, points: Sequence[Point], dwell: float,
                        horizon: float, grid: int, substeps: int = 10):
    """Check pairwise mutual reachability of the sampled set at cell level.

    Returns (verdict, witness) where witness[i, j] says whether points[j]'s
    cell is visited from points[i].
    """
    g = Grid(sys.atlas, grid)
    keys = g.keys_of(g.cells_of(sys.atlas.stack(points)))
    witness = np.zeros((len(points), len(points)), dtype=bool)
    reports = {}
    for i, (x, key) in enumerate(zip(points, keys)):
        if key not in reports:
            reports[key] = reach(sys, x, grid, dwell, horizon, substeps=substeps)
        witness[i] = [reports[key].visited(k) for k in keys]
    return bool(witness.all()), witness


def stlc_probe(sys: GeneratedSystem, x0: Point, times: Sequence[float], grid: int,
               dwell: Optional[float] = None, substeps: int = 16) -> list[bool]:
    """Discrete interiority proxy for small-time local controllability.

    For each horizon t, true iff every grid neighbor of x0's cell is visited
    by the time-bounded reachable set. Without a dwell every horizon is
    its own dwell, which no later call replays, so the expansions stored
    for a (dwell, substeps) that the probe was first to use are dropped
    afterwards; with a dwell they are kept for later calls.
    """
    g = Grid(sys.atlas, grid)
    home = g.cell_of(x0)
    nbrs = g.neighbors(home)
    memo = sys._memo.get(grid)
    before = set(memo.outcomes) if memo is not None else set()
    verdicts = []
    for t in times:
        rep = reach(sys, x0, grid, dwell if dwell is not None else t, t,
                    substeps=substeps)
        verdicts.append(all(rep.visited(c) for c in nbrs))
    if dwell is None and times:
        outcomes = sys._memo[grid].outcomes
        for key in set(outcomes) - before:
            del outcomes[key]
    return verdicts
