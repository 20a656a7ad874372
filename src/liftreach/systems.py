"""Generated systems, ordinary control systems, schedules, and flows.

A GeneratedSystem is the globally generated case of a family of vector
fields on an atlas; kernel fields, when present, may be combined with real
coefficients by schedule selectors (optionally on top of a base drift).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    ControlOutOfSet,
    Escape,
    OutOfAtlas,
    UnresolvedSelector,
)
from .geometry import (
    Atlas,
    Point,
    Points,
    VectorField,
    _checked,
    combine_fields,
    distinct,
)


@dataclass(frozen=True)
class GeneratedSystem:
    """Globally generated family of vector fields, plus optional kernel fields.

    kernel_fields are selected by real coefficient vectors; a schedule
    segment with coefficients c integrates kernel_base + sum_j c_j K_j
    (kernel_base is None for plain fiber motion, or a drift that must stay
    switched on, as in second-order augmentation).
    """

    atlas: Atlas
    generators: tuple[VectorField, ...]
    kernel_fields: tuple[VectorField, ...] = ()
    kernel_base: Optional[VectorField] = None
    label: str = ""
    # reach's per-grid dwell-flow outcomes and the kernel flow of each
    # coefficient vector; lives and dies with this object
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def resolve(self, selector) -> VectorField:
        """Map a schedule selector to the vector field it integrates."""
        if isinstance(selector, (int, np.integer)):
            if not 0 <= selector < len(self.generators):
                raise UnresolvedSelector(f"generator index {selector} out of range")
            return self.generators[selector]
        coeffs = np.asarray(selector, dtype=float)
        if coeffs.ndim != 1:
            raise UnresolvedSelector(f"cannot interpret selector {selector!r}")
        if not self.kernel_fields:
            raise UnresolvedSelector("system has no kernel fields")
        if coeffs.shape != (len(self.kernel_fields),):
            raise UnresolvedSelector(
                f"expected {len(self.kernel_fields)} kernel coefficients"
            )
        return self._kernel_flow(coeffs)

    def flows(self) -> list:
        """The selector of every field reach integrates from a cell.

        The generator indices come first, then each unit kernel coefficient
        vector in both signs, which rides on kernel_base when one is declared.
        """
        signed = [sign * unit for unit in np.eye(len(self.kernel_fields)) for sign in (1.0, -1.0)]
        return list(range(len(self.generators))) + signed

    def _kernel_flow(self, coeffs) -> VectorField:
        """kernel_base + sum_j coeffs[j] K_j, built once per coefficient
        vector: a fill costs a compile."""
        key = ("kernel-flow", tuple(coeffs.tolist()))
        if key not in self._memo:
            fields, weights = list(self.kernel_fields), list(coeffs)
            if self.kernel_base is not None:
                fields.append(self.kernel_base)
                weights.append(1.0)
            self._memo[key] = combine_fields(fields, weights, name="kernel-combo")
        return self._memo[key]


@dataclass(frozen=True)
class Segment:
    selector: object
    duration: float


@dataclass(frozen=True)
class Schedule:
    """Piecewise-constant open-loop law: hold one field for each duration."""

    segments: tuple[Segment, ...]

    def __post_init__(self):
        for seg in self.segments:
            if seg.duration < 0:
                raise ValueError("segment durations must be nonnegative")

    @staticmethod
    def of(*pairs) -> "Schedule":
        return Schedule(tuple(Segment(sel, float(dur)) for sel, dur in pairs))

    def then(self, other: "Schedule") -> "Schedule":
        return Schedule(self.segments + other.segments)


@dataclass(frozen=True)
class Trajectory:
    samples: tuple[tuple[float, Point], ...]
    schedule: Schedule
    step: float

    @property
    def endpoint(self) -> Point:
        return self.samples[-1][1]


def rk4_step(func, chart_id: str, coords: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of func at coords (d,) or rows (N, d);
    DimensionMismatch when func gives another shape."""
    k1 = _checked(func(chart_id, coords), coords.shape, "a field in chart %r", chart_id)
    k2 = np.asarray(func(chart_id, coords + 0.5 * h * k1), float)
    k3 = np.asarray(func(chart_id, coords + 0.5 * h * k2), float)
    k4 = np.asarray(func(chart_id, coords + h * k3), float)
    return coords + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def step_schedule(duration: float, h: float, t0: float = 0.0) -> tuple[list, list]:
    """Step sizes and end times of the RK4 steps over one duration from t0.

    The one definition of the steps flow_field takes; integrate_requests
    draws the same steps once per schedule for all of its rows, reach's
    included, so their times equal flow_field's bit for bit.
    """
    steps, times = [], []
    t, remaining = t0, duration
    while remaining > 1e-15:
        step = min(h, remaining)
        t += step
        remaining -= step
        steps.append(step)
        times.append(t)
    return steps, times


def flow_field(atlas: Atlas, func, start: Point, duration: float, h: float,
               record=None, t0: float = 0.0) -> Point:
    """Classical RK4 flow of one chart-wise field with post-step normalization.

    record, when given, is called with (t, point) after every accepted step.
    Raises Escape when a step leaves the atlas.
    """
    p = start
    for step, t in zip(*step_schedule(duration, h, t0)):
        coords = rk4_step(func, p.chart_id, p.coords, step)
        try:
            p = atlas.normalize(p.chart_id, coords)
        except OutOfAtlas:
            raise Escape(t, None)
        if record is not None:
            record(t, p)
    return p


def integrate(sys: GeneratedSystem, start: Point, sched: Schedule, h: float) -> Trajectory:
    """Integrate a schedule segment by segment; raises Escape on atlas exit."""
    samples = [(0.0, start)]
    p = start
    t = 0.0
    for seg in sched.segments:
        field = sys.resolve(seg.selector)
        try:
            p = flow_field(
                sys.atlas, field.func, p, seg.duration, h,
                record=lambda tt, pp: samples.append((tt, pp)), t0=t,
            )
        except Escape as exc:
            raise Escape(exc.time, Trajectory(tuple(samples), sched, h))
        t += seg.duration
    return Trajectory(tuple(samples), sched, h)


class RowPlan(NamedTuple):
    """How step_rows steps the live rows while each keeps its field and chart:
    (rows, chart id, func) per group of one chart and one field (one object),
    and (rows, chart index, chart id) per chart; rows is slice(None) for all
    rows. A row r alone in its group is rows r of it, so it steps as a point
    and its generated fills compute on scalars: stepped as one-row arrays,
    lone live rows made certify rounds about 1.2 times as long, and rows
    alone in their groups about 1.05 times. A lone live row is rows
    slice(r, r + 1) of its chart.
    """

    groups: list
    charts: list


def plan_rows(atlas: Atlas, funcs: Sequence, field_of: np.ndarray, charts: np.ndarray,
              live: np.ndarray) -> RowPlan:
    """The plan of the live rows (ascending), row r under the array-native
    funcs[field_of[r]] from chart charts[r]."""
    if len(live) == 1:
        r, c = int(live[0]), int(charts[live[0]])
        cid = atlas.charts[c].chart_id
        return RowPlan([(r, cid, funcs[field_of[r]])], [(slice(r, r + 1), c, cid)])
    every = slice(None) if len(live) == len(charts) else live

    def split(key):
        keys = distinct(key)
        return [(every if len(keys) == 1 else live[key == k], k) for k in keys]

    n_charts = len(atlas.charts)
    groups = [(int(rows[0]) if not isinstance(rows, slice) and len(rows) == 1 else rows,
               atlas.charts[k % n_charts].chart_id, funcs[k // n_charts])
              for rows, k in split(field_of[live] * n_charts + charts[live])]
    return RowPlan(groups, [(rows, c, atlas.charts[c].chart_id)
                            for rows, c in split(charts[live])])


def step_rows(atlas: Atlas, plan: RowPlan, charts: np.ndarray, X: np.ndarray, step) -> bool:
    """One RK4 step of the planned rows, then normalization, as flow_field
    takes it; charts and X are updated in place, chart -1 for a row that
    left. step is a float, or a column (N, 1) giving each row its own step.
    Returns whether some row left or changed chart, which ends the plan."""
    column = isinstance(step, np.ndarray)
    for rows, cid, func in plan.groups:
        X[rows] = rk4_step(func, cid, X[rows], step[rows] if column else step)
    moved = False
    for rows, c, cid in plan.charts:
        charts[rows], X[rows] = atlas.normalize_rows(cid, X[rows])
        moved = moved or bool((charts[rows] != c).any())
    return moved


class RowFlow(NamedTuple):
    """Rows integrated together by integrate_requests, one per schedule.

    ends holds each row's last point, chart -1 for a row that left the
    atlas; escapes the end time of the step at which a row left (nan for
    one that stayed). counts is the number of samples of a row, its start
    and every accepted step, and times (N, S + 1) their times. samples,
    when recorded, are rows of rows: charts (N, S + 1) and coords
    (N, S + 1, d), chart -1 past a row's count.
    """

    ends: Points
    escapes: np.ndarray
    counts: np.ndarray
    times: np.ndarray
    samples: Optional[Points]


class RowRequest(NamedTuple):
    """Starts of one system under their schedules, to integrate with step h;
    record asks for samples."""

    system: GeneratedSystem
    starts: Points
    schedules: Sequence[Schedule]
    h: float
    record: bool = True


def _selector_key(selector):
    if isinstance(selector, (int, np.integer)):
        return int(selector)
    coeffs = np.asarray(selector, dtype=float)
    return coeffs.shape, tuple(coeffs.ravel().tolist())


def integrate_requests(requests: Sequence[RowRequest], stats=None) -> list:
    """The RowFlow of each request: integrate() of every start under its own
    schedule, bit for bit as run alone, up to the step that leaves the atlas
    and with that step's end time as its escape time. Selectors are resolved
    up front, and the steps of each schedule object are drawn once for all
    rows that share it; record=False keeps no samples. Requests whose
    systems share an atlas and a step size are rows of one integration,
    where one RowPlan serves until a schedule ends, a row still scheduled
    changes field, or a row changes chart or leaves; a step that every row
    still scheduled takes is passed as a float. stats, a Counter, counts
    integrations, rows and RK4 steps."""
    groups, flows = {}, {}
    for i, req in enumerate(requests):
        groups.setdefault((id(req.system.atlas), req.h), []).append(i)
    for idx in groups.values():
        flows.update(zip(idx, _integrate([requests[i] for i in idx], stats)))
    return [flows[i] for i in range(len(requests))]


def drive(bodies: Sequence, stats=None) -> list:
    """The return value of each generator body. A body yields lists of
    RowRequests and is sent their RowFlows; each round, the requests of
    every body still running go to one integrate_requests."""
    results, asks, flows = [None] * len(bodies), dict.fromkeys(range(len(bodies))), {}
    while asks:
        for i in list(asks):
            try:
                asks[i] = bodies[i].send(flows.get(i))
            except StopIteration as stop:
                del asks[i]
                results[i] = stop.value
        out = iter(integrate_requests([req for reqs in asks.values() for req in reqs], stats))
        flows = {i: [next(out) for _ in reqs] for i, reqs in asks.items()}
    return results


def _integrate(requests: Sequence[RowRequest], stats=None) -> list:
    """integrate_requests of requests that share an atlas and a step size; only the
    rows of requests that asked for samples are recorded, up to their last step."""
    atlas, h = requests[0].system.atlas, requests[0].h
    fields, index, tables, which = [], {}, [], []
    for req in requests:
        resolved, drawn = {}, {}  # selector key -> index into fields; id(schedule) -> table
        for sched in req.schedules:
            if id(sched) not in drawn:
                # one table per schedule object: field index, step and end time per step
                drawn[id(sched)], fs, hs, ts, t = len(tables), [], [], [], 0.0
                for seg in sched.segments:
                    key = _selector_key(seg.selector)
                    if key not in resolved:
                        field = req.system.resolve(seg.selector)
                        resolved[key] = index.setdefault(id(field), len(fields))
                        if resolved[key] == len(fields):
                            fields.append(field)
                    steps, times = step_schedule(seg.duration, h, t)
                    fs += [resolved[key]] * len(steps)
                    hs += steps
                    ts += times
                    t += seg.duration
                # as arrays: lists of every table would set the peak memory
                tables.append((np.array(fs, dtype=int), np.array(hs), np.array(ts)))
            which.append(drawn[id(sched)])
    funcs = [f.func for f in fields]
    # F, H and T have one row per table, and row r of the integration is table which[r]
    which = np.array(which, dtype=int)
    lengths = np.array([len(fs) for fs, _, _ in tables], dtype=int)
    N, K, S, n = len(which), len(tables), int(lengths.max(initial=0)), lengths[which]
    F, H, T = np.zeros((K, S), dtype=int), np.zeros((K, S)), np.zeros((K, S + 1))
    for k, (fs, hs, ts) in enumerate(tables):
        F[k, :len(fs)], H[k, :len(hs)], T[k, 1:len(ts) + 1] = fs, hs, ts
    del tables
    scheduled = np.arange(S) < lengths[:, None]
    lo = H.min(axis=0, initial=np.inf, where=scheduled)
    steps = lo.tolist()
    for s in np.flatnonzero(H.max(axis=0, initial=-np.inf, where=scheduled) != lo).tolist():
        steps[s] = H[which, s, None]
    del H
    charts = np.concatenate([np.asarray(req.starts.charts, dtype=int) for req in requests])
    X = np.concatenate([np.asarray(req.starts.coords, dtype=float).reshape(-1, atlas.dim)
                        for req in requests])
    escapes, counts = np.full(N, np.nan), n + 1
    bounds = np.cumsum([0] + [len(req.schedules) for req in requests])
    kept = np.repeat([req.record for req in requests], np.diff(bounds))
    slot, R, S_kept = np.cumsum(kept) - 1, int(kept.sum()), int(n[kept].max(initial=0))
    samples = Points(np.full((R, S_kept + 1), -1), np.zeros((R, S_kept + 1, atlas.dim)))
    samples.charts[:, 0], samples.coords[:, 0] = charts[kept], X[kept]

    def recorded(live):  # the live rows recorded, and their rows of samples
        rows = live[kept[live]]
        return (slice(None),) * 2 if len(rows) == N else (rows, slot[rows])

    live = np.flatnonzero(n > 0)
    at, into = recorded(live)
    done = set(lengths.tolist())  # steps at which some row's schedule is over
    # steps at which a row still scheduled changes field
    turns = set((np.flatnonzero(((F[:, 1:] != F[:, :-1]) & scheduled[:, 1:]).any(axis=0))
                 + 1).tolist())
    plan = None
    for s in range(S):
        if s in done:
            live, plan = live[n[live] > s], None
            if not len(live):
                break
            at, into = recorded(live)
        if plan is None or s in turns:
            plan = plan_rows(atlas, funcs, F[which, s], charts, live)
        if step_rows(atlas, plan, charts, X, steps[s]):
            plan, left = None, live[charts[live] < 0]
            escapes[left], counts[left] = T[which[left], s + 1], s + 1
            live = live[charts[live] >= 0]
            if not len(live):
                break
            at, into = recorded(live)
        if s < S_kept:
            samples.charts[into, s + 1], samples.coords[into, s + 1] = charts[at], X[at]
    if stats is not None:
        stats.update(integrations=1, rows=N,
                     rk4_steps=int((counts - np.isnan(escapes)).max(initial=0)))
    flows = []
    for req, a, b in zip(requests, bounds[:-1], bounds[1:]):
        w, k = int(n[a:b].max(initial=0)) + 1, slice(int(kept[:a].sum()), int(kept[:b].sum()))
        flows.append(RowFlow(Points(charts[a:b], X[a:b]), escapes[a:b], counts[a:b],
                             T[which[a:b], :w],
                             Points(samples.charts[k, :w], samples.coords[k, :w])
                             if req.record else None))
    return flows


# ---------------------------------------------------------------------------
# ordinary control systems


@dataclass(frozen=True)
class ControlSystem:
    """Ordinary control system: state manifold, control set, parameterized field.

    control_set is ("finite", list_of_controls) or ("box", bounds array).
    field_map(cid, coords, u) takes coords (..., d) and returns (..., d).
    """

    atlas: Atlas
    control_set: tuple
    field_map: Callable[[str, np.ndarray, object], np.ndarray]
    label: str = ""

    def controls(self) -> list:
        kind, data = self.control_set
        if kind != "finite":
            raise ControlOutOfSet("control set is not finite; sample it first")
        return list(data)

    def admits(self, u) -> bool:
        kind, data = self.control_set
        if kind == "finite":
            return any(_control_eq(u, v) for v in data)
        bounds = np.asarray(data, dtype=float)
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return bool(np.all(u >= bounds[:, 0]) and np.all(u <= bounds[:, 1]))

    def slice_at(self, u) -> VectorField:
        """The frozen field F^u; a field control is its own slice."""
        if isinstance(u, VectorField):
            return u
        return VectorField(
            self.atlas,
            lambda cid, coords, u=u: np.asarray(self.field_map(cid, coords, u), float),
            name=f"{self.label}^{u}",
        )


def _control_eq(a, b) -> bool:
    if a is b:
        return True
    try:
        return bool(np.allclose(np.asarray(a, float), np.asarray(b, float),
                                rtol=0.0, atol=1e-12))
    except (TypeError, ValueError):
        return a == b


def tcs_from_control_system(cs: ControlSystem, controls=None) -> GeneratedSystem:
    """Globally generated system whose generators are the slices F^u."""
    if controls is None:
        controls = cs.controls()
    controls = list(controls)
    if not controls:
        raise ValueError("need at least one control sample")
    gens = []
    for u in controls:
        if not isinstance(u, VectorField) and not cs.admits(u):
            raise ControlOutOfSet(f"control {u!r} not in control set")
        gens.append(cs.slice_at(u))
    return GeneratedSystem(cs.atlas, tuple(gens),
                           label=f"tcs({cs.label})")


def control_system_from_tcs(sys: GeneratedSystem) -> ControlSystem:
    """Discrete control system whose control set is the generator list itself."""
    if not sys.generators:
        raise ValueError("system has no generators")

    def field_map(cid, coords, u):
        if not isinstance(u, VectorField):
            raise ControlOutOfSet("controls of this system are vector fields")
        return np.asarray(u.func(cid, coords), float)

    return ControlSystem(sys.atlas, ("finite", list(sys.generators)), field_map,
                         label=f"cs({sys.label})")
