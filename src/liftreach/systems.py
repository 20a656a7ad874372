"""Generated systems, ordinary control systems, schedules, and flows.

A GeneratedSystem is the globally generated case of a family of vector
fields on an atlas; kernel fields, when present, may be combined with real
coefficients by schedule selectors (optionally on top of a base drift).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    ControlOutOfSet,
    EmptyRestriction,
    Escape,
    OutOfAtlas,
    UnresolvedSelector,
)
from .geometry import (
    Atlas,
    Member,
    Point,
    Points,
    VectorField,
    box_atlas,
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
    # reach's per-grid dwell-flow outcomes; lives and dies with this object
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

    def flows(self) -> list[VectorField]:
        """Every field reach integrates from a cell, all array-native.

        The generators come first, then each kernel field in both signs,
        riding on kernel_base when one is declared.
        """
        flows = [g if g.batched else replace(g, func=g.values, batched=True)
                 for g in self.generators]
        for unit in np.eye(len(self.kernel_fields)):
            flows += [self._kernel_flow(sign * unit) for sign in (1.0, -1.0)]
        return flows

    def _kernel_flow(self, coeffs) -> VectorField:
        """kernel_base + sum_j coeffs[j] K_j."""
        fields = list(self.kernel_fields)
        weights = list(coeffs)
        if self.kernel_base is not None:
            fields.append(self.kernel_base)
            weights.append(1.0)
        return combine_fields(fields, weights, name="kernel-combo")


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

    @property
    def total_duration(self) -> float:
        return float(sum(seg.duration for seg in self.segments))

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

    @property
    def end_time(self) -> float:
        return self.samples[-1][0]


def rk4_step(func, chart_id: str, coords: np.ndarray, h: float) -> np.ndarray:
    k1 = np.asarray(func(chart_id, coords), float)
    k2 = np.asarray(func(chart_id, coords + 0.5 * h * k1), float)
    k3 = np.asarray(func(chart_id, coords + 0.5 * h * k2), float)
    k4 = np.asarray(func(chart_id, coords + h * k3), float)
    return coords + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def step_schedule(duration: float, h: float, t0: float = 0.0) -> tuple[list, list]:
    """Step sizes and end times of the RK4 steps over one duration from t0.

    The one definition of the steps flow_field takes; reach integrates the
    same steps over rows, so its arrival times equal flow_field's bit for bit.
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


def family_heads(funcs: Sequence) -> np.ndarray:
    """Per func, the first func of its family (geometry.Member), or itself."""
    first = {}
    return np.array([first.setdefault(f.family, i) if isinstance(f, Member) else i
                     for i, f in enumerate(funcs)], dtype=int)


class RowPlan(NamedTuple):
    """How step_rows steps the live rows while each keeps its field and chart:
    (rows, chart id, func) per group of one chart and one field or family,
    and (rows, chart index, chart id) per chart. rows is slice(None) for all
    rows, or an int for a lone row, which steps as a point: as a one-row
    array, the improper scenario's escape checks take about 1.3 times as long.
    """

    groups: list
    charts: list
    lone: bool


def plan_rows(atlas: Atlas, funcs: Sequence, head: np.ndarray, field_of: np.ndarray,
              charts: np.ndarray, live: np.ndarray) -> RowPlan:
    """The plan of the live rows (ascending), row r under the array-native
    funcs[field_of[r]] from chart charts[r]; head is family_heads(funcs)."""
    if len(live) == 1:
        r, c = int(live[0]), int(charts[live[0]])
        cid = atlas.charts[c].chart_id
        return RowPlan([(r, cid, funcs[field_of[r]])], [(r, c, cid)], True)
    every = slice(None) if len(live) == len(charts) else live

    def split(key):
        keys = distinct(key)
        return [(every if len(keys) == 1 else live[key == k], k) for k in keys]

    n_charts, groups = len(atlas.charts), []
    for rows, k in split(head[field_of[live]] * n_charts + charts[live]):
        func = funcs[k // n_charts]
        if isinstance(func, Member):
            func = _together(funcs, field_of[rows])
        groups.append((rows, atlas.charts[k % n_charts].chart_id, func))
    return RowPlan(groups, [(rows, c, atlas.charts[c].chart_id)
                            for rows, c in split(charts[live])], False)


def step_rows(atlas: Atlas, plan: RowPlan, charts: np.ndarray, X: np.ndarray, step) -> bool:
    """One RK4 step of the planned rows, then normalization, as flow_field
    takes it; charts and X are updated in place, chart -1 for a row that
    left. step is a float, or a column (N, 1) giving each row its own step.
    Returns whether some row left or changed chart, which ends the plan."""
    column = isinstance(step, np.ndarray)
    if plan.lone:
        (r, cid, func), (_, c, _) = plan.groups[0], plan.charts[0]
        x = rk4_step(func, cid, X[r], float(step[r, 0]) if column else step)
        to, Y = atlas.normalize_rows(cid, x[None])
        charts[r], X[r] = to[0], Y[0]
        return to[0] != c
    for rows, cid, func in plan.groups:
        X[rows] = rk4_step(func, cid, X[rows], step[rows] if column else step)
    moved = False
    for rows, c, cid in plan.charts:
        charts[rows], X[rows] = atlas.normalize_many(cid, X[rows])
        moved = moved or bool((charts[rows] != c).any())
    return moved


def _together(funcs: Sequence, field_of: np.ndarray):
    """One func for rows under funcs[field_of[r]], all members of one family."""
    fields = distinct(field_of)
    if len(fields) == 1:
        return funcs[fields[0]]
    members = tuple(funcs[i].member for i in fields)
    rows = tuple(np.flatnonzero(field_of == i) for i in fields)
    family = funcs[fields[0]].family
    return lambda cid, coords: family(cid, coords, members, rows)


class RowFlow(NamedTuple):
    """Rows integrated together by integrate_rows, one per schedule.

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


def _selector_key(selector):
    if isinstance(selector, (int, np.integer)):
        return int(selector)
    coeffs = np.asarray(selector, dtype=float)
    return coeffs.shape, tuple(coeffs.ravel().tolist())


def integrate_rows(sys: GeneratedSystem, starts: Points, schedules: Sequence[Schedule],
                   h: float, record: bool = True) -> RowFlow:
    """integrate() of every start under its own schedule, all rows at once.

    Each row takes the steps step_schedule gives its segments, so it equals,
    bit for bit, integrate() run alone: the same samples up to the step that
    leaves the atlas, and that step's end time as its escape time. Every
    selector is resolved up front. With record=False no samples are kept.
    One RowPlan serves until a schedule ends, a row still scheduled changes
    field, or a row changes chart or leaves; a step that every row still
    scheduled takes is passed as a float.
    """
    funcs, index, plans = [], {}, []
    for sched in schedules:
        fields, steps, times, t = [], [], [], 0.0
        for seg in sched.segments:
            key = _selector_key(seg.selector)
            if key not in index:
                field = sys.resolve(seg.selector)
                index[key] = len(funcs)
                funcs.append(field.func if field.batched else field.values)
            seg_steps, seg_times = step_schedule(seg.duration, h, t)
            fields += [index[key]] * len(seg_steps)
            steps += seg_steps
            times += seg_times
            t += seg.duration
        plans.append((fields, steps, times))
    n = np.array([len(steps) for _, steps, _ in plans], dtype=int)
    N, S = len(plans), int(n.max(initial=0))
    F, H, T = np.zeros((N, S), dtype=int), np.zeros((N, S)), np.zeros((N, S + 1))
    for r, (fields, steps, times) in enumerate(plans):
        F[r, :n[r]], H[r, :n[r]], T[r, 1:n[r] + 1] = fields, steps, times

    charts = np.array(starts.charts, dtype=int)
    X = np.array(starts.coords, dtype=float).reshape(N, sys.atlas.dim)
    escapes, counts = np.full(N, np.nan), n + 1
    samples = None
    if record:
        samples = Points(np.full((N, S + 1), -1), np.zeros((N, S + 1, sys.atlas.dim)))
        samples.charts[:, 0], samples.coords[:, 0] = charts, X
    live = np.flatnonzero(n > 0)
    done = set(n.tolist())  # steps at which some row's schedule is over
    scheduled = np.arange(S) < n[:, None]
    # steps at which a row still scheduled changes field
    turns = set((np.flatnonzero(((F[:, 1:] != F[:, :-1]) & scheduled[:, 1:]).any(axis=0))
                 + 1).tolist())
    lo = H.min(axis=0, initial=np.inf, where=scheduled).tolist()
    hi = H.max(axis=0, initial=-np.inf, where=scheduled).tolist()
    steps = [a if a == b else H[:, s, None] for s, (a, b) in enumerate(zip(lo, hi))]
    head, plan = family_heads(funcs), None
    for s in range(S):
        if s in done:
            live, plan = live[n[live] > s], None
            if not len(live):
                break
        if plan is None or s in turns:
            plan = plan_rows(sys.atlas, funcs, head, F[:, s], charts, live)
        if step_rows(sys.atlas, plan, charts, X, steps[s]):
            plan, left = None, live[charts[live] < 0]
            escapes[left], counts[left] = T[left, s + 1], s + 1
            live = live[charts[live] >= 0]
            if not len(live):
                break
        if record:
            at = slice(None) if len(live) == N else live
            samples.charts[at, s + 1], samples.coords[at, s + 1] = charts[at], X[at]
    return RowFlow(Points(charts, X), escapes, counts, T, samples)


def restrict(sys: GeneratedSystem, chart_id: str, box) -> GeneratedSystem:
    """Presheaf restriction of the generator family to an open sub-box."""
    box = np.asarray(box, dtype=float)
    if np.any(box[:, 1] <= box[:, 0]):
        raise EmptyRestriction("restriction box is empty")
    chart = sys.atlas.chart(chart_id)
    if np.any(box[:, 0] < chart.box[:, 0]) or np.any(box[:, 1] > chart.box[:, 1]):
        raise EmptyRestriction("restriction box exceeds the chart box")
    sub = box_atlas(box, coord_names=sys.atlas.coord_names,
                    name=f"{sys.atlas.name}|{chart_id}")
    gens = tuple(replace(g, atlas=sub) for g in sys.generators)
    kers = tuple(replace(k, atlas=sub) for k in sys.kernel_fields)
    base = (replace(sys.kernel_base, atlas=sub)
            if sys.kernel_base is not None else None)
    return GeneratedSystem(sub, gens, kers, base, label=f"{sys.label}|restricted")


# ---------------------------------------------------------------------------
# ordinary control systems


@dataclass(frozen=True)
class ControlSystem:
    """Ordinary control system: state manifold, control set, parameterized field.

    control_set is ("finite", list_of_controls) or ("box", bounds array).
    affine, when present, is (drift, control_fields) with
    field(x, u) = drift(x) + sum_i u[i] * control_fields[i](x).
    """

    atlas: Atlas
    control_set: tuple
    field_map: Callable[[str, np.ndarray, object], np.ndarray]
    affine: Optional[tuple[VectorField, tuple[VectorField, ...]]] = None
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
        """The frozen field F^u."""
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


def affine_control_system(atlas: Atlas, drift: VectorField,
                          control_fields: Sequence[VectorField],
                          control_set, label="affine") -> ControlSystem:
    control_fields = tuple(control_fields)

    def field_map(cid, coords, u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        out = np.asarray(drift.func(cid, coords), float)
        for ui, f in zip(u, control_fields):
            if ui != 0.0:
                out = out + ui * np.asarray(f.func(cid, coords), float)
        return out

    return ControlSystem(atlas, control_set, field_map,
                         affine=(drift, control_fields), label=label)


def slice_signal(cs: ControlSystem, mu: Sequence[tuple]) -> list[tuple[VectorField, float]]:
    """Freeze a piecewise-constant control signal into per-segment fields."""
    out = []
    for u, duration in mu:
        if not cs.admits(u):
            raise ControlOutOfSet(f"control {u!r} not in control set")
        out.append((cs.slice_at(u), float(duration)))
    return out


def integrate_control(cs: ControlSystem, start: Point, mu: Sequence[tuple], h: float) -> Trajectory:
    """Integrate under a piecewise-constant control signal."""
    fields = slice_signal(cs, mu)
    sys = GeneratedSystem(cs.atlas, tuple(f for f, _ in fields), label=cs.label)
    sched = Schedule.of(*((i, d) for i, (_, d) in enumerate(fields)))
    return integrate(sys, start, sched, h)


def tcs_from_control_system(cs: ControlSystem, controls=None) -> GeneratedSystem:
    """Globally generated system whose generators are the slices F^u."""
    if controls is None:
        controls = cs.controls()
    controls = list(controls)
    if not controls:
        raise ValueError("need at least one control sample")
    gens = []
    for u in controls:
        if isinstance(u, VectorField):
            # control set built from a generator list: the slice is the field
            gens.append(u)
        else:
            if not cs.admits(u):
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
