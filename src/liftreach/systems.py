"""Generated systems, ordinary control systems, schedules, and flows.

A GeneratedSystem is the globally generated case of a family of vector
fields on an atlas; kernel fields, when present, may be combined with real
coefficients by schedule selectors (optionally on top of a base drift).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

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
    Point,
    Tangent,
    VectorField,
    box_atlas,
    combine_fields,
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

    def at_times(self) -> np.ndarray:
        return np.array([t for t, _ in self.samples])


def rk4_step(func, chart_id: str, coords: np.ndarray, h: float) -> np.ndarray:
    k1 = np.asarray(func(chart_id, coords), float)
    k2 = np.asarray(func(chart_id, coords + 0.5 * h * k1), float)
    k3 = np.asarray(func(chart_id, coords + 0.5 * h * k2), float)
    k4 = np.asarray(func(chart_id, coords + h * k3), float)
    return coords + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def flow_field(atlas: Atlas, func, start: Point, duration: float, h: float,
               record=None, t0: float = 0.0) -> Point:
    """Classical RK4 flow of one chart-wise field with post-step normalization.

    record, when given, is called with (t, point) after every accepted step.
    Raises Escape when a step leaves the atlas.
    """
    p = start
    t = t0
    remaining = duration
    while remaining > 1e-15:
        step = min(h, remaining)
        coords = rk4_step(func, p.chart_id, p.coords, step)
        t += step
        remaining -= step
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
    gens = tuple(
        VectorField(sub, g.func, name=g.name) for g in sys.generators
    )
    kers = tuple(VectorField(sub, k.func, name=k.name) for k in sys.kernel_fields)
    base = (VectorField(sub, sys.kernel_base.func, name=sys.kernel_base.name)
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
