"""Constructions that no library code or scenario calls, kept as test
helpers: the presheaf restriction of a generated system to a sub-box, the
control-affine system of a drift and control fields, and integration under
a piecewise-constant control signal."""

from dataclasses import replace
from typing import Sequence

import numpy as np

from liftreach.errors import ControlOutOfSet, EmptyRestriction
from liftreach.geometry import Atlas, Point, VectorField, box_atlas
from liftreach.systems import (
    ControlSystem,
    GeneratedSystem,
    Schedule,
    Trajectory,
    integrate,
)


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
