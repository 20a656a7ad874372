"""Constructions that no library code or scenario calls, kept as test
helpers: the presheaf restriction of a generated system to a sub-box, the
control-affine system of a drift and control fields, integration under a
piecewise-constant control signal, the identity map of an atlas, and the
horizontal lift of a linear connection. Each takes coordinates (..., d), a
point or rows, as every library field and map does. canonical reads
Atlas.normalize as a value, None outside the atlas, for test strategies."""

from dataclasses import replace
from typing import Sequence

import numpy as np

from liftreach.errors import ControlOutOfSet, EmptyRestriction, OutOfAtlas
from liftreach.geometry import Atlas, Point, SmoothMap, VectorField, box_atlas
from liftreach.morphisms import Morphism, check_adapted
from liftreach.systems import (
    ControlSystem,
    GeneratedSystem,
    Schedule,
    Trajectory,
    integrate,
)


def canonical(atlas: Atlas, chart_id: str, coords):
    """The (chart id, coords) of atlas.normalize, None outside the atlas."""
    try:
        p = atlas.normalize(chart_id, coords)
    except OutOfAtlas:
        return None
    return p.chart_id, p.coords


def restrict(sys: GeneratedSystem, chart_id: str, box) -> GeneratedSystem:
    """Presheaf restriction of the generator family to an open sub-box."""
    box = np.asarray(box, dtype=float)
    if np.any(box[:, 1] <= box[:, 0]):
        raise EmptyRestriction("restriction box is empty")
    chart = sys.atlas.charts[sys.atlas.chart_index(chart_id)]
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
        out = drift.values(cid, coords)
        for ui, f in zip(u, control_fields):
            if ui != 0.0:
                out = out + ui * f.values(cid, coords)
        return out

    return ControlSystem(atlas, control_set, field_map, label=label)


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


def identity_map(atlas: Atlas, name="id") -> SmoothMap:
    return SmoothMap(
        source=atlas,
        target=atlas,
        raw=lambda cid, coords: (cid, coords),
        raw_jacobian=lambda cid, coords: np.broadcast_to(
            np.eye(atlas.dim), np.shape(coords)[:-1] + (atlas.dim, atlas.dim)),
        name=name,
    )


def horizontal_lift(target_sys: GeneratedSystem, bundle: SmoothMap,
                    connection=None, samples: int = 30, seed: int = 0):
    """Linear-connection horizontal lift on a vector bundle in adapted charts.

    The bundle map must be the coordinate projection onto the first
    base-dim coordinates; connection(cid, x) takes base coordinates
    (..., base_dim), gives (..., fiber_dim, base_dim, fiber_dim) and
    defaults to flat (zero).
    """
    base_dim = bundle.target.dim
    fiber_dim = bundle.source.dim - base_dim
    check_adapted(bundle, samples=samples, seed=seed)
    if connection is None:
        connection = lambda cid, x: np.zeros(np.shape(x)[:-1] + (fiber_dim, base_dim, fiber_dim))

    def lift_rule(Y: VectorField) -> VectorField:
        def func(cid, coords):
            x, v = coords[..., :base_dim], coords[..., base_dim:]
            y = Y.values(bundle.raw(cid, coords)[0], x)
            A = np.asarray(connection(cid, x), float)
            fiber = -np.einsum("...aib,...i,...b->...a", A, y, v)
            return np.concatenate([y, fiber], axis=-1)

        return VectorField(bundle.source, func, name=f"hlift({Y.name})")

    m = Morphism(phi=bundle, lift_rule=lift_rule, kind="horizontal-connection")
    gens = tuple(m.lift(Y) for Y in target_sys.generators)
    return m, GeneratedSystem(bundle.source, gens, label=f"hlift({target_sys.label})")
