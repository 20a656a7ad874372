"""Schedules, flows, restriction, and the tcs/control-system correspondence."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from liftreach.errors import (
    ControlOutOfSet,
    EmptyRestriction,
    Escape,
    UnresolvedSelector,
)
from liftreach.geometry import VectorField, box_atlas, circle_atlas, interval_atlas
from liftreach.systems import (
    GeneratedSystem,
    Schedule,
    control_system_from_tcs,
    integrate,
    tcs_from_control_system,
)

from constructions import affine_control_system, integrate_control, restrict


def _line_system(lo=-4.0, hi=4.0):
    atlas = interval_atlas(lo, hi)
    right = VectorField(atlas, lambda cid, c: np.array([1.0]), name="right")
    expo = VectorField(atlas, lambda cid, c: np.array([c[0]]), name="expo")
    return GeneratedSystem(atlas, (right, expo), label="line")


def test_schedule_composition():
    s = Schedule.of((0, 0.5), (1, 0.25)).then(Schedule.of((0, 0.25)))
    assert s.total_duration == pytest.approx(1.0)
    assert len(s.segments) == 3
    with pytest.raises(ValueError):
        Schedule.of((0, -0.1))


def test_constant_flow_is_exact():
    sys = _line_system()
    start = sys.atlas.normalize("c0", [0.0])
    traj = integrate(sys, start, Schedule.of((0, 1.5)), h=1e-2)
    assert traj.endpoint.coords[0] == pytest.approx(1.5, abs=1e-14)
    assert traj.end_time == pytest.approx(1.5)


def test_exponential_flow_matches_closed_form():
    """x' = x from x0 = 0.5 gives x(t) = 0.5 e^t."""
    sys = _line_system()
    start = sys.atlas.normalize("c0", [0.5])
    traj = integrate(sys, start, Schedule.of((1, 1.0)), h=1e-3)
    assert traj.endpoint.coords[0] == pytest.approx(0.5 * np.e, abs=1e-10)


def test_escape_carries_partial_trajectory():
    sys = _line_system(lo=-1.0, hi=1.0)
    start = sys.atlas.normalize("c0", [0.5])
    with pytest.raises(Escape) as err:
        integrate(sys, start, Schedule.of((0, 2.0)), h=1e-3)
    assert err.value.time == pytest.approx(0.5, abs=2e-3)
    assert err.value.trajectory is not None
    assert err.value.trajectory.endpoint.coords[0] < 1.0


def test_flow_wraps_through_chart_gluings():
    atlas = circle_atlas()
    rot = VectorField(atlas, lambda cid, c: np.array([1.0]))
    sys = GeneratedSystem(atlas, (rot,))
    start = atlas.normalize("c0", [0.0])
    traj = integrate(sys, start, Schedule.of((0, 2 * np.pi + 0.1)), h=1e-3)
    assert traj.endpoint.coords[0] == pytest.approx(0.1, abs=1e-9)


def test_resolve_selectors():
    atlas = interval_atlas(-1, 1)
    g = VectorField(atlas, lambda cid, c: np.array([1.0]))
    k = VectorField(atlas, lambda cid, c: np.array([2.0]))
    sys = GeneratedSystem(atlas, (g,), kernel_fields=(k,))
    p = atlas.normalize("c0", [0.0])
    assert_allclose(sys.resolve(0).at(p), [1.0])
    assert_allclose(sys.resolve(np.array([0.5])).at(p), [1.0])
    with pytest.raises(UnresolvedSelector):
        sys.resolve(3)
    with pytest.raises(UnresolvedSelector):
        sys.resolve(np.array([1.0, 2.0]))


def test_kernel_base_rides_along():
    atlas = box_atlas([[-2, 2], [-2, 2]])
    base = VectorField(atlas, lambda cid, c: np.array([1.0, 0.0]))
    k = VectorField(atlas, lambda cid, c: np.array([0.0, 1.0]))
    sys = GeneratedSystem(atlas, (base,), kernel_fields=(k,), kernel_base=base)
    p = atlas.normalize("c0", [0.0, 0.0])
    assert_allclose(sys.resolve(np.array([0.25])).at(p), [1.0, 0.25])


def test_restrict_checks_bounds():
    sys = _line_system()
    sub = restrict(sys, "c0", [[-1.0, 1.0]])
    p = sub.atlas.normalize("c0", [0.5])
    assert_allclose(sub.generators[0].at(p), [1.0])
    with pytest.raises(EmptyRestriction):
        restrict(sys, "c0", [[1.0, -1.0]])
    with pytest.raises(EmptyRestriction):
        restrict(sys, "c0", [[-5.0, 1.0]])


def test_affine_control_system_slices():
    atlas = interval_atlas(-2, 2)
    drift = VectorField(atlas, lambda cid, c: np.array([c[0]]))
    g = VectorField(atlas, lambda cid, c: np.array([1.0]))
    cs = affine_control_system(atlas, drift, [g], ("box", [[-1.0, 1.0]]))
    p = atlas.normalize("c0", [0.5])
    assert_allclose(cs.slice_at([0.25]).at(p), [0.75])
    assert cs.admits([0.5]) and not cs.admits([1.5])


def test_integrate_control_matches_schedule_integration():
    atlas = interval_atlas(-2, 2)
    drift = VectorField(atlas, lambda cid, c: np.array([0.0]))
    g = VectorField(atlas, lambda cid, c: np.array([1.0]))
    cs = affine_control_system(atlas, drift, [g], ("box", [[-1.0, 1.0]]))
    start = atlas.normalize("c0", [0.0])
    traj = integrate_control(cs, start, [([1.0], 0.5), ([-0.5], 0.5)], h=1e-3)
    assert traj.endpoint.coords[0] == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(ControlOutOfSet):
        integrate_control(cs, start, [([2.0], 0.5)], h=1e-3)


def test_tcs_roundtrip_is_exact():
    """tcs -> control system -> tcs reproduces the generator tuple itself."""
    sys = _line_system()
    cs = control_system_from_tcs(sys)
    back = tcs_from_control_system(cs)
    assert back.generators == sys.generators


def test_control_system_from_tcs_rejects_foreign_controls():
    sys = _line_system()
    cs = control_system_from_tcs(sys)
    with pytest.raises(ControlOutOfSet):
        cs.field_map("c0", np.array([0.0]), 1.0)
