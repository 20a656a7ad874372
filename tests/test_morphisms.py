"""Lifts across submersions, kernel frames, and the lifting correspondence."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from liftreach.errors import (
    IndependenceViolated,
    NotAdapted,
    NotInKernel,
    NotSubmersion,
    RankDeficient,
    SingularGram,
    UnmappedControl,
)
from liftreach.geometry import (
    Atlas,
    Chart,
    SmoothMap,
    VectorField,
    box_atlas,
    circle_atlas,
    interval_atlas,
    mobius_atlas,
    union_atlas,
)
from liftreach.morphisms import (
    Morphism,
    _right_inverse_apply,
    augment_with_kernel,
    check_liftable,
    kernel_frame,
    kernel_projector,
    lift_system,
    metric_lift_morphism,
    morphism_from_lifting,
    verify_global_in_time,
    verify_trajectory_preserving,
)
from liftreach.systems import GeneratedSystem, control_system_from_tcs

from constructions import horizontal_lift, identity_map


def _rows_of(row):
    """A constant Jacobian of one row, at coords (..., n)."""
    row = np.array([row], dtype=float)
    return lambda cid, c: np.broadcast_to(row, np.shape(c)[:-1] + row.shape)


def _projection_setup(analytic=True):
    plane = box_atlas([[-2, 2], [-2, 2]], coord_names=["x", "z"])
    line = interval_atlas(-2, 2)
    proj = SmoothMap(
        source=plane, target=line,
        raw=lambda cid, coords: ("c0", coords[..., :1]),
        raw_jacobian=_rows_of([1.0, 0.0]) if analytic else None,
    )
    Y = VectorField(line, lambda cid, c: np.ones_like(c), name="Y")
    down = GeneratedSystem(line, (Y,), label="down")
    return plane, line, proj, down


def test_identity_lift_is_identity():
    atlas = interval_atlas(-2, 2)
    Y = VectorField(atlas, lambda cid, c: c + 1.0)
    sys = GeneratedSystem(atlas, (Y,))
    m, lifted = lift_system(sys, identity_map(atlas))
    p = atlas.normalize("c0", [0.3])
    assert_allclose(lifted.generators[0].at(p), Y.at(p), atol=1e-12)


def test_metric_lift_closed_form():
    """For the plane projection J = (1 0), the pseudo-inverse lift of d/dx
    has components exactly (1, 0)."""
    plane, _, proj, down = _projection_setup()
    m, lifted = lift_system(down, proj)
    p = plane.normalize("c0", [0.4, -0.7])
    assert_allclose(lifted.generators[0].at(p), [1.0, 0.0], atol=1e-12)


def test_metric_lift_with_nontrivial_metric():
    """Metric diag(1, 4) tilts nothing for this projection: the minimizer of
    the G-norm over J v = 1 is still (1, 0)."""
    plane, line, proj, down = _projection_setup()
    plane = replace(plane, metric_fn=lambda cid, X: np.broadcast_to(np.diag([1.0, 4.0]),
                                                                  (len(X), 2, 2)))
    m, lifted = lift_system(down, replace(proj, source=plane))
    p = plane.normalize("c0", [0.0, 0.0])
    assert_allclose(lifted.generators[0].at(p), [1.0, 0.0], atol=1e-12)


def test_skewed_map_lift_satisfies_pushforward():
    plane = box_atlas([[-2, 2], [-2, 2]])
    line = interval_atlas(-5, 5)
    phi = SmoothMap(
        source=plane, target=line,
        raw=lambda cid, c: ("c0", c[..., :1] + 0.5 * c[..., 1:]),
        raw_jacobian=_rows_of([1.0, 0.5]),
    )
    Y = VectorField(line, lambda cid, c: np.sin(c))
    m, lifted = lift_system(GeneratedSystem(line, (Y,)), phi)
    p = plane.normalize("c0", [0.3, 0.8])
    got = phi.jacobian(p) @ lifted.generators[0].at(p)
    assert_allclose(got, Y.at(phi.value(p)), atol=1e-12)


def test_non_submersion_is_rejected():
    plane = box_atlas([[-2, 2], [-2, 2]])
    line = interval_atlas(-9, 9)
    cube = SmoothMap(
        source=plane, target=line,
        raw=lambda cid, c: ("c0", c[..., :1] ** 3),
        raw_jacobian=lambda cid, c: np.stack([3 * c[..., :1] ** 2, np.zeros_like(c[..., :1])],
                                             axis=-1),
    )
    # rank drops only on the line x = 0, so random sampling may miss it;
    # probe the singular fiber directly through the Gram factor
    x = np.array([0.0, 0.3])
    with pytest.raises(SingularGram):
        _right_inverse_apply(cube.raw_jac_at("c0", x), None, "c0", x, np.array([1.0]))
    collapse = SmoothMap(
        source=plane, target=line,
        raw=lambda cid, c: ("c0", np.zeros_like(c[..., :1])),
        raw_jacobian=_rows_of([0.0, 0.0]),
    )
    with pytest.raises(NotSubmersion):
        metric_lift_morphism(collapse)


def test_verify_passes_exact_lift():
    plane, _, proj, down = _projection_setup()
    m, _ = lift_system(down, proj)
    report = verify_trajectory_preserving(m, down, samples=200, schedules=3)
    assert report["pass"]
    assert report["worst_residual"] <= 1e-12
    assert report["tolerance"] == 1e-9


def test_verify_fails_corrupted_lift():
    """Scaling the lifted base component by 1.1 leaves residual 0.1 * |Y|."""
    plane, _, proj, down = _projection_setup()
    good = metric_lift_morphism(proj)
    bad = Morphism(
        phi=proj,
        lift_rule=lambda Y: VectorField(
            plane, lambda cid, c, Y=Y: 1.1 * good.lift(Y).func(cid, c)),
        kind="metric-right-inverse",
    )
    report = verify_trajectory_preserving(bad, down, samples=200, schedules=0)
    assert not report["pass"]
    assert report["worst_residual"] == pytest.approx(0.1, abs=1e-9)


def test_verify_finite_difference_tolerance():
    plane, _, proj, down = _projection_setup(analytic=False)
    m, _ = lift_system(down, proj)
    report = verify_trajectory_preserving(m, down, samples=200, schedules=3)
    assert report["pass"]
    assert report["tolerance"] == 1e-6


def _two_chart_circle():
    """A circle of length 2 from two charts that share no coordinates: leaving
    chart a at x = 1 enters chart b at x = 0, and leaving b enters a."""
    def norm_rows(cid, X):
        turns = np.floor(X[:, 0])
        charts = (np.mod(turns, 2.0) != 0) != (cid == "b")
        return charts.astype(int), X - turns[:, None]

    charts = tuple(Chart(cid, np.array([[0.0, 1.0]]), (True,)) for cid in "ab")
    return Atlas(dim=1, charts=charts, normalize_rows=norm_rows,
                 jacobian_rows=lambda cid, X: np.ones((len(X), 1, 1)), name="two-chart")


def test_verify_compares_charts_without_shared_coordinates():
    """A map from the unit circle that forgets which chart of the two-chart
    circle its image is in: past the wrap, the projected trajectory is back
    in chart a at the very coordinate where the downstairs one has gone on
    into chart b. The residual is exact and the coordinates agree, so only
    the chart condition of the trajectory comparison sees it."""
    two = _two_chart_circle()
    phi = SmoothMap(circle_atlas(period=1.0), two, raw=lambda cid, c: ("a", c),
                    raw_jacobian=lambda cid, c: np.ones(np.shape(c)[:-1] + (1, 1)))
    down = GeneratedSystem(two, (VectorField(two, lambda cid, c: np.ones(np.shape(c))),))
    report = verify_trajectory_preserving(metric_lift_morphism(phi), down,
                                          samples=50, schedules=10)
    assert report["worst_residual"] == 0.0
    assert report["trajectory_excess"] == np.inf
    assert not report["pass"]


def test_global_in_time_detects_improper_escape():
    """Deleting a region upstairs makes the lifted flow escape early."""
    holey = union_atlas({"a": [[-2, 0], [-2, 2]], "b": [[-2, 2], [-2, 0.5]]})
    line = interval_atlas(-2, 2)
    proj = SmoothMap(
        source=holey, target=line,
        raw=lambda cid, c: ("c0", c[..., :1]),
        raw_jacobian=_rows_of([1.0, 0.0]),
    )
    Y = VectorField(line, lambda cid, c: np.ones_like(c))
    down = GeneratedSystem(line, (Y,))
    m, _ = lift_system(down, proj)
    blocked = holey.normalize("a", [-1.0, 1.0])
    report = verify_global_in_time(m, down, [blocked], horizon=2.0, h=1e-3)
    assert not report["pass"]
    d = report["details"][0]
    assert d["escape_up"] == pytest.approx(1.0, abs=2e-3)
    assert d["escape_down"] == pytest.approx(2.0)
    clear = holey.normalize("a", [-1.0, 0.2])
    assert verify_global_in_time(m, down, [clear], horizon=2.0, h=1e-3)["pass"]


def test_kernel_projector_idempotent_and_annihilated():
    plane, _, proj, down = _projection_setup()
    P = kernel_projector(proj, None, "c0", np.array([0.3, -0.4]))
    assert_allclose(P @ P, P, atol=1e-12)
    assert_allclose(proj.raw_jac_at("c0", np.array([0.3, -0.4])) @ P,
                    np.zeros((1, 2)), atol=1e-12)
    assert_allclose(P, np.diag([0.0, 1.0]), atol=1e-12)


def test_chartwise_frame_on_mobius_does_not_glue():
    """The projected d/dy frame flips sign across the seam, so chartwise
    sections exist but no global section does."""
    band = mobius_atlas()
    s1_period_one = circle_atlas(period=1.0)
    proj = SmoothMap(
        source=band, target=s1_period_one,
        raw=lambda cid, c: ("c0", c[..., :1]),
        raw_jacobian=_rows_of([1.0, 0.0]),
    )
    m = metric_lift_morphism(proj)
    frame = kernel_frame(m, mode="chartwise")
    assert frame.rank == 1
    assert not frame.global_ok
    p = band.normalize("c0", [0.5, 0.5])
    assert_allclose(frame.fields[1].at(p), [0.0, 1.0], atol=1e-12)


def test_global_frame_validation():
    plane, _, proj, down = _projection_setup()
    m = metric_lift_morphism(proj)
    vert = VectorField(plane, lambda cid, c: np.zeros_like(c) + [0.0, 1.0], name="vert")
    frame = kernel_frame(m, mode="global", generators=[vert])
    assert frame.rank == 1 and frame.global_ok
    horiz = VectorField(plane, lambda cid, c: np.zeros_like(c) + [1.0, 0.0])
    with pytest.raises(NotInKernel):
        kernel_frame(m, mode="global", generators=[horiz])
    dead = VectorField(plane, lambda cid, c: np.zeros_like(c))
    with pytest.raises(RankDeficient):
        kernel_frame(m, mode="global", generators=[dead])
    with pytest.raises(ValueError):
        kernel_frame(m, mode="nonsense")


def test_augment_with_kernel_adds_fiber_motion():
    plane, _, proj, down = _projection_setup()
    m, lifted = lift_system(down, proj)
    vert = VectorField(plane, lambda cid, c: np.zeros_like(c) + [0.0, 1.0])
    frame = kernel_frame(m, mode="global", generators=[vert])
    aug = augment_with_kernel(lifted, frame)
    assert aug.kernel_fields == frame.fields
    assert aug.kernel_base is None
    empty = kernel_frame(m, mode="global", generators=None)
    assert augment_with_kernel(lifted, empty) is lifted


def test_horizontal_lift_flat_connection():
    plane, line, proj, down = _projection_setup()
    m, lifted = horizontal_lift(down, proj)
    p = plane.normalize("c0", [0.2, 0.9])
    assert_allclose(lifted.generators[0].at(p), [1.0, 0.0], atol=1e-12)


def test_horizontal_lift_connection_term():
    """With A(x)(y, v) = a * y * v the fiber component is -a * Y(x) * v."""
    plane, line, proj, down = _projection_setup()
    a = 0.7
    conn = lambda cid, x: np.full(np.shape(x)[:-1] + (1, 1, 1), a)
    m, lifted = horizontal_lift(down, proj, connection=conn)
    p = plane.normalize("c0", [0.2, 0.9])
    assert_allclose(lifted.generators[0].at(p), [1.0, -a * 1.0 * 0.9], atol=1e-12)
    v = m.phi.jacobian(p) @ lifted.generators[0].at(p)
    assert_allclose(v, [1.0], atol=1e-12)


def test_horizontal_lift_of_zero_is_zero():
    plane, line, proj, _ = _projection_setup()
    zero = VectorField(line, lambda cid, c: np.zeros_like(c))
    m, lifted = horizontal_lift(GeneratedSystem(line, (zero,)), proj,
                                connection=lambda cid, x: np.full(np.shape(x)[:-1] + (1, 1, 1),
                                                                  0.7))
    p = plane.normalize("c0", [0.2, 0.9])
    assert_allclose(lifted.generators[0].at(p), [0.0, 0.0], atol=1e-12)


def test_horizontal_lift_requires_adapted_charts():
    """horizontal_lift runs the same adapted-chart check as second_order_lift."""
    plane, line, _, down = _projection_setup()
    skew = SmoothMap(
        source=plane, target=line,
        raw=lambda cid, c: ("c0", 0.5 * (c[..., :1] + c[..., 1:])),
    )
    with pytest.raises(NotAdapted, match="coordinate projection onto the first 1 axes"):
        horizontal_lift(down, skew)


def test_check_liftable_finds_lifting_map():
    plane, line, proj, _ = _projection_setup()
    Y1 = VectorField(line, lambda cid, c: np.ones_like(c), name="Y1")
    Y2 = VectorField(line, lambda cid, c: 0.5 * c, name="Y2")
    down = GeneratedSystem(line, (Y1, Y2))
    m, lifted = lift_system(down, proj)
    sigma1 = control_system_from_tcs(lifted)
    sigma2 = control_system_from_tcs(down)
    ok, mapping = check_liftable(sigma1, sigma2, proj)
    assert ok
    assert all(match is not None for _, match in mapping)
    morphism = morphism_from_lifting(mapping, sigma1, sigma2, proj)
    report = verify_trajectory_preserving(morphism, down, samples=150, schedules=2)
    assert report["pass"]


def test_check_liftable_false_for_cube():
    plane = box_atlas([[-2, 2], [-2, 2]])
    line = interval_atlas(-8.5, 8.5)
    cube = SmoothMap(
        source=plane, target=line,
        raw=lambda cid, c: ("c0", c[..., :1] ** 3),
        raw_jacobian=lambda cid, c: np.stack([3 * c[..., :1] ** 2, np.zeros_like(c[..., :1])],
                                             axis=-1),
    )
    right = VectorField(plane, lambda cid, c: np.zeros_like(c) + [1.0, 0.0])
    up = GeneratedSystem(plane, (right,))
    down = GeneratedSystem(line, (VectorField(line, lambda cid, c: np.ones_like(c)),))
    ok, mapping = check_liftable(control_system_from_tcs(up),
                                 control_system_from_tcs(down), cube)
    assert not ok
    assert mapping[0][1] is None
    with pytest.raises(UnmappedControl):
        morphism_from_lifting(mapping, control_system_from_tcs(up),
                              control_system_from_tcs(down), cube)


def test_check_liftable_rejects_dependent_slices():
    _, line, proj, _ = _projection_setup()
    Y = VectorField(line, lambda cid, c: np.ones_like(c))
    Yneg = VectorField(line, lambda cid, c: np.full_like(c, -1.0))
    down = GeneratedSystem(line, (Y, Yneg))
    m, lifted = lift_system(down, proj)
    with pytest.raises(IndependenceViolated):
        check_liftable(control_system_from_tcs(lifted),
                       control_system_from_tcs(down), proj)
