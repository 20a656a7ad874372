"""Tangent atlases, second-order systems, their lifts, and geodesic sprays."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from liftreach.errors import FrameNotKernel, NotAdapted
from liftreach.geometry import (
    SmoothMap,
    VectorField,
    box_atlas,
    interval_atlas,
    mobius_atlas,
)
from liftreach.morphisms import kernel_frame, metric_lift_morphism
from liftreach.second_order import (
    ConnectionSystem,
    augment_second_order,
    geodesic_spray,
    is_second_order,
    second_order_lift,
    second_order_system,
    tangent_atlas,
    validate_connection,
    vertical_lift,
)
from liftreach.systems import GeneratedSystem, Schedule, integrate


def _double_integrator(v_bound=1.5):
    base = interval_atlas(-2, 2)
    ta = tangent_atlas(base, v_bound=v_bound)
    return ta, second_order_system(
        ta,
        gamma=lambda cid, x, y: np.zeros_like(x),
        gmat=lambda cid, x, y: np.ones(np.shape(x)[:-1] + (1, 1)),
        k=1,
        label="di",
    )


def test_tangent_atlas_shape():
    ta = tangent_atlas(interval_atlas(-2, 2), v_bound=1.5)
    assert ta.atlas.dim == 2
    assert ta.atlas.coord_names == ("x", "vx")
    p = ta.atlas.normalize("c0", [0.5, 1.0])
    assert_allclose(ta.projection.value(p).coords, [0.5])


def test_tangent_atlas_transports_fiber_on_mobius():
    """Crossing the seam flips the second base coordinate and the matching
    velocity component."""
    ta = tangent_atlas(mobius_atlas(), v_bound=2.0)
    p = ta.atlas.normalize("c0", [1.25, 0.3, 0.5, 0.7])
    assert_allclose(p.coords, [0.25, 0.7, 0.5, -0.7], atol=1e-12)


def test_tangent_atlas_rejects_fiber_out_of_window():
    ta = tangent_atlas(interval_atlas(-2, 2), v_bound=1.0)
    from liftreach.errors import OutOfAtlas

    with pytest.raises(OutOfAtlas):
        ta.atlas.normalize("c0", [0.0, 1.5])


def test_is_second_order_true_and_false():
    ta, di = _double_integrator()
    ok, worst = is_second_order(di)
    assert ok and worst <= 1e-12

    from liftreach.second_order import SecondOrderSystem

    bad = SecondOrderSystem(
        tangent_atlas=ta,
        drift=VectorField(ta.atlas, lambda cid, c: np.stack([c[..., 1], 0.0 * c[..., 1]], -1)),
        control_fields=(VectorField(ta.atlas, lambda cid, c: np.zeros_like(c) + [1.0, 0.0]),),
    )
    ok, worst = is_second_order(bad)
    assert not ok and worst == pytest.approx(1.0)


def test_vertical_lift_components():
    ta = tangent_atlas(interval_atlas(-2, 2))
    X = VectorField(ta.base, lambda cid, c: np.full_like(c, 3.0))
    v = vertical_lift(X, ta)
    p = ta.atlas.normalize("c0", [0.5, 0.25])
    assert_allclose(v.at(p), [0.0, 3.0])


def _adapted_projection():
    plane = box_atlas([[-2, 2], [-2, 2]], coord_names=["x", "z"])
    line = interval_atlas(-2, 2)
    return plane, line, SmoothMap(
        source=plane, target=line,
        raw=lambda cid, c: ("c0", c[..., :1]),
        raw_jacobian=lambda cid, c: np.broadcast_to([[1.0, 0.0]], np.shape(c)[:-1] + (1, 2)),
    )


def test_second_order_lift_double_integrator():
    """The minimal lift of the scalar double integrator is the partially
    actuated planar system (v_x, v_z, u, 0)."""
    _, di = _double_integrator()
    plane, line, proj = _adapted_projection()
    lifted, morphism = second_order_lift(di, proj)
    p = lifted.tangent_atlas.atlas.normalize("c0", [0.3, -0.4, 0.5, 0.25])
    assert_allclose(lifted.drift.at(p), [0.5, 0.25, 0.0, 0.0], atol=1e-12)
    assert_allclose(lifted.control_fields[0].at(p), [0.0, 0.0, 1.0, 0.0],
                    atol=1e-12)
    ok, _ = is_second_order(lifted)
    assert ok
    assert morphism.kind == "second-order"


def test_second_order_lift_pushforward_residual():
    _, di = _double_integrator()
    plane, line, proj = _adapted_projection()
    lifted, morphism = second_order_lift(di, proj)
    # downstairs slice with u = 0.75 lifts to the matching upstairs slice
    from liftreach.geometry import combine_fields

    slice_down = combine_fields([di.drift, di.control_fields[0]], [1.0, 0.75])
    slice_up = morphism.lift(slice_down)
    rng = np.random.default_rng(0)
    for p in morphism.phi.source.sample(rng, 50):
        v = morphism.phi.jacobian(p) @ slice_up.at(p)
        assert np.max(np.abs(v - slice_down.at(morphism.phi.value(p)))) <= 1e-9


def test_second_order_lift_requires_adapted_charts():
    _, di = _double_integrator()
    plane, line, _ = _adapted_projection()
    skew = SmoothMap(
        source=plane, target=line,
        raw=lambda cid, c: ("c0", 0.5 * (c[..., :1] + c[..., 1:])),
    )
    with pytest.raises(NotAdapted):
        second_order_lift(di, skew)


def test_augment_second_order_structure():
    _, di = _double_integrator()
    plane, line, proj = _adapted_projection()
    lifted, _ = second_order_lift(di, proj)
    base_m = metric_lift_morphism(proj)
    vert = VectorField(plane, lambda cid, c: np.zeros_like(c) + [0.0, 1.0], name="vert")
    frame = kernel_frame(base_m, mode="global", generators=[vert])
    aug = augment_second_order(lifted, frame, control_amplitude=0.5)
    # drift, drift + 0.5 u, drift - 0.5 u
    assert len(aug.generators) == 3
    assert aug.kernel_base is lifted.drift
    p = aug.atlas.normalize("c0", [0.0, 0.0, 0.5, 0.25])
    assert_allclose(aug.generators[1].at(p), [0.5, 0.25, 0.5, 0.0], atol=1e-12)
    # kernel selector integrates drift + c * vlft(vert)
    f = aug.resolve(np.array([2.0]))
    assert_allclose(f.at(p), [0.5, 0.25, 0.0, 2.0], atol=1e-12)


def test_augment_second_order_rejects_non_kernel_frame():
    _, di = _double_integrator()
    plane, line, proj = _adapted_projection()
    lifted, _ = second_order_lift(di, proj)
    horiz = VectorField(plane, lambda cid, c: np.zeros_like(c) + [1.0, 0.0])
    fake = kernel_frame(metric_lift_morphism(proj), mode="chartwise")
    fake = type(fake)(morphism=fake.morphism, mode="global",
                      fields=(horiz,), rank=1, global_ok=True)
    with pytest.raises(FrameNotKernel):
        augment_second_order(lifted, fake)


def test_geodesic_spray_closed_form():
    """With constant Gamma = c the geodesic velocity is y0 / (1 + c y0 t)."""
    c = 0.5
    base = interval_atlas(-2, 2)
    conn = ConnectionSystem(base, lambda cid, x: np.full(np.shape(x)[:-1] + (1, 1, 1), c), ())
    spray = geodesic_spray(conn)
    sys = GeneratedSystem(spray.tangent_atlas.atlas, (spray.drift,))
    start = sys.atlas.normalize("c0", [-0.5, 1.0])
    for t in (0.25, 0.5, 1.0):
        traj = integrate(sys, start, Schedule.of((0, t)), h=1e-3)
        y_exact = 1.0 / (1.0 + c * t)
        x_exact = -0.5 + np.log(1.0 + c * t) / c
        assert traj.endpoint.coords[1] == pytest.approx(y_exact, abs=1e-10)
        assert traj.endpoint.coords[0] == pytest.approx(x_exact, abs=1e-10)


def test_connection_symmetry_validation():
    base = box_atlas([[-1, 1], [-1, 1]])

    def asym(cid, x):
        G = np.zeros(np.shape(x)[:-1] + (2, 2, 2))
        G[..., 0, 0, 1] = 1.0  # no matching G[0, 1, 0]
        return G

    with pytest.raises(ValueError):
        validate_connection(ConnectionSystem(base, asym, ()))


def test_geodesic_spray_with_controls_is_second_order():
    base = interval_atlas(-2, 2)
    g = VectorField(base, lambda cid, x: np.ones_like(x))
    conn = ConnectionSystem(base, lambda cid, x: np.zeros(np.shape(x)[:-1] + (1, 1, 1)), (g,))
    spray = geodesic_spray(conn)
    ok, worst = is_second_order(spray)
    assert ok and worst <= 1e-12
    p = spray.tangent_atlas.atlas.normalize("c0", [0.0, 0.5])
    assert_allclose(spray.control_fields[0].at(p), [0.0, 1.0])


def _velocity_named_scenario(plane_coords, line_coords):
    return {
        "atlases": {"line": {"kind": "interval", "box": [-2, 2], "coords": line_coords},
                    "plane": {"kind": "box", "box": [[-2, 2], [-2, 2]],
                              "coords": plane_coords}},
        "maps": {"proj": {"source": "plane", "target": "line", "exprs": [plane_coords[0]],
                          "jacobian": [["1", "0"]]}},
        "fields": {"up": {"atlas": "plane", "exprs": ["0", "1"]}},
        "second_order": {"di": {"base": "line", "gamma": [f"-{line_coords[0]}"],
                                "g": [["1"]]}},
        "so_lifts": {"dil": {"source": "di", "map": "proj",
                             "kernel": {"mode": "global", "generators": ["up"]}}},
    }


def test_lift_to_a_tangent_atlas_with_a_name_twice_keeps_closures():
    """Upstairs coordinates x and vx name two tangent coordinates vx: no fill
    can take them, so the lift and its vertical lifts keep closures, with the
    values of the lift to distinct names."""
    from liftreach.scenario import parse_scenario

    clash = parse_scenario(_velocity_named_scenario(["x", "vx"], ["x"]))
    plain = parse_scenario(_velocity_named_scenario(["x", "z"], ["x"]))
    rows = np.array([[0.5, -0.25, 0.75, -0.0], [-1.0, 0.0, -0.5, 1.25]])
    assert clash.second_order["dil.system"].drift.exprs is None
    assert plain.second_order["dil.system"].drift.exprs is not None
    aug, plain_aug = clash.systems["dil.augmented"], plain.systems["dil.augmented"]
    for sel in aug.flows():
        got = aug.resolve(sel)
        assert got.exprs is None
        assert np.array_equal(got.values("c0", rows), plain_aug.resolve(sel).values("c0", rows))


def test_second_order_base_with_a_name_twice_is_a_parse_error():
    """Base coordinates x and vx give the tangent atlas two coordinates vx."""
    from liftreach.errors import ParseError
    from liftreach.scenario import parse_scenario

    with pytest.raises(ParseError, match="'vx' is given twice"):
        parse_scenario({
            "atlases": {"plane": {"kind": "box", "box": [[-2, 2], [-2, 2]], "coords": ["x", "vx"]}},
            "second_order": {"di": {"base": "plane", "gamma": ["0", "0"]}},
        })
