"""Array-native evaluation: rows (N, d) must give, bit for bit, what one point
at a time gives, for every array-native library field builder, every atlas
kind's normalization and transition Jacobian, and the grid's cell lookup."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from liftreach.geometry import (
    Point,
    Points,
    SmoothMap,
    VectorField,
    box_atlas,
    circle_atlas,
    mobius_atlas,
    torus_atlas,
    union_atlas,
)
from liftreach.morphisms import kernel_projector, metric_lift_morphism
from liftreach.reach import Grid
from liftreach.scenario import parse_scenario
from liftreach.second_order import tangent_atlas, vertical_lift

SCENARIO = {
    "name": "batched",
    "atlases": {
        "plane": {"kind": "box", "box": [[-2, 2], [-2, 2]], "coords": ["x", "y"]},
        "wplane": {"kind": "box", "box": [[-2, 2], [-2, 2]], "coords": ["x", "y"],
                   "metric": [["1 + x**2", "0.3*y"], ["0.3*y", "2"]]},
        "line": {"kind": "interval", "box": [-9, 9], "coords": ["u"]},
        "band": {"kind": "mobius"},
        "s1": {"kind": "circle", "period": 1.0},
    },
    "maps": {
        "bend": {"source": "plane", "target": "line",
                 "exprs": ["x + 0.3*sin(y) + x**3/5"],
                 "jacobian": [["1 + 3*x**2/5", "0.3*cos(y)"]]},
        "bend_fd": {"source": "plane", "target": "line",
                    "exprs": ["x + 0.3*sin(y) + x**3/5"]},
        "wbend": {"source": "wplane", "target": "line",
                  "exprs": ["x + y**2/4"], "jacobian": [["1", "y/2"]]},
        "projx": {"source": "plane", "target": "line",
                  "exprs": ["x"], "jacobian": [["1", "0"]]},
        "proj": {"source": "band", "target": "s1", "exprs": ["x"],
                 "jacobian": [["1", "0"]]},
    },
    "fields": {
        "swirl": {"atlas": "plane", "exprs": ["-y + x**2", "x*exp(-y**2) - 1"]},
        "push": {"atlas": "line", "exprs": ["1 + 0.5*sin(u)"]},
        "rot": {"atlas": "s1", "exprs": ["1"]},
        "vy": {"atlas": "plane", "exprs": ["0", "1 + x**2/3"]},
    },
    "systems": {
        "down": {"atlas": "line", "generators": ["push"]},
        "rotsys": {"atlas": "s1", "generators": ["rot"]},
    },
    "morphisms": {
        "bent": {"map": "bend", "target_system": "down", "kernel": {"mode": "chartwise"}},
        "bent_fd": {"map": "bend_fd", "target_system": "down"},
        "wbent": {"map": "wbend", "target_system": "down", "kernel": {"mode": "chartwise"}},
        "mlift": {"map": "proj", "target_system": "rotsys", "kernel": {"mode": "chartwise"}},
    },
    "second_order": {
        "osc": {"base": "line", "gamma": ["-u - 0.1*vu**3"], "g": [["1 + 0.2*u**2"]],
                "v_bound": 3.0, "control_samples": [[0], [1], [-0.5]]},
    },
    "so_lifts": {
        "oscl": {"source": "osc", "map": "projx",
                 "kernel": {"mode": "global", "generators": ["vy"]}},
    },
    "experiments": [],
}


@pytest.fixture(scope="module")
def scenario():
    return parse_scenario(SCENARIO)


def _library_fields(s):
    """Every field builder of the library, as parsed from SCENARIO."""
    so, lifted = s.second_order["osc"], s.second_order["oscl.system"]
    out = {
        "compiled": s.fields["swirl"],
        "metric-lift": s.systems["bent.system"].generators[0],
        "metric-lift-fd": s.systems["bent_fd.system"].generators[0],
        "metric-lift-weighted": s.systems["wbent.system"].generators[0],
        "mobius-lift": s.systems["mlift.system"].generators[0],
        "so-drift": so.drift,
        "so-control": so.control_fields[0],
        "so-lift-drift": lifted.drift,
        "so-lift-control": lifted.control_fields[0],
        "vertical-lift": vertical_lift(s.fields["vy"], lifted.tangent_atlas),
    }
    for name in ("bent", "wbent", "mlift"):
        for j, f in enumerate(s.kernels[name].fields):
            out[f"kernel-frame-{name}-{j}"] = f
    for name in ("osc.tcs", "oscl.augmented", "mlift.augmented", "bent.augmented"):
        for j, f in enumerate(s.systems[name].flows()):
            out[f"flow-{name}-{j}"] = f
    return out


FIELD_NAMES = sorted(_library_fields(parse_scenario(SCENARIO)))


def _rows(dim, lo=-1.9, hi=1.9):
    return st.integers(1, 6).flatmap(lambda n: arrays(
        np.float64, (n, dim), elements=st.floats(lo, hi, allow_subnormal=False)))


@pytest.mark.parametrize("name", FIELD_NAMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_field_rows_equal_pointwise(scenario, name, data):
    field = _library_fields(scenario)[name]
    assert field.batched
    X = data.draw(_rows(field.atlas.dim, lo=-0.99, hi=0.99))
    cid = field.atlas.charts[0].chart_id
    got = field.values(cid, X)
    want = np.array([field.func(cid, x) for x in X])
    assert got.shape == X.shape
    assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(X=_rows(2))
def test_kernel_projector_rows_equal_pointwise(scenario, X):
    for name in ("bent", "wbent"):
        phi = scenario.morphisms[name].phi
        metric = None if phi.source.metric_fn is None else phi.source.metric_at
        got = kernel_projector(phi, metric, "c0", X)
        want = np.array([kernel_projector(phi, metric, "c0", x) for x in X])
        assert np.array_equal(got, want)
        # a projector onto ker(dPhi), metric-weighted for wbent
        assert np.allclose(phi.raw_jac_at("c0", X) @ got, 0.0, atol=1e-12)
        assert np.allclose(got @ got, got, atol=1e-12)


def test_pointwise_user_fields_fall_back_row_by_row(scenario):
    line = scenario.atlases["line"]
    user = SmoothMap(line, line, raw=lambda cid, c: ("c0", np.array([2.0 * c[0]])),
                     raw_jacobian=lambda cid, c: np.array([[2.0]]))
    lifted = metric_lift_morphism(user).lift(scenario.fields["push"])
    assert not lifted.batched
    X = np.array([[0.5], [-1.25], [3.0]])
    assert np.array_equal(lifted.values("c0", X),
                          np.array([lifted.func("c0", x) for x in X]))
    field = VectorField(line, lambda cid, c: [c[0] ** 2])
    assert np.array_equal(field.values("c0", X), X ** 2)


# -- normalization and cells ---------------------------------------------------

ATLASES = {
    "box": (box_atlas([[-1, 1], [0, 2]]), (-1.5, 2.5)),
    "circle": (circle_atlas(), (-8.0, 14.0)),
    "torus": (torus_atlas(), (-8.0, 14.0)),
    # x reaches negative wraps; y leaves (0, 1) on both sides
    "mobius": (mobius_atlas(), (-3.2, 3.2)),
    "union": (union_atlas({"a": [[-1, 0.5], [-1, 1]], "b": [[-0.5, 1], [-1, 1]]}),
              (-1.3, 1.3)),
    # fiber components beyond the bound on both sides, wraps that flip them
    "tangent-mobius": (tangent_atlas(mobius_atlas(), v_bound=1.0).atlas, (-2.5, 2.5)),
    "tangent-union": (tangent_atlas(union_atlas({"a": [[-1, 0.5]], "b": [[-0.5, 1]]}),
                                    v_bound=1.0).atlas, (-1.3, 1.3)),
}


@pytest.mark.parametrize("kind", sorted(ATLASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_normalize_rows_equal_pointwise(kind, data):
    atlas, (lo, hi) = ATLASES[kind]
    X = data.draw(_rows(atlas.dim, lo, hi))
    for chart in atlas.charts:
        rows = atlas.normalize_many(chart.chart_id, X)
        for i, x in enumerate(X):
            out = atlas.normalize_raw(chart.chart_id, x.copy())
            if out is None:
                assert rows.charts[i] == -1
            else:
                assert atlas.charts[rows.charts[i]].chart_id == out[0]
                assert np.array_equal(rows.coords[i], out[1])


@pytest.mark.parametrize("kind", sorted(ATLASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_transition_jacobian_rows_equal_pointwise(kind, data):
    atlas, (lo, hi) = ATLASES[kind]
    X = data.draw(_rows(atlas.dim, lo, hi))
    for chart in atlas.charts:
        got = atlas.transition_jacobians(chart.chart_id, X)
        assert got.shape == (len(X), atlas.dim, atlas.dim)
        for i, x in enumerate(X):
            assert np.array_equal(got[i], atlas.transition_jacobian(chart.chart_id, x.copy()))


@pytest.mark.parametrize("kind", sorted(ATLASES))
@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=st.integers(1, 7))
def test_row_cell_of_equals_pointwise(kind, data, n):
    atlas, (lo, hi) = ATLASES[kind]
    X = data.draw(_rows(atlas.dim, lo, hi))
    rows = atlas.normalize_many(atlas.charts[0].chart_id, X)
    inside = rows.charts >= 0
    rows = Points(rows.charts[inside], rows.coords[inside])
    grid = Grid(atlas, n)
    keys = grid.keys_of(grid.cells_of(rows))
    assert keys == [grid.cell_of(Point(atlas.charts[c].chart_id, x))
                    for c, x in zip(rows.charts, rows.coords)]
