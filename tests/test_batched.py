"""Array-native evaluation: rows (N, d) must give, bit for bit, what one point
at a time gives, for every array-native library field builder, every atlas
kind's normalization and transition Jacobian, the grid's cell lookup, the
row integrator and the certificates built on it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from liftreach.errors import Escape, SingularGram
from liftreach.expressions import compile_vector
from liftreach.geometry import (
    Point,
    Points,
    SmoothMap,
    VectorField,
    box_atlas,
    circle_atlas,
    interval_atlas,
    mobius_atlas,
    pushforward,
    torus_atlas,
    union_atlas,
)
from liftreach.morphisms import (
    Morphism,
    _right_inverse,
    _right_inverse_apply,
    kernel_projector,
    lift_system,
    metric_lift_morphism,
    verify_global_in_time,
    verify_trajectory_preserving,
)
from liftreach.reach import Grid
from liftreach.scenario import parse_scenario
from liftreach.second_order import tangent_atlas, vertical_lift
from liftreach.systems import (
    GeneratedSystem,
    Schedule,
    flow_field,
    integrate,
    integrate_rows,
)

SCENARIO = {
    "name": "batched",
    "atlases": {
        "plane": {"kind": "box", "box": [[-2, 2], [-2, 2]], "coords": ["x", "y"]},
        "wplane": {"kind": "box", "box": [[-2, 2], [-2, 2]], "coords": ["x", "y"],
                   "metric": [["1 + x**2", "0.3*y"], ["0.3*y", "2"]]},
        "line": {"kind": "interval", "box": [-9, 9], "coords": ["u"]},
        "band": {"kind": "mobius"},
        "s1": {"kind": "circle", "period": 1.0},
        "holey": {"kind": "union", "coords": ["x", "y"],
                  "charts": {"a": [[-2, 0], [-2, 2]], "b": [[-2, 2], [-2, 0.5]]}},
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
        "hbend": {"source": "holey", "target": "line", "exprs": ["x + 0.2*y**2"],
                  "jacobian": [["1", "0.4*y"]]},
    },
    "fields": {
        "swirl": {"atlas": "plane", "exprs": ["-y + x**2", "x*exp(-y**2) - 1"]},
        "push": {"atlas": "line", "exprs": ["1 + 0.5*sin(u)"]},
        "pull": {"atlas": "line", "exprs": ["-0.5 - 0.2*u**2"]},
        "rot": {"atlas": "s1", "exprs": ["1"]},
        "vy": {"atlas": "plane", "exprs": ["0", "1 + x**2/3"]},
    },
    "systems": {
        "down": {"atlas": "line", "generators": ["push"]},
        "down2": {"atlas": "line", "generators": ["push", "pull"]},
        "rotsys": {"atlas": "s1", "generators": ["rot"]},
    },
    "morphisms": {
        "bent": {"map": "bend", "target_system": "down", "kernel": {"mode": "chartwise"}},
        "bent_fd": {"map": "bend_fd", "target_system": "down"},
        "wbent": {"map": "wbend", "target_system": "down", "kernel": {"mode": "chartwise"}},
        "mlift": {"map": "proj", "target_system": "rotsys", "kernel": {"mode": "chartwise"}},
        # lifts of two generators, through a union and through a metric
        "holed": {"map": "hbend", "target_system": "down2", "kernel": {"mode": "chartwise"}},
        "wbent2": {"map": "wbend", "target_system": "down2", "kernel": {"mode": "chartwise"}},
    },
    "second_order": {
        "osc": {"base": "line", "gamma": ["-u - 0.1*vu**3"], "g": [["1 + 0.2*u**2"]],
                "v_bound": 3.0, "control_samples": [[0], [1], [-0.5]]},
    },
    "so_lifts": {
        "oscl": {"source": "osc", "map": "projx",
                 "kernel": {"mode": "global", "generators": ["vy"]}},
    },
    "connections": {
        "conn": {"atlas": "plane", "controls": ["vy"],
                 "christoffel": [[["x", "0.5*y"], ["0.5*y", "1"]],
                                 [["0", "x*y"], ["x*y", "sin(x) - y**2"]]]},
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
        "spray-drift": s.second_order["conn.spray"].drift,
        "spray-control": s.second_order["conn.spray"].control_fields[0],
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


# -- the 1x1 Gram in closed form -----------------------------------------------------


def _lapack_right_inverse(J, metric, cid, coords):
    """_right_inverse with LAPACK's Cholesky whatever the size of the Gram matrix."""
    Jt = np.swapaxes(J, -1, -2)
    if metric is None:
        A = Jt
    else:
        G = (np.asarray(metric(cid, coords), dtype=float) if np.ndim(coords) == 1
             else np.array([metric(cid, x) for x in coords], dtype=float))
        A = np.linalg.solve(G, Jt)
    W = J @ A
    # nan names its row whether or not this LAPACK build checks for it
    bad = np.isnan(W).any(axis=(-2, -1))
    if not np.any(bad):
        try:
            d = np.diagonal(np.linalg.cholesky(W), axis1=-2, axis2=-1)
        except np.linalg.LinAlgError:
            d = np.zeros(W.shape[:-1])
        bad = d.min(axis=-1) <= 1e-6 * np.maximum(d.max(axis=-1), 1.0)
    if np.any(bad):
        at = np.reshape(coords, (-1, np.shape(coords)[-1]))[np.argmax(bad)]
        raise SingularGram(f"J G^-1 J^T is numerically singular at ({cid}, {at})")
    return A, W


def _gram_outcomes(J, metric, coords, y):
    """_right_inverse, _right_inverse_apply and kernel_projector at coords, each
    beside its LAPACK reference; a SingularGram raised counts as its message."""
    n = coords.shape[-1]
    phi = SmoothMap(box_atlas([[-2, 2]] * n), interval_atlas(-9, 9),
                    raw=lambda cid, c: ("c0", c[..., :1]),
                    raw_jacobian=lambda cid, c: J, batched=True)

    def lapack_apply():
        A, W = _lapack_right_inverse(J, metric, "c0", coords)
        return (A @ np.linalg.solve(W, y[..., None]))[..., 0]

    def lapack_projector():
        A, W = _lapack_right_inverse(J, metric, "c0", coords)
        return np.eye(n) - A @ np.linalg.solve(W, J)

    def outcome(fn):
        try:
            return fn()
        except SingularGram as exc:
            return str(exc)

    return [
        (outcome(lambda: _right_inverse(J, metric, "c0", coords)),
         outcome(lambda: _lapack_right_inverse(J, metric, "c0", coords))),
        (outcome(lambda: _right_inverse_apply(J, metric, "c0", coords, y)),
         outcome(lapack_apply)),
        (outcome(lambda: kernel_projector(phi, metric, "c0", coords)),
         outcome(lapack_projector)),
    ]


def _bits(x):
    """x by its bytes, nan payloads aside: messages and arrays compare exactly."""
    if isinstance(x, str):
        return x
    if isinstance(x, tuple):
        return tuple(_bits(a) for a in x)
    return x.shape, np.isnan(x).tolist(), np.where(np.isnan(x), 0.0, x).tobytes()


GRAM_METRICS = {
    "euclidean": None,
    "metric": lambda cid, x: np.eye(len(x)) + 0.5 * np.outer(x, x),
    "negative": lambda cid, x: -np.eye(len(x)),
}


@pytest.mark.parametrize("metric", sorted(GRAM_METRICS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_one_by_one_gram_equals_lapack(metric, data):
    """A 1-D target's Gram is solved in closed form, bit for bit as LAPACK, at
    a point and on rows, SingularGram (its row and message) included: rows
    with W = 0, W < 0, nan, W under the relative threshold or W overflowing
    to inf, and entries of -0.0, whose sign a product keeps."""
    metric = GRAM_METRICS[metric]
    n = data.draw(st.integers(1, 3))
    lead = data.draw(st.sampled_from([(), (1,), (2,), (5,)]))
    coords = data.draw(arrays(np.float64, lead + (n,), elements=st.floats(-2, 2)))
    entry = st.one_of(st.floats(-3, 3),
                      st.sampled_from([0.0, -0.0, 1e-7, -1e-7, 1e200, -1e200, np.nan]))
    J = data.draw(arrays(np.float64, lead + (1, n), elements=entry))
    y = data.draw(arrays(np.float64, lead + (1,),
                         elements=st.one_of(st.floats(-5, 5), st.just(np.nan))))
    with np.errstate(over="ignore"):  # W of entries 1e200 overflows to inf
        outcomes = _gram_outcomes(J, metric, coords, y)
    for got, want in outcomes:
        assert _bits(got) == _bits(want)


@pytest.mark.parametrize("case, row", [("zero", 0), ("negative", 0), ("tiny", 1),
                                       # the id nan-None predates nan naming its row
                                       pytest.param("nan", 1, id="nan-None")])
def test_one_by_one_gram_keeps_singular_gram_rows(case, row):
    """A bad row in the middle of three: LAPACK's failure (W = 0, W < 0) names
    the first row, and a W under the threshold or nan its own row."""
    coords = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    J = np.array([[[1.0, 0.5]], [[1.0, 0.5]], [[1.0, 0.5]]])
    J[1, 0] = {"zero": [0.0, 0.0], "negative": [1.0, 0.5], "tiny": [1e-7, 0.0],
               "nan": [np.nan, 0.5]}[case]
    metric = (lambda cid, x: -np.eye(2) if x[0] == 0.3 else np.eye(2)) \
        if case == "negative" else None
    outcomes = _gram_outcomes(J, metric, coords, np.array([[1.0], [2.0], [3.0]]))
    for got, want in outcomes:
        assert _bits(got) == _bits(want)
    assert outcomes[0][0] == f"J G^-1 J^T is numerically singular at (c0, {coords[row]})"


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


# -- the row integrator ----------------------------------------------------------


def _union_system():
    """Rows in both charts of a union, leaving it at different steps, under a
    pointwise lambda, a compiled field and kernel combinations on a base."""
    atlas = union_atlas({"a": [[-1, 0.5], [-1, 1]], "b": [[-0.5, 1], [-1, 0.3]]})
    compiled = compile_vector(["1 + x**2", "0.5*y - 0.2"], ["x", "y"])
    swirl = VectorField(atlas, lambda cid, c: np.array([-c[1] + 0.3, c[0]]))
    drift = VectorField(atlas, lambda cid, c: compiled(c), batched=True)
    lean = VectorField(atlas, lambda cid, c: compiled(c[..., ::-1]), batched=True)
    return GeneratedSystem(atlas, (swirl, drift), kernel_fields=(drift, lean),
                           kernel_base=swirl)


def _pointwise_lift():
    """The lift of two generators through a map that takes points only."""
    plane = box_atlas([[-2, 2], [-2, 2]], coord_names=["x", "z"])
    line = union_atlas({"l": [[-2, 0.5]], "r": [[0, 2]]})
    bend = SmoothMap(plane, line, raw=lambda cid, c: ("l", np.array([c[0] + 0.2 * np.sin(c[1])])),
                     raw_jacobian=lambda cid, c: np.array([[1.0, 0.2 * np.cos(c[1])]]))
    down = GeneratedSystem(line, (
        VectorField(line, lambda cid, c: np.array([1.0 + c[0] ** 2])),
        VectorField(line, lambda cid, c: np.array([-0.5]))))
    return lift_system(down, bend)[1]


def _row_systems():
    s = parse_scenario(SCENARIO)
    return {"plane": s.systems["bent.augmented"], "mobius": s.systems["mlift.augmented"],
            "union": _union_system(), "lift-union": s.systems["holed.augmented"],
            "lift-metric": s.systems["wbent2.augmented"], "lift-pointwise": _pointwise_lift()}


ROW_SYSTEMS = sorted(_row_systems())


def _alone(sys, start, sched, h):
    """integrate() of one start: its samples and its escape time (None if it stays)."""
    try:
        return integrate(sys, start, sched, h).samples, None
    except Escape as exc:
        return exc.trajectory.samples, exc.time


def _selectors(sys):
    generators = st.integers(0, len(sys.generators) - 1)
    if not sys.kernel_fields:
        return generators
    coeffs = st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.7, 1.0]),
                      min_size=len(sys.kernel_fields), max_size=len(sys.kernel_fields))
    return st.one_of(generators, coeffs)


def _schedules(sys):
    segment = st.tuples(_selectors(sys), st.floats(0.0, 0.35))
    return st.lists(segment, min_size=1, max_size=3).map(lambda segs: Schedule.of(*segs))


def _starts(sys):
    lo = np.min([c.box[:, 0] for c in sys.atlas.charts], axis=0)
    hi = np.max([c.box[:, 1] for c in sys.atlas.charts], axis=0)
    coords = st.tuples(*(st.floats(a, b) for a, b in zip(lo, hi)))
    return coords.map(lambda c: sys.atlas.normalize_raw(sys.atlas.charts[0].chart_id,
                                                        np.array(c))).filter(
        lambda out: out is not None).map(lambda out: Point(out[0], np.array(out[1])))


@pytest.mark.parametrize("name", ROW_SYSTEMS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_rows_equal_integrate_alone(name, data):
    sys = _row_systems()[name]
    n = data.draw(st.integers(1, 5))
    starts = [data.draw(_starts(sys)) for _ in range(n)]
    scheds = [data.draw(_schedules(sys)) for _ in range(n)]
    h = data.draw(st.sampled_from([0.03, 0.05, 0.07]))
    if name.startswith("lift"):
        # two more rows from one point under two generators of the lift step
        # together, in one chart, whatever the other rows do
        starts += [data.draw(_starts(sys))] * 2
        scheds += [Schedule.of((g, data.draw(st.floats(h, 0.35)))).then(
            data.draw(_schedules(sys))) for g in (0, 1)]
    _assert_rows_alone(sys, starts, scheds, h)


def _assert_rows_alone(sys, starts, scheds, h):
    """integrate_rows equals integrate() of each start alone, recorded or not."""
    rows = sys.atlas.stack(starts)
    flow = integrate_rows(sys, rows, scheds, h)
    bare = integrate_rows(sys, rows, scheds, h, record=False)
    assert bare.samples is None
    ids = [c.chart_id for c in sys.atlas.charts]
    for r, (start, sched) in enumerate(zip(starts, scheds)):
        samples, escape = _alone(sys, start, sched, h)
        k = flow.counts[r]
        assert k == len(samples) == bare.counts[r]
        assert flow.times[r, :k].tolist() == [t for t, _ in samples]
        assert [ids[c] for c in flow.samples.charts[r, :k]] == [p.chart_id for _, p in samples]
        assert np.array_equal(flow.samples.coords[r, :k], [p.coords for _, p in samples])
        assert np.all(flow.samples.charts[r, k:] == -1)
        for f in (flow, bare):
            if escape is None:
                assert np.isnan(f.escapes[r])
                assert ids[f.ends.charts[r]] == samples[-1][1].chart_id
                assert np.array_equal(f.ends.coords[r], samples[-1][1].coords)
            else:
                assert f.escapes[r] == escape
                assert f.ends.charts[r] == -1
    return flow


def _tilted(holey):
    """A field on the holey union whose y-velocity depends on the chart."""
    def tilt(cid, c):
        c = np.asarray(c, float)
        return np.stack([np.ones(c.shape[:-1]),
                         np.full(c.shape[:-1], 0.4 if cid == "b" else -0.3)], axis=-1)

    return GeneratedSystem(holey, (VectorField(holey, tilt, batched=True),))


def test_kept_plans_end_where_rows_change(scenario):
    """integrate_rows keeps one step plan until a row changes chart or field,
    leaves, or its schedule ends; each case below makes one of these happen
    and must still equal integrate() of each start alone, bit for bit."""
    # a row crosses from chart a to chart b of the union mid-segment, where
    # the field differs; the other row of its group stays in a
    tilted = _tilted(scenario.atlases["holey"])
    starts = [tilted.atlas.normalize("a", c) for c in ([-0.1, -1.0], [-1.5, 1.0])]
    flow = _assert_rows_alone(tilted, starts, [Schedule.of((0, 0.3))] * 2, 0.01)
    assert flow.samples.charts[0, 1] == 0 and flow.samples.charts[0, -1] == 1
    assert set(flow.samples.charts[1].tolist()) == {0}

    # one row leaves the plane while the others go on
    plane = scenario.systems["bent.augmented"]
    starts = [Point("c0", np.array(c)) for c in ([1.95, 0.0], [-1.0, 0.5], [0.0, -0.5])]
    flow = _assert_rows_alone(plane, starts, [Schedule.of((0, 0.3))] * 3, 0.01)
    assert flow.escapes[0] < 0.3 and np.isnan(flow.escapes[1:]).all()

    # the last steps of a segment differ in size between rows of one field
    scheds = [Schedule.of((0, 0.295)), Schedule.of((0, 0.3)), Schedule.of((0, 0.2975)),
              Schedule.of((0, 0.105), ([0.7, -0.5], 0.2))]
    starts = [Point("c0", np.array(c)) for c in ([-1.0, 0.5], [0.0, -0.5], [0.5, 1.0],
                                                 [-0.5, 0.0])]
    _assert_rows_alone(plane, starts, scheds, 0.01)

    # rows under two lifts of one family swap members at a boundary
    for name in ("holed.augmented", "wbent2.augmented"):
        sys = scenario.systems[name]
        starts = [sys.atlas.normalize(sys.atlas.charts[0].chart_id, c)
                  for c in ([-0.5, -1.0], [-0.8, 0.3])]
        scheds = [Schedule.of((0, 0.1), (1, 0.1)), Schedule.of((1, 0.1), (0, 0.1))]
        _assert_rows_alone(sys, starts, scheds, 0.01)


def test_lift_rows_share_one_right_inverse_per_stage(scenario):
    """Rows of one chart under two generators of one lift step as one array:
    one raw map per RK4 stage, not one per generator, and each row as alone."""
    plane, line = scenario.atlases["plane"], scenario.atlases["line"]
    calls = []

    def raw(cid, c):
        calls.append(np.shape(c))
        return "c0", c[..., :1] + 0.3 * np.sin(c[..., 1:])

    def jac(cid, c):
        return np.stack([np.ones(np.shape(c)[:-1]), 0.3 * np.cos(c[..., 1])], axis=-1)[..., None, :]

    phi = SmoothMap(plane, line, raw, raw_jacobian=jac, batched=True)
    up = lift_system(scenario.system("down2"), phi)[1]
    starts = [Point("c0", np.array([0.1, 0.2])), Point("c0", np.array([-0.4, 0.7]))]
    scheds = [Schedule.of((0, 0.1)), Schedule.of((1, 0.1))]
    calls.clear()
    flow = integrate_rows(up, plane.stack(starts), scheds, 0.05)
    assert calls == [(2, 2)] * 8
    for r, (start, sched) in enumerate(zip(starts, scheds)):
        samples, _ = _alone(up, start, sched, 0.05)
        assert np.array_equal(flow.samples.coords[r], [p.coords for _, p in samples])


def test_rows_escape_at_different_steps():
    """Starts nearer the edge leave earlier; each keeps its own escape time and
    truncated samples, and the others step on."""
    sys = _union_system()
    starts = [sys.atlas.normalize("a", [x, -0.5]) for x in (0.9, 0.5, 0.3, -0.9)]
    scheds = [Schedule.of((1, 0.6))] * 4
    flow = integrate_rows(sys, sys.atlas.stack(starts), scheds, 0.01)
    escapes = []
    for r, start in enumerate(starts):
        samples, escape = _alone(sys, start, scheds[r], 0.01)
        assert flow.counts[r] == len(samples)
        assert np.isnan(flow.escapes[r]) if escape is None else flow.escapes[r] == escape
        escapes.append(escape)
    assert escapes[0] < escapes[1] < escapes[2] and escapes[3] is None
    with pytest.raises(Escape):
        flow_field(sys.atlas, sys.generators[1].func, starts[0], 0.6, 0.01)


# -- certificates against their point-by-point definitions -------------------------


def _verify_pointwise(m, target_sys, samples, seed, tolerance=None, schedules=10, h=1e-3):
    """verify_trajectory_preserving one sample point and one schedule at a time."""
    if tolerance is None:
        tolerance = 1e-9 if m.phi.analytic else 1e-6
    rng = np.random.default_rng(seed)
    pts = m.phi.source.sample(rng, samples)
    worst, worst_point = 0.0, None
    lifted = [m.lift(Y) for Y in target_sys.generators]
    for Y, X in zip(target_sys.generators, lifted):
        for p in pts:
            v = pushforward(m.phi, X.tangent(p))
            r = float(np.max(np.abs(v.components - Y.at(v.base))))
            if r > worst:
                worst, worst_point = r, p
    up = GeneratedSystem(m.phi.source, tuple(lifted))
    traj_worst, k = 0.0, len(target_sys.generators)
    for _ in range(schedules):
        segs = [(int(rng.integers(0, k)), float(rng.uniform(0.1, 0.4)))
                for _ in range(int(rng.integers(1, 4)))]
        sched = Schedule.of(*segs)
        start = m.phi.source.sample(rng, 1)[0]
        tu, _ = _alone(up, start, sched, h)
        td, _ = _alone(target_sys, m.phi.value(start), sched, h)
        fd_noise = 0.0 if m.phi.analytic else 1e-9
        for (t, pu), (_, pd) in zip(tu, td):
            d = target_sys.atlas.distance(m.phi.value(pu), pd)
            traj_worst = max(traj_worst, d - (10.0 * h ** 4 + fd_noise) * max(1.0, t))
    return {
        "check": "trajectory-preserving",
        "pass": bool(worst <= tolerance and traj_worst <= 0.0),
        "worst_residual": worst,
        "worst_point": None if worst_point is None else
            [worst_point.chart_id, [float(c) for c in worst_point.coords]],
        "tolerance": tolerance,
        "samples": samples,
        "schedules_checked": schedules,
        "trajectory_excess": max(0.0, traj_worst),
    }


def _global_pointwise(m, target_sys, starts, horizon, h=1e-3):
    """verify_global_in_time one generator and one start at a time."""
    def escape_time(atlas, field, start):
        try:
            flow_field(atlas, field.func, start, horizon, h)
        except Escape as exc:
            return exc.time
        return horizon

    details, ok = [], True
    for gi, Y in enumerate(target_sys.generators):
        X = m.lift(Y)
        for x in starts:
            t_up = escape_time(m.phi.source, X, x)
            t_down = escape_time(target_sys.atlas, Y, m.phi.value(x))
            agree = abs(t_up - t_down) <= 2 * h
            ok = ok and agree
            details.append({"generator": gi, "start": [x.chart_id, [float(c) for c in x.coords]],
                            "escape_up": t_up, "escape_down": t_down, "agree": agree})
    return {"check": "global-in-time", "pass": ok, "horizon": horizon,
            "tolerance": 2 * h, "details": details}


def _user_cases():
    """Pointwise user maps: metric lifts into a union and into an interval,
    and constant wrong lifts into both whose residual ties at every point, so
    the first point must win, and whose projected trajectories drift further
    at every step, across the union's charts too."""
    plane = box_atlas([[-2, 2], [-2, 2]], coord_names=["x", "z"])
    cases = []
    for line in (union_atlas({"l": [[-2, 0.5]], "r": [[0, 2]]}), interval_atlas(-9, 9)):
        cid = line.charts[0].chart_id
        proj = SmoothMap(plane, line, raw=lambda cid_, c, cid=cid: (cid, np.array([c[0]])),
                         raw_jacobian=lambda cid_, c: np.array([[1.0, 0.0]]))
        down = GeneratedSystem(line, (
            VectorField(line, lambda cid_, c: np.array([1.0 + c[0] ** 2])),
            VectorField(line, lambda cid_, c: np.array([-0.5]))))
        cases.append((lift_system(down, proj)[0], down))
    wrong = [(Morphism(m.phi, lambda Y: VectorField(plane, lambda cid, c: np.array([3.0, c[1]])),
                       kind="user-supplied"), down) for m, down in cases]
    return cases + wrong


VERIFIED = [("bundle", "blift", "rotsys"), ("circle", "cover", "rotsys"),
            ("double-integrator", "dil", "di.tcs"), ("improper", "badlift", "dsys"),
            ("mobius", "mlift", "rotsys"), ("projection", "liftsym_fd", "dsym"),
            ("projection", "liftsym_user", "dsym")]


def _two_generator_lifts(s):
    """Scenario lifts of two generators, through a union and through a metric."""
    return [(s.morphisms[m], s.system("down2")) for m in ("holed", "wbent2")]


@pytest.mark.parametrize("seed", [0, 7])
def test_row_verifiers_equal_pointwise_reference(scenarios, scenario, seed):
    cases = [(scenarios[name].morphisms[m], scenarios[name].system(t))
             for name, m, t in VERIFIED]
    cases += _user_cases() + _two_generator_lifts(scenario)
    for morphism, target in cases:
        kw = dict(samples=40, seed=seed, schedules=4, h=0.01)
        assert verify_trajectory_preserving(morphism, target, **kw) == \
            _verify_pointwise(morphism, target, **kw)
    for wrong, down in _user_cases()[2:]:
        report = verify_trajectory_preserving(wrong, down, samples=25, seed=seed)
        first = wrong.phi.source.sample(np.random.default_rng(seed), 1)[0]
        assert report["worst_point"] == ["c0", [float(c) for c in first.coords]]
        assert 0.0 < report["trajectory_excess"] < np.inf


@pytest.mark.parametrize("seed", [0, 7])
def test_row_global_in_time_equals_pointwise_reference(scenarios, scenario, seed):
    rng = np.random.default_rng(seed)
    cases = [(scenarios[name].morphisms[m], scenarios[name].system(t))
             for name, m, t in VERIFIED + [("improper", "badlift", "dsys")]]
    for morphism, target in cases + _two_generator_lifts(scenario):
        starts = morphism.phi.source.sample(rng, 3)
        assert verify_global_in_time(morphism, target, starts, 0.8, h=0.02) == \
            _global_pointwise(morphism, target, starts, 0.8, h=0.02)
    improper = scenarios["improper"].morphisms["badlift"]
    starts = [improper.phi.source.normalize("a", c) for c in ([-1.0, 1.0], [-1.0, 0.2])]
    target = scenarios["improper"].system("dsys")
    report = verify_global_in_time(improper, target, starts, 2.0, h=0.01)
    assert report == _global_pointwise(improper, target, starts, 2.0, h=0.01)
    assert [d["agree"] for d in report["details"]] == [False, True]


@pytest.mark.parametrize("seed", [0, 7])
def test_row_verifiers_match_charts_by_id(seed):
    """A target system may list the charts of its map's target in another
    order; the certificates match charts by id, as one point at a time does."""
    plane = box_atlas([[-2, 2], [-2, 2]], coord_names=["x", "z"])
    charts = {"l": [[-2, 0]], "r": [[0, 2]]}
    line, flipped = union_atlas(charts), union_atlas(dict(reversed(charts.items())))
    assert [c.chart_id for c in flipped.charts] == ["r", "l"]
    proj = SmoothMap(plane, line, raw=lambda cid, c: ("l" if c[0] < 0 else "r", c[:1]),
                     raw_jacobian=lambda cid, c: np.array([[1.0, 0.0]]))
    # fields that differ from chart to chart show a row read in the wrong chart
    down = GeneratedSystem(flipped, (
        VectorField(flipped, lambda cid, c: np.array([(cid == "l") + c[0] ** 2])),
        VectorField(flipped, lambda cid, c: np.array([-0.5 - c[0] * (cid == "r")]))))
    m = lift_system(down, proj)[0]
    kw = dict(samples=40, seed=seed, schedules=6, h=0.01)
    report = verify_trajectory_preserving(m, down, **kw)
    assert report == _verify_pointwise(m, down, **kw)
    starts = plane.sample(np.random.default_rng(seed), 4)
    report = verify_global_in_time(m, down, starts, 2.0, h=0.01)
    assert report == _global_pointwise(m, down, starts, 2.0, h=0.01)
