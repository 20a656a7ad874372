"""Array-native evaluation: rows (N, d) must give, bit for bit, what one point
at a time gives, for every array-native library field builder, every atlas
kind's normalization and transition Jacobian, the grid's cell lookup, the
row integrator and the certificates built on it."""

import itertools
import json
import warnings
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from liftreach.errors import (
    DimensionMismatch,
    Escape,
    FrameNotKernel,
    NotInKernel,
    NotSubmersion,
    OutOfAtlas,
    RankDeficient,
    SingularGram,
)
from liftreach.expressions import compile_vector
from liftreach.geometry import (
    FD_STEP,
    Point,
    Points,
    SmoothMap,
    VectorField,
    box_atlas,
    circle_atlas,
    combine_fields,
    expression_field,
    expression_map,
    finite_difference_jacobian,
    interval_atlas,
    mobius_atlas,
    torus_atlas,
    union_atlas,
)
from liftreach import morphisms
from liftreach.morphisms import (
    KernelFrame,
    Morphism,
    _right_inverse,
    _right_inverse_apply,
    augment_with_kernel,
    check_liftable,
    check_submersion,
    grams_pass,
    kernel_frame,
    kernel_projector,
    lift_system,
    metric_lift_morphism,
    verify_global_in_time,
    verify_trajectory_preserving,
)
from liftreach import systems
from liftreach.reach import Grid
from liftreach.scenario import builtin_scenario_names, builtin_scenario_path, parse_scenario
from liftreach.second_order import (
    SecondOrderSystem,
    augment_second_order,
    is_second_order,
    second_order_lift,
    second_order_system,
    tangent_atlas,
    vertical_lift,
)
from liftreach.systems import (
    GeneratedSystem,
    control_system_from_tcs,
    RowRequest,
    Schedule,
    flow_field,
    integrate,
    integrate_requests,
)

from constructions import canonical, center_point, is_valid

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
        sys = s.systems[name]
        for j, selector in enumerate(sys.flows()):
            out[f"flow-{name}-{j}"] = sys.resolve(selector)
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


@settings(max_examples=40, deadline=None)
@given(X=_rows(4))
def test_tangent_map_rows_equal_pointwise(scenario, X):
    """T(phi) of a scenario map takes rows: its raw map, raw Jacobian, values
    and Jacobians equal those of each point alone, bit for bit."""
    tphi = scenario.morphisms["oscl"].phi
    tcid, Y = tphi.raw("c0", X)
    J = tphi.raw_jac_at("c0", X)
    for x, y, j in zip(X, Y, J):
        assert tphi.raw("c0", x)[0] == tcid
        assert np.array_equal(tphi.raw("c0", x)[1], y)
        assert np.array_equal(tphi.raw_jac_at("c0", x), j)
    rows = Points(*tphi.source.normalize_rows("c0", X))
    pts = [Point("c0", x) for x in rows.coords]
    values = tphi.values(rows)
    assert [tphi.target.charts[c].chart_id for c in values.charts] == \
        [tphi.value(p).chart_id for p in pts]
    assert np.array_equal(values.coords, [tphi.value(p).coords for p in pts])
    assert np.array_equal(tphi.jacobians(rows), [tphi.jacobian(p) for p in pts])


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
    if metric is None:  # the metric-free Gram is summed in order, 0.0 + J_0 J_0 + ...
        W = np.zeros(J.shape[:-1] + (1,))
        for i in range(J.shape[-1]):
            W = W + J[..., i:i + 1] * J[..., i:i + 1]
    else:
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
                    raw_jacobian=lambda cid, c: J)

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
    "metric": lambda cid, X: np.eye(X.shape[-1]) + 0.5 * (X[..., :, None] * X[..., None, :]),
    "negative": lambda cid, X: np.broadcast_to(-np.eye(X.shape[-1]), X.shape + X.shape[-1:]),
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
    flip = lambda cid, X: np.where((X[..., 0] == 0.3)[..., None, None], -np.eye(2), np.eye(2))
    metric = flip if case == "negative" else None
    outcomes = _gram_outcomes(J, metric, coords, np.array([[1.0], [2.0], [3.0]]))
    for got, want in outcomes:
        assert _bits(got) == _bits(want)
    assert outcomes[0][0] == f"J G^-1 J^T is numerically singular at (c0, {coords[row]})"


# -- closed-form scenario lifts ------------------------------------------------------


# a map of one coordinate: its kernel projector solves for one right-hand side
LINE = {
    "name": "line",
    "atlases": {"line": {"kind": "interval", "box": [-2, 2], "coords": ["u"]},
                "wide": {"kind": "interval", "box": [-9, 9], "coords": ["w"]}},
    "maps": {"cubic": {"source": "line", "target": "wide", "exprs": ["u + u**3/3"],
                       "jacobian": [["1 + u**2"]]}},
    "fields": {"push": {"atlas": "wide", "exprs": ["1 + 0.5*sin(w)"]}},
    "systems": {"down": {"atlas": "wide", "generators": ["push"]}},
    "morphisms": {"squash": {"map": "cubic", "target_system": "down",
                             "kernel": {"mode": "chartwise"}}},
}

SCENARIO_DATA = {
    **{n: json.loads(builtin_scenario_path(n).read_text()) for n in builtin_scenario_names()},
    "rank-drop": json.loads((Path(__file__).parent / "data" / "rank_drop.json").read_text()),
    "batched": SCENARIO, "line": LINE,
}

# maps built in the library, outside any scenario: through x**3 + y**3, whose
# Gram vanishes at the origin, with a jacobian and without one
_CUBES = (box_atlas([[-9, 9], [-9, 9]]), interval_atlas(-2000, 2000, coord_name="w"))
LIBRARY = {
    "cubes": expression_map(*_CUBES, ["x**3 + y**3"], [["3*x**2", "3*y**2"]], name="cubes"),
    "cubes_fd": expression_map(*_CUBES, ["x**3 + y**3"], name="cubes_fd"),
}


def _closed_form_morphisms():
    """(scenario, morphism) of every morphism whose map has a 1-D target and
    whose source has no metric, with a jacobian block or without one."""
    for name, data in SCENARIO_DATA.items():
        for k, v in data.get("morphisms", {}).items():
            spec = data["maps"][v["map"]]
            if len(spec["exprs"]) == 1 and "metric" not in data["atlases"][spec["source"]]:
                yield name, k


# signed zeros, and |x| at and on both sides of 1, where a finite-difference step
# FD_STEP * max(1, |x|) switches
ENTRY = st.one_of(st.floats(-8, 8), st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 1.0 - 2.0 ** -53, -1.0 + 2.0 ** -53, 1.0 + 2.0 ** -52]))


def _closed_form_cases():
    """(scenario, morphism, generator) of every lift through a closed-form
    morphism: every such lift of the built-ins, projection's liftsym_fd
    through a map without a jacobian block among them, rank_drop.json's,
    through x**3 with and without one, SCENARIO's and LINE's, and the lift
    through each LIBRARY map (scenario "library")."""
    for name, k in _closed_form_morphisms():
        data = SCENARIO_DATA[name]
        for j in range(len(data["systems"][data["morphisms"][k]["target_system"]]["generators"])):
            yield name, k, j
    yield from (("library", k, 0) for k in LIBRARY)


@lru_cache(maxsize=None)
def _parsed(name):
    return parse_scenario(SCENARIO_DATA[name])


@lru_cache(maxsize=None)
def _case(name, k):
    """(morphism, downstairs system, kernel frame, lifted system, augmented
    system) of morphism k of scenario name, or through LIBRARY[k], lifting
    a field with expressions, for name "library"."""
    if name == "library":
        m = metric_lift_morphism(LIBRARY[k])
        down = GeneratedSystem(m.phi.target, (expression_field(
            m.phi.target, ["1 + 0.5*sin(w)"], name="push"),))
        frame, lifted = kernel_frame(m), lift_system(down, m.phi, morphism=m)[1]
        return m, down, frame, lifted, augment_with_kernel(lifted, frame)
    s = _parsed(name)
    return (s.morphisms[k], s.system(s.raw["morphisms"][k]["target_system"]), s.kernels.get(k),
            s.systems[f"{k}.system"], s.systems.get(f"{k}.augmented"))


@pytest.mark.parametrize("name, morphism, gen", list(_closed_form_cases()))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_closed_form_lift_equals_generic_lift(name, morphism, gen, data):
    """A lift through a map with expressions, a 1-D target and a source
    without a metric, a scenario's or an expression_map's, is one generated
    fill, bit for bit the generic lift through the map without expressions,
    on rows and at each row alone, signed zeros, rows where dPhi drops rank
    and, for a map without a jacobian, |x_j| on both sides of 1 included.
    The generic lift runs exactly for the stacks that fail the Gram test,
    and names their SingularGram."""
    m, down = _case(name, morphism)[:2]
    Y = down.generators[gen]
    plain = replace(m.phi, exprs=None, jacobian_exprs=None)
    closed, generic = m.lift(Y), metric_lift_morphism(plain).lift(Y)
    cid = data.draw(st.sampled_from(m.phi.source.charts)).chart_id
    X = data.draw(st.integers(1, 6).flatmap(
        lambda n: arrays(np.float64, (n, m.phi.source.dim), elements=ENTRY)))

    def outcome(field, coords):
        try:
            return field.values(cid, coords)
        except SingularGram as exc:
            return str(exc)

    J = m.phi.raw_jac_at(cid, X)
    with mock.patch.object(morphisms, "_right_inverse_apply",
                           wraps=morphisms._right_inverse_apply) as generic_calls:
        got = outcome(closed, X)
    assert generic_calls.called != grams_pass(J @ np.swapaxes(J, -1, -2))
    with mock.patch.object(morphisms, "_right_inverse_apply",
                           wraps=morphisms._right_inverse_apply) as reference_calls:
        assert _bits(got) == _bits(outcome(generic, X))
    assert reference_calls.called
    for x in X:
        assert _bits(outcome(closed, x)) == _bits(outcome(generic, x))


# -- closed-form kernel frames -----------------------------------------------------


def _frame_cases():
    """(scenario, morphism) of every chartwise kernel frame of a closed-form
    morphism: Möbius's and projection's, SCENARIO's, LINE's of one coordinate
    and rank_drop.json's through x**3, with and without a jacobian block, and
    that of each LIBRARY map (scenario "library")."""
    for name, k in _closed_form_morphisms():
        kernel = SCENARIO_DATA[name]["morphisms"][k].get("kernel")
        if kernel and kernel.get("mode", "chartwise") == "chartwise":
            yield name, k
    yield from (("library", k) for k in LIBRARY)


def _generic_frame(name, k):
    """The augmented system of case (name, k) and its twin whose kernel
    frame's columns are morphisms.kernel_projector's."""
    m, _, frame, lifted, aug = _case(name, k)

    def column(j):
        return lambda cid, coords: morphisms.kernel_projector(m.phi, None, cid, coords)[..., j]

    twin = replace(frame, fields=tuple(replace(f, func=column(j))
                                       for j, f in enumerate(frame.fields)))
    return aug, augment_with_kernel(lifted, twin)


def _value_or_message(field, cid, coords):
    try:
        return field.values(cid, coords)
    except SingularGram as exc:
        return str(exc)


def _gram(J):
    """0.0 + J_0 J_0 + ... of Jacobian rows J (..., 1, n), summed in order."""
    return sum((J[..., i:i + 1] * J[..., i:i + 1] for i in range(J.shape[-1])),
               np.zeros(J.shape[:-1] + (1,)))


@pytest.mark.parametrize("name, morphism", list(_frame_cases()))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_closed_form_frame_equals_kernel_projector(name, morphism, data):
    """The chartwise kernel frame of a closed-form morphism, a scenario's or
    one through an expression_map, is one generated fill per column, bit for
    bit kernel_projector's column, on rows and at each row alone, signed
    zeros and rows where dPhi drops rank included; every unit kernel flow, in
    both signs, equals its twin over kernel_projector's columns.
    kernel_projector runs exactly for the stacks that fail the Gram test,
    and names their SingularGram."""
    aug, twin = _generic_frame(name, morphism)
    phi = _case(name, morphism)[0].phi
    cid = data.draw(st.sampled_from(phi.source.charts)).chart_id
    X = data.draw(st.integers(1, 6).flatmap(
        lambda n: arrays(np.float64, (n, phi.source.dim), elements=ENTRY)))
    passes = grams_pass(_gram(phi.raw_jac_at(cid, X)))
    flows = [sel for sel in aug.flows() if isinstance(sel, np.ndarray)]
    pairs = [(f, g) for f, g in zip(aug.kernel_fields, twin.kernel_fields)]
    pairs += [(aug.resolve(sel), twin.resolve(sel)) for sel in flows]
    assert len(flows) == 2 * phi.source.dim
    for fill, generic in pairs:
        with mock.patch.object(morphisms, "kernel_projector",
                               wraps=morphisms.kernel_projector) as generic_calls:
            got = _value_or_message(fill, cid, X)
        assert generic_calls.called != passes
        with mock.patch.object(morphisms, "kernel_projector",
                               wraps=morphisms.kernel_projector) as reference_calls:
            assert _bits(got) == _bits(_value_or_message(generic, cid, X))
        assert reference_calls.called
        for x in X:
            assert _bits(_value_or_message(fill, cid, x)) == _bits(_value_or_message(generic, cid, x))


def test_closed_form_frame_tests_its_gram_before_it_divides():
    """A frame column through x**3, with and without a jacobian block, tests
    its Gram before it divides: rows where W = 0, or 1e-24 from central
    differences, raise no RuntimeWarning, only kernel_projector's
    SingularGram, which names the same row. A stack of no rows takes
    kernel_projector's column, for the Jacobians through x**3 and for
    Möbius's constant one, whose W is one float."""
    zero_w = np.array([[0.2, 0.1], [0.0, 0.5], [-0.0, -1.0]])
    frames = ("cube_frame", "cube_fd_frame")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for aug, twin in (_generic_frame("rank-drop", k) for k in frames):
            for fill, generic in zip(aug.kernel_fields, twin.kernel_fields):
                with pytest.raises(SingularGram) as exc:
                    fill.values("c0", zero_w)
                assert str(exc.value) == _value_or_message(generic, "c0", zero_w)
                assert str(exc.value).startswith("J G^-1 J^T is numerically singular at (c0, ")
        for name, k in (*(("rank-drop", k) for k in frames), ("mobius", "mlift")):
            for fill in _parsed(name).kernels[k].fields:
                with mock.patch.object(morphisms, "kernel_projector",
                                       wraps=morphisms.kernel_projector) as generic_calls:
                    assert fill.values("c0", np.empty((0, 2))).shape == (0, 2)
                assert generic_calls.called


def test_mobius_frame_is_filled_and_still_does_not_glue():
    """Möbius's chartwise frame is filled on a stack that passes and still
    reports global_ok False: its sections flip sign across the gluing."""
    frame = _parsed("mobius").kernels["mlift"]
    X = np.array([[0.1, 0.3], [-0.4, -0.0]])
    with mock.patch.object(morphisms, "kernel_projector") as generic_calls:
        values = [f.values("c0", X) for f in frame.fields]
    assert not generic_calls.called
    assert _bits(values[1]) == _bits(np.array([[0.0, 1.0], [0.0, 1.0]]))
    assert frame.mode == "chartwise" and not frame.global_ok


# -- second-order fills ----------------------------------------------------------


def _closure_twin(so):
    """so rebuilt from callables of its expressions, as scenarios built
    second-order systems before they were fills."""
    ta, (gamma, gmat) = so.tangent_atlas, so.local_data
    names, shape = ta.atlas.coord_names, (len(gmat), ta.base.dim)
    gamma_fn = compile_vector(gamma, names)
    g_fn = compile_vector([e for g in gmat for e in g], names)
    return second_order_system(
        ta, lambda cid, x, y: gamma_fn(np.concatenate([x, y], axis=-1)),
        lambda cid, x, y: g_fn(np.concatenate([x, y], axis=-1)).reshape(np.shape(x)[:-1] + shape),
        len(gmat), label=so.label)


def _fill_and_closure_pairs(s, down, lift):
    """(name, fill, closure twin) of every second-order field the scenario s
    builds from the expressions of down and of its lift's kernel frame."""
    so, lifted, m = s.second_order[down], s.second_order[f"{lift}.system"], s.morphisms[lift]
    twin = _closure_twin(so)
    twin_lifted, twin_m = second_order_lift(twin, s.maps[s.raw["so_lifts"][lift]["map"]])
    frame = s.kernels[lift]
    twin_frame = replace(frame, fields=tuple(replace(f, exprs=None) for f in frame.fields))
    aug, twin_aug = s.systems[f"{lift}.augmented"], augment_second_order(twin_lifted, twin_frame)
    tp = lifted.tangent_atlas
    pairs = [("drift", so.drift, twin.drift), ("lift-drift", lifted.drift, twin_lifted.drift)]
    pairs += [(f"control-{j}", f, g) for j, (f, g) in
              enumerate(zip(so.control_fields, twin.control_fields))]
    pairs += [(f"lift-control-{j}", f, g) for j, (f, g) in
              enumerate(zip(lifted.control_fields, twin_lifted.control_fields))]
    for j, Y in enumerate(s.systems[f"{down}.tcs"].generators):
        u = [1.0] + [float(c) for c in s.raw["second_order"][down]["control_samples"][j]]
        Y_twin = combine_fields([twin.drift, *twin.control_fields], u)
        pairs += [(f"tcs-{j}", Y, Y_twin), (f"lifted-{j}", m.lift(Y), twin_m.lift(Y_twin))]
    pairs += [(f"vertical-lift-{j}", vertical_lift(X, tp), vertical_lift(Y, tp))
              for j, (X, Y) in enumerate(zip(frame.fields, twin_frame.fields))]
    pairs += [(f"augmented-{j}", aug.resolve(sel), twin_aug.resolve(sel))
              for j, sel in enumerate(aug.flows())]
    return pairs


@lru_cache(maxsize=None)
def _fill_cases(name, down, lift):
    return _fill_and_closure_pairs(_parsed(name), down, lift)


@pytest.mark.parametrize("name, down, lift", [("double-integrator", "di", "dil"),
                                              ("batched", "osc", "oscl")])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_second_order_fills_equal_their_closures(name, down, lift, data):
    """Every second-order field a scenario builds from expressions is one
    generated fill (drift and controls, their affine slices, their lifts and
    lifted generators, vertical lifts, and the augmented generators and
    kernel flows), and equals its closure twin bit for bit, on rows and at
    each row alone, signed zeros included."""
    pairs = _fill_cases(name, down, lift)
    entry = st.one_of(st.floats(-2, 2), st.sampled_from([0.0, -0.0]))
    X = data.draw(st.integers(1, 6).flatmap(lambda n: arrays(
        np.float64, (n, max(f.atlas.dim for _, f, _ in pairs)), elements=entry)))
    for what, fill, closure in pairs:
        assert fill.exprs is not None and closure.exprs is None, what
        cid, Y = fill.atlas.charts[0].chart_id, X[:, :fill.atlas.dim]
        assert _bits(fill.values(cid, Y)) == _bits(closure.values(cid, Y)), what
        for y in Y:
            assert _bits(fill.values(cid, y)) == _bits(closure.values(cid, y)), what


def test_callables_and_non_finite_coefficients_keep_closures(scenario):
    """A geodesic spray's fields and anything combined with them, and a
    combination with a coefficient that is not finite, keep the closure
    path; kernel flows are built once per coefficient vector."""
    spray = scenario.second_order["conn.spray"]
    assert spray.drift.exprs is None
    assert all(f.exprs is None for f in spray.control_fields)
    swirl = scenario.fields["swirl"]
    assert combine_fields([swirl, swirl], [1.0, -0.5]).exprs is not None
    X = np.array([[0.5, -0.0], [1.0, 2.0]])
    for c in (np.inf, -np.inf, np.nan):
        mixed = combine_fields([swirl, swirl], [1.0, c])
        assert mixed.exprs is None
        assert _bits(mixed.values("c0", X)) == _bits(swirl.values("c0", X) + c * swirl.values("c0", X))
    aug = scenario.systems["oscl.augmented"]
    kernel = [sel for sel in aug.flows() if isinstance(sel, np.ndarray)]
    assert kernel and all(aug.resolve(sel) is aug.resolve(sel.copy()) for sel in kernel)


def test_pointwise_user_fields_raise_on_rows(scenario):
    """A func that reads one point as c[0] is wrong on rows, where c[0] is the
    first row: it raises DimensionMismatch naming the field or the map
    wherever rows are evaluated, rather than giving every row the value of
    row 0. A user map written for coordinates (..., d) lifts bit for bit as
    one point at a time."""
    line = scenario.atlases["line"]
    pointwise = VectorField(line, lambda cid, c: np.array([c[0]]), name="pointwise")
    X = np.array([[0.1], [0.5], [-0.3]])
    with pytest.raises(DimensionMismatch, match="field 'pointwise'"):
        pointwise.values("c0", X)
    down = GeneratedSystem(line, (pointwise,))
    with pytest.raises(DimensionMismatch):
        integrate_requests([RowRequest(down, Points(*line.normalize_rows("c0", X)),
                                       [Schedule.of((0, 0.5))] * 3, 0.1)])
    user = SmoothMap(line, line, raw=lambda cid, c: ("c0", 2.0 * c),
                     raw_jacobian=lambda cid, c: np.full(np.shape(c) + (1,), 2.0), name="twice")
    with pytest.raises(DimensionMismatch, match="field 'pointwise'"):
        verify_trajectory_preserving(metric_lift_morphism(user), down, samples=5)
    one_row = SmoothMap(line, line, raw=lambda cid, c: ("c0", np.array([2.0 * c[0]])), name="pw")
    with pytest.raises(DimensionMismatch, match="map 'pw'"):
        one_row.values(Points(*line.normalize_rows("c0", X)))

    lifted = metric_lift_morphism(user).lift(scenario.fields["push"])
    X = np.array([[0.5], [-1.25], [3.0]])
    assert np.array_equal(lifted.values("c0", X),
                          np.array([lifted.func("c0", x) for x in X]))


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
    """Each row of a stack normalizes as if alone: Atlas.normalize is the
    one-row case of normalize_rows."""
    atlas, (lo, hi) = ATLASES[kind]
    X = data.draw(_rows(atlas.dim, lo, hi))
    for chart in atlas.charts:
        rows = Points(*atlas.normalize_rows(chart.chart_id, X))
        for i, x in enumerate(X):
            out = canonical(atlas, chart.chart_id, x.copy())
            if out is None:
                assert rows.charts[i] == -1
            else:
                assert atlas.charts[rows.charts[i]].chart_id == out[0]
                assert np.array_equal(rows.coords[i], out[1])


@pytest.mark.parametrize("kind", sorted(ATLASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_transition_jacobian_rows_equal_pointwise(kind, data):
    """Each row of a stack gets the Jacobian it gets alone."""
    atlas, (lo, hi) = ATLASES[kind]
    X = data.draw(_rows(atlas.dim, lo, hi))
    for chart in atlas.charts:
        got = atlas.jacobian_rows(chart.chart_id, X)
        assert got.shape == (len(X), atlas.dim, atlas.dim)
        for i, x in enumerate(X):
            assert np.array_equal(got[i], atlas.transition_jacobian(chart.chart_id, x.copy()))


@pytest.mark.parametrize("kind", sorted(ATLASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_aliases_normalize_to_their_point(kind, data):
    """Every alias of a canonical point normalizes back onto that point, up
    to rounding, which may carry it across a wrap point. Only a point within
    rounding of an open edge may lose its alias: Mobius maps y to 1 - y, and
    1 - (1 - y) is 0 for y < 2**-54."""
    atlas, (lo, hi) = ATLASES[kind]
    X = data.draw(_rows(atlas.dim, lo, hi))
    for chart in atlas.charts:
        rows = Points(*atlas.normalize_rows(chart.chart_id, X))
        for c, x in zip(rows.charts, rows.coords):
            if c < 0:
                continue
            p = Point(atlas.charts[c].chart_id, x)
            open_axes = ~np.array(atlas.charts[c].wrap)
            for cid, coords in atlas.aliases(p):
                out = canonical(atlas, cid, coords)
                if out is None:
                    edges = atlas.charts[c].box[open_axes]
                    assert np.min(np.abs(edges - x[open_axes, None])) <= 1e-15
                    continue
                q = Point(out[0], out[1])
                assert atlas.distance(p, q) <= 1e-12 * max(1.0, float(np.abs(x).max()))


def _fd_normalize(atlas, cid, X):
    """Central differences of normalize_rows at rows X, and whether each row's
    stencil stays in its chart and off the wrap points, where normalization
    jumps by a period."""
    charts = atlas.normalize_rows(cid, X)[0]
    smooth = charts >= 0
    chart = atlas.charts[atlas.chart_index(cid)]
    phase = np.mod(X - chart.box[:, 0], chart.widths()) / chart.widths()
    smooth &= np.all(~np.array(chart.wrap) | ((1e-3 < phase) & (phase < 1 - 1e-3)), axis=1)
    for j in range(atlas.dim):
        for sign in (-1.0, 1.0):
            Z = X.copy()
            Z[:, j] += sign * FD_STEP * np.maximum(1.0, np.abs(X[:, j]))
            smooth &= atlas.normalize_rows(cid, Z)[0] == charts
    fd = finite_difference_jacobian(lambda Z: atlas.normalize_rows(cid, Z)[1],
                                    X.copy(), atlas.dim)
    return fd, smooth


def _box_rows(chart):
    """Rows in a chart's box, off its edges, wrapped axes up to three turns
    away either way."""
    def axis(wrapped):
        return st.tuples(st.integers(-3, 3) if wrapped else st.just(0), st.floats(0.01, 0.99))

    row = st.tuples(*(axis(w) for w in chart.wrap)).map(
        lambda a: chart.box[:, 0] + chart.widths() * np.array([k + f for k, f in a]))
    return st.lists(row, min_size=1, max_size=6).map(np.array)


@pytest.mark.parametrize("kind", sorted(ATLASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_jacobian_rows_are_derivatives_of_normalize_rows(kind, data):
    atlas = ATLASES[kind][0]
    for chart in atlas.charts:
        X = data.draw(_box_rows(chart))
        fd, smooth = _fd_normalize(atlas, chart.chart_id, X)
        J = atlas.jacobian_rows(chart.chart_id, X)
        assert np.allclose(fd[smooth], J[smooth], rtol=0.0, atol=1e-6)


def test_mobius_jacobian_flips_at_negative_x():
    """An odd number of turns flips y, counted downwards too: floor(-0.25) = -1."""
    atlas = ATLASES["mobius"][0]
    X = np.array([[-0.25, 0.3], [-1.25, 0.3], [-2.75, 0.6], [0.5, 0.3]])
    fd, smooth = _fd_normalize(atlas, "c0", X)
    J = atlas.jacobian_rows("c0", X)
    assert smooth.all()
    assert J[:, 1, 1].tolist() == [-1.0, 1.0, -1.0, 1.0]
    assert np.allclose(fd, J, rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("kind", ["circle", "mobius", "torus"])
def test_tangent_jacobian_has_no_cross_block_at_seams(kind):
    """The base gluing is locally constant, so the (fiber, base) block of a
    tangent atlas's Jacobian is exactly 0, also within 1e-7 of a wrap, where
    J(x) y flips on the Mobius band; each row gets the Jacobian it gets alone."""
    base = ATLASES[kind][0]
    atlas, n = tangent_atlas(base, v_bound=1.0).atlas, base.dim
    chart = base.charts[0]
    rows = []
    for j in np.flatnonzero(chart.wrap):
        p = chart.widths()[j]
        for x in (0.0, 1e-7, p - 1e-7, p, -1e-7, p + 1e-7, 2 * p - 1e-7):
            c = chart.box[:, 0] + 0.5 * chart.widths()
            c[j] = x
            rows.append(np.concatenate([c, [0.3, 0.2][:n]]))
    X = np.array(rows)
    J = atlas.jacobian_rows("c0", X)
    assert (J[:, n:, :n] == 0.0).all()
    for x, j in zip(X, J):
        assert np.array_equal(atlas.transition_jacobian("c0", x), j)


def _sample_alone(atlas, rng, n, margin):
    """Atlas.sample normalizing one candidate at a time; also the number of
    candidates dropped."""
    vols = np.array([float(np.prod(c.widths())) for c in atlas.charts])
    probs = vols / vols.sum()
    pts, dropped = [], 0
    while len(pts) < n:
        chart = atlas.charts[rng.choice(len(atlas.charts), p=probs)]
        lo = chart.box[:, 0] + margin * chart.widths()
        hi = chart.box[:, 1] - margin * chart.widths()
        out = canonical(atlas, chart.chart_id, rng.uniform(lo, hi))
        if out is None:
            dropped += 1
        else:
            pts.append(Point(out[0], out[1]))
    return pts, dropped


# a union with a hole between its charts, where candidates drawn beyond a
# chart's box by a negative margin are dropped
SAMPLED = {**ATLASES, "union-holes": (union_atlas({"a": [[-1, -0.2], [-1, 1]],
                                                   "b": [[0.3, 1], [-1, 0.5]]}), None)}


@pytest.mark.parametrize("kind", sorted(SAMPLED))
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 40), margin=st.floats(-0.4, 0.3))
def test_sample_equals_one_candidate_at_a_time(kind, seed, n, margin):
    """Candidates normalized as rows give the points, bit for bit, and leave
    the generator in the state that one candidate at a time does."""
    atlas = SAMPLED[kind][0]
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = atlas.sample(rng, n, margin)
    want, _ = _sample_alone(atlas, ref, n, margin)
    assert [p.chart_id for p in got] == [p.chart_id for p in want]
    assert [p.coords.tobytes() for p in got] == [p.coords.tobytes() for p in want]
    assert rng.bit_generator.state == ref.bit_generator.state


def test_sample_drops_candidates_outside_the_atlas():
    """The cases above do drop candidates: here about half of them."""
    atlas = SAMPLED["union-holes"][0]
    pts, dropped = _sample_alone(atlas, np.random.default_rng(0), 40, -0.4)
    assert dropped > 10
    got = atlas.sample(np.random.default_rng(0), 40, -0.4)
    assert [p.coords.tobytes() for p in got] == [p.coords.tobytes() for p in pts]


def test_lifts_through_one_map_share_one_morphism(scenarios):
    """A scenario builds one metric-lift morphism per map: projection's
    liftsym, liftsym_user and afflift all lift through projx. It lifts each
    system once per map: liftsym and liftsym_user lift dsym to one system.
    Two requests of it pooled into one integration each get the RowFlow of
    that request alone."""
    s = scenarios["projection"]
    assert s.morphisms["liftsym"] is s.morphisms["liftsym_user"] is s.morphisms["afflift"]
    sym, user = s.system("liftsym.system"), s.system("liftsym_user.system")
    assert sym is user and sym is not s.system("afflift.system")

    starts = sym.atlas.stack(sym.atlas.sample(np.random.default_rng(0), 2))
    scheds = [Schedule.of((0, 0.1), (1, 0.1)), Schedule.of((1, 0.2))]
    requests = [RowRequest(sym, starts, scheds, 0.01), RowRequest(user, starts, scheds, 0.01)]
    stats = Counter()
    a, b = integrate_requests(requests, stats)
    assert stats == Counter(integrations=1, rows=4, rk4_steps=20)
    alone = integrate_requests([RowRequest(sym, starts, scheds, 0.01)])[0]
    for flow in (a, b):
        assert np.array_equal(flow.samples.coords, alone.samples.coords)
        assert np.array_equal(flow.times, alone.times)


def test_a_row_alone_in_its_group_steps_as_a_point(scenarios, monkeypatch):
    """Two rows of one chart under two fields are two groups of one row: each
    steps as a point, a (d,) array to rk4_step, and each gets the RowFlow of
    integrate_requests of it alone."""
    sym = scenarios["projection"].system("liftsym.system")
    starts = sym.atlas.stack(sym.atlas.sample(np.random.default_rng(0), 2))
    scheds = [Schedule.of((0, 0.1)), Schedule.of((1, 0.1))]
    shapes, rk4_step = [], systems.rk4_step

    def counted(func, cid, coords, h):
        shapes.append(np.shape(coords))
        return rk4_step(func, cid, coords, h)

    monkeypatch.setattr(systems, "rk4_step", counted)
    both = integrate_requests([RowRequest(sym, starts, scheds, 0.01)])[0]
    assert shapes == [(2,)] * 20
    for r in range(2):
        alone = integrate_requests([RowRequest(
            sym, Points(starts.charts[r:r + 1], starts.coords[r:r + 1]), scheds[r:r + 1],
            0.01)])[0]
        assert np.array_equal(both.samples.coords[r:r + 1], alone.samples.coords)
        assert np.array_equal(both.times[r:r + 1], alone.times)


def test_pooled_requests_record_only_where_asked():
    """Requests pooled into one integration each get the RowFlow of
    integrate_requests of it alone, samples only where asked, cut to their own steps."""
    sys = _union_system()
    starts = sys.atlas.stack([sys.atlas.normalize("a", [x, -0.5]) for x in (0.9, -0.9)])
    short, long_ = [Schedule.of((1, 0.2))] * 2, [Schedule.of((1, 0.6))] * 2
    requests = [RowRequest(sys, starts, short, 0.01),
                RowRequest(sys, starts, long_, 0.01, record=False),
                RowRequest(sys, starts, long_, 0.01)]
    stats = Counter()
    flows = integrate_requests(requests, stats)
    assert stats == Counter(integrations=1, rows=6, rk4_steps=60)
    assert flows[1].samples is None
    for req, flow in zip(requests, flows):
        for got, want in zip(flow, integrate_requests([req])[0]):
            if got is None or want is None:
                assert got is want
                continue
            for g, w in zip(got, want) if isinstance(got, Points) else [(got, want)]:
                assert g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("kind", sorted(ATLASES))
@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=st.integers(1, 7))
def test_row_cell_of_equals_pointwise(kind, data, n):
    atlas, (lo, hi) = ATLASES[kind]
    X = data.draw(_rows(atlas.dim, lo, hi))
    rows = Points(*atlas.normalize_rows(atlas.charts[0].chart_id, X))
    inside = rows.charts >= 0
    rows = Points(rows.charts[inside], rows.coords[inside])
    grid = Grid(atlas, n)
    keys = grid.keys_of(grid.cells_of(rows))
    assert keys == [grid.cell_of(Point(atlas.charts[c].chart_id, x))
                    for c, x in zip(rows.charts, rows.coords)]


def _neighbors_alone(grid, key):
    """Grid.neighbors point by point: each offset of the cell centre goes
    through Atlas.normalize alone and its cell through cell_of."""
    atlas = grid.atlas
    chart = atlas.charts[atlas.chart_index(key[0])]
    n = grid.cells_per_axis
    widths = chart.widths() / n
    center = chart.box[:, 0] + (np.array(key[1:], float) + 0.5) * chart.widths() / n
    out = []
    for offsets in itertools.product((-1, 0, 1), repeat=atlas.dim):
        if all(o == 0 for o in offsets):
            continue
        try:
            p = atlas.normalize(key[0], center + np.array(offsets) * widths)
        except OutOfAtlas:
            continue
        cell = grid.cell_of(p)
        if cell != key and cell not in out:
            out.append(cell)
    return out


@pytest.mark.parametrize("kind", sorted(ATLASES))
def test_grid_cells_centers_and_neighbors_agree(kind):
    """For grids of 1 to 7 cells per axis: every valid cell's centre lies in
    that cell, as rows and as a point, and neighbors equals its point-by-point
    oracle. The oracle runs on every key of grids up to 64 cells, and on
    every k-th key, 16 at most, of larger ones (the 4-D tangent grids)."""
    atlas = ATLASES[kind][0]
    for n in range(1, 8):
        grid = Grid(atlas, n)
        flat = grid.valid_flat()
        assert np.array_equal(grid.cells_of(grid.centers(flat)), flat)
        keys = grid.all_valid_cells()
        for key in keys:
            assert grid.cell_of(center_point(grid, key)) == key
            assert is_valid(grid, key)
        for key in keys[::-(-len(keys) // 16) if len(keys) > 64 else 1]:
            assert grid.neighbors(key) == _neighbors_alone(grid, key)


# -- the row integrator ----------------------------------------------------------


def _union_system():
    """Rows in both charts of a union, leaving it at different steps, under a
    lambda, a compiled field and kernel combinations on a base."""
    atlas = union_atlas({"a": [[-1, 0.5], [-1, 1]], "b": [[-0.5, 1], [-1, 0.3]]})
    compiled = compile_vector(["1 + x**2", "0.5*y - 0.2"], ["x", "y"])
    swirl = VectorField(atlas, lambda cid, c: np.stack([-c[..., 1] + 0.3, c[..., 0]], -1))
    drift = VectorField(atlas, lambda cid, c: compiled(c))
    lean = VectorField(atlas, lambda cid, c: compiled(c[..., ::-1]))
    return GeneratedSystem(atlas, (swirl, drift), kernel_fields=(drift, lean),
                           kernel_base=swirl)


def _pointwise_lift():
    """The lift of two generators through a user map given as lambdas."""
    plane = box_atlas([[-2, 2], [-2, 2]], coord_names=["x", "z"])
    line = union_atlas({"l": [[-2, 0.5]], "r": [[0, 2]]})
    bend = SmoothMap(plane, line, raw=lambda cid, c: ("l", c[..., :1] + 0.2 * np.sin(c[..., 1:])),
                     raw_jacobian=lambda cid, c: np.stack(
                         [np.ones_like(c[..., :1]), 0.2 * np.cos(c[..., 1:])], axis=-1))
    down = GeneratedSystem(line, (
        VectorField(line, lambda cid, c: 1.0 + c ** 2),
        VectorField(line, lambda cid, c: np.full_like(c, -0.5))))
    return lift_system(down, bend)[1]


@lru_cache(maxsize=None)
def _row_systems():
    """Built once: integrating keeps no state in a system or a field."""
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
    return coords.map(lambda c: canonical(sys.atlas, sys.atlas.charts[0].chart_id,
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
        # two more rows from one point under the two generators of the lift,
        # in one chart, whatever the other rows do
        starts += [data.draw(_starts(sys))] * 2
        scheds += [Schedule.of((g, data.draw(st.floats(h, 0.35)))).then(
            data.draw(_schedules(sys))) for g in (0, 1)]
    # three more rows: two share one schedule object, whose steps are drawn
    # once for both, and one has an equal schedule that is another object
    shared = data.draw(_schedules(sys))
    starts += [data.draw(_starts(sys)) for _ in range(3)]
    scheds += [shared, shared, Schedule(tuple(shared.segments))]
    _assert_rows_alone(sys, starts, scheds, h)


def _assert_rows_alone(sys, starts, scheds, h):
    """integrate_requests equals integrate() of each start alone, recorded or not."""
    rows = sys.atlas.stack(starts)
    flow = integrate_requests([RowRequest(sys, rows, scheds, h)])[0]
    bare = integrate_requests([RowRequest(sys, rows, scheds, h, record=False)])[0]
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

    return GeneratedSystem(holey, (VectorField(holey, tilt),))


def test_kept_plans_end_where_rows_change(scenario):
    """integrate_requests keeps one step plan until a row changes chart or field,
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

    # rows under two lifts of one morphism swap fields at a boundary
    for name in ("holed.augmented", "wbent2.augmented"):
        sys = scenario.systems[name]
        starts = [sys.atlas.normalize(sys.atlas.charts[0].chart_id, c)
                  for c in ([-0.5, -1.0], [-0.8, 0.3])]
        scheds = [Schedule.of((0, 0.1), (1, 0.1)), Schedule.of((1, 0.1), (0, 0.1))]
        _assert_rows_alone(sys, starts, scheds, 0.01)


def test_lift_rows_equal_each_row_alone(scenario):
    """Rows of one chart under two generators of one lift through a map
    given as Python callables each step as that row alone."""
    plane, line = scenario.atlases["plane"], scenario.atlases["line"]

    def raw(cid, c):
        return "c0", c[..., :1] + 0.3 * np.sin(c[..., 1:])

    def jac(cid, c):
        return np.stack([np.ones(np.shape(c)[:-1]), 0.3 * np.cos(c[..., 1])], axis=-1)[..., None, :]

    phi = SmoothMap(plane, line, raw, raw_jacobian=jac)
    up = lift_system(scenario.system("down2"), phi)[1]
    starts = [Point("c0", np.array([0.1, 0.2])), Point("c0", np.array([-0.4, 0.7]))]
    scheds = [Schedule.of((0, 0.1)), Schedule.of((1, 0.1))]
    flow = integrate_requests([RowRequest(up, plane.stack(starts), scheds, 0.05)])[0]
    for r, (start, sched) in enumerate(zip(starts, scheds)):
        samples, _ = _alone(up, start, sched, 0.05)
        assert np.array_equal(flow.samples.coords[r], [p.coords for _, p in samples])


def test_steps_are_drawn_once_per_schedule_object(monkeypatch):
    """integrate_requests draws the steps of a schedule object once for all
    rows that share it; an equal schedule that is another object is drawn
    again (test_rows_equal_integrate_alone checks such rows bit for bit)."""
    sys = _union_system()
    shared = Schedule.of((0, 0.1), ([0.7, -0.5], 0.2))
    scheds = [shared, shared, shared, Schedule(shared.segments)]
    starts = [sys.atlas.normalize("a", [x, -0.5]) for x in (0.9, 0.5, 0.3, -0.9)]
    drawn, step_schedule = [], systems.step_schedule

    def counted(*args):
        drawn.append(args)
        return step_schedule(*args)

    monkeypatch.setattr(systems, "step_schedule", counted)
    integrate_requests([RowRequest(sys, sys.atlas.stack(starts), scheds, 0.01)])
    assert len(drawn) == 2 * len(shared.segments)  # each segment of each object once


def test_rows_escape_at_different_steps():
    """Starts nearer the edge leave earlier; each keeps its own escape time and
    truncated samples, and the others step on."""
    sys = _union_system()
    starts = [sys.atlas.normalize("a", [x, -0.5]) for x in (0.9, 0.5, 0.3, -0.9)]
    scheds = [Schedule.of((1, 0.6))] * 4
    flow = integrate_requests([RowRequest(sys, sys.atlas.stack(starts), scheds, 0.01)])[0]
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
            v = m.phi.jacobian(p) @ X.at(p)
            r = float(np.max(np.abs(v - Y.at(m.phi.value(p)))))
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
    """User maps given as lambdas: metric lifts into a union and into an interval,
    and constant wrong lifts into both whose residual ties at every point, so
    the first point must win, and whose projected trajectories drift further
    at every step, across the union's charts too."""
    plane = box_atlas([[-2, 2], [-2, 2]], coord_names=["x", "z"])
    cases = []
    for line in (union_atlas({"l": [[-2, 0.5]], "r": [[0, 2]]}), interval_atlas(-9, 9)):
        cid = line.charts[0].chart_id
        proj = SmoothMap(plane, line, raw=lambda cid_, c, cid=cid: (cid, c[..., :1]),
                         raw_jacobian=lambda cid_, c: np.broadcast_to(
                             [[1.0, 0.0]], np.shape(c)[:-1] + (1, 2)))
        down = GeneratedSystem(line, (
            VectorField(line, lambda cid_, c: 1.0 + c ** 2),
            VectorField(line, lambda cid_, c: np.full_like(c, -0.5))))
        cases.append((lift_system(down, proj)[0], down))
    const = lambda cid, c: np.stack([np.full_like(c[..., 1], 3.0), c[..., 1]], axis=-1)
    wrong = [(Morphism(m.phi, lambda Y: VectorField(plane, const), kind="user-supplied"), down)
             for m, down in cases]
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
    order; the certificates match charts by id, as one point at a time does.
    The map picks its raw target chart by source chart: L maps into l, R
    into r."""
    plane = union_atlas({"L": [[-2, 0], [-2, 2]], "R": [[0, 2], [-2, 2]]},
                        coord_names=["x", "z"])
    charts = {"l": [[-2, 0]], "r": [[0, 2]]}
    line, flipped = union_atlas(charts), union_atlas(dict(reversed(charts.items())))
    assert [c.chart_id for c in flipped.charts] == ["r", "l"]
    proj = SmoothMap(plane, line, raw=lambda cid, c: (cid.lower(), c[..., :1]),
                     raw_jacobian=lambda cid, c: np.broadcast_to(
                         [[1.0, 0.0]], np.shape(c)[:-1] + (1, 2)))
    # fields that differ from chart to chart show a row read in the wrong chart
    down = GeneratedSystem(flipped, (
        VectorField(flipped, lambda cid, c: (cid == "l") + c ** 2),
        VectorField(flipped, lambda cid, c: -0.5 - c * (cid == "r"))))
    m = lift_system(down, proj)[0]
    kw = dict(samples=40, seed=seed, schedules=6, h=0.01)
    report = verify_trajectory_preserving(m, down, **kw)
    assert report == _verify_pointwise(m, down, **kw)
    starts = plane.sample(np.random.default_rng(seed), 4)
    report = verify_global_in_time(m, down, starts, 2.0, h=0.01)
    assert report == _global_pointwise(m, down, starts, 2.0, h=0.01)


# -- structural checks against their point-by-point definitions ---------------------
#
# Each check samples once and evaluates as rows; the references below scan one
# point, then one field, at a time. Fields and maps that fail or give nan on
# part of the plane show that the first failing point is the same and that
# nan never wins a comparison. A matrix that is not finite has rank 0 where
# numpy's SVD would raise LinAlgError, naming no point.


def _svd(A):
    return np.linalg.svd(A if np.isfinite(A).all() else np.zeros_like(A), compute_uv=False)


def _outcome(fn):
    """What fn returns, or the class and the first point of what it raises."""
    try:
        return fn()
    except (NotSubmersion, NotInKernel, RankDeficient) as exc:
        return type(exc).__name__, getattr(exc, "index", None), str(exc.point)
    except FrameNotKernel as exc:
        return "FrameNotKernel", str(exc)


def _submersion_pointwise(phi, samples=50, seed=0):
    for p in phi.source.sample(np.random.default_rng(seed), samples):
        s = _svd(phi.jacobian(p))
        rank = 0 if s.size == 0 or s[0] == 0.0 else int(np.sum(s > 1e-8 * s[0]))
        if rank < phi.target.dim:
            raise NotSubmersion(p, rank, phi.target.dim)


def _global_frame_pointwise(m, fields, samples=50, seed=0):
    pts = m.phi.source.sample(np.random.default_rng(seed), samples)
    s = _svd(m.phi.jacobian(pts[0]))
    rank = m.phi.source.dim - int(np.sum(s > 1e-8 * s[0]))
    for p in pts:
        J, vals = m.phi.jacobian(p), []
        for i, X in enumerate(fields):
            v = X.at(p)
            r = float(np.max(np.abs(J @ v)))
            if r > 1e-8:
                raise NotInKernel(i, p, r)
            vals.append(v)
        s = _svd(np.stack(vals, axis=1))
        if len(s) < rank or s[rank - 1] < 1e-6:
            raise RankDeficient(p)
    return rank


def _frame_check_pointwise(phi, fields, samples=30, seed=0):
    for p in phi.source.sample(np.random.default_rng(seed), samples):
        for X in fields:
            if float(np.max(np.abs(phi.jacobian(p) @ X.at(p)))) > 1e-8:
                raise FrameNotKernel(f"frame field {X.name!r} leaves ker(dPhi) at {p}")


def _second_order_pointwise(sys, samples=200, seed=0):
    n, worst = sys.tangent_atlas.base.dim, 0.0
    for p in sys.tangent_atlas.atlas.sample(np.random.default_rng(seed), samples):
        worst = max(worst, float(np.max(np.abs(sys.drift.at(p)[:n] - p.coords[n:]))))
        for f in sys.control_fields:
            worst = max(worst, float(np.max(np.abs(f.at(p)[:n]))))
    return worst <= 1e-9, worst


def _liftable_pointwise(sigma1, sigma2, phi, tol=1e-6, samples=60, seed=0):
    """check_liftable's matching, after its independence test."""
    rng = np.random.default_rng(seed)
    pts1 = phi.source.sample(rng, samples)
    phi.target.sample(rng, samples)
    mapping = []
    for u in sigma2.controls():
        Y, match = sigma2.slice_at(u) if not isinstance(u, VectorField) else u, None
        for ubar in sigma1.controls():
            X, worst = sigma1.slice_at(ubar) if not isinstance(ubar, VectorField) else ubar, 0.0
            for p in pts1:
                v = phi.jacobian(p) @ X.at(p)
                worst = max(worst, float(np.max(np.abs(v - Y.at(phi.value(p))))))
            if worst <= tol:
                match = ubar
                break
        mapping.append((u, match))
    return all(match is not None for _, match in mapping), mapping


def _patchy_plane():
    """A projection of the plane onto a line, and fields on the plane that
    leave its kernel, lose rank or turn nan on parts of it."""
    plane = box_atlas([[-2, 2], [-2, 2]], coord_names=["x", "z"])
    line = interval_atlas(-2, 2)
    proj = SmoothMap(plane, line, raw=lambda cid, c: ("c0", c[..., :1]),
                     raw_jacobian=lambda cid, c: np.broadcast_to(
                         [[1.0, 0.0]], np.shape(c)[:-1] + (1, 2)), name="proj")

    def field(name, fn):
        return VectorField(plane, lambda cid, c: np.stack(fn(c[..., 0], c[..., 1]), -1), name)

    one, zero = np.ones_like, np.zeros_like
    fields = {
        "vert": field("vert", lambda x, z: (zero(x), one(x))),
        "tilt": field("tilt", lambda x, z: (np.where(z > 0.5, 0.2 * z, 0.0), one(x))),
        "fade": field("fade", lambda x, z: (zero(x), np.where(x > 0.7, 0.0, 1.0))),
        "blot": field("blot", lambda x, z: (np.where(x < -1.0, np.nan, 0.0), one(x))),
        # slices over the line's d/dx: on part of the plane only, and off a nan region
        "half": field("half", lambda x, z: (np.where(z > 0.5, 2.0, 1.0), zero(x))),
        "nanx": field("nanx", lambda x, z: (np.where(x < -1.0, np.nan, 1.0), zero(x))),
    }
    return plane, line, proj, fields


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_row_structural_checks_equal_pointwise_reference(scenarios, seed):
    plane, line, proj, fields = _patchy_plane()
    # rank drops and a nan Jacobian on parts of the plane, and the scenario maps
    flat = SmoothMap(plane, line, raw=lambda cid, c: ("c0", np.minimum(c[..., :1], 0.4)),
                     raw_jacobian=lambda cid, c: np.stack(
                         [np.where(c[..., :1] < 0.4, 1.0, 0.0), np.zeros_like(c[..., :1])], -1))
    holed = SmoothMap(plane, line, raw=lambda cid, c: ("c0", c[..., :1]),
                      raw_jacobian=lambda cid, c: np.stack(
                          [np.where(c[..., :1] > 1.5, np.nan, 1.0), c[..., 1:] ** 2], -1))
    maps = [flat, holed, proj] + [phi for s in scenarios.values() for phi in s.maps.values()]
    for phi in maps:
        assert _outcome(lambda: check_submersion(phi, seed=seed)) == \
            _outcome(lambda: _submersion_pointwise(phi, seed=seed))

    m = metric_lift_morphism(proj)
    for names in (["vert"], ["tilt"], ["fade"], ["blot"], ["vert", "tilt"], ["fade", "vert"],
                  ["blot", "fade"], ["vert", "vert"]):
        frame = [fields[k] for k in names]
        got = _outcome(lambda: kernel_frame(m, "global", frame, seed=seed).rank)
        assert got == _outcome(lambda: _global_frame_pointwise(m, frame, seed=seed))

    di = scenarios["double-integrator"].second_order["di"]
    lifted, _ = second_order_lift(di, proj)
    for names in (["vert"], ["tilt", "vert"], ["blot"], ["vert", "tilt", "fade"]):
        frame = KernelFrame(m, "global", tuple(fields[k] for k in names), 1, True)
        assert _outcome(lambda: augment_second_order(lifted, frame, seed=seed).label) == \
            _outcome(lambda: _frame_check_pointwise(proj, frame.fields, seed=seed) or
                     augment_second_order(lifted, frame, seed=seed).label)

    so = [so for s in scenarios.values() for so in s.second_order.values()]
    ta = lifted.tangent_atlas
    # velocities off by 0.3 x where x <= 0.5 and nan beyond: the worst is a number,
    # 0.3 |x| for some x in (-2, 0.5]
    skew = VectorField(ta.atlas, lambda cid, c: np.concatenate(
        [c[..., 2:] + np.where(c[..., :1] > 0.5, np.nan, 0.3 * c[..., :1]), 0.0 * c[..., 2:]],
        -1))
    so.append(SecondOrderSystem(ta, skew, lifted.control_fields))
    for sys in so:
        assert is_second_order(sys, seed=seed) == _second_order_pointwise(sys, seed=seed)
    assert 0.0 < is_second_order(so[-1], seed=seed)[1] <= 0.6

    s = scenarios["projection"]
    ups = GeneratedSystem(plane, (fields["half"], fields["nanx"]))
    downs = GeneratedSystem(line, (VectorField(line, lambda cid, c: np.ones_like(c)),))
    for up, dn, phi in ((s.system("afflift.system"), s.system("daff"), s.maps["projx"]),
                        (s.system("ups_cube"), s.system("dcube"), s.maps["cube"]),
                        (ups, downs, proj)):
        sigma1, sigma2 = control_system_from_tcs(up), control_system_from_tcs(dn)
        got = check_liftable(sigma1, sigma2, phi, seed=seed)
        assert got == _liftable_pointwise(sigma1, sigma2, phi, seed=seed)
    assert got == (True, [(downs.generators[0], fields["nanx"])])
