"""Expression mini-language: evaluation and rejection of unknown tokens."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from liftreach.errors import ParseError
from liftreach.expressions import compile_expr, compile_vector, substitute
from liftreach.systems import rk4_step


def test_arithmetic_and_functions():
    f = compile_expr("sin(x)**2 + cos(x)**2", ["x"])
    assert f(np.array([0.7])) == pytest.approx(1.0)
    g = compile_expr("exp(x) * y - sqrt(abs(y))", ["x", "y"])
    assert g(np.array([1.0, 4.0])) == pytest.approx(math.e * 4.0 - 2.0)


def test_constants():
    f = compile_expr("2*pi", [])
    assert f(np.array([])) == pytest.approx(2 * math.pi)
    assert compile_expr("e", [])(np.array([])) == pytest.approx(math.e)


def test_compile_vector():
    v = compile_vector(["x + y", "x - y"], ["x", "y"])
    assert_allclose(v(np.array([3.0, 1.0])), [4.0, 2.0])


def test_unknown_name_is_reported():
    with pytest.raises(ParseError, match="unknown name 'q'"):
        compile_expr("q + 1", ["x"])


def test_unknown_function_is_reported():
    with pytest.raises(ParseError, match="unknown function 'sinh'"):
        compile_expr("sinh(x)", ["x"])


def test_disallowed_syntax_is_rejected():
    for bad in ("__import__('os')", "x.real", "[1,2][0]", "x if x else 1",
                "lambda: 1"):
        with pytest.raises(ParseError):
            compile_expr(bad, ["x"])


def test_syntax_error_is_wrapped():
    with pytest.raises(ParseError, match="cannot parse"):
        compile_expr("1 +", ["x"])


def test_non_numeric_literal_rejected():
    with pytest.raises(ParseError, match="non-numeric"):
        compile_expr("'abc'", ["x"])


def test_integer_literals_are_floats():
    assert compile_expr("7 / 2", ["x"])(np.array([0.0])) == 3.5
    assert compile_vector(["2**-1", "x**2"], ["x"])(np.array([3.0])).tolist() == [0.5, 9.0]


def test_literal_power_tower_overflows_at_once():
    """9**9**9 in Python integers would run without bound; as floats it is inf."""
    import signal

    def timeout(signum, frame):
        raise TimeoutError("literal power tower did not finish within 1 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(1)
    try:
        with np.errstate(over="ignore"):
            value = compile_expr("9**9**9", ["x"])(np.array([0.0]))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert value == math.inf


def test_rows_broadcast_constants_and_match_points():
    v = compile_vector(["1", "x**3 - sin(y)", "pi"], ["x", "y"])
    X = np.array([[0.5, -1.0], [2.0, 0.25], [-1.5, 3.0]])
    rows = v(X)
    assert rows.shape == (3, 3)
    assert np.array_equal(rows, np.array([v(x) for x in X]))
    f = compile_expr("2", ["x", "y"])
    assert f(X).tolist() == [2.0, 2.0, 2.0]


def test_variables_may_take_the_names_a_fill_binds():
    """A variable named like a name the generated fill binds for itself (its
    output, np.power, the guard, a function) shadows none of them; a function
    name that is not called is a variable or unknown."""
    names = ["_pow", "_guard", "_out", "sin", "_sin", "__pow"]
    x = np.array([3.0, 0.5, 1.0, 2.0, 4.0, -1.0])
    fill = compile_vector(["_pow**2", "sin(sin) + _guard", "_out * _sin - __pow"], names)
    assert fill(x).tolist() == [9.0, np.sin(2.0) + 0.5, 5.0]
    assert compile_vector(["_pow**2"], ["_pow"])(np.array([3.0])).tolist() == [9.0]
    guarded = compile_vector(["_guard * w"], ["_guard"], lets=[("w", "_guard**2")],
                             guard=("w", lambda w, out: w < 4.0))
    assert guarded(np.array([1.5])).tolist() == [3.375]
    assert guarded(np.array([3.0])) is None
    with pytest.raises(ParseError, match="unknown name 'sin'"):
        compile_expr("sin + 1", ["x"])
    assert substitute("sin(sin) + 2", {"sin": "x**2"}) == "sin(x ** 2) + 2"


def test_variable_names_must_be_identifiers():
    for bad in ("x=1", "lambda", "a b"):
        with pytest.raises(ParseError, match="not an identifier"):
            compile_expr("1", [bad])


VECTORS = {
    "functions": (["sin(x)*y**2 - 3", "exp(-x**2)/(1 + y**2)", "sqrt(abs(x*y)) - tan(0.1*x)"],
                  ["x", "y"]),
    "powers": (["x**2", "2**-1", "y**x", "(x - y)**3", "-x**0.5", "9**9**9"], ["x", "y"]),
    "constants": (["1", "-0", "pi", "2*e"], ["x", "y"]),
    "no-variables": (["1", "-0.0", "pi**2"], []),
    "unused": (["2", "x", "-z"], ["x", "y", "z"]),
}


@pytest.mark.parametrize("case", sorted(VECTORS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_fill_equals_each_expression(case, data):
    """compile_vector fills every component in one call, bit for bit as each
    expression compiled alone, at a point and on rows."""
    texts, variables = VECTORS[case]
    d = len(variables) or 2
    n = data.draw(st.integers(1, 4))
    X = data.draw(arrays(np.float64, (n, d), elements=st.one_of(
        st.floats(-3, 3), st.sampled_from([0.0, -0.0]))))
    vector = compile_vector(texts, variables)
    each = [compile_expr(t, variables) for t in texts]
    with np.errstate(all="ignore"):
        rows = vector(X)
        assert rows.shape == (n, len(texts))
        assert rows.tobytes() == np.stack([f(X) for f in each], axis=-1).tobytes()
        for x, row in zip(X, rows):
            point = vector(x)
            assert point.shape == (len(texts),)
            assert point.tobytes() == np.array([f(x) for f in each]).tobytes()
            assert point.tobytes() == row.tobytes()


def _guard(w, out):
    return bool(np.all(w > 0.25))


# fills with one text per variable, whose calls carry a generated RK4 step:
# (texts, variables, lets, guard, constant); variables are named like the
# names the step binds itself (its h, start values and stage values)
STEPPED = {
    "reads": (["-_x1 * sin(_h)", "_h**2 - _k1_0", "exp(-_x1**2) / (1 + _k1_0**2)"],
              ["_h", "_x1", "_k1_0"], (), None, False),
    "shadows": (["__h - _out", "_k4_1 * _x0", "1", "-0.0"], ["_out", "__h", "_k4_1", "_x0"],
                (), None, False),
    "constant": (["1", "-0", "cos(pi) / 3", "2**-1074"], ["_h", "x", "_k1_2", "_x0"],
                 [("q", "sin(1)")], None, True),
    "let-reads": (["q", "2 * q"], ["x", "y"], [("q", "0.0 * x + 1.0")], None, False),
    "guarded": (["w", "_h / w"], ["_h", "_x0"], [("w", "_h * _h")], ("w", _guard), False),
    "guarded-constant": (["w", "-w"], ["_h", "_x0"], [("w", "0.5")], ("w", _guard), True),
}


def _nan_blind(x):
    return x.shape, np.isnan(x).tolist(), np.where(np.isnan(x), 0.0, x).tobytes()


@pytest.mark.parametrize("case", sorted(STEPPED))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_generated_step_equals_four_stages(case, data):
    """A fill's generated RK4 step gives rk4_step's four stages bit for bit
    (nan payloads aside), with a float step or a per-row column, signed zeros
    and values that are not finite included. It is taken at a point, and at
    rows only of a constant fill: a let that reads a coordinate makes a fill
    not constant. Where the guard fails at some stage it gives None, and
    rk4_step runs the four stages, whose failing stage falls back. Variables
    named like the step's own names shadow none of them."""
    texts, variables, lets, guard, constant = STEPPED[case]
    call, fallbacks = compile_vector(texts, variables, lets, guard), []

    def four_stages(cid, X):  # a plain func: rk4_step takes its four stages
        out = call(X)
        if out is None:
            fallbacks.append(X)
            return np.full(np.shape(X), 7.0)
        return out

    def stepped(cid, X):
        return four_stages(cid, X)

    stepped.step = call.step
    n, d = data.draw(st.integers(1, 4)), len(variables)
    X = data.draw(arrays(np.float64, (n, d), elements=st.one_of(
        st.floats(-3, 3), st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]))))
    h = data.draw(st.one_of(st.sampled_from([1e-3, 0.1, 0.5]),
                            arrays(np.float64, (n, 1), elements=st.floats(1e-4, 1.0))))
    if data.draw(st.booleans()):  # a point; a column gives its one row's step
        X, h = X[0], h if isinstance(h, float) else h[0]
    with np.errstate(all="ignore"):
        want = rk4_step(four_stages, "c0", X, h)
        failed, fallbacks[:] = bool(fallbacks), []
        got = call.step(X, h)
        assert (got is not None) == (not failed and (X.ndim == 1 or constant))
        if got is not None:
            assert _nan_blind(got) == _nan_blind(want)
        assert _nan_blind(rk4_step(stepped, "c0", X, h)) == _nan_blind(want)
