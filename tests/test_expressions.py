"""Expression mini-language: evaluation and rejection of unknown tokens."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from liftreach.errors import ParseError
from liftreach.expressions import compile_expr, compile_vector


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


def test_variable_names_must_be_identifiers():
    for bad in ("x=1", "lambda", "a b"):
        with pytest.raises(ParseError, match="not an identifier"):
            compile_expr("1", [bad])
