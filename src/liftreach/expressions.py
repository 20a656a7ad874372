"""Small arithmetic expression language for scenario files.

Supports literals, + - * /, powers, unary minus, the functions sin, cos,
tan, exp, log, sqrt, abs, the constants pi and e, and variables bound to
chart coordinates.

Compiled expressions are array-native: a coordinate vector of shape (d,)
gives one value, rows of shape (N, d) give N values, and constants are
broadcast. Literals are floats and powers go through np.power, so both
forms agree bit for bit and no literal ever runs in Python integer
arithmetic (a tower such as 9**9**9 overflows to inf at once).
"""

from __future__ import annotations

import ast
import keyword
import math

import numpy as np

from .errors import ParseError

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt, "abs": np.abs,
          "tan": np.tan, "log": np.log}
_CONSTS = {"pi": math.pi, "e": math.e}

_ALLOWED_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name, ast.Call,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd, ast.Load,
)


def _validate(tree: ast.AST, variables: set[str], text: str):
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ParseError(f"unsupported syntax {type(node).__name__!r} in {text!r}")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ParseError(f"non-numeric literal {node.value!r} in {text!r}")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.keywords:
                raise ParseError(f"unsupported call in {text!r}")
            if node.func.id not in _FUNCS:
                raise ParseError(f"unknown function {node.func.id!r} in {text!r}")
        elif isinstance(node, ast.Name):
            if node.id not in variables and node.id not in _CONSTS and node.id not in _FUNCS:
                raise ParseError(f"unknown name {node.id!r} in {text!r}")


def _float_arithmetic(node: ast.AST) -> ast.AST:
    """Float literals, and a ** b as the ufunc np.power(a, b), over a validated tree."""
    if isinstance(node, ast.Constant):
        return ast.copy_location(ast.Constant(float(node.value)), node)
    if isinstance(node, ast.BinOp):
        node.left, node.right = _float_arithmetic(node.left), _float_arithmetic(node.right)
        if isinstance(node.op, ast.Pow):
            pow_ = ast.copy_location(ast.Name("_pow", ast.Load()), node)
            return ast.copy_location(ast.Call(pow_, [node.left, node.right], []), node)
    elif isinstance(node, ast.UnaryOp):
        node.operand = _float_arithmetic(node.operand)
    elif isinstance(node, ast.Call):
        node.args = [_float_arithmetic(arg) for arg in node.args]
    return node


def _compile(text: str, variables: list):
    """The expression as a function of one positional argument per variable."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ParseError(f"cannot parse {text!r}: {exc.msg}") from exc
    _validate(tree, set(variables), text)
    bad = [v for v in variables if not v.isidentifier() or keyword.iskeyword(v)]
    if bad:
        raise ParseError(f"variable name {bad[0]!r} is not an identifier")
    # with no variables, any coordinates are accepted and ignored
    lam = ast.parse(f"lambda {', '.join(variables) or '*_'}: 0", mode="eval")
    lam.body.body = _float_arithmetic(tree.body)
    env = dict(_FUNCS)
    env.update(_CONSTS)
    env["_pow"] = np.power
    env["__builtins__"] = {}
    return eval(compile(lam, "<expr>", "eval"), env)


def compile_expr(text: str, variables):
    """Compile one expression to a callable taking (d,) or (N, d) coordinates."""
    fn = _compile(text, list(variables))

    def call(coords):
        X = np.asarray(coords, dtype=float)
        if X.ndim == 1:
            return float(fn(*X))
        out = np.empty(X.shape[:-1])
        out[...] = fn(*X.T)
        return out

    return call


def compile_vector(texts, variables):
    """Compile a list of expressions into coords (d,) -> (k,) or (N, d) -> (N, k)."""
    variables = list(variables)
    fns = [_compile(t, variables) for t in texts]

    def call(coords):
        X = np.asarray(coords, dtype=float)
        if X.ndim == 1:
            return np.array([fn(*X) for fn in fns], dtype=float)
        out = np.empty(X.shape[:-1] + (len(fns),))
        for j, fn in enumerate(fns):
            out[..., j] = fn(*X.T)
        return out

    return call
