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
    """ParseError unless tree is an expression of the grammar: a function
    name is only called, and any other name is a variable or a constant."""
    nodes = list(ast.walk(tree))
    called = {id(node.func) for node in nodes if isinstance(node, ast.Call)}
    for node in nodes:
        if not isinstance(node, _ALLOWED_NODES):
            raise ParseError(f"unsupported syntax {type(node).__name__!r} in {text!r}")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ParseError(f"non-numeric literal {node.value!r} in {text!r}")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.keywords:
                raise ParseError(f"unsupported call in {text!r}")
            if node.func.id not in _FUNCS:
                raise ParseError(f"unknown function {node.func.id!r} in {text!r}")
        elif isinstance(node, ast.Name) and id(node) not in called:
            if node.id not in variables and node.id not in _CONSTS:
                raise ParseError(f"unknown name {node.id!r} in {text!r}")


def _float_arithmetic(node: ast.AST, bound: dict) -> ast.AST:
    """Float literals, a ** b as the ufunc np.power(a, b), and every function
    called by the name bound gives it ("pow" for np.power), over a validated
    tree."""
    if isinstance(node, ast.Constant):
        return ast.copy_location(ast.Constant(float(node.value)), node)
    if isinstance(node, ast.BinOp):
        node.left = _float_arithmetic(node.left, bound)
        node.right = _float_arithmetic(node.right, bound)
        if isinstance(node.op, ast.Pow):
            pow_ = ast.copy_location(ast.Name(bound["pow"], ast.Load()), node)
            return ast.copy_location(ast.Call(pow_, [node.left, node.right], []), node)
    elif isinstance(node, ast.UnaryOp):
        node.operand = _float_arithmetic(node.operand, bound)
    elif isinstance(node, ast.Call):
        node.func = ast.copy_location(ast.Name(bound[node.func.id], ast.Load()), node.func)
        node.args = [_float_arithmetic(arg, bound) for arg in node.args]
    return node


def _parse(text: str) -> ast.Expression:
    try:
        return ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ParseError(f"cannot parse {text!r}: {exc.msg}") from exc


def substitute(text: str, values: dict) -> str:
    """text with every variable named in values replaced by the expression
    values[name], and pi and e by their values, on the syntax tree."""
    trees = {name: _parse(v).body for name, v in values.items()}
    trees.update((c, ast.Constant(v)) for c, v in _CONSTS.items() if c not in trees)

    class Substitute(ast.NodeTransformer):
        def visit_Name(self, node):
            return trees.get(node.id, node)

        def visit_Call(self, node):  # a function name is no variable
            node.args = [self.visit(arg) for arg in node.args]
            return node

    return ast.unparse(Substitute().visit(_parse(text)))


def _compile(texts: list, variables: list, lets=(), guard=None):
    """One function fill(out, *coordinates) that sets out[..., j] to
    expression j of texts and returns True; with no variables, any
    coordinates are accepted and ignored. lets are (name, expression) pairs
    evaluated first, in order, each seeing the variables and the names
    before it, and texts see them all; no name may be a variable's. With a
    guard (name, test), fill returns False as soon as test(value of let
    name, out) is false, before any later let or component. The names the
    fill binds itself (out, np.power, the guard and the functions) are
    underscored until no variable or let takes them."""
    taken, bound = set(variables) | {name for name, _ in lets}, {}
    for name in ["out", "pow", "guard", *_FUNCS]:
        bound[name] = "_" + name
        while bound[name] in taken:
            bound[name] = "_" + bound[name]
    out = bound["out"]
    lines, known = [], set(variables)
    for target, text in [*lets, *enumerate(texts)]:
        tree = _parse(text)
        _validate(tree, known, text)
        lhs = target if isinstance(target, str) else f"{out}[..., {target}]"
        lines.append(ast.parse(f"{lhs} = 0").body[0])
        lines[-1].value = _float_arithmetic(tree.body, bound)
        known.add(lhs)
        if guard is not None and target == guard[0]:
            test = f"if not {bound['guard']}({target}, {out}): return False"
            lines.append(ast.parse(test).body[0])
    bad = [v for v in variables if not v.isidentifier() or keyword.iskeyword(v)]
    if bad:
        raise ParseError(f"variable name {bad[0]!r} is not an identifier")
    twice = [v for i, v in enumerate(variables) if v in variables[:i]]
    if twice:
        raise ParseError(f"variable name {twice[0]!r} is given twice")
    module = ast.parse(f"def fill({', '.join([out] + (variables or ['*_']))}): return True")
    module.body[0].body[:0] = lines
    env = {bound[name]: func for name, func in _FUNCS.items()}
    env.update(_CONSTS)
    env[bound["pow"]] = np.power
    env[bound["guard"]] = guard and guard[1]
    env["__builtins__"] = {}
    exec(compile(module, "<expr>", "exec"), env)  # every node has a location
    return env["fill"]


def compile_expr(text: str, variables):
    """Compile one expression to a callable taking (d,) or (N, d) coordinates."""
    value = compile_vector([text], variables)

    def call(coords):
        out = value(coords)[..., 0]
        return float(out) if out.ndim == 0 else out

    return call


def compile_vector(texts, variables, lets=(), guard=None):
    """Compile a list of expressions into coords (d,) -> (k,) or (N, d) -> (N, k),
    one call of one generated function filling every component. lets and
    guard are those of _compile: a call whose guard fails returns None."""
    texts = list(texts)
    fill = _compile(texts, list(variables), lets, guard)

    def call(coords):
        X = np.asarray(coords, dtype=float)
        out = np.empty(X.shape[:-1] + (len(texts),))
        return out if fill(out, *X.T) else None

    return call
