"""Small arithmetic expression language for scenario files.

Supports literals, + - * /, powers, unary minus, the functions sin, cos,
tan, exp, log, sqrt, abs, the constants pi and e, and variables bound to
chart coordinates.

Compiled expressions are array-native: a coordinate vector of shape (d,)
gives one value, rows of shape (N, d) give N values, and constants are
broadcast. Literals are floats and powers go through np.power, so both
forms agree bit for bit and no literal ever runs in Python integer
arithmetic (a tower such as 9**9**9 overflows to inf at once). A compiled
vector with one expression per variable also carries one generated RK4
step of itself (compile_vector).
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


def _compile(texts: list, variables: list, lets=(), guard=None, step=False):
    """One function fill(out, *coordinates) that sets out[..., j] to
    expression j of texts and returns True, and whether the fill is
    constant: no let and no text reads a variable. With no variables, any
    coordinates are accepted and ignored. lets are (name, expression) pairs
    evaluated first, in order, each seeing the variables and the names
    before it, and texts see them all; no name may be a variable's. With a
    guard (name, test), fill returns False as soon as test(value of let
    name, out) is false, before any later let or component.

    With step, one text per variable, the function is step(out, h,
    *coordinates): one classical RK4 step of the fill, setting out[..., j]
    to x_j + h / 6.0 * (k1_j + 2 * k2_j + 2 * k3_j + k4_j) with stage inputs
    x_j + 0.5 * h * k_j and x_j + h * k3_j, rk4_step's operations in its
    order. It returns False as soon as the guard fails at any stage, and
    evaluates a constant fill once, as its four stages agree.

    The names the function binds itself (out, np.power, the guard, the
    functions, and the step's h, start values and stage values) are
    underscored until no variable or let takes them."""
    d = len(texts)
    own = ["out", "pow", "guard", *_FUNCS]
    if step:
        own += ["h", *(f"x{j}" for j in range(d)),
                *(f"k{s}_{j}" for s in range(1, 5) for j in range(d))]
    taken, bound = set(variables) | {name for name, _ in lets}, {}
    for name in own:
        bound[name] = "_" + name
        while bound[name] in taken:
            bound[name] = "_" + bound[name]
    bad = [v for v in variables if not v.isidentifier() or keyword.iskeyword(v)]
    if bad:
        raise ParseError(f"variable name {bad[0]!r} is not an identifier")
    twice = [v for i, v in enumerate(variables) if v in variables[:i]]
    if twice:
        raise ParseError(f"variable name {twice[0]!r} is given twice")
    out = bound["out"]
    values, known, reads = [], set(variables), False  # (let name or text index, source)
    for target, text in [*lets, *enumerate(texts)]:
        tree = _parse(text)
        _validate(tree, known, text)
        value = _float_arithmetic(tree.body, bound)
        reads = reads or any(isinstance(node, ast.Name) and node.id in variables
                             for node in ast.walk(value))
        known.add(target)
        values.append((target, ast.unparse(value)))

    def evaluation(component):  # text j into component[j]
        lines = []
        for target, value in values:
            lines.append(f"{component[target] if isinstance(target, int) else target} = {value}")
            if guard is not None and target == guard[0]:
                lines.append(f"if not {bound['guard']}({target}, {out}): return False")
        return lines

    if not step:
        lines = evaluation([f"{out}[..., {j}]" for j in range(d)])
        params = [out] + (variables or ["*_"])
    else:
        h, x = bound["h"], [bound[f"x{j}"] for j in range(d)]
        k = {s: [bound[f"k{s}_{j}"] for j in range(d)] for s in range(1, 5)}
        lines = [f"{x[j]} = {v}" for j, v in enumerate(variables)] + evaluation(k[1])
        for s, scale in ((2, f"0.5 * {h}"), (3, f"0.5 * {h}"), (4, h)) if reads else ():
            lines += [f"{v} = {x[j]} + {scale} * {k[s - 1][j]}" for j, v in enumerate(variables)]
            lines += evaluation(k[s])
        if not reads:
            k[2] = k[3] = k[4] = k[1]
        lines += [f"{out}[..., {j}] = {x[j]} + {h} / 6.0 * "
                  f"({k[1][j]} + 2 * {k[2][j]} + 2 * {k[3][j]} + {k[4][j]})" for j in range(d)]
        params = [out, h] + variables
    env = {bound[name]: func for name, func in _FUNCS.items()}
    env.update(_CONSTS)
    env[bound["pow"]] = np.power
    env[bound["guard"]] = guard and guard[1]
    env["__builtins__"] = {}
    exec(compile("\n    ".join([f"def fill({', '.join(params)}):", *lines, "return True"]),
                 "<expr>", "exec"), env)
    return env["fill"], not reads


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
    guard are those of _compile: a call whose guard fails returns None.

    With one text per variable, the call carries step(coords, h), one
    classical RK4 step of the fill from coords by h (a float, or a column
    (N, 1) of per-row steps) in one generated function, rk4_step's four
    stages bit for bit. It is taken at a point (d,), which computes on
    scalars, and at rows (N, d) of a constant fill, evaluated once; on rows
    of a fill that reads its coordinates it saves nothing over the four
    stages. It gives None where it is not taken and where the guard fails
    at some stage."""
    texts, variables = list(texts), list(variables)
    fill, constant = _compile(texts, variables, lets, guard)
    stepper = []  # the generated step, compiled the first time it is taken

    def call(coords):
        X = np.asarray(coords, dtype=float)
        out = np.empty(X.shape[:-1] + (len(texts),))
        return out if fill(out, *X.T) else None

    def step(coords, h):  # coords an array, as rk4_step's are
        if (coords.ndim != 1 and not constant) or coords.shape[-1] != len(texts):
            return None
        X = np.asarray(coords, dtype=float)
        if not stepper:
            stepper.append(_compile(texts, variables, lets, guard, step=True)[0])
        out = np.empty(X.shape)
        if isinstance(h, np.ndarray):
            h = h.reshape(X.shape[:-1])
        return out if stepper[0](out, h, *X.T) else None

    if texts and len(texts) == len(variables):
        call.step = step
    return call
