"""Chart-based numerics for smooth manifolds.

A manifold is a finite atlas of open boxes together with a normalization
map that folds raw chart coordinates onto a canonical representative.
Quotient gluings (periodic wrap, wrap-with-flip) live entirely inside the
normalization map, which makes point equality and grid hashing decidable.

Batched work uses rows: coordinates of shape (N, d), one point per row.
Atlases, smooth maps and vector fields are stated on coordinates (..., d):
a point (d,) is the one-row case, and each row of a stack evaluates, bit
for bit, as that row alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, OutOfAtlas
from .expressions import compile_vector

FD_STEP = 1e-6

# type of raw chart representations: (chart_id, coordinate array)
Raw = tuple[str, np.ndarray]


@dataclass(frozen=True)
class Chart:
    chart_id: str
    box: np.ndarray  # shape (dim, 2): per-axis (lo, hi)
    wrap: tuple[bool, ...]  # periodic axes (canonical range [lo, hi))

    @property
    def dim(self) -> int:
        return self.box.shape[0]

    def widths(self) -> np.ndarray:
        return self.box[:, 1] - self.box[:, 0]

    @cached_property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) with lo < x < hi exactly on the chart: lo <= x on a wrapped
        axis is nextafter(lo, -inf) < x."""
        lo = self.box[:, 0]
        return np.where(self.wrap, np.nextafter(lo, -np.inf), lo), self.box[:, 1]

    def contains_rows(self, X: np.ndarray) -> np.ndarray:
        """Whether each row of X (N, dim) is in the chart: the strict interior
        of open axes, [lo, hi) on wrapped ones."""
        lo, hi = self.bounds
        return ((lo < X) & (X < hi)).all(axis=1)


@dataclass(frozen=True)
class Point:
    chart_id: str
    coords: np.ndarray

    def __repr__(self):
        vals = ", ".join(f"{c:.6g}" for c in self.coords)
        return f"Point({self.chart_id}; {vals})"


class Points(NamedTuple):
    """Rows of points: an index into atlas.charts per row (-1 for a row
    outside the atlas) and the coordinates, shape (N, dim)."""

    charts: np.ndarray
    coords: np.ndarray


@dataclass(frozen=True)
class Atlas:
    """Finite chart atlas with explicit normalization, stated on rows.

    normalize_rows maps raw rows (N, dim) of one chart to their canonical
    (chart indices, coords) as in Points, chart index -1 for a row outside
    the atlas; jacobian_rows gives the (N, dim, dim) Jacobians of that map,
    which must be locally constant in the raw coords (every gluing here is
    affine: wraps, flips, identity boxes), and metric_fn, when given, the
    (N, dim, dim) metric at canonical rows. The point forms below are their
    one-row case. aliases returns non-canonical raw representations of a
    canonical point (used for overlap-compatibility checks). shared_coords
    marks charts that are boxes of one coordinate system, as in a union, so
    that points of different charts compare directly.
    """

    dim: int
    charts: tuple[Chart, ...]
    normalize_rows: Callable[[str, np.ndarray], tuple]
    jacobian_rows: Callable[[str, np.ndarray], np.ndarray]
    metric_fn: Optional[Callable[[str, np.ndarray], np.ndarray]] = None
    aliases_fn: Optional[Callable[[str, np.ndarray], list[Raw]]] = None
    coord_names: tuple[str, ...] = ()
    name: str = ""
    shared_coords: bool = False

    def chart_index(self, chart_id: str) -> int:
        for i, c in enumerate(self.charts):
            if c.chart_id == chart_id:
                return i
        raise KeyError(chart_id)

    def stack(self, points: Sequence[Point]) -> Points:
        """The canonical points as rows."""
        return Points(np.array([self.chart_index(p.chart_id) for p in points], dtype=int),
                      np.array([p.coords for p in points], dtype=float).reshape(-1, self.dim))

    def normalize(self, chart_id: str, coords) -> Point:
        """The canonical point of raw coords, which it shares no memory with."""
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (self.dim,):
            raise DimensionMismatch(
                f"expected {self.dim} coordinates, got shape {coords.shape}"
            )
        charts, X = self.normalize_rows(chart_id, coords[None])
        if charts[0] < 0:
            # a list of floats: numpy's array printing costs several normalizations
            raise OutOfAtlas(f"({chart_id}, {coords.tolist()}) has no chart in atlas {self.name!r}")
        return Point(self.charts[charts[0]].chart_id, X[0].copy())

    def transition_jacobian(self, chart_id: str, coords) -> np.ndarray:
        return self.jacobian_rows(chart_id, np.asarray(coords, dtype=float)[None])[0]

    def metric_at(self, chart_id: str, coords) -> np.ndarray:
        """The metric at coords (dim,) or at rows (N, dim); the identity
        without a metric_fn."""
        coords = np.asarray(coords, float)
        if self.metric_fn is None:
            return np.broadcast_to(np.eye(self.dim), coords.shape + (self.dim,))
        G = self.metric_fn(chart_id, coords.reshape(-1, self.dim))
        return np.asarray(G, dtype=float).reshape(coords.shape + (self.dim,))

    def aliases(self, p: Point) -> list[Raw]:
        if self.aliases_fn is None:
            return []
        return self.aliases_fn(p.chart_id, p.coords)

    def sample(self, rng: np.random.Generator, n: int, margin: float = 0.02) -> list[Point]:
        """Uniform canonical points, charts weighted by box volume.

        Each round draws the chart and coordinates of every missing point, one
        candidate after another as if alone, and normalizes them per chart as
        rows; candidates outside the atlas are dropped."""
        vols = np.array([float(np.prod(c.widths())) for c in self.charts])
        probs = vols / vols.sum()
        pts = []
        while len(pts) < n:
            picks, draws = [], []
            for _ in range(n - len(pts)):
                picks.append(rng.choice(len(self.charts), p=probs))
                c = self.charts[picks[-1]]
                draws.append(rng.uniform(c.box[:, 0] + margin * c.widths(),
                                         c.box[:, 1] - margin * c.widths()))
            picks, draws = np.array(picks), np.array(draws)
            charts = np.full(len(picks), -1)
            for c in distinct(picks):
                charts[picks == c], draws[picks == c] = self.normalize_rows(
                    self.charts[c].chart_id, draws[picks == c])
            pts += [Point(self.charts[c].chart_id, x) for c, x in zip(charts, draws) if c >= 0]
        return pts

    def distance(self, p: Point, q: Point) -> float:
        """Coordinate distance, minimized over the raw representations of q
        in p's chart, or over all of them when the charts share coordinates."""
        reps = [(q.chart_id, q.coords)] + self.aliases(q)
        best = np.inf
        for cid, coords in reps:
            if cid == p.chart_id or self.shared_coords:
                best = min(best, float(np.linalg.norm(p.coords - np.asarray(coords))))
        return best


# ---------------------------------------------------------------------------
# atlas builders


def box_atlas(box, coord_names=None, metric_fn=None, name="box") -> Atlas:
    """Single open box chart, identity normalization."""
    box = np.asarray(box, dtype=float)
    dim = box.shape[0]
    chart = Chart("c0", box, (False,) * dim)

    def norm_rows(cid, X):
        inside = chart.contains_rows(X) if cid == "c0" else np.zeros(len(X), bool)
        return np.where(inside, 0, -1), X

    return Atlas(
        dim=dim,
        charts=(chart,),
        metric_fn=metric_fn,
        coord_names=tuple(coord_names) if coord_names else _default_names(dim),
        name=name,
        normalize_rows=norm_rows,
        jacobian_rows=_identity_rows(dim),
    )


def interval_atlas(lo: float, hi: float, coord_name="x", name="interval") -> Atlas:
    return box_atlas([[lo, hi]], coord_names=[coord_name], name=name)


def circle_atlas(period: float = 2 * np.pi, coord_name="theta", name="circle") -> Atlas:
    return torus_atlas((period,), (coord_name,), name=name)


def torus_atlas(periods=(2 * np.pi, 2 * np.pi), coord_names=("theta", "phi"), name="torus") -> Atlas:
    periods = np.asarray(periods, dtype=float)
    dim = len(periods)
    chart = Chart("c0", np.stack([np.zeros(dim), periods], axis=1), (True,) * dim)

    def aliases(cid, coords):
        out = []
        for i in range(dim):
            shift = np.zeros(dim)
            shift[i] = periods[i]
            out.append(("c0", coords + shift))
            out.append(("c0", coords - shift))
        return out

    return Atlas(
        dim=dim,
        charts=(chart,),
        aliases_fn=aliases,
        coord_names=tuple(coord_names),
        name=name,
        normalize_rows=lambda cid, X: (np.zeros(len(X), int), _wrap(X, periods)),
        jacobian_rows=_identity_rows(dim),
    )


def mobius_atlas(name="mobius") -> Atlas:
    """Mobius band as [0,1) x (0,1) with the gluing (0,y) ~ (1,1-y).

    Wrapping x by one unit flips y; the transition Jacobian is diag(1, -1)
    for odd wrap counts and the identity otherwise.
    """
    chart = Chart("c0", np.array([[0.0, 1.0], [0.0, 1.0]]), (True, False))

    def turns(x):  # k = floor(x) and x - k, one more turn where x - k rounds to 1
        k = np.floor(x)
        up = x - k >= 1.0
        return k + up, np.where(up, 0.0, x - k)

    def norm_rows(cid, X):
        k, x = turns(X[:, 0])
        y = np.where(np.mod(k, 2.0) != 0, 1.0 - X[:, 1], X[:, 1])
        inside = (0.0 < y) & (y < 1.0)
        return np.where(inside, 0, -1), np.stack([x, y], axis=1)

    def jac_rows(cid, X):
        out = np.zeros((len(X), 2, 2))
        out[:, 0, 0] = 1.0
        out[:, 1, 1] = np.where(np.mod(turns(X[:, 0])[0], 2.0) != 0, -1.0, 1.0)
        return out

    def aliases(cid, coords):
        x, y = coords
        return [("c0", np.array([x + 1.0, 1.0 - y])), ("c0", np.array([x - 1.0, 1.0 - y]))]

    return Atlas(
        dim=2,
        charts=(chart,),
        aliases_fn=aliases,
        coord_names=("x", "y"),
        name=name,
        normalize_rows=norm_rows,
        jacobian_rows=jac_rows,
    )


def union_atlas(charts: dict[str, Sequence], coord_names=None, name="union") -> Atlas:
    """Union of open boxes sharing one global coordinate system.

    The canonical chart of a point is the first declared chart whose box
    strictly contains it; transitions between overlapping boxes are the
    identity.
    """
    items = tuple(
        Chart(cid, np.asarray(box, dtype=float), (False,) * len(box))
        for cid, box in charts.items()
    )
    dim = items[0].dim
    lo, hi = map(np.stack, zip(*(c.bounds for c in items)))

    def inside(X):  # (N, charts): whether each row is in each chart
        return ((lo < X[:, None]) & (X[:, None] < hi)).all(axis=2)

    def norm_rows(cid, X):
        within = inside(X)
        return np.where(within.any(axis=1), within.argmax(axis=1), -1), X

    def aliases(cid, coords):
        return [(chart.chart_id, coords)
                for chart, within in zip(items, inside(coords[None])[0])
                if within and chart.chart_id != cid]

    return Atlas(
        dim=dim,
        charts=items,
        aliases_fn=aliases,
        coord_names=tuple(coord_names) if coord_names else _default_names(dim),
        name=name,
        normalize_rows=norm_rows,
        jacobian_rows=_identity_rows(dim),
        shared_coords=True,
    )


def distinct(a: np.ndarray) -> list:
    """The distinct values of a nonnegative int array, ascending.

    np.unique would do, but it imports numpy.ma, about 1.5 MiB of memory.
    """
    return np.bincount(a).nonzero()[0].tolist()


def scan_max(r) -> float:
    """The largest of r, 0.0 for none; nan never wins, as in a scan of
    worst = max(worst, r_i) from 0.0."""
    return float(np.fmax.reduce(np.ravel(r), initial=0.0))


def _wrap(x, period):
    """x mod period in [0, period), where a tiny negative x rounds up to period."""
    r = np.mod(x, period)
    return np.where(r >= period, r - period, r)


def _identity_rows(dim: int):
    return lambda cid, X, eye=np.eye(dim)[None]: eye.repeat(len(X), axis=0)


def _default_names(dim: int) -> tuple[str, ...]:
    if dim <= 3:
        return ("x", "y", "z")[:dim]
    return tuple(f"x{i}" for i in range(dim))


# ---------------------------------------------------------------------------
# smooth maps and vector fields


def finite_difference_jacobian(func, coords: np.ndarray, out_dim: int) -> np.ndarray:
    """Central finite differences with step scaled by coordinate magnitude.

    coords (n,) gives (out_dim, n); rows (N, n) give (N, out_dim, n) when
    func maps rows to rows.
    """
    n = coords.shape[-1]
    J = np.empty(coords.shape[:-1] + (out_dim, n))
    for j in range(n):
        h = FD_STEP * np.maximum(1.0, np.abs(coords[..., j]))
        up = coords.copy()
        dn = coords.copy()
        up[..., j] += h
        dn[..., j] -= h
        J[..., j] = (func(up) - func(dn)) / (2 * h)[..., None]
    return J


def _checked(out, shape: tuple, what: str, *args) -> np.ndarray:
    """out as floats; DimensionMismatch naming what % args unless it has the shape."""
    out = np.asarray(out, dtype=float)
    if out.shape != shape:
        raise DimensionMismatch(f"{what % args} gave shape {out.shape} where {shape} was due: "
                                f"it must take coordinates (..., d), a point or rows")
    return out


@dataclass(frozen=True)
class SmoothMap:
    """Chart-wise smooth map between atlases.

    raw maps (chart_id, coords) to a raw target representation and must be
    continuous in coords on the chart's extended domain; value() normalizes
    the output. raw_jacobian, when given, is the analytic Jacobian of raw.
    Both take coords (..., n), a point or rows: raw returns one raw target
    chart id per call and coords (..., m), raw_jacobian (..., m, n). exprs,
    when given, are raw's components as expressions over
    source.coord_names, and jacobian_exprs raw_jacobian's rows, None when
    it has none (expression_map); metric lifts and kernel frames fill from
    them, so a map that replaces raw or raw_jacobian replaces them too.
    """

    source: Atlas
    target: Atlas
    raw: Callable[[str, np.ndarray], Raw]
    raw_jacobian: Optional[Callable[[str, np.ndarray], np.ndarray]] = None
    name: str = ""
    exprs: Optional[tuple[str, ...]] = None
    jacobian_exprs: Optional[tuple[tuple[str, ...], ...]] = None

    @property
    def analytic(self) -> bool:
        return self.raw_jacobian is not None

    def value(self, p: Point) -> Point:
        cid, coords = self.raw(p.chart_id, p.coords)
        return self.target.normalize(cid, coords)

    def values(self, rows: Points) -> Points:
        """value() at each canonical row; raises OutOfAtlas as value() does."""
        charts = np.empty(len(rows.coords), dtype=int)
        out = np.empty((len(rows.coords), self.target.dim))
        for idx, _, tcid, Y in self._raw_rows(rows):
            charts[idx], out[idx] = self.target.normalize_rows(tcid, Y)
        if np.any(charts < 0):
            raise OutOfAtlas(f"{int(np.sum(charts < 0))} images have no chart "
                             f"in atlas {self.target.name!r}")
        return Points(charts, out)

    def _raw_rows(self, rows: Points):
        """raw over rows: (row indices, source chart id, raw target chart id,
        raw target rows) for each source chart present."""
        for c in distinct(rows.charts):
            idx = np.flatnonzero(rows.charts == c)
            cid = self.source.charts[c].chart_id
            tcid, Y = self.raw(cid, rows.coords[idx])
            yield idx, cid, tcid, _checked(Y, (len(idx), self.target.dim), "map %r", self.name)

    def raw_jac_at(self, chart_id: str, coords: np.ndarray) -> np.ndarray:
        if self.raw_jacobian is None:
            return finite_difference_jacobian(
                lambda c: np.asarray(self.raw(chart_id, c)[1], float), coords, self.target.dim)
        return _checked(self.raw_jacobian(chart_id, coords),
                        np.shape(coords)[:-1] + (self.target.dim, self.source.dim),
                        "raw_jacobian of map %r", self.name)

    def jacobian(self, p: Point) -> np.ndarray:
        """dPhi in canonical chart frames (normalization correction included)."""
        return self.jacobians(self.source.stack([p]))[0]

    def jacobians(self, rows: Points) -> np.ndarray:
        """jacobian() at each canonical row: (N, m, n)."""
        out = np.empty((len(rows.coords), self.target.dim, self.source.dim))
        for idx, cid, tcid, Y in self._raw_rows(rows):
            out[idx] = self.target.jacobian_rows(tcid, Y) @ self.raw_jac_at(
                cid, rows.coords[idx])
        return out


def expression_tensor(entries: Sequence[str], names, shape: tuple):
    """func(cid, coords) giving, at coords (..., n), the entries over names,
    row-major, as an array (..., *shape): one generated fill in every chart."""
    value = compile_vector(entries, names)
    return lambda cid, coords: value(coords).reshape(np.shape(coords)[:-1] + shape)


def expression_map(source: Atlas, target: Atlas, exprs: Sequence[str],
                   jacobian: Optional[Sequence[Sequence[str]]] = None, name="") -> SmoothMap:
    """The map whose component i is exprs[i] over source.coord_names, into
    target's first chart, in every chart: one generated fill. jacobian, when
    given, is its Jacobian, target.dim rows of source.dim expressions."""
    value = compile_vector(exprs, source.coord_names)
    tcid = target.charts[0].chart_id
    rows = None if jacobian is None else tuple(map(tuple, jacobian))
    return SmoothMap(
        source, target, raw=lambda cid, coords: (tcid, value(coords)),
        raw_jacobian=None if rows is None else expression_tensor(
            [e for row in rows for e in row], source.coord_names, (target.dim, source.dim)),
        name=name, exprs=tuple(exprs), jacobian_exprs=rows)


def differential_rank(f: SmoothMap, rows: Points) -> np.ndarray:
    """Numerical rank of dPhi at each canonical row, with threshold 1e-8
    times the top singular value; 0 where dPhi is 0 or not finite."""
    J = f.jacobians(rows)
    s = np.linalg.svd(np.where(np.isfinite(J).all(axis=(1, 2), keepdims=True), J, 0.0),
                      compute_uv=False)
    return np.sum(s > 1e-8 * s[:, :1], axis=1)


@dataclass(frozen=True)
class VectorField:
    """Chart-wise vector field; func must accept raw (extended-domain) coords.

    func maps coords (..., d), a point or rows, to vectors of the same shape,
    each row equal, bit for bit, to its value at that row alone. exprs, when
    given, are the components as expressions over atlas.coord_names, and func
    is their one generated fill (expression_field).
    """

    atlas: Atlas
    func: Callable[[str, np.ndarray], np.ndarray]
    name: str = ""
    exprs: Optional[tuple[str, ...]] = None

    def values(self, chart_id: str, X) -> np.ndarray:
        """The field at coords (d,) or at rows (N, d); DimensionMismatch when
        func gives another shape."""
        X = np.asarray(X, dtype=float)
        return _checked(self.func(chart_id, X), X.shape, "field %r", self.name)

    def at(self, p: Point) -> np.ndarray:
        return self.values(p.chart_id, p.coords)

    def at_rows(self, rows: Points, of: Optional[Atlas] = None) -> np.ndarray:
        """The field at each canonical row of rows, one call per chart; rows
        index the charts of atlas of, this field's atlas by default."""
        charts = (of or self.atlas).charts
        out = np.empty(rows.coords.shape)
        for c in distinct(rows.charts):
            sel = rows.charts == c
            out[sel] = self.values(charts[c].chart_id, rows.coords[sel])
        return out


def expression_field(atlas: Atlas, exprs: Sequence[str], name="") -> VectorField:
    """The field whose component j is exprs[j] over atlas.coord_names, in
    every chart: one generated fill, whose func carries its RK4 step."""
    value = compile_vector(exprs, atlas.coord_names)

    def func(cid, coords):
        return value(coords)

    func.step = getattr(value, "step", None)  # a wrapped fill has none
    return VectorField(atlas, func, name=name, exprs=tuple(exprs))


def combine_fields(fields: Sequence[VectorField], coeffs, name="") -> VectorField:
    """Pointwise linear combination sum_i coeffs[i] * fields[i], summed from
    zeros in order, skipping zero coefficients. When every field has exprs
    over one atlas's names and every coefficient is finite, it is one
    generated fill of 0.0 + (c_i) * (expr_i) + ..., which sums the same way
    and so gives the same bits, signed zeros included."""
    coeffs = np.asarray(coeffs, dtype=float)
    atlas = fields[0].atlas
    if np.isfinite(coeffs).all() and all(
            f.exprs is not None and f.atlas.coord_names == atlas.coord_names for f in fields):
        terms = [(repr(float(c)), f.exprs) for c, f in zip(coeffs, fields) if c != 0.0]
        return expression_field(atlas, [
            " + ".join(["0.0"] + [f"({c}) * ({exprs[i]})" for c, exprs in terms])
            for i in range(atlas.dim)], name=name)

    def func(cid, coords):
        out = np.zeros(np.shape(coords))
        for c, f in zip(coeffs, fields):
            if c != 0.0:
                out = out + c * f.values(cid, coords)
        return out

    return VectorField(atlas, func, name=name)


def overlap_residual(field: VectorField, points: Sequence[Point]) -> float:
    """Worst overlap-compatibility defect of a field at the given points.

    For each alias raw representation r of a point p, the transition
    Jacobian at r must carry field(r) onto field(p).
    """
    atlas = field.atlas
    worst = 0.0
    for p in points:
        ref = field.at(p)
        for cid, coords in atlas.aliases(p):
            coords = np.asarray(coords, float)
            J = atlas.transition_jacobian(cid, coords)
            got = J @ field.values(cid, coords)
            worst = max(worst, float(np.max(np.abs(got - ref))))
    return worst
