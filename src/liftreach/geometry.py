"""Chart-based numerics for smooth manifolds.

A manifold is a finite atlas of open boxes together with a normalization
map that folds raw chart coordinates onto a canonical representative.
Quotient gluings (periodic wrap, wrap-with-flip) live entirely inside the
normalization map, which makes point equality and grid hashing decidable.

Batched work uses rows: coordinates of shape (N, d), one point per row.
Every atlas normalizes rows in one pass, and vector fields
flagged `batched` evaluate rows in one call; both agree bit for bit with
their pointwise forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, OutOfAtlas

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

    def contains(self, coords: np.ndarray) -> bool:
        """Strict interior for open axes, half-open [lo, hi) for wrapped ones."""
        for i, (lo, hi) in enumerate(self.box):
            c = coords[i]
            if self.wrap[i]:
                if not (lo <= c < hi):
                    return False
            else:
                if not (lo < c < hi):
                    return False
        return True

    def contains_rows(self, X: np.ndarray) -> np.ndarray:
        """contains() for each row of X (N, dim)."""
        lo, hi = self.box[:, 0], self.box[:, 1]
        above = np.where(self.wrap, lo <= X, lo < X)
        return np.all(above & (X < hi), axis=1)


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
class Tangent:
    base: Point
    components: np.ndarray


@dataclass(frozen=True)
class Atlas:
    """Finite chart atlas with explicit normalization.

    normalize_raw returns the canonical (chart_id, coords) for a raw
    representation, or None when the raw point is outside the atlas.
    normalize_jacobian is the Jacobian of that map at the raw point.
    aliases returns non-canonical raw representations of a canonical point
    (used for overlap-compatibility checks). normalize_rows and
    jacobian_rows are the first two maps over rows (N, dim) of one raw
    chart: normalize_rows returns (chart indices, coords) as in Points,
    jacobian_rows the (N, dim, dim) Jacobians. shared_coords marks charts
    that are boxes of one coordinate system, as in a union, so that points
    of different charts compare directly.
    """

    dim: int
    charts: tuple[Chart, ...]
    normalize_raw: Callable[[str, np.ndarray], Optional[Raw]]
    normalize_jacobian: Callable[[str, np.ndarray], np.ndarray]
    normalize_rows: Callable[[str, np.ndarray], tuple]
    jacobian_rows: Callable[[str, np.ndarray], np.ndarray]
    metric_fn: Optional[Callable[[str, np.ndarray], np.ndarray]] = None
    aliases_fn: Optional[Callable[[str, np.ndarray], list[Raw]]] = None
    coord_names: tuple[str, ...] = ()
    name: str = ""
    shared_coords: bool = False

    def chart(self, chart_id: str) -> Chart:
        for c in self.charts:
            if c.chart_id == chart_id:
                return c
        raise KeyError(chart_id)

    def chart_index(self, chart_id: str) -> int:
        for i, c in enumerate(self.charts):
            if c.chart_id == chart_id:
                return i
        raise KeyError(chart_id)

    def stack(self, points: Sequence[Point]) -> Points:
        """The canonical points as rows."""
        return Points(np.array([self.chart_index(p.chart_id) for p in points], dtype=int),
                      np.array([p.coords for p in points], dtype=float).reshape(-1, self.dim))

    def normalize_many(self, chart_id: str, X) -> Points:
        """Canonical rows for raw rows X (N, dim) of one chart; rows outside
        the atlas get chart index -1."""
        return Points(*self.normalize_rows(chart_id, np.asarray(X, dtype=float)))

    def transition_jacobians(self, chart_id: str, X) -> np.ndarray:
        """transition_jacobian for each row of X (N, dim)."""
        return self.jacobian_rows(chart_id, np.asarray(X, dtype=float))

    def normalize(self, chart_id: str, coords) -> Point:
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (self.dim,):
            raise DimensionMismatch(
                f"expected {self.dim} coordinates, got shape {coords.shape}"
            )
        out = self.normalize_raw(chart_id, coords)
        if out is None:
            raise OutOfAtlas(f"({chart_id}, {coords}) has no chart in atlas {self.name!r}")
        cid, c = out
        return Point(cid, np.array(c, dtype=float))

    def normalize_point(self, p: Point) -> Point:
        return self.normalize(p.chart_id, p.coords)

    def transition_jacobian(self, chart_id: str, coords) -> np.ndarray:
        return np.asarray(self.normalize_jacobian(chart_id, np.asarray(coords, float)))

    def metric_at(self, chart_id: str, coords) -> np.ndarray:
        if self.metric_fn is None:
            return np.eye(self.dim)
        return np.asarray(self.metric_fn(chart_id, np.asarray(coords, float)), dtype=float)

    def aliases(self, p: Point) -> list[Raw]:
        if self.aliases_fn is None:
            return []
        return self.aliases_fn(p.chart_id, p.coords)

    def sample(self, rng: np.random.Generator, n: int, margin: float = 0.02) -> list[Point]:
        """Uniform canonical points, charts weighted by box volume."""
        vols = np.array([float(np.prod(c.widths())) for c in self.charts])
        probs = vols / vols.sum()
        pts = []
        while len(pts) < n:
            chart = self.charts[rng.choice(len(self.charts), p=probs)]
            lo = chart.box[:, 0] + margin * chart.widths()
            hi = chart.box[:, 1] - margin * chart.widths()
            coords = rng.uniform(lo, hi)
            try:
                pts.append(self.normalize(chart.chart_id, coords))
            except OutOfAtlas:
                continue
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

    def norm(cid, coords):
        if cid != "c0" or not chart.contains(coords):
            return None
        return ("c0", coords)

    def norm_rows(cid, X):
        inside = chart.contains_rows(X) if cid == "c0" else np.zeros(len(X), bool)
        return np.where(inside, 0, -1), X

    return Atlas(
        dim=dim,
        charts=(chart,),
        normalize_raw=norm,
        normalize_jacobian=lambda cid, coords: np.eye(dim),
        metric_fn=metric_fn,
        coord_names=tuple(coord_names) if coord_names else _default_names(dim),
        name=name,
        normalize_rows=norm_rows,
        jacobian_rows=_identity_rows(dim),
    )


def interval_atlas(lo: float, hi: float, coord_name="x", name="interval") -> Atlas:
    return box_atlas([[lo, hi]], coord_names=[coord_name], name=name)


def circle_atlas(period: float = 2 * np.pi, coord_name="theta", name="circle") -> Atlas:
    chart = Chart("c0", np.array([[0.0, period]]), (True,))

    def norm(cid, coords):
        return ("c0", _wrap(coords[:1], period))

    def aliases(cid, coords):
        return [("c0", coords + period), ("c0", coords - period)]

    return Atlas(
        dim=1,
        charts=(chart,),
        normalize_raw=norm,
        normalize_jacobian=lambda cid, coords: np.eye(1),
        aliases_fn=aliases,
        coord_names=(coord_name,),
        name=name,
        normalize_rows=lambda cid, X: (np.zeros(len(X), int), _wrap(X, period)),
        jacobian_rows=_identity_rows(1),
    )


def torus_atlas(periods=(2 * np.pi, 2 * np.pi), coord_names=("theta", "phi"), name="torus") -> Atlas:
    periods = np.asarray(periods, dtype=float)
    dim = len(periods)
    chart = Chart("c0", np.stack([np.zeros(dim), periods], axis=1), (True,) * dim)

    def norm(cid, coords):
        return ("c0", _wrap(coords, periods))

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
        normalize_raw=norm,
        normalize_jacobian=lambda cid, coords: np.eye(dim),
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

    def norm(cid, coords):
        k, x = turns(coords[0])
        y = 1.0 - coords[1] if k % 2 != 0 else coords[1]
        if not (0.0 < y < 1.0):
            return None
        return ("c0", np.array([x, y]))

    def jac(cid, coords):
        return np.diag([1.0, -1.0 if turns(coords[0])[0] % 2 != 0 else 1.0])

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
        normalize_raw=norm,
        normalize_jacobian=jac,
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

    def norm(cid, coords):
        for chart in items:
            if chart.contains(coords):
                return (chart.chart_id, coords)
        return None

    def norm_rows(cid, X):
        charts = np.full(len(X), -1)
        for i in reversed(range(len(items))):  # the first containing chart wins
            charts[items[i].contains_rows(X)] = i
        return charts, X

    def aliases(cid, coords):
        return [
            (chart.chart_id, coords)
            for chart in items
            if chart.chart_id != cid and chart.contains(coords)
        ]

    return Atlas(
        dim=dim,
        charts=items,
        normalize_raw=norm,
        normalize_jacobian=lambda cid, coords: np.eye(dim),
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


def _wrap(x, period):
    """x mod period in [0, period), where a tiny negative x rounds up to period."""
    r = np.mod(x, period)
    return np.where(r >= period, r - period, r)


def _identity_rows(dim: int):
    return lambda cid, X: np.broadcast_to(np.eye(dim), (len(X), dim, dim))


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


@dataclass(frozen=True)
class SmoothMap:
    """Chart-wise smooth map between atlases.

    raw maps (chart_id, coords) to a raw target representation and must be
    continuous in coords on the chart's extended domain; value() normalizes
    the output. raw_jacobian, when given, is the analytic Jacobian of raw.
    batched marks a map whose raw and raw_jacobian also take rows (N, n):
    raw then returns one raw chart id and rows (N, m), raw_jacobian
    (N, m, n).
    """

    source: Atlas
    target: Atlas
    raw: Callable[[str, np.ndarray], Raw]
    raw_jacobian: Optional[Callable[[str, np.ndarray], np.ndarray]] = None
    name: str = ""
    batched: bool = False

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
            charts[idx], out[idx] = self.target.normalize_many(tcid, Y)
        if np.any(charts < 0):
            raise OutOfAtlas(f"{int(np.sum(charts < 0))} images have no chart "
                             f"in atlas {self.target.name!r}")
        return Points(charts, out)

    def _raw_rows(self, rows: Points):
        """raw over rows: (row indices, source chart id, raw target chart id,
        raw target rows) for each source chart and raw target chart present.
        A map that is not batched is called row by row."""
        for c in distinct(rows.charts):
            idx = np.flatnonzero(rows.charts == c)
            cid = self.source.charts[c].chart_id
            if self.batched:
                tcid, Y = self.raw(cid, rows.coords[idx])
                yield idx, cid, tcid, np.asarray(Y, dtype=float)
                continue
            outs = [self.raw(cid, x) for x in rows.coords[idx]]
            for tcid in dict.fromkeys(t for t, _ in outs):
                k = [i for i, (t, _) in enumerate(outs) if t == tcid]
                yield idx[k], cid, tcid, np.array([outs[i][1] for i in k], dtype=float)

    def raw_jac_at(self, chart_id: str, coords: np.ndarray) -> np.ndarray:
        if self.raw_jacobian is not None:
            return np.asarray(self.raw_jacobian(chart_id, coords), dtype=float)
        return finite_difference_jacobian(
            lambda c: np.asarray(self.raw(chart_id, c)[1], float), coords, self.target.dim
        )

    def jacobian(self, p: Point) -> np.ndarray:
        """dPhi in canonical chart frames (normalization correction included)."""
        cid, out = self.raw(p.chart_id, p.coords)
        J = self.raw_jac_at(p.chart_id, p.coords)
        N = self.target.transition_jacobian(cid, np.asarray(out, float))
        return N @ J

    def jacobians(self, rows: Points) -> np.ndarray:
        """jacobian() at each canonical row: (N, m, n)."""
        out = np.empty((len(rows.coords), self.target.dim, self.source.dim))
        for idx, cid, tcid, Y in self._raw_rows(rows):
            X = rows.coords[idx]
            J = (self.raw_jac_at(cid, X) if self.batched
                 else np.array([self.raw_jac_at(cid, x) for x in X]))
            out[idx] = self.target.transition_jacobians(tcid, Y) @ J
        return out


def identity_map(atlas: Atlas, name="id") -> SmoothMap:
    return SmoothMap(
        source=atlas,
        target=atlas,
        raw=lambda cid, coords: (cid, coords),
        raw_jacobian=lambda cid, coords: np.eye(atlas.dim),
        name=name,
    )


def pushforward(f: SmoothMap, v: Tangent) -> Tangent:
    """Differential of f applied to a tangent vector."""
    if v.components.shape != (f.source.dim,):
        raise DimensionMismatch("tangent components do not match source dimension")
    return Tangent(base=f.value(v.base), components=f.jacobian(v.base) @ v.components)


def differential_rank(f: SmoothMap, p: Point) -> int:
    """Numerical rank of dPhi with threshold 1e-8 times the top singular value."""
    s = np.linalg.svd(f.jacobian(p), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > 1e-8 * s[0]))


@dataclass(frozen=True)
class VectorField:
    """Chart-wise vector field; func must accept raw (extended-domain) coords.

    batched marks an array-native func: it maps rows (N, d) to (N, d) with
    each row equal, bit for bit, to its value at that row alone. values()
    evaluates any field on rows, calling a pointwise func row by row.
    """

    atlas: Atlas
    func: Callable[[str, np.ndarray], np.ndarray]
    name: str = ""
    batched: bool = False

    def values(self, chart_id: str, X) -> np.ndarray:
        """The field at coords (d,) or at rows (N, d)."""
        X = np.asarray(X, dtype=float)
        if self.batched or X.ndim == 1:
            return np.asarray(self.func(chart_id, X), dtype=float)
        return np.array([self.func(chart_id, x) for x in X], dtype=float).reshape(X.shape)

    def at(self, p: Point) -> np.ndarray:
        return np.asarray(self.func(p.chart_id, p.coords), dtype=float)

    def at_rows(self, rows: Points) -> np.ndarray:
        """The field at each canonical row of rows, one call per chart."""
        out = np.empty(rows.coords.shape)
        for c in distinct(rows.charts):
            sel = rows.charts == c
            out[sel] = self.values(self.atlas.charts[c].chart_id, rows.coords[sel])
        return out

    def tangent(self, p: Point) -> Tangent:
        return Tangent(base=p, components=self.at(p))


@dataclass(frozen=True, eq=False)
class Member:
    """The func of one field of a family whose fields evaluate together.

    family(chart_id, coords, members, rows) is members[j] at the index array
    rows[j] of rows coords (N, d), each row equal, bit for bit, to that
    field alone at that row; without rows it is members[0] at a point or at
    every row. This func is family(..., (member,)); step_rows steps the
    rows of one chart under members of one family as one array.
    """

    family: Callable
    member: object

    def __call__(self, chart_id: str, coords):
        return self.family(chart_id, coords, (self.member,))


def combine_fields(fields: Sequence[VectorField], coeffs, name="") -> VectorField:
    """Pointwise linear combination sum_i coeffs[i] * fields[i] (array-native)."""
    coeffs = np.asarray(coeffs, dtype=float)
    atlas = fields[0].atlas

    def func(cid, coords):
        out = np.zeros(np.shape(coords))
        for c, f in zip(coeffs, fields):
            if c != 0.0:
                out = out + c * f.values(cid, coords)
        return out

    return VectorField(atlas, func, name=name, batched=True)


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
            got = J @ np.asarray(field.func(cid, coords), float)
            worst = max(worst, float(np.max(np.abs(got - ref))))
    return worst
