"""Trajectory-preserving morphisms: lifts across submersions, kernel frames,
fiber augmentation, global-in-time checks, and the lifting correspondence
for ordinary control systems."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    IndependenceViolated,
    NotAdapted,
    NotInKernel,
    NotSubmersion,
    RankDeficient,
    SingularGram,
    UnmappedControl,
)
from .expressions import compile_vector, substitute
from .geometry import (
    FD_STEP,
    Atlas,
    Point,
    Points,
    SmoothMap,
    VectorField,
    differential_rank,
    overlap_residual,
    scan_max,
)
from .systems import (
    ControlSystem,
    GeneratedSystem,
    RowRequest,
    Schedule,
    drive,
)


@dataclass(frozen=True)
class GramFill:
    """Generated fills over the source coordinates of a map with a 1-D target
    and a source without a metric, its Jacobian row given as expressions. A
    fill's lets are each J_i, then W = 0.0 + J_0 * J_0 + ..., the Gram that
    _right_inverse sums in the same order, and it tests W as _right_inverse
    does before anything divides by it. With steps, the row reads the columns
    H_j = FD_STEP * max(1, |x_j|) of finite_difference_jacobian's steps, which
    fill appends to the coordinates. Local names start with pre, which no
    coordinate name does."""

    names: tuple[str, ...]
    row: tuple[str, ...]
    pre: str
    steps: bool = False

    def J(self, i: int) -> str:
        return f"{self.pre}J{i}"

    def H(self, i: int) -> str:
        return f"{self.pre}H{i}"

    @property
    def W(self) -> str:
        return f"{self.pre}W"

    def fill(self, texts, lets, generic):
        """func(cid, coords) filling texts, which see the J_i, W and then lets,
        on a stack whose W passes grams_pass; generic(cid, coords) on any
        other stack, a stack of no rows included. func carries the fill's
        RK4 step (compile_vector), which a fill with steps has none of: it
        reads more columns than it has texts."""
        J = [(self.J(i), e) for i, e in enumerate(self.row)]
        W = " + ".join(["0.0"] + [f"{j} * {j}" for j, _ in J])
        names, steps = self.names, self.steps
        if steps:
            names += tuple(map(self.H, range(len(names))))
        # W is one float for every row when J is constant: the stack is empty when out is
        value = compile_vector(texts, names, lets=[*J, (self.W, W), *lets],
                               guard=(self.W, lambda w, out: out.size > 0 and grams_pass(w)))

        def func(cid, coords):
            out = value(np.concatenate([coords, FD_STEP * np.maximum(1.0, np.abs(coords))],
                                       axis=-1) if steps else coords)
            return generic(cid, coords) if out is None else out

        func.step = getattr(value, "step", None)  # a wrapped fill has none
        return func


def gram_fill(phi: SmoothMap) -> Optional[GramFill]:
    """The GramFill of phi, whose row is phi.jacobian_exprs[0]; without
    jacobian_exprs, the central differences of phi.exprs[0],
    finite_difference_jacobian's bit for bit. None unless phi has exprs, a
    1-D target and a source without a metric."""
    if phi.exprs is None or phi.target.dim != 1 or phi.source.metric_fn is not None:
        return None
    names = tuple(phi.source.coord_names)
    pre = "_" * (1 + max(map(len, names), default=0))
    if phi.jacobian_exprs is not None:
        return GramFill(names, phi.jacobian_exprs[0], pre)
    fd = GramFill(names, (), pre, steps=True)

    def moved(j, sign):  # every other name maps to itself: a coordinate may be named pi or e
        return substitute(phi.exprs[0], {**{x: x for x in names},
                                         names[j]: f"({names[j]} {sign} {fd.H(j)})"})

    return replace(fd, row=tuple(f"(({moved(j, '+')}) - ({moved(j, '-')})) / (2.0 * {fd.H(j)})"
                                 for j in range(len(names))))


@dataclass(frozen=True)
class Morphism:
    """A submersion together with a linear rule lifting downstairs fields."""

    phi: SmoothMap
    lift_rule: Callable[[VectorField], VectorField]
    kind: str  # metric-right-inverse | horizontal-connection | user-supplied | second-order

    def lift(self, Y: VectorField) -> VectorField:
        return self.lift_rule(Y)


@dataclass(frozen=True)
class KernelFrame:
    """Fields spanning ker(dPhi), either user-supplied global generators or
    the chart-wise metric-projected coordinate frame."""

    morphism: Morphism
    mode: str  # "global" | "chartwise"
    fields: tuple[VectorField, ...]
    rank: int
    global_ok: bool


def _right_inverse(J: np.ndarray, metric, cid, coords):
    """A = G^-1 J^T and the Gram matrix W = J A, stacked over rows.

    J is (m, n) at coords (n,), or (N, m, n) at rows (N, n); a metric,
    when given, is evaluated once, at coords or at all the rows. Raises
    SingularGram naming the first row where W is not numerically positive
    definite: the first row holding nan, else the first whose Cholesky
    diagonal fails the threshold (the first row of the stack when the
    factorization fails outright).
    """
    Jt = np.swapaxes(J, -1, -2)
    if metric is None:
        A = Jt
    else:
        A = np.linalg.solve(np.asarray(metric(cid, coords), dtype=float), Jt)
    if metric is None and J.shape[-2] == 1:
        # a GramFill's 0.0 + J_0 J_0 + ..., summed in order; 0.0 + a square
        # is the square, which is never -0.0
        squares = J * J
        W = squares[..., :1]
        for i in range(1, J.shape[-1]):
            W = W + squares[..., i:i + 1]
    else:
        W = J @ A
    # W is positive definite exactly when dPhi has full rank here
    if W.shape[-1] == 1 and grams_pass(W):
        return A, W
    bad = np.isnan(W).any(axis=(-2, -1))
    if not bad.any():
        try:
            d = np.diagonal(np.linalg.cholesky(W), axis1=-2, axis2=-1)
            lo, hi = d.min(axis=-1), d.max(axis=-1)
        except np.linalg.LinAlgError:
            lo = hi = np.zeros(W.shape[:-2])
        bad = lo <= 1e-6 * np.maximum(hi, 1.0)
    if bad.any():
        at = np.reshape(coords, (-1, np.shape(coords)[-1]))[np.argmax(bad)]
        raise SingularGram(f"J G^-1 J^T is numerically singular at ({cid}, {at})")
    return A, W


def grams_pass(W) -> bool:
    """Whether every value of a 1x1 Gram stack W passes the singularity test
    by two reductions, its Cholesky factor being sqrt(W): W is an array, or
    one float standing for every row of a stack. nan fails, and no value of
    an empty stack passes."""
    if isinstance(W, float):  # numpy's float64 scalars too
        lo = hi = W
    else:
        try:
            lo, hi = np.minimum.reduce(W, axis=None), np.maximum.reduce(W, axis=None)
        except ValueError:  # an empty stack has no minimum
            return False
    return bool(lo > 0 and math.sqrt(lo) > 1e-6 and hi < math.inf)


def _right_inverse_apply(J: np.ndarray, metric, cid, coords, y):
    """G^-1 J^T (J G^-1 J^T)^-1 y at coords (n,) or rows (N, n) with Jacobians J.

    For a 1x1 W, y / W is LAPACK's solve bit for bit (y * (1 / W) is not);
    matmul computes 0 + a b, whose sign of zero the + 0.0 keeps."""
    A, W = _right_inverse(J, metric, cid, coords)
    y = np.asarray(y, dtype=float)
    if W.shape[-1] == 1:
        return A[..., 0] * (y / W[..., 0]) + 0.0
    return (A @ np.linalg.solve(W, y[..., None]))[..., 0]


def check_submersion(phi: SmoothMap, samples: int = 50, seed: int = 0):
    """Raise NotSubmersion at the first sampled point where dPhi drops rank."""
    pts = phi.source.sample(np.random.default_rng(seed), samples)
    ranks = differential_rank(phi, phi.source.stack(pts))
    low = np.flatnonzero(ranks < phi.target.dim)
    if len(low):
        raise NotSubmersion(pts[low[0]], int(ranks[low[0]]), phi.target.dim)


def metric_lift_morphism(phi: SmoothMap, samples: int = 50, seed: int = 0) -> Morphism:
    """Morphism whose lift is the right inverse of dPhi orthogonal in the
    metric of phi's source atlas.

    Through a map with a GramFill (gram_fill), a field with expressions in
    one dimension lifts as one fill, whose column j is J_j (Y o Phi / W) +
    0.0, the generic lift bit for bit; a stack that fails the Gram test, and
    any other field, takes the generic lift."""
    check_submersion(phi, samples=samples, seed=seed)
    metric = None if phi.source.metric_fn is None else phi.source.metric_at
    g = gram_fill(phi)

    def lift_rule(Y: VectorField) -> VectorField:
        def lift(cid, coords):
            tcid, tcoords = phi.raw(cid, coords)
            return _right_inverse_apply(phi.raw_jac_at(cid, coords), metric, cid, coords,
                                        Y.values(tcid, tcoords))

        if g is not None and Y.exprs is not None and Y.atlas.dim == 1:
            y = substitute(Y.exprs[0], {Y.atlas.coord_names[0]: phi.exprs[0]})
            q = f"{g.pre}q"
            lift = g.fill([f"{g.J(j)} * {q} + 0.0" for j in range(len(g.row))],
                          [(q, f"({y}) / {g.W}")], lift)
        return VectorField(phi.source, lift, name=f"lift({Y.name})")

    return Morphism(phi=phi, lift_rule=lift_rule, kind="metric-right-inverse")


def lift_system(target_sys: GeneratedSystem, phi: SmoothMap,
                samples: int = 50, seed: int = 0, morphism: Optional[Morphism] = None):
    """Lift every generator through the metric-orthogonal right inverse.

    morphism, any morphism over phi, is reused when given, so that lifts
    through one map run one check_submersion. Returns (morphism, lifted
    system on the source manifold).
    """
    m = morphism or metric_lift_morphism(phi, samples=samples, seed=seed)
    gens = tuple(m.lift(Y) for Y in target_sys.generators)
    lifted = GeneratedSystem(phi.source, gens, label=f"lift({target_sys.label})")
    return m, lifted


def check_adapted(phi: SmoothMap, samples: int = 30, seed: int = 0):
    """Raise NotAdapted unless phi is the coordinate projection onto the
    first phi.target.dim axes at sampled source points."""
    base_dim = phi.target.dim
    rows = phi.source.stack(phi.source.sample(np.random.default_rng(seed), samples))
    for idx, _, _, Y in phi._raw_rows(rows):
        if np.any(np.max(np.abs(Y - rows.coords[idx, :base_dim]), axis=1) > 1e-9):
            raise NotAdapted(
                f"map is not the coordinate projection onto the first {base_dim} axes"
            )


# ---------------------------------------------------------------------------
# verification


def _in_atlas(atlas: Atlas, rows: Points, of: Atlas) -> Points:
    """rows given in the charts of atlas of, renumbered as the charts of
    atlas with the same chart ids: a target system may list the charts of
    its map's target in another order."""
    if of is atlas:
        return rows
    index = np.array([atlas.chart_index(c.chart_id) for c in of.charts], dtype=int)
    return Points(index[rows.charts], rows.coords)


def verify_trajectory_preserving(m: Morphism, target_sys: GeneratedSystem,
                                 samples: int = 1000, seed: int = 0,
                                 tolerance: Optional[float] = None,
                                 schedules: int = 10, h: float = 1e-3) -> dict:
    """Pointwise Phi-relatedness of the lifts plus schedule-level projection check.

    Residual at x is |dPhi(liftY)(x) - Y(Phi(x))|; trajectories of random
    schedules upstairs must project onto the downstairs integration within
    the integrator's accumulated local error. The residual takes the sample
    points as rows, and every schedule is a row of one integration on each
    side; the report equals that of one point and one schedule at a time.
    """
    up = lift_system(target_sys, m.phi, morphism=m)[1]
    return drive([trajectory_body(m, target_sys, up, samples, seed, tolerance, schedules,
                                  h)])[0]


def trajectory_body(m: Morphism, target_sys: GeneratedSystem, up: GeneratedSystem,
                    samples: int = 1000, seed: int = 0, tolerance: Optional[float] = None,
                    schedules: int = 10, h: float = 1e-3):
    """verify_trajectory_preserving as a body for systems.drive, given up, the
    lift of target_sys through m: it yields the upstairs and downstairs
    RowRequests and returns the report."""
    if tolerance is None:
        tolerance = 1e-9 if m.phi.analytic else 1e-6
    rng = np.random.default_rng(seed)
    pts = m.phi.source.sample(rng, samples)
    rows = m.phi.source.stack(pts)
    worst = 0.0
    worst_point = None
    for Y, X in zip(target_sys.generators, up.generators):
        v = (m.phi.jacobians(rows) @ X.at_rows(rows)[..., None])[..., 0]
        r = np.max(np.abs(v - Y.at_rows(m.phi.values(rows), m.phi.target)), axis=1)
        # the first maximum wins and nan never does, as in a point-by-point scan
        r = np.where(np.isnan(r), -np.inf, r)
        if len(r) and r.max() > worst:
            i = int(np.argmax(r))
            worst, worst_point = float(r[i]), pts[i]
    residual_ok = worst <= tolerance
    del pts, rows  # bodies driven together all wait at the yield below
    k = len(target_sys.generators)
    scheds, starts = [], []
    for _ in range(schedules):
        segs = [(int(rng.integers(0, k)), float(rng.uniform(0.1, 0.4)))
                for _ in range(int(rng.integers(1, 4)))]
        scheds.append(Schedule.of(*segs))
        starts.append(m.phi.source.sample(rng, 1)[0])
    starts = m.phi.source.stack(starts)
    atlas = target_sys.atlas
    tu, td = yield [RowRequest(up, starts, scheds, h), RowRequest(
        target_sys, _in_atlas(atlas, m.phi.values(starts), m.phi.target), scheds, h)]
    # finite-difference lifts carry O(eps/FD_STEP) derivative noise that
    # accumulates linearly along the flow
    fd_noise = 0.0 if m.phi.analytic else 1e-9
    ids = [c.chart_id for c in atlas.charts]
    traj_worst = 0.0
    for r in range(schedules):
        n = int(min(tu.counts[r], td.counts[r]))
        pu = _in_atlas(atlas, m.phi.values(Points(tu.samples.charts[r, :n],
                                                  tu.samples.coords[r, :n])), m.phi.target)
        pd = Points(td.samples.charts[r, :n], td.samples.coords[r, :n])
        times = tu.times[r, :n]
        # only a distance over its allowance raises traj_worst, and distance never
        # exceeds the direct one in one chart or in charts of shared coordinates
        near = ((pu.charts == pd.charts) | atlas.shared_coords) & (
            np.linalg.norm(pu.coords - pd.coords, axis=1)
            <= 0.5 * (10.0 * h ** 4 + fd_noise) * np.maximum(1.0, times))
        for i in np.flatnonzero(~near).tolist():
            d = atlas.distance(Point(ids[pu.charts[i]], pu.coords[i]),
                               Point(ids[pd.charts[i]], pd.coords[i]))
            allowed = (10.0 * h ** 4 + fd_noise) * max(1.0, float(times[i]))
            traj_worst = max(traj_worst, d - allowed)
    traj_ok = traj_worst <= 0.0

    return {
        "check": "trajectory-preserving",
        "pass": bool(residual_ok and traj_ok),
        "worst_residual": worst,
        "worst_point": None if worst_point is None else
            [worst_point.chart_id, [float(c) for c in worst_point.coords]],
        "tolerance": tolerance,
        "samples": samples,
        "schedules_checked": schedules,
        "trajectory_excess": max(0.0, traj_worst),
    }


def verify_global_in_time(m: Morphism, target_sys: GeneratedSystem,
                          starts: Sequence[Point], horizon: float,
                          h: float = 1e-3) -> dict:
    """Compare upstairs and downstairs escape times generator by generator.

    Every (generator, start) pair is a row of one integration on each side;
    a row that stays in the atlas up to the horizon escapes at the horizon.
    """
    up = lift_system(target_sys, m.phi, morphism=m)[1]
    return drive([global_body(m, target_sys, up, starts, horizon, h)])[0]


def global_body(m: Morphism, target_sys: GeneratedSystem, up: GeneratedSystem,
                starts: Sequence[Point], horizon: float, h: float = 1e-3):
    """verify_global_in_time as a body for systems.drive, given up, the lift
    of target_sys through m: it yields the upstairs and downstairs
    RowRequests, unrecorded, and returns the report."""
    pairs = [(gi, x) for gi in range(len(target_sys.generators)) for x in starts]
    scheds = [Schedule.of((gi, horizon)) for gi, _ in pairs]
    rows = m.phi.source.stack([x for _, x in pairs])
    flows = yield [RowRequest(up, rows, scheds, h, False), RowRequest(
        target_sys, _in_atlas(target_sys.atlas, m.phi.values(rows), m.phi.target), scheds, h,
        False)]
    escapes = zip(*(flow.escapes.tolist() for flow in flows))
    details = []
    ok = True
    for (gi, x), (t_up, t_down) in zip(pairs, escapes):
        t_up = horizon if np.isnan(t_up) else t_up
        t_down = horizon if np.isnan(t_down) else t_down
        agree = abs(t_up - t_down) <= 2 * h
        ok = ok and agree
        details.append({
            "generator": gi,
            "start": [x.chart_id, [float(c) for c in x.coords]],
            "escape_up": t_up,
            "escape_down": t_down,
            "agree": agree,
        })
    return {"check": "global-in-time", "pass": ok, "horizon": horizon,
            "tolerance": 2 * h, "details": details}


# ---------------------------------------------------------------------------
# kernel frames and augmentation


def kernel_projector(phi: SmoothMap, metric, cid, coords) -> np.ndarray:
    """Metric-orthogonal projection I - A W^-1 J onto ker(dPhi) in chart
    coordinates: (n, n) at coords (n,), or (N, n, n) at rows (N, n)."""
    coords = np.asarray(coords, float)
    J = phi.raw_jac_at(cid, coords)
    A, W = _right_inverse(J, metric, cid, coords)
    return np.eye(coords.shape[-1]) - A @ np.linalg.solve(W, J)


def kernel_frame(m: Morphism, mode: str = "chartwise",
                 generators: Optional[Sequence[VectorField]] = None,
                 samples: int = 50, seed: int = 0) -> KernelFrame:
    """Fields spanning ker(dPhi).

    chartwise mode projects the coordinate frame through the metric
    projector (chart-local sections that need not glue globally); with the
    GramFill of m's map, column j is the fill of delta_ij - J_i (J_j / W),
    kernel_projector's column bit for bit, and that column itself where W
    fails. global mode validates user-supplied generators against the kernel
    and the expected rank.
    """
    phi = m.phi
    metric = None if phi.source.metric_fn is None else phi.source.metric_at
    pts = phi.source.sample(np.random.default_rng(seed), samples)
    rows = phi.source.stack(pts)
    rank = phi.source.dim - int(differential_rank(phi, rows)[0])

    if mode == "chartwise":
        g, n = gram_fill(phi), phi.source.dim

        def column(j):
            def generic(cid, coords):
                return kernel_projector(phi, metric, cid, coords)[..., j]

            if g is None:
                return generic
            # LAPACK solves W x = J as J * (1 / W) for two or more right-hand
            # sides and as J / W for one; the fill rounds as it does
            x = f"{g.J(j)} / {g.W}" if n == 1 else f"{g.J(j)} * {g.pre}r"
            return g.fill([f"{float(i == j)} - {g.J(i)} * ({x})" for i in range(n)],
                          [(f"{g.pre}r", f"1.0 / {g.W}")], generic)

        fields = tuple(VectorField(phi.source, column(j), name=f"ker-frame-{j}")
                       for j in range(phi.source.dim))
    elif mode == "global":
        fields = tuple(generators or ())
        if rank == 0 and fields:
            raise RankDeficient(pts[0], "kernel has rank 0 but generators were supplied")
        if fields:
            V = np.stack([X.at_rows(rows, phi.source) for X in fields], axis=-1)
            r = np.max(np.abs(phi.jacobians(rows) @ V), axis=1)
            # the first point that fails, as one point and then one field at a time;
            # values that are not finite span nothing
            out = r > 1e-8
            stop = int(np.argmax(out.any(axis=1))) if out.any() else len(pts)
            V = np.where(np.isfinite(V).all(axis=(1, 2), keepdims=True), V, 0.0)
            s = np.linalg.svd(V[:stop], compute_uv=False)
            thin = np.full(stop, True) if s.shape[-1] < rank else s[:, rank - 1] < 1e-6
            if thin.any():
                raise RankDeficient(pts[int(np.argmax(thin))])
            if stop < len(pts):
                i = int(np.argmax(out[stop]))
                raise NotInKernel(i, pts[stop], float(r[stop, i]))
    else:
        raise ValueError(f"unknown kernel frame mode {mode!r}")

    global_ok = all(
        overlap_residual(X, pts[: min(len(pts), 20)]) <= 1e-9 for X in fields
    )
    return KernelFrame(morphism=m, mode=mode, fields=fields, rank=rank,
                       global_ok=global_ok)


def augment_with_kernel(sys: GeneratedSystem, frame: KernelFrame) -> GeneratedSystem:
    """Extend the family with fiber motion along the kernel frame.

    Kernel schedule selectors are real coefficient vectors over the frame.
    """
    if not frame.fields:
        return sys
    return GeneratedSystem(sys.atlas, sys.generators, kernel_fields=frame.fields,
                           kernel_base=None, label=f"{sys.label}+ker")


# ---------------------------------------------------------------------------
# lifting correspondence for ordinary control systems


def check_liftable(sigma1: ControlSystem, sigma2: ControlSystem, phi: SmoothMap,
                   tol: float = 1e-6, samples: int = 60, seed: int = 0):
    """Search for a lifting map l with dPhi(F1^{l(u)}) = F2^u o Phi.

    Returns (ok, association list of (u, matched control or None)). The
    downstairs slices must be linearly independent as sampled fields.
    """
    rng = np.random.default_rng(seed)
    rows1 = phi.source.stack(phi.source.sample(rng, samples))
    rows2 = phi.target.stack(phi.target.sample(rng, samples))

    controls2 = sigma2.controls()
    slices2 = [sigma2.slice_at(u) for u in controls2]
    vals = np.stack([Y.at_rows(rows2, phi.target).ravel() for Y in slices2])
    # a slice that is not finite at some sample spans nothing
    s = np.linalg.svd(np.where(np.isfinite(vals).all(axis=1, keepdims=True), vals, 0.0),
                      compute_uv=False)
    if s.size == 0 or s[-1] <= 1e-6 * max(s[0], 1.0):
        raise IndependenceViolated("downstairs slices are linearly dependent")

    controls1 = sigma1.controls()
    slices1 = [sigma1.slice_at(u) for u in controls1]

    base, J = phi.values(rows1), phi.jacobians(rows1)
    pushed = [(J @ X.at_rows(rows1, phi.source)[..., None])[..., 0] for X in slices1]
    mapping = []
    for u, Y in zip(controls2, slices2):
        want = Y.at_rows(base, phi.target)
        # each slice's worst row, nan never winning; the first fit in control-list order wins
        fits = [ubar for ubar, v in zip(controls1, pushed)
                if scan_max(np.max(np.abs(v - want), axis=1)) <= tol]
        mapping.append((u, fits[0] if fits else None))
    return all(match is not None for _, match in mapping), mapping


def morphism_from_lifting(l: Sequence[tuple], sigma1: ControlSystem,
                          sigma2: ControlSystem, phi: SmoothMap,
                          samples: int = 30, seed: int = 0) -> Morphism:
    """Morphism whose lift maps each downstairs slice to its lifted slice."""
    rows = phi.target.stack(phi.target.sample(np.random.default_rng(seed), samples))
    table = []
    for u, ubar in l:
        if ubar is None:
            raise UnmappedControl(f"control {u!r} has no lift")
        table.append((sigma2.slice_at(u).at_rows(rows, phi.target).ravel(),
                      sigma1.slice_at(ubar)))

    def lift_rule(Y: VectorField) -> VectorField:
        sig = Y.at_rows(rows, phi.target).ravel()
        for ref, X in table:
            if np.max(np.abs(sig - ref)) <= 1e-9:
                return X
        raise UnmappedControl(f"field {Y.name!r} is not a mapped slice")

    return Morphism(phi=phi, lift_rule=lift_rule, kind="user-supplied")
