"""Trajectory-preserving morphisms: lifts across submersions, kernel frames,
fiber augmentation, global-in-time checks, and the lifting correspondence
for ordinary control systems."""

from __future__ import annotations

import math
from dataclasses import dataclass
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
from .geometry import (
    Atlas,
    Member,
    Point,
    Points,
    SmoothMap,
    VectorField,
    differential_rank,
    overlap_residual,
    pushforward,
)
from .systems import (
    ControlSystem,
    GeneratedSystem,
    Schedule,
    integrate_rows,
)


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


def _metric_of(phi: SmoothMap, metric):
    """None stands for the chart-wise Euclidean metric (fast path)."""
    if metric is not None:
        return metric
    if phi.source.metric_fn is None:
        return None
    atlas = phi.source
    return lambda cid, coords: atlas.metric_at(cid, coords)


def _right_inverse(J: np.ndarray, metric, cid, coords):
    """A = G^-1 J^T and the Gram matrix W = J A, stacked over rows.

    J is (m, n) at coords (n,), or (N, m, n) at rows (N, n); a metric,
    when given, is evaluated at each row. Raises SingularGram naming the
    first row where W is not numerically positive definite: the first row
    holding nan, else the first whose Cholesky diagonal fails the threshold
    (the first row of the stack when the factorization fails outright).
    """
    Jt = np.swapaxes(J, -1, -2)
    if metric is None:
        A = Jt
    else:
        G = (np.asarray(metric(cid, coords), dtype=float) if np.ndim(coords) == 1
             else np.array([metric(cid, x) for x in coords], dtype=float))
        A = np.linalg.solve(G, Jt)
    W = J @ A
    # W is positive definite exactly when dPhi has full rank here; two reductions
    # pass a 1x1 stack, whose Cholesky factor is sqrt(W) as LAPACK computes it
    if W.shape[-1] == 1 and W.size:
        lo, hi = W.min(), W.max()
        if lo > 0 and math.sqrt(lo) > 1e-6 and hi < math.inf:
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
    rng = np.random.default_rng(seed)
    want = phi.target.dim
    for p in phi.source.sample(rng, samples):
        r = differential_rank(phi, p)
        if r < want:
            raise NotSubmersion(p, r, want)


def metric_lift_morphism(phi: SmoothMap, metric=None,
                         samples: int = 50, seed: int = 0) -> Morphism:
    """Morphism whose lift is the metric-orthogonal right inverse of dPhi."""
    check_submersion(phi, samples=samples, seed=seed)
    metric = _metric_of(phi, metric)

    def lifts(cid, coords, fields, rows=None):
        """The lifts of fields, rows[j] lifting fields[j]: one raw map,
        Jacobian, Gram and solve whatever field each row lifts."""
        coords = np.asarray(coords, float)
        tcid, tcoords = phi.raw(cid, coords)
        if rows is None:
            y = fields[0].values(tcid, tcoords)
        else:
            y = np.empty(np.shape(tcoords))
            for Y, sel in zip(fields, rows):
                y[sel] = Y.values(tcid, tcoords[sel])
        return _right_inverse_apply(phi.raw_jac_at(cid, coords), metric, cid, coords, y)

    def lift_rule(Y: VectorField) -> VectorField:
        return VectorField(phi.source, Member(lifts, Y), name=f"lift({Y.name})",
                           batched=phi.batched)

    return Morphism(phi=phi, lift_rule=lift_rule, kind="metric-right-inverse")


def lift_system(target_sys: GeneratedSystem, phi: SmoothMap, metric=None,
                samples: int = 50, seed: int = 0):
    """Lift every generator through the metric-orthogonal right inverse.

    Returns (morphism, lifted system on the source manifold).
    """
    m = metric_lift_morphism(phi, metric=metric, samples=samples, seed=seed)
    gens = tuple(m.lift(Y) for Y in target_sys.generators)
    lifted = GeneratedSystem(phi.source, gens, label=f"lift({target_sys.label})")
    return m, lifted


def horizontal_lift(target_sys: GeneratedSystem, bundle: SmoothMap,
                    connection=None, samples: int = 30, seed: int = 0):
    """Linear-connection horizontal lift on a vector bundle in adapted charts.

    The bundle map must be the coordinate projection onto the first
    base-dim coordinates; connection(cid, x) has shape
    (fiber_dim, base_dim, fiber_dim) and defaults to flat (zero).
    """
    base_dim = bundle.target.dim
    fiber_dim = bundle.source.dim - base_dim
    check_adapted(bundle, samples=samples, seed=seed)
    if connection is None:
        connection = lambda cid, x: np.zeros((fiber_dim, base_dim, fiber_dim))

    def lift_rule(Y: VectorField) -> VectorField:
        def func(cid, coords):
            coords = np.asarray(coords, float)
            x, v = coords[:base_dim], coords[base_dim:]
            tcid, _ = bundle.raw(cid, coords)
            y = np.asarray(Y.func(tcid, x), float)
            A = np.asarray(connection(cid, x), float)
            fiber = -np.einsum("aib,i,b->a", A, y, v)
            return np.concatenate([y, fiber])

        return VectorField(bundle.source, func, name=f"hlift({Y.name})")

    m = Morphism(phi=bundle, lift_rule=lift_rule, kind="horizontal-connection")
    gens = tuple(m.lift(Y) for Y in target_sys.generators)
    return m, GeneratedSystem(bundle.source, gens, label=f"hlift({target_sys.label})")


def check_adapted(phi: SmoothMap, samples: int = 30, seed: int = 0):
    """Raise NotAdapted unless phi is the coordinate projection onto the
    first phi.target.dim axes at sampled source points."""
    base_dim = phi.target.dim
    rng = np.random.default_rng(seed)
    for p in phi.source.sample(rng, samples):
        _, out = phi.raw(p.chart_id, p.coords)
        if np.max(np.abs(np.asarray(out, float) - p.coords[:base_dim])) > 1e-9:
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
    """Pointwise pushforward identity plus schedule-level projection check.

    Residual at x is |dPhi(liftY)(x) - Y(Phi(x))|; trajectories of random
    schedules upstairs must project onto the downstairs integration within
    the integrator's accumulated local error. The residual takes the sample
    points as rows, and every schedule is a row of one integration on each
    side; the report equals that of one point and one schedule at a time.
    """
    if tolerance is None:
        tolerance = 1e-9 if m.phi.analytic else 1e-6
    rng = np.random.default_rng(seed)
    pts = m.phi.source.sample(rng, samples)
    rows = m.phi.source.stack(pts)
    worst = 0.0
    worst_point = None
    lifted = [m.lift(Y) for Y in target_sys.generators]
    for Y, X in zip(target_sys.generators, lifted):
        v = (m.phi.jacobians(rows) @ X.at_rows(rows)[..., None])[..., 0]
        base = _in_atlas(Y.atlas, m.phi.values(rows), m.phi.target)
        r = np.max(np.abs(v - Y.at_rows(base)), axis=1)
        # the first maximum wins and nan never does, as in a point-by-point scan
        r = np.where(np.isnan(r), -np.inf, r)
        if len(r) and r.max() > worst:
            i = int(np.argmax(r))
            worst, worst_point = float(r[i]), pts[i]
    residual_ok = worst <= tolerance

    up = GeneratedSystem(m.phi.source, tuple(lifted), label="lifted")
    k = len(target_sys.generators)
    scheds, starts = [], []
    for _ in range(schedules):
        segs = [(int(rng.integers(0, k)), float(rng.uniform(0.1, 0.4)))
                for _ in range(int(rng.integers(1, 4)))]
        scheds.append(Schedule.of(*segs))
        starts.append(m.phi.source.sample(rng, 1)[0])
    starts = m.phi.source.stack(starts)
    tu = integrate_rows(up, starts, scheds, h)
    atlas = target_sys.atlas
    td = integrate_rows(target_sys, _in_atlas(atlas, m.phi.values(starts), m.phi.target),
                        scheds, h)
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
    up = GeneratedSystem(m.phi.source, tuple(m.lift(Y) for Y in target_sys.generators))
    pairs = [(gi, x) for gi in range(len(target_sys.generators)) for x in starts]
    scheds = [Schedule.of((gi, horizon)) for gi, _ in pairs]
    rows = m.phi.source.stack([x for _, x in pairs])
    escapes = zip(integrate_rows(up, rows, scheds, h, record=False).escapes.tolist(),
                  integrate_rows(target_sys,
                                 _in_atlas(target_sys.atlas, m.phi.values(rows), m.phi.target),
                                 scheds, h, record=False).escapes.tolist())
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
                 metric=None, samples: int = 50, seed: int = 0) -> KernelFrame:
    """Fields spanning ker(dPhi).

    chartwise mode projects the coordinate frame through the metric
    projector (chart-local sections that need not glue globally); global
    mode validates user-supplied generators against the kernel and the
    expected rank.
    """
    phi = m.phi
    metric = _metric_of(phi, metric)
    rng = np.random.default_rng(seed)
    pts = phi.source.sample(rng, samples)
    rank = phi.source.dim - differential_rank(phi, pts[0])

    if mode == "chartwise":
        def column(j):
            return lambda cid, coords: kernel_projector(phi, metric, cid, coords)[..., j]

        fields = tuple(
            VectorField(phi.source, column(j), name=f"ker-frame-{j}", batched=phi.batched)
            for j in range(phi.source.dim)
        )
    elif mode == "global":
        fields = tuple(generators or ())
        if rank == 0 and fields:
            raise RankDeficient(pts[0], "kernel has rank 0 but generators were supplied")
        for p in pts:
            J = phi.jacobian(p)
            vals = []
            for i, X in enumerate(fields):
                v = X.at(p)
                r = float(np.max(np.abs(J @ v)))
                if r > 1e-8:
                    raise NotInKernel(i, p, r)
                vals.append(v)
            if fields:
                s = np.linalg.svd(np.stack(vals, axis=1), compute_uv=False)
                if len(s) < rank or s[rank - 1] < 1e-6:
                    raise RankDeficient(p)
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


def _slice_values(fields: Sequence[VectorField], pts: Sequence[Point]) -> np.ndarray:
    return np.stack([
        np.concatenate([f.at(p) for p in pts]) for f in fields
    ])


def check_liftable(sigma1: ControlSystem, sigma2: ControlSystem, phi: SmoothMap,
                   tol: float = 1e-6, samples: int = 60, seed: int = 0):
    """Search for a lifting map l with dPhi(F1^{l(u)}) = F2^u o Phi.

    Returns (ok, association list of (u, matched control or None)). The
    downstairs slices must be linearly independent as sampled fields.
    """
    rng = np.random.default_rng(seed)
    pts1 = phi.source.sample(rng, samples)
    pts2 = phi.target.sample(rng, samples)

    controls2 = sigma2.controls()
    slices2 = [u if isinstance(u, VectorField) else sigma2.slice_at(u)
               for u in controls2]
    vals = _slice_values(slices2, pts2)
    s = np.linalg.svd(vals, compute_uv=False)
    if s.size == 0 or s[-1] <= 1e-6 * max(s[0], 1.0):
        raise IndependenceViolated("downstairs slices are linearly dependent")

    controls1 = sigma1.controls()
    slices1 = [u if isinstance(u, VectorField) else sigma1.slice_at(u)
               for u in controls1]

    mapping = []
    ok = True
    for u, Y in zip(controls2, slices2):
        match = None
        for ubar, X in zip(controls1, slices1):
            worst = 0.0
            for p in pts1:
                v = pushforward(phi, X.tangent(p))
                worst = max(worst, float(np.max(np.abs(v.components - Y.at(v.base)))))
                if worst > tol:
                    break
            if worst <= tol:
                match = ubar
                break  # ties broken by first match in control-list order
        if match is None:
            ok = False
        mapping.append((u, match))
    return ok, mapping


def morphism_from_lifting(l: Sequence[tuple], sigma1: ControlSystem,
                          sigma2: ControlSystem, phi: SmoothMap,
                          samples: int = 30, seed: int = 0) -> Morphism:
    """Morphism whose lift maps each downstairs slice to its lifted slice."""
    rng = np.random.default_rng(seed)
    pts = phi.target.sample(rng, samples)
    table = []
    for u, ubar in l:
        if ubar is None:
            raise UnmappedControl(f"control {u!r} has no lift")
        Y = u if isinstance(u, VectorField) else sigma2.slice_at(u)
        X = ubar if isinstance(ubar, VectorField) else sigma1.slice_at(ubar)
        table.append((np.concatenate([Y.at(p) for p in pts]), X))

    def lift_rule(Y: VectorField) -> VectorField:
        sig = np.concatenate([Y.at(p) for p in pts])
        for ref, X in table:
            if np.max(np.abs(sig - ref)) <= 1e-9:
                return X
        raise UnmappedControl(f"field {Y.name!r} is not a mapped slice")

    return Morphism(phi=phi, lift_rule=lift_rule, kind="user-supplied")
