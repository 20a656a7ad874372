"""Trajectory-preserving morphisms: lifts across submersions, kernel frames,
fiber augmentation, global-in-time checks, and the lifting correspondence
for ordinary control systems."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    Escape,
    IndependenceViolated,
    NotInKernel,
    NotSubmersion,
    RankDeficient,
    SingularGram,
    UnmappedControl,
)
from .geometry import (
    Atlas,
    Point,
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
    flow_field,
    integrate,
)


@dataclass(frozen=True)
class Morphism:
    """A submersion together with a linear rule lifting downstairs fields."""

    phi: SmoothMap
    lift_rule: Callable[[VectorField], VectorField]
    kind: str  # metric-right-inverse | horizontal-connection | user-supplied | second-order
    proper_flag: bool = False

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


def _right_inverse_apply(J: np.ndarray, metric, cid, coords, y):
    """G^-1 J^T (J G^-1 J^T)^-1 y at a raw source representation with Jacobian J."""
    if metric is None:
        A = J.T
    else:
        G = np.asarray(metric(cid, coords), dtype=float)
        A = np.linalg.solve(G, J.T)
    W = J @ A
    # W is positive definite exactly when dPhi has full rank here
    try:
        L = np.linalg.cholesky(W)
    except np.linalg.LinAlgError:
        raise SingularGram(f"J G^-1 J^T is numerically singular at ({cid}, {coords})")
    d = np.diagonal(L)
    if d.min() <= 1e-6 * max(d.max(), 1.0):
        raise SingularGram(f"J G^-1 J^T is numerically singular at ({cid}, {coords})")
    return A @ np.linalg.solve(W, y)


def check_submersion(phi: SmoothMap, samples: int = 50, seed: int = 0):
    rng = np.random.default_rng(seed)
    want = phi.target.dim
    for p in phi.source.sample(rng, samples):
        r = differential_rank(phi, p)
        if r < want:
            raise NotSubmersion(p, r, want)


def metric_lift_morphism(phi: SmoothMap, metric=None, proper: bool = False,
                         samples: int = 50, seed: int = 0) -> Morphism:
    """Morphism whose lift is the metric-orthogonal right inverse of dPhi."""
    check_submersion(phi, samples=samples, seed=seed)
    metric = _metric_of(phi, metric)

    def lift_rule(Y: VectorField) -> VectorField:
        def func(cid, coords):
            tcid, tcoords = phi.raw(cid, coords)
            y = np.asarray(Y.func(tcid, np.asarray(tcoords, float)), float)
            coords = np.asarray(coords, float)
            return _right_inverse_apply(phi.raw_jac_at(cid, coords), metric, cid, coords, y)

        return VectorField(phi.source, func, name=f"lift({Y.name})")

    return Morphism(phi=phi, lift_rule=lift_rule, kind="metric-right-inverse",
                    proper_flag=proper)


def lift_system(target_sys: GeneratedSystem, phi: SmoothMap, metric=None,
                proper: bool = False, samples: int = 50, seed: int = 0):
    """Lift every generator through the metric-orthogonal right inverse.

    Returns (morphism, lifted system on the source manifold).
    """
    m = metric_lift_morphism(phi, metric=metric, proper=proper,
                             samples=samples, seed=seed)
    gens = tuple(m.lift(Y) for Y in target_sys.generators)
    lifted = GeneratedSystem(phi.source, gens, label=f"lift({target_sys.label})")
    return m, lifted


def horizontal_lift(target_sys: GeneratedSystem, bundle: SmoothMap,
                    connection=None, proper: bool = False,
                    samples: int = 30, seed: int = 0):
    """Linear-connection horizontal lift on a vector bundle in adapted charts.

    The bundle map must be the coordinate projection onto the first
    base-dim coordinates; connection(cid, x) has shape
    (fiber_dim, base_dim, fiber_dim) and defaults to flat (zero).
    """
    base_dim = bundle.target.dim
    fiber_dim = bundle.source.dim - base_dim
    _check_adapted(bundle, base_dim, samples=samples, seed=seed)
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

    m = Morphism(phi=bundle, lift_rule=lift_rule, kind="horizontal-connection",
                 proper_flag=proper)
    gens = tuple(m.lift(Y) for Y in target_sys.generators)
    return m, GeneratedSystem(bundle.source, gens, label=f"hlift({target_sys.label})")


def _check_adapted(phi: SmoothMap, base_dim: int, samples: int = 30, seed: int = 0):
    from .errors import NotAdapted

    rng = np.random.default_rng(seed)
    for p in phi.source.sample(rng, samples):
        _, out = phi.raw(p.chart_id, p.coords)
        if np.max(np.abs(np.asarray(out, float) - p.coords[:base_dim])) > 1e-9:
            raise NotAdapted(
                f"map is not the coordinate projection onto the first {base_dim} axes"
            )


# ---------------------------------------------------------------------------
# verification


def verify_trajectory_preserving(m: Morphism, target_sys: GeneratedSystem,
                                 samples: int = 1000, seed: int = 0,
                                 tolerance: Optional[float] = None,
                                 schedules: int = 10, h: float = 1e-3) -> dict:
    """Pointwise pushforward identity plus schedule-level projection check.

    Residual at x is |dPhi(liftY)(x) - Y(Phi(x))|; trajectories of random
    schedules upstairs must project onto the downstairs integration within
    the integrator's accumulated local error.
    """
    if tolerance is None:
        tolerance = 1e-9 if m.phi.analytic else 1e-6
    rng = np.random.default_rng(seed)
    pts = m.phi.source.sample(rng, samples)
    worst = 0.0
    worst_point = None
    lifted = [m.lift(Y) for Y in target_sys.generators]
    for Y, X in zip(target_sys.generators, lifted):
        for p in pts:
            v = pushforward(m.phi, X.tangent(p))
            r = float(np.max(np.abs(v.components - Y.at(v.base))))
            if r > worst:
                worst, worst_point = r, p
    residual_ok = worst <= tolerance

    up = GeneratedSystem(m.phi.source, tuple(lifted), label="lifted")
    traj_worst = 0.0
    checked = 0
    k = len(target_sys.generators)
    for _ in range(schedules):
        segs = [(int(rng.integers(0, k)), float(rng.uniform(0.1, 0.4)))
                for _ in range(int(rng.integers(1, 4)))]
        sched = Schedule.of(*segs)
        start = m.phi.source.sample(rng, 1)[0]
        try:
            tu = integrate(up, start, sched, h)
        except Escape as exc:
            tu = exc.trajectory
        try:
            td = integrate(target_sys, m.phi.value(start), sched, h)
        except Escape as exc:
            td = exc.trajectory
        n = min(len(tu.samples), len(td.samples))
        # finite-difference lifts carry O(eps/FD_STEP) derivative noise that
        # accumulates linearly along the flow
        fd_noise = 0.0 if m.phi.analytic else 1e-9
        for (t, pu), (_, pd) in zip(tu.samples[:n], td.samples[:n]):
            d = target_sys.atlas.distance(m.phi.value(pu), pd)
            allowed = (10.0 * h ** 4 + fd_noise) * max(1.0, t)
            traj_worst = max(traj_worst, d - allowed)
        checked += 1
    traj_ok = traj_worst <= 0.0

    return {
        "check": "trajectory-preserving",
        "pass": bool(residual_ok and traj_ok),
        "worst_residual": worst,
        "worst_point": None if worst_point is None else
            [worst_point.chart_id, [float(c) for c in worst_point.coords]],
        "tolerance": tolerance,
        "samples": samples,
        "schedules_checked": checked,
        "trajectory_excess": max(0.0, traj_worst),
    }


def _escape_time(atlas: Atlas, field: VectorField, start: Point,
                 horizon: float, h: float) -> float:
    """Time at which the flow leaves the atlas, or the horizon if it never does."""
    try:
        flow_field(atlas, field.func, start, horizon, h)
    except Escape as exc:
        return exc.time
    return horizon


def verify_global_in_time(m: Morphism, target_sys: GeneratedSystem,
                          starts: Sequence[Point], horizon: float,
                          h: float = 1e-3) -> dict:
    """Compare upstairs and downstairs escape times generator by generator."""
    details = []
    ok = True
    for gi, Y in enumerate(target_sys.generators):
        X = m.lift(Y)
        for x in starts:
            t_up = _escape_time(m.phi.source, X, x, horizon, h)
            t_down = _escape_time(target_sys.atlas, Y, m.phi.value(x), horizon, h)
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


def _kernel_column(J: np.ndarray, metric, cid, coords, j: int) -> np.ndarray:
    """Column j of the kernel projector, given the Jacobian J at coords."""
    return np.eye(len(coords))[:, j] - _right_inverse_apply(J, metric, cid, coords, J[:, j])


def kernel_projector(phi: SmoothMap, metric, cid, coords) -> np.ndarray:
    """Metric-orthogonal projection onto ker(dPhi) in chart coordinates."""
    coords = np.asarray(coords, float)
    J = phi.raw_jac_at(cid, coords)
    return np.stack([_kernel_column(J, metric, cid, coords, j)
                     for j in range(phi.source.dim)], axis=1)


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
        def column(cid, coords, j):
            coords = np.asarray(coords, float)
            return _kernel_column(phi.raw_jac_at(cid, coords), metric, cid, coords, j)

        fields = tuple(
            VectorField(phi.source, lambda cid, coords, j=j: column(cid, coords, j),
                        name=f"ker-frame-{j}")
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
