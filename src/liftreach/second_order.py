"""Second-order machinery on tangent bundles: induced atlases, vertical
lifts, second-order systems and their lifts, fiber-tangent augmentation,
and geodesic sprays for affine-connection systems."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import FrameNotKernel, UnmappedControl
from .geometry import (
    Atlas,
    Chart,
    SmoothMap,
    VectorField,
    combine_fields,
    finite_difference_jacobian,
)
from .morphisms import KernelFrame, Morphism, check_adapted
from .systems import GeneratedSystem


@dataclass(frozen=True)
class TangentAtlas:
    """Tangent bundle atlas induced from a base atlas.

    Chart coordinates are (x, y) with y the fiber components; normalizing
    transports y by the base transition Jacobian. Fiber coordinates live in
    a bounded window (-v_bound, v_bound) so grids stay finite.
    """

    base: Atlas
    atlas: Atlas
    projection: SmoothMap
    v_bound: float


def tangent_atlas(base: Atlas, v_bound: float = 2.0) -> TangentAtlas:
    n = base.dim
    charts = tuple(
        Chart(
            c.chart_id,
            np.vstack([c.box, np.tile([-v_bound, v_bound], (n, 1))]),
            c.wrap + (False,) * n,
        )
        for c in base.charts
    )

    def norm_rows(cid, X):
        x, y = X[:, :n], X[:, n:]
        charts, bx = base.normalize_many(cid, x)
        y2 = (base.transition_jacobians(cid, x) @ y[:, :, None])[:, :, 0]
        charts = np.where(np.any(np.abs(y2) >= v_bound, axis=1), -1, charts)
        return charts, np.concatenate([bx, y2], axis=1)

    def jac_rows(cid, X):
        x, y = X[:, :n], X[:, n:]
        J = base.transition_jacobians(cid, x)
        # d/dx of (J(x) y), zero whenever the gluing Jacobian is constant
        off = finite_difference_jacobian(
            lambda xs: (base.transition_jacobians(cid, xs) @ y[:, :, None])[:, :, 0], x, n
        )
        out = np.zeros((len(X), 2 * n, 2 * n))
        out[:, :n, :n] = J
        out[:, n:, :n] = off
        out[:, n:, n:] = J
        return out

    def aliases(cid, coords):
        x, y = coords[:n], coords[n:]
        out = []
        if base.aliases_fn is None:
            return out
        for acid, ax in base.aliases_fn(cid, np.asarray(x, float)):
            ax = np.asarray(ax, float)
            J = base.transition_jacobian(acid, ax)
            ay = np.linalg.solve(J, np.asarray(y, float))
            out.append((acid, np.concatenate([ax, ay])))
        return out

    atlas = Atlas(
        dim=2 * n,
        charts=charts,
        normalize_rows=norm_rows,
        jacobian_rows=jac_rows,
        aliases_fn=aliases,
        coord_names=base.coord_names + tuple("v" + c for c in base.coord_names),
        name=f"T{base.name}",
        shared_coords=base.shared_coords,
    )
    projection = SmoothMap(
        source=atlas,
        target=base,
        raw=lambda cid, coords: (cid, np.asarray(coords, float)[..., :n]),
        raw_jacobian=lambda cid, coords: np.broadcast_to(
            np.hstack([np.eye(n), np.zeros((n, n))]), np.shape(coords)[:-1] + (n, 2 * n)),
        name=f"pi_T{base.name}",
        batched=True,
    )
    return TangentAtlas(base=base, atlas=atlas, projection=projection, v_bound=v_bound)


@dataclass(frozen=True)
class SecondOrderSystem:
    """Control-affine system on a tangent bundle whose drift projects to the
    identity on velocities and whose control fields are vertical.

    local_data, when present, is (gamma, gmat): gamma(cid, x, y) gives the
    drift accelerations, gmat(cid, x, y) the (k, n) control accelerations.
    When the fields are batched, both also take rows x, y (N, n) and
    return (N, n) and (N, k, n).
    """

    tangent_atlas: TangentAtlas
    drift: VectorField
    control_fields: tuple[VectorField, ...]
    local_data: Optional[tuple] = None
    label: str = ""


def second_order_system(ta: TangentAtlas, gamma, gmat, k: int,
                        label="second-order", batched: bool = False) -> SecondOrderSystem:
    """Build a SecondOrderSystem from its local form (accelerations).

    batched says that gamma and gmat take rows, which makes the drift and
    control fields array-native.
    """
    n = ta.base.dim

    def drift_func(cid, coords):
        coords = np.asarray(coords, float)
        x, y = coords[..., :n], coords[..., n:]
        return np.concatenate([y, np.asarray(gamma(cid, x, y), float)], axis=-1)

    def control_func(cid, coords, j):
        coords = np.asarray(coords, float)
        x, y = coords[..., :n], coords[..., n:]
        acc = np.asarray(gmat(cid, x, y), float)[..., j, :]
        return np.concatenate([np.zeros_like(x), acc], axis=-1)

    controls = tuple(
        VectorField(ta.atlas, lambda cid, coords, j=j: control_func(cid, coords, j),
                    name=f"{label}-g{j}", batched=batched)
        for j in range(k)
    )
    return SecondOrderSystem(
        tangent_atlas=ta,
        drift=VectorField(ta.atlas, drift_func, name=f"{label}-drift", batched=batched),
        control_fields=controls,
        local_data=(gamma, gmat),
        label=label,
    )


def is_second_order(sys: SecondOrderSystem, samples: int = 200, seed: int = 0):
    """Check the drift projects to the velocity identity and controls are
    vertical. Returns (verdict, worst residual)."""
    rng = np.random.default_rng(seed)
    n = sys.tangent_atlas.base.dim
    worst = 0.0
    for p in sys.tangent_atlas.atlas.sample(rng, samples):
        y = p.coords[n:]
        worst = max(worst, float(np.max(np.abs(sys.drift.at(p)[:n] - y))))
        for f in sys.control_fields:
            worst = max(worst, float(np.max(np.abs(f.at(p)[:n]))))
    return worst <= 1e-9, worst


def tangent_map(phi: SmoothMap, tp: TangentAtlas, tq: TangentAtlas) -> SmoothMap:
    """T(phi) for an adapted coordinate projection phi: P -> Q, on rows
    when phi is."""
    m = phi.target.dim
    n = phi.source.dim

    def raw(cid, coords):
        coords = np.asarray(coords, float)
        tcid, _ = phi.raw(cid, coords[..., :n])
        return (tcid, np.concatenate([coords[..., :m], coords[..., n:n + m]], axis=-1))

    def jac(cid, coords):
        J = np.zeros(np.shape(coords)[:-1] + (2 * m, 2 * n))
        J[..., :m, :m] = np.eye(m)
        J[..., m:, n:n + m] = np.eye(m)
        return J

    return SmoothMap(source=tp.atlas, target=tq.atlas, raw=raw, raw_jacobian=jac,
                     name=f"T{phi.name}", batched=phi.batched)


def second_order_lift(sys2: SecondOrderSystem, phi: SmoothMap,
                      samples: int = 30, seed: int = 0):
    """Minimal second-order lift across an adapted submersion.

    Fiber positions keep their velocities and receive zero acceleration;
    base accelerations are read from the downstairs local form. Returns
    (lifted SecondOrderSystem on TP, morphism over T(phi)).
    """
    if sys2.local_data is None:
        raise ValueError("second_order_lift needs the local form of the source system")
    check_adapted(phi, samples=samples, seed=seed)
    gamma, gmat = sys2.local_data
    m = phi.target.dim
    k = len(sys2.control_fields)
    tq = sys2.tangent_atlas
    tp = tangent_atlas(phi.source, v_bound=tq.v_bound)
    n = phi.source.dim

    def qchart(cid, x):
        return phi.raw(cid, x)[0]

    def lifted_gamma(cid, x, y):
        acc = np.zeros(np.shape(x))
        acc[..., :m] = np.asarray(gamma(qchart(cid, x), x[..., :m], y[..., :m]), float)
        return acc

    def lifted_gmat(cid, x, y):
        G = np.zeros(np.shape(x)[:-1] + (k, n))
        G[..., :m] = np.asarray(gmat(qchart(cid, x), x[..., :m], y[..., :m]), float)
        return G

    lifted = second_order_system(tp, lifted_gamma, lifted_gmat, k,
                                 label=f"lift({sys2.label})",
                                 batched=sys2.drift.batched and phi.batched)
    tphi = tangent_map(phi, tp, tq)

    # match a downstairs field to its affine slice, then map the coefficients
    rng = np.random.default_rng(seed)
    pts = tq.atlas.sample(rng, 20)
    drift_vals = np.concatenate([sys2.drift.at(p) for p in pts])
    ctrl_vals = np.stack([
        np.concatenate([f.at(p) for p in pts]) for f in sys2.control_fields
    ]) if k else np.zeros((0, drift_vals.size))

    def lift_rule(Y: VectorField) -> VectorField:
        sig = np.concatenate([Y.at(p) for p in pts]) - drift_vals
        if k:
            u, res, *_ = np.linalg.lstsq(ctrl_vals.T, sig, rcond=None)
            resid = float(np.max(np.abs(ctrl_vals.T @ u - sig)))
        else:
            u, resid = np.zeros(0), float(np.max(np.abs(sig))) if sig.size else 0.0
        if resid > 1e-9:
            raise UnmappedControl(f"field {Y.name!r} is not a slice of the source system")
        return combine_fields(
            [lifted.drift, *lifted.control_fields], np.concatenate([[1.0], u]),
            name=f"lift({Y.name})",
        )

    morphism = Morphism(phi=tphi, lift_rule=lift_rule, kind="second-order")
    return lifted, morphism


def vertical_lift(X: VectorField, tp: TangentAtlas) -> VectorField:
    """Canonical copy of a base field into the fiber directions."""
    n = tp.base.dim

    def func(cid, coords):
        x = np.asarray(coords, float)[..., :n]
        return np.concatenate([np.zeros_like(x), X.values(cid, x)], axis=-1)

    return VectorField(tp.atlas, func, name=f"vlft({X.name})", batched=True)


def augment_second_order(lifted: SecondOrderSystem, frame: KernelFrame,
                         control_amplitude: float = 1.0,
                         samples: int = 30, seed: int = 0) -> GeneratedSystem:
    """Augment the lifted system with vertical lifts of the kernel frame.

    Generators are the axis-aligned affine slices (drift alone and drift
    plus/minus each control); kernel coefficient selectors integrate
    drift + sum_j c_j X_j^vlft, the decomposition used to steer along
    fiber tangents.
    """
    tp = lifted.tangent_atlas
    phi = frame.morphism.phi
    rng = np.random.default_rng(seed)
    for p in phi.source.sample(rng, samples):
        J = phi.jacobian(p)
        for X in frame.fields:
            r = float(np.max(np.abs(J @ X.at(p))))
            if r > 1e-8:
                raise FrameNotKernel(f"frame field {X.name!r} leaves ker(dPhi) at {p}")
    vlfts = tuple(vertical_lift(X, tp) for X in frame.fields)
    gens = [lifted.drift]
    for f in lifted.control_fields:
        for s in (control_amplitude, -control_amplitude):
            gens.append(combine_fields([lifted.drift, f], [1.0, s],
                                       name=f"{lifted.label}+{s}*{f.name}"))
    return GeneratedSystem(
        tp.atlas,
        tuple(gens),
        kernel_fields=vlfts,
        kernel_base=lifted.drift,
        label=f"{lifted.label}+vlft",
    )


# ---------------------------------------------------------------------------
# affine-connection systems


@dataclass(frozen=True)
class ConnectionSystem:
    """Affine-connection control system on a base manifold.

    christoffel(cid, x) has shape (n, n, n) indexed [i, j, k] and must be
    symmetric in (j, k); controls act through vertical lifts on TQ.
    batched says that christoffel also takes rows x (N, n), returning
    (N, n, n, n), which makes the geodesic spray array-native.
    """

    atlas: Atlas
    christoffel: Callable[[str, np.ndarray], np.ndarray]
    controls: tuple[VectorField, ...] = ()
    v_bound: float = 2.0
    label: str = "connection"
    batched: bool = False


def validate_connection(cs: ConnectionSystem, samples: int = 50, seed: int = 0):
    rng = np.random.default_rng(seed)
    for p in cs.atlas.sample(rng, samples):
        G = np.asarray(cs.christoffel(p.chart_id, p.coords), float)
        if np.max(np.abs(G - np.swapaxes(G, 1, 2))) > 1e-12:
            raise ValueError("christoffel symbols must be symmetric in the lower indices")


def geodesic_spray(cs: ConnectionSystem) -> SecondOrderSystem:
    """Second-order drift of the connection plus vertically lifted controls.

    The spray takes rows when the connection does.
    """
    validate_connection(cs)
    ta = tangent_atlas(cs.atlas, v_bound=cs.v_bound)
    n = cs.atlas.dim

    def gamma(cid, x, y):
        # einsum sums strided stacks in another order: contiguous rows keep
        # each row equal to its point
        G = np.ascontiguousarray(cs.christoffel(cid, np.asarray(x, float)), dtype=float)
        return -np.einsum("...ijk,...j,...k->...i", G, y, y)

    def gmat(cid, x, y):
        if not cs.controls:
            return np.zeros(np.shape(x)[:-1] + (0, n))
        return np.stack([g.values(cid, x) for g in cs.controls], axis=-2)

    return second_order_system(ta, gamma, gmat, len(cs.controls),
                               label=f"spray({cs.label})",
                               batched=cs.batched and all(g.batched for g in cs.controls))
