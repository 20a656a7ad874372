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
    distinct,
    scan_max,
)
from .morphisms import KernelFrame, Morphism, check_adapted
from .systems import GeneratedSystem


@dataclass(frozen=True)
class TangentAtlas:
    """The atlas of a tangent bundle, induced from a base atlas.

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
        charts, bx = base.normalize_rows(cid, x)
        y2 = (base.jacobian_rows(cid, x) @ y[:, :, None])[:, :, 0]
        charts = np.where(np.any(np.abs(y2) >= v_bound, axis=1), -1, charts)
        return charts, np.concatenate([bx, y2], axis=1)

    def jac_rows(cid, X):
        # d/dx of (J(x) y) is zero: the base's gluing Jacobian is locally constant
        J = base.jacobian_rows(cid, X[:, :n])
        out = np.zeros((len(X), 2 * n, 2 * n))
        out[:, :n, :n] = J
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
    )
    return TangentAtlas(base=base, atlas=atlas, projection=projection, v_bound=v_bound)


@dataclass(frozen=True)
class SecondOrderSystem:
    """Control-affine system on a tangent bundle whose drift projects to the
    identity on velocities and whose control fields are vertical.

    local_data, when present, is (gamma, gmat): gamma(cid, x, y) gives the
    drift accelerations (..., n), gmat(cid, x, y) the control accelerations
    (..., k, n), at base coords and velocities x, y (..., n).
    """

    tangent_atlas: TangentAtlas
    drift: VectorField
    control_fields: tuple[VectorField, ...]
    local_data: Optional[tuple] = None
    label: str = ""


def second_order_system(ta: TangentAtlas, gamma, gmat, k: int,
                        label="second-order") -> SecondOrderSystem:
    """Build a SecondOrderSystem from its local form (accelerations)."""
    n = ta.base.dim

    def drift_func(cid, coords):
        x, y = coords[..., :n], coords[..., n:]
        return np.concatenate([y, np.asarray(gamma(cid, x, y), float)], axis=-1)

    def control_func(cid, coords, j):
        x, y = coords[..., :n], coords[..., n:]
        acc = np.asarray(gmat(cid, x, y), float)[..., j, :]
        return np.concatenate([np.zeros_like(x), acc], axis=-1)

    controls = tuple(
        VectorField(ta.atlas, lambda cid, coords, j=j: control_func(cid, coords, j),
                    name=f"{label}-g{j}")
        for j in range(k)
    )
    return SecondOrderSystem(
        tangent_atlas=ta,
        drift=VectorField(ta.atlas, drift_func, name=f"{label}-drift"),
        control_fields=controls,
        local_data=(gamma, gmat),
        label=label,
    )


def is_second_order(sys: SecondOrderSystem, samples: int = 200, seed: int = 0):
    """Check the drift projects to the velocity identity and controls are
    vertical. Returns (verdict, worst residual)."""
    atlas = sys.tangent_atlas.atlas
    n = sys.tangent_atlas.base.dim
    rows = atlas.stack(atlas.sample(np.random.default_rng(seed), samples))
    r = [np.abs(sys.drift.at_rows(rows, atlas)[:, :n] - rows.coords[:, n:])]
    r += [np.abs(f.at_rows(rows, atlas)[:, :n]) for f in sys.control_fields]
    worst = scan_max(np.max(r, axis=2))
    return worst <= 1e-9, worst


def tangent_map(phi: SmoothMap, tp: TangentAtlas, tq: TangentAtlas) -> SmoothMap:
    """T(phi) for an adapted coordinate projection phi: P -> Q."""
    m = phi.target.dim
    n = phi.source.dim

    def raw(cid, coords):
        tcid, _ = phi.raw(cid, coords[..., :n])
        return (tcid, np.concatenate([coords[..., :m], coords[..., n:n + m]], axis=-1))

    def jac(cid, coords):
        J = np.zeros(np.shape(coords)[:-1] + (2 * m, 2 * n))
        J[..., :m, :m] = np.eye(m)
        J[..., m:, n:n + m] = np.eye(m)
        return J

    return SmoothMap(source=tp.atlas, target=tq.atlas, raw=raw, raw_jacobian=jac,
                     name=f"T{phi.name}")


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
                                 label=f"lift({sys2.label})")
    tphi = tangent_map(phi, tp, tq)

    # match a downstairs field to its affine slice, then map the coefficients
    rows = tq.atlas.stack(tq.atlas.sample(np.random.default_rng(seed), 20))
    drift_vals = sys2.drift.at_rows(rows, tq.atlas).ravel()
    ctrl_vals = np.stack([f.at_rows(rows, tq.atlas).ravel() for f in sys2.control_fields]
                         ) if k else np.zeros((0, drift_vals.size))

    def lift_rule(Y: VectorField) -> VectorField:
        sig = Y.at_rows(rows, tq.atlas).ravel() - drift_vals
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

    return VectorField(tp.atlas, func, name=f"vlft({X.name})")


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
    pts = phi.source.sample(np.random.default_rng(seed), samples)
    rows = phi.source.stack(pts)
    if frame.fields:
        V = np.stack([X.at_rows(rows, phi.source) for X in frame.fields], axis=-1)
        out = np.max(np.abs(phi.jacobians(rows) @ V), axis=1) > 1e-8
        if out.any():  # the first point, then the first field, as one at a time
            p, i = np.unravel_index(np.argmax(out), out.shape)
            raise FrameNotKernel(f"frame field {frame.fields[i].name!r} leaves ker(dPhi) "
                                 f"at {pts[p]}")
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
    symmetric in (j, k), and takes rows x (..., n) to (..., n, n, n);
    controls act through vertical lifts on TQ.
    """

    atlas: Atlas
    christoffel: Callable[[str, np.ndarray], np.ndarray]
    controls: tuple[VectorField, ...] = ()
    v_bound: float = 2.0
    label: str = "connection"


def validate_connection(cs: ConnectionSystem, samples: int = 50, seed: int = 0):
    rows = cs.atlas.stack(cs.atlas.sample(np.random.default_rng(seed), samples))
    for c in distinct(rows.charts):
        G = np.asarray(cs.christoffel(cs.atlas.charts[c].chart_id,
                                      rows.coords[rows.charts == c]), float)
        D = np.abs(G - np.swapaxes(G, -2, -1)).reshape(len(G), -1)
        if np.any(np.max(D, axis=1) > 1e-12):
            raise ValueError("christoffel symbols must be symmetric in the lower indices")


def geodesic_spray(cs: ConnectionSystem) -> SecondOrderSystem:
    """Second-order drift of the connection plus vertically lifted controls."""
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
                               label=f"spray({cs.label})")
