"""Declarative scenario files: atlases, maps, fields, systems, morphism
requests, and experiment blocks, resolved into live objects at parse time."""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, ParseError, UnresolvedReference
from .expressions import compile_vector
from .geometry import (
    Atlas,
    SmoothMap,
    VectorField,
    box_atlas,
    circle_atlas,
    combine_fields,
    interval_atlas,
    mobius_atlas,
    torus_atlas,
    union_atlas,
)
from .morphisms import (
    augment_with_kernel,
    kernel_frame,
    lift_system,
    metric_lift_morphism,
)
from .runner import _HANDLERS, _REQUIRED
from .second_order import (
    ConnectionSystem,
    augment_second_order,
    geodesic_spray,
    second_order_lift,
    second_order_system,
    tangent_atlas,
)
from .systems import GeneratedSystem


@dataclass
class Scenario:
    name: str
    atlases: dict
    maps: dict
    fields: dict
    systems: dict          # name -> GeneratedSystem (includes derived *.system / *.augmented)
    morphisms: dict        # name -> Morphism
    kernels: dict          # name -> KernelFrame
    second_order: dict     # name -> SecondOrderSystem
    connections: dict      # name -> ConnectionSystem
    experiments: list
    raw: dict

    def system(self, name: str) -> GeneratedSystem:
        return _ref(self.systems, name)


def _ref(table: dict, name, where=None):
    """The entry of table named name; UnresolvedReference when there is none,
    ParseError at where when name is not a name at all."""
    if not isinstance(name, str):
        raise ParseError(f"expected a name, got {name!r}", where=where)
    if name not in table:
        raise UnresolvedReference(name)
    return table[name]


def _need(spec: dict, key: str, where: str):
    """spec[key]; ParseError at where when the key is missing."""
    if key not in spec:
        raise ParseError(f"missing {key!r}", where=where)
    return spec[key]


def _section(data: dict, key: str, kind=dict):
    """data[key], empty when absent: an object whose entries are objects, or
    for kind list a list of objects; ParseError naming the section or the
    entry otherwise."""
    section = data.get(key, kind())
    if not isinstance(section, kind):
        raise ParseError(f"must be {'a list' if kind is list else 'an object'}", where=key)
    for name, entry in section.items() if kind is dict else enumerate(section):
        if not isinstance(entry, dict):
            raise ParseError("must be an object", where=f"{key}[{name!r}]")
    return section


def _numbers(value, shape: tuple, key: str, where: str):
    """value, once it reads as finite floats of shape, None for any length;
    ParseError at where naming key otherwise."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        arr = np.array(np.nan)
    if (arr.ndim != len(shape) or not np.isfinite(arr).all()
            or any(n not in (None, m) for n, m in zip(shape, arr.shape))):
        dims = " x ".join("n" if n is None else str(n) for n in shape)
        what = f"a {dims} array of numbers" if shape else "a number"
        raise ParseError(f"{key!r} must be {what}", where=where)
    return value


def _listed(value, key: str, where: str, of=object) -> list:
    """value; ParseError at where naming key unless it is a list of of."""
    if not isinstance(value, list) or not all(isinstance(x, of) for x in value):
        raise ParseError(f"{key!r} must be a list{' of strings' if of is str else ''}",
                         where=where)
    return value


def _kernel(spec: dict, where: str, fields: dict):
    """The kernel object of spec and its generator fields (None for none);
    (None, None) without one."""
    kspec = spec.get("kernel")
    if not kspec:
        return None, None
    if not isinstance(kspec, dict):
        raise ParseError("'kernel' must be an object", where=where)
    gens = _listed(kspec.get("generators") or [], "generators", where)
    return kspec, [_ref(fields, g, where) for g in gens] or None


def _build_atlas(name: str, spec: dict) -> Atlas:
    kind = spec.get("kind")
    coords = _listed(spec.get("coords") or [], "coords", name, str) or None
    metric_exprs = spec.get("metric")
    if kind == "interval":
        lo, hi = _numbers(spec.get("box", [-1.0, 1.0]), (2,), "box", name)
        atlas = interval_atlas(lo, hi, coord_name=(coords or ["x"])[0], name=name)
    elif kind == "box":
        box = _numbers(_need(spec, "box", name), (None, 2), "box", name)
        atlas = box_atlas(box, coord_names=coords, name=name)
    elif kind == "circle":
        period = _numbers(spec.get("period", 2 * np.pi), (), "period", name)
        atlas = circle_atlas(period=period, name=name)
    elif kind == "torus":
        periods = spec.get("periods", (2 * np.pi, 2 * np.pi))
        atlas = torus_atlas(periods=_numbers(periods, (None,), "periods", name), name=name)
    elif kind == "mobius":
        atlas = mobius_atlas(name=name)
    elif kind == "union":
        charts = _need(spec, "charts", name)
        if not isinstance(charts, dict) or not charts:
            raise ParseError("'charts' must be a non-empty object", where=name)
        if len({len(_numbers(box, (None, 2), "charts", name)) for box in charts.values()}) > 1:
            raise ParseError("'charts' must be boxes of one dimension", where=name)
        atlas = union_atlas(charts, coord_names=coords, name=name)
    else:
        raise ParseError(f"unknown atlas kind {kind!r}", where=name)
    if metric_exprs:
        shape = (atlas.dim, atlas.dim)
        entries = compile_vector(_entries(metric_exprs, shape, "metric", name),
                                 atlas.coord_names)
        atlas = replace(atlas, metric_fn=lambda cid, X: entries(X).reshape(-1, *shape))
    return atlas


def _entries(exprs, shape: tuple, what: str, where: str) -> list:
    """The expressions of exprs, nested lists of the given shape, row-major;
    DimensionMismatch when they nest otherwise."""
    entries = np.array(exprs, dtype=object)
    if entries.shape != shape or any(isinstance(e, list) for e in entries.flat):
        raise DimensionMismatch(
            f"{what} of {where!r} must be {' x '.join(map(str, shape))} expressions")
    if not all(isinstance(e, str) for e in entries.flat):
        raise ParseError(f"{what!r} must hold expressions as strings", where=where)
    return entries.ravel().tolist()


def _build_map(name: str, spec: dict, atlases: dict) -> SmoothMap:
    src = _ref(atlases, _need(spec, "source", name), name)
    tgt = _ref(atlases, _need(spec, "target", name), name)
    value = compile_vector(_entries(_need(spec, "exprs", name), (tgt.dim,), "exprs", name),
                           src.coord_names)
    tgt_chart = tgt.charts[0].chart_id
    jac = None
    if "jacobian" in spec:
        shape = (tgt.dim, src.dim)
        entries = compile_vector(_entries(spec["jacobian"], shape, "jacobian", name),
                                 src.coord_names)

        def jac(cid, coords):
            return entries(coords).reshape(np.shape(coords)[:-1] + shape)

    return SmoothMap(
        source=src, target=tgt,
        raw=lambda cid, coords: (tgt_chart, value(coords)),
        raw_jacobian=jac, name=name,
    )


def _build_field(name: str, spec: dict, atlases: dict) -> VectorField:
    atlas = _ref(atlases, _need(spec, "atlas", name), name)
    value = compile_vector(_entries(_need(spec, "exprs", name), (atlas.dim,), "exprs", name),
                           atlas.coord_names)
    return VectorField(atlas, lambda cid, coords: value(coords), name=name)


def parse_scenario(source) -> Scenario:
    """Parse a scenario file (path or dict) into fully resolved objects."""
    if isinstance(source, (str, Path)):
        try:
            data = json.loads(Path(source).read_text())
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", where=str(source)) from exc
    else:
        data = source
    name = data.get("name", "scenario")

    atlases = {k: _build_atlas(k, v) for k, v in _section(data, "atlases").items()}
    maps = {k: _build_map(k, v, atlases) for k, v in _section(data, "maps").items()}
    fields = {k: _build_field(k, v, atlases) for k, v in _section(data, "fields").items()}

    systems = {}
    for k, v in _section(data, "systems").items():
        atlas = _ref(atlases, _need(v, "atlas", k), k)
        gens = tuple(_ref(fields, g, k)
                     for g in _listed(_need(v, "generators", k), "generators", k))
        systems[k] = GeneratedSystem(atlas, gens, label=k)

    morphisms = {}
    kernels = {}
    lifts = {}  # map name -> its one metric-lift morphism: lifts through it share a family
    for k, v in _section(data, "morphisms").items():
        phi = _ref(maps, _need(v, "map", k), k)
        target = _ref(systems, _need(v, "target_system", k), k)
        m, lifted = lift_system(target, phi, morphism=lifts.get(v["map"]))
        morphisms[k] = lifts[v["map"]] = m
        systems[f"{k}.system"] = lifted
        kspec, gens = _kernel(v, k, fields)
        if kspec:
            frame = kernel_frame(m, mode=kspec.get("mode", "chartwise"), generators=gens)
            kernels[k] = frame
            systems[f"{k}.augmented"] = augment_with_kernel(lifted, frame)

    second_order = {}
    for k, v in _section(data, "second_order").items():
        base = _ref(atlases, _need(v, "base", k), k)
        ta = tangent_atlas(base, v_bound=_numbers(v.get("v_bound", 2.0), (), "v_bound", k))
        var_names = ta.atlas.coord_names
        g_exprs, n = _listed(v.get("g", []), "g", k), base.dim
        gamma_fn = compile_vector(_entries(_need(v, "gamma", k), (n,), "gamma", k), var_names)
        g_fn = compile_vector(_entries(g_exprs, (len(g_exprs), n), "g", k) if g_exprs else [],
                              var_names)

        def gamma(cid, x, y, fn=gamma_fn):
            return fn(np.concatenate([x, y], axis=-1))

        def gmat(cid, x, y, fn=g_fn, shape=(len(g_exprs), n)):
            return fn(np.concatenate([x, y], axis=-1)).reshape(np.shape(x)[:-1] + shape)

        so = second_order_system(ta, gamma, gmat, len(g_exprs), label=k)
        second_order[k] = so
        # generated system of affine slices at sampled control values
        samples = v.get("control_samples")
        if samples is None and g_exprs:
            samples = [list(u) for u in np.eye(len(g_exprs))]
        if samples is not None:
            _numbers(samples, (None, len(g_exprs)), "control_samples", k)
            gens = []
            for u in samples:
                gens.append(combine_fields(
                    [so.drift, *so.control_fields], [1.0, *np.asarray(u, float)],
                    name=f"{k}^{u}"))
            systems[f"{k}.tcs"] = GeneratedSystem(ta.atlas, tuple(gens), label=f"{k}.tcs")

    for k, v in _section(data, "so_lifts").items():
        so = _ref(second_order, _need(v, "source", k), k)
        phi = _ref(maps, _need(v, "map", k), k)
        lifted, m = second_order_lift(so, phi)
        second_order[f"{k}.system"] = lifted
        morphisms[k] = m
        kspec, gens = _kernel(v, k, fields)
        if kspec:
            base_m = lifts.get(v["map"]) or metric_lift_morphism(phi)
            frame = kernel_frame(base_m, mode=kspec.get("mode", "global"), generators=gens)
            kernels[k] = frame
            amplitude = _numbers(v.get("control_amplitude", 1.0), (), "control_amplitude", k)
            systems[f"{k}.augmented"] = augment_second_order(lifted, frame,
                                                             control_amplitude=amplitude)

    connections = {}
    for k, v in _section(data, "connections").items():
        atlas = _ref(atlases, _need(v, "atlas", k), k)
        shape = (atlas.dim,) * 3
        chr_fn = compile_vector(_entries(_need(v, "christoffel", k), shape, "christoffel", k),
                                atlas.coord_names)

        def christoffel(cid, x, fn=chr_fn, shape=shape):
            return fn(x).reshape(np.shape(x)[:-1] + shape)

        controls = tuple(_ref(fields, g, k)
                         for g in _listed(v.get("controls", []), "controls", k))
        cs = ConnectionSystem(atlas, christoffel, controls, label=k,
                              v_bound=_numbers(v.get("v_bound", 2.0), (), "v_bound", k))
        connections[k] = cs
        spray = geodesic_spray(cs)
        second_order[f"{k}.spray"] = spray
        systems[f"{k}.spray.drift"] = GeneratedSystem(
            spray.tangent_atlas.atlas, (spray.drift,), label=f"{k}.spray.drift")

    experiments = list(_section(data, "experiments", list))
    scenario = Scenario(
        name=name, atlases=atlases, maps=maps, fields=fields, systems=systems,
        morphisms=morphisms, kernels=kernels, second_order=second_order,
        connections=connections, experiments=experiments, raw=data,
    )
    _validate_experiments(scenario)
    return scenario


def _validate_experiments(s: Scenario):
    for idx, exp in enumerate(s.experiments):
        kind = exp.get("kind")
        where = exp.get("name", f"experiment-{idx}")
        if not isinstance(kind, str) or kind not in _HANDLERS:
            raise ParseError(f"unknown experiment kind {kind!r}", where=where)
        for key in _REQUIRED[kind]:
            _need(exp, key, where)
        if kind == "second-order-check":
            _ref(s.second_order, exp["system"], where)
        elif "system" in exp:
            _ref(s.systems, exp["system"], where)
        for key, table in (("upstairs", s.systems), ("downstairs", s.systems),
                           ("target_system", s.systems), ("morphism", s.morphisms),
                           ("map", s.maps)):
            if key in exp:
                _ref(table, exp[key], where)
        if kind == "reach" and not (exp.get("starts") or "start" in exp):
            raise ParseError("a reach experiment needs 'start' or 'starts'", where=where)


# ---------------------------------------------------------------------------
# built-in scenarios


def builtin_scenario_names() -> list[str]:
    root = resources.files("liftreach").joinpath("data")
    return sorted(
        p.name[:-5] for p in root.iterdir()
        if p.name.endswith(".json") and not p.name.endswith(".expected.json")
    )


def builtin_scenario_path(name: str) -> Path:
    p = resources.files("liftreach").joinpath("data").joinpath(f"{name}.json")
    if not p.is_file():
        raise UnresolvedReference(name)
    return Path(str(p))


def load_builtin(name: str) -> Scenario:
    return parse_scenario(builtin_scenario_path(name))


def expected_verdicts(name: str) -> dict:
    p = resources.files("liftreach").joinpath("data").joinpath(f"{name}.expected.json")
    return json.loads(p.read_text())
