"""Declarative scenario files: atlases, maps, fields, systems, morphism
requests, and experiment blocks, resolved into live objects at parse time."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, ParseError, UnresolvedReference
from .expressions import compile_vector, substitute
from .geometry import (
    Atlas,
    SmoothMap,
    VectorField,
    box_atlas,
    circle_atlas,
    combine_fields,
    expression_field,
    interval_atlas,
    mobius_atlas,
    torus_atlas,
    union_atlas,
)
from .morphisms import (
    Morphism,
    augment_with_kernel,
    grams_pass,
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
    # (morphism, target system) -> lifted system: those parsing built, then
    # each further lift a run asks for, once
    lifts: dict = field(default_factory=dict)

    def system(self, name: str) -> GeneratedSystem:
        return _ref(self.systems, name)

    def lifted(self, morphism: str, target: str) -> GeneratedSystem:
        """The lift of system target through morphism, built once."""
        if (morphism, target) not in self.lifts:
            m = self.morphisms[morphism]
            self.lifts[morphism, target] = lift_system(self.system(target), m.phi, morphism=m)[1]
        return self.lifts[morphism, target]


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


def _kernel(spec: dict, where: str, fields: dict, mode: str):
    """The kernel frame mode of spec, mode by default, and its generator
    fields (None for none); (None, None) without a kernel."""
    kspec = spec.get("kernel")
    if not kspec:
        return None, None
    if not isinstance(kspec, dict):
        raise ParseError("'kernel' must be an object", where=where)
    mode = kspec.get("mode", mode)
    if mode not in ("chartwise", "global"):
        raise ParseError(f"unknown kernel frame mode {mode!r}", where=where)
    gens = _listed(kspec.get("generators") or [], "generators", where)
    return mode, [_ref(fields, g, where) for g in gens] or None


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
    return expression_field(
        atlas, _entries(_need(spec, "exprs", name), (atlas.dim,), "exprs", name), name=name)


def _closed_form(m: Morphism, spec: dict) -> Morphism:
    """m, lifting a field with expressions as one generated fill where spec's
    map has a jacobian block, a 1-D target and a source without a metric.
    The fill takes W = 0.0 + J_0 J_0 + ..., as matmul sums it, tests it as
    _right_inverse does before it divides, and fills column j with
    J_j (Y o Phi / W) + 0.0, so it is the generic lift bit for bit. A stack
    that fails the Gram test, and any other field, takes m's generic lift."""
    phi = m.phi
    if "jacobian" not in spec or phi.target.dim != 1 or phi.source.metric_fn is not None:
        return m
    names = phi.source.coord_names
    pre = "_" * (1 + max(map(len, names), default=0))  # local names no coordinate can take
    J = [(f"{pre}J{j}", e) for j, e in enumerate(spec["jacobian"][0])]
    W = (f"{pre}W", " + ".join(["0.0"] + [f"{j} * {j}" for j, _ in J]))

    def lift_rule(Y: VectorField) -> VectorField:
        generic = m.lift_rule(Y)
        if Y.exprs is None or Y.atlas.dim != 1:
            return generic
        y = substitute(Y.exprs[0], {Y.atlas.coord_names[0]: spec["exprs"][0]})
        # W is one float for every row when J is constant: the stack is empty when out is
        fill = compile_vector([f"{j} * {pre}q + 0.0" for j, _ in J], names,
                              lets=[*J, W, (f"{pre}q", f"({y}) / {W[0]}")],
                              guard=(W[0], lambda w, out: out.size > 0 and grams_pass(w)))

        def lift(cid, coords):
            out = fill(coords)
            return generic.func(cid, coords) if out is None else out

        return replace(generic, func=lift)

    return replace(m, lift_rule=lift_rule)


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
    map_specs, field_specs = _section(data, "maps"), _section(data, "fields")
    maps = {k: _build_map(k, v, atlases) for k, v in map_specs.items()}
    fields = {k: _build_field(k, v, atlases) for k, v in field_specs.items()}

    systems = {}
    for k, v in _section(data, "systems").items():
        atlas = _ref(atlases, _need(v, "atlas", k), k)
        gens = tuple(_ref(fields, g, k)
                     for g in _listed(_need(v, "generators", k), "generators", k))
        systems[k] = GeneratedSystem(atlas, gens, label=k)

    morphisms = {}
    kernels = {}
    lifts = {}  # map name -> its one metric-lift morphism
    lifted_by = {}  # (map name, target system name) -> its one lifted system
    scenario_lifts = {}  # (morphism name, target system name) -> lifted system
    for k, v in _section(data, "morphisms").items():
        phi = _ref(maps, _need(v, "map", k), k)
        target = _ref(systems, _need(v, "target_system", k), k)
        if v["map"] not in lifts:
            lifts[v["map"]] = _closed_form(metric_lift_morphism(phi), map_specs[v["map"]])
        m = morphisms[k] = lifts[v["map"]]
        key = (v["map"], v["target_system"])
        if key not in lifted_by:
            lifted_by[key] = lift_system(target, phi, morphism=m)[1]
        lifted = systems[f"{k}.system"] = lifted_by[key]
        scenario_lifts[k, v["target_system"]] = lifted
        mode, gens = _kernel(v, k, fields, "chartwise")
        if mode:
            kernels[k] = frame = kernel_frame(m, mode=mode, generators=gens)
            systems[f"{k}.augmented"] = augment_with_kernel(lifted, frame)

    second_order = {}
    for k, v in _section(data, "second_order").items():
        base = _ref(atlases, _need(v, "base", k), k)
        ta = tangent_atlas(base, v_bound=_numbers(v.get("v_bound", 2.0), (), "v_bound", k))
        g_exprs, n = _listed(v.get("g", []), "g", k), base.dim
        gamma = _entries(_need(v, "gamma", k), (n,), "gamma", k)
        g = _entries(g_exprs, (len(g_exprs), n), "g", k) if g_exprs else []
        so = second_order_system(ta, gamma, [g[j * n:(j + 1) * n] for j in range(len(g_exprs))],
                                 len(g_exprs), label=k)
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
        mode, gens = _kernel(v, k, fields, "global")
        if mode:
            base_m = lifts.get(v["map"]) or metric_lift_morphism(phi)
            kernels[k] = frame = kernel_frame(base_m, mode=mode, generators=gens)
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
        try:
            spray = geodesic_spray(cs)
        except ValueError as exc:  # christoffel symbols that are not symmetric
            raise ParseError(str(exc), where=k) from exc
        second_order[f"{k}.spray"] = spray
        systems[f"{k}.spray.drift"] = GeneratedSystem(
            spray.tangent_atlas.atlas, (spray.drift,), label=f"{k}.spray.drift")

    experiments = list(_section(data, "experiments", list))
    scenario = Scenario(
        name=name, atlases=atlases, maps=maps, fields=fields, systems=systems,
        morphisms=morphisms, kernels=kernels, second_order=second_order,
        connections=connections, experiments=experiments, raw=data,
        lifts=scenario_lifts,
    )
    _validate_experiments(scenario)
    return scenario


# number keys of experiments: key -> (shape, least value, whether a value
# must exceed it); a count is a whole number, and a key whose handler takes
# None for its default may be null where it is not required
_EXPERIMENT_NUMBERS = {
    "grid": ((), 1, False), "substeps": ((), 1, False), "samples": ((), 1, False),
    "schedules": ((), 1, False), "dwell": ((), 0, True), "step": ((), 0, True),
    "horizon": ((), 0, False), "times": ((None,), 0, True), "c": ((), None, False),
    "tol": ((), None, False), "tolerance": ((), None, False),
    "min_coverage": ((), None, False),
}
_COUNTS = ("grid", "substeps", "samples", "schedules")
_NULLABLE = ("dwell", "tolerance", "min_coverage")


def _experiment_values(exp: dict, atlas, where: str):
    """ParseError at where for a number or point of exp its handler cannot
    take; points are objects with coords in atlas (None when exp has none)."""
    for key, (shape, least, strict) in _EXPERIMENT_NUMBERS.items():
        if key not in exp or (exp[key] is None and key in _NULLABLE
                              and key not in _REQUIRED[exp["kind"]]):
            continue
        value = np.asarray(_numbers(exp[key], shape, key, where), dtype=float)
        items = exp[key] if shape else [exp[key]]
        if any(isinstance(v, bool) or (key in _COUNTS and not isinstance(v, (int, np.integer)))
               for v in items):
            raise ParseError(f"{key!r} must be a {'whole ' * (key in _COUNTS)}number",
                             where=where)
        if least is not None and ((value <= least) if strict else (value < least)).any():
            raise ParseError(f"{key!r} must be {'above' if strict else 'at least'} {least}",
                             where=where)
    if atlas is None:
        return
    points = [(key, exp[key]) for key in ("start",) if key in exp]
    points += [(key, p) for key in ("starts", "points") if key in exp
               for p in _listed(exp[key], key, where)]
    for key, spec in points:
        if not isinstance(spec, dict) or "coords" not in spec:
            raise ParseError(f"{key!r} must hold points: objects with 'coords'", where=where)
        _numbers(spec["coords"], (atlas.dim,), key, where)
        if spec.get("chart", atlas.charts[0].chart_id) not in [c.chart_id for c in atlas.charts]:
            raise ParseError(f"{key!r} names no chart of atlas {atlas.name!r}", where=where)


def _validate_experiments(s: Scenario, experiments=None):
    """ParseError naming the experiment for any of experiments, s's own by
    default, that the handler of its kind cannot run in s."""
    for idx, exp in enumerate(s.experiments if experiments is None else experiments):
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
        atlas = (s.morphisms[exp["morphism"]].phi.source if kind == "global-in-time"
                 else s.systems[exp["system"]].atlas if exp.get("system") in s.systems
                 else None)
        _experiment_values(exp, atlas, where)


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
