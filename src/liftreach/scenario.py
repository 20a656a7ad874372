"""Declarative scenario files: atlases, maps, fields, systems, morphism
requests, and experiment blocks, resolved into live objects at parse time."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, ParseError, UnresolvedReference
from .geometry import (
    Atlas,
    SmoothMap,
    VectorField,
    box_atlas,
    circle_atlas,
    combine_fields,
    expression_field,
    expression_map,
    expression_tensor,
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
from .runner import _KINDS, Entry
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


# the keys of each kind of scenario entry (_filled): the entries of each
# section, each kind of atlas, the kernel blocks, the top level and experiments
_ENTRIES = {
    "maps": Entry(("source", "target", "exprs"), {"jacobian": None}),
    "fields": Entry(("atlas", "exprs"), {}),
    "systems": Entry(("atlas", "generators"), {}),
    "morphisms": Entry(("map", "target_system"), {"kernel": None}),
    "second_order": Entry(("base", "gamma"),
                          {"g": [], "v_bound": 2.0, "control_samples": None}),
    "so_lifts": Entry(("source", "map"), {"kernel": None, "control_amplitude": 1.0}),
    "connections": Entry(("atlas", "christoffel"), {"controls": [], "v_bound": 2.0}),
}
_ATLASES = {
    "interval": Entry(("kind",), {"box": [-1.0, 1.0], "coords": None, "metric": None}),
    "box": Entry(("kind", "box"), {"coords": None, "metric": None}),
    "circle": Entry(("kind",), {"period": 2 * np.pi, "metric": None}),
    "torus": Entry(("kind",), {"periods": [2 * np.pi, 2 * np.pi], "metric": None}),
    "mobius": Entry(("kind",), {"metric": None}),
    "union": Entry(("kind", "charts"), {"coords": None, "metric": None}),
}
_KERNELS = {"morphisms": Entry((), {"mode": "chartwise", "generators": []}),
            "so_lifts": Entry((), {"mode": "global", "generators": []})}
_SCENARIO = Entry((), {"name": "scenario", **{key: {} for key in ("atlases", *_ENTRIES)},
                       "experiments": []})
# experiments by kind: named experiment-<index> when unnamed, and a reach may
# have one start in place of its starts
_EXPERIMENTS = {kind: Entry(("name", "kind", *k.required), {"start": None, **k.defaults}
                            if kind == "reach" else k.defaults) for kind, k in _KINDS.items()}


def _filled(entry: Entry, spec: dict, where, kind=None) -> dict:
    """spec with entry's defaults filled in, as a new dict; ParseError at
    where for a missing required key or an unknown key (of kind, if given)."""
    for key in entry.required:
        if key not in spec:
            raise ParseError(f"missing {key!r}", where=where)
    unknown = spec.keys() - {*entry.required, *entry.defaults}
    if unknown:
        raise ParseError(f"unknown key {min(unknown)!r}"
                         + f" for kind {kind!r}" * (kind is not None), where=where)
    return {**entry.defaults, **spec}


def _section(top: dict, key: str, kind=dict):
    """Section key of top: an object of objects, filled in where _ENTRIES has
    the section, or for kind list a list of objects; ParseError naming the
    section or the entry otherwise."""
    section = top[key]
    if not isinstance(section, kind):
        raise ParseError(f"must be {'a list' if kind is list else 'an object'}", where=key)
    for name, entry in section.items() if kind is dict else enumerate(section):
        if not isinstance(entry, dict):
            raise ParseError("must be an object", where=f"{key}[{name!r}]")
    if key in _ENTRIES:
        return {name: _filled(_ENTRIES[key], entry, name) for name, entry in section.items()}
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


def _kernel(kspec, where: str, fields: dict, entry: Entry):
    """The kernel frame mode of kernel block kspec, filled in from entry, and
    its generator fields (None for none); (None, None) without a kernel."""
    if kspec is None:
        return None, None
    if not isinstance(kspec, dict):
        raise ParseError("'kernel' must be an object", where=where)
    kernel = _filled(entry, kspec, where)
    if kernel["mode"] not in ("chartwise", "global"):
        raise ParseError(f"unknown kernel frame mode {kernel['mode']!r}", where=where)
    gens = _listed(kernel["generators"], "generators", where)
    return kernel["mode"], [_ref(fields, g, where) for g in gens] or None


def _build_atlas(name: str, spec: dict) -> Atlas:
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _ATLASES:
        raise ParseError(f"unknown atlas kind {kind!r}", where=name)
    spec = _filled(_ATLASES[kind], spec, name, kind)
    coords = (_listed(spec["coords"] or [], "coords", name, str) or None
              if "coords" in spec else None)
    if kind == "interval":
        lo, hi = _numbers(spec["box"], (2,), "box", name)
        atlas = interval_atlas(lo, hi, coord_name=(coords or ["x"])[0], name=name)
    elif kind == "box":
        box = _numbers(spec["box"], (None, 2), "box", name)
        atlas = box_atlas(box, coord_names=coords, name=name)
    elif kind == "circle":
        atlas = circle_atlas(_numbers(spec["period"], (), "period", name), name=name)
    elif kind == "torus":
        atlas = torus_atlas(_numbers(spec["periods"], (None,), "periods", name), name=name)
    elif kind == "mobius":
        atlas = mobius_atlas(name=name)
    else:  # union
        charts = spec["charts"]
        if not isinstance(charts, dict) or not charts:
            raise ParseError("'charts' must be a non-empty object", where=name)
        if len({len(_numbers(box, (None, 2), "charts", name)) for box in charts.values()}) > 1:
            raise ParseError("'charts' must be boxes of one dimension", where=name)
        atlas = union_atlas(charts, coord_names=coords, name=name)
    if spec["metric"]:
        shape = (atlas.dim, atlas.dim)
        atlas = replace(atlas, metric_fn=expression_tensor(
            _entries(spec["metric"], shape, "metric", name), atlas.coord_names, shape))
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
    src = _ref(atlases, spec["source"], name)
    tgt = _ref(atlases, spec["target"], name)
    exprs = _entries(spec["exprs"], (tgt.dim,), "exprs", name)
    if spec["jacobian"] is not None:
        _entries(spec["jacobian"], (tgt.dim, src.dim), "jacobian", name)
    return expression_map(src, tgt, exprs, spec["jacobian"], name=name)


def _build_field(name: str, spec: dict, atlases: dict) -> VectorField:
    atlas = _ref(atlases, spec["atlas"], name)
    return expression_field(atlas, _entries(spec["exprs"], (atlas.dim,), "exprs", name),
                            name=name)


def parse_scenario(source) -> Scenario:
    """Parse a scenario file (path or dict) into fully resolved objects."""
    data, where = source, "scenario"
    if isinstance(source, (str, Path)):
        where = str(source)
        try:
            data = json.loads(Path(source).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ParseError(f"invalid JSON: {exc}", where=where) from exc
    if not isinstance(data, dict):
        raise ParseError("must be an object", where=where)
    top = _filled(_SCENARIO, data, where)
    if not isinstance(top["name"], str):
        raise ParseError("'name' must be a string", where=where)

    atlases = {k: _build_atlas(k, v) for k, v in _section(top, "atlases").items()}
    maps = {k: _build_map(k, v, atlases) for k, v in _section(top, "maps").items()}
    fields = {k: _build_field(k, v, atlases) for k, v in _section(top, "fields").items()}

    systems = {}
    for k, v in _section(top, "systems").items():
        atlas = _ref(atlases, v["atlas"], k)
        gens = tuple(_ref(fields, g, k) for g in _listed(v["generators"], "generators", k))
        systems[k] = GeneratedSystem(atlas, gens, label=k)

    morphisms = {}
    kernels = {}
    lifts = {}  # map name -> its one metric-lift morphism
    lifted_by = {}  # (map name, target system name) -> its one lifted system
    scenario_lifts = {}  # (morphism name, target system name) -> lifted system
    for k, v in _section(top, "morphisms").items():
        phi = _ref(maps, v["map"], k)
        target = _ref(systems, v["target_system"], k)
        if v["map"] not in lifts:
            lifts[v["map"]] = metric_lift_morphism(phi)
        m = morphisms[k] = lifts[v["map"]]
        key = (v["map"], v["target_system"])
        if key not in lifted_by:
            lifted_by[key] = lift_system(target, phi, morphism=m)[1]
        lifted = systems[f"{k}.system"] = lifted_by[key]
        scenario_lifts[k, v["target_system"]] = lifted
        mode, gens = _kernel(v["kernel"], k, fields, _KERNELS["morphisms"])
        if mode:
            kernels[k] = frame = kernel_frame(m, mode=mode, generators=gens)
            systems[f"{k}.augmented"] = augment_with_kernel(lifted, frame)

    second_order = {}
    for k, v in _section(top, "second_order").items():
        base = _ref(atlases, v["base"], k)
        ta = tangent_atlas(base, v_bound=_numbers(v["v_bound"], (), "v_bound", k))
        g_exprs, n = _listed(v["g"], "g", k), base.dim
        gamma = _entries(v["gamma"], (n,), "gamma", k)
        g = _entries(g_exprs, (len(g_exprs), n), "g", k) if g_exprs else []
        so = second_order_system(ta, gamma, [g[j * n:(j + 1) * n] for j in range(len(g_exprs))],
                                 len(g_exprs), label=k)
        second_order[k] = so
        # generated system of affine slices at sampled control values
        samples = v["control_samples"]
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

    for k, v in _section(top, "so_lifts").items():
        so = _ref(second_order, v["source"], k)
        phi = _ref(maps, v["map"], k)
        lifted, m = second_order_lift(so, phi)
        second_order[f"{k}.system"] = lifted
        morphisms[k] = m
        mode, gens = _kernel(v["kernel"], k, fields, _KERNELS["so_lifts"])
        if mode:
            base_m = lifts.get(v["map"]) or metric_lift_morphism(phi)
            kernels[k] = frame = kernel_frame(base_m, mode=mode, generators=gens)
            amplitude = _numbers(v["control_amplitude"], (), "control_amplitude", k)
            systems[f"{k}.augmented"] = augment_second_order(lifted, frame,
                                                             control_amplitude=amplitude)

    connections = {}
    for k, v in _section(top, "connections").items():
        atlas = _ref(atlases, v["atlas"], k)
        shape = (atlas.dim,) * 3
        christoffel = expression_tensor(_entries(v["christoffel"], shape, "christoffel", k),
                                        atlas.coord_names, shape)
        controls = tuple(_ref(fields, g, k) for g in _listed(v["controls"], "controls", k))
        cs = ConnectionSystem(atlas, christoffel, controls, label=k,
                              v_bound=_numbers(v["v_bound"], (), "v_bound", k))
        connections[k] = cs
        try:
            spray = geodesic_spray(cs)
        except ValueError as exc:  # christoffel symbols that are not symmetric
            raise ParseError(str(exc), where=k) from exc
        second_order[f"{k}.spray"] = spray
        systems[f"{k}.spray.drift"] = GeneratedSystem(
            spray.tangent_atlas.atlas, (spray.drift,), label=f"{k}.spray.drift")

    experiments = list(_section(top, "experiments", list))
    scenario = Scenario(
        name=top["name"], atlases=atlases, maps=maps, fields=fields, systems=systems,
        morphisms=morphisms, kernels=kernels, second_order=second_order,
        connections=connections, experiments=experiments, raw=data,
        lifts=scenario_lifts,
    )
    _validate_experiments(scenario)
    return scenario


# number keys of experiments, whatever their kind: key -> (shape, least
# value, whether a value must exceed it); a key whose least value is 1 is a
# count, a whole number
_EXPERIMENT_NUMBERS = {
    "grid": ((), 1, False), "substeps": ((), 1, False), "samples": ((), 1, False),
    "schedules": ((), 1, False), "dwell": ((), 0, True), "step": ((), 0, True),
    "horizon": ((), 0, False), "times": ((None,), 0, True), "c": ((), None, False),
    "tol": ((), None, False), "tolerance": ((), None, False),
    "min_coverage": ((), None, False),
}


def _experiment_values(exp: dict, atlas, where: str) -> dict:
    """exp with its points filled in (_point); ParseError at where for a number,
    flag or point its handler cannot take, or a null where its default is not."""
    defaults = _EXPERIMENTS[exp["kind"]].defaults
    given = {key for key in exp
             if exp[key] is not None or key not in defaults or defaults[key] is not None}
    for key, (shape, least, strict) in _EXPERIMENT_NUMBERS.items():
        if key not in given:
            continue
        value = np.asarray(_numbers(exp[key], shape, key, where), dtype=float)
        items = exp[key] if shape else [exp[key]]
        count = least == 1
        if any(isinstance(v, bool) or (count and not isinstance(v, (int, np.integer)))
               for v in items):
            raise ParseError(f"{key!r} must be a {'whole ' * count}number", where=where)
        if least is not None and ((value <= least) if strict else (value < least)).any():
            raise ParseError(f"{key!r} must be {'above' if strict else 'at least'} {least}",
                             where=where)
    for key in sorted(given & {"expect", "verify"}):
        per_time = len(exp["times"]) if (key, exp["kind"]) == ("expect", "stlc") else None
        flags = exp[key]
        if not all(isinstance(f, bool) for f in (
                flags if isinstance(flags, list) and len(flags) == per_time else [flags])):
            raise ParseError(f"{key!r} must be true or false"
                             + ", or a list of them, one per time" * (per_time is not None),
                             where=where)
    points = {key: _point(exp[key], atlas, key, where) for key in ("start",) if key in given}
    points.update({key: [_point(p, atlas, key, where) for p in _listed(exp[key], key, where)]
                   for key in ("starts", "points") if key in given})
    return {**exp, **points}


def _point(spec, atlas: Atlas, key: str, where: str) -> dict:
    """spec, a point of key in atlas, filled in: in the first chart unless it
    names one; ParseError at where unless it has coords in a chart of atlas."""
    if not isinstance(spec, dict) or "coords" not in spec:
        raise ParseError(f"{key!r} must hold points: objects with 'coords'", where=where)
    point = _filled(Entry(("coords",), {"chart": atlas.charts[0].chart_id}), spec, where)
    _numbers(point["coords"], (atlas.dim,), key, where)
    if point["chart"] not in [c.chart_id for c in atlas.charts]:
        raise ParseError(f"{key!r} names no chart of atlas {atlas.name!r}", where=where)
    return point


def _validate_experiments(s: Scenario, experiments=None) -> dict:
    """experiments by index, s's own by default, filled in; ParseError naming
    the experiment for any that the handler of its kind cannot run in s."""
    filled = {}
    for idx, exp in (enumerate(s.experiments) if experiments is None else experiments.items()):
        exp = {"name": f"experiment-{idx}", **exp}
        kind, where = exp.get("kind"), exp["name"]
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ParseError(f"unknown experiment kind {kind!r}", where=where)
        exp = _filled(_EXPERIMENTS[kind], exp, where, kind)
        atlas = None
        if kind == "second-order-check":
            _ref(s.second_order, exp["system"], where)
        elif "system" in exp:
            atlas = _ref(s.systems, exp["system"], where).atlas
        for key, table in (("upstairs", s.systems), ("downstairs", s.systems),
                           ("target_system", s.systems), ("morphism", s.morphisms),
                           ("map", s.maps)):
            if key in exp:
                _ref(table, exp[key], where)
        if kind == "reach" and not (exp["starts"] or exp["start"] is not None):
            raise ParseError("a reach experiment needs 'start' or 'starts'", where=where)
        if kind == "global-in-time":
            atlas = s.morphisms[exp["morphism"]].phi.source
        filled[idx] = _experiment_values(exp, atlas, where)
    return filled


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
