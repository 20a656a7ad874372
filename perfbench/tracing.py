"""Outside-in layer tracing for the traced benchmark run.

Hooks wrap the public functions of each liftreach module from outside the
package; nothing inside the program is edited. Every wrapped call records
one span (layer, start, end, parent, experiment, points, value). Spans are
kept in flat arrays in memory and written when the run ends.

A layer's self time is its spans' durations minus the parts covered by
their child spans. Counts are in points evaluated, read from the shape of
the call's argument, so a batched call of N points counts N.

Hooks are installed on every binding of a target, taken from
``sys.modules`` (the package re-exports ``reach`` over the ``liftreach.reach``
submodule attribute, and several modules bind functions by name). A hook
whose target is missing is reported as absent and never stops the run.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import time
from array import array

import numpy as np


# metric -> (unit, layer hooks it needs)
METRICS = {
    "expressions.calls": ("count", ("expressions",)),
    "expressions.self_s": ("s", ("expressions",)),
    "geometry.normalize_calls": ("count", ("geometry.normalize",)),
    "geometry.normalize_self_s": ("s", ("geometry.normalize",)),
    "geometry.jacobian_calls": ("count", ("geometry.jacobian",)),
    "geometry.jacobian_self_s": ("s", ("geometry.jacobian",)),
    "systems.rk4_steps": ("count", ("systems.rk4",)),
    "systems.rk4_self_s": ("s", ("systems.rk4",)),
    "systems.flow_calls": ("count", ("systems.flow",)),
    "systems.flow_self_s": ("s", ("systems.flow",)),
    "systems.escapes": ("count", ("systems.flow",)),
    "morphisms.field_points": ("count", ("morphisms.field",)),
    "morphisms.field_self_s": ("s", ("morphisms.field",)),
    "morphisms.verify_s": ("s", ("morphisms.verify",)),
    "second_order.field_points": ("count", ("second_order.field",)),
    "second_order.field_self_s": ("s", ("second_order.field",)),
    "reach.calls": ("count", ("reach.reach",)),
    "reach.self_s": ("s", ("reach.reach",)),
    "reach.cells_visited": ("count", ("reach.reach",)),
    "reach.flow_integrations": ("count", ("reach.reach", "systems.flow")),
    "reach.new_cells_per_flow": ("cells/flow", ("reach.reach", "systems.flow")),
    "reach.cell_of_calls": ("count", ("reach.cell_of",)),
    "reach.cell_of_self_s": ("s", ("reach.cell_of",)),
    "reach.grid_setup_s": ("s", ("reach.grid_setup",)),
    "scenario.lift_build_s": ("s", ("scenario.lift_build",)),
    "runner.self_s": ("s", ("runner.run", "runner.handler")),
}


class _NeverRaised(Exception):
    pass


def _points(x, dim):
    """Points in an argument of `dim` coordinates each (1 for a single point)."""
    x = getattr(x, "coords", x)
    size = getattr(x, "size", None)
    if size is None:
        size = len(x)
    return max(1, size // dim) if dim else 1


def _leading(x):
    """Points in an argument whose layout is (N, d) when batched."""
    x = getattr(x, "coords", x)
    return 1 if np.ndim(x) <= 1 else len(x)


class Tracer:
    PARSE, RUN, CHECKS = -1, 0, -2   # experiment ids of spans outside experiments

    def __init__(self):
        self.layers = []              # layer id -> name
        self.experiments = ["(run)"]  # experiment id -> "scenario/name"
        self.exp_id = self.PARSE
        self.stack = [-1]
        self.start, self.end = array("q"), array("q")
        self.parent, self.points, self.value = array("i"), array("i"), array("i")
        self.layer, self.exp = array("h"), array("h")
        self.installed = set()
        self.missing = []

    # -- recording ---------------------------------------------------------

    def span(self, layer, fn, points=None, value=None, raised=_NeverRaised):
        """Wrap fn so each call records a span in `layer`.

        points(args) gives the points evaluated; value(result) or a raised
        exception of type `raised` (value 1) fills the span's value slot.
        """
        if layer not in self.layers:
            self.layers.append(layer)
        lid = self.layers.index(layer)
        st, en, par, pt, va = self.start, self.end, self.parent, self.points, self.value
        ly, ex, stack, clock, tracer = self.layer, self.exp, self.stack, time.perf_counter_ns, self

        def wrapper(*args, **kwargs):
            i = len(en)
            par.append(stack[-1])
            ly.append(lid)
            ex.append(tracer.exp_id)
            try:
                pt.append(points(args) if points is not None else 1)
            except Exception:
                pt.append(1)
            va.append(0)
            en.append(0)
            stack.append(i)
            st.append(clock())
            try:
                out = fn(*args, **kwargs)
            except raised:
                va[i] = 1
                raise
            finally:
                en[i] = clock()
                stack.pop()
            if value is not None:
                try:
                    va[i] = value(out)
                except Exception:
                    pass
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def field(self, layer, vf):
        """Copy of a VectorField whose func records spans in `layer`."""
        dim = vf.atlas.dim
        return dataclasses.replace(
            vf, func=self.span(layer, vf.func, points=lambda a: _points(a[1], dim)))

    # -- installation ------------------------------------------------------

    @staticmethod
    def _modules():
        return [m for n, m in sys.modules.items()
                if m is not None and (n == "liftreach" or n.startswith("liftreach."))]

    def _target(self, layer, module, attr):
        mod = sys.modules.get(module)
        obj = mod
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            self.missing.append(f"{module}.{attr}")
            return None
        self.installed.add(layer)
        return obj

    def _rebind(self, original, wrapper, skip=()):
        """Point every liftreach binding of `original` at `wrapper`."""
        for mod in self._modules():
            if mod.__name__ in skip:
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)

    def hook_function(self, layer, module, attr, **kw):
        fn = self._target(layer, module, attr)
        if fn is not None:
            self._rebind(fn, self.span(layer, fn, **kw))

    def hook_method(self, layer, module, attr, **kw):
        fn = self._target(layer, module, attr)
        if fn is not None:
            cls_name, name = attr.split(".")
            setattr(getattr(sys.modules[module], cls_name), name, self.span(layer, fn, **kw))

    def hook_factory(self, layer, module, attr, post, skip_home=False):
        """Rebind a function whose result is rewritten by post(result, args, kwargs)."""
        fn = self._target(layer, module, attr)
        if fn is None:
            return

        def wrapper(*args, **kwargs):
            return post(fn(*args, **kwargs), args, kwargs)

        self._rebind(fn, wrapper, skip=(module,) if skip_home else ())

    def install(self):
        """Install every hook. Call after importing liftreach, before parsing."""
        lr = "liftreach."
        escape = getattr(sys.modules.get(lr + "errors"), "Escape", _NeverRaised)

        def compiled(out, args, kwargs):
            variables = args[1] if len(args) > 1 else kwargs.get("variables", ())
            dim = len(list(variables))
            return self.span("expressions", out, points=lambda a: _points(a[0], dim))

        # compile_vector calls compile_expr inside expressions.py; hooking the
        # outside bindings only keeps one span per evaluated expression vector
        self.hook_factory("expressions", lr + "expressions", "compile_expr", compiled, True)
        self.hook_factory("expressions", lr + "expressions", "compile_vector", compiled, True)

        self.hook_method("geometry.normalize", lr + "geometry", "Atlas.normalize",
                         points=lambda a: _points(a[2], a[0].dim))
        self.hook_method("geometry.jacobian", lr + "geometry", "SmoothMap.raw_jac_at",
                         points=lambda a: _points(a[2], a[0].source.dim))
        self.hook_method("geometry.jacobian", lr + "geometry", "SmoothMap.jacobian",
                         points=lambda a: _points(a[1], a[0].source.dim))

        self.hook_function("systems.rk4", lr + "systems", "rk4_step",
                           points=lambda a: _leading(a[2]))
        self.hook_function("systems.flow", lr + "systems", "flow_field",
                           points=lambda a: _leading(a[2]), raised=escape)

        lift = self._target("morphisms.field", lr + "morphisms", "Morphism.lift")
        if lift is not None:
            sys.modules[lr + "morphisms"].Morphism.lift = (
                lambda m, Y: self.field("morphisms.field", lift(m, Y)))
        frame_fn = self._target("morphisms.field", lr + "morphisms", "kernel_frame")
        if frame_fn is not None:
            signature = inspect.signature(frame_fn)

            def frame(out, args, kwargs):
                given = signature.bind(*args, **kwargs).arguments.get("generators") or ()
                fields = tuple(f if any(f is g for g in given)
                               else self.field("morphisms.field", f) for f in out.fields)
                return dataclasses.replace(out, fields=fields)

            self.hook_factory("morphisms.field", lr + "morphisms", "kernel_frame", frame)
        for name in ("verify_trajectory_preserving", "verify_global_in_time",
                     "check_liftable"):
            self.hook_function("morphisms.verify", lr + "morphisms", name)

        self.hook_factory(
            "second_order.field", lr + "second_order", "second_order_system",
            lambda so, a, k: dataclasses.replace(
                so, drift=self.field("second_order.field", so.drift),
                control_fields=tuple(self.field("second_order.field", f)
                                     for f in so.control_fields)))
        self.hook_factory("second_order.field", lr + "second_order", "vertical_lift",
                          lambda vf, a, k: self.field("second_order.field", vf))

        self.hook_function("reach.reach", lr + "reach", "reach",
                           value=lambda rep: len(rep.arrivals))
        self.hook_method("reach.cell_of", lr + "reach", "Grid.cell_of",
                         points=lambda a: _points(a[1], a[0].atlas.dim))
        self.hook_method("reach.grid_setup", lr + "reach", "Grid.all_valid_cells")
        self.hook_method("reach.grid_setup", lr + "reach", "Grid.neighbors")

        self.hook_function("scenario.lift_build", lr + "morphisms", "augment_with_kernel")
        self.hook_function("scenario.lift_build", lr + "second_order", "augment_second_order")
        self.hook_function("scenario.lift_build", lr + "morphisms", "lift_system")
        self.hook_function("scenario.lift_build", lr + "morphisms", "kernel_frame")

        self.hook_function("runner.run", lr + "runner", "run")
        handlers = self._target("runner.handler", lr + "runner", "_HANDLERS")
        if handlers is not None:
            for kind, fn in list(handlers.items()):
                handlers[kind] = self._experiment(self.span("runner.handler", fn))

    def _experiment(self, handler):
        """Give every span inside one experiment handler a shared id."""
        def wrapper(scenario, exp, *args, **kwargs):
            self.exp_id = len(self.experiments)
            try:
                label = f"{scenario.name}/{exp['name']}"
            except Exception:  # a renamed field must not stop the run
                label = "?"
            self.experiments.append(label)
            try:
                return handler(scenario, exp, *args, **kwargs)
            finally:
                self.exp_id = self.RUN
        return wrapper

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        """Copies of the span columns (views would pin the growing arrays)."""
        return {name: np.array(getattr(self, name), dtype=dtype) for name, dtype in (
            ("start", np.int64), ("end", np.int64), ("parent", np.int32),
            ("layer", np.int16), ("exp", np.int16), ("points", np.int32),
            ("value", np.int32))}

    def write(self, path):
        np.savez(path, layers=np.array(self.layers), experiments=np.array(self.experiments),
                 **self.arrays())

    def layer_metrics(self) -> dict:
        """Per-layer metrics over the run phase; None marks an absent hook."""
        a = self.arrays()
        n = len(a["end"])
        dur = (a["end"] - a["start"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        parent = np.where(has_parent, a["parent"], 0)
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_ns = dur - child
        layer = a["layer"]
        parent_layer = np.where(has_parent, layer[parent], -1)
        outermost = parent_layer != layer  # nested calls within a layer count once
        running = a["exp"] >= self.RUN

        def ids(name):
            return self.layers.index(name) if name in self.layers else -1

        def sel(name, phase=running):
            return (layer == ids(name)) & phase

        def count(name):
            return int(a["points"][sel(name) & outermost].sum())

        def self_s(name):
            return float(self_ns[sel(name)].sum()) / 1e9

        def total_s(name, phase=running):
            return float(dur[sel(name, phase) & outermost].sum()) / 1e9

        reach, flow = sel("reach.reach"), sel("systems.flow")
        flows_in_reach = int((flow & (parent_layer == ids("reach.reach"))).sum())
        cells = int(a["value"][reach].sum())
        values = {
            "expressions.calls": count("expressions"),
            "expressions.self_s": self_s("expressions"),
            "geometry.normalize_calls": count("geometry.normalize"),
            "geometry.normalize_self_s": self_s("geometry.normalize"),
            "geometry.jacobian_calls": count("geometry.jacobian"),
            "geometry.jacobian_self_s": self_s("geometry.jacobian"),
            "systems.rk4_steps": count("systems.rk4"),
            "systems.rk4_self_s": self_s("systems.rk4"),
            "systems.flow_calls": count("systems.flow"),
            "systems.flow_self_s": self_s("systems.flow"),
            "systems.escapes": int(a["value"][flow].sum()),
            "morphisms.field_points": count("morphisms.field"),
            "morphisms.field_self_s": self_s("morphisms.field"),
            "morphisms.verify_s": total_s("morphisms.verify"),
            "second_order.field_points": count("second_order.field"),
            "second_order.field_self_s": self_s("second_order.field"),
            "reach.calls": int((reach & outermost).sum()),
            "reach.self_s": self_s("reach.reach"),
            "reach.cells_visited": cells,
            "reach.flow_integrations": flows_in_reach,
            "reach.new_cells_per_flow": cells / flows_in_reach if flows_in_reach else 0.0,
            "reach.cell_of_calls": count("reach.cell_of"),
            "reach.cell_of_self_s": self_s("reach.cell_of"),
            "reach.grid_setup_s": total_s("reach.grid_setup"),
            "scenario.lift_build_s": total_s("scenario.lift_build", a["exp"] == self.PARSE),
            "runner.self_s": self_s("runner.run"),
        }
        for name, (_, needs) in METRICS.items():
            if not all(layer_name in self.installed for layer_name in needs):
                values[name] = None
        return values
