"""Span tracing of ncprob's layers, installed from outside the program.

Every public function and public method defined in a layer module is
replaced, in every ncprob namespace that binds it, by a wrapper that records
a span (name, start, end, parent).  ``from .x import f`` copies the binding,
so e.g. ``harness.iterate_f`` and ``cli.flow_map`` are patched alongside
``convolutions.iterate_f`` and ``idiv.flow_map``.  The hottest leaves get
count-only wrappers; their time counts toward the layer that called them.

Self time is computed as the span runs: a span's duration minus the time its
child spans cover.  Spans are kept in compact in-memory arrays and written
out once, at the end of the run.
"""

from __future__ import annotations

import array
import gzip
import inspect
import json
import sys
import time

LAYERS = ("cli", "harness", "convolutions", "idiv", "circle", "transforms",
          "rational", "solvers", "measures")

#: (module, qualified name, metric name): counted, never timed.  These run
#: millions of times per workload; a span each would dominate the run.
COUNT_ONLY = (
    ("idiv", "phi_eval", "idiv.phi_eval"),
    ("circle", "CircleGenerator.a_eval", "circle.a_eval"),
    ("measures", "FiniteAtomicMeasure.atoms", "measures.atoms"),
    ("rational", "RationalMap.__call__", "rational.eval"),
)

#: dunder methods that get a span under a chosen name
_SPAN_DUNDERS = {
    ("measures", "FiniteAtomicMeasure.__post_init__"): "measures.new",
    ("measures", "CircleMeasure.__post_init__"): "measures.new",
    ("rational", "RationalMap.__post_init__"): "rational.RationalMap",
}



class Tracer:
    """Records spans and per-name counters while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.names = []
        self._name_id = {}
        self.layer_of = []
        # one entry per span: name id, parent span index, start, end, failed
        self.span_name = array.array("l")
        self.span_parent = array.array("l")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.span_failed = array.array("b")
        self.counts = {}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.calls = {}
        self.failed = {}
        self.busy_s = {}
        self.layer_failed = {layer: 0 for layer in LAYERS}
        self._stack = []  # [span index, name id, start, child seconds]
        self._depth = {}

    def _intern(self, name):
        nid = self._name_id.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_id[name] = nid
            self.names.append(name)
            self.layer_of.append(name.split(".", 1)[0])
        return nid

    def span(self, name, fn):
        nid = self._intern(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.span_start)
            parent = self._stack[-1][0] if self._stack else -1
            depth = self._depth.get(nid, 0)
            self._depth[nid] = depth + 1
            start = clock()
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_start.append(start)
            self.span_end.append(start)
            self.span_failed.append(0)
            frame = [idx, nid, start, 0.0]
            self._stack.append(frame)
            failed = False
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = clock()
                self._stack.pop()
                self._depth[nid] = depth
                dur = end - start
                self.span_end[idx] = end
                layer = self.layer_of[nid]
                self.self_s[layer] += dur - frame[3]
                self.calls[name] = self.calls.get(name, 0) + 1
                if depth == 0:
                    self.busy_s[name] = self.busy_s.get(name, 0.0) + dur
                if self._stack:
                    self._stack[-1][3] += dur
                if failed:
                    self.span_failed[idx] = 1
                    self.failed[name] = self.failed.get(name, 0) + 1
                    outer = self.layer_of[self._stack[-1][1]] if self._stack else None
                    if outer != layer:
                        self.layer_failed[layer] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path, meta):
        """Write every span as parallel arrays, gzip-compressed JSON."""
        doc = {
            "meta": meta,
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "failed": self.span_failed.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _ncprob_namespaces():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ncprob" or name.startswith("ncprob."))]


def _rebind(original, replacement, namespaces):
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, attr, replacement)


def install(tracer):
    """Wrap every public callable of every layer; returns an undo function."""
    import ncprob  # noqa: F401  (loads every layer module)

    namespaces = _ncprob_namespaces()
    undo = []
    count_only = {(mod, qual): metric for mod, qual, metric in COUNT_ONLY}

    def patch_function(layer, fn):
        qual = fn.__qualname__
        metric = count_only.get((layer, qual))
        if metric:
            wrapped = tracer.counter(metric, fn)
        elif (layer, qual) == ("convolutions", "free_convolve_F"):
            # the per-point subordination solver is the closure this returns
            wrapped = tracer.span(f"{layer}.{qual}", lambda *a, **k: tracer.span(
                "convolutions.subordination", fn(*a, **k)))
        else:
            wrapped = tracer.span(f"{layer}.{qual}", fn)
        _rebind(fn, wrapped, namespaces)
        undo.append(lambda fn=fn, wrapped=wrapped: _rebind(wrapped, fn, namespaces))

    def patch_class(layer, cls):
        for attr, raw in list(vars(cls).items()):
            qual = f"{cls.__name__}.{attr}"
            key = (layer, qual)
            if isinstance(raw, property):
                # only counted properties are wrapped: ``is_zero`` runs once
                # per RK4 step, and a span each would swamp the flow's time
                if key not in count_only:
                    continue
                new = property(tracer.counter(count_only[key], raw.fget))
            elif isinstance(raw, (classmethod, staticmethod)):
                if attr.startswith("_"):
                    continue
                new = type(raw)(tracer.span(f"{layer}.{qual}", raw.__func__))
            elif inspect.isfunction(raw):
                if key in count_only:
                    new = tracer.counter(count_only[key], raw)
                elif key in _SPAN_DUNDERS:
                    new = tracer.span(_SPAN_DUNDERS[key], raw)
                elif attr.startswith("_"):
                    continue
                else:
                    new = tracer.span(f"{layer}.{qual}", raw)
            else:
                continue
            setattr(cls, attr, new)
            undo.append(lambda cls=cls, attr=attr, raw=raw: setattr(cls, attr, raw))

    for layer in LAYERS:
        module = sys.modules[f"ncprob.{layer}"]
        for attr, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                patch_class(layer, obj)
            elif inspect.isfunction(obj) and not attr.startswith("_"):
                patch_function(layer, obj)

    def uninstall():
        for step in reversed(undo):
            step()

    return uninstall


def _ratio(ok, attempted):
    return ok / attempted if attempted else 0.0


def layer_metrics(tracer):
    """The per-layer metrics named in BENCHMARK.json, from one traced pass."""
    calls, failed, busy, counts = tracer.calls, tracer.failed, tracer.busy_s, tracer.counts
    exact_calls = calls.get("convolutions.boolean_convolve", 0) + calls.get(
        "convolutions.monotone_convolve", 0)
    exact_failed = failed.get("convolutions.boolean_convolve", 0) + failed.get(
        "convolutions.monotone_convolve", 0)
    newton_calls = calls.get("solvers.newton", 0)
    out = {f"{layer}.self_s": (tracer.self_s[layer], "s") for layer in LAYERS}
    out.update({
        "idiv.flow_map.calls": (calls.get("idiv.flow_map", 0), "count"),
        "idiv.flow_map.busy_s": (busy.get("idiv.flow_map", 0.0), "s"),
        "idiv.phi_eval.calls": (counts.get("idiv.phi_eval", 0), "count"),
        "idiv.failed": (tracer.layer_failed["idiv"], "count"),
        "measures.atoms.calls": (counts.get("measures.atoms", 0), "count"),
        "measures.new.calls": (calls.get("measures.new", 0), "count"),
        "circle.a_eval.calls": (counts.get("circle.a_eval", 0), "count"),
        "circle.circle_flow_map.calls": (calls.get("circle.circle_flow_map", 0), "count"),
        "circle.monotone_power_eta.busy_s": (busy.get("circle.monotone_power_eta", 0.0), "s"),
        "circle.circle_monotone_flow.busy_s": (
            busy.get("circle.circle_monotone_flow", 0.0), "s"),
        "convolutions.iterate_f.calls": (calls.get("convolutions.iterate_f", 0), "count"),
        "convolutions.free_power_eval.calls": (
            calls.get("convolutions.free_power_eval", 0), "count"),
        "convolutions.free_power_eval.failed": (
            failed.get("convolutions.free_power_eval", 0), "count"),
        "convolutions.exact_ok_ratio": (_ratio(exact_calls - exact_failed, exact_calls), "ratio"),
        "convolutions.subordination.calls": (
            calls.get("convolutions.subordination", 0), "count"),
        "convolutions.subordination.failed": (
            failed.get("convolutions.subordination", 0), "count"),
        "convolutions.subordination.busy_s": (
            busy.get("convolutions.subordination", 0.0), "s"),
        "harness.run_powers.calls": (calls.get("harness.run_powers", 0), "count"),
        "harness.run_powers.failed": (failed.get("harness.run_powers", 0), "count"),
        "rational.compose.calls": (calls.get("rational.RationalMap.compose", 0), "count"),
        "rational.real_roots.calls": (calls.get("rational.real_roots", 0), "count"),
        "rational.RationalMap.calls": (calls.get("rational.RationalMap", 0), "count"),
        "rational.eval.calls": (counts.get("rational.eval", 0), "count"),
        "transforms.recover_measure.calls": (calls.get("transforms.recover_measure", 0), "count"),
        "transforms.recover_measure.failed": (
            failed.get("transforms.recover_measure", 0), "count"),
        "transforms.f_transform.calls": (calls.get("transforms.f_transform", 0), "count"),
        "transforms.cauchy_G.calls": (calls.get("transforms.cauchy_G", 0), "count"),
        "transforms.stieltjes_invert.busy_s": (
            busy.get("transforms.stieltjes_invert", 0.0), "s"),
        "solvers.newton.calls": (newton_calls, "count"),
        "solvers.newton.failed": (failed.get("solvers.newton", 0), "count"),
        "solvers.newton.ok_ratio": (
            _ratio(newton_calls - failed.get("solvers.newton", 0), newton_calls), "ratio"),
    })
    return out
