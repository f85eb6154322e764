"""Span tracing of the lpbounds layers, installed from outside the package.

The benchmark never edits ``src/``.  It times a layer by replacing that
layer's public names (each module's ``__all__``) with wrappers that record
one span per call: layer, name, parent span, thread, wall interval, process
CPU time, and the number of points handled.  Every other lpbounds module
that re-binds one of those names (``from .quadrature import measure``) gets
the wrapper too, so calls through the re-bound copy are traced as well.
Private helpers (leading underscore) are never wrapped: their cost shows up
as the self time of the public call that runs them.

``ScalarField.fn``/``grad_fn``/``hess_fn`` are instance attributes, so they
are wrapped when a field is constructed, and the four random field
factories tag the fields they return with a family name
(``laplace_one``, ``heat_one_n<n>``, ``harmonic``, ``caloric_n<n>``).

Spans are kept in memory and reduced to per-layer metrics by ``analyse``.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import sys
import threading
import types
from time import perf_counter, process_time

# Outermost first: a call in one of these layers normally runs the later ones.
LAYERS = ("cli", "verify", "constants", "counterexamples", "averages",
          "quadrature", "fields", "geometry")
# The layers whose first call ends set-up (cli and verify only resolve
# arguments and configs before they reach one of these).
NUMERIC_LAYERS = LAYERS[2:]

FIELD_CALLS = {"fn": "fn", "grad_fn": "grad", "hess_fn": "hess"}
FAMILIES = {
    "random_laplace_one": lambda f: "laplace_one",
    "random_heat_one": lambda f: f"heat_one_n{f.dim - 1}",
    "random_harmonic": lambda f: "harmonic",
    "random_caloric": lambda f: f"caloric_n{f.dim - 1}",
}


def _count(p) -> int:
    """Number of points in a point or an (N, d) array of points."""
    shape = getattr(p, "shape", None)
    if shape is not None:
        return int(shape[0]) if len(shape) >= 2 else 1
    return len(p) if p and isinstance(p[0], (list, tuple)) else 1


class Span:
    __slots__ = ("sid", "parent", "layer", "name", "family", "thread", "t0",
                 "t1", "cpu", "points", "accepted")

    def __init__(self, sid, parent, layer, name, family, thread, t0, t1, cpu,
                 points, accepted):
        self.sid = sid
        self.parent = parent
        self.layer = layer
        self.name = name
        self.family = family
        self.thread = thread
        self.t0 = t0
        self.t1 = t1
        self.cpu = cpu
        self.points = points
        self.accepted = accepted


class Tracer:
    """Records spans.  A span started on a thread with no open span of its
    own (a quadrature pool worker) takes the main thread's innermost open
    span as its parent: only the main thread starts pools in lpbounds."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._local = threading.local()

    def call(self, layer, name, fn, args, kwargs, points=0, family=None):
        ident = threading.get_ident()
        if ident == self._main_ident:
            stack = self._main_stack
            parent = stack[-1] if stack else 0
        else:
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            main = self._main_stack
            parent = stack[-1] if stack else (main[-1] if main else 0)
        sid = next(self._ids)
        stack.append(sid)
        c0 = process_time()
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            cpu = process_time() - c0
            stack.pop()
        accepted = 0
        if name == "contains":
            accepted = int(out.sum()) if hasattr(out, "sum") else int(bool(out))
        self.spans.append(Span(sid, parent, layer, name, family, ident, t0,
                               t1, cpu, points, accepted))
        return out


class FirstNumericCall(BaseException):
    """Raised by ``SetupProbe`` at the first call into a numeric layer.

    A BaseException, so no ``except Exception`` in the program swallows it.
    """


class SetupProbe(Tracer):
    """Lets cli and verify calls through and stops at the first numeric one."""

    def __init__(self):
        super().__init__()
        self.stopped_at = None

    def call(self, layer, name, fn, args, kwargs, points=0, family=None):
        if layer in NUMERIC_LAYERS:
            self.stopped_at = perf_counter()
            raise FirstNumericCall(f"{layer}.{name}")
        return fn(*args, **kwargs)


class FieldCall:
    """Traced stand-in for one of a ScalarField's evaluation callables."""

    __slots__ = ("tracer", "call", "fn", "family")

    def __init__(self, tracer, call, fn):
        self.tracer = tracer
        self.call = call
        self.fn = fn
        self.family = None

    def __call__(self, pts):
        return self.tracer.call("fields", self.call, self.fn, (pts,), {},
                                _count(pts), self.family)


def _wrap_function(tracer, layer, name, fn):
    family_of = FAMILIES.get(name) if layer == "fields" else None

    def traced(*args, **kwargs):
        out = tracer.call(layer, name, fn, args, kwargs)
        if family_of is not None:
            fam = family_of(out)
            for attr in FIELD_CALLS:
                c = getattr(out, attr)
                if isinstance(c, FieldCall):
                    c.family = fam
        return out

    traced.__wrapped__ = fn
    traced.__name__ = fn.__name__
    traced.__qualname__ = fn.__qualname__
    traced.__doc__ = fn.__doc__
    return traced


def _wrap_method(tracer, layer, name, fn):
    if name == "contains":
        def traced(obj, p, *args, **kwargs):
            return tracer.call(layer, name, fn, (obj, p) + args, kwargs,
                               _count(p))
    elif name == "sample":
        def traced(obj, count, *args, **kwargs):
            return tracer.call(layer, name, fn, (obj, count) + args, kwargs,
                               int(count))
    else:
        def traced(*args, **kwargs):
            return tracer.call(layer, name, fn, args, kwargs)
    traced.__wrapped__ = fn
    traced.__name__ = fn.__name__
    traced.__qualname__ = fn.__qualname__
    traced.__doc__ = fn.__doc__
    return traced


def _wrap_field_init(tracer, init):
    def traced_init(obj, *args, **kwargs):
        init(obj, *args, **kwargs)
        for attr, call in FIELD_CALLS.items():
            fn = getattr(obj, attr)
            if fn is not None and not isinstance(fn, FieldCall):
                setattr(obj, attr, FieldCall(tracer, call, fn))

    traced_init.__wrapped__ = init
    return traced_init


def layer_modules() -> dict:
    return {layer: importlib.import_module(f"lpbounds.{layer}")
            for layer in LAYERS}


def install(tracer) -> list:
    """Wrap every layer's public names; returns the undo list for
    ``uninstall``.  Fields built before this call stay untraced."""
    undo = []
    replaced = {}
    for layer, mod in layer_modules().items():
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name, None)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                if not inspect.isgeneratorfunction(obj):
                    replaced[id(obj)] = (obj, _wrap_function(tracer, layer,
                                                             name, obj))
            elif isinstance(obj, type) and not issubclass(obj, BaseException):
                for attr, val in list(vars(obj).items()):
                    if attr == "__init__" and name == "ScalarField":
                        new = _wrap_field_init(tracer, val)
                    elif (isinstance(val, types.FunctionType)
                          and (attr == "__call__" or not attr.startswith("_"))):
                        new = _wrap_method(tracer, layer, attr, val)
                    else:
                        continue
                    undo.append((obj, attr, val))
                    setattr(obj, attr, new)
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "lpbounds"
                               or modname.startswith("lpbounds.")):
            continue
        for key, val in list(vars(mod).items()):
            hit = replaced.get(id(val))
            if hit is not None and hit[0] is val:
                undo.append((mod, key, val))
                setattr(mod, key, hit[1])
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, val in reversed(undo):
        setattr(owner, attr, val)


# --- reduction ---------------------------------------------------------------


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a = max(a, end)
        b = min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def analyse(spans: list[Span]) -> dict:
    """Per-layer metrics of one pass, as {name: (value, unit)}.

    Self time is a span's duration minus the union of its child spans, so
    summed over a layer it counts busy thread-seconds of that layer alone.
    A layer's entry spans are those whose parent is in another layer; its
    parallelism is the process CPU time over the wall time of those spans.
    """
    by_id = {s.sid: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    # Parents start before their children, so in id order a parent's flag
    # is set before any child reads it.
    in_averages = {0: False}
    for s in sorted(spans, key=lambda s: s.sid):
        p = by_id.get(s.parent)
        in_averages[s.sid] = p is not None and (in_averages[p.sid]
                                                or p.layer == "averages")

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    entry_wall = dict.fromkeys(LAYERS, 0.0)
    entry_cpu = dict.fromkeys(LAYERS, 0.0)
    fields_points = 0
    points_in_averages = 0
    points_tested = 0
    drawn = 0
    accepted = 0
    fam_time: dict[str, float] = {}
    fam_points: dict[str, int] = {}
    for s in spans:
        kids = children.get(s.sid)
        dur = s.t1 - s.t0
        self_s[s.layer] += dur - (_covered([(k.t0, k.t1) for k in kids],
                                           s.t0, s.t1) if kids else 0.0)
        parent = by_id.get(s.parent)
        entry = parent is None or parent.layer != s.layer
        if entry:
            calls[s.layer] += 1
            entry_wall[s.layer] += dur
            entry_cpu[s.layer] += s.cpu
        if s.layer == "fields" and entry:
            fields_points += s.points
            if in_averages[s.sid]:
                points_in_averages += s.points
        if s.layer == "fields" and s.family is not None:
            key = f"{s.name}.{s.family}"
            fam_time[key] = fam_time.get(key, 0.0) + dur
            fam_points[key] = fam_points.get(key, 0) + s.points
        if s.name == "contains" and s.layer == "geometry" and entry:
            points_tested += s.points

    # Rejection sampling: a quadrature call draws points with a region's
    # ``sample`` and keeps those its next ``contains`` (same thread) accepts;
    # later ``contains`` calls are predicates on the kept points.
    for s in spans:
        if s.layer != "quadrature" or s.sid not in children:
            continue
        pending = False
        for k in sorted(children[s.sid], key=lambda k: (k.thread, k.t0)):
            if k.name == "sample":
                drawn += k.points
                pending = True
            elif k.name == "contains" and pending:
                accepted += k.accepted
                pending = False

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s[layer], "s")
        out[f"{layer}.calls"] = (calls[layer], "count")
    out["fields.points"] = (fields_points, "count")
    if fields_points:
        out["fields.ms_per_65k"] = (
            1e3 * self_s["fields"] * 65536 / fields_points, "ms")
    for key in sorted(fam_time):
        if fam_points[key]:
            out[f"fields.ms_per_65k.{key}"] = (
                1e3 * fam_time[key] * 65536 / fam_points[key], "ms")
    if points_in_averages:
        out["averages.ms_per_65k"] = (
            1e3 * self_s["averages"] * 65536 / points_in_averages, "ms")
    for layer in ("averages", "quadrature"):
        if entry_wall[layer] > 0:
            out[f"{layer}.parallelism"] = (
                entry_cpu[layer] / entry_wall[layer], "ratio")
    out["quadrature.points_drawn"] = (drawn, "count")
    if drawn:
        out["quadrature.accept_ratio"] = (accepted / drawn, "ratio")
    out["geometry.points_tested"] = (points_tested, "count")
    return out
