"""Span tracing of the program's layers from outside its source.

`install` wraps the public functions of each hypspectra module, the
public methods of the classes those modules export, and three library
calls the layers spend their time in (the `splu` factorization and the
`eigsh` Lanczos run in `eigen`, and `dijkstra` in `bound`).  It rebinds
every name in the package that refers to a wrapped function, so calls
through `from .x import f` imports are traced too.  Spans stay in
memory; `layer_metrics` turns them into the per-layer figures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("hypgeom", "surface", "cover", "fem", "eigen", "bound", "cli")

# Figures taken from return values: name -> (span name, extractor, combine).
RESULT_COUNTS = {
    "eigen.operator_applies": ("eigen.solve_smallest", lambda r: r.iterations, sum),
    "eigen.dof": ("eigen.solve_smallest", lambda r: r.dof, max),
    "fem.nnz": ("fem.assemble", lambda r: r.stiffness.nnz, sum),
    "cover.faces": ("cover.cyclic_cover", lambda r: r.surface.num_faces, max),
}

# Per-layer metric -> span name whose inclusive time it reports.
SPAN_TIMES = {
    "surface.face_adjacency_s": "surface.face_adjacency",
    "surface.validate_s": "surface.validate",
    "cover.cyclic_cover_s": "cover.cyclic_cover",
    "fem.refine_s": "fem.refine",
    "fem.assemble_s": "fem.assemble",
    "eigen.solve_smallest_s": "eigen.solve_smallest",
    "eigen.factor_s": "eigen.splu",
    "eigen.lanczos_s": "eigen.eigsh",
    "bound.collar_data_s": "bound.collar_data",
    "bound.bound_report_s": "bound.bound_report",
    "bound.dijkstra_s": "bound.dijkstra",
}
SPAN_CALLS = {
    "surface.face_adjacency_calls": "surface.face_adjacency",
    "surface.validate_calls": "surface.validate",
    "bound.distance_to_curves_calls": "bound.distance_to_curves",
    "bound.dijkstra_calls": "bound.dijkstra",
}


class Tracer:
    """Records (name, parent index, start, end) spans and result values."""

    def __init__(self):
        self.spans = []
        self.results = {}
        self._stack = []

    def wrap(self, name: str, fn):
        keep = [(metric, get) for metric, (span, get, _) in RESULT_COUNTS.items()
                if span == name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            for metric, get in keep:
                self.results.setdefault(metric, []).append(get(result))
            return result

        return traced


class _DijkstraOnly:
    """Stands in for `scipy.sparse.csgraph` with a traced `dijkstra`."""

    def __init__(self, csgraph, dijkstra):
        self._csgraph = csgraph
        self.dijkstra = dijkstra

    def __getattr__(self, name):
        return getattr(self._csgraph, name)


def install(tracer: Tracer) -> None:
    """Wrap the layers of the imported hypspectra package in place."""
    package = importlib.import_module("hypspectra")
    modules = {m: importlib.import_module(f"hypspectra.{m}") for m in MODULES}
    wrapped = {}
    for short, module in modules.items():
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                wrapped[id(obj)] = tracer.wrap(f"{short}.{name}", obj)
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, val in list(vars(obj).items()):
                    if not attr.startswith("_") and inspect.isfunction(val):
                        setattr(obj, attr, tracer.wrap(f"{short}.{attr}", val))
    for module in [package, *modules.values()]:
        for name, val in list(vars(module).items()):
            if id(val) in wrapped:
                setattr(module, name, wrapped[id(val)])
    eigen, bound = modules["eigen"], modules["bound"]
    eigen.splu = tracer.wrap("eigen.splu", eigen.splu)
    eigen.eigsh = tracer.wrap("eigen.eigsh", eigen.eigsh)
    bound.csgraph = _DijkstraOnly(
        bound.csgraph, tracer.wrap("bound.dijkstra", bound.csgraph.dijkstra))


def layer_metrics(spans: list, results: dict) -> dict:
    """Per-layer figures of one traced `cli.main` call.

    Times are inclusive span durations summed over calls.  `hypgeom.s`
    counts only hypgeom spans not nested in another hypgeom span, and
    `cli.self_s` is `main` minus the spans it called directly.
    """
    dur = [end - start for _, _, start, end in spans]
    names = [name for name, _, _, _ in spans]
    out = {}
    for metric, span in SPAN_TIMES.items():
        out[metric] = sum(d for name, d in zip(names, dur) if name == span)
    for metric, span in SPAN_CALLS.items():
        out[metric] = names.count(span)
    for metric, (_, _, combine) in RESULT_COUNTS.items():
        out[metric] = combine(results.get(metric, [0]))

    def in_hypgeom(i):
        return i >= 0 and names[i].startswith("hypgeom.")

    out["hypgeom.s"] = sum(dur[i] for i, (_, parent, _, _) in enumerate(spans)
                           if in_hypgeom(i) and not in_hypgeom(parent))
    out["hypgeom.calls"] = sum(1 for name in names if name.startswith("hypgeom."))
    main = names.index("cli.main")
    children = sum(dur[i] for i, (_, parent, _, _) in enumerate(spans) if parent == main)
    out["cli.self_s"] = dur[main] - children
    out["trace.wall_s"] = dur[main]
    return out
