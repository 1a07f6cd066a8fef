"""Outside-in tracing: spans around calls into normcurve's public functions.

``install`` replaces module attributes of the imported package with timing
wrappers, so nothing under ``src/`` changes.  Calls made inside a module go
through its globals and are therefore traced too; a name bound elsewhere
with ``from .x import f`` must be patched where it is bound, which is why
``curves.min_enclosing_ball`` is patched beside ``ball.min_enclosing_ball``.

Each span records its id, its parent's id (0 for none), its thread, its
name, start and end.  Parents come from a stack kept per thread, so spans
recorded on pool threads, as ``verify all --parallel`` makes, nest correctly.
A span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import threading
import time
from array import array
from collections import defaultdict

CHECK_ENGINES = (
    "normal_curvature",
    "sphere_radius",
    "circle_geodesics",
    "rigidity_arithmetic",
    "mean_curvature",
    "sectional_curvature",
    "torus",
    "bow",
    "fary",
    "monotonicity",
)


def _space(args) -> str:
    return args[0].name


def _torus_dim(args) -> str:
    return f"n{args[0].n}"


def _steps(curve):
    return {"steps": len(curve.vertices) - 1}


def _ball(b):
    return {"iterations": b.iterations, "converged": int(b.converged)}


def _optimum(opt):
    return {"evaluations": opt.evaluations, "converged": int(opt.converged)}


# (module, function, span-name suffix from the arguments, stats from the result)
TARGETS = (
    ("manifold", "integrate_geodesic", _space, _steps),
    ("manifold", "project_point", _space, None),
    ("manifold", "project_velocity", _space, None),
    ("manifold", "tangent_basis", _space, None),
    ("manifold", "second_fundamental_form", _space, None),
    ("manifold", "sectional_curvature", _space, None),
    ("manifold", "mean_curvature_vector", _space, None),
    ("ball", "min_enclosing_ball", None, _ball),
    ("flat_torus", "torus_worst_direction", _torus_dim, None),
    ("flat_torus", "optimize_weights", None, _optimum),
    ("flat_torus", "curvature_radius_products", None, None),
    ("curves", "random_closed_curve", None, None),
    ("curves", "random_space_curve", None, None),
    ("curves", "random_convex_arc", None, None),
    ("curves", "fary_check", None, None),
    ("curves", "bow_check", None, None),
    ("curves", "monotonicity_check", None, None),
    ("curves", "fit_circle", None, None),
    ("curves", "planarity_residual", None, None),
    ("veronese", "sample_points", None, None),
    ("veronese", "variety", None, None),
) + tuple(("cli", f"check_{engine}", None, None) for engine in CHECK_ENGINES)

# Modules that bind a traced function under their own name.
ALIASES = {("ball", "min_enclosing_ball"): ("curves",)}


class Tracer:
    """Records spans in memory; ``aggregate`` turns one repeat's spans into
    per-layer metrics and packs them away for ``write``."""

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._threads = itertools.count(1)
        self._open = []  # (id, parent, thread, name, start, end, stats) of the current repeat
        self._names: dict[str, int] = {}
        self._packed = {key: array("q") for key in ("repeat", "id", "parent", "thread", "name")}
        self._packed.update(start=array("d"), end=array("d"))
        self._repeat = 0

    def wrap(self, fn, name, suffix=None, stats=None):
        local, ids, spans, clock = self._local, self._ids, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.thread = next(self._threads)
            label = name if suffix is None else f"{name}.{suffix(args)}"
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                extra = stats(result) if stats is not None and result is not None else None
                spans.append((sid, parent, local.thread, label, start, end, extra))

        return traced

    def install(self, package) -> None:
        """Wrap every function in ``TARGETS`` on the imported ``package``."""
        for module_name, fn_name, suffix, stats in TARGETS:
            module = getattr(package, module_name)
            wrapped = self.wrap(getattr(module, fn_name), f"{module_name}.{fn_name}", suffix, stats)
            setattr(module, fn_name, wrapped)
            for alias in ALIASES.get((module_name, fn_name), ()):
                setattr(getattr(package, alias), fn_name, wrapped)

    def aggregate(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last call."""
        spans, self._open[:] = list(self._open), []
        child = defaultdict(float)
        for sid, parent, _, _, start, end, _ in spans:
            child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, _, _, label, start, end, extra in spans:
            out[f"{label}.calls"] += 1
            out[f"{label}.s"] += end - start
            out[f"{label}.self_s"] += end - start - child[sid]
            for key, value in (extra or {}).items():
                out[f"{label}.{key}"] += value
        for label in {s[3] for s in spans}:
            if f"{label}.converged" in out:
                out[f"{label}.converged_ratio"] = out[f"{label}.converged"] / out[f"{label}.calls"]
        self._pack(spans)
        return dict(out)

    def _pack(self, spans) -> None:
        self._repeat += 1
        p = self._packed
        for sid, parent, thread, label, start, end, _ in spans:
            p["repeat"].append(self._repeat)
            p["id"].append(sid)
            p["parent"].append(parent)
            p["thread"].append(thread)
            p["name"].append(self._names.setdefault(label, len(self._names)))
            p["start"].append(start)
            p["end"].append(end)

    def write(self, path) -> int:
        """Write every packed span as gzipped CSV; returns the span count."""
        names = {index: label for label, index in self._names.items()}
        p = self._packed
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("repeat,id,parent,thread,name,start,end\n")
            for row in zip(p["repeat"], p["id"], p["parent"], p["thread"], p["name"], p["start"], p["end"]):
                fh.write(f"{row[0]},{row[1]},{row[2]},{row[3]},{names[row[4]]},{row[5]!r},{row[6]!r}\n")
        return len(p["id"])
