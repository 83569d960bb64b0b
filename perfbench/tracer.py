"""Span tracer for the benchmark's traced runs.

``install`` wraps the public functions of each dirichlet_fem module at
every module binding that holds them.  cli, dirichlet, analysis and
verify import by name, so patching only the defining module would
silently miss calls such as ``cli.assemble_stiffness`` or
``analysis.riesz_represent``.

Every wrapped call is a frame on one stack.  A call's self time is its
duration minus the durations of the wrapped calls nested in it, so the
self times of all calls under the root ``cli.main`` add up to the root's
duration.  Calls made hundreds of thousands of times per command (the
expression callables, ``eval_p1`` and the matrix-vector product) are
leaves: they are only counted and timed.  Every other call is kept as a
span with its parent's id.
"""

from __future__ import annotations

import sys
from functools import partial
from time import perf_counter

# (module, attribute, span name); "Class.method" patches the class.
TARGETS = (
    ("mesh", "build_rect_mesh", "mesh.build"),
    ("mesh", "nodal_values", "mesh.nodal_values"),
    ("assembly", "assemble_stiffness", "assembly.stiffness"),
    ("assembly", "assemble_mass", "assembly.mass"),
    ("assembly", "assemble_load", "assembly.load"),
    ("assembly", "SparseSymMatrix.restrict", "assembly.restrict"),
    ("linsolve", "cg_solve", "linsolve.cg"),
    ("analysis", "estimate_poincare", "analysis.poincare"),
    ("analysis", "check_stability", "analysis.stability"),
    ("analysis", "check_functional_bound", "analysis.functional_bound"),
    ("riesz", "riesz_represent", "riesz.represent"),
    ("dirichlet", "solve", "dirichlet.solve"),
    ("verify", "run_checks", "verify.run_checks"),
    ("problems", "load_problem", "problems.parse"),
    ("problems", "write_field_csv", "problems.csv_write"),
    ("cli", "main", "cli.main"),
)
LEAVES = (
    ("mesh", "eval_p1", "mesh.eval_p1"),
    ("assembly", "SparseSymMatrix.apply", "assembly.matvec"),
)
PACKAGE = "dirichlet_fem"


class Tracer:
    """Spans, per-name call statistics and counters of one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [span id, name, start, child_s]
        self._meshes: set[tuple] = set()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def span(self, name: str, fn, on_result=None):
        """Wrap fn so each call records a span and its self time."""
        stat = self._stat(name)
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(spans), name, perf_counter(), 0.0]
            spans.append(None)  # reserve the id in call order
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(self, args, result, parent)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[2]
                if stack:
                    stack[-1][3] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[3]
                spans[frame[0]] = {
                    "id": frame[0],
                    "parent": None if parent is None else parent[0],
                    "name": name,
                    "start": frame[2],
                    "end": end,
                    "self": duration - frame[3],
                }

        return wrapper

    def leaf(self, name: str, fn):
        """Wrap a hot call that never calls another wrapped function."""
        stat = self._stat(name)
        stack = self._stack

        def wrapper(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                duration = perf_counter() - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration
                if stack:
                    stack[-1][3] += duration

        return wrapper

    def summary(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counters": dict(self.counters),
            "spans": self.spans,
        }


def _on_cg(tracer, args, result, parent):
    tracer.count("linsolve.cg_iterations", result.iterations)
    if parent is not None and parent[1] == "dirichlet.solve":
        tracer.count("dirichlet.cg_iterations", result.iterations)


def _on_poincare(tracer, args, result, parent):
    tracer.count("analysis.power_steps", result.iterations)


def _on_matrix(tracer, args, result, parent):
    tracer.count("assembly.nnz", result.nnz)


def _on_mesh(tracer, args, result, parent):
    key = tuple(float(a) for a in args)
    tracer.count("mesh.builds")
    tracer.count("mesh.repeat_builds", key in tracer._meshes)
    tracer._meshes.add(key)


ON_RESULT = {
    "linsolve.cg": _on_cg,
    "analysis.poincare": _on_poincare,
    "assembly.stiffness": _on_matrix,
    "assembly.mass": _on_matrix,
    "mesh.build": _on_mesh,
}


def _csv_bytes(tracer, fn):
    """write_field_csv returns nothing: count bytes by the stream position."""

    def write_field_csv(stream, mesh, u):
        start = stream.tell()
        fn(stream, mesh, u)
        tracer.count("problems.csv_bytes", stream.tell() - start)

    return write_field_csv


def _as_function(tracer, fn):
    """Every callable as_function returns becomes a traced leaf."""

    def as_function(expr):
        return tracer.leaf("expr.eval", fn(expr))

    return as_function


def _rebind(original, replacement) -> None:
    """Replace original at every binding in the package's modules."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _span_for(tracer: Tracer, name: str, fn):
    if name == "problems.csv_write":
        fn = _csv_bytes(tracer, fn)
    return tracer.span(name, fn, ON_RESULT.get(name))


def install(tracer: Tracer) -> None:
    """Wrap every target of the already imported package in place."""
    modules = {
        name.rpartition(".")[2]: module
        for name, module in sys.modules.items()
        if name.startswith(PACKAGE + ".")
    }

    def patch(module_name, attr, make):
        owner = modules[module_name]
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name)
            setattr(cls, method, make(getattr(cls, method)))
        else:
            original = getattr(owner, attr)
            _rebind(original, make(original))

    for module_name, attr, name in TARGETS:
        patch(module_name, attr, partial(_span_for, tracer, name))
    for module_name, attr, name in LEAVES:
        patch(module_name, attr, partial(tracer.leaf, name))
    patch("expr", "as_function", partial(_as_function, tracer))
