"""In-memory spans around calls into helmdpg's modules.

The tracer replaces, for the length of one round, every binding of a
module's public functions, of a few named methods and of
``scipy.sparse.linalg.splu`` with a wrapper that records a span: name,
start, end and parent span.
Bindings are replaced wherever they are looked up at call time, so a call
through ``localforms.hermitian_solve`` or ``dispersion.extract_stencils``
is seen as well as one through the defining module.  Private helpers are
not wrapped; their time is self time of the public call that encloses
them.  A layer's self time is the duration of its spans minus the part
covered by their child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("numkit", "refelem", "localforms", "stencil", "dispersion", "assembly")

# methods wrapped besides module-level functions; small accessors called
# per DOF (Mesh.vertex_id, Precision.real, ...) are left out on purpose
METHODS = {
    ("dispersion", "SymbolMatrix"): (
        "det", "det_and_derivative", "det_and_derivative_exact", "null_vector",
    ),
    ("assembly", "Mesh"): ("element_trace_dofs", "boundary_vertex_ids", "vertex_coords"),
}

EXACT_SYMBOL = "dispersion.SymbolMatrix.det_and_derivative_exact"
SYMBOL_EVALS = ("dispersion.SymbolMatrix.det", "dispersion.SymbolMatrix.det_and_derivative")

# per-layer metric -> span name whose inclusive time or call count it is
INCLUSIVE_S = {
    "numkit.hermitian_solve.s": "numkit.hermitian_solve",
    "refelem.tabulate_test_basis.s": "refelem.tabulate_test_basis",
    "localforms.dpg_element.s": "localforms.dpg_element",
    "localforms.condense.s": "localforms.condense",
    "dispersion.solve_root.s": "dispersion.solve_root",
    "dispersion.symbol_exact.s": EXACT_SYMBOL,
    "assembly.splu.s": "assembly.splu",
    "assembly.best_approx_error.s": "assembly.best_approx_error",
}
CALLS = {
    "numkit.hermitian_solve.calls": "numkit.hermitian_solve",
    "localforms.element_kit.calls": "localforms.element_kit",
    "stencil.extract_stencils.calls": "stencil.extract_stencils",
    "dispersion.solve_root.calls": "dispersion.solve_root",
    "dispersion.symbol_exact_evals": EXACT_SYMBOL,
    "assembly.element_trace_dofs.calls": "assembly.Mesh.element_trace_dofs",
}
# relative gap below which two element parameter sets differ only in rounding
ROUNDING_RTOL = 1e-12


class Tracer:
    """Spans and counters of one round; install() patches, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.child: list[float] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._built: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """Return fn wrapped in a span; ``after(result)`` runs outside all spans."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans, child, stack, clock = self.spans, self.child, self._stack, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            child.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent)
                if parent >= 0:
                    child[parent] += t1 - t0
            if after is not None:
                after(out)
                if parent >= 0:
                    child[parent] += clock() - t1
            return out

        return span

    def _add_solve_root_iters(self, res):
        self.counters["dispersion.newton_iters"] += int(res.iters)

    def _count_extended(self, elem):
        self.counters["localforms.dpg_element.extended"] += int(elem.precision_used.is_extended)

    def _add_fill(self, lu):
        self.counters["assembly.splu.fill_nnz"] += int(lu.L.nnz + lu.U.nnz)

    def _kit_counter(self, cached):
        """element_kit span plus build and rounding-rebuild counts from its cache."""
        inner = self.wrap("localforms.element_kit", cached)
        counters, built = self.counters, self._built

        @functools.wraps(cached)
        def element_kit(params):
            misses = cached.cache_info().misses
            kit = inner(params)
            if cached.cache_info().misses > misses:
                counters["localforms.element_kit.builds"] += 1
                key = (params.r, params.precision)
                for other in built:
                    if other[0] == key and other[1:] != (params.omega_n, params.eps_n) and all(
                        abs(a - b) <= ROUNDING_RTOL * max(abs(a), abs(b))
                        for a, b in zip(other[1:], (params.omega_n, params.eps_n))
                    ):
                        counters["localforms.element_kit.rounding_rebuilds"] += 1
                        break
                built.append((key, params.omega_n, params.eps_n))
            return kit

        element_kit.cache_info = cached.cache_info
        return element_kit

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        after = {
            "dispersion.solve_root": self._add_solve_root_iters,
            "localforms.dpg_element": self._count_extended,
        }
        modules = [m for k, m in sys.modules.items() if k.startswith("helmdpg.")]
        for layer in LAYERS:
            mod = sys.modules[f"helmdpg.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                name = f"{layer}.{attr}"
                if name == "localforms.element_kit":
                    wrapped = self._kit_counter(obj)
                else:
                    wrapped = self.wrap(name, obj, after.get(name))
                for other in modules:
                    for key, val in list(vars(other).items()):
                        if val is obj:
                            self._set(other, key, wrapped)
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(sys.modules[f"helmdpg.{layer}"], cls_name)
            for meth in methods:
                orig = cls.__dict__[meth]
                self._set(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", orig))
        # the one library call recorded, as a span of the layer that makes it
        linalg = sys.modules["scipy.sparse.linalg"]
        self._set(linalg, "splu", self.wrap("assembly.splu", linalg.splu, self._add_fill))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer self times, named inclusive times, call counts and counters."""
        inclusive: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        self_s = {layer: 0.0 for layer in LAYERS}
        for i, (nid, t0, t1, _) in enumerate(self.spans):
            name = self.names[nid]
            inclusive[name] += t1 - t0
            calls[name] += 1
            self_s[name.split(".", 1)[0]] += (t1 - t0) - self.child[i]
        out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        out.update({m: inclusive[n] for m, n in INCLUSIVE_S.items()})
        out.update({m: float(calls[n]) for m, n in CALLS.items()})
        for key in (
            "localforms.dpg_element.extended",
            "localforms.element_kit.builds",
            "localforms.element_kit.rounding_rebuilds",
            "dispersion.newton_iters",
            "assembly.splu.fill_nnz",
        ):
            out[key] = float(self.counters[key])
        kit_calls = out["localforms.element_kit.calls"]
        out["localforms.element_kit.hit_ratio"] = (
            (kit_calls - out["localforms.element_kit.builds"]) / kit_calls if kit_calls else 0.0
        )
        evals = float(sum(calls[n] for n in SYMBOL_EVALS))
        out["dispersion.symbol_evals"] = evals
        roots = out["dispersion.solve_root.calls"]
        out["dispersion.evals_per_root"] = evals / roots if roots else 0.0
        out["trace.spans"] = float(len(self.spans))
        return out

    def dump(self, path, origin: float, meta: dict):
        """Write the spans, times relative to ``origin``, as one JSON file."""
        spans = [
            [nid, round(t0 - origin, 9), round(t1 - origin, 9), parent]
            for nid, t0, t1, parent in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({**meta, "names": self.names, "spans": spans}, fh)
