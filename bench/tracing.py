"""Span tracing of schubstab from outside the package.

``Tracer.install`` wraps every public function of the package's modules and
the arithmetic and comparison methods of ``Poly``, ``ExactComplex`` and
``PhasePoint``, at every place they are bound (module globals, the package
namespace and class attributes).  Each call becomes a span with a name,
start, end and parent.  Spans are folded into per-name totals as they end,
because a round makes millions of them: self time is a span's duration
minus the time its child spans cover, exactly as if computed afterwards
from the records.  Spans down to ``KEEP_DEPTH`` are also kept whole.

Install it only in a process that is thrown away afterwards: the wrappers
are not removed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("perms", "poly", "schubert", "bimodule", "lattice", "stability", "cli")
KEEP_DEPTH = 3
# Cached generators whose cache_info() the per-layer metrics read.
CACHED = (
    ("perms", "reduced_words"),
    ("schubert", "schubert_poly"),
    ("schubert", "double_schubert"),
    ("bimodule", "s_element"),
)
METHODS = {
    ("poly", "Poly"): {
        "__init__": "construct", "__add__": "add", "__radd__": "add",
        "__sub__": "sub", "__rsub__": "sub", "__neg__": "neg",
        "__mul__": "mul", "__rmul__": "mul", "__pow__": "pow",
    },
    ("lattice", "ExactComplex"): {
        "__add__": "add", "__sub__": "sub", "__neg__": "neg", "__mul__": "mul",
        "__rmul__": "mul", "__pow__": "pow", "abs_squared": "abs_squared",
    },
    ("stability", "PhasePoint"): {
        name: "phase_compare"
        for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__")
    },
}


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, start, child seconds, span id]
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.edges: dict[tuple[str, str], int] = {}
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.mul_terms_out = 0
        self.originals: dict[str, object] = {}
        self._next_id = 0

    # ------------------------------------------------------------ recording

    def _enter(self, name: str) -> list:
        frame = [name, perf_counter(), 0.0, self._next_id]
        self._next_id += 1
        self.stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        stack = self.stack
        stack.pop()
        name, start, child, span_id = frame
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + duration
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
            key = (parent[0], name)
            self.edges[key] = self.edges.get(key, 0) + 1
        if len(stack) < KEEP_DEPTH:
            self.spans.append((span_id, name, start, end, parent[3] if parent else None))

    @contextmanager
    def span(self, name: str):
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, name: str, fn):
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        return traced

    def wrap_mul(self, name: str, fn):
        """Like wrap, and adds the product's term count to mul_terms_out."""
        enter, leave = self._enter, self._exit
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                leave(frame)
            terms = getattr(out, "terms", None)
            if terms is not None:
                tracer.mul_terms_out += len(terms)
            return out

        return traced

    # ------------------------------------------------------------ installing

    def install(self) -> None:
        package = importlib.import_module("schubstab")
        modules = {layer: importlib.import_module(f"schubstab.{layer}") for layer in LAYERS}
        replace: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if attr.startswith("_") or inspect.isclass(value) or not callable(value):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                self.originals[f"{layer}.{attr}"] = value
                replace[id(value)] = self.wrap(f"{layer}.{attr}", value)
        for namespace in (package, *modules.values()):
            for attr, value in list(vars(namespace).items()):
                if id(value) in replace:
                    setattr(namespace, attr, replace[id(value)])
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for attr, short in methods.items():
                if attr not in vars(cls):
                    continue
                fn = vars(cls)[attr]
                name = f"{layer}.{short}"
                wrapper = self.wrap_mul(name, fn) if (layer, short) == ("poly", "mul") else self.wrap(name, fn)
                setattr(cls, attr, wrapper)

    # ------------------------------------------------------------- reporting

    def calls_of(self, name: str) -> int:
        return self.calls.get(name, 0)

    def outer_calls_of(self, name: str) -> int:
        """Calls of name not made from inside another span of the same name."""
        return self.calls_of(name) - self.edges.get((name, name), 0)

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_time.items() if k.startswith(prefix))

    def hit_rate(self, key: str) -> float:
        info = self.originals[key].cache_info()
        looked_up = info.hits + info.misses
        return info.hits / looked_up if looked_up else 0.0

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics, except the scan rate, which needs an untraced run."""
        return {
            "perms.reduced_words.calls": self.calls_of("perms.reduced_words"),
            "perms.self_s": self.layer_self("perms"),
            "poly.mul.calls": self.calls_of("poly.mul"),
            "poly.mul.terms_out": self.mul_terms_out,
            "poly.construct.calls": self.calls_of("poly.construct"),
            "poly.divided_difference.calls": self.calls_of("poly.divided_difference"),
            "poly.self_s": self.layer_self("poly"),
            "schubert.expand.calls": self.calls_of("schubert.expand_in_schubert_basis"),
            "schubert.expand.self_s": self.self_time.get("schubert.expand_in_schubert_basis", 0.0),
            "schubert.schubert_poly.hit_rate": self.hit_rate("schubert.schubert_poly"),
            "schubert.double_schubert.hit_rate": self.hit_rate("schubert.double_schubert"),
            "schubert.self_s": self.layer_self("schubert"),
            "bimodule.f_map.calls": self.calls_of("bimodule.f_map"),
            "bimodule.right_multiply.calls": self.calls_of("bimodule.right_multiply"),
            "bimodule.s_element.hit_rate": self.hit_rate("bimodule.s_element"),
            "bimodule.self_s": self.layer_self("bimodule"),
            "lattice.central_charge.calls": self.calls_of("lattice.central_charge"),
            "lattice.central_charge.self_s": self.self_time.get("lattice.central_charge", 0.0),
            "lattice.twist.calls": self.calls_of("lattice.twist"),
            "lattice.self_s": self.layer_self("lattice"),
            "stability.phase_compare.calls": self.outer_calls_of("stability.phase_compare"),
            "stability.self_s": self.layer_self("stability"),
            "cli.self_s": self.layer_self("cli"),
        }

    def to_json(self) -> dict:
        """The trace file: per-name totals, parent-child call counts, kept spans."""
        return {
            "names": {
                name: {
                    "calls": self.calls[name],
                    "total_s": self.total[name],
                    "self_s": self.self_time[name],
                }
                for name in sorted(self.calls)
            },
            "edges": [
                {"parent": p, "child": c, "calls": n}
                for (p, c), n in sorted(self.edges.items())
            ],
            "spans": [
                {"id": i, "name": name, "start": s, "end": e, "parent": parent}
                for i, name, s, e, parent in self.spans
            ],
        }
