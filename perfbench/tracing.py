"""Spans around the library's public functions and operators.

The library is not changed: `Tracer.install` replaces each public
function of every layer (the names in its module's ``__all__``) and the
arithmetic operators and public methods of its value classes with a
wrapper that records a span.  A span holds its name, start and end
(ns, `time.perf_counter_ns`) and the index of the span that was open
when it began.  Spans stay in memory, in flat int64 arrays, until
`write` stores them at the end of the run.

Two counts have no span of their own: `FieldElem` constructions that
are normalised by a gcd (``_reduced`` false) and field products with a
zero operand.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = (
    "field", "matrix", "bases", "bracket", "poly", "cubic",
    "roots", "clifford", "fixtures", "report", "cli",
)

# Value classes: the operators and methods that get a span.
METHODS = {
    "FieldElem": ("__add__", "__sub__", "__mul__", "__neg__", "__truediv__", "__pow__",
                  "invert", "conjugate_j"),
    "Mat3": ("__add__", "__sub__", "__mul__", "__neg__", "__pow__", "scale", "det",
             "trace", "transpose", "conjugate_j", "dagger", "commutes_with"),
    "MPoly": ("__add__", "__sub__", "__mul__", "__neg__", "scale", "evaluate",
              "permute_vars"),
    "NonionPoly": ("multiply",),
    "CliffElement": ("__add__", "__sub__", "__mul__", "__neg__", "scale"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.sid = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.new_calls = 0
        self.mul_zero_operand_calls = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        sid_value = self._name_id(name)
        sid, parent, start, end, stack = self.sid, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(sid)
            sid.append(sid_value)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer's public names, everywhere the library binds them."""
        modules = [importlib.import_module(f"nonion.{layer}") for layer in LAYERS]
        namespaces = [vars(m) for m in sys.modules.values()
                      if getattr(m, "__name__", "").split(".")[0] == "nonion"]
        wrappers = set()
        for layer, module in zip(LAYERS, modules):
            for name in getattr(module, "__all__", ()):
                obj = getattr(module, name)
                if isinstance(obj, type):
                    for meth in METHODS.get(name, ()):
                        self._wrap_method(layer, obj, meth)
                elif callable(obj) and obj not in wrappers:
                    wrapped = self.wrap(f"{layer}.{name}", obj)
                    wrappers.add(wrapped)
                    for ns in namespaces:
                        for key, value in list(ns.items()):
                            if value is obj:
                                ns[key] = wrapped

    def _wrap_method(self, layer: str, cls: type, meth: str) -> None:
        orig = cls.__dict__[meth]
        traced = self.wrap(f"{layer}.{cls.__name__}.{meth}", orig)
        if cls.__name__ == "FieldElem" and meth == "__mul__":
            tracer = self

            def mul(a, b):
                if isinstance(b, cls) and not (any(a.nums) and any(b.nums)):
                    tracer.mul_zero_operand_calls += 1
                return traced(a, b)

            setattr(cls, meth, mul)
            self._count_constructions(cls)
        else:
            setattr(cls, meth, traced)

    def _count_constructions(self, cls: type) -> None:
        orig_init = cls.__init__
        tracer = self

        def init(obj, nums, den=1, _reduced=False):
            if not _reduced:
                tracer.new_calls += 1
            orig_init(obj, nums, den, _reduced)

        cls.__init__ = init

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Span counts by name and self time (s) by layer, over all spans."""
        n = len(self.sid)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        counts = Counter()
        self_ns = Counter()
        for i, s in enumerate(self.sid):
            counts[s] += 1
            self_ns[self.names[s].split(".")[0]] += dur[i] - child[i]
        return {
            "spans": n,
            "counts": {self.names[s]: c for s, c in counts.items()},
            "self_s": {layer: ns / 1e9 for layer, ns in self_ns.items()},
            "new_calls": self.new_calls,
            "mul_zero_operand_calls": self.mul_zero_operand_calls,
        }

    def write(self, path: Path) -> None:
        """Spans as four int64 arrays (name id, parent, start ns, end ns)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in (self.sid, self.parent, self.start, self.end):
                arr.tofile(fh)
        meta = {"spans": len(self.sid), "names": self.names,
                "layout": ["name_id", "parent", "start_ns", "end_ns"], "dtype": "int64"}
        path.with_suffix(".json").write_text(json.dumps(meta, indent=1) + "\n", encoding="utf-8")
