"""Span tracing of the gfano layers, installed from outside the package.

`install` rebinds every public function of `gfano.__all__`, the CLI entry
point `cli.main`, and every public method and operator of
`TruncatedSeries` to a wrapper that records one span per call.  A function
is rebound in every gfano module namespace that holds it, so calls made
through `from .series import regular_shift` or through `periods.iseries`
are both seen.  Nothing under `src/` is edited.

A span is `[name, start, end, parent, item]`: perf_counter times, the index
of the enclosing span (-1 at top level) and the id of the workload item it
belongs to.  Spans stay in memory; `dump` writes them once, at the end.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

#: Operator name -> the short layer name used in span names.
OPERATORS = {
    "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "rsub",
    "__neg__": "neg", "__mul__": "mul", "__rmul__": "mul",
    "__truediv__": "truediv", "__rtruediv__": "rtruediv",
    "__pow__": "pow_int", "__eq__": "eq",
}


def _bits(series) -> int:
    """Largest numerator or denominator bit length among the coefficients."""
    return max(
        max(c.numerator.bit_length(), c.denominator.bit_length())
        for c in series.coeffs
    )


class Tracer:
    """In-memory span recorder.

    `item` is the id stamped on new spans.  The benchmark sets it per item;
    inside `verify.verify_all` every direct child call starts a new item,
    so the battery's ten checks are told apart without touching its code.
    """

    ITEM_PARENT = "verify.verify_all"

    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = None
        self.compose_max_bits = 0

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent >= 0 and spans[parent][0] == Tracer.ITEM_PARENT:
                tracer.item = f"{name}#{len(spans)}"
            span = [name, 0.0, 0.0, parent, tracer.item]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        if name == "series.compose":
            def traced_compose(*args, **kwargs):
                result = traced(*args, **kwargs)
                tracer.compose_max_bits = max(tracer.compose_max_bits, _bits(result))
                return result
            return traced_compose
        return traced

    def summary(self) -> dict:
        """Per span name: call count, self time and inclusive time.

        Self time is a span's duration minus the time covered by its direct
        child spans (spans nest, so children never overlap).  Inclusive
        time counts only the outermost span of a name, so recursion such as
        iseries -> iseries is not counted twice.  `traced_s` is the time
        spent inside top-level spans.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s, total_s = {}, {}, {}
        above = []  # names on each span's ancestor chain
        traced = 0.0
        for i, (name, start, end, parent, _) in enumerate(spans):
            chain = above[parent] | {spans[parent][0]} if parent >= 0 else frozenset()
            above.append(chain)
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            if name not in chain:
                total_s[name] = total_s.get(name, 0.0) + end - start
            if parent < 0:
                traced += end - start
        return {"calls": calls, "self_s": self_s, "total_s": total_s,
                "traced_s": traced, "spans": len(spans),
                "compose_max_bits": self.compose_max_bits}

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "fields": ["name", "start", "end", "parent", "item"],
                       "spans": [[index[n], a, b, p, it]
                                 for n, a, b, p, it in self.spans]}, fh)


def _layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def install(tracer: Tracer) -> None:
    """Rebind the public gfano functions and series methods to traced ones."""
    import gfano
    from gfano import cli
    from gfano.series import TruncatedSeries

    wrapped = {}
    for name in gfano.__all__:
        fn = getattr(gfano, name)
        if inspect.isfunction(fn):
            wrapped[fn] = tracer.wrap(_layer_name(fn), fn)
    wrapped[cli.main] = tracer.wrap("cli.main", cli.main)
    modules = [m for n, m in list(sys.modules.items())
               if n == "gfano" or n.startswith("gfano.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(module, attr, wrapped[value])

    methods = {}
    for attr, value in list(vars(TruncatedSeries).items()):
        if attr.startswith("_") and attr not in OPERATORS:
            continue
        if isinstance(value, classmethod):
            fn = value.__func__
            label = f"series.{attr}"
            setattr(TruncatedSeries, attr, classmethod(tracer.wrap(label, fn)))
        elif inspect.isfunction(value):
            if value not in methods:
                label = f"series.{OPERATORS.get(attr, attr)}"
                methods[value] = tracer.wrap(label, value)
            setattr(TruncatedSeries, attr, methods[value])
