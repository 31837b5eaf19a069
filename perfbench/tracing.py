"""Per-layer measurement from outside the program.

Spans: ``SpanRecorder.patched`` replaces, for the duration of a ``with``
block, the module attributes through which floorsums code calls into a layer
(``floorsums.cli.full_report``, ``floorsums.cross_sum.floor_sum``, ...) with
wrappers that record (name, layer, start, end, parent, op).  A layer is a
module of ``src/floorsums``; the ``numeric`` layer's helpers are too small
to wrap and are measured by counts only.

Counts: ``count_pass`` runs operations under cProfile and keeps call counts
only, never its times, which cProfile distorts.  ``step_pass`` hands a
``Trace`` to every ``t2`` and ``s_value`` call and reads its length.
"""

import cProfile
import os
import time
import types
from contextlib import contextmanager

import floorsums
from floorsums import cli, cross_sum, floor_sum, frobenius, oracle, square_sum
from floorsums.trace import Trace

SPAN_LAYERS = ("cli", "cross_sum", "square_sum", "floor_sum", "frobenius", "oracle")
# The other layers call into no wrapped layer, so their self time is their busy time.
SELF_TIME_LAYERS = ("cli", "cross_sum", "square_sum")
_MODULES = (cli, cross_sum, square_sum, floor_sum, frobenius, oracle)
_PACKAGE_DIR = os.path.dirname(os.path.abspath(floorsums.__file__))

COUNT_METRICS = (
    "square_sum.terms_calls",
    "cross_sum.floor_sum_calls",
    "floor_sum.calls",
    "numeric.gcd_calls",
    "numeric.fraction_new_calls",
)
STEP_METRICS = ("cross_sum.t2_steps", "square_sum.steps")


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _span_targets():
    # Every name a layer module looks up that leads into another layer, and
    # every public function name; private same-layer helpers stay unwrapped.
    for module in _MODULES:
        here = _layer(module.__name__)
        for name, value in vars(module).items():
            if not isinstance(value, types.FunctionType):
                continue
            layer = _layer(value.__module__)
            if layer in SPAN_LAYERS and (layer != here or not name.startswith("_")):
                yield module, name, value, layer


@contextmanager
def _swapped(replacements):
    originals = [(module, name, getattr(module, name)) for module, name, _ in replacements]
    try:
        for module, name, value in replacements:
            setattr(module, name, value)
        yield
    finally:
        for module, name, value in originals:
            setattr(module, name, value)


class SpanRecorder:
    """Spans of one traced run, kept in memory.

    A span is (name, layer, start_ns, end_ns, parent, op), where parent and
    op are indices into ``spans`` (-1 for none) and op is the root span of
    the operation the span belongs to.
    """

    def __init__(self):
        self.spans = []
        self.roots = []
        self._open = []
        self._root = self._wrap("bench.op", "bench", lambda fn, inp: fn(inp))
        self._replacements = [
            (module, name, self._wrap(f"{layer}.{value.__name__}", layer, value))
            for module, name, value, layer in _span_targets()
        ]

    def _wrap(self, name, layer, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = open_[-1] if open_ else -1
            op = open_[0] if open_ else index
            open_.append(index)
            spans.append(None)  # the finished span is stored as a tuple, which GC skips
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, layer, start, clock(), parent, op)
                open_.pop()

        return wrapper

    @contextmanager
    def patched(self):
        """Route the library's calls between layers through the span wrappers."""
        with _swapped(self._replacements):
            yield

    def op(self, fn, inp):
        """Run one operation as fn(inp) under a root span "bench.op"."""
        self.roots.append(len(self.spans))
        return self._root(fn, inp)

    def op_layer_times(self):
        """layer_times of every recorded operation, in order."""
        ends = self.roots[1:] + [len(self.spans)]
        return [layer_times(self.spans, first, end) for first, end in zip(self.roots, ends)]


def layer_times(spans, first: int, end: int) -> dict:
    """Busy and self time in ns per layer for the operation in spans[first:end].

    Busy time is the union of the layer's spans, callees included; self time
    is the part of the layer's spans that no child span covers.
    """
    layers = SPAN_LAYERS + ("bench",)
    busy = dict.fromkeys(layers, 0)
    self_ = dict.fromkeys(layers, 0)
    above = {}
    for index in range(first, end):
        _name, layer, start, stop, parent, _op = spans[index]
        duration = stop - start
        if index == first:
            above[index] = frozenset()
        else:
            above[index] = above[parent] | {spans[parent][1]}
            self_[spans[parent][1]] -= duration
        if layer not in above[index]:
            busy[layer] += duration
        self_[layer] += duration
    return {"busy": busy, "self": self_, "spans": end - first}


def _package_module(path: str):
    """Module name of a floorsums source file, else None."""
    if os.path.dirname(os.path.abspath(path)) != _PACKAGE_DIR:
        return None
    return os.path.splitext(os.path.basename(path))[0]


def _profile_counts(profile: cProfile.Profile) -> dict:
    profile.create_stats()
    counts = dict.fromkeys(COUNT_METRICS, 0)
    for (path, _line, func), (_cc, calls, _tt, _ct, callers) in profile.stats.items():
        if func == "<built-in method math.gcd>":
            counts["numeric.gcd_calls"] += calls
        elif func == "__new__" and os.path.basename(path) == "fractions.py":
            counts["numeric.fraction_new_calls"] += calls
        elif _package_module(path) == "square_sum" and func == "_terms":
            counts["square_sum.terms_calls"] += calls
        elif _package_module(path) == "floor_sum" and func == "floor_sum":
            counts["floor_sum.calls"] += calls
            counts["cross_sum.floor_sum_calls"] += sum(
                stat[0] for caller, stat in callers.items()
                if _package_module(caller[0]) == "cross_sum"
            )
    return counts


def count_pass(fn, inputs) -> list:
    """Per-operation call counts, each operation under its own profiler."""
    rows = []
    for inp in inputs:
        profile = cProfile.Profile()
        profile.enable()
        try:
            fn(inp)
        finally:
            profile.disable()
        rows.append(_profile_counts(profile))
    return rows


def step_pass(fn, inputs) -> list:
    """Per-operation recursion steps: Trace.total_steps() of t2, len(Trace) of s_value."""
    rows = []
    tally = {}

    def traced(metric, original, steps):
        def wrapper(a, b, h, trace=None):
            trace = Trace() if trace is None else trace
            value = original(a, b, h, trace)
            tally[metric] += steps(trace)
            return value
        return wrapper

    t2 = traced("cross_sum.t2_steps", cross_sum.t2, Trace.total_steps)
    s_value = traced("square_sum.steps", square_sum.s_value, len)
    replacements = [(cli, "t2", t2), (cross_sum, "t2", t2),
                    (cli, "s_value", s_value), (cross_sum, "s_value", s_value)]
    with _swapped(replacements):
        for inp in inputs:
            tally.update(dict.fromkeys(STEP_METRICS, 0))
            fn(inp)
            rows.append(dict(tally))
    return rows
