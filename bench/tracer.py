"""Span tracing of pointerlab from outside its source tree.

``install`` rebinds, in every layer module's namespace, each public
function that a layer module defines, plus ``__post_init__`` of every value
class that validates itself at construction (recorded as
``<layer>.<Class>.validate``).  Calls inside a module go through the same
module globals, so they are traced too.  Each call becomes a span with its
name, start, end, parent span and operation id, kept in memory until the run
ends and then written out.  Nothing is installed unless ``install`` is called.
"""

from __future__ import annotations

import importlib
import inspect
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("cli", "scenario", "runner", "premeasurement", "objectification", "hilbert", "lattice")
MARKER = "__bench_span__"

#: Functions whose peak allocation the memory pass records.
ALLOC_PROBES = (
    "lattice.symmetrize",
    "lattice.expectation_two_particle",
    "objectification.pointer_block_coherence",
    "premeasurement.build_premeasurement_unitary",
)


class Tracer:
    """Records spans as ``[name, start, end, parent, op_id, raised]`` lists."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.op_id = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), None, stack[-1] if stack else None, self.op_id, False]
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                stack.pop()
                span[2] = clock()

        setattr(traced, MARKER, name)
        traced.__wrapped__ = fn
        return traced


class AllocProbe:
    """Peak traced allocation (MB) inside each probed function, outermost calls only."""

    def __init__(self):
        self.peaks: dict[str, float] = {}

    def wrap(self, name: str, fn):
        peaks = self.peaks

        def probed(*args, **kwargs):
            if tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                peaks[name] = max(peaks.get(name, 0.0), peak)

        setattr(probed, MARKER, name)
        probed.__wrapped__ = fn
        return probed


def layer_modules() -> list:
    return [importlib.import_module(f"pointerlab.{layer}") for layer in LAYERS]


def _targets():
    """Yield (owner, attribute, original, span name) for everything to wrap."""
    modules = layer_modules()
    names = {m.__name__: m.__name__.rsplit(".", 1)[1] for m in modules}
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ in names:
                yield module, attr, obj, f"{names[obj.__module__]}.{obj.__qualname__}"
            elif (
                inspect.isclass(obj)
                and obj.__module__ == module.__name__
                and "__post_init__" in vars(obj)
            ):
                post_init = vars(obj)["__post_init__"]
                yield obj, "__post_init__", post_init, f"{names[module.__name__]}.{obj.__name__}.validate"


def install(recorder, only=None) -> list:
    """Wrap the targets with ``recorder.wrap``; return the undo list.

    ``only`` restricts wrapping to the given span names.  One wrapper is
    shared by every namespace that binds the same function.
    """
    wrappers = {}
    undo = []
    for owner, attr, original, name in _targets():
        if only is not None and name not in only:
            continue
        if id(original) not in wrappers:
            wrappers[id(original)] = recorder.wrap(name, original)
        setattr(owner, attr, wrappers[id(original)])
        undo.append((owner, attr, original))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def installed() -> int:
    """How many bindings in the layer modules are benchmark wrappers."""
    count = 0
    for module in layer_modules():
        for obj in vars(module).values():
            if hasattr(obj, MARKER):
                count += 1
            elif inspect.isclass(obj) and hasattr(vars(obj).get("__post_init__"), MARKER):
                count += 1
    return count


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        parent = span[3]
        if parent is not None:
            own[parent] -= span[2] - span[1]
    return own


def aggregate(spans: list[list]) -> dict[str, float]:
    """Per-function and per-layer ``self_s`` and ``calls``; per-layer ``errors``.

    A layer's errors count the exceptions that leave it: spans that raised
    and whose caller is outside the layer (or is the benchmark itself).
    """
    own = self_times(spans)
    metrics: dict[str, float] = defaultdict(float)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = 0.0
        metrics[f"{layer}.calls"] = 0
        metrics[f"{layer}.errors"] = 0
    for span, self_s in zip(spans, own):
        name = span[0]
        layer = name.split(".", 1)[0]
        metrics[f"{name}.self_s"] += self_s
        metrics[f"{name}.calls"] += 1
        metrics[f"{layer}.self_s"] += self_s
        metrics[f"{layer}.calls"] += 1
        if span[5]:
            parent = span[3]
            if parent is None or spans[parent][0].split(".", 1)[0] != layer:
                metrics[f"{layer}.errors"] += 1
    return dict(metrics)


def root_total(spans: list[list]) -> float:
    """Wall time covered by top-level spans."""
    return sum(span[2] - span[1] for span in spans if span[3] is None)
