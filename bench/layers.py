"""Per-layer tracing from outside the package, with ``sys.setprofile``.

The layers are the modules of ``frontinv``.  The hook sees every Python call
and return; time spent in C functions counts for the Python frame that called
them.  It keeps a stack of the layer each frame runs in (a frame outside
the package, such as a dataclass ``__init__`` or ``json``, runs in its caller's
layer), adds the time between two events to the layer on top of the stack (its
self time: its span minus the spans of the layers it calls), times named entry
points from their outermost call to its return, and counts calls.  Calls are
counted per function call; resuming a generator is not a call.

Call counts are exact and repeat across processes; times include the hook's
own cost, so they are larger than in an untraced run.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

LAYERS = ("front", "rulings", "legskein", "diagram", "toposkein", "poly", "cli")

# (module, function) -> span metric: time from the outermost call to its return.
SPANS = {
    ("front", "parse_front"): "front.parse_ms",
    ("front", "parse_front_file"): "front.parse_ms",
    ("front", "orient"): "front.orient_ms",
    ("front", "all_orientations"): "front.orient_ms",
    ("front", "invariants"): "front.orient_ms",
    ("front", "components"): "front.orient_ms",
    ("rulings", "ruling_polynomial"): "rulings.sweep_ms",
    ("rulings", "oriented_ruling_polynomial"): "rulings.sweep_ms",
    ("legskein", "evaluate_B"): "legskein.evaluate_B_ms",
    ("legskein", "canonicalize"): "legskein.canonicalize_ms",
    ("diagram", "from_oriented_front"): "diagram.topk_ms",
    ("toposkein", "kauffman_D"): "toposkein.D_ms",
    ("toposkein", "homfly_H"): "toposkein.H_ms",
    ("cli", "main"): "cli.verify_ms",
}

# (module, function) -> call counter; (module, None) counts every call into the module.
COUNTS = {
    ("front", None): "front.calls",
    ("rulings", "sweep_step"): "rulings.sweep_step_calls",
    ("legskein", None): "legskein.calls",
    ("legskein", "canonicalize"): "legskein.canonicalize_calls",
    ("diagram", "traverse"): "diagram.traverse_calls",
    ("toposkein", "kauffman_D"): "toposkein.D_per_front",
    ("toposkein", "homfly_H"): "toposkein.H_per_front",
    ("poly", "__mul__"): "poly.mul_calls",
}

SELF = {layer: f"{layer}.self_ms" for layer in LAYERS}

METRICS = tuple(dict.fromkeys(list(SPANS.values()) + list(COUNTS.values()) + list(SELF.values())))

_GENERATOR_FLAGS = inspect.CO_GENERATOR | inspect.CO_COROUTINE | inspect.CO_ASYNC_GENERATOR


class LayerTracer:
    """Accumulates span times, self times and call counts over traced calls."""

    def __init__(self):
        self.module_of = {
            importlib.import_module(f"frontinv.{layer}").__file__: layer for layer in LAYERS
        }
        self.seconds = dict.fromkeys([*SPANS.values(), *SELF.values()], 0.0)
        self.counts = dict.fromkeys(COUNTS.values(), 0)
        self._info = {}       # code object -> (self-time metric, span metric, counters) or None
        self._depth = dict.fromkeys(SPANS.values(), 0)
        self._start = {}
        self._stack = []      # (self-time metric, span metric)
        self._last = 0.0

    def _describe(self, code):
        layer = self.module_of.get(code.co_filename)
        if layer is None:
            return None
        name = code.co_name
        counters = []
        if not code.co_flags & _GENERATOR_FLAGS:
            counters = [COUNTS[key] for key in ((layer, None), (layer, name)) if key in COUNTS]
        return SELF[layer], SPANS.get((layer, name)), tuple(counters)

    def _hook(self, frame, event, arg):
        if event == "call":
            now = time.perf_counter()
            stack = self._stack
            if stack and stack[-1][0] is not None:
                self.seconds[stack[-1][0]] += now - self._last
            code = frame.f_code
            info = self._info.get(code, False)
            if info is False:
                info = self._info[code] = self._describe(code)
            if info is None:
                # Outside the package: charge the caller's layer.
                stack.append((stack[-1][0], None) if stack else (None, None))
            else:
                self_metric, span, counters = info
                for c in counters:
                    self.counts[c] += 1
                if span is not None:
                    if self._depth[span] == 0:
                        self._start[span] = now
                    self._depth[span] += 1
                stack.append((self_metric, span))
            self._last = time.perf_counter()
        elif event == "return" and self._stack:
            now = time.perf_counter()
            self_metric, span = self._stack.pop()
            if self_metric is not None:
                self.seconds[self_metric] += now - self._last
            if span is not None:
                self._depth[span] -= 1
                if self._depth[span] == 0:
                    self.seconds[span] += now - self._start[span]
            self._last = time.perf_counter()

    def __enter__(self):
        self._last = time.perf_counter()
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc):
        sys.setprofile(None)
        return False

    def metrics(self) -> dict[str, float]:
        """Seconds reported in ms, counts as counts."""
        out = {name: 1000.0 * s for name, s in self.seconds.items()}
        out.update(self.counts)
        return {name: out[name] for name in METRICS}
