"""Layer-boundary host-time tracer built on ``sys.setprofile``.

The simulator is organised as packages under ``src/repro/<layer>/``.  The
tracer measures each layer from outside the program: it opens a span
whenever a Python-level call crosses from one layer's code into
another's, and closes it when that frame returns.  A layer's self time is
its span time minus the time covered by child-layer spans.  Calls that
stay inside one layer cost one dictionary lookup and open nothing.

Attribution rules:

* ``repro/<pkg>/...`` belongs to layer ``<pkg>``; ``handlers_library``
  and ``hpu_isa`` fold into ``core`` (they are the handler model) and
  ``perf`` into ``obs`` (instrumentation).
* Anything else outside ``src/repro`` (numpy, networkx, the standard
  library, frozen import machinery) is ``ext``.
* The package root ``repro/__init__.py``, the benchmark's own files and
  synthesised code (``<string>`` dataclass methods) inherit the caller's
  layer.
* Time inside C builtins is charged to the layer that called them.

``ResultCache.load`` and ``ResultCache.append`` are additionally timed
inclusively (outermost frame only) as the cache read and write costs.
"""

from __future__ import annotations

import os
import sys
import time

__all__ = ["LAYERS", "LayerTracer"]

LAYERS = (
    "des", "network", "machine", "core", "portals", "runtime", "storage",
    "apps", "sim", "traffic", "faults", "obs", "campaign", "bench",
    "experiments", "usecases", "ext",
)
_ALIASES = {"handlers_library": "core", "hpu_isa": "core", "perf": "obs"}
_INDEX = {name: i for i, name in enumerate(LAYERS)}
_EXT = _INDEX["ext"]
_INHERIT = -1
#: Added to a layer index to mark ResultCache read (1) / write (2) frames.
_WATCH = 100
#: By qualified name; by bare name on Python 3.10, which has no
#: ``co_qualname`` (there ``CacheIndex.append`` also matches, but it only
#: runs nested inside ``ResultCache.append``, and only outermost frames count).
_WATCHED = {"ResultCache.load": 1, "ResultCache.append": 2,
            "load": 1, "append": 2}


class LayerTracer:
    """Context manager accumulating per-layer self time and call counts."""

    def __init__(self, repro_root: str, bench_root: str):
        self._repro = os.path.join(os.path.realpath(repro_root), "")
        self._bench = os.path.join(os.path.realpath(bench_root), "")
        self.self_s = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        #: Inclusive seconds in ResultCache.load / ResultCache.append.
        self.cache_read_s = 0.0
        self.cache_write_s = 0.0
        self._codes: dict = {}

    def _classify(self, code) -> int:
        fname = code.co_filename
        if fname.startswith("<"):
            return _EXT if fname.startswith("<frozen") else _INHERIT
        fname = os.path.realpath(fname)
        if fname.startswith(self._bench):
            return _INHERIT
        if not fname.startswith(self._repro):
            return _EXT
        head = fname[len(self._repro):].split(os.sep, 1)[0]
        if head.endswith(".py"):
            head = head[:-3]
        layer = _INDEX.get(_ALIASES.get(head, head), _INHERIT)
        if head == "campaign" and fname.endswith(os.sep + "cache.py"):
            name = getattr(code, "co_qualname", code.co_name)
            if name in _WATCHED:
                return layer + _WATCH * _WATCHED[name]
        return layer

    def _make_hook(self):
        clock = time.perf_counter
        codes = self._codes
        classify = self._classify
        calls = self.calls
        self_s = self.self_s
        # Span stack: the frame that opened each span, its layer, its start
        # time and the time its child-layer spans covered.  The bottom entry
        # is the benchmark's own code and is never reported.
        frames = [None]
        layers = [_INHERIT]
        starts = [clock()]
        child = [0.0]
        watch_frames = [None]
        watch_kinds = [0]
        watch_starts = [0.0]
        tracer = self

        def hook(frame, event, arg):
            if event == "call":
                code = frame.f_code
                layer = codes.get(code)
                if layer is None:
                    layer = codes[code] = classify(code)
                if layer >= _WATCH:
                    if watch_frames[-1] is None:
                        watch_frames.append(frame)
                        watch_kinds.append(layer // _WATCH)
                        watch_starts.append(clock())
                    layer %= _WATCH
                if layer < 0 or layer == layers[-1]:
                    return
                frames.append(frame)
                layers.append(layer)
                child.append(0.0)
                calls[layer] += 1
                starts.append(clock())
            elif event == "return":
                if frame is frames[-1]:
                    dur = clock() - starts.pop()
                    frames.pop()
                    self_s[layers.pop()] += dur - child.pop()
                    child[-1] += dur
                if frame is watch_frames[-1]:
                    dur = clock() - watch_starts.pop()
                    watch_frames.pop()
                    if watch_kinds.pop() == 1:
                        tracer.cache_read_s += dur
                    else:
                        tracer.cache_write_s += dur

        return hook

    def __enter__(self) -> "LayerTracer":
        sys.setprofile(self._make_hook())
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)

    def stats(self) -> dict:
        """``<layer>.self_s`` / ``<layer>.calls`` plus the cache timings."""
        out = {}
        for i, name in enumerate(LAYERS):
            out[f"{name}.self_s"] = self.self_s[i]
            out[f"{name}.calls"] = self.calls[i]
        out["campaign.cache_read_s"] = self.cache_read_s
        out["campaign.cache_write_s"] = self.cache_write_s
        return out
