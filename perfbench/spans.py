"""Span recorder for the traced run, attached to ngbounds from outside.

``Recorder.install`` wraps every public function of the nine layer modules in
every ``ngbounds`` namespace that binds it (module globals and module-level
dicts such as ``verify.SUITES``), plus ``Graph.__post_init__`` and
``GraphFamily.__post_init__`` to count constructions.  Nothing in the package
changes on disk; ``uninstall`` puts every original back.

A span is ``[name, layer, start, end, parent, op, info]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``op`` the operation id, and
``info`` a small dict some probes fill (graph size, pivots, masks, paths).
Only calls that enter a layer get a span: a call from a function of the same
layer runs unrecorded inside its caller's span.  The two ``__post_init__``
wrappers are the exception; they count every construction.  Spans stay in memory and are
written out once, by the caller, at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from math import comb

LAYERS = ("cli", "graphs", "counting", "compression", "threshold", "packing", "multicolor", "oracle", "verify")
SMALL_N = 20  # counting calls on graphs with n <= SMALL_N are "small"


def _graph_size(args, kwargs, result):
    g = args[0] if args else None
    return {"n": getattr(g, "n", None)}


def _pivots(args, kwargs, result):
    return {"n": args[0].n, "pivots": len(result[1])}


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _masks(fn):
    def probe(args, kwargs, result):
        a = _bound(fn, args, kwargs)
        total = 1 << comb(a["n"], 2)
        if a["shard"] is None:  # every shard, one after another
            return {"masks": total}
        return {"masks": len(range(a["shard"], total, a["shards"]))}

    return probe


def _colorings(fn):
    def probe(args, kwargs, result):
        a = _bound(fn, args, kwargs)
        return {"colorings": a["r"] ** comb(a["n"], 2)}

    return probe


def _paths(fn):
    def probe(args, kwargs, result):
        a = _bound(fn, args, kwargs)
        return {"paths": comb(a["r"] + a["s"], a["s"])}

    return probe


def _probe_for(layer: str, name: str, fn):
    if layer == "counting":
        return _graph_size
    if (layer, name) == ("compression", "compress_to_threshold"):
        return _pivots
    if (layer, name) == ("oracle", "exhaustive_extremal"):
        return _masks(fn)
    if (layer, name) == ("oracle", "exhaustive_coloring_extremal"):
        return _colorings(fn)
    if (layer, name) == ("packing", "discrete_border_max"):
        return _paths(fn)
    return None


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, layer: str, name: str, fn, probe, always: bool = False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not always and stack and spans[stack[-1]][1] == layer:
                # a call from inside its own layer adds only to that layer's self
                # time, which the enclosing span already measures
                return fn(*args, **kwargs)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if probe is not None:
                span[6] = probe(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("recorder already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"ngbounds.{layer}")
            for name, obj in vars(mod).items():
                if (
                    name.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)  # a span would time only its creation
                ):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(layer, f"{layer}.{name}", obj, _probe_for(layer, name, obj)))
        for modname, mod in list(sys.modules.items()):
            if modname != "ngbounds" and not modname.startswith("ngbounds."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((setattr, mod, attr, val))
                    setattr(mod, attr, hit[1])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        hit = wrappers.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._patches.append((dict.__setitem__, val, key, item))
                            val[key] = hit[1]
        from ngbounds.graphs import Graph
        from ngbounds.multicolor import GraphFamily

        for cls, layer in ((Graph, "graphs"), (GraphFamily, "multicolor")):
            orig = cls.__dict__["__post_init__"]
            self._patches.append((setattr, cls, "__post_init__", orig))
            # constructions are counted wherever they happen, so these always get a span
            cls.__post_init__ = self._wrap(layer, f"{cls.__name__}.__post_init__", orig, None, always=True)

    def uninstall(self) -> None:
        while self._patches:
            put, target, key, orig = self._patches.pop()
            put(target, key, orig)

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        out = list(self.spans)
        self.spans.clear()
        return out


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer calls and self time, plus the counters named in the README.

    ``L.calls`` counts entries into layer L: spans whose parent is in another
    layer or that have no parent.  Computed counts (pairs examined, masks
    scanned, paths enumerated) come from call arguments, not from the program.
    """
    own = self_times(spans)
    m = {f"{layer}.{key}": 0.0 for layer in LAYERS for key in ("calls", "self_s")}
    for key in (
        "counting.small_calls", "counting.small_self_s", "counting.large_self_s", "counting.max_call_s",
        "graphs.graph_inits", "graphs.init_s", "compression.pivots", "compression.pairs_examined",
        "oracle.masks_scanned", "multicolor.families", "packing.paths_enumerated",
    ):
        m[key] = 0.0
    scan_s = coloring_s = path_s = colorings = 0.0
    for idx, (name, layer, start, end, parent, _op, info) in enumerate(spans):
        entry = parent < 0 or spans[parent][1] != layer
        m[f"{layer}.self_s"] += own[idx]
        if entry:
            m[f"{layer}.calls"] += 1
        if layer == "counting":
            n = info["n"] if info else None
            small = n is not None and n <= SMALL_N
            m["counting.small_self_s" if small else "counting.large_self_s"] += own[idx]
            if entry and small:
                m["counting.small_calls"] += 1
            elif entry:
                m["counting.max_call_s"] = max(m["counting.max_call_s"], end - start)
        elif name == "Graph.__post_init__":
            m["graphs.graph_inits"] += 1
            m["graphs.init_s"] += own[idx]
        elif name == "GraphFamily.__post_init__":
            m["multicolor.families"] += 1
        elif info and "pivots" in info:
            m["compression.pivots"] += info["pivots"]
            m["compression.pairs_examined"] += (info["pivots"] + 1) * comb(info["n"], 2)
        elif info and "masks" in info:
            m["oracle.masks_scanned"] += info["masks"]
            scan_s += end - start
        elif info and "colorings" in info:
            colorings += info["colorings"]
            coloring_s += end - start
        elif info and "paths" in info:
            m["packing.paths_enumerated"] += info["paths"]
            path_s += end - start
    pairs = m["compression.pairs_examined"]
    m["compression.pivot_yield"] = m["compression.pivots"] / pairs if pairs else 0.0
    m["oracle.masks_per_s"] = m["oracle.masks_scanned"] / scan_s if scan_s else 0.0
    m["oracle.colorings_per_s"] = colorings / coloring_s if coloring_s else 0.0
    m["packing.paths_per_s"] = m["packing.paths_enumerated"] / path_s if path_s else 0.0
    return m


def layer_shares(spans: list[list]) -> dict[str, float]:
    """Each layer's share of the total self time inside spans."""
    own = self_times(spans)
    total = sum(own) or 1.0
    shares = dict.fromkeys(LAYERS, 0.0)
    for idx, s in enumerate(spans):
        shares[s[1]] += own[idx] / total
    return shares
