"""Span recorder that wraps the public functions of every ``tlc`` layer.

Nothing under ``src/`` knows about it: ``install`` replaces each public
function of the layer modules at every place it is bound (the defining
module, the package namespace and every module that did
``from .x import f``), and ``uninstall`` puts the originals back. The
wrappers only record while ``Tracer.active`` is set, so the benchmark's
own correctness checks can call the library without being counted.

A span's self time is its duration minus the durations of the spans it
directly encloses. Byte counts are computed from array shapes at the
layer boundary, not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("tensor", "integral", "modules", "fusion", "analysis", "demo", "cli")


def _array_bytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(_array_bytes(v) for v in value)
    return 0


def _tlct_bytes(fmap) -> int:
    return 20 + 4 * fmap.data.size  # header plus float32 payload


# Extra counters taken at a span's end: hook(tracer, args, result, outermost).
def _integral_bytes(t, args, result, outermost):
    if outermost:  # the layer boundary; nested kernels would double count
        t.extra["integral.computed_bytes"] += sum(map(_array_bytes, args)) + _array_bytes(result)


def _replicate(t, args, result, outermost):
    _integral_bytes(t, args, result, outermost)
    t.extra["integral.replicate_to_full.padded"] += result.size - args[0].size
    t.extra["integral.replicate_to_full.pixels"] += result.size


def _read(t, args, result, outermost):
    t.extra["tensor.read_tensor.bytes"] += _tlct_bytes(result)


def _write(t, args, result, outermost):
    t.extra["tensor.write_tensor.bytes"] += _tlct_bytes(args[0])


def _fuse(t, args, result, outermost):
    plan = args[1]
    k_h, k_w = plan.window
    h, w = plan.shape
    t.extra["fusion.tiles"] += len(plan.placements)
    t.extra["fusion.tile_area"] += len(plan.placements) * k_h * k_w
    t.extra["fusion.map_area"] += h * w


_HOOKS = {
    "tensor.read_tensor": _read,
    "tensor.write_tensor": _write,
    "integral.replicate_to_full": _replicate,
    "fusion.apply_and_fuse": _fuse,
}


class Tracer:
    """Per-function call counts and self times, and extra counters."""

    def __init__(self):
        self.active = False
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(float)
        # Local-mode (window given) durations of the module forwards.
        self.local_forward_s = defaultdict(list)
        self._children = []  # child-time accumulator per open span
        self._depth = defaultdict(int)  # open spans per layer
        self._installed = []
        self.names = set()  # every wrapped function, as "layer.name"

    def wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        hook = _HOOKS.get(name)
        if name.startswith("integral.") and hook is None:
            hook = _integral_bytes
        signature = None
        if name.startswith("modules.") and name.endswith("_forward"):
            signature = inspect.signature(fn)
        self.names.add(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            children = tracer._children
            children.append(0.0)
            tracer._depth[layer] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = children.pop()
                tracer._depth[layer] -= 1
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - child
                if children:
                    children[-1] += dur
            if hook is not None:
                hook(tracer, args, result, tracer._depth[layer] == 0)
            if signature is not None:
                bound = signature.bind(*args, **kwargs).arguments
                if bound.get("window") is not None:
                    groups = getattr(bound.get("p"), "groups", None)  # GN vs IN
                    key = name if groups is None else f"{name}.groups={groups}"
                    tracer.local_forward_s[key].append(dur)
            return result

        return wrapper

    def install(self):
        """Wrap every public function of each layer at every binding site."""
        for layer in LAYERS:
            importlib.import_module(f"tlc.{layer}")
        sites = [m for n, m in sys.modules.items() if n == "tlc" or n.startswith("tlc.")]
        for layer in LAYERS:
            mod = sys.modules[f"tlc.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                for site in sites:
                    for key, value in list(vars(site).items()):
                        if value is fn:
                            setattr(site, key, wrapper)
                            self._installed.append((site, key, fn))
        from tlc.tensor import FeatureMap

        post_init = FeatureMap.__post_init__
        FeatureMap.__post_init__ = self.wrap("tensor.FeatureMap", post_init)
        self._installed.append((FeatureMap, "__post_init__", post_init))

    def uninstall(self):
        for site, key, fn in reversed(self._installed):
            setattr(site, key, fn)
        self._installed.clear()
