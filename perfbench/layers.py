"""Layer attribution of engine wall time.

:class:`LayerProfiler` plugs into the engine's ``profiler`` hook (the
engine calls ``profiler.dispatch(callback, args)`` for every event when
one is attached) and charges each callback's wall time and event to the
layer owning the callback: the ``repro`` subpackage of the callback
owner's module (``repro.memory.l2`` -> ``memory``).  Time a callback
spends calling into another layer stays with the callback's owner.
A callback from a module outside the reported :data:`ENGINE_LAYERS`
is still counted, under its package, and is listed as unmapped.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Set

#: the ``repro`` subpackages the benchmark reports as layers
LAYERS = (
    "sim",
    "network",
    "core",
    "memory",
    "vm",
    "gpu",
    "workloads",
    "stats",
    "shard",
    "experiments",
    "campaign",
)
#: layers whose callbacks the event engine dispatches, in report order;
#: the only layers reported per event
ENGINE_LAYERS = ("sim", "gpu", "network", "core", "memory", "vm")


def layer_of_module(module: Optional[str]) -> Optional[str]:
    """``repro.<layer>.*`` -> ``<layer>``; ``None`` for anything else."""
    parts = (module or "").split(".")
    if len(parts) >= 3 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return None


class LayerProfiler:
    """Per-layer dispatch counts and in-callback wall seconds."""

    def __init__(self) -> None:
        #: layer -> [events, seconds]
        self.by_layer: Dict[str, List[float]] = {}
        #: modules whose callbacks map to no reported layer
        self.unmapped: Set[str] = set()
        self._layer_of_type: Dict[type, str] = {}

    def _layer(self, callback: Callable) -> str:
        owner = getattr(callback, "__self__", None)
        if owner is not None:
            kind = type(owner)
            layer = self._layer_of_type.get(kind)
            if layer is None:
                layer = self._resolve(kind.__module__)
                self._layer_of_type[kind] = layer
            return layer
        return self._resolve(getattr(callback, "__module__", None))

    def _resolve(self, module: Optional[str]) -> str:
        layer = layer_of_module(module)
        if layer not in ENGINE_LAYERS:
            self.unmapped.add(str(module))
        return layer or f"unmapped:{module}"

    def dispatch(self, callback: Callable, args: tuple) -> None:
        layer = self._layer(callback)
        start = time.perf_counter()
        try:
            callback(*args)
        finally:
            elapsed = time.perf_counter() - start
            entry = self.by_layer.get(layer)
            if entry is None:
                self.by_layer[layer] = [1, elapsed]
            else:
                entry[0] += 1
                entry[1] += elapsed

    @property
    def events(self) -> int:
        return int(sum(entry[0] for entry in self.by_layer.values()))

    @property
    def reported_events(self) -> int:
        """Events charged to the reported layers."""
        return sum(self.layer_events(layer) for layer in ENGINE_LAYERS)

    def layer_events(self, layer: str) -> int:
        return int(self.by_layer.get(layer, (0, 0.0))[0])

    def layer_seconds(self, layer: str) -> float:
        return float(self.by_layer.get(layer, (0, 0.0))[1])
