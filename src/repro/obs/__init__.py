"""Structured observability: tracing, metrics time series, profiling.

The three legs, bundled by :class:`Observability` (built from the
picklable :class:`ShardObsSpec` recipe where it must cross a process)
and threaded through every node by :class:`~repro.gpu.node.NodeSlice`:

* :class:`~repro.obs.tracer.EventTracer` — per-flit/per-packet lifecycle
  events (inject, stage, pool, stitch, trim, eject, wire_start,
  deliver), ring-buffered with packet-granular sampling, exported as
  JSONL or Chrome ``trace_event`` JSON;
* :class:`~repro.obs.metrics.MetricsRegistry` — named counters/gauges
  snapshotted every N cycles into a time series;
* :class:`~repro.obs.profiler.EngineProfiler` — events dispatched and
  wall time per callback class inside the event engine.

Everything defaults off: components carry :data:`NULL_TRACER` and the
engine's ``profiler`` is ``None``, so the disabled path costs a branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.obs.counters import CounterSet
from repro.obs.metrics import METRICS_SCHEMA_VERSION, MetricsRegistry
from repro.obs.profiler import EngineProfiler, callback_key
from repro.obs.schema import (
    EVENTS,
    FLIT_EVENTS,
    PACKET_EVENTS,
    validate_jsonl,
    validate_record,
    validate_records,
)
from repro.obs.tracer import (
    NULL_TRACER,
    TRACE_SCHEMA_VERSION,
    EventTracer,
    NullTracer,
    iter_jsonl,
)

__all__ = [
    "EVENTS",
    "FLIT_EVENTS",
    "PACKET_EVENTS",
    "METRICS_SCHEMA_VERSION",
    "TRACE_SCHEMA_VERSION",
    "NULL_TRACER",
    "CounterSet",
    "EventTracer",
    "NullTracer",
    "MetricsRegistry",
    "EngineProfiler",
    "Observability",
    "ShardObsSpec",
    "callback_key",
    "iter_jsonl",
    "validate_jsonl",
    "validate_record",
    "validate_records",
]


@dataclass
class Observability:
    """The observability bundle one simulation run is wired with.

    The default-constructed bundle is fully disabled and adds near-zero
    overhead; enable legs individually::

        obs = Observability(
            tracer=EventTracer(sample=4),
            metrics=MetricsRegistry(interval=1000),
            profiler=EngineProfiler(),
        )
        system = MultiGpuSystem(config, netcrafter, obs=obs)
    """

    tracer: Union[NullTracer, EventTracer] = field(default=NULL_TRACER)
    metrics: Optional[MetricsRegistry] = None
    profiler: Optional[EngineProfiler] = None

    @property
    def enabled(self) -> bool:
        return (
            self.tracer.enabled
            or self.metrics is not None
            or self.profiler is not None
        )


@dataclass(frozen=True)
class ShardObsSpec:
    """Picklable recipe for a run's observability instruments.

    Live instruments hold simulator callbacks and cannot cross a process
    boundary, so front ends pass this recipe instead and every engine —
    the single engine, or each shard in its own process — builds its own
    bundle from it.
    """

    trace: bool = False
    trace_sample: int = 1
    metrics_interval: Optional[int] = None
    profile: bool = False

    @property
    def active(self) -> bool:
        return self.trace or self.metrics_interval is not None or self.profile

    def build(self) -> Observability:
        return Observability(
            tracer=EventTracer(sample=self.trace_sample) if self.trace else NULL_TRACER,
            metrics=(
                MetricsRegistry(self.metrics_interval)
                if self.metrics_interval is not None
                else None
            ),
            profiler=EngineProfiler() if self.profile else None,
        )
