"""Metric bookkeeping and the benchmark's result line.

A :class:`Report` collects one workload's metrics (each with its unit,
its raw value when the metric is calibrated, and its sample count),
counts operations attempted and failed, and renders both the
human-readable report and the final JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import json
import math
import re
import resource
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_name(name: str) -> str:
    if not NAME_RE.match(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


def check_unit(unit: str) -> str:
    if not UNIT_RE.match(unit):
        raise ValueError(f"bad metric unit {unit!r}")
    return unit


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile, ``p`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set so far of this process, any waited-for child and
    the running process ``pid`` (read from ``/proc`` where there is one),
    in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    other = 0
    if pid is not None:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        other = int(line.split()[1])
        except OSError:
            pass
    return max(own, children, other) / 1024.0


@dataclass
class Metric:
    value: float
    unit: str
    raw: Optional[float] = None
    samples: int = 1


class Report:
    """One workload run's metrics, operation counts and failures."""

    def __init__(self, workload: str, seed: int, host: Dict[str, object]) -> None:
        self.workload = workload
        self.seed = seed
        self.host = host
        self.metrics: Dict[str, Metric] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.notes: List[str] = []

    # -- operations ---------------------------------------------------------

    def operation(self, problems: Sequence[str], what: str) -> bool:
        """Count one attempted operation; it fails if it has problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{what}: {p}" for p in problems)
            return False
        return True

    @property
    def error_rate(self) -> float:
        """Failed over attempted; a run that attempted nothing failed."""
        if self.attempted == 0:
            return 1.0
        return self.failed / self.attempted

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

    # -- metrics ------------------------------------------------------------

    def set(self, name: str, value: float, unit: str, raw: Optional[float] = None,
            samples: int = 1) -> None:
        check_name(name)
        check_unit(unit)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        self.metrics[name] = Metric(value, unit, raw, samples)

    def note(self, line: str) -> None:
        self.notes.append(line)

    # -- output -------------------------------------------------------------

    def lines(self, names: Sequence[str]) -> List[str]:
        out = [
            f"workload {self.workload}  seed {self.seed}",
            "host " + json.dumps(self.host, sort_keys=True),
        ]
        width = max((len(n) for n in names), default=10)
        for name in names:
            metric = self.metrics[name]
            raw = "" if metric.raw is None else f"  raw {metric.raw:.6g}"
            value = metric.value if isinstance(metric.value, int) else f"{metric.value:.6g}"
            out.append(
                f"  {name:<{width}}  {value} {metric.unit}"
                f"{raw}  (n={metric.samples})"
            )
        out.extend(f"  {line}" for line in self.notes)
        out.append(
            f"  operations {self.attempted} attempted, {self.failed} failed"
            f"  error_rate {self.error_rate:.4g}"
        )
        out.extend(f"  FAILED {line}" for line in self.failures)
        return out

    def result_line(self, names: Sequence[str]) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": self.metrics[name].value, "unit": self.metrics[name].unit}
                    for name in names
                },
            }
        )
