"""Host calibration: a fixed pure-Python reference loop and the host
fingerprint every report carries.

Host wall time on a shared machine drifts with co-tenant load, CPU
frequency and cache pressure.  The reference loop exercises the
interpreter machinery the simulator leans on (dict lookups, a binary
heap, bound-method calls on small objects spread over a large working
set) and is timed between units of work, so a host-wide slowdown shows
up in both.  A calibrated time is
the wall time rescaled to a host on which the loop takes
``REFERENCE_NOMINAL_S``:

    calibrated_s = wall_s * (REFERENCE_NOMINAL_S / reference_s) ** ELASTICITY

The simulator does not slow down in proportion to the loop: its wall
time moves by about half the loop's relative change (``ELASTICITY``).
A workload that keeps several processes busy times the loop in as many
processes at once (:class:`ParallelReference`).

The loop runs between units, so it cannot see CPU time the hypervisor
takes while a unit runs.  The guest kernel counts that time (the
``steal`` column of ``/proc/stat``); each unit's share of it, divided
among the processes the unit keeps busy, is taken off its wall time
before the rescaling above.

This module imports nothing from ``repro``: the loop must not change
when the program does.
"""

from __future__ import annotations

import bisect
import heapq
import multiprocessing
import os
import platform
import statistics
import time
from typing import Dict, List, Optional, Tuple

#: iterations of one reference-loop timing
REFERENCE_ITERATIONS = 5000
#: the loop's median time between simulation points on the host the
#: benchmark was calibrated on (Intel Xeon, 2 CPUs, CPython 3.11.7);
#: calibrated seconds are seconds on that host
REFERENCE_NOMINAL_S = 0.012
#: how far the simulator's wall time follows the loop's, as the exponent
#: of the loop's slowdown.  Fitted on the calibration host over five sets
#: of 5-10 runs of the three workloads (raw spreads of 6-27%):
#: the largest quartile spread of a throughput or turnaround metric was
#: 26% with 1.0 (full rescaling) and 12.5% with 0.5, the lowest of the
#: values tried (0, 0.25, 0.5, 0.75, 1).
#: When the host turned fast, the loop ran up to twice as fast while the
#: simulator ran about 1.4 times as fast.
ELASTICITY = 0.5
#: timings per reference sample; the sample is their median
REFERENCE_REPEATS = 3
#: a unit is calibrated by the samples this close to it in time ...
REFERENCE_WINDOW_S = 2.0
#: ... and by at least this many of the nearest samples
REFERENCE_MIN_SAMPLES = 5


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def bump(self, delta: int) -> int:
        self.value = (self.value + delta) & 0xFFFF
        return self.value


class ReferenceLoop:
    """Fixed interpreter-bound work over a simulator-sized working set.

    A 64 Ki-entry table of small objects, reached by a pseudo-random
    walk, with a method call, a dict lookup and a binary-heap push/pop
    per step.  A loop over a few cached objects jitters with the host
    while barely tracking the simulator; spreading the same operations
    over a working set that misses in cache the way the simulator's does
    tracked it closest of the loops tried.
    """

    SIZE = 1 << 16

    def __init__(self, iterations: int = REFERENCE_ITERATIONS) -> None:
        self.iterations = iterations
        self.table: Dict[int, _Cell] = {i: _Cell(i) for i in range(self.SIZE)}
        self.cells: List[_Cell] = list(self.table.values())

    def run(self) -> int:
        """One pass; returns a checksum so nothing is elided."""
        mask = self.SIZE - 1
        table, cells = self.table, self.cells
        heap: List[Tuple[int, int]] = []
        acc = 0
        x = 12345
        for i in range(self.iterations):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            acc += cells[x & mask].bump(i)
            if table.get((x >> 8) & mask) is None:
                acc += 1
            heapq.heappush(heap, (x & 1023, i))
            if len(heap) > 64:
                acc ^= heapq.heappop(heap)[1]
        return acc

    def time(self, repeats: int = REFERENCE_REPEATS) -> float:
        """Median wall seconds of ``repeats`` passes."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            self.run()
            times.append(time.perf_counter() - start)
        return statistics.median(times)


def _reference_worker(conn, iterations: int) -> None:
    """Helper side of :class:`ParallelReference`: time the loop on request."""
    loop = ReferenceLoop(iterations)
    while True:
        repeats = conn.recv()
        if repeats is None:
            return
        conn.send(loop.time(repeats))


class ParallelReference:
    """The reference loop timed in ``processes`` processes at once.

    A workload that keeps two processes busy (the campaign server's
    worker pool, a two-shard drive) slows down when the host takes one of
    its CPUs away,
    while one process timing the loop alone, between units, does not see
    that.  A sample is the mean of the concurrent timings.  Call
    :meth:`close` to stop the helper processes.
    """

    def __init__(self, processes: int = 2, iterations: int = REFERENCE_ITERATIONS) -> None:
        context = multiprocessing.get_context("fork")
        self._loop = ReferenceLoop(iterations)
        self._conns = []
        self._procs = []
        for _ in range(processes - 1):
            ours, theirs = context.Pipe()
            proc = context.Process(target=_reference_worker, args=(theirs, iterations),
                                   daemon=True)
            proc.start()
            theirs.close()
            self._conns.append(ours)
            self._procs.append(proc)

    def time(self, repeats: int = REFERENCE_REPEATS) -> float:
        for conn in self._conns:
            conn.send(repeats)
        times = [self._loop.time(repeats)]
        times.extend(conn.recv() for conn in self._conns)
        return statistics.mean(times)

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(None)
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
                proc.join()


def stolen_seconds() -> float:
    """CPU seconds the hypervisor has taken from this machine's CPUs (the
    ``steal`` column of ``/proc/stat``); 0 where the kernel has no such
    count."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def calibrate(wall_s: float, reference_s: float,
              nominal_s: float = REFERENCE_NOMINAL_S,
              elasticity: float = ELASTICITY) -> float:
    """Wall seconds rescaled to the calibration host."""
    if reference_s <= 0:
        raise ValueError(f"reference time must be positive, got {reference_s}")
    return wall_s * (nominal_s / reference_s) ** elasticity


class Calibrator:
    """Times the reference loop between units of work and calibrates each
    unit against the reference samples taken around it.

    Callers call :meth:`checkpoint` between units (or every few units
    when they are short), report each unit's wall seconds with :meth:`add`
    right after it ends, and call :meth:`close` at the end.  A unit's
    reference is the median of the samples within ``window_s`` seconds of
    it, and at least the ``min_samples`` nearest ones: one sample jitters
    by about 10% on a shared host, so a unit needs several, while the
    host's speed wanders over seconds, so they should be recent.
    """

    def __init__(self, nominal_s: float = REFERENCE_NOMINAL_S, timer=None,
                 window_s: float = REFERENCE_WINDOW_S,
                 min_samples: int = REFERENCE_MIN_SAMPLES, clock=time.perf_counter,
                 elasticity: float = ELASTICITY, busy: int = 1,
                 steal=stolen_seconds) -> None:
        self.nominal_s = nominal_s
        self.elasticity = elasticity
        #: processes a unit keeps busy; stolen CPU time is shared among them
        self.busy = busy
        self._steal = steal
        #: (time, stolen seconds so far), at every checkpoint and unit end
        self._steal_marks: List[Tuple[float, float]] = []
        self.window_s = window_s
        self.min_samples = min_samples
        self._timer = timer or ReferenceLoop().time
        self._clock = clock
        #: (time taken, reference seconds)
        self.samples: List[Tuple[float, float]] = []
        #: (kind, wall seconds, start time, end time)
        self._units: List[Tuple[str, float, float, float]] = []
        self._closed = False

    def checkpoint(self) -> None:
        self._mark_steal()
        reference = self._timer()
        self.samples.append((self._clock(), reference))

    def add(self, kind: str, wall_s: float, since: Optional[float] = None) -> None:
        """Record a unit that just ended; ``since`` is when it started, for
        a unit whose wall time counts only part of the span (a pass)."""
        if not self.samples:
            raise RuntimeError("work recorded before the first reference sample")
        end = self._clock()
        self._mark_steal()
        self._units.append((kind, wall_s, end - wall_s if since is None else since, end))

    def close(self) -> None:
        """Take the closing reference sample; calibration needs it."""
        self.checkpoint()
        self._closed = True

    def _mark_steal(self) -> None:
        self._steal_marks.append((self._clock(), self._steal()))

    def _stolen_at(self, at: float) -> float:
        """Stolen seconds at time ``at``, interpolated between marks."""
        marks = self._steal_marks
        index = bisect.bisect_left(marks, (at, float("-inf")))
        if index == 0:
            return marks[0][1]
        if index == len(marks):
            return marks[-1][1]
        (t0, s0), (t1, s1) = marks[index - 1], marks[index]
        return s0 + (s1 - s0) * (at - t0) / (t1 - t0) if t1 > t0 else s1

    def stolen(self, start: float, end: float) -> float:
        """CPU seconds stolen from the machine between ``start`` and ``end``."""
        return self._stolen_at(end) - self._stolen_at(start)

    def kinds(self) -> List[str]:
        return sorted({unit[0] for unit in self._units})

    def raw(self, kind: str) -> List[float]:
        return [unit[1] for unit in self._units if unit[0] == kind]

    def reference(self, start: float, end: float) -> float:
        """Median reference around the interval ``[start, end]``."""
        if not self._closed:
            raise RuntimeError("calibration before the run's closing reference sample")

        def distance(sample: Tuple[float, float]) -> float:
            at = sample[0]
            return max(0.0, start - at, at - end)

        ranked = sorted(self.samples, key=distance)
        near = [ref for at, ref in ranked if distance((at, ref)) <= self.window_s]
        if len(near) < self.min_samples:
            near = [ref for _, ref in ranked[: self.min_samples]]
        return statistics.median(near)

    def calibrated(self, kind: str) -> List[float]:
        return [
            calibrate(
                max(0.0, wall - self._stolen_share(wall, start, end)),
                self.reference(start, end), self.nominal_s, self.elasticity,
            )
            for k, wall, start, end in self._units
            if k == kind
        ]

    def _stolen_share(self, wall: float, start: float, end: float) -> float:
        """A unit's share of the stolen CPU time: per busy process, and for
        a unit whose wall counts only part of its span, that part."""
        span = end - start
        stolen = self.stolen(start, end) / self.busy
        return stolen * wall / span if span > wall else stolen


def host_fingerprint() -> Dict[str, object]:
    """CPU model, CPUs available to this process, and the interpreter."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return {
        "cpu": model,
        "nproc": cpus,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }
