"""The simulator workloads: ``table3_mesh`` and ``collective_sharded``.

Both are closed loops from one process: a *pass* drives a fixed point
list once, point after point, and passes repeat until the run's time is
used.  Every point is a unit of work: build the trace, construct the
node, ``load``, ``run``.  The reference loop is timed between points so
each point's wall time is calibrated against the host at that moment.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from calibration import Calibrator, ParallelReference
from layers import ENGINE_LAYERS, LayerProfiler
from report import Report, geomean, peak_rss_mb

from repro.bench.smoke import results_digest
from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.gpu.system import MultiGpuSystem
from repro.shard.coordinator import ShardedSystem
from repro.stats.collectors import RunStats
from repro.stats.verification import verify_traffic
from repro.workloads.base import Scale
from repro.workloads.registry import all_workload_names, get_workload

DIGEST_FILE = Path(__file__).resolve().parent / "digests" / "table3_mesh.json"
#: trace seeds with committed per-point digests; a run's seed draws one
#: per application from this pool
TABLE3_SEED_POOL = 8
#: set-up repetitions per run; ``setup_s`` is their median
SETUP_REPS = 9
VARIANTS = ("baseline", "full")
COLLECTIVES = ("ar_ring", "trainmix")
#: half of ``Scale.small``'s CTAs: large enough that the two shards
#: overlap real work (about 1.15x on 2 CPUs), small enough that a pass
#: of both collectives on both drives stays near 10 s
COLLECTIVE_SCALE = Scale(
    ctas_per_gpu=8, wavefronts_per_cta=4, accesses_per_wavefront=10, pages_per_gpu=16
)


def netcrafter(variant: str) -> NetCrafterConfig:
    return NetCrafterConfig.full() if variant == "full" else NetCrafterConfig.baseline()


def macro_config() -> SystemConfig:
    """The sharded macro node: 8 GPUs in 4 clusters, 128-cycle
    inter-cluster latency (a wide lookahead window per round trip)."""
    return SystemConfig.default().with_overrides(n_clusters=4, inter_link_latency=128)


@dataclass(frozen=True)
class Point:
    workload: str
    variant: str
    seed: int

    @property
    def key(self) -> str:
        return f"{self.workload}/{self.variant}/{self.seed}"


def table3_points(seed: int) -> List[Point]:
    """All 15 Table-3 applications x {baseline, full}; the run seed picks
    each application's trace seed from the committed pool."""
    rng = random.Random(seed)
    points = []
    for app in all_workload_names():
        trace_seed = rng.randrange(TABLE3_SEED_POOL)
        points.extend(Point(app, v, trace_seed) for v in VARIANTS)
    return points


def collective_points(seed: int) -> List[Point]:
    return [Point(w, "full", seed) for w in COLLECTIVES]


def load_digests() -> Dict[str, str]:
    return json.loads(DIGEST_FILE.read_text())


def point_digest(result) -> str:
    return results_digest([result.to_dict()])


# -- one point ---------------------------------------------------------------


@dataclass
class Drive:
    """One point driven once: its timings, result and node."""

    build_s: float
    node_s: float
    run_s: float
    result: object
    node: object

    @property
    def total_s(self) -> float:
        return self.build_s + self.node_s + self.run_s

    @property
    def node_run_s(self) -> float:
        """Node construction, ``load`` and ``run``: the span that holds the
        node build on both drives."""
        return self.node_s + self.run_s


def build(point: Point, config: SystemConfig, scale: Scale, sharded: bool):
    """Trace build, then node construction and ``load``; timed apart.

    A sharded node only stores the trace in ``load``: it forks its shard
    workers and builds their nodes inside ``run``, so that build is part
    of the sharded drive's ``run_s``.
    """
    start = time.perf_counter()
    trace = get_workload(point.workload).build(
        n_gpus=config.n_gpus, scale=scale, seed=point.seed
    )
    built = time.perf_counter()
    if sharded:
        node = ShardedSystem(
            config=config,
            netcrafter=netcrafter(point.variant),
            seed=point.seed,
            n_shards=2,
            parallel=True,
            adaptive=True,
        )
    else:
        node = MultiGpuSystem(
            config=config, netcrafter=netcrafter(point.variant), seed=point.seed
        )
    node.load(trace)
    return node, built - start, time.perf_counter() - built


def drive(point: Point, config: SystemConfig, scale: Scale, sharded: bool = False,
          profiler: Optional[LayerProfiler] = None) -> Drive:
    node, build_s, node_s = build(point, config, scale, sharded)
    if profiler is not None:
        node.engine.profiler = profiler
    start = time.perf_counter()
    result = node.run()
    return Drive(build_s, node_s, time.perf_counter() - start, result, node)


def setup_once(points: Sequence[Point], config: SystemConfig,
               scale: Scale) -> Tuple[float, float]:
    """Build every point's trace and single-engine node once: (trace s,
    node s).  The sharded drive builds its nodes inside ``run``."""
    trace_s = node_s = 0.0
    for point in points:
        _, b, n = build(point, config, scale, sharded=False)
        trace_s += b
        node_s += n
    return trace_s, node_s


# -- bookkeeping shared by both workloads --------------------------------------


class PassTotals:
    """Exact simulated counters summed over one pass's points."""

    def __init__(self) -> None:
        self.stats = RunStats()
        self.cycles = 0
        self.events = 0
        self.inter_flits = 0
        self.wire_bytes = 0
        self.useful_bytes = 0
        self.flits_entered = 0
        self.flits_absorbed = 0
        self.packets_trimmed = 0
        self.ptw_flits = 0
        self.l2_accesses = 0
        self.dram_accesses = 0
        self.cycles_by_point: Dict[Point, int] = {}

    def add(self, point: Point, run: Drive) -> None:
        result = run.result
        self.stats.merge(result.stats)
        self.cycles += result.cycles
        self.events += result.events_processed
        self.inter_flits += result.inter_flits_sent
        self.wire_bytes += result.inter_wire_bytes
        self.useful_bytes += result.inter_useful_bytes
        self.flits_entered += result.flits_entered
        self.flits_absorbed += result.flits_absorbed
        self.packets_trimmed += result.packets_trimmed
        self.ptw_flits += result.ptw_flits
        for gpu in run.node.gpus.values():
            self.l2_accesses += gpu.l2.read_requests + gpu.l2.write_requests
            self.dram_accesses += gpu.dram.reads + gpu.dram.writes
        self.cycles_by_point[point] = result.cycles

    def report_counters(self, report: Report) -> None:
        latency = self.stats.remote_read_latency_inter
        report.set("engine.events", self.events, "count")
        report.set("engine.events_per_cycle", self.events / self.cycles, "1/cycle")
        report.set("network.inter_flits", self.inter_flits, "count")
        report.set(
            "network.useful_byte_ratio",
            self.useful_bytes / self.wire_bytes if self.wire_bytes else 0.0,
            "ratio",
        )
        report.set(
            "network.remote_read_latency_inter_p50", latency.percentile(50), "cycles"
        )
        report.set(
            "network.remote_read_latency_inter_p99", latency.percentile(99), "cycles"
        )
        report.set(
            "core.stitch_ratio",
            self.flits_absorbed / self.flits_entered if self.flits_entered else 0.0,
            "ratio",
        )
        report.set("core.packets_trimmed", self.packets_trimmed, "count")
        report.set("memory.l1_mpki", self.stats.l1_mpki(), "MPKI")
        report.set("memory.l2_accesses", self.l2_accesses, "count")
        report.set("memory.dram_accesses", self.dram_accesses, "count")
        report.set("vm.ptw_walks", self.stats.ptw_walks, "count")
        report.set("vm.ptw_flits", self.ptw_flits, "count")

    def netcrafter_speedup(self) -> float:
        """Geomean of baseline over full cycles across the pass's pairs
        (0 when the pass has no baseline/full pair)."""
        ratios = []
        for point, cycles in self.cycles_by_point.items():
            if point.variant != "full":
                continue
            base = self.cycles_by_point.get(Point(point.workload, "baseline", point.seed))
            if base is not None:
                ratios.append(base / cycles)
        return geomean(ratios) if ratios else 0.0


class LayerTimes:
    """Per-layer host time of the traced drives, and per-layer events of
    one pass (exact, so every pass repeats them)."""

    def __init__(self) -> None:
        self.events_by_point: Dict[Point, Dict[str, int]] = {}

    def add(self, cal: Calibrator, profiler: LayerProfiler, point: Point,
            run: Drive) -> List[str]:
        """Record one traced point; returns conservation problems."""
        problems = []
        if profiler.reported_events != run.result.events_processed:
            problems.append(
                f"reported layer events {profiler.reported_events} != engine events "
                f"{run.result.events_processed}"
            )
        if profiler.unmapped:
            problems.append(f"callbacks outside the reported layers: {sorted(profiler.unmapped)}")
        in_callbacks = 0.0
        self.events_by_point[point] = {
            layer: profiler.layer_events(layer) for layer in ENGINE_LAYERS
        }
        for layer in ENGINE_LAYERS:
            seconds = profiler.layer_seconds(layer)
            in_callbacks += seconds
            if layer != "sim":
                cal.add(f"layer.{layer}", seconds)
        # the dispatcher's own time, plus any callback the sim layer owns
        cal.add("layer.sim", run.run_s - in_callbacks + profiler.layer_seconds("sim"))
        cal.add("traced.run", run.run_s)
        return problems

    def report(self, report: Report, cal: Calibrator) -> None:
        """Seconds per pass (all traced passes averaged); events per pass."""
        wall = sum(cal.calibrated("traced.run"))
        passes = len(cal.raw("traced.run")) / len(self.events_by_point)
        for layer in ENGINE_LAYERS:
            calibrated = cal.calibrated(f"layer.{layer}")
            seconds = sum(calibrated)
            name = "sim.dispatch_s" if layer == "sim" else f"{layer}.self_s"
            report.set(name, seconds / passes, "s", raw=sum(cal.raw(f"layer.{layer}")) / passes,
                       samples=len(calibrated))
            events = sum(counts[layer] for counts in self.events_by_point.values())
            report.set(f"{layer}.events", events, "count")
            report.set(f"{layer}.share", seconds / wall if wall else 0.0, "ratio")


# -- the two workloads -----------------------------------------------------------


def _run_passes(seconds: float, one_pass) -> int:
    """Whole passes until the next one would overrun ``seconds`` (at least
    one); returns the number run."""
    start = time.perf_counter()
    passes = 0
    while True:
        one_pass(passes)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > seconds:
            return passes


def _setup(cal: Calibrator, points, config, scale) -> None:
    cal.checkpoint()
    for _ in range(SETUP_REPS):
        trace_s, node_s = setup_once(points, config, scale)
        cal.add("setup", trace_s + node_s)
        cal.add("setup.trace", trace_s)
        cal.add("setup.node", node_s)
        cal.checkpoint()


def _report_setup(report: Report, cal: Calibrator) -> None:
    for name, kind in (("setup_s", "setup"), ("workloads.build_s", "setup.trace"),
                       ("gpu.build_s", "setup.node")):
        report.set(name, statistics.median(cal.calibrated(kind)), "s",
                   raw=statistics.median(cal.raw(kind)), samples=SETUP_REPS)


def _failed(report: Report, exc: Exception, what: str) -> None:
    report.operation([f"{type(exc).__name__}: {exc}"], what)


def _check_single(point: Point, run: Drive, expected: Dict[str, str]) -> List[str]:
    problems = list(verify_traffic(run.node, run.result))
    want = expected.get(point.key)
    got = point_digest(run.result)
    if want is None:
        problems.append(f"no committed digest for {point.key}")
    elif got != want:
        problems.append(f"digest {got[:16]} != committed {want[:16]}")
    return problems


def _traced_drive(report: Report, cal: Calibrator, layers: LayerTimes, point: Point,
                  twin: Drive, config: SystemConfig, scale: Scale) -> None:
    """Drive ``point`` again under the layer profiler, right after its
    untraced ``twin``, so the profiler's overhead is measured on the same
    work; the profiler must not change the result."""
    profiler = LayerProfiler()
    try:
        run = drive(point, config, scale, profiler=profiler)
    except Exception as exc:
        _failed(report, exc, f"{point.key} traced")
    else:
        problems = layers.add(cal, profiler, point, run)
        cal.add("untraced.run", twin.run_s)
        if point_digest(run.result) != point_digest(twin.result):
            problems.append("traced result differs from the untraced run")
        if run.result.events_processed != twin.result.events_processed:
            problems.append("traced run dispatched a different number of events")
        report.operation(problems, f"{point.key} traced")
    cal.checkpoint()


def _report_traced(report: Report, cal: Calibrator, totals: PassTotals,
                   layers: LayerTimes) -> None:
    totals.report_counters(report)
    layers.report(report, cal)
    traced = cal.calibrated("traced.run")
    report.set("profiler.overhead", sum(traced) / sum(cal.calibrated("untraced.run")) - 1.0,
               "ratio", samples=len(traced))


def _report_throughput(report: Report, cal: Calibrator, point_cal: Calibrator, cycles: int,
                       run_kind: str, point_kind: str) -> None:
    """sim_cycles_per_s over ``run_kind`` walls and the set-up from
    ``cal``; points_per_s over ``point_kind`` walls and the turnaround
    over whole passes of ``point_kind`` (a pass is the sweep a user waits
    for) from ``point_cal``."""
    runs_cal, runs_raw = cal.calibrated(run_kind), cal.raw(run_kind)
    report.set("sim_cycles_per_s", cycles / sum(runs_cal), "1/s",
               raw=cycles / sum(runs_raw), samples=len(runs_cal))
    points_cal, points_raw = point_cal.calibrated(point_kind), point_cal.raw(point_kind)
    report.set("points_per_s", len(points_cal) / sum(points_cal), "1/s",
               raw=len(points_raw) / sum(points_raw), samples=len(points_cal))
    passes_cal, passes_raw = point_cal.calibrated("pass"), point_cal.raw("pass")
    report.set("turnaround_p50_s", statistics.median(passes_cal), "s",
               raw=statistics.median(passes_raw), samples=len(passes_cal))
    report.set("peak_rss_mb", peak_rss_mb(), "MB")
    _report_setup(report, cal)


def run_table3_mesh(report: Report, seed: int, seconds: float, traced: bool,
                    expected: Optional[Dict[str, str]] = None,
                    points: Optional[List[Point]] = None,
                    scale: Optional[Scale] = None) -> None:
    """The paper's experiment on its 2x2 mesh node, single engine."""
    config = SystemConfig.default()
    scale = scale or Scale.small()
    points = points if points is not None else table3_points(seed)
    expected = expected if expected is not None else load_digests()
    cal = Calibrator()
    _setup(cal, points, config, scale)
    totals = PassTotals()
    layers = LayerTimes()
    cycles = 0

    def one_pass(index: int) -> None:
        nonlocal cycles
        pass_s, started = 0.0, time.perf_counter()
        for point in points:
            try:
                run = drive(point, config, scale)
            except Exception as exc:  # a crashed point is a failed operation
                _failed(report, exc, point.key)
                cal.checkpoint()
                continue
            report.operation(_check_single(point, run, expected), point.key)
            cal.add("run", run.run_s)
            cal.add("point", run.total_s)
            pass_s += run.total_s
            cycles += run.result.cycles
            if index == 0:
                totals.add(point, run)
            cal.checkpoint()
            if traced:
                _traced_drive(report, cal, layers, point, run, config, scale)
        cal.add("pass", pass_s, since=started)

    _run_passes(seconds, one_pass)
    cal.close()
    _report_throughput(report, cal, cal, cycles, "run", "point")
    if traced:
        _report_traced(report, cal, totals, layers)
    speedup = totals.netcrafter_speedup()
    report.set("netcrafter.speedup", speedup, "x", samples=len(totals.cycles_by_point) // 2)
    report.note(
        f"netcrafter.speedup {speedup:.4f}x geomean over the Table-3 applications "
        "(simulated cycles, exact; paper Fig. 14: 1.16x; the model is unvalidated "
        "against hardware)"
    )


def run_collective_sharded(report: Report, seed: int, seconds: float, traced: bool) -> None:
    """Two collectives on the macro node, single engine then 2 shards.

    ``sim_cycles_per_s`` is the single engine's rate; ``points_per_s``
    and the turnaround follow the sharded drive, this workload's subject.
    The sharded drive keeps two processes busy, so its times are
    calibrated by the reference loop timed in two processes at once.
    """
    reference = ParallelReference(2)
    try:
        _collective_sharded(report, seed, seconds, traced,
                            Calibrator(timer=reference.time, busy=2))
    finally:
        reference.close()


def _collective_sharded(report: Report, seed: int, seconds: float, traced: bool,
                        pcal: Calibrator) -> None:
    config, scale = macro_config(), COLLECTIVE_SCALE
    points = collective_points(seed)
    cal = Calibrator()
    _setup(cal, points, config, scale)
    pcal.checkpoint()
    totals = PassTotals()
    layers = LayerTimes()
    coord = {"windows": 0, "verb_round_trips": 0, "pickle_bytes": 0, "mail_items": 0,
             "idle_wait_seconds": 0.0}
    cycles = {"single": 0, "sharded": 0}

    def one_pass(index: int) -> None:
        pass_s, started = 0.0, time.perf_counter()
        for point in points:
            try:
                single = drive(point, config, scale)
            except Exception as exc:
                _failed(report, exc, f"{point.key} single")
                cal.checkpoint()
                continue
            report.operation(verify_traffic(single.node, single.result), f"{point.key} single")
            cal.add("single.run", single.run_s)
            cal.add("single.node_run", single.node_run_s)
            cycles["single"] += single.result.cycles
            if index == 0:
                totals.add(point, single)
            cal.checkpoint()
            pcal.checkpoint()
            try:
                sharded = drive(point, config, scale, sharded=True)
            except Exception as exc:
                _failed(report, exc, f"{point.key} sharded")
                continue
            want, got = point_digest(single.result), point_digest(sharded.result)
            report.operation(
                [] if want == got else [f"sharded digest {got[:16]} != single {want[:16]}"],
                f"{point.key} sharded",
            )
            pcal.add("sharded.node_run", sharded.node_run_s)
            pcal.add("sharded.point", sharded.total_s)
            pass_s += sharded.total_s
            cycles["sharded"] += sharded.result.cycles
            stats = sharded.node.coord_stats
            coord["windows"] += stats.windows
            coord["verb_round_trips"] += stats.verb_round_trips
            coord["pickle_bytes"] += stats.pickle_bytes
            coord["mail_items"] += stats.mail_items
            coord["idle_wait_seconds"] += stats.idle_wait_seconds
            cal.checkpoint()
            pcal.checkpoint()
            if traced:
                _traced_drive(report, cal, layers, point, single, config, scale)
        pcal.add("pass", pass_s, since=started)

    passes = _run_passes(seconds, one_pass)
    cal.close()
    pcal.close()
    _report_throughput(report, cal, pcal, cycles["single"], "single.run", "sharded.point")
    # both drives over node construction + load + run: the sharded node
    # builds its shard workers inside run()
    sharded_cal, sharded_raw = pcal.calibrated("sharded.node_run"), pcal.raw("sharded.node_run")
    single_raw = cal.raw("single.node_run")
    runs = len(sharded_cal)
    report.set("shard.cycles_per_s", cycles["sharded"] / sum(sharded_cal), "1/s",
               raw=cycles["sharded"] / sum(sharded_raw), samples=runs)
    report.set("shard.speedup", sum(single_raw) / sum(sharded_raw), "x", samples=runs)
    # coordination counters per pass (both collectives once)
    report.set("shard.windows", coord["windows"] / passes, "count", samples=passes)
    report.set("shard.verb_round_trips", coord["verb_round_trips"] / passes, "count",
               samples=passes)
    report.set("shard.pickle_bytes_per_window", coord["pickle_bytes"] / coord["windows"],
               "B", samples=runs)
    report.set("shard.mail_items", coord["mail_items"] / passes, "count", samples=passes)
    report.set("shard.idle_wait_s", coord["idle_wait_seconds"] / passes, "s", samples=passes)
    if traced:
        _report_traced(report, cal, totals, layers)
