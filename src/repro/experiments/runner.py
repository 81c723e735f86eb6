"""Shared experiment runner: caching, and parallel point fan-out.

Figures reuse each other's runs (every speedup figure needs the same
baseline), so results are memoized on the full configuration key; a
single pytest session regenerating all figures therefore simulates each
(workload, config) point exactly once.

Two layers sit on top of that in-process memo:

* :func:`run_many` fans a batch of independent
  :class:`ExperimentPoint`\\ s out over a ``ProcessPoolExecutor`` —
  simulation points share nothing, so they are embarrassingly parallel;
* an optional on-disk :class:`~repro.experiments.cache.ResultCache`
  (content-addressed by the full configuration) makes repeat figure
  regeneration nearly free across processes.

How each point runs — worker count, cache directory, sharding,
observability artifacts, checkpointing, fabric overrides — is one
frozen, picklable :class:`RunContext` passed explicitly from the front
end down to :func:`execute_point`, so pool workers see the caller's
settings under every multiprocessing start method.

Every lookup and execution is tallied in :data:`run_stats` so the CLI
and benchmark harness can report per-point timing, cache effectiveness,
and parallel speedup.
"""

from __future__ import annotations

import functools
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.experiments.cache import ResultCache, fingerprint
from repro.gpu.node import build_node
from repro.obs import Observability, ShardObsSpec
from repro.shard.coordinator import ShardedSystem
from repro.stats.report import RunResult
from repro.workloads.base import Scale
from repro.workloads.registry import all_workload_names, get_workload


@dataclass(frozen=True)
class ObservabilityOptions:
    """What per-run observability artifacts the harness should produce.

    Any enabled artifact forces the point to actually simulate once per
    context (the disk cache is bypassed): a cached result has no trace
    to give, and an instrumented run should not overwrite the pristine
    cached timing entry either.
    """

    trace: bool = False
    #: keep every Nth packet lifecycle (1 = all)
    trace_sample: int = 1
    #: metrics snapshot period in cycles; None disables the time-series
    metrics_interval: Optional[int] = None
    profile: bool = False
    out_dir: str = "results/obs"

    @property
    def active(self) -> bool:
        return self.trace or self.metrics_interval is not None or self.profile

    def spec(self) -> ShardObsSpec:
        """The picklable instrument recipe these options ask for."""
        return ShardObsSpec(
            trace=self.trace,
            trace_sample=self.trace_sample,
            metrics_interval=self.metrics_interval,
            profile=self.profile,
        )


@dataclass(frozen=True)
class CheckpointOptions:
    """Kernel-boundary checkpointing for every simulation point of a run.

    Each point's latest resumable state is published (atomically,
    durably) to ``<directory>/<run-fingerprint>.ckpt`` — content-
    addressed exactly like the result cache, so sweeps and single runs
    share one checkpoint directory without collisions.  With
    ``resume_from`` set, any point whose snapshot exists continues from
    its last checkpointed kernel boundary instead of starting over; the
    resumed result is byte-identical to an uninterrupted run
    (:mod:`repro.ckpt`).  ``resume_from`` may be the checkpoint
    directory (per-point snapshots are looked up by fingerprint) or one
    specific snapshot file — the latter fails loudly with
    :class:`~repro.ckpt.FingerprintMismatchError` if the point being
    run does not match the snapshot's stamped configuration.
    """

    directory: str = "results/ckpt"
    #: snapshot every N completed kernels (the final boundary always)
    every: int = 1
    resume_from: Optional[str] = None


@dataclass(frozen=True)
class ShardingOptions:
    """How each simulation point is split across cluster shards.

    Sharding is *intra-run* parallelism: one simulation is decomposed
    into per-cluster shards advancing in conservative lookahead windows
    (:class:`~repro.shard.coordinator.ShardedSystem`).  Results are
    byte-identical to the single-engine run, so the result cache stays
    shared between modes and the choice is purely about wall-clock.

    Points the shard plan cannot serve (:meth:`ShardedSystem.supports
    <repro.shard.coordinator.ShardedSystem.supports>`: a shard count not
    dividing the clusters, or hardware coherence) fall back to the single
    engine (identical results) rather than failing a whole figure sweep.
    """

    n_shards: int = 1
    #: lookahead window in cycles; ``None`` means the maximum safe value
    #: (the inter-cluster link latency), clamped per-point when smaller
    window: Optional[int] = None
    #: ``None`` = processes exactly when ``n_shards > 1``; ``False``
    #: forces sequential-windowed mode (debugging, digest comparisons)
    parallel: Optional[bool] = None
    #: adaptive lookahead: stretch each shard's window from replicated
    #: simulation state instead of the fixed size (byte-identical
    #: results, so cache keys are unaffected); ``window`` is ignored
    adaptive: bool = False

    @property
    def active(self) -> bool:
        return self.n_shards > 1 or self.window is not None or self.adaptive

    def use_processes(self) -> bool:
        return self.n_shards > 1 if self.parallel is None else self.parallel


@dataclass(frozen=True)
class RunContext:
    """How every point of a run executes, as one frozen, picklable value.

    Front ends (the experiment CLI, the benchmark suite, the campaign
    server) build one and pass it explicitly down to
    :func:`execute_point`, so a process-pool worker runs with exactly its
    caller's settings whatever the multiprocessing start method.
    Inactive options normalize to ``None``, so equal settings compare
    equal.
    """

    #: worker processes :func:`run_many` fans cache misses out over
    jobs: int = 1
    #: persistent result cache directory; ``None`` disables it
    cache_dir: Optional[str] = None
    sharding: Optional[ShardingOptions] = None
    observability: Optional[ObservabilityOptions] = None
    checkpoint: Optional[CheckpointOptions] = None
    #: ``SystemConfig`` field overrides reshaping every point (the CLI's
    #: --topology/--bw-class), as sorted ``(field, value)`` pairs so the
    #: context stays hashable; validated eagerly, so bad values fail
    #: here rather than deep inside a worker
    system_overrides: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        overrides = tuple(sorted(dict(self.system_overrides).items()))
        if overrides:
            SystemConfig.default().with_overrides(**dict(overrides))
        object.__setattr__(self, "system_overrides", overrides)
        object.__setattr__(self, "jobs", max(1, int(self.jobs)))
        if self.sharding is not None and not self.sharding.active:
            object.__setattr__(self, "sharding", None)
        if self.observability is not None and not self.observability.active:
            object.__setattr__(self, "observability", None)

    @classmethod
    def from_env(cls) -> "RunContext":
        """The settings the environment asks for.

        The one reader of ``REPRO_JOBS`` (default 1), ``REPRO_CACHE_DIR``
        (unset: no disk cache) and ``REPRO_SHARDS`` / ``REPRO_WINDOW`` /
        ``REPRO_ADAPTIVE_WINDOW`` (all unset: no sharding).
        """
        env = os.environ
        shards, window = env.get("REPRO_SHARDS"), env.get("REPRO_WINDOW")
        return cls(
            jobs=int(env.get("REPRO_JOBS") or 1),
            cache_dir=env.get("REPRO_CACHE_DIR") or None,
            sharding=ShardingOptions(
                n_shards=int(shards) if shards else 1,
                window=int(window) if window else None,
                adaptive=env.get("REPRO_ADAPTIVE_WINDOW", "").lower()
                in ("1", "true", "yes"),
            ),
        )

    def normalize(self, point: "ExperimentPoint") -> "ExperimentPoint":
        """``point`` with its defaults filled in and this context's system
        overrides applied (idempotent, so re-normalizing cannot
        double-apply; explicit systems are reshaped too)."""
        point = point.normalized()
        if not self.system_overrides:
            return point
        return replace(
            point, system=point.system.with_overrides(**dict(self.system_overrides))
        )


@dataclass(frozen=True)
class ExperimentPoint:
    """One independent simulation point: a (workload, configuration) tuple.

    ``None`` config fields mean "the default"; :meth:`normalized` fills
    them in so equal points always hash to the same cache key.
    """

    workload: str
    system: Optional[SystemConfig] = None
    netcrafter: Optional[NetCrafterConfig] = None
    scale: Optional[Scale] = None
    seed: int = 0

    def normalized(self) -> "ExperimentPoint":
        if (
            self.system is not None
            and self.netcrafter is not None
            and self.scale is not None
        ):
            return self
        return ExperimentPoint(
            workload=self.workload,
            system=self.system or SystemConfig.default(),
            netcrafter=self.netcrafter or NetCrafterConfig.baseline(),
            scale=self.scale or Scale.small(),
            seed=self.seed,
        )

    def key(self) -> tuple:
        """In-process memo key (the full normalized configuration)."""
        p = self.normalized()
        return (p.workload, p.system, p.netcrafter, p.scale, p.seed)

    def label(self) -> str:
        p = self.normalized()
        return f"{p.workload}/seed{p.seed}"


@dataclass(frozen=True)
class ExperimentScale:
    """How big the experiment runs are, which workloads they cover, and
    the :class:`RunContext` every point runs under."""

    scale: Scale = field(default_factory=Scale.small)
    workloads: Tuple[str, ...] = ()
    seed: int = 0
    context: RunContext = field(default_factory=RunContext)

    def workload_names(self) -> List[str]:
        if self.workloads:
            return list(self.workloads)
        return all_workload_names()

    def run(
        self,
        workload: str,
        system: Optional[SystemConfig] = None,
        netcrafter: Optional[NetCrafterConfig] = None,
    ) -> RunResult:
        """One point at this experiment's scale and seed."""
        return run_one(
            workload,
            system=system,
            netcrafter=netcrafter,
            scale=self.scale,
            seed=self.seed,
            ctx=self.context,
        )

    def prefetch(
        self,
        variants: Sequence[Tuple[Optional[SystemConfig], Optional[NetCrafterConfig]]],
        workloads: Optional[Sequence[str]] = None,
    ) -> List[RunResult]:
        """Batch every ``(system, netcrafter)`` variant across the workload
        set through :func:`run_many` (``None`` = the default config).

        The declare-points-up-front entry used by every driver: the full
        point set fans out over the context's workers (and caches), after
        which the driver's per-series :meth:`run` calls are memo hits.
        """
        names = workloads if workloads is not None else self.workload_names()
        points = [
            ExperimentPoint(
                workload=name,
                system=system,
                netcrafter=netcrafter,
                scale=self.scale,
                seed=self.seed,
            )
            for name in names
            for system, netcrafter in variants
        ]
        return run_many(points, ctx=self.context)

    @classmethod
    def quick(cls) -> "ExperimentScale":
        """A representative six-workload subset (CI use).

        Keeps the small (congested) scale — the shape assertions in the
        benchmark harness need the paper's network-bound regime — but
        trims the workload list to one per access pattern.
        """
        return cls(
            scale=Scale.small(),
            workloads=("gups", "mt", "mis", "bs", "spmv", "lenet"),
        )

    @classmethod
    def standard(cls) -> "ExperimentScale":
        """All 15 workloads at the small experiment scale."""
        return cls(scale=Scale.small())

    @classmethod
    def from_env(cls) -> "ExperimentScale":
        """Honour ``REPRO_SCALE`` = quick|standard|full (default standard)."""
        mode = os.environ.get("REPRO_SCALE", "standard").lower()
        if mode == "quick":
            return cls.quick()
        if mode == "full":
            return cls(scale=Scale.default())
        return cls.standard()


@dataclass
class ExecutionStats:
    """Counters describing where results came from and what they cost."""

    points: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    #: points served by waiting on another process's in-flight execution
    #: (cross-process claim dedupe through a shared cache dir)
    inflight_hits: int = 0
    #: corrupt cache entries quarantined during lookups
    corrupt_entries: int = 0
    executed: int = 0
    #: summed single-point simulation time (what a serial run would cost)
    exec_seconds: float = 0.0
    #: wall-clock spent inside run_many batches
    wall_seconds: float = 0.0
    batches: int = 0
    max_jobs: int = 1
    #: (label, seconds) of executed points, slowest retained first-come
    timings: List[Tuple[str, float]] = field(default_factory=list)

    def disk_hit_rate(self) -> float:
        """Disk hits over points that had to go past the in-process memo."""
        looked = self.disk_hits + self.executed
        if looked == 0:
            return 0.0
        return self.disk_hits / looked

    def parallel_speedup(self) -> float:
        """Summed per-point simulation time over batch wall time.

        On an uncontended multi-core machine this approximates the
        wall-clock speedup over a serial pass; when workers share cores
        it reads as the concurrency achieved, so the summary labels it
        "effective parallelism" rather than promising saved time.
        """
        if self.wall_seconds <= 0 or self.exec_seconds <= 0:
            return 1.0
        return max(1.0, self.exec_seconds / self.wall_seconds)

    def summary_lines(self) -> List[str]:
        lines = [
            f"points requested:   {self.points}",
            f"memory cache hits:  {self.memory_hits}",
            f"disk cache hits:    {self.disk_hits}",
            f"simulated:          {self.executed}"
            f"  ({self.exec_seconds:.1f}s of single-point simulation)",
            f"batch wall time:    {self.wall_seconds:.1f}s"
            f"  ({self.batches} batches, up to {self.max_jobs} jobs)",
            f"disk-cache hit rate: {100.0 * self.disk_hit_rate():.1f}%",
        ]
        if self.inflight_hits:
            lines.append(
                f"in-flight shares:   {self.inflight_hits}"
                "  (executed concurrently by another process)"
            )
        if self.corrupt_entries:
            lines.append(
                f"corrupt entries:    {self.corrupt_entries}  (quarantined)"
            )
        if self.executed and self.max_jobs > 1:
            lines.append(
                f"effective parallelism: {self.parallel_speedup():.2f}x"
            )
        if self.timings:
            slowest = sorted(self.timings, key=lambda t: -t[1])[:5]
            rendered = ", ".join(f"{lbl} {sec:.2f}s" for lbl, sec in slowest)
            lines.append(f"slowest points:     {rendered}")
        return lines

    def reset(self) -> None:
        self.__init__()


#: process-wide tallies; reset with :func:`reset_run_stats`
run_stats = ExecutionStats()


def reset_run_stats() -> None:
    run_stats.reset()


#: in-process memo: (point key, observability options) -> result; the
#: options are part of the key so an observed run (whose result carries
#: artifact paths) never serves a plain one, or the other way round
_cache: Dict[tuple, RunResult] = {}


def clear_cache() -> None:
    """Drop the in-process memo (the disk cache is left untouched)."""
    _cache.clear()


def _memo_key(point: ExperimentPoint, ctx: RunContext) -> tuple:
    return point.key(), ctx.observability


@functools.lru_cache(maxsize=None)
def _open_cache(root: str) -> ResultCache:
    """One :class:`ResultCache` per directory: its constructor sweeps
    orphan ``*.tmp`` files, which only opening time can do safely."""
    return ResultCache(root)


def _disk_for(ctx: RunContext, use_cache: bool) -> Optional[ResultCache]:
    """The persistent cache a run may read and write, or ``None``.

    Observed runs bypass it: a cached result has no artifacts to give,
    and an instrumented run must not overwrite the pristine entry.
    Cross-process claims engage exactly when this cache does.
    """
    if not use_cache or ctx.cache_dir is None or ctx.observability is not None:
        return None
    return _open_cache(ctx.cache_dir)


def _write_artifacts(
    options: ObservabilityOptions,
    obs: Observability,
    point: "ExperimentPoint",
    result: RunResult,
) -> None:
    """Dump the run's observability artifacts and note their paths."""
    out = Path(options.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{point.workload}-seed{point.seed}-{fingerprint(point)[:12]}"
    if obs.tracer.enabled:
        jsonl = out / f"{stem}.trace.jsonl"
        chrome = out / f"{stem}.trace.json"
        obs.tracer.to_jsonl(jsonl)
        obs.tracer.to_chrome(chrome)
        result.trace_path = str(jsonl)
        result.trace_chrome_path = str(chrome)
    if obs.metrics is not None:
        metrics = out / f"{stem}.metrics.jsonl"
        obs.metrics.to_jsonl(metrics)
        result.metrics_path = str(metrics)
    if obs.profiler is not None:
        profile = out / f"{stem}.profile.json"
        obs.profiler.to_json(profile)
        result.profile_path = str(profile)


def _simulate(point: ExperimentPoint, ctx: RunContext) -> RunResult:
    point = ctx.normalize(point)
    trace = get_workload(point.workload).build(
        n_gpus=point.system.n_gpus, scale=point.scale, seed=point.seed
    )
    options = ctx.observability
    spec = options.spec() if options is not None else None
    sharding = ctx.sharding
    n_shards, eff_window, parallel, adaptive = 1, None, False, False
    # points the shard plan cannot serve run on the single engine
    # (identical results) instead of failing a whole sweep
    if sharding is not None and ShardedSystem.supports(
        point.system, sharding.n_shards
    ):
        lookahead = point.system.effective_inter_link_latency
        n_shards = sharding.n_shards
        eff_window = (
            None if sharding.window is None else min(sharding.window, lookahead)
        )
        parallel = sharding.use_processes()
        adaptive = sharding.adaptive

    checkpointer = None
    ckpt_options = ctx.checkpoint
    if ckpt_options is not None:
        from repro import ckpt as _ckpt

        fp = _ckpt.run_fingerprint(
            point.system,
            point.netcrafter,
            point.seed,
            trace,
            n_shards=n_shards,
            window=eff_window,
        )
        snapshot_path = Path(ckpt_options.directory) / f"{fp}.ckpt"
        checkpointer = _ckpt.Checkpointer(
            path=snapshot_path, fingerprint=fp, every=ckpt_options.every
        )
        resume_path = None
        if ckpt_options.resume_from:
            source = Path(ckpt_options.resume_from)
            if source.is_dir():
                # per-point lookup in a checkpoint directory: points
                # without a snapshot simply start fresh
                candidate = source / f"{fp}.ckpt"
                if candidate.exists():
                    resume_path = candidate
            else:
                # an explicit snapshot file must match this point —
                # resume() raises FingerprintMismatchError otherwise
                resume_path = source
        if resume_path is not None:
            return _ckpt.resume(
                resume_path,
                config=point.system,
                netcrafter=point.netcrafter,
                seed=point.seed,
                workload=trace,
                n_shards=n_shards,
                window=eff_window,
                parallel=parallel,
                adaptive=adaptive,
                obs_spec=spec,
                checkpointer=checkpointer,
            )

    node = build_node(
        point.system,
        point.netcrafter,
        point.seed,
        n_shards=n_shards,
        window=eff_window,
        parallel=parallel,
        adaptive=adaptive,
        obs_spec=spec,
    )
    node.load(trace)
    node._ckpt_hook = checkpointer
    result = node.run()
    if options is not None:
        obs = node.merged_obs() if isinstance(node, ShardedSystem) else node.obs
        _write_artifacts(options, obs, point, result)
    return result


def execute_point(point: ExperimentPoint, ctx: RunContext) -> Tuple[RunResult, float]:
    """Simulate one point under ``ctx`` unconditionally, timing it.

    The public execution entry for front ends layering their own
    serving policy over the runner (the campaign server's worker pool,
    ``run_many``'s process-pool workers): no cache lookups, no stores,
    no in-flight registration — callers own those.  Picklable, so it can
    be shipped to a ``ProcessPoolExecutor`` directly, context and all.
    """
    start = time.perf_counter()
    result = _simulate(point, ctx)
    return result, time.perf_counter() - start


def _finish(
    point: ExperimentPoint,
    ctx: RunContext,
    use_cache: bool,
    result: RunResult,
    seconds: float,
) -> RunResult:
    """Tally an executed point and store its result."""
    run_stats.executed += 1
    run_stats.exec_seconds += seconds
    run_stats.timings.append((point.label(), seconds))
    if use_cache:
        _cache[_memo_key(point, ctx)] = result
        disk = _disk_for(ctx, use_cache)
        if disk is not None:
            disk.put(point, result)
    return result


def _disk_get(disk: ResultCache, point: ExperimentPoint) -> Optional[RunResult]:
    """Disk-cache read that folds quarantine tallies into run_stats."""
    before = disk.corrupt
    loaded = disk.get(point)
    run_stats.corrupt_entries += disk.corrupt - before
    return loaded


def _lookup(
    point: ExperimentPoint, ctx: RunContext, use_cache: bool
) -> Optional[RunResult]:
    """Memory then disk lookup; promotes disk hits into the memo."""
    if not use_cache:
        return None
    key = _memo_key(point, ctx)
    cached = _cache.get(key)
    if cached is not None:
        run_stats.memory_hits += 1
        return cached
    disk = _disk_for(ctx, use_cache)
    if disk is not None:
        loaded = _disk_get(disk, point)
        if loaded is not None:
            run_stats.disk_hits += 1
            _cache[key] = loaded
            return loaded
    return None


#: how often a waiter re-checks a peer's in-flight execution
_CLAIM_POLL_SECONDS = 0.05


def _resolve_in_flight(
    point: ExperimentPoint, ctx: RunContext, disk: ResultCache
) -> RunResult:
    """Serve a point someone else claimed: wait, or take over.

    Polls the shared cache dir until the claim holder publishes the
    result (counted as an in-flight share), the claim goes stale (the
    holder crashed — steal it and execute), or the claim is released
    without a result (the holder failed or ran uncached — claim and
    execute).  Exactly-one-execution is therefore best effort under
    crashes, but a waiter can never return a wrong result and never
    deadlocks on a dead peer.
    """
    key = fingerprint(point)
    while True:
        loaded = _disk_get(disk, point)
        if loaded is not None:
            run_stats.inflight_hits += 1
            _cache[_memo_key(point, ctx)] = loaded
            return loaded
        if disk.claim(key):
            try:
                # the peer may have published between the poll and the
                # claim win; prefer its result over a re-execution
                loaded = _disk_get(disk, point)
                if loaded is not None:
                    run_stats.inflight_hits += 1
                    _cache[_memo_key(point, ctx)] = loaded
                    return loaded
                return _finish(point, ctx, True, *execute_point(point, ctx))
            finally:
                disk.release(key)
        time.sleep(_CLAIM_POLL_SECONDS)


def run_one(
    workload: str,
    system: Optional[SystemConfig] = None,
    netcrafter: Optional[NetCrafterConfig] = None,
    scale: Optional[Scale] = None,
    seed: int = 0,
    use_cache: bool = True,
    ctx: RunContext = RunContext(),
) -> RunResult:
    """Simulate one (workload, configuration) point under ``ctx``."""
    point = ctx.normalize(
        ExperimentPoint(
            workload=workload,
            system=system,
            netcrafter=netcrafter,
            scale=scale,
            seed=seed,
        )
    )
    run_stats.points += 1
    cached = _lookup(point, ctx, use_cache)
    if cached is not None:
        return cached
    disk = _disk_for(ctx, use_cache)
    if disk is None:
        return _finish(point, ctx, use_cache, *execute_point(point, ctx))
    key = fingerprint(point)
    if not disk.claim(key):
        return _resolve_in_flight(point, ctx, disk)
    try:
        return _finish(point, ctx, use_cache, *execute_point(point, ctx))
    finally:
        disk.release(key)


def run_many(
    points: Sequence[ExperimentPoint],
    jobs: Optional[int] = None,
    use_cache: bool = True,
    ctx: RunContext = RunContext(),
) -> List[RunResult]:
    """Run a batch of independent points, fanning misses out over workers.

    Returns results in ``points`` order.  Duplicate points are simulated
    once; cached points (in-process memo first, then the persistent disk
    cache when enabled) are never re-simulated.  With ``jobs`` (default
    ``ctx.jobs``) above 1 the remaining misses run on a
    ``ProcessPoolExecutor``, each worker handed ``ctx`` with its point;
    results are bit-identical to a serial pass because each point's
    simulation is a deterministic function of its configuration.
    """
    batch_start = time.perf_counter()
    jobs = ctx.jobs if jobs is None else max(1, int(jobs))
    normalized = [ctx.normalize(p) for p in points]
    disk = _disk_for(ctx, use_cache)
    run_stats.points += len(normalized)
    run_stats.batches += 1
    run_stats.max_jobs = max(run_stats.max_jobs, jobs)

    results: Dict[tuple, RunResult] = {}
    pending: List[ExperimentPoint] = []
    for point in normalized:
        key = point.key()
        if key in results:
            run_stats.memory_hits += 1  # duplicate within this batch
            continue
        cached = _lookup(point, ctx, use_cache)
        if cached is not None:
            results[key] = cached
            continue
        results[key] = None  # placeholder so duplicates don't re-queue
        pending.append(point)

    if pending:
        # cross-process dedupe: claim each miss in the shared cache dir;
        # points another process is already executing are *followed*
        # (poll for its published result) instead of re-executed
        if disk is not None:
            owned = [p for p in pending if disk.claim(fingerprint(p))]
            owned_keys = {p.key() for p in owned}
            following = [p for p in pending if p.key() not in owned_keys]
        else:
            owned, following = pending, []
        try:
            if jobs > 1 and len(owned) > 1:
                with ProcessPoolExecutor(max_workers=min(jobs, len(owned))) as pool:
                    futures = {
                        pool.submit(execute_point, point, ctx): point
                        for point in owned
                    }
                    # publish (and release the claim) per point as it
                    # finishes so concurrent followers unblock early
                    for future in as_completed(futures):
                        point = futures[future]
                        results[point.key()] = _finish(
                            point, ctx, use_cache, *future.result()
                        )
                        if disk is not None:
                            disk.release(fingerprint(point))
            else:
                for point in owned:
                    results[point.key()] = _finish(
                        point, ctx, use_cache, *execute_point(point, ctx)
                    )
                    if disk is not None:
                        disk.release(fingerprint(point))
        finally:
            if disk is not None:
                for point in owned:  # idempotent; frees peers after a crash
                    disk.release(fingerprint(point))
        for point in following:
            results[point.key()] = _resolve_in_flight(point, ctx, disk)

    run_stats.wall_seconds += time.perf_counter() - batch_start
    return [results[point.key()] for point in normalized]


def run_pair(
    workload: str,
    variant: NetCrafterConfig,
    system: Optional[SystemConfig] = None,
    scale: Optional[Scale] = None,
    seed: int = 0,
    ctx: RunContext = RunContext(),
) -> Tuple[RunResult, RunResult]:
    """(baseline, variant) results for a workload under one system config."""
    base = run_one(workload, system=system, scale=scale, seed=seed, ctx=ctx)
    out = run_one(
        workload, system=system, netcrafter=variant, scale=scale, seed=seed, ctx=ctx
    )
    return base, out
