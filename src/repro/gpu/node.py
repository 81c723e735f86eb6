"""NodeSlice: the simulated hardware of a whole node or of one shard.

Both drive modes simulate the same hardware and differ only in who
drives the engine.  :class:`~repro.gpu.system.MultiGpuSystem` runs a
whole node on one engine and polls for kernel-boundary quiescence
itself; :class:`~repro.shard.shard_system.ShardSystem` owns a
contiguous cluster range and is driven through coordinator verbs.  This
base builds and accounts for what both own:

* the engine, ``RunStats``, address space, page table and LASP placement;
* the owned GPUs, the fabric and one NetCrafter egress controller per
  owned inter-cluster link;
* the observability wiring and the standard metric set (names prefixed
  ``""`` for the whole node, ``s<i>.`` for shard *i*);
* the fault layer over the owned links, switches and RDMA engines;
* workload loading, round-robin wavefront dealing, phase accounting and
  the report fields both modes sum the same way.

:func:`build_node` is the one factory every caller uses to get a front
end for a run: the single engine, or the sharded coordinator when
sharding is asked for.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.core.controller import NetCrafterController
from repro.gpu.cta import KernelTrace, WorkloadTrace
from repro.gpu.gpu import Gpu
from repro.network.link import FlitLink
from repro.network.topology import BoundaryLinkFactory, Topology, build_topology
from repro.obs import Observability, ShardObsSpec
from repro.sim.engine import Engine
from repro.stats.assemble import controller_row, link_row
from repro.stats.collectors import RunStats
from repro.vm.page_table import PageTable
from repro.vm.placement import AddressSpace, LaspPlacement


def validate_configs(config: SystemConfig, netcrafter: NetCrafterConfig) -> None:
    """Reject configuration pairs no node can be built from."""
    if (
        netcrafter.enable_trimming
        and netcrafter.trim_sector_bytes != config.l1_sector_bytes
    ):
        raise ValueError(
            "trim granularity must match the L1 sector size "
            f"({netcrafter.trim_sector_bytes} != {config.l1_sector_bytes})"
        )


class NodeSlice:
    """The GPUs, fabric, controllers and instruments one engine simulates.

    ``gpu_ids`` are the GPUs this slice owns.  ``owned_clusters`` and
    ``boundary_link_factory`` restrict the fabric to one shard (see
    :func:`~repro.network.topology.build_topology`); both ``None`` build
    the whole node.
    """

    def __init__(
        self,
        config: SystemConfig,
        netcrafter: NetCrafterConfig,
        seed: int,
        obs: Optional[Observability],
        gpu_ids: Iterable[int],
        metric_prefix: str = "",
        owned_clusters: Optional[Set[int]] = None,
        boundary_link_factory: Optional[BoundaryLinkFactory] = None,
    ) -> None:
        validate_configs(config, netcrafter)
        self.config = config
        self.netcrafter = netcrafter
        self.seed = seed
        self.obs = obs or Observability()
        self._metric_prefix = metric_prefix
        self.engine = Engine()
        self.stats = RunStats()
        self.address_space = AddressSpace(config.n_gpus)
        self.page_table = PageTable(self.address_space, root_gpu=0)
        self.placement = LaspPlacement(self.address_space, self.page_table)
        self.gpus: Dict[int, Gpu] = {
            gpu_id: Gpu(
                self.engine,
                f"gpu{gpu_id}",
                gpu_id,
                config,
                self.stats,
                self.address_space,
                self.page_table,
            )
            for gpu_id in gpu_ids
        }
        self.topology: Topology = build_topology(
            self.engine,
            config,
            self.gpus,
            self._make_controller,
            owned_clusters=owned_clusters,
            boundary_link_factory=boundary_link_factory,
        )
        self._wire_observability()
        if config.faults.active:
            from repro.faults.layer import attach_fault_layer

            # the slice's outgoing inter-cluster links (boundary links
            # included), owned switches and owned GPUs' RDMA engines —
            # under sharding every fault event lands on exactly one shard
            attach_fault_layer(
                config.faults,
                inter_links=self.topology.inter_links,
                switches=self.topology.switches.values(),
                rdma_engines=[gpu.rdma for gpu in self.gpus.values()],
                stats=self.stats,
                flit_size=config.flit_size,
            )
        self._workload: Optional[WorkloadTrace] = None
        self._kernel_index = 0
        self._wavefronts_remaining = 0
        # per-phase accounting (phase-labelled workloads only): the
        # traffic-counter snapshot and cycle of the last kernel boundary;
        # these ride along in checkpoint pickles, so resume replays
        # phase closure identically
        self._phase_tracking = False
        self._phase_name: Optional[str] = None
        self._phase_mark = (0, 0, 0, 0, 0)
        self._phase_cycle = 0

    # -- construction helpers --------------------------------------------------

    def _make_controller(
        self, name: str, link: FlitLink, src_cluster: int, dst_cluster: int
    ) -> NetCrafterController:
        n_remote = max(1, self.config.n_clusters - 1)
        capacity = max(16, self.netcrafter.cluster_queue_entries // n_remote)
        return NetCrafterController(
            self.engine,
            name,
            link,
            flit_size=self.config.flit_size,
            config=self.netcrafter,
            queue_capacity=capacity,
            seed=self.seed + src_cluster * 97 + dst_cluster,
        )

    def _wire_observability(self) -> None:
        """Thread the tracer/profiler/metrics through the built slice."""
        self.engine.profiler = self.obs.profiler
        tracer = self.obs.tracer
        if tracer.enabled:
            for link in self.topology.inter_links:
                link.tracer = tracer
            for switch in self.topology.switches.values():
                switch.tracer = tracer
            for controller in self.topology.controllers:
                controller.tracer = tracer
            for gpu in self.gpus.values():
                gpu.rdma.tracer = tracer
        if self.obs.metrics is not None:
            self._register_metrics(self.obs.metrics)

    def _register_metrics(self, metrics) -> None:
        """Register the standard gauge/counter set on ``metrics``.

        Cumulative wire counters are summed across inter-cluster links so
        the *final* sample equals the end-of-run ``LinkStats`` aggregates
        (an invariant the test suite checks); occupancy-style gauges are
        instantaneous.  Shard slices prefix every name with ``s<shard>.``
        so merged series from different shards never collide.
        """
        prefix = self._metric_prefix
        inter = self.topology.inter_links

        def summed(attr):
            return lambda: sum(getattr(link.stats, attr) for link in inter)

        metrics.register(prefix + "inter.wire_bytes", summed("wire_bytes"))
        metrics.register(prefix + "inter.useful_bytes", summed("useful_bytes"))
        metrics.register(prefix + "inter.flits", summed("flits"))
        metrics.register(prefix + "inter.busy_cycles", summed("busy_cycles"))
        for controller in self.topology.controllers:
            queue = controller.queue
            name = f"{prefix}cq.{controller.name}"
            metrics.register(f"{name}.occupancy", lambda q=queue: len(q))
            metrics.register(
                f"{name}.blocked",
                lambda q=queue: len(q.blocked_partitions(self.engine.now)),
            )
            metrics.register(f"{name}.rejected", lambda q=queue: q.rejected)
        metrics.register(
            prefix + "mshr.l2.occupancy",
            lambda: sum(len(gpu.l2.mshr) for gpu in self.gpus.values()),
        )
        metrics.register(
            prefix + "mshr.l1.occupancy",
            lambda: sum(len(cu.mshr) for gpu in self.gpus.values() for cu in gpu.cus),
        )
        metrics.register(prefix + "engine.pending_events", self.engine.pending_events)
        metrics.register(
            prefix + "engine.events_processed", lambda: self.engine.events_processed
        )

    def _sample_metrics(self) -> None:
        """Periodic snapshot; stops once the run finished.

        Post-finish firings sample nothing so the series stays
        monotonic: :meth:`_final_metrics_sample` appends the
        authoritative final snapshot at the finish cycle itself.
        """
        if self.stats.finish_cycle is not None:
            return
        metrics = self.obs.metrics
        metrics.sample(self.engine.now)
        self.engine.schedule(metrics.interval, self._sample_metrics)

    def _final_metrics_sample(self, cycle: int) -> None:
        """End the series with a snapshot at the finish cycle, so
        cumulative series end exactly at the reported aggregate totals.

        Sharded windows may overshoot the finish cycle; their samples
        are dropped (the single-engine sampler stops at finish).
        """
        metrics = self.obs.metrics
        metrics.samples = [row for row in metrics.samples if row["cycle"] <= cycle]
        metrics.sample(cycle)

    # -- workload loading ------------------------------------------------------

    def load(self, workload: WorkloadTrace) -> None:
        """Validate the workload and premap every page per LASP."""
        workload.validate()
        for kernel in workload.kernels:
            for vpn, owner in kernel.page_owner.items():
                self.placement.map_page(vpn, owner)
        self._workload = workload
        self._phase_tracking = any(k.phase is not None for k in workload.kernels)

    # -- kernel plumbing -------------------------------------------------------

    def _owned_wavefront_count(self, kernel: KernelTrace) -> int:
        return sum(
            len(cta.wavefronts) for cta in kernel.ctas if cta.gpu in self.gpus
        )

    def _start_wavefronts(self, kernel: KernelTrace) -> None:
        """Deal the kernel's owned wavefronts round-robin over each GPU's
        CUs, then start every owned CU; completions report to the drive
        mode's ``_on_wavefront_done``."""
        rr_slot = {gpu_id: 0 for gpu_id in self.gpus}
        for cta in kernel.ctas:
            gpu = self.gpus.get(cta.gpu)
            if gpu is None:
                continue
            for wf in cta.wavefronts:
                cu = gpu.cus[rr_slot[cta.gpu] % len(gpu.cus)]
                rr_slot[cta.gpu] += 1
                cu.enqueue_wavefront(wf)
        for gpu in self.gpus.values():
            for cu in gpu.cus:
                cu.on_wavefront_done = self._on_wavefront_done
                cu.start()

    # -- per-phase accounting --------------------------------------------------

    def _phase_snapshot(self):
        """Inter-link + egress-controller totals at a quiesced boundary.

        Boundaries carry no in-flight traffic (the same property
        :mod:`repro.ckpt` snapshots rely on), so these integer deltas
        attribute every flit to exactly one phase.  Every inter-cluster
        link and controller is owned by exactly one shard, so
        sum-merging per-shard deltas reproduces the single-engine totals.
        """
        links = self.topology.inter_links
        ctrls = self.topology.controllers
        return (
            sum(link.stats.flits for link in links),
            sum(link.stats.wire_bytes for link in links),
            sum(link.stats.useful_bytes for link in links),
            sum(c.stats.flits_entered for c in ctrls),
            sum(c.stats.flits_absorbed for c in ctrls),
        )

    def _phase_begin(self, kernel: KernelTrace) -> None:
        self._phase_name = kernel.phase
        self.stats.set_live_phase(kernel.phase)
        self._phase_mark = self._phase_snapshot()
        self._phase_cycle = self.engine.now

    def _phase_close(self, boundary: int) -> None:
        """Attribute boundary-to-boundary deltas to the finished kernel's
        phase at the run-global ``boundary`` cycle (so under sharding
        ``kernels`` and ``cycles`` max-merge to the same value)."""
        if self._phase_name is None:
            return
        mark = self._phase_mark
        snap = self._phase_snapshot()
        block = self.stats.phase(self._phase_name)
        block.kernels += 1
        block.cycles += boundary - self._phase_cycle
        block.inter_flits += snap[0] - mark[0]
        block.inter_wire_bytes += snap[1] - mark[1]
        block.inter_useful_bytes += snap[2] - mark[2]
        block.flits_entered += snap[3] - mark[3]
        block.flits_absorbed += snap[4] - mark[4]

    # -- report ----------------------------------------------------------------

    def _row_sums(self) -> dict:
        """Report fields both drive modes harvest the same way."""
        topo = self.topology
        gpus = self.gpus.values()
        return {
            "inter_rows": [link_row(link) for link in topo.inter_links],
            "controller_rows": [controller_row(c) for c in topo.controllers],
            "l2_accesses": sum(
                gpu.l2.read_requests + gpu.l2.write_requests for gpu in gpus
            ),
            "dram_accesses": sum(gpu.dram.reads + gpu.dram.writes for gpu in gpus),
        }


def build_node(
    config: SystemConfig,
    netcrafter: NetCrafterConfig,
    seed: int,
    *,
    n_shards: int = 1,
    window: Optional[int] = None,
    parallel: bool = False,
    adaptive: bool = False,
    obs_spec: Optional[ShardObsSpec] = None,
):
    """The front end for one run, built exactly as asked.

    Any sharding request — ``n_shards > 1``, an explicit ``window`` or
    ``adaptive`` — gets a :class:`~repro.shard.coordinator.ShardedSystem`,
    which raises if the config cannot be sharded that way (never a
    silent fallback: callers that want one check
    ``ShardedSystem.supports`` first).  Otherwise the single-engine
    :class:`~repro.gpu.system.MultiGpuSystem`.  Both take the same
    ``load``/``run`` flow and produce byte-identical results.
    """
    if n_shards > 1 or window is not None or adaptive:
        from repro.shard.coordinator import ShardedSystem

        return ShardedSystem(
            config=config,
            netcrafter=netcrafter,
            seed=seed,
            n_shards=n_shards,
            window=window,
            parallel=parallel,
            obs_spec=obs_spec,
            adaptive=adaptive,
        )
    from repro.gpu.system import MultiGpuSystem

    return MultiGpuSystem(
        config=config,
        netcrafter=netcrafter,
        seed=seed,
        obs=obs_spec.build() if obs_spec is not None else None,
    )
