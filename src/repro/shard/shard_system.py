"""One cluster shard: a self-contained single-engine slice of the node.

A :class:`ShardSystem` owns a contiguous cluster range — the GPUs, the
cluster switches, the intra-cluster links, and the *outgoing* halves of
inter-cluster links (boundary links when the destination cluster lives
in another shard), built by :class:`~repro.gpu.node.NodeSlice` like the
single engine's whole node.  It is driven externally by the coordinator
through four verbs:

* :meth:`begin` — load bookkeeping + launch kernel 0 at cycle 0;
* :meth:`window` — inject a batch of cross-shard mail, run the local
  engine to an exact boundary cycle, and hand back the outbox;
* :meth:`launch_kernel` — replay the next kernel launch at the quiesce
  cycle ``q`` the coordinator computed analytically;
* :meth:`finish` — drain, snapshot, and report.

Determinism: local events are keyed ``(time, skey=schedule-cycle,
seq)``, and cross-shard mail is injected with the sub-cycle delivery
key the sending link computed — exactly where the delivery callback
sorts in a single shared engine (see
:class:`~repro.network.link.FlitLink`) — so the shard's event order
reproduces the single-engine run event for event.

Kernel launches need one extra move.  The coordinator proves kernel
``k+1`` launches at cycle ``q``, but a shard's clock may sit past ``q``
(window overshoot) or before it.  The shard first runs to ``q - 1``
(safe: at a quiesced kernel boundary no shard can emit cross-cluster
traffic), then :meth:`~repro.sim.engine.Engine.rewind`\\ s to exactly
``q`` so the launch injects into an empty-or-sorted bucket and its
child events carry ``skey = q``, matching the single-engine keys.

Because several shard systems interleave in one process under the
sequential-windowed mode, each installs its own strided packet/flit ID
stream state around every slice of engine execution.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.gpu.cta import KernelTrace
from repro.gpu.node import NodeSlice
from repro.network.ids import FLIT_IDS, PACKET_IDS
from repro.obs import ShardObsSpec
from repro.shard.mailbox import BoundaryFlitLink, MailItem
from repro.shard.merge import ShardReport, ShardStatus
from repro.shard.partition import ShardPlan
from repro.stats.assemble import link_row


class ShardSystem(NodeSlice):
    """The simulation state of one shard, driven by a coordinator."""

    def __init__(
        self,
        config: SystemConfig,
        netcrafter: NetCrafterConfig,
        seed: int,
        shard_index: int,
        n_shards: int,
        obs_spec: Optional[ShardObsSpec] = None,
    ) -> None:
        self.shard_index = shard_index
        self.plan = ShardPlan.from_config(config, n_shards)
        # strided ID streams: shard i draws i, i+n, i+2n, ...  State is
        # installed around every engine-executing call so sequential mode
        # can interleave shards in one process without cross-allocation.
        self._pid_state = (shard_index, n_shards, shard_index)
        self._fid_state = (shard_index, n_shards, shard_index)
        self.boundary_links: List[BoundaryFlitLink] = []
        super().__init__(
            config,
            netcrafter,
            seed,
            (obs_spec or ShardObsSpec()).build(),
            gpu_ids=self.plan.gpus_of(shard_index),
            metric_prefix=f"s{shard_index}.",
            # owned switch nodes: the shard's cluster range, plus every
            # virtual switch (star hub, fat-tree spines) on the last shard
            owned_clusters=set(self.plan.nodes_of(shard_index)),
            boundary_link_factory=self._make_boundary_link,
        )
        self._last_wf_cycle = 0

    # -- construction helpers ----------------------------------------------

    def _make_boundary_link(
        self, name: str, bytes_per_cycle: float, latency: int, src: int, dst: int
    ) -> BoundaryFlitLink:
        link = BoundaryFlitLink(
            self.engine, name, bytes_per_cycle, latency, src, dst
        )
        self.boundary_links.append(link)
        return link

    def _drain_outboxes(self) -> List[MailItem]:
        outbox: List[MailItem] = []
        for link in self.boundary_links:
            if link.outbox:
                outbox.extend(link.drain_outbox())
        return outbox

    # -- ID stream swapping -------------------------------------------------

    def _install_ids(self) -> None:
        PACKET_IDS.restore(self._pid_state)
        FLIT_IDS.restore(self._fid_state)

    def _save_ids(self) -> None:
        self._pid_state = PACKET_IDS.state()
        self._fid_state = FLIT_IDS.state()

    # -- coordinator verbs --------------------------------------------------

    def begin(self) -> ShardStatus:
        """Launch kernel 0 at cycle 0 and take the cycle-0 sample."""
        if self._workload is None:
            raise RuntimeError("no workload loaded")
        self._install_ids()
        try:
            self._kernel_index = 0
            if self._phase_tracking:
                self._phase_begin(self._workload.kernels[0])
            self._start_kernel(self._workload.kernels[0])
            if self.obs.metrics is not None:
                self._sample_metrics()
        finally:
            self._save_ids()
        return self.status()

    def window(
        self, until: int, mail: List[MailItem]
    ) -> Tuple[List[MailItem], ShardStatus]:
        """Inject ``mail``, run to exactly ``until``, drain the outbox."""
        self._install_ids()
        try:
            if mail:
                inject = self.engine.inject
                switches = self.topology.switches
                for item in mail:
                    inject(
                        item.arrival,
                        item.skey,
                        switches[item.dst_cluster].receive_flit_from_network,
                        item.flit,
                    )
            self.engine.run(until=until)
            outbox = self._drain_outboxes()
        finally:
            self._save_ids()
        return outbox, self.status()

    def window_batches(
        self, until: int, batches, flits_per_batch
    ) -> Tuple[List[MailItem], ShardStatus]:
        """:meth:`window` fed straight from decoded ``MailBatch`` columns.

        Process-parallel fast path: the worker already unpickled each
        batch's flit payload, so the mail injects directly off the
        column buffers — no intermediate ``MailItem`` per flit.  Every
        delivery's ``(arrival, skey)`` pair is globally unique, so the
        batch-by-batch injection order matches :meth:`window` exactly.
        """
        self._install_ids()
        try:
            inject = self.engine.inject
            switches = self.topology.switches
            for batch, flits in zip(batches, flits_per_batch):
                arrivals = batch.arrivals
                skeys = batch.skeys
                index = 0
                for _src, dst, _first_seq, count in batch.iter_links():
                    receive = switches[dst].receive_flit_from_network
                    for _ in range(count):
                        inject(
                            arrivals[index], skeys[index], receive, flits[index]
                        )
                        index += 1
            self.engine.run(until=until)
            outbox = self._drain_outboxes()
        finally:
            self._save_ids()
        return outbox, self.status()

    def launch_window(
        self, kernel_index: int, q: int, until: int
    ) -> Tuple[List[MailItem], ShardStatus]:
        """Fused :meth:`launch_kernel` + :meth:`window` (no mail).

        At a proven kernel boundary the coordinator already knows the
        first post-launch window boundary — every shard's next event is
        the launch it just injected at ``(q, q)`` — so the intermediate
        status round-trip of a separate launch verb carries no
        information.  Fusing the two halves the per-boundary round
        trips; the simulated event sequence is identical.
        """
        self.launch_kernel(kernel_index, q)
        return self.window(until, [])

    def launch_kernel(self, kernel_index: int, q: int) -> ShardStatus:
        """Replay the launch of kernel ``kernel_index`` at cycle ``q``.

        The wavefront bookkeeping is updated *eagerly* (before the
        injected event runs) so the coordinator never mistakes the
        pre-launch lull for the next kernel boundary — and so shards with
        no work in this kernel still report ``last_wf_cycle = q``.
        """
        self._install_ids()
        try:
            engine = self.engine
            if engine.now < q:
                engine.run(until=q - 1)
            if engine.now != q:
                engine.rewind(q)
            self._kernel_index = kernel_index
            kernel = self._workload.kernels[kernel_index]
            if self._phase_tracking:
                # the boundary is quiesced, so the counters are final for
                # the previous kernel whether the window overshot or not
                self._phase_close(q)
                self._phase_begin(kernel)
            self._wavefronts_remaining = self._owned_wavefront_count(kernel)
            self._last_wf_cycle = q
            # bind the index: an empty kernel quiesces instantly, and the
            # coordinator may issue the *next* launch before this event
            # runs — reading self._kernel_index here would double-launch
            engine.inject(q, q, self._launch_event, kernel_index)
        finally:
            self._save_ids()
        return self.status()

    def finish(self, q_final: int) -> ShardReport:
        """Drain residual events and harvest this shard's report."""
        self._install_ids()
        try:
            # stops the metrics sampler; the value is final either way
            self.stats.finish_cycle = q_final
            if self.config.coherence == "software":
                # the single-engine run flushes L1s at the final kernel
                # boundary; pure state clear, no counters touched
                for gpu in self.gpus.values():
                    gpu.invalidate_l1s()
            self.engine.run_until_idle()
            if self._phase_tracking:
                self._phase_close(q_final)
        finally:
            self._save_ids()
        return self._report(q_final)

    def snapshot_state(self) -> bytes:
        """Serialize this shard's complete simulation state.

        Only meaningful at a coordinator-proven kernel boundary: the
        shard is quiesced there, so no pending packet carries a live
        requester closure (the engine's dispatched-prefix entries are
        dropped by ``Engine.__getstate__``) and no cross-shard context
        token is outstanding.  The striped ID cursors ride along in
        ``_pid_state``/``_fid_state``, saved by the last verb.
        """
        import pickle

        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @staticmethod
    def from_snapshot_state(data: bytes) -> "ShardSystem":
        """Rebuild a shard from :meth:`snapshot_state` bytes.

        Metric gauge sources are dropped at pickle time
        (``MetricsRegistry.__getstate__``); re-register them against the
        restored object graph so post-resume samples keep every column.
        """
        import pickle

        shard = pickle.loads(data)
        if shard.obs.metrics is not None:
            shard._register_metrics(shard.obs.metrics)
        return shard

    # -- kernel plumbing ----------------------------------------------------

    def _launch_event(self, kernel_index: int) -> None:
        if self.config.coherence == "software":
            # L1 flush deferred from the previous kernel's end: no owned
            # CU touches its L1 between its last wavefront and this launch
            for gpu in self.gpus.values():
                gpu.invalidate_l1s()
        self._start_kernel(self._workload.kernels[kernel_index])

    def _start_kernel(self, kernel: KernelTrace) -> None:
        self._wavefronts_remaining = self._owned_wavefront_count(kernel)
        self._last_wf_cycle = self.engine.now
        self._start_wavefronts(kernel)

    def _on_wavefront_done(self) -> None:
        self._wavefronts_remaining -= 1
        if self._wavefronts_remaining == 0:
            self._last_wf_cycle = self.engine.now

    # -- status / report ----------------------------------------------------

    def status(self) -> ShardStatus:
        sampler_pending = (
            1 if self.obs.metrics is not None and self.stats.finish_cycle is None else 0
        )
        max_drain = (0, 0)
        counters_zero = True
        for gpu in self.gpus.values():
            rdma = gpu.rdma
            if rdma.outstanding_writes or rdma.outstanding_invalidations:
                counters_zero = False
            drain = (rdma.last_drain_cycle, rdma.last_drain_skey)
            if drain > max_drain:
                max_drain = drain
        return ShardStatus(
            next_event=self.engine.peek_key(),
            real_pending=self.engine.pending_events() - sampler_pending,
            wavefronts_remaining=self._wavefronts_remaining,
            last_wf_cycle=self._last_wf_cycle,
            counters_zero=counters_zero,
            max_drain=max_drain,
        )

    def _report(self, q_final: int) -> ShardReport:
        topo = self.topology
        report = ShardReport(
            shard_index=self.shard_index,
            stats=self.stats,
            events_processed=self.engine.events_processed,
            up_rows=[link_row(link) for link in topo.gpu_uplinks.values()],
            down_rows=[link_row(link) for link in topo.gpu_downlinks.values()],
            **self._row_sums(),
        )
        obs = self.obs
        if obs.tracer.enabled:
            report.trace_records = obs.tracer.events()
            report.trace_sample = obs.tracer.sample
            report.trace_dropped = obs.tracer.dropped
        if obs.metrics is not None:
            self._final_metrics_sample(q_final)
            report.metrics_rows = obs.metrics.samples
            report.metrics_names = obs.metrics.names()
            report.metrics_interval = obs.metrics.interval
        if obs.profiler is not None:
            report.profile = obs.profiler.to_dict()
        return report
