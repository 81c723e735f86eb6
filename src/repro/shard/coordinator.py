"""ShardedSystem: the MultiGpuSystem-compatible sharded front end.

Drives ``n_shards`` :class:`~repro.shard.shard_system.ShardSystem`
instances — in-process (*sequential-windowed*) or as worker processes
(*process-parallel*) — in bounded windows of conservative lookahead.

The window loop
---------------

Each iteration the coordinator:

1. computes each shard's *candidate* time — its earliest pending event
   or undelivered mail arrival; nothing the shard does can precede it;
2. runs every shard to its window boundary, delivering the previous
   window's mail.  In fixed mode every shard runs to ``t* + window``
   (``t*`` the global minimum candidate, ``window <= W``, the
   inter-cluster link latency): a flit sent at ``t >= t*`` cannot
   arrive before ``t + 1 + W > t* + window``, so no shard ever needs an
   input it has not been given.  In *adaptive* mode
   (:meth:`ShardedSystem._untils`) each shard's boundary stretches
   independently as far as the same safety argument allows — quiet
   shards leap ahead when cross-shard traffic is sparse and fall back
   to latency-sized windows under bursts, with per-shard frontiers
   replacing the aligned clock;
3. collects the shards' outboxes through the validating
   :class:`~repro.shard.mailbox.Mailbox` (header-only column batches in
   process-parallel mode) for delivery next iteration.

Window boundaries never influence simulated event order — both modes
reproduce the single-engine digests byte-for-byte; adaptive mode only
changes how much wall-clock coordination that reproduction costs.

Kernel boundaries are resolved analytically.  When no mail is pending,
every wavefront has completed, and every RDMA posted-write/invalidation
counter is zero, the coordinator replays the single-engine quiesce poll
chain (a poll every 16 cycles from the kernel-done cycle) against the
shards' recorded drain keys to find the exact cycle ``q`` the next
kernel would have launched at — then tells every shard to launch there,
rewinding window overshoot.  The event keys this produces match the
single-engine schedule, which is why both modes reproduce its results
byte-for-byte.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.gpu.cta import WorkloadTrace
from repro.gpu.node import validate_configs
from repro.gpu.system import config_label
from repro.obs import ShardObsSpec
from repro.obs.merge import MergedObservability, merge_observability
from repro.shard.mailbox import MailBatch, MailItem, Mailbox
from repro.shard.merge import ShardReport, ShardStatus, merge_reports
from repro.shard.partition import ShardPlan
from repro.shard.shard_system import ShardSystem
from repro.shard.worker import LocalShard, RemoteShard
from repro.stats.coord import CoordStats
from repro.stats.report import RunResult

#: single-engine quiesce polling period (MultiGpuSystem._advance_when_quiesced)
_QUIESCE_POLL_CYCLES = 16

#: sentinel "no candidate" time (a drained shard with no pending mail)
_INF = 1 << 62


def _available_cpus() -> int:
    """CPUs this process may run on (affinity-aware where supported)."""
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _parcel_min_arrival(parcel) -> int:
    """Earliest arrival in one pending-mail parcel (batch or sorted list)."""
    if isinstance(parcel, MailBatch):
        return min(parcel.arrivals)
    return parcel[0].arrival


class ShardedSystem:
    """A multi-GPU node simulated as cluster shards with lookahead windows.

    API-compatible with :class:`~repro.gpu.system.MultiGpuSystem` for
    the ``load`` / ``run`` flow; results are byte-identical.
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        netcrafter: Optional[NetCrafterConfig] = None,
        seed: int = 0,
        n_shards: int = 1,
        window: Optional[int] = None,
        parallel: bool = False,
        obs_spec: Optional[ShardObsSpec] = None,
        adaptive: bool = False,
    ) -> None:
        self.config = config or SystemConfig.default()
        self.netcrafter = netcrafter or NetCrafterConfig.baseline()
        validate_configs(self.config, self.netcrafter)
        if not self.supports(self.config, n_shards):
            raise ValueError(
                f"cannot shard this node {n_shards} way(s): cluster sharding "
                "requires software coherence (the analytic kernel-boundary "
                "replay assumes kernel-scoped L1 flushes) and a shard count "
                f"dividing n_clusters ({self.config.n_clusters})"
            )
        self.seed = seed
        self.plan = ShardPlan.from_config(self.config, n_shards)
        self.n_shards = n_shards
        self.parallel = parallel
        self.obs_spec = obs_spec or ShardObsSpec()
        lookahead = self.config.effective_inter_link_latency
        self.window = lookahead if window is None else window
        if not 1 <= self.window <= lookahead:
            raise ValueError(
                f"window must be in 1..{lookahead} "
                f"(the inter-cluster link latency), got {self.window}"
            )
        self.adaptive = adaptive
        #: overlap remote window execution only when the host can
        #: actually run workers concurrently (see :meth:`_broadcast`)
        self._overlap_windows = parallel and _available_cpus() > 1
        self._workload: Optional[WorkloadTrace] = None
        self._reports: Optional[List[ShardReport]] = None
        self._merged_obs: Optional[MergedObservability] = None
        self.windows_run = 0
        #: coordination-overhead breakdown of the last/current run
        self.coord_stats = CoordStats()
        #: optional :class:`repro.ckpt.Checkpointer`; its ``on_boundary``
        #: observes every proven kernel boundary before the launch
        #: broadcast (pure observer — no simulator state is touched)
        self._ckpt_hook = None

    @staticmethod
    def supports(config: SystemConfig, n_shards: int) -> bool:
        """Whether ``config`` can run as ``n_shards`` cluster shards; the
        constructor raises exactly when this is false."""
        return (
            config.coherence == "software"
            and n_shards >= 1
            and config.n_clusters % n_shards == 0
        )

    # -- MultiGpuSystem-parity API ------------------------------------------

    def load(self, workload: WorkloadTrace) -> None:
        workload.validate()
        self._workload = workload

    def run(self) -> RunResult:
        if self._workload is None:
            raise RuntimeError("no workload loaded")
        handles = self._build_handles()
        try:
            return self._run_loop(handles)
        finally:
            for handle in handles:
                handle.close()

    def merged_obs(self) -> MergedObservability:
        """Merged observability artifacts of the last :meth:`run`."""
        if self._merged_obs is None:
            raise RuntimeError("run() has not completed")
        return self._merged_obs

    def resume_run(
        self,
        shard_states: List[bytes],
        kernel_index: int,
        q: int,
        windows_run: int,
        mail_seq,
        checkpointer=None,
    ) -> RunResult:
        """Continue from checkpointed per-shard state; see :mod:`repro.ckpt`.

        ``kernel_index`` and ``q`` are the boundary the snapshot froze:
        the coordinator had proven kernel ``kernel_index`` launches at
        cycle ``q`` but had not yet broadcast the launch (or finish).
        Re-entering the loop there replays exactly the command sequence
        the uninterrupted run would have issued.
        """
        if self._workload is None:
            raise RuntimeError("no workload loaded")
        if len(shard_states) != self.n_shards:
            raise RuntimeError(
                f"snapshot holds {len(shard_states)} shard(s), "
                f"this coordinator drives {self.n_shards}"
            )
        self._ckpt_hook = checkpointer
        self.windows_run = windows_run
        handles = self._build_handles(shard_states)
        try:
            mailbox = Mailbox()
            mailbox._last_seq.update(mail_seq)
            kernels = self._workload.kernels
            if kernel_index >= len(kernels):
                return self._finish(handles, q)
            statuses = self._broadcast(
                handles, [("launch", kernel_index, q)] * self.n_shards
            )
            self.coord_stats.launches += 1
            return self._window_loop(
                handles, mailbox, statuses, kernel_index, pending_mail=[]
            )
        finally:
            for handle in handles:
                handle.close()

    # -- internals ----------------------------------------------------------

    def _build_handles(
        self, shard_states: Optional[List[bytes]] = None
    ) -> List[object]:
        """One handle per shard, built fresh or restored from checkpointed
        ``shard_states``."""
        handles: List[object] = []
        for shard_index in range(self.n_shards):
            state = None if shard_states is None else shard_states[shard_index]
            if self.parallel:
                handles.append(
                    RemoteShard(
                        self.config,
                        self.netcrafter,
                        self.seed,
                        shard_index,
                        self.n_shards,
                        self.obs_spec,
                        workload=self._workload if state is None else None,
                        shard_state=state,
                        coord_stats=self.coord_stats,
                    )
                )
            elif state is not None:
                handles.append(LocalShard(ShardSystem.from_snapshot_state(state)))
            else:
                system = ShardSystem(
                    self.config,
                    self.netcrafter,
                    self.seed,
                    shard_index,
                    self.n_shards,
                    self.obs_spec,
                )
                system.load(self._workload)
                handles.append(LocalShard(system))
        return handles

    def _broadcast(self, handles, commands) -> List[object]:
        """Issue one command per handle, then collect every reply.

        ``commands`` is a list of ``(verb, *args)`` tuples, one per
        shard.  With more than one CPU available, remote handles overlap
        their work here — every worker is busy before the first reply is
        awaited.  On a single-CPU host that overlap only timeslices
        compute-bound workers against each other (each slice restarts
        with the other shard's working set in cache, costing real extra
        CPU), so dispatch is serialized per shard instead; replies are
        collected in shard order either way, so the command/reply
        sequence — and therefore the simulation — is identical.
        """
        if self._overlap_windows:
            for handle, command in zip(handles, commands):
                handle.start(*command)
            return [handle.collect() for handle in handles]
        replies = []
        for handle, command in zip(handles, commands):
            handle.start(*command)
            replies.append(handle.collect())
        return replies

    def _run_loop(self, handles) -> RunResult:
        mailbox = Mailbox()
        statuses: List[ShardStatus] = self._broadcast(
            handles, [("begin",)] * self.n_shards
        )
        self.coord_stats.launches += 1  # begin() launches kernel 0
        return self._window_loop(
            handles, mailbox, statuses, kernel_index=0, pending_mail=[]
        )

    def _finish(self, handles, q: int) -> RunResult:
        reports: List[ShardReport] = self._broadcast(
            handles, [("finish", q)] * self.n_shards
        )
        self._reports = reports
        self._merged_obs = merge_observability(reports)
        return merge_reports(
            reports,
            workload=self._workload.name,
            config_label=config_label(self.config, self.netcrafter),
            cycles=q,
            kernel_count=len(self._workload.kernels),
        )

    def _window_loop(
        self,
        handles,
        mailbox: Mailbox,
        statuses: List[ShardStatus],
        kernel_index: int,
        pending_mail: List[MailItem],
    ) -> RunResult:
        kernels = self._workload.kernels
        stats = self.coord_stats
        n = self.n_shards
        # pending[dst]: parcels awaiting delivery to shard ``dst`` — live
        # MailItem lists (sequential mode) or MailBatch columns (parallel
        # mode, routed on headers alone, payload never unpickled here)
        pending: List[List[object]] = [[] for _ in range(n)]
        for item in pending_mail:
            pending[self.plan.shard_of_cluster(item.dst_cluster)].append([item])
        # per-shard simulated frontier: the boundary each shard last ran
        # to (monotone between kernel launches; a launch re-anchors it)
        frontier = [0] * n
        while True:
            have_mail = any(pending)
            at_boundary = (
                not have_mail
                and all(s.wavefronts_remaining == 0 for s in statuses)
                and all(s.counters_zero for s in statuses)
            )
            if at_boundary:
                t_done = max(s.last_wf_cycle for s in statuses)
                max_drain = max(s.max_drain for s in statuses)
                q = self._quiesce_cycle(t_done, max_drain)
                kernel_index += 1
                if self._ckpt_hook is not None:
                    # snapshot the pre-launch boundary state; resume
                    # re-issues the same (launch|finish, kernel_index, q)
                    self._ckpt_hook.on_boundary(
                        self, handles, kernel_index, q, mailbox
                    )
                if kernel_index >= len(kernels):
                    return self._finish(handles, q)
                # fused launch+window: after the launch every shard's
                # next event is the launch injected at key (q, q), so
                # the first post-launch window boundary is known here —
                # the separate launch status round-trip carries no
                # information and is elided
                until = self._post_launch_until(q)
                stats.launches += 1
                replies = self._broadcast(
                    handles,
                    [("launch_window", kernel_index, q, until)] * n,
                )
                frontier = [until] * n
            else:
                if not have_mail and all(s.real_pending == 0 for s in statuses):
                    left = sum(s.wavefronts_remaining for s in statuses)
                    raise RuntimeError(
                        "simulation drained without completing all wavefronts "
                        f"(kernel {kernel_index}, {left} left)"
                    )
                for i, until in enumerate(self._untils(statuses, pending)):
                    if until > frontier[i]:
                        frontier[i] = until
                commands = []
                for i in range(n):
                    parcels = pending[i]
                    if self.parallel:
                        mail = tuple(parcels)
                    elif not parcels:
                        mail = []
                    elif len(parcels) == 1:
                        mail = parcels[0]  # already in delivery order
                    else:
                        mail = sorted(
                            (item for parcel in parcels for item in parcel),
                            key=MailItem.sort_key,
                        )
                    commands.append(("window", frontier[i], mail))
                replies = self._broadcast(handles, commands)
            self.windows_run += 1
            stats.windows += 1
            statuses, pending = self._ingest(mailbox, replies, frontier)

    def _untils(
        self, statuses: List[ShardStatus], pending: List[List[object]]
    ) -> List[int]:
        """Per-shard window boundaries from the current candidate times.

        ``cand[s]`` is the earliest thing shard ``s`` can possibly do:
        its next pending event or its earliest undelivered mail arrival.
        Fixed mode runs every shard to ``min(cand) + window`` — the
        classic conservative lookahead.  Adaptive mode stretches each
        shard independently to::

            until[s] = min(min(cand[x] for x != s) + L,
                           cand[s] + 1 + 2 * L)

        with ``L`` the inter-cluster link latency.  Any future arrival
        into ``s`` either originates from another shard's activity (at
        ``>= cand[x]``, arriving ``>= cand[x] + 1 + L``) or from a
        chain that left ``s`` itself and bounced back (two hops:
        ``>= cand[s] + 2 + 2 * L``), so every arrival lands strictly
        beyond ``until[s]`` — the same safety contract the fixed window
        provides, without capping quiet shards at ``t* + window``.  The
        inputs are deterministic simulation state, so adaptive windows
        replay identically across drive modes and shard counts.
        """
        cands = []
        for i, status in enumerate(statuses):
            cand = _INF if status.next_event is None else status.next_event[0]
            for parcel in pending[i]:
                first = _parcel_min_arrival(parcel)
                if first < cand:
                    cand = first
            cands.append(cand)
        if not self.adaptive:
            return [min(cands) + self.window] * self.n_shards
        lookahead = self.config.effective_inter_link_latency
        m1 = min(cands)
        i1 = cands.index(m1)
        m2 = min(
            (c for i, c in enumerate(cands) if i != i1), default=_INF
        )
        untils = []
        for i, cand in enumerate(cands):
            other = m2 if i == i1 else m1
            untils.append(min(other + lookahead, cand + 1 + 2 * lookahead))
        return untils

    def _post_launch_until(self, q: int) -> int:
        """First window boundary after a kernel launch at cycle ``q``.

        Every shard's candidate is the launch event at ``(q, q)``, so
        this is exactly what :meth:`_untils` would return given the
        post-launch statuses — checkpoint resume, which re-enters the
        loop through a plain ``launch`` verb, recomputes the same value.
        """
        if not self.adaptive:
            return q + self.window
        lookahead = self.config.effective_inter_link_latency
        if self.n_shards == 1:
            return q + 1 + 2 * lookahead
        return q + lookahead

    def _ingest(self, mailbox: Mailbox, replies, frontier: List[int]):
        """Split window replies into statuses and validated pending mail.

        Every outbox item is validated against its *destination* shard's
        frontier — the cycle that shard has already simulated to — via
        the per-link monotone-sequence mailbox.  Parallel replies route
        as opaque :class:`MailBatch` columns; sequential replies carry
        live items, collated into delivery order here.
        """
        stats = self.coord_stats
        statuses: List[ShardStatus] = []
        pending: List[List[object]] = [[] for _ in range(self.n_shards)]
        for shard_out, status in replies:
            statuses.append(status)
            if not shard_out:
                continue
            if self.parallel:
                for dst in sorted(shard_out):
                    batch = shard_out[dst]
                    mailbox.validate_batch(batch, frontier[dst])
                    pending[dst].append(batch)
                    stats.mail_items += len(batch)
            else:
                groups: dict = {}
                for item in shard_out:
                    dst = self.plan.shard_of_cluster(item.dst_cluster)
                    group = groups.get(dst)
                    if group is None:
                        groups[dst] = [item]
                    else:
                        group.append(item)
                for dst in sorted(groups):
                    items = mailbox.collate(groups[dst], boundary=frontier[dst])
                    pending[dst].append(items)
                    stats.mail_items += len(items)
        return statuses, pending

    def _quiesce_cycle(self, t_done: int, max_drain: Tuple[int, int]) -> int:
        """Replay the single-engine quiesce poll chain analytically.

        The single-engine poll runs at ``(time=p_j, skey=s_j)`` with
        ``p_0 = s_0 = t_done`` and ``p_j = t_done + 16j``,
        ``s_j = p_{j-1}``.  It observes the counters as drained exactly
        when the draining event's key ``(Z, Zskey)`` ordered before the
        poll's — the condition tested here against the shards' recorded
        lexicographic-max drain key.
        """
        drain_cycle, drain_skey = max_drain
        poll, poll_skey = t_done, t_done
        while not (
            drain_cycle < poll
            or (drain_cycle == poll and drain_skey < poll_skey)
        ):
            poll_skey = poll
            poll += _QUIESCE_POLL_CYCLES
        return poll
