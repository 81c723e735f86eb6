"""MultiGpuSystem: build, load a workload, run, and report.

This is the top of the public API: construct with a
:class:`~repro.config.SystemConfig` and a
:class:`~repro.core.config.NetCrafterConfig`, load a
:class:`~repro.gpu.cta.WorkloadTrace`, call :meth:`run`, and read the
returned :class:`~repro.stats.report.RunResult`.

The hardware comes from :class:`~repro.gpu.node.NodeSlice`; this class
adds the single-engine drive: the kernel-boundary quiesce poll, the
launch/finish tail and the checkpoint hook.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.gpu.cta import KernelTrace
from repro.gpu.node import NodeSlice
from repro.network.ids import reset_run_ids
from repro.obs import Observability
from repro.stats.assemble import assemble_result, link_row
from repro.stats.report import RunResult


def config_label(config: SystemConfig, netcrafter: NetCrafterConfig) -> str:
    """Short human label for a (system, netcrafter) configuration pair.

    Shared between the single-engine system and the sharded coordinator
    so both report identical ``RunResult.config_label`` strings.
    """
    parts: List[str] = []
    if netcrafter.enable_stitching:
        label = "stitch"
        if netcrafter.enable_pooling:
            label += (
                f"+sfp{netcrafter.pooling_window}"
                if netcrafter.selective_pooling
                else f"+fp{netcrafter.pooling_window}"
            )
        parts.append(label)
    if netcrafter.enable_trimming:
        parts.append("trim")
    if netcrafter.enable_sequencing:
        parts.append("seq")
    if config.l1_fetch_mode == "sector":
        parts.append(f"sector{config.l1_sector_bytes}")
    if not parts:
        parts.append("baseline")
    return "+".join(parts)


class MultiGpuSystem(NodeSlice):
    """A complete non-uniform bandwidth multi-GPU node on one engine."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        netcrafter: Optional[NetCrafterConfig] = None,
        seed: int = 0,
        obs: Optional[Observability] = None,
    ) -> None:
        config = config or SystemConfig.default()
        # fresh pid/fid streams: repeat runs in one process must be
        # indistinguishable from runs in fresh workers (trace sampling
        # and artifacts key on raw IDs)
        reset_run_ids()
        super().__init__(
            config,
            netcrafter or NetCrafterConfig.baseline(),
            seed,
            obs,
            gpu_ids=range(config.n_gpus),
        )
        #: optional kernel-boundary observer (``hook(system)``), called at
        #: every quiesced boundary *before* the next launch; must not
        #: schedule events — :mod:`repro.ckpt` snapshots through it
        self._ckpt_hook = None

    # -- execution ----------------------------------------------------------------

    def run(self, max_events: Optional[int] = None) -> RunResult:
        """Run all kernels to completion and assemble the result."""
        if self._workload is None:
            raise RuntimeError("no workload loaded")
        self._kernel_index = 0
        if self._phase_tracking:
            self._phase_begin(self._workload.kernels[0])
        self._launch_kernel(self._workload.kernels[0])
        if self.obs.metrics is not None:
            self._sample_metrics()  # cycle-0 baseline, then every interval
        self.engine.run(max_events=max_events)
        if self.stats.finish_cycle is None:
            raise RuntimeError(
                "simulation drained without completing all wavefronts "
                f"(kernel {self._kernel_index}, {self._wavefronts_remaining} left)"
            )
        return self._collect(self._workload.name)

    def _launch_kernel(self, kernel: KernelTrace) -> None:
        self._wavefronts_remaining = self._owned_wavefront_count(kernel)
        if self._wavefronts_remaining == 0:
            self._on_kernel_done()
            return
        self._start_wavefronts(kernel)

    def _on_wavefront_done(self) -> None:
        self._wavefronts_remaining -= 1
        if self._wavefronts_remaining == 0:
            self._on_kernel_done()

    def _on_kernel_done(self) -> None:
        self.stats.kernel_count += 1
        if self.config.coherence == "software":
            # software-managed coherence flushes L1s at kernel boundaries;
            # the hardware-coherence extension keeps them live (the
            # directory invalidates stale copies eagerly)
            for gpu in self.gpus.values():
                gpu.invalidate_l1s()
        self.engine.schedule(0, self._advance_when_quiesced)

    def _is_quiesced(self) -> bool:
        """Kernel-boundary fence: posted writes and coherence
        invalidations must drain before the next kernel launches."""
        return all(
            gpu.rdma.outstanding_writes == 0
            and gpu.rdma.outstanding_invalidations == 0
            for gpu in self.gpus.values()
        )

    def _advance_when_quiesced(self) -> None:
        if not self._is_quiesced():
            self.engine.schedule(16, self._advance_when_quiesced)
            return
        if self._ckpt_hook is not None:
            self._ckpt_hook(self)
        self._advance_kernel()

    def _advance_kernel(self) -> None:
        """The post-quiesce tail of the boundary event: launch or finish.

        Split from :meth:`_advance_when_quiesced` so checkpoint resume
        can replay it outside the engine — a snapshot is taken mid
        boundary event, after the quiesce check but before this tail, so
        the restored system continues with byte-identical event keys.
        """
        self._kernel_index += 1
        if self._kernel_index < len(self._workload.kernels):
            next_kernel = self._workload.kernels[self._kernel_index]
            if self._phase_tracking:
                self._phase_close(self.engine.now)
                self._phase_begin(next_kernel)
            self._launch_kernel(next_kernel)
        else:
            if self._phase_tracking:
                self._phase_close(self.engine.now)
            self.stats.finish_cycle = self.engine.now

    # -- result assembly ---------------------------------------------------------------

    def _collect(self, workload_name: str) -> RunResult:
        if self.obs.metrics is not None:
            self._final_metrics_sample(self.stats.finish_cycle)
        return assemble_result(
            workload=workload_name,
            config_label=self._config_label(),
            cycles=self.stats.finish_cycle,
            stats=self.stats,
            events_processed=self.engine.events_processed,
            intra_rows=[link_row(link) for link in self.topology.intra_links()],
            **self._row_sums(),
        )

    def _config_label(self) -> str:
        return config_label(self.config, self.netcrafter)
