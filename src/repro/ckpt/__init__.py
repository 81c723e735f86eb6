"""Checkpoint/resume: kernel-boundary snapshots indistinguishable from
an uninterrupted run.

Long sweeps are single-shot simulations; a preemption used to throw the
whole run away.  This package serializes a quiesced
:class:`~repro.gpu.system.MultiGpuSystem` or
:class:`~repro.shard.coordinator.ShardedSystem` at kernel boundaries —
the engine's pending-event calendar (normalized by
``Engine.__getstate__``, which drops the lazily-recycled dispatched
prefix of the current ring bucket), cluster queues, pooling timers,
TLB/sector-cache/MSHR contents, in-flight reassembly and mailbox
sequence state, ID-allocator cursors, and every stats/obs counter — into
a versioned, fingerprint-stamped snapshot file, and resumes it to a
**byte-identical** final result.

Why kernel boundaries: the coordinator and the single engine both prove
the system quiesced there (no wavefronts, no posted writes, no in-flight
cross-cluster traffic), so the live object graph contains no transient
requester closures and the remaining schedule is a pure function of the
serialized state.  The snapshot hook is a pure observer — it schedules
no events — so a checkpointed run's event stream, sequence numbers and
digest are identical to an unhooked run's.

Snapshot file layout (version :data:`SNAPSHOT_FORMAT_VERSION`)::

    REPROCKPT\\n            magic
    {header JSON}\\n        format, fingerprint, mode, boundary, cycle
    <pickle payload>       the serialized system state

The header is validated *before* the payload is unpickled: a wrong
magic/version raises :class:`SnapshotFormatError`, and a fingerprint
that does not match the run configuration being resumed raises
:class:`FingerprintMismatchError` — resuming a snapshot against a
different config/seed/workload/shard-plan fails loudly, never silently
producing a chimera run.

Fault injection needs no extra state: fault fates are drawn from a pure
counter-based hash keyed on (link, packet content, attempt), so the
restored run redraws exactly the fates the uninterrupted run would have.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.atomicio import atomic_write_bytes, sweep_orphans
from repro.network.ids import FLIT_IDS, PACKET_IDS

#: bump whenever the snapshot payload layout or the serialized state of
#: any simulator class changes incompatibly
SNAPSHOT_FORMAT_VERSION = 2

_MAGIC = b"REPROCKPT\n"


class CheckpointError(RuntimeError):
    """Base error for snapshot save/load/resume problems."""


class SnapshotFormatError(CheckpointError):
    """The file is not a snapshot this version can read (bad magic,
    truncated header, or an incompatible format version)."""


class FingerprintMismatchError(CheckpointError):
    """The snapshot was taken under a different run configuration than
    the one being resumed (config, seed, workload shape, or shard plan)."""


# -- fingerprinting ----------------------------------------------------------


def run_fingerprint(
    config,
    netcrafter,
    seed: int,
    workload,
    n_shards: int = 1,
    window: Optional[int] = None,
) -> str:
    """Content hash of everything a resumed run must agree on.

    Covers the full system/netcrafter configuration content, the seed,
    the workload's shape (name, kernel count, total wavefronts — the
    trace itself rides inside the snapshot), and the shard plan.  The
    process-parallel flag is deliberately excluded: sequential-windowed
    and process-parallel runs share identical shard state, so a snapshot
    from one drive mode may resume under the other.
    """
    import enum
    import hashlib

    def _default(obj: object) -> object:
        if isinstance(obj, enum.Enum):
            return obj.value
        raise TypeError(f"cannot fingerprint {type(obj).__name__}: {obj!r}")

    descriptor = {
        "format": SNAPSHOT_FORMAT_VERSION,
        "system": asdict(config),
        "netcrafter": asdict(netcrafter),
        "seed": seed,
        "workload": workload.name,
        "kernels": len(workload.kernels),
        "wavefronts": sum(k.wavefront_count() for k in workload.kernels),
        "n_shards": n_shards,
        "window": window,
    }
    blob = json.dumps(descriptor, sort_keys=True, default=_default)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- snapshot file I/O -------------------------------------------------------


def write_snapshot(
    path: Union[str, Path],
    *,
    fingerprint: str,
    mode: str,
    boundary: int,
    cycle: int,
    payload: object,
) -> None:
    """Serialize and atomically publish one snapshot file.

    ``boundary`` is the number of completed kernels; ``cycle`` the
    quiesce cycle the snapshot was taken at.  The write is atomic and
    durable (temp + fsync + rename), so a crash mid-checkpoint leaves
    the previous snapshot intact, never a torn file.
    """
    header = {
        "format": SNAPSHOT_FORMAT_VERSION,
        "fingerprint": fingerprint,
        "mode": mode,
        "boundary": boundary,
        "cycle": cycle,
    }
    blob = (
        _MAGIC
        + json.dumps(header, sort_keys=True).encode("utf-8")
        + b"\n"
        + pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    )
    atomic_write_bytes(path, blob)


def read_header(path: Union[str, Path]) -> Dict[str, object]:
    """Parse and validate a snapshot's header without unpickling state."""
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            magic = handle.read(len(_MAGIC))
            if magic != _MAGIC:
                raise SnapshotFormatError(
                    f"{path} is not a repro checkpoint (bad magic)"
                )
            header_line = handle.readline()
    except OSError as exc:
        raise CheckpointError(f"cannot read snapshot {path}: {exc}") from exc
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise SnapshotFormatError(
            f"{path} has a corrupt snapshot header"
        ) from exc
    if header.get("format") != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotFormatError(
            f"{path} is snapshot format {header.get('format')!r}, "
            f"this version reads {SNAPSHOT_FORMAT_VERSION}"
        )
    return header


def read_snapshot(
    path: Union[str, Path], expected_fingerprint: Optional[str] = None
) -> tuple:
    """Load ``(header, payload)``, enforcing format and fingerprint.

    The fingerprint check happens on the header, *before* any payload
    bytes are unpickled.
    """
    path = Path(path)
    header = read_header(path)
    if (
        expected_fingerprint is not None
        and header["fingerprint"] != expected_fingerprint
    ):
        raise FingerprintMismatchError(
            f"snapshot {path} was taken under a different run "
            f"configuration (snapshot fingerprint "
            f"{header['fingerprint'][:12]}…, resuming run "
            f"{expected_fingerprint[:12]}…); refusing to resume"
        )
    with open(path, "rb") as handle:
        handle.read(len(_MAGIC))
        handle.readline()
        payload = pickle.loads(handle.read())
    return header, payload


# -- the boundary hook -------------------------------------------------------


@dataclass
class Checkpointer:
    """Kernel-boundary snapshot hook for both execution front ends.

    Install on a :class:`~repro.gpu.system.MultiGpuSystem` or
    :class:`~repro.shard.coordinator.ShardedSystem` via
    :func:`attach_checkpointing`.  Every ``every``-th completed kernel
    (and always the final boundary) the current state is published to
    ``path`` — one file, last boundary wins, so ``path`` always holds
    the latest resumable state.  The hook observes only: it schedules no
    events and mutates no simulator state, so hooked and unhooked runs
    are byte-identical.

    Instances are picklable and ride inside single-engine snapshots
    (the restored system keeps checkpointing to the same file unless
    resume() overrides the hook).
    """

    path: Union[str, Path]
    fingerprint: str
    every: int = 1
    #: boundaries at which a snapshot was actually written (observability
    #: for tests/CLI; not part of the snapshot contract)
    saved_boundaries: List[int] = field(default_factory=list)

    def _due(self, boundary: int, final: bool) -> bool:
        return final or boundary % max(1, self.every) == 0

    # single-engine hook: MultiGpuSystem calls hook(system) at a
    # quiesced boundary, before advancing the kernel index
    def __call__(self, system) -> None:
        boundary = system._kernel_index + 1
        final = boundary >= len(system._workload.kernels)
        if not self._due(boundary, final):
            return
        payload = {
            "system": system,
            "pid_state": PACKET_IDS.state(),
            "fid_state": FLIT_IDS.state(),
        }
        write_snapshot(
            self.path,
            fingerprint=self.fingerprint,
            mode="single",
            boundary=boundary,
            cycle=system.engine.now,
            payload=payload,
        )
        self.saved_boundaries.append(boundary)
        self.after_save(boundary)

    # sharded hook: the coordinator calls this at a proven boundary,
    # after computing (kernel_index, q) but before the launch broadcast
    def on_boundary(self, coordinator, handles, kernel_index, q, mailbox) -> None:
        final = kernel_index >= len(coordinator._workload.kernels)
        if not self._due(kernel_index, final):
            return
        shard_states = coordinator._broadcast(
            handles, [("snapshot",)] * coordinator.n_shards
        )
        payload = {
            "shard_states": shard_states,
            "kernel_index": kernel_index,
            "q": q,
            "windows_run": coordinator.windows_run,
            "mail_seq": dict(mailbox._last_seq),
        }
        write_snapshot(
            self.path,
            fingerprint=self.fingerprint,
            mode="sharded",
            boundary=kernel_index,
            cycle=q,
            payload=payload,
        )
        self.saved_boundaries.append(kernel_index)
        self.after_save(kernel_index)

    def after_save(self, boundary: int) -> None:
        """Post-publish extension point (the kill-and-resume smoke uses
        a subclass that hard-kills the process here)."""


def attach_checkpointing(node, checkpointer: Optional[Checkpointer]) -> None:
    """Install (or clear, with ``None``) the boundary hook on a system."""
    node._ckpt_hook = checkpointer


# -- resume ------------------------------------------------------------------


def resume(
    path: Union[str, Path],
    *,
    config,
    netcrafter,
    seed: int,
    workload,
    n_shards: int = 1,
    window: Optional[int] = None,
    parallel: bool = False,
    adaptive: bool = False,
    obs_spec=None,
    checkpointer: Optional[Checkpointer] = None,
):
    """Continue a snapshotted run to completion; returns its RunResult.

    The caller passes the run configuration it *intends* to resume —
    exactly what it would have used to construct the system — and the
    snapshot's stamped fingerprint must match
    (:class:`FingerprintMismatchError` otherwise).  ``checkpointer``
    replaces the snapshot's embedded hook: pass one to keep
    checkpointing from where the run left off, or ``None`` (default) to
    resume without further snapshots.

    The result is byte-identical to the uninterrupted run's: the resumed
    system replays the exact tail of the boundary event the snapshot was
    taken inside, with the same event keys and sequence numbers.
    """
    expected = run_fingerprint(
        config, netcrafter, seed, workload, n_shards=n_shards, window=window
    )
    header, payload = read_snapshot(path, expected_fingerprint=expected)
    # the fingerprint covers n_shards/window, so after it matches the
    # only remaining ambiguity is n_shards=1 with no window — both a
    # MultiGpuSystem and a 1-shard ShardedSystem produce that
    # fingerprint — and there the header's mode says which payload kind
    # this file holds
    if header["mode"] == "sharded":
        from repro.gpu.node import build_node

        # a sharded snapshot needs the sharded front end even for one
        # shard; an explicit full-lookahead window asks for it and runs
        # exactly like ``window=None``
        node = build_node(
            config,
            netcrafter,
            seed,
            n_shards=n_shards,
            window=config.effective_inter_link_latency if window is None else window,
            parallel=parallel,
            adaptive=adaptive,
            obs_spec=obs_spec,
        )
        node.load(workload)
        return node.resume_run(
            shard_states=payload["shard_states"],
            kernel_index=payload["kernel_index"],
            q=payload["q"],
            windows_run=payload["windows_run"],
            mail_seq=payload["mail_seq"],
            checkpointer=checkpointer,
        )
    if header["mode"] != "single":
        raise SnapshotFormatError(
            f"snapshot {path} has unknown mode {header['mode']!r}"
        )
    return _resume_single(payload, checkpointer=checkpointer)


def _resume_single(payload, checkpointer: Optional[Checkpointer]):
    system = payload["system"]
    PACKET_IDS.restore(payload["pid_state"])
    FLIT_IDS.restore(payload["fid_state"])
    system._ckpt_hook = checkpointer
    if system.obs.metrics is not None:
        # gauge sources are dropped by MetricsRegistry.__getstate__;
        # rebind them against the restored object graph
        system._register_metrics(system.obs.metrics)
    # replay the tail of the boundary event the snapshot was taken in
    system._advance_kernel()
    system.engine.run()
    if system.stats.finish_cycle is None:
        raise CheckpointError(
            "resumed simulation drained without completing all wavefronts "
            f"(kernel {system._kernel_index})"
        )
    return system._collect(system._workload.name)


__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "CheckpointError",
    "SnapshotFormatError",
    "FingerprintMismatchError",
    "Checkpointer",
    "attach_checkpointing",
    "run_fingerprint",
    "write_snapshot",
    "read_header",
    "read_snapshot",
    "resume",
    "sweep_orphans",
]
