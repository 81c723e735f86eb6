"""Process-parallel shard execution: persistent workers over pipes.

Each shard runs in its own ``multiprocessing.Process`` hosting one
:class:`~repro.shard.shard_system.ShardSystem`, built locally in the
worker from picklable inputs (configs, seed, workload, obs spec).  The
coordinator drives it with small command tuples over a pipe::

    ("begin",)                        -> ("ok", ShardStatus)
    ("window", until, batches)        -> ("ok", (out_batches, ShardStatus))
    ("launch", k, q)                  -> ("ok", ShardStatus)
    ("launch_window", k, q, until)    -> ("ok", (out_batches, ShardStatus))
    ("finish", q)                     -> ("ok", ShardReport)
    ("snapshot",)                     -> ("ok", bytes)  # pickled ShardSystem
    ("exit",)                         -> worker terminates

Commands and replies cross the pipe as explicit ``pickle.dumps``
payloads over ``send_bytes``/``recv_bytes`` (highest protocol), so the
coordinator can count the exact bytes serialized per verb.  Mailbox
traffic travels as :class:`~repro.shard.mailbox.MailBatch` columns:
``batches`` is the sequence of batches destined to this shard and
``out_batches`` maps destination shard index to one encoded batch of
this window's outbox — pickled once here, routed by the coordinator on
the header columns alone, and decoded only by the destination worker.
``launch_window`` fuses the kernel-boundary launch with the first
window after it (the post-launch window boundary is deterministic, so
the coordinator needs no intermediate status), halving the per-boundary
round trips.

Any worker exception is shipped back as ``("error", traceback)`` and
re-raised in the coordinator.

Checkpoint resume hands the worker a previously pickled shard
(``shard_state``) instead of build inputs; the worker restores it via
:meth:`~repro.shard.shard_system.ShardSystem.from_snapshot_state` and
serves the same verb loop from the restored state.

Requester contexts (the ``on_complete`` closures riding on packets)
are the one unpicklable part of a boundary flit.  The worker swaps each
one for a :class:`CtxToken` before its outbox is pickled and swaps the
original back when the token returns home on a response packet; the
stash entry is never popped, because a multi-flit packet pickled in
separate window batches arrives as several object copies, each of which
must be restorable.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.shard.mailbox import MailBatch, MailItem
from repro.obs import ShardObsSpec
from repro.shard.shard_system import ShardSystem
from repro.stats.coord import CoordStats


@dataclass(frozen=True)
class CtxToken:
    """Placeholder for a stashed requester context (home shard + key)."""

    home: int
    key: int


def _packets_of(flit) -> List[object]:
    """The flit's packet plus every stitched segment's packet."""
    packets = [flit.packet]
    for segment in flit.segments:
        packets.append(segment.flit.packet)
    return packets


class ContextStash:
    """Token swap for requester callbacks crossing the pickle boundary."""

    def __init__(self, shard_index: int) -> None:
        self.shard_index = shard_index
        self._store: Dict[int, object] = {}
        self._next_key = 0

    def tokenize(self, items: List[MailItem]) -> None:
        # every non-token context is stashed, not just those carrying an
        # on_complete closure: the fault backstop marks ``ctx.completed``
        # on the requester's original object, which a pickled copy of a
        # WRITE/INV context (on_complete=None) could never reach
        for item in items:
            for packet in _packets_of(item.flit):
                ctx = packet.context
                if ctx is not None and not isinstance(ctx, CtxToken):
                    key = self._next_key
                    self._next_key = key + 1
                    self._store[key] = ctx
                    packet.context = CtxToken(self.shard_index, key)

    def restore(self, items: List[MailItem]) -> None:
        self.restore_flits(item.flit for item in items)

    def restore_flits(self, flits) -> None:
        for flit in flits:
            for packet in _packets_of(flit):
                ctx = packet.context
                if isinstance(ctx, CtxToken) and ctx.home == self.shard_index:
                    packet.context = self._store[ctx.key]


def _encode_outbox(shard, stash: ContextStash, outbox) -> Dict[int, MailBatch]:
    """Tokenize contexts and column-encode the outbox per destination shard.

    Pickling happens here, exactly once per destination: one ``dumps``
    over each destination's flit list lets the pickle memo dedupe the
    shared ``Packet``/``StitchSegment`` tuple-state prefix of multi-flit
    packets instead of re-serializing it per flit per hop.
    """
    if not outbox:
        return {}
    stash.tokenize(outbox)
    shard_of = shard.plan.shard_of_cluster
    groups: Dict[int, List[MailItem]] = {}
    for item in outbox:
        dst = shard_of(item.dst_cluster)
        group = groups.get(dst)
        if group is None:
            groups[dst] = [item]
        else:
            group.append(item)
    return {dst: MailBatch.encode(items) for dst, items in groups.items()}


def worker_main(
    conn,
    config,
    netcrafter,
    seed: int,
    shard_index: int,
    n_shards: int,
    obs_spec: ShardObsSpec,
    workload,
    shard_state=None,
) -> None:
    """Worker process entry: build the shard, serve commands until exit.

    With ``shard_state`` (checkpoint resume) the shard is restored from
    its pickled snapshot instead of being built fresh.
    """
    proto = pickle.HIGHEST_PROTOCOL
    try:
        if shard_state is not None:
            shard = ShardSystem.from_snapshot_state(shard_state)
        else:
            shard = ShardSystem(
                config, netcrafter, seed, shard_index, n_shards, obs_spec
            )
            shard.load(workload)
        stash = ContextStash(shard_index)
        while True:
            message = pickle.loads(conn.recv_bytes())
            verb = message[0]
            if verb == "window":
                _, until, batches = message
                # decode payloads here (one loads per batch), restore the
                # stashed contexts on the live flit lists, and inject
                # straight off the columns — no MailItem per flit
                flits_per_batch = [
                    pickle.loads(batch.payload) for batch in batches
                ]
                for flits in flits_per_batch:
                    stash.restore_flits(flits)
                outbox, status = shard.window_batches(
                    until, batches, flits_per_batch
                )
                reply = ("ok", (_encode_outbox(shard, stash, outbox), status))
            elif verb == "launch_window":
                _, kernel_index, q, until = message
                outbox, status = shard.launch_window(kernel_index, q, until)
                reply = ("ok", (_encode_outbox(shard, stash, outbox), status))
            elif verb == "begin":
                reply = ("ok", shard.begin())
            elif verb == "launch":
                _, kernel_index, q = message
                reply = ("ok", shard.launch_kernel(kernel_index, q))
            elif verb == "finish":
                _, q_final = message
                reply = ("ok", shard.finish(q_final))
            elif verb == "snapshot":
                reply = ("ok", shard.snapshot_state())
            elif verb == "exit":
                conn.close()
                return
            else:  # pragma: no cover - protocol error
                raise RuntimeError(f"unknown shard command {verb!r}")
            conn.send_bytes(pickle.dumps(reply, proto))
    except (EOFError, KeyboardInterrupt):  # pragma: no cover
        return
    except Exception:
        try:
            conn.send_bytes(
                pickle.dumps(("error", traceback.format_exc()), proto)
            )
        except Exception:  # pragma: no cover - parent already gone
            pass


class RemoteShard:
    """Coordinator-side handle for one worker process."""

    #: grace period for a worker to exit on its own before escalation
    EXIT_GRACE_SECONDS = 10.0

    def __init__(
        self,
        config,
        netcrafter,
        seed: int,
        shard_index: int,
        n_shards: int,
        obs_spec: ShardObsSpec,
        workload,
        shard_state=None,
        coord_stats: Optional[CoordStats] = None,
    ) -> None:
        self.coord_stats = coord_stats
        method = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        context = multiprocessing.get_context(method)
        self._conn, child = context.Pipe()
        self._process = context.Process(
            target=worker_main,
            args=(
                child,
                config,
                netcrafter,
                seed,
                shard_index,
                n_shards,
                obs_spec,
                workload,
                shard_state,
            ),
            daemon=True,
        )
        self._process.start()
        child.close()

    def start(self, verb: str, *args) -> None:
        blob = pickle.dumps((verb,) + args, protocol=pickle.HIGHEST_PROTOCOL)
        stats = self.coord_stats
        if stats is not None:
            stats.verb_round_trips += 1
            stats.pickle_bytes_out += len(blob)
        self._conn.send_bytes(blob)

    def collect(self):
        stats = self.coord_stats
        if stats is None:
            blob = self._conn.recv_bytes()
        else:
            begin = time.perf_counter()
            blob = self._conn.recv_bytes()
            stats.idle_wait_seconds += time.perf_counter() - begin
            stats.pickle_bytes_in += len(blob)
        kind, payload = pickle.loads(blob)
        if kind == "error":
            raise RuntimeError(f"shard worker failed:\n{payload}")
        return payload

    def close(self) -> None:
        """Graceful teardown: exit verb, drain, join — terminate last.

        Killing the worker outright can catch it mid-``conn.send`` and
        strand a partially written reply (trace batches, shard reports),
        so escalation is the last resort.  Two details make the graceful
        path reliable: any not-yet-collected replies are drained while
        waiting (a worker blocked writing a large payload into a full
        pipe cannot reach the exit verb until someone reads), and
        ``terminate`` itself escalates to ``kill`` if the worker ignores
        SIGTERM.
        """
        process = self._process
        try:
            self._conn.send(("exit",))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
        deadline = time.monotonic() + self.EXIT_GRACE_SECONDS
        while process.is_alive() and time.monotonic() < deadline:
            try:
                if self._conn.poll(0.05):
                    # discard stale reply bytes (no unpickle), unblock worker
                    self._conn.recv_bytes()
                    continue
            except (EOFError, OSError):
                break  # worker closed its end: it is on the way out
            process.join(timeout=0.05)
        process.join(timeout=0.1)
        if process.is_alive():  # pragma: no cover - hung worker
            process.terminate()
            process.join(timeout=5)
        if process.is_alive():  # pragma: no cover - SIGTERM ignored
            process.kill()
            process.join()
        try:
            self._conn.close()
        except OSError:  # pragma: no cover
            pass


class LocalShard:
    """In-process handle with the same start/collect surface.

    Sequential-windowed mode: flits cross shards as live objects, so no
    context tokenization is needed (every closure stays valid).
    """

    _METHODS = {
        "begin": "begin",
        "window": "window",
        "launch": "launch_kernel",
        "launch_window": "launch_window",
        "finish": "finish",
        "snapshot": "snapshot_state",
    }

    def __init__(self, system: ShardSystem) -> None:
        self.system = system
        self._pending = None

    def start(self, verb: str, *args) -> None:
        self._pending = getattr(self.system, self._METHODS[verb])(*args)

    def collect(self):
        result = self._pending
        self._pending = None
        return result

    def close(self) -> None:
        pass
