"""Worker teardown: graceful exit first, escalation only as a fallback.

Regression guard for the shutdown path: ``RemoteShard.close()`` used to
``terminate()`` workers outright, so every parallel run ended with its
workers SIGTERM-killed (nonzero exit codes) and any worker blocked
mid-reply could be cut down with its pipe half-written.  The fixed path
sends ``("exit",)``, drains stale replies so a blocked worker can
finish writing, joins within a grace period, and only then escalates.

The observable contract tested here: after a completed (traced) run,
every worker process exited *by itself* with code 0, and the merged
trace carries exactly the events of the single-engine reference run.
"""

from collections import Counter

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.shard import worker as worker_mod
from repro.shard.coordinator import ShardedSystem
from repro.obs import ShardObsSpec
from repro.workloads.base import Scale
from repro.workloads.registry import get_workload

CONFIG = SystemConfig.default().with_overrides(n_clusters=4, inter_link_latency=8)
NC = NetCrafterConfig.full()


def _trace():
    return get_workload("gups").build(
        n_gpus=CONFIG.n_gpus, scale=Scale.tiny(), seed=0
    )


def _event_signature(records):
    """Order-insensitive trace identity: each record as a sorted tuple."""
    return Counter(tuple(sorted(r.items())) for r in records)


def test_teardown_after_completed_run_is_graceful_and_lossless(monkeypatch):
    spawned = []
    original_init = worker_mod.RemoteShard.__init__

    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        spawned.append(self)

    monkeypatch.setattr(worker_mod.RemoteShard, "__init__", recording_init)

    node = ShardedSystem(
        config=CONFIG,
        netcrafter=NC,
        seed=0,
        n_shards=2,
        parallel=True,
        obs_spec=ShardObsSpec(trace=True),
    )
    node.load(_trace())
    node.run()

    assert len(spawned) == 2
    for handle in spawned:
        handle._process.join(timeout=10)
        # exitcode 0 == the worker left its verb loop on ("exit",);
        # a negative code would mean close() had to SIGTERM/SIGKILL it
        assert handle._process.exitcode == 0

    # the sequential drive mode runs the identical shard semantics with
    # no worker processes, hence no teardown to lose events to — its
    # merged trace is the lossless reference, record for record
    reference = ShardedSystem(
        config=CONFIG,
        netcrafter=NC,
        seed=0,
        n_shards=2,
        parallel=False,
        obs_spec=ShardObsSpec(trace=True),
    )
    reference.load(_trace())
    reference.run()

    merged = node.merged_obs().tracer
    assert merged.dropped == 0
    assert _event_signature(merged.events()) == _event_signature(
        reference.merged_obs().tracer.events()
    )


def test_close_is_idempotent_and_safe_after_worker_death():
    """Closing a handle whose worker is already gone must not raise."""
    shard = worker_mod.RemoteShard(
        CONFIG,
        NC,
        0,
        0,
        1,
        ShardObsSpec(),
        _trace(),
    )
    shard.start("begin")
    shard.collect()
    shard.close()
    assert shard._process.exitcode == 0
    # second close: the pipe is gone, the process reaped
    shard.close()
