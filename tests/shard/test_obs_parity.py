"""Observability parity between the single engine and a sharded run.

Both drive modes register their instruments through the same node code
(:class:`~repro.gpu.node.NodeSlice`); shards only prefix metric names
with ``s<i>.``.  These checks keep that shared registration from
drifting: the merged sharded artifacts must describe the same run as
the single engine's.
"""

import re
from collections import Counter

import pytest

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.gpu.system import MultiGpuSystem
from repro.obs import ShardObsSpec
from repro.shard.coordinator import ShardedSystem
from repro.workloads.base import Scale
from repro.workloads.registry import get_workload

CONFIG = SystemConfig.default()
NC = NetCrafterConfig.full()
SPEC = ShardObsSpec(trace=True, metrics_interval=500, profile=True)
INTER = ("inter.wire_bytes", "inter.useful_bytes", "inter.flits", "inter.busy_cycles")
SHARD_PREFIX = re.compile(r"^s\d+\.")


@pytest.fixture(scope="module")
def runs():
    trace = get_workload("gups").build(
        n_gpus=CONFIG.n_gpus, scale=Scale.small(), seed=0
    )
    single = MultiGpuSystem(config=CONFIG, netcrafter=NC, seed=0, obs=SPEC.build())
    single.load(trace)
    single.run()
    sharded = ShardedSystem(
        config=CONFIG,
        netcrafter=NC,
        seed=0,
        n_shards=2,
        parallel=False,
        obs_spec=SPEC,
    )
    sharded.load(trace)
    sharded.run()
    return single.obs, sharded.merged_obs()


def test_merged_metric_names_match_the_single_engine(runs):
    single, merged = runs
    stripped = {SHARD_PREFIX.sub("", name) for name in merged.metrics.names()}
    assert stripped == set(single.metrics.names())
    assert all(SHARD_PREFIX.match(name) for name in merged.metrics.names())


def test_final_inter_counters_sum_to_the_single_engine(runs):
    single, merged = runs
    single_final = single.metrics.samples[-1]
    merged_final = merged.metrics.samples[-1]
    assert merged_final["cycle"] == single_final["cycle"]
    for name in INTER:
        shard_sum = sum(
            value
            for key, value in merged_final.items()
            if SHARD_PREFIX.sub("", key) == name
        )
        assert shard_sum == single_final[name], name
    assert single_final["inter.wire_bytes"] > 0


def test_trace_event_counts_match_the_single_engine(runs):
    single, merged = runs
    assert single.tracer.sample == 1 and single.tracer.dropped == 0
    single_counts = Counter(record["event"] for record in single.tracer.events())
    merged_counts = Counter(record["event"] for record in merged.tracer.events())
    assert merged_counts == single_counts
    assert single_counts["stage"] > 0
