"""Bit-identity of the sharded simulator against the single engine.

The tentpole guarantee: for any window size in ``1..W`` (W = the
inter-cluster link latency) and any shard count dividing the cluster
count, sequential-windowed and process-parallel runs reproduce the
single-engine results byte-for-byte.  The digest used here is the same
one the benchmark suite and CI gates track.
"""

import pytest

from repro.bench.smoke import results_digest
from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.gpu.node import build_node
from repro.gpu.system import MultiGpuSystem
from repro.shard.coordinator import ShardedSystem
from repro.workloads.base import Scale
from repro.workloads.registry import get_workload

#: 4 clusters x 2 GPUs, lookahead W = 8
CONFIG = SystemConfig.default().with_overrides(n_clusters=4, inter_link_latency=8)
WINDOW = CONFIG.effective_inter_link_latency


def _run(workload: str, node) -> str:
    trace = get_workload(workload).build(
        n_gpus=CONFIG.n_gpus, scale=Scale.tiny(), seed=0
    )
    node.load(trace)
    return results_digest([node.run().to_dict()])


def _single_digest(workload: str = "gups") -> str:
    return _run(
        workload,
        MultiGpuSystem(config=CONFIG, netcrafter=NetCrafterConfig.full(), seed=0),
    )


def _sharded_digest(workload: str = "gups", **kwargs) -> str:
    return _run(
        workload,
        ShardedSystem(
            config=CONFIG, netcrafter=NetCrafterConfig.full(), seed=0, **kwargs
        ),
    )


class TestSequentialWindowed:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_shard_counts_reproduce_the_single_engine(self, n_shards):
        assert _sharded_digest(n_shards=n_shards) == _single_digest()

    @pytest.mark.parametrize("window", [1, WINDOW // 2, WINDOW])
    def test_window_sizes_reproduce_the_single_engine(self, window):
        assert _sharded_digest(n_shards=2, window=window) == _single_digest()

    @pytest.mark.parametrize("workload", ["mt", "mis"])
    def test_other_workloads_reproduce_the_single_engine(self, workload):
        assert _sharded_digest(workload, n_shards=4) == _single_digest(workload)

    def test_baseline_variant_reproduces_the_single_engine(self):
        single = _run(
            "gups",
            MultiGpuSystem(
                config=CONFIG, netcrafter=NetCrafterConfig.baseline(), seed=0
            ),
        )
        sharded = _run(
            "gups",
            ShardedSystem(
                config=CONFIG,
                netcrafter=NetCrafterConfig.baseline(),
                seed=0,
                n_shards=2,
            ),
        )
        assert sharded == single


class TestProcessParallel:
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_worker_processes_reproduce_the_single_engine(self, n_shards):
        assert (
            _sharded_digest(n_shards=n_shards, parallel=True) == _single_digest()
        )

    def test_parallel_matches_sequential_at_narrow_window(self):
        assert _sharded_digest(
            n_shards=2, window=1, parallel=True
        ) == _sharded_digest(n_shards=2, window=1)


class TestBuildNode:
    @pytest.mark.parametrize(
        "request_kwargs, front_end",
        [
            ({"n_shards": 1}, MultiGpuSystem),
            ({"n_shards": 2}, ShardedSystem),
            ({"window": 4}, ShardedSystem),
            ({"adaptive": True}, ShardedSystem),
        ],
        ids=["single", "shards", "window", "adaptive"],
    )
    def test_builds_the_requested_front_end(self, request_kwargs, front_end):
        node = build_node(CONFIG, NetCrafterConfig.full(), 0, **request_kwargs)
        assert type(node) is front_end
        assert _run("gups", node) == _single_digest()


class TestValidation:
    def test_shards_must_divide_clusters(self):
        with pytest.raises(ValueError):
            ShardedSystem(config=CONFIG, n_shards=3)

    @pytest.mark.parametrize(
        "config, n_shards",
        [(CONFIG, 3), (CONFIG.with_overrides(coherence="hardware"), 2)],
        ids=["indivisible", "hardware-coherence"],
    )
    def test_unshardable_requests_raise(self, config, n_shards):
        assert not ShardedSystem.supports(config, n_shards)
        with pytest.raises(ValueError):
            ShardedSystem(config=config, n_shards=n_shards)
        # an explicit request never falls back to the single engine
        with pytest.raises(ValueError):
            build_node(config, NetCrafterConfig.full(), 0, n_shards=n_shards)

    @pytest.mark.parametrize("window", [0, WINDOW + 1])
    def test_window_must_respect_the_lookahead_bound(self, window):
        with pytest.raises(ValueError):
            ShardedSystem(config=CONFIG, n_shards=2, window=window)
