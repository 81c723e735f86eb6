"""Tests for the experiment runner and its cache."""

import pytest

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.experiments.runner import (
    ExperimentPoint,
    ExperimentScale,
    ObservabilityOptions,
    ShardingOptions,
    clear_cache,
    disk_cache,
    reset_run_stats,
    run_many,
    run_one,
    run_pair,
    run_stats,
    set_cache_dir,
    set_observability,
    set_sharding,
    sharding_options,
)
from repro.workloads.base import Scale


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    reset_run_stats()
    set_cache_dir(None)
    set_observability(None)
    yield
    clear_cache()
    reset_run_stats()
    set_cache_dir(None)
    set_observability(None)


def test_run_one_returns_result():
    result = run_one("gups", scale=Scale.tiny())
    assert result.cycles > 0
    assert result.workload == "gups"


def test_cache_returns_same_object():
    a = run_one("gups", scale=Scale.tiny())
    b = run_one("gups", scale=Scale.tiny())
    assert a is b


def test_cache_distinguishes_configs():
    a = run_one("gups", scale=Scale.tiny())
    b = run_one("gups", netcrafter=NetCrafterConfig.full(), scale=Scale.tiny())
    assert a is not b


def test_cache_bypass():
    a = run_one("gups", scale=Scale.tiny(), use_cache=False)
    b = run_one("gups", scale=Scale.tiny(), use_cache=False)
    assert a is not b
    assert a.cycles == b.cycles  # still deterministic


def test_run_pair():
    base, out = run_pair("gups", NetCrafterConfig.full(), scale=Scale.tiny())
    assert base.config_label == "baseline"
    assert out.config_label != "baseline"


def _tiny_points():
    return [
        ExperimentPoint(workload="gups", scale=Scale.tiny()),
        ExperimentPoint(
            workload="gups", netcrafter=NetCrafterConfig.full(), scale=Scale.tiny()
        ),
        ExperimentPoint(workload="mt", scale=Scale.tiny()),
        ExperimentPoint(
            workload="mt", netcrafter=NetCrafterConfig.full(), scale=Scale.tiny()
        ),
    ]


class TestExperimentPoint:
    def test_normalized_fills_defaults(self):
        point = ExperimentPoint(workload="gups").normalized()
        assert point.system == SystemConfig.default()
        assert point.netcrafter == NetCrafterConfig.baseline()
        assert point.scale == Scale.small()

    def test_key_matches_run_one_memoization(self):
        result = run_one("gups", scale=Scale.tiny())
        points = [
            ExperimentPoint(workload="gups", scale=Scale.tiny()),
            ExperimentPoint(workload="gups", scale=Scale.tiny()),
        ]
        many = run_many(points)
        assert many[0] is result  # memo hit, same object
        assert many[1] is result  # duplicate within the batch


class TestRunMany:
    def test_order_preserved_and_complete(self):
        points = _tiny_points()
        results = run_many(points)
        assert len(results) == len(points)
        for point, result in zip(points, results):
            assert result.workload == point.workload

    def test_parallel_matches_serial(self):
        serial = [
            run_one(
                p.workload,
                system=p.system,
                netcrafter=p.netcrafter,
                scale=p.scale,
                seed=p.seed,
                use_cache=False,
            )
            for p in _tiny_points()
        ]
        clear_cache()
        parallel = run_many(_tiny_points(), jobs=2)
        assert [r.to_dict() for r in parallel] == [r.to_dict() for r in serial]

    def test_stats_track_hits_and_executions(self):
        run_many(_tiny_points())
        assert run_stats.executed == 4
        run_many(_tiny_points())
        assert run_stats.executed == 4
        assert run_stats.memory_hits == 4
        assert run_stats.batches == 2
        assert len(run_stats.timings) == 4


class TestShardingFallback:
    def test_hardware_coherence_point_runs_on_the_single_engine(self):
        """Sharding cannot serve hardware coherence; the point falls back
        to the single engine instead of failing the sweep."""
        system = SystemConfig.default().with_overrides(coherence="hardware")
        single = run_one("gups", system=system, scale=Scale.tiny(), use_cache=False)
        previous = sharding_options()
        set_sharding(ShardingOptions(n_shards=2, parallel=False))
        try:
            sharded = run_one(
                "gups", system=system, scale=Scale.tiny(), use_cache=False
            )
        finally:
            set_sharding(previous)
        assert sharded.to_dict() == single.to_dict()


class TestDiskCache:
    def test_results_persist_across_memo_clears(self, tmp_path):
        set_cache_dir(str(tmp_path))
        first = run_many(_tiny_points())
        assert len(disk_cache()) == 4
        clear_cache()  # drop the in-process memo, keep the disk
        reset_run_stats()
        second = run_many(_tiny_points())
        assert run_stats.executed == 0
        assert run_stats.disk_hits == 4
        assert run_stats.disk_hit_rate() == 1.0
        assert [r.to_dict() for r in second] == [r.to_dict() for r in first]

    def test_run_one_uses_disk_cache(self, tmp_path):
        set_cache_dir(str(tmp_path))
        first = run_one("gups", scale=Scale.tiny())
        clear_cache()
        second = run_one("gups", scale=Scale.tiny())
        assert second is not first  # deserialized copy, not the memo object
        assert second.to_dict() == first.to_dict()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        set_cache_dir(str(tmp_path))
        run_one("gups", scale=Scale.tiny())
        for path in tmp_path.rglob("*.json"):
            path.write_text("{ not json")
        clear_cache()
        reset_run_stats()
        result = run_one("gups", scale=Scale.tiny())
        assert result.cycles > 0
        assert run_stats.disk_hits == 0
        assert run_stats.executed == 1


class TestObservability:
    def _options(self, tmp_path, **overrides):
        defaults = dict(
            trace=True,
            metrics_interval=500,
            profile=True,
            out_dir=str(tmp_path / "obs"),
        )
        defaults.update(overrides)
        return ObservabilityOptions(**defaults)

    def test_inactive_options_are_a_no_op(self):
        assert not ObservabilityOptions().active
        set_observability(ObservabilityOptions())
        a = run_one("gups", scale=Scale.tiny())
        b = run_one("gups", scale=Scale.tiny())
        assert a is b  # caching still on
        assert a.trace_path is None

    def test_artifacts_written_and_paths_on_result(self, tmp_path):
        set_observability(self._options(tmp_path))
        result = run_one("gups", scale=Scale.tiny())
        import json

        from repro.obs import validate_jsonl

        for attr in ("trace_path", "trace_chrome_path", "metrics_path", "profile_path"):
            path = getattr(result, attr)
            assert path is not None and (tmp_path / "obs").exists()
        assert validate_jsonl(result.trace_path) == []
        assert json.loads(
            open(result.trace_chrome_path).read()
        )["traceEvents"]
        assert json.loads(open(result.profile_path).read())["events"] > 0
        metrics_lines = open(result.metrics_path).read().splitlines()
        assert len(metrics_lines) >= 2  # meta header + samples

    def test_observed_runs_bypass_caches(self, tmp_path):
        set_cache_dir(str(tmp_path / "cache"))
        set_observability(self._options(tmp_path, profile=False))
        a = run_one("gups", scale=Scale.tiny())
        b = run_one("gups", scale=Scale.tiny())
        assert a is not b  # memo bypassed: each run has its own trace
        assert run_stats.executed == 2
        assert len(disk_cache()) == 0  # instrumented results not persisted

    def test_disabling_restores_caching(self, tmp_path):
        set_observability(self._options(tmp_path, profile=False))
        run_one("gups", scale=Scale.tiny())
        set_observability(None)
        a = run_one("gups", scale=Scale.tiny())
        b = run_one("gups", scale=Scale.tiny())
        assert a is b
        assert a.trace_path is None

    def test_run_many_observed(self, tmp_path):
        set_observability(
            self._options(tmp_path, trace=False, metrics_interval=500, profile=False)
        )
        results = run_many(
            [
                ExperimentPoint(workload="gups", scale=Scale.tiny()),
                ExperimentPoint(workload="mt", scale=Scale.tiny()),
            ]
        )
        assert all(r.metrics_path is not None for r in results)
        assert all(r.trace_path is None for r in results)
        stems = {r.metrics_path for r in results}
        assert len(stems) == 2  # per-point artifact files


class TestExperimentScale:
    def test_quick_subset(self):
        exp = ExperimentScale.quick()
        assert "gups" in exp.workload_names()
        assert len(exp.workload_names()) < 15

    def test_standard_covers_all(self):
        assert len(ExperimentScale.standard().workload_names()) == 15

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "quick")
        quick = ExperimentScale.from_env()
        assert quick.scale == Scale.small()
        assert len(quick.workload_names()) < 15
        monkeypatch.setenv("REPRO_SCALE", "standard")
        assert ExperimentScale.from_env().scale == Scale.small()
        monkeypatch.setenv("REPRO_SCALE", "full")
        assert ExperimentScale.from_env().scale == Scale.default()
        monkeypatch.delenv("REPRO_SCALE")
        assert ExperimentScale.from_env().scale == Scale.small()
