"""Tests for the experiment runner and its cache."""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.core.config import NetCrafterConfig
from repro.experiments.cache import ResultCache
from repro.experiments.runner import (
    CheckpointOptions,
    ExperimentPoint,
    ExperimentScale,
    ObservabilityOptions,
    RunContext,
    ShardingOptions,
    clear_cache,
    reset_run_stats,
    run_many,
    run_one,
    run_pair,
    run_stats,
)
from repro.workloads.base import Scale


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    reset_run_stats()
    yield
    clear_cache()
    reset_run_stats()


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
        ctx = RunContext(sharding=ShardingOptions(n_shards=2, parallel=False))
        sharded = run_one(
            "gups", system=system, scale=Scale.tiny(), use_cache=False, ctx=ctx
        )
        assert sharded.to_dict() == single.to_dict()


class TestDiskCache:
    def test_results_persist_across_memo_clears(self, tmp_path):
        ctx = RunContext(cache_dir=str(tmp_path))
        first = run_many(_tiny_points(), ctx=ctx)
        assert len(ResultCache(tmp_path)) == 4
        clear_cache()  # drop the in-process memo, keep the disk
        reset_run_stats()
        second = run_many(_tiny_points(), ctx=ctx)
        assert run_stats.executed == 0
        assert run_stats.disk_hits == 4
        assert run_stats.disk_hit_rate() == 1.0
        assert [r.to_dict() for r in second] == [r.to_dict() for r in first]

    def test_run_one_uses_disk_cache(self, tmp_path):
        ctx = RunContext(cache_dir=str(tmp_path))
        first = run_one("gups", scale=Scale.tiny(), ctx=ctx)
        clear_cache()
        second = run_one("gups", scale=Scale.tiny(), ctx=ctx)
        assert second is not first  # deserialized copy, not the memo object
        assert second.to_dict() == first.to_dict()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        ctx = RunContext(cache_dir=str(tmp_path))
        run_one("gups", scale=Scale.tiny(), ctx=ctx)
        for path in tmp_path.rglob("*.json"):
            path.write_text("{ not json")
        clear_cache()
        reset_run_stats()
        result = run_one("gups", scale=Scale.tiny(), ctx=ctx)
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

    def _ctx(self, tmp_path, **overrides):
        return RunContext(observability=self._options(tmp_path, **overrides))

    def test_inactive_options_are_a_no_op(self):
        assert not ObservabilityOptions().active
        ctx = RunContext(observability=ObservabilityOptions())
        a = run_one("gups", scale=Scale.tiny(), ctx=ctx)
        b = run_one("gups", scale=Scale.tiny(), ctx=ctx)
        assert a is b  # caching still on
        assert a.trace_path is None

    def test_artifacts_written_and_paths_on_result(self, tmp_path):
        result = run_one("gups", scale=Scale.tiny(), ctx=self._ctx(tmp_path))
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
        ctx = replace(
            self._ctx(tmp_path, profile=False), cache_dir=str(tmp_path / "cache")
        )
        a = run_one("gups", scale=Scale.tiny(), ctx=ctx)
        b = run_one("gups", scale=Scale.tiny(), ctx=ctx)
        assert a is b  # memoized within its context: one run, one trace
        assert a.trace_path is not None
        assert run_stats.executed == 1
        # instrumented results not persisted
        assert len(ResultCache(tmp_path / "cache")) == 0

    def test_disabling_restores_caching(self, tmp_path):
        run_one("gups", scale=Scale.tiny(), ctx=self._ctx(tmp_path, profile=False))
        a = run_one("gups", scale=Scale.tiny())
        b = run_one("gups", scale=Scale.tiny())
        assert a is b
        assert a.trace_path is None

    def test_run_many_observed(self, tmp_path):
        ctx = self._ctx(tmp_path, trace=False, metrics_interval=500, profile=False)
        results = run_many(
            [
                ExperimentPoint(workload="gups", scale=Scale.tiny()),
                ExperimentPoint(workload="mt", scale=Scale.tiny()),
            ],
            ctx=ctx,
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


class TestRunContext:
    def test_inactive_options_normalize_away(self):
        ctx = RunContext(
            jobs=0,
            sharding=ShardingOptions(),
            observability=ObservabilityOptions(),
            system_overrides={"inter_topology": "ring"},
        )
        assert ctx.jobs == 1
        assert ctx.sharding is None and ctx.observability is None
        assert ctx.system_overrides == (("inter_topology", "ring"),)
        assert ctx == RunContext(system_overrides=(("inter_topology", "ring"),))

    def test_hashable_and_picklable(self, tmp_path):
        import pickle

        ctx = RunContext(
            jobs=2,
            cache_dir=str(tmp_path),
            sharding=ShardingOptions(n_shards=2),
            observability=ObservabilityOptions(trace=True),
            checkpoint=CheckpointOptions(directory=str(tmp_path)),
            system_overrides={"link_bw_overrides": (("inter", 32.0),)},
        )
        assert pickle.loads(pickle.dumps(ctx)) == ctx
        assert hash(ctx) == hash(replace(ctx))

    def test_bad_override_fails_at_construction(self):
        with pytest.raises(ValueError):
            RunContext(system_overrides={"inter_topology": "no-such-fabric"})

    def test_overrides_reshape_explicit_systems(self):
        ctx = RunContext(system_overrides={"inter_topology": "ring"})
        point = ctx.normalize(
            ExperimentPoint(workload="gups", system=SystemConfig.ideal())
        )
        assert point.system.inter_topology == "ring"
        assert point.system.inter_cluster_bw == SystemConfig.ideal().inter_cluster_bw
        assert ctx.normalize(point) == point  # idempotent

    def test_from_env(self, monkeypatch):
        for name in ("REPRO_JOBS", "REPRO_CACHE_DIR", "REPRO_SHARDS",
                     "REPRO_WINDOW", "REPRO_ADAPTIVE_WINDOW"):
            monkeypatch.delenv(name, raising=False)
        assert RunContext.from_env() == RunContext()
        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/somewhere")
        monkeypatch.setenv("REPRO_SHARDS", "2")
        monkeypatch.setenv("REPRO_ADAPTIVE_WINDOW", "yes")
        assert RunContext.from_env() == RunContext(
            jobs=3,
            cache_dir="/tmp/somewhere",
            sharding=ShardingOptions(n_shards=2, adaptive=True),
        )

    def test_library_calls_ignore_the_environment(self, monkeypatch, tmp_path):
        # unparsable on purpose: only RunContext.from_env() may read these
        monkeypatch.setenv("REPRO_SHARDS", "not-a-number")
        monkeypatch.setenv("REPRO_JOBS", "not-a-number")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        run_many([ExperimentPoint(workload="gups", scale=Scale.tiny())])
        assert not (tmp_path / "cache").exists()
        with pytest.raises(ValueError):
            RunContext.from_env()

    def test_experiment_scale_runs_under_its_context(self, tmp_path):
        exp = ExperimentScale(
            scale=Scale.tiny(),
            workloads=("gups",),
            context=RunContext(cache_dir=str(tmp_path)),
        )
        [prefetched] = exp.prefetch([(None, None)])
        assert exp.run("gups") is prefetched
        assert len(ResultCache(tmp_path)) == 1


class TestCheckpointing:
    """The runner's checkpoint/resume branch, driven through the context."""

    def _ctx(self, tmp_path, resume_from=None):
        return RunContext(
            checkpoint=CheckpointOptions(
                directory=str(tmp_path / "ckpt"), resume_from=resume_from
            )
        )

    @pytest.fixture
    def resumes(self, monkeypatch):
        """Snapshot paths ``repro.ckpt.resume`` is called with."""
        from repro import ckpt

        calls = []
        real = ckpt.resume

        def spy(path, **kwargs):
            calls.append(Path(path))
            return real(path, **kwargs)

        monkeypatch.setattr(ckpt, "resume", spy)
        return calls

    def test_run_publishes_fingerprint_named_snapshot(self, tmp_path):
        from repro.ckpt import read_header, run_fingerprint
        from repro.workloads.registry import get_workload

        run_one("gups", scale=Scale.tiny(), use_cache=False, ctx=self._ctx(tmp_path))
        point = ExperimentPoint(workload="gups", scale=Scale.tiny()).normalized()
        trace = get_workload("gups").build(
            n_gpus=point.system.n_gpus, scale=point.scale, seed=point.seed
        )
        fp = run_fingerprint(point.system, point.netcrafter, point.seed, trace)
        assert list((tmp_path / "ckpt").glob("*.ckpt")) == [
            tmp_path / "ckpt" / f"{fp}.ckpt"
        ]
        assert read_header(tmp_path / "ckpt" / f"{fp}.ckpt")["fingerprint"] == fp

    def test_resume_from_directory_is_byte_identical(self, tmp_path, resumes):
        fresh = run_one(
            "gups", scale=Scale.tiny(), use_cache=False, ctx=self._ctx(tmp_path)
        )
        [snapshot] = (tmp_path / "ckpt").glob("*.ckpt")
        resumed = run_one(
            "gups",
            scale=Scale.tiny(),
            use_cache=False,
            ctx=self._ctx(tmp_path, resume_from=str(tmp_path / "ckpt")),
        )
        assert resumes == [snapshot]
        assert resumed.to_dict() == fresh.to_dict()

    def test_point_without_snapshot_starts_fresh(self, tmp_path, resumes):
        (tmp_path / "empty").mkdir()
        fresh = run_one("gups", scale=Scale.tiny(), use_cache=False)
        result = run_one(
            "gups",
            scale=Scale.tiny(),
            use_cache=False,
            ctx=self._ctx(tmp_path, resume_from=str(tmp_path / "empty")),
        )
        assert resumes == []
        assert result.to_dict() == fresh.to_dict()
        assert len(list((tmp_path / "ckpt").glob("*.ckpt"))) == 1

    def test_another_points_snapshot_file_is_refused(self, tmp_path):
        from repro.ckpt import FingerprintMismatchError

        run_one("gups", scale=Scale.tiny(), use_cache=False, ctx=self._ctx(tmp_path))
        [snapshot] = (tmp_path / "ckpt").glob("*.ckpt")
        with pytest.raises(FingerprintMismatchError):
            run_one(
                "mt",
                scale=Scale.tiny(),
                use_cache=False,
                ctx=self._ctx(tmp_path, resume_from=str(snapshot)),
            )


SPAWN_CLIENT = """\
import json, multiprocessing, sys
from repro.experiments import runner
from repro.workloads.base import Scale

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    ctx = runner.RunContext(
        observability=runner.ObservabilityOptions(trace=True, out_dir=sys.argv[1])
    )
    points = [
        runner.ExperimentPoint(workload=w, scale=Scale.tiny()) for w in ("gups", "mt")
    ]
    results = runner.run_many(points, jobs=2, ctx=ctx)
    print(json.dumps([r.trace_path for r in results]))
"""


def test_spawned_pool_workers_receive_the_context(tmp_path):
    """Workers started with ``spawn`` inherit no module state; the trace
    request must reach them with each point."""
    import json
    import os
    import subprocess
    import sys

    (tmp_path / "client.py").write_text(SPAWN_CLIENT)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "client.py"), str(tmp_path / "obs")],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    trace_paths = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(trace_paths) == 2
    for path in trace_paths:
        assert path is not None and Path(path).exists()
