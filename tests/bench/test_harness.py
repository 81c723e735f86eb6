"""Tests for the benchmark harness: measurement, reports, comparison."""

import pytest

from repro.bench.harness import (
    BenchRecord,
    BenchReport,
    compare_reports,
    comparison_lines,
    measure,
    run_benchmarks,
)
from repro.bench.schema import BENCH_SCHEMA_VERSION, validate_report


def _counting_bench(calls, work_units=100):
    def fn():
        calls.append(1)
        return work_units, {"detail": 7}

    return fn


class TestMeasure:
    def test_record_fields(self):
        calls = []
        rec = measure("x", "micro", _counting_bench(calls))
        assert rec.name == "x"
        assert rec.kind == "micro"
        assert rec.work_units == 100
        assert rec.extra["detail"] == 7
        assert rec.extra["repeats"] == 1
        assert rec.wall_seconds >= 0
        assert rec.peak_rss_kb > 0
        assert len(calls) == 1

    def test_repeats_rerun_the_callable(self):
        calls = []
        rec = measure("x", "micro", _counting_bench(calls), repeats=4)
        assert len(calls) == 4
        assert rec.extra["repeats"] == 4

    def test_injected_clock_times_each_repeat(self):
        # readings (start, end) per repeat: walls 3.0, 1.0, 2.0
        readings = iter([0.0, 3.0, 10.0, 11.0, 20.0, 22.0])
        extras = iter([{"run": 0}, {"run": 1}, {"run": 2}])

        def fn():
            return 100, next(extras)

        rec = measure("x", "micro", fn, repeats=3, clock=readings.__next__)
        assert rec.wall_seconds == 1.0
        assert rec.rate == 100.0
        # the extras come from the fastest repeat
        assert rec.extra["run"] == 1

    def test_non_positive_repeats_rejected(self):
        with pytest.raises(ValueError):
            measure("x", "micro", _counting_bench([]), repeats=0)

    def test_rate(self):
        assert BenchRecord("x", "micro", 100, 2.0, 1).rate == 50.0
        assert BenchRecord("x", "micro", 100, 0.0, 1).rate == 0.0


class TestReport:
    def test_to_dict_is_schema_valid(self):
        report = BenchReport(
            records=[measure("x", "micro", _counting_bench([]))], quick=True
        )
        doc = report.to_dict()
        assert doc["schema"] == BENCH_SCHEMA_VERSION
        validate_report(doc)

    def test_record_lookup_by_name(self):
        rec = measure("x", "micro", _counting_bench([]))
        report = BenchReport(records=[rec], quick=False)
        assert report.record("x") is rec
        assert report.record("missing") is None

    def test_unknown_only_name_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            run_benchmarks(only=["not_a_benchmark"])


def _doc(rates, quick=False, digest="a" * 64, points=8):
    """A minimal schema-valid report with the given name->rate mapping."""
    rows = []
    for name, rate in rates.items():
        row = {
            "name": name,
            "kind": "e2e" if name == "smoke_sweep" else "micro",
            "work_units": 1000,
            "wall_seconds": 1000 / rate,
            "units_per_second": rate,
            "peak_rss_kb": 1,
        }
        if name == "smoke_sweep":
            row["results_digest"] = digest
            row["points"] = points
        rows.append(row)
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "python": "3.11.0",
        "platform": "test",
        "quick": quick,
        "benchmarks": rows,
    }


class TestCompareReports:
    def test_speedup_computed_per_benchmark(self):
        cmp = compare_reports(_doc({"a": 200.0}), _doc({"a": 100.0}))
        (row,) = cmp["benchmarks"]
        assert row["name"] == "a"
        assert row["speedup"] == pytest.approx(2.0)
        assert cmp["regressions"] == []

    def test_regression_past_threshold_flagged(self):
        cmp = compare_reports(_doc({"a": 40.0}), _doc({"a": 100.0}))
        assert cmp["regressions"] == ["a"]  # 2.5x slower > default 1.3x

    def test_slower_within_threshold_not_flagged(self):
        cmp = compare_reports(_doc({"a": 80.0}), _doc({"a": 100.0}))
        assert cmp["regressions"] == []  # 1.25x slower, under the 1.3x gate

    def test_custom_threshold(self):
        cmp = compare_reports(
            _doc({"a": 80.0}), _doc({"a": 100.0}), fail_threshold=1.2
        )
        assert cmp["regressions"] == ["a"]

    def test_baseline_row_threshold_overrides_the_default(self):
        base = _doc({"a": 100.0})
        base["benchmarks"][0]["fail_threshold"] = 2.0
        # 1.67x slower: past the 1.3x default, within the row's 2x pin
        cmp = compare_reports(_doc({"a": 60.0}), base)
        assert cmp["regressions"] == []
        (row,) = cmp["benchmarks"]
        assert row["fail_threshold"] == 2.0

    def test_row_threshold_only_shields_its_own_benchmark(self):
        base = _doc({"a": 100.0, "b": 100.0})
        base["benchmarks"][0]["fail_threshold"] = 2.0
        cmp = compare_reports(_doc({"a": 60.0, "b": 60.0}), base)
        assert cmp["regressions"] == ["b"]

    def test_benchmark_missing_from_baseline_ignored(self):
        cmp = compare_reports(_doc({"a": 100.0, "b": 1.0}), _doc({"a": 100.0}))
        assert [row["name"] for row in cmp["benchmarks"]] == ["a"]
        assert cmp["regressions"] == []

    def test_digest_match_detected(self):
        cur = _doc({"smoke_sweep": 100.0}, digest="a" * 64)
        assert compare_reports(cur, _doc({"smoke_sweep": 90.0}, digest="a" * 64))[
            "digest_match"
        ]
        assert (
            compare_reports(cur, _doc({"smoke_sweep": 90.0}, digest="b" * 64))[
                "digest_match"
            ]
            is False
        )

    def test_digest_not_compared_across_different_grids(self):
        cur = _doc({"smoke_sweep": 100.0}, digest="a" * 64, points=8)
        base = _doc({"smoke_sweep": 100.0}, digest="b" * 64, points=4)
        assert compare_reports(cur, base)["digest_match"] is None

    def test_digest_not_compared_across_quick_mismatch(self):
        cur = _doc({"smoke_sweep": 100.0}, digest="a" * 64, quick=True)
        base = _doc({"smoke_sweep": 100.0}, digest="b" * 64, quick=False)
        assert compare_reports(cur, base)["digest_match"] is None

    def test_rendering_mentions_regressions_and_digest(self):
        cmp = compare_reports(
            _doc({"smoke_sweep": 40.0}, digest="a" * 64),
            _doc({"smoke_sweep": 100.0}, digest="b" * 64),
        )
        text = "\n".join(comparison_lines(cmp))
        assert "REGRESSIONS" in text
        assert "smoke_sweep" in text
        assert "DIGEST MISMATCH" in text


class TestEgressPipelineMicro:
    def test_absorbs_and_conserves_flits(self):
        from repro.bench.micro import bench_egress_pipeline

        flits, extra = bench_egress_pipeline(quick=True)
        # the micro asserts conservation itself; it must also stitch
        assert flits > 0
        assert 0 < extra["flits_absorbed"] < flits
        assert bench_egress_pipeline(quick=True) == (flits, extra)

    def test_in_the_default_suite(self):
        from repro.bench.harness import default_suite

        assert "egress_pipeline" in {name for name, _, _ in default_suite(True)}
