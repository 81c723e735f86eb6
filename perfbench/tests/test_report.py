import json
from pathlib import Path

import pytest

from report import Report, check_name, check_unit, geomean, percentile

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


@pytest.mark.parametrize(
    "name", ["setup_s", "sim.dispatch_s", "network.remote_read_latency_inter_p99", "a", "9x-y"]
)
def test_valid_names(name):
    assert check_name(name) == name


@pytest.mark.parametrize(
    "name", ["", "_lead", ".lead", "has space", "slash/name", "x" * 65, "ünïcode", "a:b"]
)
def test_invalid_names(name):
    with pytest.raises(ValueError):
        check_name(name)


@pytest.mark.parametrize("unit", ["", "has space", "x" * 17, "s^2"])
def test_invalid_units(unit):
    with pytest.raises(ValueError):
        check_unit(unit)


def test_declared_metrics_are_well_formed_and_unique():
    names = []
    for section in ("end_to_end", "per_layer"):
        for metric in SPEC[section]:
            check_name(metric["name"])
            check_unit(metric["unit"])
            names.append(metric["name"])
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_percentile_interpolates():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([1.0, 2.0], 50) == 1.5
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0], 90) == pytest.approx(4.6)
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_geomean():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


def test_error_rate_counts_failed_operations():
    report = Report("w", 0, {})
    assert report.error_rate == 1.0 and not report.correct  # nothing attempted
    report.operation([], "ok")
    report.operation(["digest mismatch"], "bad")
    assert (report.attempted, report.failed) == (2, 1)
    assert report.error_rate == 0.5
    assert not report.correct
    assert report.failures == ["bad: digest mismatch"]


def test_result_line_has_exactly_the_contract_keys():
    report = Report("w", 0, {})
    report.operation([], "ok")
    report.set("setup_s", 0.25, "s", raw=0.3, samples=3)
    line = json.loads(report.result_line(["setup_s"]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"] == {"setup_s": {"value": 0.25, "unit": "s"}}
    assert line["correct"] is True


def test_non_finite_metric_is_refused():
    with pytest.raises(ValueError):
        Report("w", 0, {}).set("x", float("nan"), "s")
