"""A wrong committed digest must fail every point it covers."""

from report import Report
from simdrive import Point, drive, point_digest, run_table3_mesh

from repro.config import SystemConfig
from repro.workloads.base import Scale

POINTS = [Point("gups", "baseline", 0), Point("gups", "full", 0)]


def _run(expected):
    report = Report("table3_mesh", 0, {})
    run_table3_mesh(report, 0, 0.0, False, expected=expected, points=POINTS,
                    scale=Scale.tiny())
    return report


def test_matching_digests_pass():
    expected = {
        p.key: point_digest(drive(p, SystemConfig.default(), Scale.tiny()).result)
        for p in POINTS
    }
    report = _run(expected)
    assert report.error_rate == 0.0 and report.correct
    assert report.metrics["sim_cycles_per_s"].value > 0


def test_wrong_digests_fail_every_point():
    report = _run({p.key: "0" * 64 for p in POINTS})
    assert report.attempted == len(POINTS)
    assert report.error_rate == 1.0
    assert not report.correct


def test_missing_digest_fails_the_point():
    report = _run({})
    assert report.error_rate == 1.0
