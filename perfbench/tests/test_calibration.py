import pytest

from calibration import (ELASTICITY, Calibrator, ParallelReference, ReferenceLoop, calibrate,
                         stolen_seconds)


def test_calibrate_rescales_to_the_nominal_host():
    # with full elasticity a host twice as slow halves every wall time
    assert calibrate(4.0, reference_s=0.02, nominal_s=0.01, elasticity=1.0) == pytest.approx(2.0)
    assert calibrate(4.0, reference_s=0.01, nominal_s=0.01) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        calibrate(1.0, reference_s=0.0)


def test_calibrate_follows_the_loop_by_the_elasticity():
    # a loop four times slower means a simulator 4 ** 0.5 times slower
    assert calibrate(4.0, reference_s=0.04, nominal_s=0.01, elasticity=0.5) == pytest.approx(2.0)
    assert calibrate(4.0, reference_s=0.04, nominal_s=0.01, elasticity=0.0) == pytest.approx(4.0)
    assert calibrate(1.0, reference_s=0.02, nominal_s=0.01) == pytest.approx(0.5 ** ELASTICITY)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _calibrator(refs, **kwargs):
    clock = FakeClock()
    refs = iter(refs)
    # full elasticity, so the arithmetic below shows the windowing alone
    return Calibrator(nominal_s=0.01, timer=lambda: next(refs), clock=clock, elasticity=1.0,
                      steal=lambda: 0.0, **kwargs), clock


def test_units_are_calibrated_by_the_median_of_the_samples_around_them():
    # one sample per second; the host runs at half the nominal speed
    # for the first three seconds and at nominal speed afterwards
    cal, clock = _calibrator([0.02, 0.02, 0.05, 0.02, 0.01, 0.01, 0.01],
                             window_s=1.0, min_samples=3)
    for second in range(6):
        clock.now = float(second)
        cal.checkpoint()
        clock.now = second + 0.5
        cal.add("point", 0.5)
    clock.now = 6.0
    cal.close()
    assert cal.raw("point") == [0.5] * 6
    # the first unit sees [0.02, 0.02, 0.05]: the preempted 0.05 sample
    # does not move the median; the last units see the faster host
    assert cal.calibrated("point") == pytest.approx([0.25, 0.25, 0.25, 0.25, 0.5, 0.5])
    assert cal.kinds() == ["point"]


def test_sparse_samples_fall_back_to_the_nearest_ones():
    cal, clock = _calibrator([0.01, 0.03, 0.02, 0.04], window_s=0.0, min_samples=3)
    for at in (0.0, 10.0, 20.0):
        clock.now = at
        cal.checkpoint()
    clock.now = 25.0
    cal.add("point", 1.0)  # ran over [24, 25]
    clock.now = 30.0
    cal.close()
    # nearest three samples: t=20 (0.02), t=30 (0.04), t=10 (0.03)
    assert cal.calibrated("point") == pytest.approx([1.0 * 0.01 / 0.03])


def test_work_before_the_first_reference_is_an_error():
    cal = Calibrator(timer=lambda: 0.01, steal=lambda: 0.0)
    with pytest.raises(RuntimeError):
        cal.add("point", 1.0)


def test_calibration_waits_for_the_closing_sample():
    cal = Calibrator(timer=lambda: 0.01, min_samples=1, steal=lambda: 0.0)
    cal.checkpoint()
    cal.add("point", 1.0)
    with pytest.raises(RuntimeError):
        cal.calibrated("point")
    cal.close()
    assert cal.calibrated("point") == pytest.approx([calibrate(1.0, 0.01)])


def test_reference_loop_is_deterministic():
    assert ReferenceLoop(500).run() == ReferenceLoop(500).run()
    assert ReferenceLoop(500).time(repeats=1) > 0


def test_a_pass_is_calibrated_over_its_whole_span():
    # a pass whose counted wall (1 s) is only part of its 4 s span
    cal, clock = _calibrator([0.01, 0.02, 0.02, 0.02, 0.04], window_s=0.0, min_samples=1)
    for at in (0.0, 1.0, 2.0, 3.0):
        clock.now = at
        cal.checkpoint()
    clock.now = 4.0
    cal.add("pass", 1.0, since=0.5)
    cal.add("tail", 1.0)  # ran over [3, 4]
    clock.now = 10.0
    cal.close()
    # the pass sees the samples at t=1, 2, 3; the tail only t=3
    assert cal.calibrated("pass") == pytest.approx([0.5])
    assert cal.calibrated("tail") == pytest.approx([0.5])


def test_parallel_reference_times_the_loop_and_stops_its_helpers():
    reference = ParallelReference(2, iterations=500)
    try:
        assert reference.time(repeats=1) > 0
        assert all(proc.is_alive() for proc in reference._procs)
    finally:
        reference.close()
    assert not any(proc.is_alive() for proc in reference._procs)


def test_stolen_cpu_time_is_taken_off_each_unit_per_busy_process():
    clock = FakeClock()
    stolen = {"s": 0.0}
    cal = Calibrator(nominal_s=0.01, timer=lambda: 0.01, clock=clock, elasticity=1.0,
                     min_samples=1, busy=2, steal=lambda: stolen["s"])
    cal.checkpoint()
    clock.now, stolen["s"] = 1.0, 0.4  # 0.4 CPU-s taken from 2 busy processes
    cal.add("point", 1.0)
    cal.checkpoint()
    clock.now, stolen["s"] = 3.0, 0.4
    cal.add("quiet", 1.0)  # ran over [2, 3], nothing stolen
    clock.now, stolen["s"] = 4.0, 0.6
    cal.add("pass", 1.0, since=0.0)  # 1 s of work over a 4 s span
    cal.close()
    assert cal.calibrated("point") == pytest.approx([0.8])
    assert cal.calibrated("quiet") == pytest.approx([1.0])
    assert cal.calibrated("pass") == pytest.approx([1.0 - 0.6 / 2 * 1.0 / 4.0])
    assert cal.stolen(0.0, 0.5) == pytest.approx(0.2)  # interpolated


def test_stolen_seconds_reads_the_kernel_count():
    assert stolen_seconds() >= 0.0
