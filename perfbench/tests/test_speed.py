"""The host-speed clock: what it charges, and that it leaves no timer behind."""

import signal
import time

import pytest

import speed


def spin(seconds: float) -> None:
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


@pytest.mark.parametrize("probe", sorted(speed.PROBES))
def test_clock_scales_cpu_seconds_by_the_sampled_speed(probe):
    previous = signal.getsignal(signal.SIGPROF)
    clock = speed.SpeedClock(probe)
    with clock:
        spin(0.2)
    assert signal.getsignal(signal.SIGPROF) is previous
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    # The handler's own time is not charged.
    assert 0.15 < clock.cpu < 0.25
    assert clock.speed > 0
    assert clock.reference == pytest.approx(clock.cpu * clock.speed)


def test_clock_adds_up_stretches():
    clock = speed.SpeedClock("interpreter")
    with clock:
        spin(0.05)
    first = clock.reference
    with clock:
        spin(0.05)
    assert clock.reference > first
    assert clock.cpu == pytest.approx(0.1, abs=0.03)


def test_clock_without_sampling_charges_cpu_seconds(monkeypatch):
    monkeypatch.setattr(speed.SpeedClock, "sampling", False)
    clock = speed.SpeedClock("planes")
    with clock:
        spin(0.05)
    assert clock.speed == 1.0
    assert clock.reference == clock.cpu
