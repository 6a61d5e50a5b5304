"""Host-speed calibration: timed work charged in reference seconds.

The benchmark was tuned on a shared 2-core host whose speed changes
several times a second: a fixed piece of work runs up to 1.8x slower
while another tenant loads the same physical core, and the share of time
spent slow drifts over minutes (no steal time shows in ``/proc/stat``, so
process CPU time moves with wall time).  Throughput measured in raw
seconds spread 15-25% between runs of the same code.

:class:`SpeedClock` measures the host's speed *while* the timed work
runs.  A ``SIGPROF`` interval timer interrupts the process every
:data:`SAMPLE_INTERVAL_S` of CPU time and the handler times a fixed
kernel, the workload's *probe* (:data:`PROBES`).  A kernel time ``k``
means the host ran at speed ``reference / k`` around that moment, and
because the samples are evenly spaced in CPU time, a stretch of ``c`` CPU
seconds is charged ``c * mean(reference / k)`` *reference seconds*: the
time it would have taken on a host where the kernel always takes its
reference time.  The time the handler itself takes is never charged.

A probe has to slow down with the host as much as the workload does, and
the workloads are slowed by different things.  On the tuning host, over
100 s of one repeated pass, the log CPU time of a pass against the log
mean speed had a slope of -0.96 for ``small_image`` with the warm
:func:`interpreter_kernel` (-1.70 with the cold :func:`plane_kernel`:
that one moves too little), and -1.17 for the memory-bound 256x256
``paper_scale`` with the cold :func:`plane_kernel` (-0.64 with the warm
interpreter kernel), where -1 is exact tracking.  Scaled by its probe, a
pass's time varied 2.1% (``small_image``, raw 11.9%) and 4.9%
(``paper_scale``, raw 14.5%).

The kernel is part of the benchmark, never of the program under test, and
the handler touches no program state, so a change to the program moves
the reference seconds exactly as it moves the raw ones.
"""

from __future__ import annotations

import hashlib
import json
import signal
import struct
import time

import numpy as np

__all__ = ["PROBES", "SAMPLE_INTERVAL_S", "SpeedClock", "interpreter_kernel", "plane_kernel"]

#: CPU seconds between two speed samples.
SAMPLE_INTERVAL_S = 0.02

_rng = np.random.default_rng(12345)
_WEST = _rng.integers(0, 256, size=(256, 256), dtype=np.uint8)
_NORTH = _rng.integers(0, 256, size=(256, 256), dtype=np.uint8)
_TARGET = _rng.integers(0, 256, size=(256, 256), dtype=np.int16)
_GENES = tuple(int(g) for g in _rng.integers(0, 16, size=64))
_WINDOWS = _rng.integers(0, 256, size=(9, 34, 34), dtype=np.uint8)
_RECORD = {
    "genes": list(range(40)),
    "fitness": [1.5 * i for i in range(20)],
    "name": "probe",
    "nested": {"a": [1, 2, 3], "b": "x" * 20},
}


def plane_kernel() -> int:
    """Interpreted loop plus numpy work on 256x256 planes (about 0.5 ms).

    Timed cold, right after the interrupted work, it pays the cache misses
    that work left behind, as the memory-bound 256x256 engine does.
    """
    table = {}
    acc = 0
    for i in range(300):
        key = (_GENES[i & 63], i & 7, acc & 15)
        table[key] = table.get(key, 0) + 1
        acc = (acc * 31 + _GENES[(i * 7) & 63]) & 0xFFFF
    west, north = _WEST, _NORTH
    for _ in range(2):
        low = np.minimum(west, north)
        high = np.maximum(west, north)
        np.subtract(high, low, out=high)
        mixed = np.bitwise_xor(west, high)
        np.right_shift(mixed, 1, out=mixed)
        np.add(mixed, np.bitwise_and(west, north), out=mixed)
        acc += int(np.abs(mixed.astype(np.int16) - _TARGET).sum())
        west, north = mixed, high
    return acc


class _Node:
    __slots__ = ("gene", "west", "north")

    def __init__(self, gene: int, west: int, north: int) -> None:
        self.gene = gene
        self.west = west
        self.north = north


def interpreter_kernel() -> int:
    """Broad interpreted work plus small numpy images (about 0.3 ms).

    JSON, hashing, objects, dict memo, sorting, formatting and 32x32
    window arithmetic: the mix of the EA bookkeeping, the stores and the
    small-image engine.  Timed warm (after one untimed run), it follows
    the interpreter's speed rather than the cache misses.
    """
    text = json.dumps(_RECORD, sort_keys=True)
    acc = len(json.loads(text)["genes"])
    acc += hashlib.sha256(text.encode("utf-8")).digest()[0]
    nodes = [_Node(i & 15, i, (i * 7) & 63) for i in range(60)]
    memo = {}
    for node in nodes:
        key = (node.gene, node.west, node.north)
        memo[key] = memo.get(key, 0) + node.gene
    acc += sum(sorted(memo.values(), key=lambda value: -value)[:5])
    acc += len(struct.pack("<60B", *[node.gene for node in nodes]))
    acc += len("".join(f"{node.gene:x}" for node in nodes))
    for window in _WINDOWS:
        high = np.maximum(window[1:-1, 1:-1], window[:-2, 1:-1])
        np.subtract(high, np.minimum(high, window[2:, 1:-1]), out=high)
        acc += int(np.abs(high.astype(np.int16) - window[1:-1, 1:-1]).sum())
    return acc


#: Speed probes: (kernel, untimed runs before the timed one, reference
#: seconds).  The reference seconds are the probe's median time inside the
#: handler during a session workload on the tuning host, so reference
#: seconds are of the order of CPU seconds there; they are constants, so
#: any two runs compare directly.
PROBES = {
    "planes": (plane_kernel, 0, 0.00056),
    "interpreter": (interpreter_kernel, 1, 0.00034),
}


class SpeedClock:
    """Charges the timed work done inside ``with clock:`` in reference seconds.

    ``probe`` names the kernel of :data:`PROBES` that samples the speed.

    ``cpu`` and ``wall`` keep the raw seconds of the same work (handler
    time excluded) and ``speed`` the mean host speed of the last stretch
    (1.0 = the reference host).  Not reentrant; one clock at a time.

    With ``sampling`` off (the traced run, whose spans must not contain
    handler time) nothing interrupts the work and a reference second is a
    CPU second.
    """

    sampling = True

    def __init__(self, probe: str) -> None:
        self._kernel, self._warmups, self._reference_s = PROBES[probe]
        self.cpu = 0.0
        self.wall = 0.0
        self.reference = 0.0
        self.speed = 1.0

    def _sample(self, *_ignored) -> None:
        # Wall time: while a process CPU timer is armed, the process CPU
        # clock only advances at scheduler ticks, too coarse for 0.5 ms.
        start = time.perf_counter()
        for _ in range(self._warmups):
            self._kernel()
        timed = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self._speed_sum += self._reference_s / (end - timed)
        self._samples += 1
        self._spent += end - start

    def __enter__(self) -> "SpeedClock":
        self._speed_sum = 0.0
        self._samples = 0
        self._spent = 0.0
        if self.sampling:
            self._previous = signal.signal(signal.SIGPROF, self._sample)
        self._cpu = time.process_time()
        self._wall = time.perf_counter()
        if self.sampling:
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.sampling:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        cpu = time.process_time() - self._cpu - self._spent
        wall = time.perf_counter() - self._wall - self._spent
        if not self.sampling:
            self.speed = 1.0
        else:
            signal.signal(signal.SIGPROF, self._previous)
            if not self._samples:
                # Shorter than one interval: sample right after it instead.
                self._sample()
            self.speed = self._speed_sum / self._samples
        self.cpu += cpu
        self.wall += wall
        self.reference += cpu * self.speed
