"""Times at a reference machine speed.

The speed of a shared machine swings by up to 1.7x, in stretches of a
second to tens of seconds, and a 30-second run takes in whatever stretch it
falls on.  ``Clock`` measures the speed as the run goes: a SIGALRM timer
interrupts the program every ``PERIOD`` seconds, between two bytecodes, and
times one fixed piece of the benchmark's own work (exact crossing counts of
``oracle`` on fixed ``Fraction`` segments, the same kind of work as the
program's).  ``ref_seconds`` scales the program's time between two such
calibrations by ``REF`` over the calibration's time around it, and leaves
the calibrations out.  A reference second is the time in which the
calibration runs ``1 / REF`` times.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction

import oracle

PERIOD = 0.1  # seconds between calibrations
REF = 0.002  # seconds one calibration takes at the reference speed
WINDOW = 3  # calibrations on each side of a stretch whose median sets its speed
WARMUP = 20  # untimed calibrations first, so that the interpreter has
# specialised their bytecode before the first one that counts


def _calibration_input():
    rng = random.Random(0)
    ring = [(Fraction(rng.randrange(1000), 7), Fraction(rng.randrange(1000), 7)) for _ in range(20)]
    es = oracle.edges([ring])
    pts = [(Fraction(rng.randrange(1000), 13), Fraction(rng.randrange(1000), 11)) for _ in range(5)]
    return es, list(zip(pts, pts[1:]))


class Clock:
    def __init__(self):
        self.marks: list[tuple[float, float]] = []  # (start, end) of each calibration
        self._es, self._segments = _calibration_input()
        self._speed: list[float] = []  # REF / calibration time, per stretch

    def _calibrate(self, *_):
        t0 = time.perf_counter()
        for p, q in self._segments:
            try:
                oracle.crossings(p, q, self._es)
            except oracle.Degenerate:
                pass
        self.marks.append((t0, time.perf_counter()))

    def start(self) -> None:
        for _ in range(WARMUP):
            self._calibrate()
        self.marks.clear()
        signal.signal(signal.SIGALRM, self._calibrate)
        self._calibrate()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._calibrate()
        took = [b - a for a, b in self.marks]
        # Stretch j runs from the end of calibration j to the start of j+1.
        self._speed = [
            REF / statistics.median(took[max(0, j - WINDOW + 1):j + WINDOW + 1])
            for j in range(len(self.marks) - 1)
        ]

    def ref_seconds(self, a: float, b: float) -> float:
        """Program time in [a, b] (perf_counter), at the reference speed."""
        total = 0.0
        for j, speed in enumerate(self._speed):
            lo, hi = max(a, self.marks[j][1]), min(b, self.marks[j + 1][0])
            if hi > lo:
                total += (hi - lo) * speed
        return total

    def calibration_s(self, a: float, b: float) -> float:
        """Wall time spent calibrating within [a, b]."""
        return sum(max(0.0, min(b, e) - max(a, s)) for s, e in self.marks)
