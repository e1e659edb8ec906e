"""Reference-speed calibration: time measured in units of a fixed kernel.

The CPU speed of a shared machine drifts: the same work measured in
10-second windows varied by about +-25% on a shared 2-vCPU VM, and
process CPU time drifted with wall time, so the slowdown is not
preemption.  The benchmark therefore runs a fixed calibration kernel in
short blocks spread evenly through each round (20% of its wall time) and
expresses each operation's time in kernel units, at the speed that the
blocks run during or next to the operation measured.  One reference
millisecond (``ref_ms``) is one kernel unit: cost in ref_s = seconds /
(seconds per unit) * 1e-3.  Set-up time is scaled by the speed that the
same process measures right after set-up (``speed_scale``).

The kernel is benchmark code, not library code, so no change to qbmzeno
changes it.  It mimics the library's hot path (Gauss-Kronrod batches of
sinc^2-weighted Lorentz-Drude integrands over panel arrays of mixed size,
with Python overhead per batch) so that the two slow down together.
"""

from __future__ import annotations

import signal
import time

import numpy as np

REF_UNIT_S = 1e-3  # one kernel unit is one reference millisecond

_NODES = np.linspace(-1.0, 1.0, 15)
_W = np.cos(_NODES)
_G = _W * (np.arange(15) % 2)
_SIZES = (4, 16, 64, 256, 512, 64, 16, 4)


def kernel_unit() -> float:
    total = 0.0
    for size in _SIZES:
        lo = np.linspace(1.0, 1.0 + size, size + 1)
        mid = 0.5 * (lo[:-1] + lo[1:])
        half = 0.5 * (lo[1:] - lo[:-1])
        x = mid[:, None] + half[:, None] * _NODES[None, :]
        omega = np.maximum(x / 0.37 - 1.0, 0.0)
        s = np.sinc(x / np.pi)
        y = (omega / np.pi) * 0.25 / (0.25 + omega**2) * s * s / 0.37
        kron = half * (y @ _W)
        total += float(np.sum(kron)) + float(np.sum(np.abs(kron - half * (y @ _G))))
    return total


def run_units(duration_s: float) -> tuple[float, int]:
    """Run whole kernel units for at least ``duration_s``; (seconds, units)."""
    units = 0
    start = time.perf_counter()
    while True:
        kernel_unit()
        units += 1
        elapsed = time.perf_counter() - start
        if elapsed >= duration_s:
            return elapsed, units


def speed_scale(duration_s: float = 0.25) -> float:
    """Reference seconds per second at the current speed: REF_UNIT_S / (s per unit)."""
    elapsed, units = run_units(duration_s)
    return REF_UNIT_S * units / elapsed


class Sampler:
    """Runs a calibration block of ``block_s`` every ``period_s`` of wall time.

    Driven by SIGALRM, so the blocks interleave with whatever the main
    thread runs, including a long CLI call, without touching its code.
    ``clock()`` is perf_counter minus the time spent in blocks; timing an
    operation with it leaves the calibration out.  The kernel is pure
    computation, so the interrupted program computes the same outputs.
    """

    def __init__(self, period_s: float = 0.025, block_s: float = 0.005) -> None:
        self.period_s = period_s
        self.block_s = block_s
        self.kernel_s = 0.0
        self.units = 0
        self.marks: list[tuple[float, float, int]] = []  # (clock, seconds, units)
        self._previous = None

    def _block(self, signum, frame) -> None:
        mark = self.clock()
        elapsed, units = run_units(self.block_s)
        self.kernel_s += elapsed
        self.units += units
        self.marks.append((mark, elapsed, units))

    def clock(self) -> float:
        return time.perf_counter() - self.kernel_s

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._block)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def ref_cost(interval: tuple[float, float], marks: list[tuple[float, float, int]],
             reach_s: float = 0.025) -> float:
    """Cost in ref_s of an operation timed on Sampler.clock over ``interval``,
    at the speed of the blocks run during it or within ``reach_s`` of it
    (the two nearest blocks when there are fewer)."""
    start, end = interval
    near = [m for m in marks if start - reach_s <= m[0] <= end + reach_s]
    if len(near) < 2:
        mid = 0.5 * (start + end)
        near = sorted(marks, key=lambda m: abs(m[0] - mid))[:2]
    seconds_per_unit = sum(m[1] for m in near) / sum(m[2] for m in near)
    return (end - start) / seconds_per_unit * REF_UNIT_S
