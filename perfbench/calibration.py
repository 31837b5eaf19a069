"""Machine-speed calibration for the end-to-end times.

On a shared machine the speed of the same Python code drifts by tens of
percent within minutes, and every operation in a window drifts with it.
``unit`` is a fixed piece of work with the same ingredients as floorsums
(interpreter loops, big-integer division, ``Fraction`` normalisation) that
shares no code with it.  Timing units between operations measures the
machine's current speed; scaling an operation's wall time by
REFERENCE_UNIT_NS / (measured ns per unit) gives its time at the reference
speed.  The reference is a constant, so a slower or faster program still
shows as slower or faster: only the machine's drift cancels.
"""

import time
from fractions import Fraction

# About the ns per unit on a 2-vCPU Xeon VM under CPython 3.11.
REFERENCE_UNIT_NS = 500_000
WINDOW_NS = 1_000_000_000

_A = (1 << 255) // 7 + 12345
_B = (1 << 254) // 3 + 777


def unit() -> int:
    """One calibration unit of fixed work; returns a checksum so nothing is skipped."""
    s = 0
    for i in range(3000):
        s += i * i % 7
    a, b = _A, _B
    while b:
        q, r = divmod(a, b)
        s += q.bit_length()
        a, b = b, r
    x = Fraction(0)
    for k in range(1, 40):
        x += Fraction(k, k * k + 1)
    return s + x.denominator.bit_length()


def measure(min_ns: int) -> tuple[int, int]:
    """Run units until at least min_ns have passed (one unit at least).

    Returns (units run, nanoseconds they took).
    """
    units = spent = 0
    while units == 0 or spent < min_ns:
        start = time.perf_counter_ns()
        unit()
        spent += time.perf_counter_ns() - start
        units += 1
    return units, spent


def speed_factor(units: int, spent_ns: int) -> float:
    """Multiply a wall time measured alongside these units by this factor to
    get the time at the reference speed (above 1 on a machine faster than the
    reference)."""
    return REFERENCE_UNIT_NS * units / spent_ns


def at_reference_speed(samples) -> list:
    """Wall times scaled to the reference speed, window by window.

    `samples` holds (wall_ns, units, unit_ns) per operation: the wall time
    and the calibration units run after it.  Consecutive operations are
    grouped into windows of at least WINDOW_NS wall time that contain a
    unit, and each window is scaled by the speed its units measured; a
    trailing window without units takes the speed of the one before.
    """
    scaled = []
    window = []
    wall = units = spent = 0
    factor = None
    for sample in samples:
        window.append(sample)
        wall, units, spent = wall + sample[0], units + sample[1], spent + sample[2]
        if (wall >= WINDOW_NS and units) or len(scaled) + len(window) == len(samples):
            if units:
                factor = speed_factor(units, spent)
            if factor is None:
                raise ValueError("no calibration unit was run")
            scaled += [s[0] * factor for s in window]
            window = []
            wall = units = spent = 0
    return scaled
