"""Public functions check (a, b, h) once; the chains' private walkers never do.

Counts calls of ``Instance.__post_init__``, the one argument check, so the
number of checks per public call must not grow with the depth of the chain.
"""

import math
import random

import pytest

from floorsums import Instance, full_report, s_value, t1, t2, t3_alt


def instances(bits):
    # Coprime b < a of the given size, with h < a (reciprocity only) and
    # h >= a (period rule first).
    rng = random.Random(bits)
    a = b = 0
    while math.gcd(a, b) != 1:
        a = rng.getrandbits(bits) | (1 << (bits - 1))
        b = rng.randrange(1, a)
    return [(a, b, rng.randrange(a)), (a, b, a + rng.randrange(2 * a))]


@pytest.fixture
def checks(monkeypatch):
    count = [0]
    check = Instance.__post_init__

    def counting(self):
        count[0] += 1
        check(self)

    monkeypatch.setattr(Instance, "__post_init__", counting)
    return count


@pytest.mark.parametrize("bits", [64, 128])
@pytest.mark.parametrize("fn", [s_value, t1, t2, t3_alt])
def test_one_check_per_call(checks, fn, bits):
    for a, b, h in instances(bits):
        checks[0] = 0
        fn(a, b, h)
        assert checks[0] == 1, (fn.__name__, a, b, h)


def test_full_report_checks_do_not_grow_with_depth(checks):
    counts = []
    for bits in (64, 128):
        for a, b, h in instances(bits):
            inst = Instance(a, b, h)
            checks[0] = 0
            full_report(inst)
            counts.append(checks[0])
    assert len(set(counts)) == 1 and counts[0] <= 7, counts
