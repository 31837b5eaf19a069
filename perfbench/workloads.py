"""The benchmark's workloads: how each makes its inputs and runs one operation.

An input is a tuple of ints made from the seed alone; the operation hands it
to floorsums and returns the raw output, which ``checker`` judges later.
Operations look functions up on their module at call time, so the span
wrappers of ``tracing`` see them.
"""

import contextlib
import io
import math
import random
from dataclasses import dataclass
from typing import Callable

from floorsums import cli, cross_sum, models, oracle

from checker import COMPUTE_TARGETS


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_input: Callable[[random.Random], tuple]
    run: Callable[[tuple], object]
    count_ops: int  # operations in each profiled count pass


def _coprime(rng: random.Random, bits: int) -> tuple[int, int]:
    # a has exactly `bits` bits; 1 <= b < a; gcd(a, b) = 1.
    while True:
        a = rng.getrandbits(bits) | (1 << (bits - 1))
        b = rng.randrange(1, a)
        if math.gcd(a, b) == 1:
            return a, b


def _report_input(rng):
    a, b = _coprime(rng, 64)
    return a, b, rng.randrange(3 * a)


def _compute_input(rng):
    a, b = _coprime(rng, 512)
    return a, b, rng.randrange(a)


def _verify_input(rng):
    return rng.randint(1, 64), rng.randint(0, 64), rng.randrange(400)


def _frobenius_input(rng):
    while True:
        a = rng.getrandbits(17) | (1 << 16)
        b = rng.getrandbits(17) | (1 << 16)
        if math.gcd(a, b) == 1:
            return a, b, rng.randrange(a * b)


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def run_report(inp):
    return cross_sum.full_report(models.Instance(*inp))


def run_compute(inp):
    a, b, h = inp
    return _cli(["compute", "--a", str(a), "--b", str(b), "--h", str(h),
                 "--targets", ",".join(COMPUTE_TARGETS)])


def run_verify(inp):
    inst = models.Instance(*inp)
    fast = cross_sum.full_report(inst)
    return fast, fast == oracle.oracle_report(inst)


def run_frobenius(inp):
    a, b, n = inp
    return _cli(["frobenius", "--a", str(a), "--b", str(b), "--n", str(n)])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "report-64",
            "full_report on coprime 64-bit b < a, h < 3a: the T2 chain that recomputes T1 at every level dominates",
            _report_input, run_report, 6,
        ),
        Workload(
            "targets-s-512",
            "CLI compute of q,r,r2,t1,s at 512 bits, h < a: one deep S chain on big rationals, no cross_sum work",
            _compute_input, run_compute, 6,
        ),
        Workload(
            "verify-small",
            "full_report vs oracle_report on tiny, non-coprime, b = 0, b >= a and h >= a inputs: per-call overhead, not depth",
            _verify_input, run_verify, 200,
        ),
        Workload(
            "frobenius-tail",
            "CLI frobenius with coprime 17-bit a, b and n < ab: the tail loop of four_var_count does nearly all the work",
            _frobenius_input, run_frobenius, 20,
        ),
    )
}
