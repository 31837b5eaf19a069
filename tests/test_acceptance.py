"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every comparison is exact; the only tolerances are the stated wall
clock budgets and the R^2 threshold of the scaling fit.
"""

import math
import random
import time
from fractions import Fraction

from floorsums import (
    Instance,
    Trace,
    floor_sum,
    four_var_count,
    full_report,
    oracle_four_var,
    oracle_nonrep,
    oracle_report,
    nonrep_count,
    nonrep_sum,
    reciprocity_terms,
    remainder_square_sum,
    s_value,
    t1,
    t2,
    t2_reciprocity_rhs,
    t3,
    t3_alt,
)


def report(criterion, ok):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def random_coprime_instance(rng, bits):
    while True:
        a = rng.getrandbits(bits) | (1 << (bits - 1))
        b = rng.getrandbits(bits) | (1 << (bits - 1))
        if b >= a or a < 2 or b < 1:
            continue
        if math.gcd(a, b) == 1:
            return a, b, rng.randrange(0, a)


def test_c1_worked_example_goldens():
    start = time.perf_counter()
    rep = full_report(Instance(8411, 2732, 1221))
    elapsed = time.perf_counter() - start
    ok = (
        rep.q_sum == 241709
        and rep.r2_sum == 28850219593
        and rep.t1 == Fraction(2219247661, 5441917)
        and rep.t2 == 196956430
        and rep.t3 == 63853169
        and rep.s == Fraction(658946167630, 647)
        and elapsed < 0.050
    )
    report(f"C1 worked-example goldens ({elapsed * 1000:.1f} ms)", ok)


def test_c2_intermediate_chain_goldens():
    ok = (
        reciprocity_terms(8411, 2732, 1221).eta2 == Fraction(5521952154451967, 441901)
        and reciprocity_terms(2732, 215, 2335).eta2 == Fraction(43105956866071, 146845)
        and s_value(11, 26, 1) == Fraction(151, 11)
        and t1(2732, 215, 396) == Fraction(489539849, 3731912)
        and floor_sum(Instance(215, 2732, 31)) == 6287
        and t2_reciprocity_rhs(8411, 2732, 1221) == Fraction(1075804292917, 2732)
    )
    report("C2 intermediate-chain goldens", ok)


def test_c3_oracle_equivalence_sweep():
    start = time.perf_counter()
    checked = 0
    ok = True
    for a in range(2, 41):
        for b in range(2, 41):
            if math.gcd(a, b) != 1:
                continue
            for h in (0, 1, a // 2, a - 1, a, 2 * a + 3):
                inst = Instance(a, b, h)
                checked += 1
                if full_report(inst) != oracle_report(inst):
                    ok = False
                    print(f"  mismatch at {inst}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(f"C3 oracle sweep ({checked} instances, {elapsed:.1f} s)", ok)


def independent_eta2(a, b, h):
    # Direct transcription of the eta1/eta2 definitions, sharing nothing with
    # the package's reciprocity path beyond modular arithmetic.
    n0 = -b * (h + 1) % a
    n = a * b - a + n0
    n1 = -n * pow(a, -1, b) % b or b
    big_h = n1 - 1
    alpha = Fraction(a * b * (a + b - 2), 2)
    beta = Fraction(a * b * (a - 1) * (b - 1), 2) + Fraction(
        a * b * ((a - 1) * (a - 2) + (b - 1) * (b - 2)), 3
    )
    gamma = (2 * alpha * alpha - a * b * beta) / (2 * (a * b) ** 3)
    eta1 = (
        (h + big_h + 1)
        + n * gamma
        + Fraction(n * (n + 3), 2) * Fraction(a + b - 2, 2 * a * b)
        + Fraction(n**3 + 6 * n**2 + 11 * n, 6 * a * b)
        + Fraction((h + 1) * (a - 1) * (a - 5), 12 * a)
        + Fraction((big_h + 1) * (b - 1) * (b - 5), 12 * b)
        - Fraction(b * h * (h + 1) * (a + 2), 4 * a)
        - Fraction(a * big_h * (big_h + 1) * (b + 2), 4 * b)
    )
    eta2 = (
        Fraction((n + 1) * (n + 2), 2)
        + Fraction((a - 1) * (b - 1) * (2 * a * b - a - b - 6 * n - 7), 12)
        - eta1
    )
    return eta2, big_h


def test_c4_identity_property_suite():
    rng = random.Random(20260823)
    ok = True
    for _ in range(200):
        a, b, h = random_coprime_instance(rng, 64)

        # Theorem 3 quotient-sum reciprocity.
        k = b * h // a
        if floor_sum(Instance(a, b, h)) + floor_sum(Instance(b, a, k)) != h * k:
            ok = False

        # Theorem 4 with eta2 computed independently of the package path.
        eta2, big_h = independent_eta2(a, b, h)
        if s_value(a, b, h) + s_value(b, a, big_h) != eta2:
            ok = False

        # Division-step delta.
        q_shift = rng.randrange(1, 100)
        if s_value(a, b + q_shift * a, h) - s_value(a, b, h) != Fraction(
            q_shift * h * (h + 1) * (a + 2), 4
        ):
            ok = False

        # T3 relation cleared of denominators:
        # 6a^2*T3 - 6*sum r_i^2 = 12ab*T2 - b^2 h(h+1)(2h+1).
        t2v = t2(a, b, h)
        if 6 * a * a * t3(a, b, h) - 6 * remainder_square_sum(a, b, h) != (
            12 * a * b * t2v - b * b * h * (h + 1) * (2 * h + 1)
        ):
            ok = False

        # Route agreement.
        if t3(a, b, h) != t3_alt(a, b, h):
            ok = False

        # gamma symmetry.
        if reciprocity_terms(a, b, 0).gamma != reciprocity_terms(b, a, 0).gamma:
            ok = False

        if not ok:
            print(f"  identity failure at a={a} b={b} h={h}")
            break
    report("C4 identity property suite (200 random 64-bit instances)", ok)


def test_c5_zero_remainder_regression():
    terms = reciprocity_terms(7, 3, 1)
    rep = full_report(Instance(7, 3, 1))
    ok = (
        s_value(7, 3, 1) == Fraction(9, 14)
        and rep == oracle_report(Instance(7, 3, 1))
        and terms.n1 == 3  # zero remainder promoted to b, never H = -1
        and terms.H == 2
    )
    # No reachable instance may produce a negative H.
    for a in range(2, 16):
        for b in range(1, 16):
            if math.gcd(a, b) != 1:
                continue
            for h in range(a):
                if reciprocity_terms(a, b, h).H < 0:
                    ok = False
    report("C5 zero-remainder (n1 = 0) regression", ok)


def test_c6_four_variable_count():
    ok = True
    for a in range(2, 13):
        for b in range(2, 13):
            if math.gcd(a, b) != 1:
                continue
            for n in range(a * b):
                if four_var_count(a, b, n) != oracle_four_var(a, b, n):
                    ok = False
    # Consistency of the split N = S(a,b;h) + S(b,a;H) + eta1.
    for a in range(2, 21):
        for b in range(1, 21):
            if math.gcd(a, b) != 1:
                continue
            for h in range(a):
                terms = reciprocity_terms(a, b, h)
                n_count = four_var_count(a, b, terms.n)
                if n_count != s_value(a, b, h) + s_value(b, a, terms.H) + terms.eta1:
                    ok = False
    report("C6 four-variable count vs brute force + split consistency", ok)


def test_c7_frobenius_formulas_vs_sieve():
    ok = True
    for a in range(2, 51):
        for b in range(2, 51):
            if math.gcd(a, b) != 1:
                continue
            if (nonrep_count(a, b), nonrep_sum(a, b)) != oracle_nonrep(a, b):
                ok = False
    report("C7 Frobenius closed forms vs sieve (coprime pairs <= 50)", ok)


def linear_fit_r2(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    return slope, 1.0 - ss_res / ss_tot


def test_c8_complexity_scaling():
    rng = random.Random(512)
    bit_sizes = (64, 128, 256, 512)

    t1_x, t1_y = [], []
    t1_times_512 = []
    for bits in bit_sizes:
        for _ in range(10):
            a, b, h = random_coprime_instance(rng, bits)
            trace = Trace()
            start = time.perf_counter()
            t1(a, b, h, trace)
            elapsed = time.perf_counter() - start
            t1_x.append(bits)
            t1_y.append(len(trace.steps))
            if bits == 512:
                t1_times_512.append(elapsed)

    t2_x, t2_y = [], []
    for bits in bit_sizes:
        for _ in range(3):
            a, b, h = random_coprime_instance(rng, bits)
            trace = Trace()
            t2(a, b, h, trace)
            t2_x.append(bits * bits)
            t2_y.append(trace.total_steps())

    slope1, r2_linear = linear_fit_r2(t1_x, t1_y)
    slope2, r2_quadratic = linear_fit_r2(t2_x, t2_y)
    median_512 = sorted(t1_times_512)[len(t1_times_512) // 2]
    ok = (
        slope1 > 0
        and r2_linear >= 0.95
        and slope2 > 0
        and r2_quadratic >= 0.95
        and median_512 < 0.100
    )
    report(
        "C8 scaling: t1 steps ~ bits "
        f"(R^2={r2_linear:.3f}), t2 sub-steps ~ bits^2 (R^2={r2_quadratic:.3f}), "
        f"t1@512b median {median_512 * 1000:.1f} ms",
        ok,
    )
