"""Independent exact checker for the benchmark's outputs.

Nothing here comes from floorsums except its brute-force oracle.  Where the
bound h (or n) is small the oracle is the reference.  Above that the
reference is the joint Euclid-style recursion below on

    F = sum f_i,   G = sum i*f_i,   H = sum f_i^2,   f_i = floor((p*i + c)/m),

from which every report field, the nonrepresentable count and sum, and the
four-variable solution count follow by linear identities.  ``self_test``
checks this reference against the oracle on a small grid before any
benchmark result is trusted.
"""

import json
import math
from fractions import Fraction

from floorsums import oracle

ORACLE_MAX_H = 2000
ORACLE_MAX_N = 2000
ORACLE_MAX_AB = 4000

# The targets the targets-s-512 workload asks the CLI for.
COMPUTE_TARGETS = ("q", "r", "r2", "t1", "s")
_REPORT_ATTRS = {
    "q": "q_sum", "r": "r_sum", "r2": "r2_sum", "t1": "t1", "t2": "t2",
    "t3": "t3", "ir": "ir_sum", "qr": "qr_sum", "s": "s",
}


def floor_sums(p: int, c: int, m: int, n: int) -> tuple[int, int, int]:
    """(F, G, H) over i = 0..n of floor((p*i + c)/m); p, c >= 0, m >= 1, n >= 0.

    Iterative, so the depth of the Euclidean chain is not limited by the
    interpreter's recursion limit.
    """
    frames = []
    while True:
        qp, p = divmod(p, m)
        qc, c = divmod(c, m)
        frames.append((qp, qc, n, None))
        top = (p * n + c) // m
        if p == 0 or top == 0:
            f = g = h = 0
            break
        # Count lattice points the other way round: sum over j < top of the
        # number of i <= n with p*i + c >= (j+1)*m.
        frames.append((0, 0, n, top))
        p, c, m, n = m, m - c - 1, p, top - 1
    for qp, qc, n, top in reversed(frames):
        if top is None:
            s1 = n * (n + 1) // 2
            s2 = n * (n + 1) * (2 * n + 1) // 6
            f, g, h = (
                f + qp * s1 + qc * (n + 1),
                g + qp * s2 + qc * s1,
                h + qp * qp * s2 + qc * qc * (n + 1) + 2 * qp * qc * s1
                + 2 * qc * f + 2 * qp * g,
            )
        else:
            f_new = n * top - f
            g_new = (top * n * (n + 1) - h - f) // 2
            h_new = n * top * (top + 1) - 2 * g - 2 * f - f_new
            f, g, h = f_new, g_new, h_new
    return f, g, h


def report_reference(a: int, b: int, h: int, use_oracle: bool = True) -> dict:
    """The nine report fields of (a, b, h), reduced to coprime (a, b)."""
    if use_oracle and h <= ORACLE_MAX_H:
        return _fields(oracle.oracle_report(oracle.Instance(a, b, h)))
    g = math.gcd(a, b)
    a, b = a // g, b // g
    f, gs, hs = floor_sums(b, 0, a, h)
    sq = h * (h + 1) * (2 * h + 1) // 6
    r2 = b * b * sq - 2 * a * b * gs + a * a * hs
    return {
        "q": f,
        "r": b * h * (h + 1) // 2 - a * f,
        "r2": r2,
        "t1": Fraction(r2, a * a),
        "t2": gs,
        "t3": hs,
        "ir": b * sq - a * gs,
        "qr": b * gs - a * hs,
        "s": Fraction(r2, 2 * a) + Fraction((a + 2) * f, 2),
    }


def nonrep_reference(a: int, b: int, use_oracle: bool = True) -> tuple[int, int]:
    """(count, sum) of nonnegative integers not of the form a*x + b*y.

    In the residue class of b*y mod a (0 <= y < a) the least representable
    number is b*y, so the nonrepresentable ones are b*y - k*a for
    k = 1..floor(b*y/a).
    """
    if use_oracle and a * b <= ORACLE_MAX_AB:
        return oracle.oracle_nonrep(a, b)
    f, g, h = floor_sums(b, 0, a, a - 1)
    return f, b * g - a * (h + f) // 2


def four_var_reference(a: int, b: int, n: int, use_oracle: bool = True) -> int:
    """Solutions of a*x + b*y + z + u = n over nonnegative integers.

    Each (x, y) with c = n - a*x >= b*y contributes c - b*y + 1, so the count
    is the sum over x of (k+1)(c+1) - b*k(k+1)/2 with k = floor(c/b).  With x
    running down from X = floor(n/a), c = c0 + a*x and k is a floor of a
    linear function of x.
    """
    if use_oracle and n <= ORACLE_MAX_N:
        return oracle.oracle_four_var(a, b, n)
    big_x, c0 = divmod(n, a)
    f, g, h = floor_sums(a, c0, b, big_x)
    sum_c = (big_x + 1) * c0 + a * big_x * (big_x + 1) // 2
    doubled = 2 * (c0 * f + a * g + f + sum_c + big_x + 1) - b * (h + f)
    return doubled // 2


def fmt(value) -> str:
    """The CLI's number format: decimal, "num/den" for a non-integer."""
    value = Fraction(value)
    if value.denominator != 1:
        return f"{value.numerator}/{value.denominator}"
    return str(value.numerator)


def _fields(report) -> dict:
    return {key: getattr(report, attr) for key, attr in _REPORT_ATTRS.items()}


def _doc(out):
    code, text = out
    return code, json.loads(text)


def _compute_doc(inp):
    a, b, h = inp
    want = report_reference(a, b, h)
    return 0, {
        "a": str(a), "b": str(b), "h": str(h),
        "normalized": math.gcd(a, b) > 1,
        "sums": {key: fmt(want[key]) for key in COMPUTE_TARGETS},
    }


def _frobenius_doc(inp):
    a, b, n = inp
    count, total = nonrep_reference(a, b)
    return 0, {
        "a": str(a), "b": str(b),
        "nonrep_count": str(count), "nonrep_sum": str(total),
        "n": str(n), "four_var_count": str(four_var_reference(a, b, n)),
    }


# Per workload: (expected value for an input, comparable form of an output).
# An output is correct when the two are equal.
CHECKS = {
    "report-64": (lambda inp: report_reference(*inp), _fields),
    "targets-s-512": (_compute_doc, _doc),
    "verify-small": (lambda inp: (report_reference(*inp), True),
                     lambda out: (_fields(out[0]), out[1])),
    "frobenius-tail": (_frobenius_doc, _doc),
}


def self_test() -> list[str]:
    """Compare the Euclid-style references with brute force and the oracle.

    The grid covers non-coprime pairs, b = 0, a = 1, b >= a and h >= a.
    Returns a description of every disagreement (empty when all agree).
    """
    problems = []
    for p in range(7):
        for c in range(9):
            for m in range(1, 7):
                for n in range(10):
                    fl = [(p * i + c) // m for i in range(n + 1)]
                    want = (sum(fl), sum(i * v for i, v in enumerate(fl)), sum(v * v for v in fl))
                    if floor_sums(p, c, m, n) != want:
                        problems.append(f"floor_sums({p}, {c}, {m}, {n})")
    for a in range(1, 11):
        for b in range(13):
            for h in range(3 * a + 3):
                if report_reference(a, b, h, False) != report_reference(a, b, h):
                    problems.append(f"report_reference({a}, {b}, {h})")
    for a in range(1, 10):
        for b in range(1, 10):
            if math.gcd(a, b) != 1:
                continue
            if nonrep_reference(a, b, False) != oracle.oracle_nonrep(a, b):
                problems.append(f"nonrep_reference({a}, {b})")
            for n in range(a * b + 3):
                if four_var_reference(a, b, n, False) != oracle.oracle_four_var(a, b, n):
                    problems.append(f"four_var_reference({a}, {b}, {n})")
    return problems
