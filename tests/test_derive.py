"""Every target of a report is derived in one place, ``models._derive``, from
the chain values Q, S and T2, or from the pass's T2 and T3, which with Q
also give S; the single-sum functions and the target table agree with it."""

import itertools
import math

import pytest

from floorsums import (
    Instance,
    floor_sum,
    models,
    oracle_report,
    remainder_square_sum,
    remainder_sum,
    s_value,
    t1,
    t2,
    t3,
    t3_alt,
)

CHAINS = ("q", "s", "t2")

# The inputs verify-small draws from, on a smaller scale: non-coprime pairs,
# b = 0, a = 1, b >= a and h >= a.
GRID = [
    (a, b, h)
    for a in range(1, 25)
    for b in range(0, 50)
    for h in sorted({0, 1, a // 2, a - 1, a, a + 1, 2 * a + 3, 3 * a + 2})
]


def test_grid_covers_the_small_input_classes():
    assert any(math.gcd(a, b) > 1 and b for a, b, _ in GRID)
    assert any(b == 0 for _, b, _ in GRID) and any(a == 1 for a, _, _ in GRID)
    assert any(b >= a > 1 for a, b, _ in GRID) and any(h >= a > 1 for a, _, h in GRID)


def test_single_sums_match_the_oracle():
    for a, b, h in GRID:
        inst = Instance(a, b, h)
        want = oracle_report(inst)
        got = (
            floor_sum(inst), remainder_sum(inst), s_value(a, b, h), t1(a, b, h),
            remainder_square_sum(a, b, h), t2(a, b, h), t3(a, b, h), t3_alt(a, b, h),
        )
        assert got == (
            want.q_sum, want.r_sum, want.s, want.t1, want.r2_sum, want.t2, want.t3, want.t3,
        ), (a, b, h)


# The sums the pass up the T2 chain gives, and every target they give.
PASS = {"t2", "t3"}
FROM_PASS = PASS | {"r2", "t1", "ir", "qr"}


def chain_subsets():
    return [set(chains) for n in range(4) for chains in itertools.combinations(CHAINS, n)]


@pytest.mark.parametrize("inst", [Instance(1, 0, 3), Instance(7, 3, 10), Instance(13, 5, 11)])
@pytest.mark.parametrize("given", chain_subsets() + [PASS], ids=lambda chains: "+".join(sorted(chains)) or "none")
def test_derive_gives_the_targets_the_table_names(inst, given):
    # The keys derived from a set of chains are exactly the targets whose
    # chains the target table puts inside that set, with the oracle's values;
    # the pass's T2 and T3 give FROM_PASS.
    report = oracle_report(inst)
    fields = {key: getattr(report, field) for key, (field, _) in models._TARGETS.items()}
    values = models._derive(inst.a, inst.b, inst.h, {chain: fields[chain] for chain in given})
    if given == PASS:
        wanted = FROM_PASS
    else:
        wanted = {key for key, (_, chains) in models._TARGETS.items() if set(chains) <= given}
    assert set(values) == wanted
    assert values == {key: fields[key] for key in wanted}


def test_s_from_q_and_the_remainder_squares_on_the_grid():
    # s = (r2 + a(a+2)*Q)/(2a), the rule untraced s_value takes, from the
    # oracle's r2 and from the pass's T2 and T3; with the latter, Q and the
    # pass give every target.
    for a, b, h in GRID:
        report = oracle_report(Instance(a, b, h))
        inst = report.instance
        fields = {key: getattr(report, field) for key, (field, _) in models._TARGETS.items()}
        values = models._derive(inst.a, inst.b, inst.h, {"q": report.q_sum, "r2": report.r2_sum})
        assert values["s"] == report.s, (a, b, h)
        given = {key: fields[key] for key in ("q", "t2", "t3")}
        assert models._derive(inst.a, inst.b, inst.h, given) == fields, (a, b, h)


def test_derive_keeps_a_given_value():
    report = oracle_report(Instance(5, 3, 4))
    values = {"q": report.q_sum, "s": report.s, "t2": report.t2, "r": "kept", "t1": "kept"}
    assert models._derive(5, 3, 4, values) is values
    assert (values["r"], values["t1"], values["t3"]) == ("kept", "kept", report.t3)
    assert set(values) == set(models._TARGETS)
