"""Machine-readable transcripts of the recursion chains, and the one walker
that drives every chain.

Each step records the rule applied, the (a, b, h) state on entry, any derived
parameters, and the signed contribution the step adds to the final value, so
summing the contributions replays the computation exactly.  A step whose rule
ran walks of its own (the T2 chain's reciprocity and period rules do) keeps
their steps as its ``children``, so a trace is a tree: the children of a T2
reciprocity step replay to Q(b,a;h') + S(a,b;h), those of a T2 period step to
Q(a,b;m).  Only ``walk`` builds steps.
"""

from dataclasses import dataclass, field
from fractions import Fraction

RULE_RECIPROCITY = "reciprocity"
RULE_DIVISION = "division"
RULE_PERIOD = "period-reduction"
RULE_BASE = "base"


@dataclass
class TraceStep:
    rule: str
    a: int
    b: int
    h: int
    derived: dict
    contribution: Fraction
    children: list


@dataclass
class Trace:
    steps: list = field(default_factory=list)

    def record(self, rule, a, b, h, derived, contribution, children):
        self.steps.append(TraceStep(rule, a, b, h, dict(derived), Fraction(contribution), children))

    def replay(self) -> Fraction:
        """Sum of the top-level contributions; equals the value the traced call
        returned (a step's contribution already holds its children's work)."""
        return sum((s.contribution for s in self.steps), Fraction(0))

    def total_steps(self) -> int:
        """Number of steps in the whole tree, children included."""
        return sum(1 + Trace(s.children).total_steps() for s in self.steps)

    def __len__(self):
        return len(self.steps)


def euclid_steps(a: int, b: int) -> int:
    """Number of division steps the Euclidean algorithm takes on (a, b)."""
    n = 0
    while b:
        a, b = b, a % b
        n += 1
    return n


def walk(a, b, h, trace, division, reciprocity, period, unit=None, zero=0):
    """f(a, b; h) for coprime (a, b), walked down the Euclidean chain of
    (a, b); every step is recorded in ``trace`` unless it is None.

    The rules hold all the arithmetic of f.  The walk carries a coefficient
    (1 at the start), and every rule returns its contribution already
    multiplied by it:

    - ``period(a, b, Q, m, sink)``: f(a, b; Qa + m) - f(a, b; m), used once,
      on entry, when h >= a >= 2 and b >= 1; after it h < a or a == 1;
    - ``division(a, q, h, coef)``: coef * (f(a, b; h) - f(a, b - qa; h)),
      q = b // a; with a == 1 and q = b it is the base case;
    - ``unit(a, h, coef)``: coef * f(a, 1; h) in closed form; without it
      b == 1 takes the reciprocity step;
    - ``reciprocity(a, b, h, coef, sink)``: for b < a, with
      f(a, b; h) = R - c * f(b, a; h'), returns (coef * R, -c * coef, h',
      derived), derived being the parameters a trace records.

    The period and reciprocity rules hand their ``sink`` unchanged to the
    walks they run: untraced it is None, and when tracing a fresh
    ``Trace``, whose steps become the children of the rule's step.
    ``zero`` is the empty sum; it fixes the type of the result.
    """
    total = zero
    if h >= a >= 2 and b >= 1:
        q_blocks, m = divmod(h, a)
        children = None if trace is None else Trace()
        total = period(a, b, q_blocks, m, children)
        if trace is not None:
            trace.record(RULE_PERIOD, a, b, h, {"Q": q_blocks, "m": m}, total, children.steps)
        h = m
    coef = 1
    while h and b:
        if a == 1 or (b == 1 and unit is not None):
            c = division(1, b, h, coef) if a == 1 else unit(a, h, coef)
            if trace is not None:
                trace.record(RULE_BASE, a, b, h, {}, c, [])
            total += c
            break
        if b >= a:
            q, r = divmod(b, a)
            c = division(a, q, h, coef)
            if trace is not None:
                trace.record(RULE_DIVISION, a, b, h, {"q": q, "r": r}, c, [])
            b = r
        else:
            children = None if trace is None else Trace()
            c, coef, h_next, derived = reciprocity(a, b, h, coef, children)
            if trace is not None:
                trace.record(RULE_RECIPROCITY, a, b, h, derived, c, children.steps)
            a, b, h = b, a, h_next
        total += c
    else:
        if trace is not None:
            trace.record(RULE_BASE, a, b, h, {}, 0, [])
    return total
