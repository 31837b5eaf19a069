"""Command-line surface: compute, verify, frobenius, bench.

All numeric I/O is decimal strings (rationals as "num/den" in lowest terms)
so values survive JSON consumers bit-exactly.  Exit codes: 0 ok, 1
verification mismatch, 2 invalid input, 141 output pipe closed by its reader
(as a shell reports a process that SIGPIPE ended).
"""

import argparse
import ast
import functools
import json
import math
import os
import random
import sys
import time
from decimal import Decimal
from fractions import Fraction

from . import frobenius as frob
from . import oracle
from .cross_sum import full_report, t2
from .errors import InvalidArgumentError
from .floor_sum import floor_sum
from .models import _TARGETS, Instance, _derive
from .numeric import shown
from .oracle import oracle_report
from .square_sum import s_value, t1
from .trace import Trace

TARGETS = tuple(_TARGETS)
DEFAULT_H_GRID = ("0", "1", "a//2", "a-1", "a", "2*a+3")
_BENCH_COLUMNS = ("bits", "rep", "seed", "target", "steps", "nanos")
# verify's cost of one full_report, in oracle iterations: one full_report at
# h = 0 took 50 us (mean over the coprime a <= 200, b <= a) and one oracle
# iteration 0.54-0.58 us, on a 2-vCPU machine with Python 3.11.
_REPORT_WORK = 100
# bench's limit on its work, reps times the sum of bits^3: a traced t2 takes
# about 3 s at 512 bits and grows as bits^3, so this admits one 1024-bit
# instance (about 23 s) as well as the default 32,64,128 with 3 reps.
_BENCH_MAX_WORK = 1024**3


def _decimal(n: int) -> str:
    # str(n) refuses more than sys.get_int_max_str_digits() digits (4,300 by
    # default), which an output can pass while every input stays below it;
    # Decimal converts an int exactly, from its binary digits, with no limit.
    return str(Decimal(n))


def _fmt(value) -> str:
    """Integers and rationals as decimal strings; "num/den" when den > 1."""
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"
    return _decimal(int(value))


def _trace_json(steps: list, target: str) -> list:
    return [
        {
            "target": target,
            "rule": step.rule,
            "a": _fmt(step.a),
            "b": _fmt(step.b),
            "h": _fmt(step.h),
            "derived": {k: _fmt(v) for k, v in step.derived.items()},
            "contribution": _fmt(step.contribution),
            "children": _trace_json(step.children, target),
        }
        for step in steps
    ]


def _int_arg(text: str) -> int:
    """An integer argument.  A text past Python's digit limit for reading an
    int is refused with its length, not echoed back as argparse would."""
    try:
        return int(text)
    except ValueError:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and len(text) > limit:
            raise argparse.ArgumentTypeError(
                f"{len(text)} characters; an int may have at most {limit} digits"
            ) from None
        raise argparse.ArgumentTypeError(f"invalid int value: {shown(text)}") from None


def _eval_h_token(token: str, a: int) -> int:
    """Evaluate an h-grid token: an integer expression in the variable a."""
    try:
        node = ast.parse(token.strip(), mode="eval").body
    except SyntaxError:
        raise InvalidArgumentError(f"bad h-grid token: {shown(token)}") from None

    def ev(n):
        if isinstance(n, ast.Constant) and isinstance(n.value, int):
            return n.value
        if isinstance(n, ast.Name) and n.id == "a":
            return a
        if isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.USub):
            return -ev(n.operand)
        if isinstance(n, ast.BinOp):
            left, right = ev(n.left), ev(n.right)
            if isinstance(n.op, ast.Add):
                return left + right
            if isinstance(n.op, ast.Sub):
                return left - right
            if isinstance(n.op, ast.Mult):
                return left * right
            if isinstance(n.op, (ast.Div, ast.FloorDiv)):
                if right == 0:
                    raise InvalidArgumentError(f"h-grid token divides by zero: {shown(token)}")
                return left // right
        raise InvalidArgumentError(f"bad h-grid token: {shown(token)}")

    try:
        return max(ev(node), 0)
    except RecursionError:
        raise InvalidArgumentError(f"h-grid token nested too deeply: {shown(token)}") from None


def cmd_compute(args) -> int:
    inst = Instance(args.a, args.b, args.h)
    canon, normalized = inst.canonical()
    a, b, h = canon.a, canon.b, canon.h

    targets = TARGETS if args.targets is None else tuple(args.targets.split(","))
    for target in targets:
        if target not in TARGETS:
            raise InvalidArgumentError(f"unknown target {shown(target)}")
    chains = {chain for target in targets for chain in _TARGETS[target][1]}

    trace_rows = []

    def run(name, chain, *chain_args):
        trace = Trace() if args.trace else None
        value = chain(*chain_args, trace)
        if args.trace:
            trace_rows.extend(_trace_json(trace.steps, name))
        return value

    # Each chain (Q, S, T2) runs at most once, for the targets derived from
    # it; every target is a formula of the chain values.
    values = {}
    if "q" in chains:
        values["q"] = run("q", floor_sum, canon)
    if "s" in chains:
        values["s"] = run("s", s_value, a, b, h)
    if "t2" in chains:
        values["t2"] = run("t2", t2, a, b, h)
    _derive(a, b, h, values)
    sums = {target: _fmt(values[target]) for target in targets}

    doc = {
        "a": _fmt(args.a),
        "b": _fmt(args.b),
        "h": _fmt(args.h),
        "normalized": normalized,
        "sums": sums,
    }
    if args.trace:
        doc["trace"] = trace_rows

    if args.format == "json":
        print(json.dumps(doc))
    else:
        if normalized:
            print(f"# normalized to a={a} b={b}")
        for key, value in sums.items():
            print(f"{key} = {value}")
        if args.trace:
            _print_trace_text(trace_rows, 0)
    return 0


def _print_trace_text(rows: list, depth: int) -> None:
    # One line per row, each child two spaces deeper than its parent.
    for row in rows:
        derived = " ".join(f"{k}={v}" for k, v in row["derived"].items())
        print(
            f"# {'  ' * depth}[{row['target']}] {row['rule']} a={row['a']} b={row['b']} "
            f"h={row['h']} {derived} contribution={row['contribution']}"
        )
        _print_trace_text(row["children"], depth + 1)


def _verify_one(a: int, b: int, h: int) -> bool:
    inst = Instance(a, b, h)
    fast, slow = full_report(inst), oracle_report(inst)
    ok = True
    for key, (field, _) in _TARGETS.items():
        mine, want = getattr(fast, field), getattr(slow, field)
        if mine != want:
            ok = False
            print(f"MISMATCH a={a} b={b} h={h} field={key}: fast={_fmt(mine)} oracle={_fmt(want)}")
    return ok


def cmd_verify(args) -> int:
    single = args.a is not None or args.b is not None or args.h is not None
    if single and None in (args.a, args.b, args.h):
        raise InvalidArgumentError("single-instance verify needs --a, --b and --h")
    if single and (args.max is not None or args.h_grid is not None):
        raise InvalidArgumentError("give either --a/--b/--h or --max and --h-grid, not both")
    if not single and args.max is None:
        raise InvalidArgumentError("verify needs --a/--b/--h or --max")
    if args.max is not None and args.max < 2:
        raise InvalidArgumentError(f"--max must be >= 2, got {shown(args.max)}")

    grid = DEFAULT_H_GRID if args.h_grid is None else tuple(args.h_grid.split(","))

    def instances():
        # (a, b, hs, work) for the single instance or each coprime pair of the
        # sweep.  The oracle loops h times, so work = sum of h, at least
        # _REPORT_WORK per h for the full_report that each h also runs.
        for a in [args.a] if single else range(2, args.max + 1):
            hs = [args.h] if single else [_eval_h_token(token, a) for token in grid]
            work = sum(max(h, _REPORT_WORK) for h in hs)
            for b in [args.b] if single else range(2, args.max + 1):
                if single or math.gcd(a, b) == 1:
                    yield a, b, hs, work

    # The total work, which bounds every single h, is checked before any
    # instance is verified.
    total = 0
    for *_, work in instances():
        total += work
        if total > oracle.ORACLE_MAX_H:
            raise InvalidArgumentError(
                f"the oracle's total work (the sum of h) passes its limit of {oracle.ORACLE_MAX_H}"
            )
    checked = 0
    failed = 0
    for a, b, hs, _ in instances():
        for h in hs:
            checked += 1
            if not _verify_one(a, b, h):
                failed += 1
    print(f"verified {checked} instance(s), {failed} mismatch(es)")
    return 0 if failed == 0 else 1


def cmd_frobenius(args) -> int:
    # Every value is computed, and every input checked, before any is formatted.
    doc = {
        "a": args.a,
        "b": args.b,
        "nonrep_count": frob.nonrep_count(args.a, args.b),
        "nonrep_sum": frob.nonrep_sum(args.a, args.b),
    }
    if args.n is not None:
        doc["n"] = args.n
        doc["four_var_count"] = frob.four_var_count(args.a, args.b, args.n)
    doc = {key: _fmt(value) for key, value in doc.items()}
    if args.format == "json":
        print(json.dumps(doc))
    else:
        for key, value in doc.items():
            print(f"{key} = {value}")
    return 0


def _random_coprime(bits: int, rng: random.Random) -> tuple[int, int]:
    # bits >= 2, so a >= 2 and b >= 1.
    while True:
        a = rng.getrandbits(bits) | (1 << (bits - 1))
        b = rng.getrandbits(bits) | (1 << (bits - 1))
        if b < a and math.gcd(a, b) == 1:
            return a, b


def cmd_bench(args) -> int:
    try:
        bit_sizes = [_int_arg(tok) for tok in args.bits.split(",")]
    except argparse.ArgumentTypeError as exc:
        raise InvalidArgumentError(f"bad --bits entry: {exc}") from None
    if args.reps < 1 or any(bits < 2 for bits in bit_sizes):
        raise InvalidArgumentError("--reps must be >= 1 and all --bits >= 2")
    if args.reps * sum(bits**3 for bits in bit_sizes) > _BENCH_MAX_WORK:
        raise InvalidArgumentError(
            f"bench's work (reps times the sum of bits^3) passes its limit of {_BENCH_MAX_WORK}"
        )

    rng = random.Random(args.seed)
    rows = []
    mismatches = 0
    for bits in bit_sizes:
        for rep in range(args.reps):
            a, b = _random_coprime(bits, rng)
            h = rng.randrange(1, a)
            values = {}
            # Looked up at call time, so a replaced t1 or t2 is the one timed.
            for target, chain in (("t1", t1), ("t2", t2)):
                trace = Trace()
                start = time.perf_counter_ns()
                values[target] = chain(a, b, h, trace)
                nanos = time.perf_counter_ns() - start
                rows.append((bits, rep, args.seed, target, trace.total_steps(), nanos))

            if h <= oracle.ORACLE_MAX_H:
                start = time.perf_counter_ns()
                ref = oracle_report(Instance(a, b, h))
                oracle_nanos = time.perf_counter_ns() - start
                rows.append((bits, rep, args.seed, "oracle", h, oracle_nanos))
                if (ref.t1, ref.t2) != (values["t1"], values["t2"]):
                    mismatches += 1
                    print(f"MISMATCH vs oracle at bits={bits} rep={rep} a={a} b={b} h={h}",
                          file=sys.stderr)

    if args.format == "csv":
        print(",".join(_BENCH_COLUMNS))
        for row in rows:
            print(",".join(str(field) for field in row))
    else:
        print(json.dumps([dict(zip(_BENCH_COLUMNS, map(str, row))) for row in rows]))
    return 0 if mismatches == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once; each subcommand is run by cmd_<name>."""
    parser = argparse.ArgumentParser(
        prog="floorsums",
        description="Exact power sums of floors/remainders of i*b/a in log time.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute the requested sums for one instance")
    p.add_argument("--a", type=_int_arg, required=True)
    p.add_argument("--b", type=_int_arg, required=True)
    p.add_argument("--h", type=_int_arg, required=True)
    p.add_argument("--targets", help=f"comma-separated subset of {','.join(TARGETS)}")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--trace", action="store_true", help="include the recursion trace")

    p = sub.add_parser("verify", help="compare the fast paths against the brute-force oracle")
    p.add_argument("--a", type=_int_arg)
    p.add_argument("--b", type=_int_arg)
    p.add_argument("--h", type=_int_arg)
    p.add_argument("--max", type=_int_arg, help="sweep all coprime pairs 2 <= a,b <= MAX")
    p.add_argument("--h-grid", dest="h_grid",
                   help=f"comma-separated h expressions in a (default {','.join(DEFAULT_H_GRID)})")

    p = sub.add_parser("frobenius", help="nonrepresentable count/sum and 4-variable solution count")
    p.add_argument("--a", type=_int_arg, required=True)
    p.add_argument("--b", type=_int_arg, required=True)
    p.add_argument("--n", type=_int_arg)
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("bench", help="scaling benchmark of traced t1 and t2")
    p.add_argument("--bits", default="32,64,128", help="comma-separated bit sizes")
    p.add_argument("--reps", type=_int_arg, default=3)
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="csv")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Looked up at call time, so a replaced cmd_* is the one that runs.
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()
        return code
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader stopped early (say `| head -n 1`).  Output still buffered
        # goes to devnull, so that the interpreter's last flush cannot fail
        # again; no signal handler is installed, since callers may run main
        # in their own process.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
