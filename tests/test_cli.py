import dataclasses
import importlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest

from floorsums import (
    Instance,
    SumReport,
    cli,
    cross_sum,
    floor_sum,
    full_report,
    models,
    nonrep_count,
    nonrep_sum,
    oracle,
    square_sum,
)
from floorsums.cli import TARGETS, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Every single target, every pair and all nine.
TARGET_LISTS = [(t,) for t in TARGETS] + list(itertools.combinations(TARGETS, 2)) + [TARGETS]


# Python's default limit on int <-> str conversion, in decimal digits.
STR_DIGITS_LIMIT = 4300


def int_max_str_digits():
    # None on interpreters without the limit.
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def big_int(text):
    # int(text) refuses more than STR_DIGITS_LIMIT digits; Decimal does not.
    assert text.isdigit(), text[:40]
    return int(Decimal(text))


def parse_rational(text):
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


class TestCompute:
    def test_worked_example_json(self, capsys):
        code, out, _ = run(capsys, "compute", "--a", "8411", "--b", "2732", "--h", "1221")
        assert code == 0
        doc = json.loads(out)
        assert doc["normalized"] is False
        assert doc["sums"]["t2"] == "196956430"
        assert doc["sums"]["t3"] == "63853169"
        assert doc["sums"]["q"] == "241709"
        assert doc["sums"]["s"] == "658946167630/647"

    def test_targets_subset(self, capsys):
        code, out, _ = run(capsys, "compute", "--a", "5", "--b", "3", "--h", "4",
                           "--targets", "t1")
        assert code == 0
        doc = json.loads(out)
        assert doc["sums"] == {"t1": "6/5"}

    def test_zero_bound_all_zero(self, capsys):
        code, out, _ = run(capsys, "compute", "--a", "7", "--b", "3", "--h", "0")
        assert code == 0
        doc = json.loads(out)
        assert set(doc["sums"]) == {"q", "r", "r2", "t1", "t2", "t3", "ir", "qr", "s"}
        assert all(value == "0" for value in doc["sums"].values())

    def test_non_coprime_sets_normalized(self, capsys):
        code, out, _ = run(capsys, "compute", "--a", "4", "--b", "6", "--h", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["normalized"] is True
        assert doc["sums"]["q"] == "8"  # floor(3i/2) for i = 1..3

    def test_numbers_are_strings_and_round_trip(self, capsys):
        _, out, _ = run(capsys, "compute", "--a", "8411", "--b", "2732", "--h", "1221")
        doc = json.loads(out)
        for key in ("a", "b", "h"):
            assert isinstance(doc[key], str)
        assert all(isinstance(value, str) for value in doc["sums"].values())
        assert json.loads(json.dumps(doc)) == doc

    def test_trace_replays_to_headline_values(self, capsys):
        _, out, _ = run(capsys, "compute", "--a", "8411", "--b", "2732", "--h", "1221",
                        "--trace")
        doc = json.loads(out)
        assert doc["trace"]
        by_target = {}
        for step in doc["trace"]:
            by_target.setdefault(step["target"], Fraction(0))
            by_target[step["target"]] += parse_rational(step["contribution"])
        assert by_target["q"] == parse_rational(doc["sums"]["q"])
        assert by_target["s"] == parse_rational(doc["sums"]["s"])
        assert by_target["t2"] == parse_rational(doc["sums"]["t2"])

    def test_trace_rows_keep_nested_walks_as_children(self, capsys):
        _, out, _ = run(capsys, "compute", "--a", "13", "--b", "5", "--h", "11",
                        "--targets", "t2", "--trace")
        rows = json.loads(out)["trace"]
        assert [len(row["children"]) for row in rows] == [9, 0, 7, 0, 5, 0, 0]

        def tree(rows):
            for row in rows:
                yield row
                yield from tree(row["children"])

        assert sum(1 for _ in tree(rows)) == 28
        assert all(set(row) == set(rows[0]) and row["target"] == "t2" for row in tree(rows))
        # The first step's children are the Q(5,13;4) then S(13,5;11) walks.
        hp = int(rows[0]["derived"]["h_prime"])
        assert sum(parse_rational(row["contribution"]) for row in rows[0]["children"]) == (
            floor_sum(Instance(5, 13, hp)) + square_sum.s_value(13, 5, 11)
        )

    def test_results_past_the_str_digits_limit(self, capsys):
        # Inputs of about 3,000 digits, Q of about 6,000.
        a, b = 3**6309, 2**9990 + 1
        limit = int_max_str_digits()
        code, out, err = run(capsys, "compute", "--a", str(a), "--b", str(b), "--h", str(b),
                             "--targets", "q")
        assert (code, err) == (0, "")
        q = json.loads(out)["sums"]["q"]
        assert len(q) > STR_DIGITS_LIMIT
        assert big_int(q) == floor_sum(Instance(a, b, b))
        assert int_max_str_digits() == limit

    def test_input_past_the_str_digits_limit_exits_2(self, capsys):
        if int_max_str_digits() is None:
            pytest.skip("this interpreter has no int <-> str digit limit")
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--a", "7" * (STR_DIGITS_LIMIT + 1), "--b", "3", "--h", "4"])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_input_past_the_str_digits_limit_is_named_in_one_short_line(self, capsys):
        if int_max_str_digits() is None:
            pytest.skip("this interpreter has no int <-> str digit limit")
        text = "7" * 4393
        with pytest.raises(SystemExit) as exc:
            main(["compute", "--a", text, "--b", "3", "--h", "4"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len(err) < 400, err[:400]
        last = err.strip().splitlines()[-1]
        assert "--a" in last and "4393" in last and str(int_max_str_digits()) in last

    def test_text_trace_prints_every_json_row(self, capsys):
        argv = ["compute", "--a", "13", "--b", "5", "--h", "11", "--targets", "t2", "--trace"]
        _, out, _ = run(capsys, *argv)

        def tree(rows, depth):
            for row in rows:
                yield depth, row
                yield from tree(row["children"], depth + 1)

        rows = list(tree(json.loads(out)["trace"], 0))
        _, text, _ = run(capsys, *argv, "--format", "text")
        lines = [line for line in text.splitlines() if line.startswith("# ")]
        assert len(lines) == len(rows) == 28
        for line, (depth, row) in zip(lines, rows):
            # Each child two spaces deeper than its parent.
            assert line.startswith("# " + "  " * depth + f"[t2] {row['rule']} a={row['a']} ")
            assert line.endswith(f"contribution={row['contribution']}")

    def test_q_alone_is_traced(self, capsys):
        _, out, _ = run(capsys, "compute", "--a", "7", "--b", "3", "--h", "5",
                        "--targets", "q", "--trace")
        doc = json.loads(out)
        assert doc["sums"] == {"q": "4"}
        assert doc["trace"] and {step["target"] for step in doc["trace"]} == {"q"}
        assert sum(parse_rational(step["contribution"]) for step in doc["trace"]) == 4

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "compute", "--a", "5", "--b", "3", "--h", "4",
                           "--format", "text", "--targets", "q,t1")
        assert code == 0
        assert "q = 4" in out
        assert "t1 = 6/5" in out

    def test_closed_pipe_exits_141_with_an_empty_stderr(self, capsys):
        # A reader that stops after one line, as `| head -n 1` does, while the
        # 256-bit traced t2 still has about 11 MB of text to write.
        rng = random.Random(256)
        a = rng.getrandbits(256) | 1 << 255
        argv = ["compute", "--a", str(a), "--b", str(rng.randrange(1, a)), "--h", str(rng.randrange(a)),
                "--targets", "t2", "--format", "text", "--trace"]
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.Popen([sys.executable, "-m", "floorsums.cli", *argv], env=dict(os.environ, PYTHONPATH=src),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (141, b"")
        # The same first line as the untraced text, which the trace follows.
        assert first.decode().rstrip("\n") == run(capsys, *argv[:-1])[1].splitlines()[0]

    def test_invalid_input_exits_2(self, capsys):
        assert run(capsys, "compute", "--a", "0", "--b", "3", "--h", "4")[0] == 2
        assert run(capsys, "compute", "--a", "5", "--b", "3", "--h", "4",
                   "--targets", "bogus")[0] == 2

    def test_every_target_list_matches_full_report(self, capsys):
        # Non-coprime inputs, b = 0, a = 1, b >= a and h >= a, then seeded
        # 64-bit instances.
        cases = [
            (a, b, h)
            for a in (1, 2, 6, 7)
            for b in (0, 1, 4, 9, 14)
            for h in sorted({0, 1, a // 2, a - 1, a, 3 * a + 2})
        ]
        rng = random.Random(64)
        for _ in range(2):
            a = rng.getrandbits(64) | (1 << 63)
            cases.append((a, rng.randrange(3 * a), rng.randrange(3 * a)))
        for a, b, h in cases:
            report = full_report(Instance(a, b, h))
            fields = {key: getattr(report, field) for key, (field, _) in models._TARGETS.items()}
            for targets in TARGET_LISTS:
                code, out, _ = run(capsys, "compute", "--a", str(a), "--b", str(b), "--h", str(h),
                                   "--targets", ",".join(targets))
                assert code == 0
                expected = {target: cli._fmt(fields[target]) for target in targets}
                assert json.loads(out)["sums"] == expected, (a, b, h, targets)

    def test_target_table_follows_sum_report(self):
        fields = [field for field, _ in models._TARGETS.values()]
        assert fields == [field.name for field in dataclasses.fields(SumReport)[1:]]

    def test_each_chain_runs_at_most_once(self, capsys, monkeypatch):
        # Counts the outermost calls of each chain, through every module name
        # it can be called by; the chains' own nested calls are not counted.
        # The chains that run are exactly those the target table names.
        table_name = {"floor_sum": "q", "s_value": "s", "t2": "t2"}
        calls = Counter()
        depth = [0]

        def counting(name, chain):
            def wrapper(*args, **kwargs):
                if depth[0] == 0:
                    calls[name] += 1
                depth[0] += 1
                try:
                    return chain(*args, **kwargs)
                finally:
                    depth[0] -= 1
            return wrapper

        floor_sum_module = importlib.import_module("floorsums.floor_sum")
        for module in (cli, cross_sum, square_sum, floor_sum_module):
            for name in ("floor_sum", "s_value", "t2"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        for targets in [None] + TARGET_LISTS:
            for trace in ((), ("--trace",)):
                calls.clear()
                argv = ["compute", "--a", "8411", "--b", "2732", "--h", "1221", *trace]
                if targets is not None:
                    argv += ["--targets", ",".join(targets)]
                assert run(capsys, *argv)[0] == 0
                assert max(calls.values()) == 1, (targets, calls)
                wanted = {chain for target in targets or TARGETS
                          for chain in models._TARGETS[target][1]}
                assert {table_name[name] for name in calls} == wanted, (targets, calls)
                if targets is None:
                    assert calls == {"floor_sum": 1, "s_value": 1, "t2": 1}


class TestVerify:
    def test_regression_case(self, capsys):
        assert run(capsys, "verify", "--a", "7", "--b", "3", "--h", "1")[0] == 0

    def test_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "--max", "12")
        assert code == 0
        assert "0 mismatch" in out

    def test_non_coprime_normalized(self, capsys):
        assert run(capsys, "verify", "--a", "4", "--b", "6", "--h", "3")[0] == 0

    def test_custom_h_grid(self, capsys):
        assert run(capsys, "verify", "--max", "8", "--h-grid", "0,a,3*a+1")[0] == 0

    def test_missing_flags_exit_2(self, capsys):
        assert run(capsys, "verify", "--a", "7")[0] == 2
        assert run(capsys, "verify")[0] == 2

    def test_h_grid_with_a_single_instance_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--a", "5", "--b", "3", "--h", "4", "--h-grid", "a")
        assert (code, out) == (2, "")
        assert "--h-grid" in err

    def test_zero_divisor_in_h_grid_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--max", "5", "--h-grid", "a//0")
        assert code == 2
        assert "divides by zero" in err

    def test_long_bad_h_grid_token_is_named_in_one_short_line(self, capsys):
        # A literal past Python's digit limit (a syntax error for ast) and a
        # sum nested past the recursion limit are both named by their length.
        for token in ("7" * 4400, "+".join(["1"] * 2000)):
            code, out, err = run(capsys, "verify", "--max", "5", "--h-grid", token)
            assert (code, out) == (2, "")
            assert len(err.encode()) < 200 and err.count("\n") == 1, err[:200]
            assert str(len(token)) in err

    def test_max_below_2_exits_2(self, capsys):
        for bound in ("-5", "0", "1"):
            code, out, _ = run(capsys, "verify", "--max", bound)
            assert code == 2
            assert "verified" not in out

    def test_h_above_oracle_limit_exits_2(self, capsys):
        code, out, err = run(capsys, "verify", "--a", "3", "--b", "2", "--h", "1000000000000")
        assert code == 2
        assert "oracle" in err
        assert "verified" not in out
        code, out, err = run(capsys, "verify", "--max", "5", "--h-grid", "0,a*100000000000")
        assert code == 2
        assert "oracle" in err
        assert out == ""

    def test_oracle_limit_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "ORACLE_MAX_H", 120)
        assert run(capsys, "verify", "--a", "7", "--b", "3", "--h", "120")[0] == 0
        assert run(capsys, "verify", "--a", "7", "--b", "3", "--h", "121")[0] == 2
        # --max 4 checks (2,3), (3,2), (3,4), (4,3): h = 50a sums to 600.
        monkeypatch.setattr(oracle, "ORACLE_MAX_H", 600)
        assert run(capsys, "verify", "--max", "4", "--h-grid", "a*50")[0] == 0
        assert run(capsys, "verify", "--max", "5", "--h-grid", "a*50")[0] == 2
        monkeypatch.setattr(oracle, "ORACLE_MAX_H", 599)
        assert run(capsys, "verify", "--max", "4", "--h-grid", "a*50")[0] == 2


    def test_huge_max_exits_2_before_verifying(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--max", "1000000000")
        assert time.perf_counter() - start < 15
        assert code == 2
        assert "total work" in err
        assert out == ""

    def test_total_oracle_work_limit_is_inclusive(self, capsys, monkeypatch):
        # --max 4 checks (2,3), (3,2), (3,4), (4,3): h = 50a sums to
        # 100+150+150+200 = 600, and every h below 100 costs 100, the price of
        # its full_report.
        monkeypatch.setattr(oracle, "ORACLE_MAX_H", 600)
        assert run(capsys, "verify", "--max", "4", "--h-grid", "a*50")[0] == 0
        assert run(capsys, "verify", "--max", "4", "--h-grid", "a*50,0")[0] == 2
        monkeypatch.setattr(oracle, "ORACLE_MAX_H", 599)
        assert run(capsys, "verify", "--max", "4", "--h-grid", "a*50")[0] == 2
        monkeypatch.setattr(oracle, "ORACLE_MAX_H", 400)
        assert run(capsys, "verify", "--max", "4", "--h-grid", "0")[0] == 0
        assert run(capsys, "verify", "--max", "4", "--h-grid", "a")[0] == 0
        monkeypatch.setattr(oracle, "ORACLE_MAX_H", 399)
        assert run(capsys, "verify", "--max", "4", "--h-grid", "0")[0] == 2
        monkeypatch.setattr(oracle, "ORACLE_MAX_H", 100)
        assert run(capsys, "verify", "--a", "7", "--b", "3", "--h", "4")[0] == 0
        assert run(capsys, "verify", "--a", "7", "--b", "3", "--h", "100")[0] == 0
        code, out, err = run(capsys, "verify", "--a", "7", "--b", "3", "--h", "101")
        assert code == 2
        assert "total work" in err
        assert out == ""

    def test_zero_h_sweep_is_charged_for_its_reports(self, capsys):
        # About 5.5 million coprime pairs at 100 units each; charged 1 unit
        # per instance, this sweep would pass and run for about ten minutes.
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--max", "3000", "--h-grid", "0")
        assert time.perf_counter() - start < 15
        assert code == 2
        assert "total work" in err
        assert out == ""

    def test_largest_accepted_sweeps(self, capsys, monkeypatch):
        # --max 406 has 99,496 coprime pairs, --max 407 has 100,214: at 100
        # units each only the first fits the limit of 10^7.
        monkeypatch.setattr(cli, "_verify_one", lambda a, b, h: True)
        code, out, _ = run(capsys, "verify", "--max", "406", "--h-grid", "0")
        assert code == 0
        assert out == "verified 99496 instance(s), 0 mismatch(es)\n"
        assert run(capsys, "verify", "--max", "407", "--h-grid", "0")[0] == 2
        assert run(capsys, "verify", "--max", "155")[0] == 0
        assert run(capsys, "verify", "--max", "156")[0] == 2


class TestFrobenius:
    def test_summary(self, capsys):
        code, out, _ = run(capsys, "frobenius", "--a", "3", "--b", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["nonrep_count"] == "4"
        assert doc["nonrep_sum"] == "14"

    def test_with_n(self, capsys):
        code, out, _ = run(capsys, "frobenius", "--a", "2", "--b", "3", "--n", "5")
        assert json.loads(out)["four_var_count"] == "16"
        assert code == 0

    def test_results_past_the_str_digits_limit(self, capsys):
        a, b = 60001, 3**6309
        limit = int_max_str_digits()
        code, out, err = run(capsys, "frobenius", "--a", str(a), "--b", str(b))
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert len(doc["nonrep_sum"]) > STR_DIGITS_LIMIT
        assert big_int(doc["nonrep_count"]) == nonrep_count(a, b)
        assert big_int(doc["nonrep_sum"]) == nonrep_sum(a, b)
        assert int_max_str_digits() == limit

    def test_trivial_a1(self, capsys):
        code, out, _ = run(capsys, "frobenius", "--a", "1", "--b", "9")
        assert json.loads(out)["nonrep_count"] == "0"
        assert code == 0

    def test_out_of_domain_exits_2(self, capsys):
        assert run(capsys, "frobenius", "--a", "2", "--b", "3", "--n", "7")[0] == 2

    def test_far_below_the_frobenius_number_exits_2(self, capsys):
        # n = g // 2 with g = ab - a - b: both sides of g are long.  The loop
        # would run about 2^39 rounds, for days; or about 30,000 rounds on
        # 157-word (10,000-bit) numbers, where a round costs more per word
        # than on small ones, for about 4 s.
        for a, b in ((2**40 + 1, 2**40), (60001, 3**6309)):
            start = time.perf_counter()
            code, out, err = run(capsys, "frobenius", "--a", str(a), "--b", str(b),
                                 "--n", str((a * b - a - b) // 2))
            assert time.perf_counter() - start < 1
            assert code == 2 and out == ""
            assert "loop limit" in err

    def test_far_below_the_frobenius_number_counts_from_0(self, capsys):
        for a, b in ((2**40 + 1, 2**40), (60001, 3**6309)):
            start = time.perf_counter()
            code, out, _ = run(capsys, "frobenius", "--a", str(a), "--b", str(b), "--n", "0")
            assert time.perf_counter() - start < 1
            assert code == 0
            assert json.loads(out)["four_var_count"] == "1"

    def test_tail_round_limit_is_inclusive(self, capsys, monkeypatch):
        # a=11, b=7, n=29: g = 77 - 11 - 7 = 59 and m = g - n - 1 = 29, so
        # either side takes 29 // 11 + 1 = 3 rounds on one-word numbers.
        frobenius = importlib.import_module("floorsums.frobenius")
        monkeypatch.setattr(frobenius, "_MAX_TAIL_WORK", 3)
        code, out, _ = run(capsys, "frobenius", "--a", "11", "--b", "7", "--n", "29")
        assert code == 0
        assert json.loads(out)["four_var_count"] == "125"
        monkeypatch.setattr(frobenius, "_MAX_TAIL_WORK", 2)
        assert run(capsys, "frobenius", "--a", "11", "--b", "7", "--n", "29")[0] == 2
        assert run(capsys, "frobenius", "--a", "7", "--b", "11", "--n", "29")[0] == 2
        # n = 0 and n = 58 have one short side (1 round) and one long side
        # (58 // 11 + 1 = 6 rounds): a limit of one round answers both.
        monkeypatch.setattr(frobenius, "_MAX_TAIL_WORK", 1)
        for n, count in (("0", "1"), ("58", "675")):
            for a, b in (("11", "7"), ("7", "11")):
                code, out, _ = run(capsys, "frobenius", "--a", a, "--b", b, "--n", n)
                assert code == 0
                assert json.loads(out)["four_var_count"] == count


class TestBench:
    def test_deterministic_for_fixed_seed(self, capsys):
        _, out1, _ = run(capsys, "bench", "--bits", "8", "--reps", "1", "--seed", "42")
        _, out2, _ = run(capsys, "bench", "--bits", "8", "--reps", "1", "--seed", "42")
        # Timing columns differ; everything else must match.
        strip = lambda text: [line.rsplit(",", 1)[0] for line in text.splitlines()]
        assert strip(out1) == strip(out2)

    def test_csv_schema(self, capsys):
        code, out, _ = run(capsys, "bench", "--bits", "16", "--reps", "3", "--seed", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "bits,rep,seed,target,steps,nanos"
        targets = {line.split(",")[3] for line in lines[1:]}
        assert {"t1", "t2", "oracle"} <= targets  # oracle runs: h <= 1e6 at 16 bits

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "bench", "--bits", "8", "--reps", "2", "--seed", "3",
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert all(isinstance(row["steps"], str) for row in rows)

    def test_oracle_rows_follow_the_oracle_limit(self, capsys, monkeypatch):
        def oracle_hs():
            out = run(capsys, "bench", "--bits", "16", "--reps", "3", "--seed", "1")[1]
            rows = [line.split(",") for line in out.splitlines()[1:]]
            return sorted(int(row[4]) for row in rows if row[3] == "oracle")

        hs = oracle_hs()
        assert len(hs) == 3
        monkeypatch.setattr(oracle, "ORACLE_MAX_H", hs[1])
        assert oracle_hs() == hs[:2]
        monkeypatch.setattr(oracle, "ORACLE_MAX_H", hs[0] - 1)
        assert oracle_hs() == []

    def test_bad_flags_exit_2(self, capsys):
        assert run(capsys, "bench", "--bits", "nope")[0] == 2
        assert run(capsys, "bench", "--bits", "8", "--reps", "0")[0] == 2

    def test_long_bad_bits_entry_is_named_in_one_short_line(self, capsys):
        for bits in ("7" * 4400, "8," + "x" * 4400):
            code, out, err = run(capsys, "bench", "--bits", bits)
            assert (code, out) == (2, "")
            assert len(err.encode()) < 200 and err.count("\n") == 1, err[:200]
            assert "4400" in err

    def test_huge_bits_exit_2_before_timing(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "bench", "--bits", "100000", "--reps", "1")
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert "work" in err

    def test_work_limit_admits_the_default_and_one_1024_bit_instance(self):
        assert 3 * (32**3 + 64**3 + 128**3) <= cli._BENCH_MAX_WORK
        assert 1024**3 <= cli._BENCH_MAX_WORK

    def test_work_limit_is_inclusive(self, capsys, monkeypatch):
        # --bits 8,16 --reps 2 costs 2 * (8^3 + 16^3) = 9216.
        argv = ("bench", "--bits", "8,16", "--reps", "2", "--seed", "1")
        monkeypatch.setattr(cli, "_BENCH_MAX_WORK", 9216)
        assert run(capsys, *argv)[0] == 0
        monkeypatch.setattr(cli, "_BENCH_MAX_WORK", 9215)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "9215" in err


# Every argument is within Python's digit limit, but each error names a
# value of thousands of digits; the last one's a*b has 8,001, past the limit
# for str() itself.
LONG_VALUE_ARGVS = {
    "compute-a": ("compute", "--a", "-1" + "0" * 4299, "--b", "1", "--h", "1"),
    "compute-targets": ("compute", "--a", "5", "--b", "3", "--h", "4", "--targets", "x" * 5000),
    "verify-max": ("verify", "--max", "-1" + "0" * 4299),
    "frobenius-non-coprime": ("frobenius", "--a", "1" + "0" * 4000, "--b", "2" + "0" * 4000),
    "frobenius-tail-limit": ("frobenius", "--a", "1" + "0" * 2149 + "1", "--b", "1" + "0" * 2150,
                             "--n", "9" + "0" * 4299),
    "frobenius-out-of-domain": ("frobenius", "--a", "1" + "0" * 3999 + "1",
                                "--b", "1" + "0" * 3999 + "3", "--n", "-1"),
}


@pytest.mark.parametrize("argv", LONG_VALUE_ARGVS.values(), ids=LONG_VALUE_ARGVS.keys())
def test_long_value_is_named_in_one_short_line(capsys, argv):
    if int_max_str_digits() is None:
        pytest.skip("this interpreter has no int <-> str digit limit")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.encode()) < 200 and err.count("\n") == 1, err[:200]
