"""Fuzz the CLI's argument surface: every input exits 0 or 2, never a traceback.

argparse rejects malformed arguments with SystemExit(2), which counts as
exit code 2.  Any other exception fails the test.  On exit 0, the
standard output of compute and frobenius must be one JSON document.
"""

import contextlib
import io
import json

from hypothesis import event, given, settings
from hypothesis import strategies as st

from floorsums.cli import TARGETS, main

# Inputs around the edges of every domain check, and values up to 2^600.
edge_ints = st.one_of(
    st.integers(-3, 40),
    st.integers(1, 2**600),
    st.integers(-(2**600), 0),
    st.sampled_from([2**64, 2**64 - 1, 2**512 + 1, 2**600]),
)
# The T2 chain takes seconds at 600 bits; the S chain only milliseconds.
S_TARGETS = ("q", "r", "r2", "t1", "s")
BAD_NAMES = ("", "bogus", "T1", " q")

fuzz = settings(max_examples=60, deadline=10_000)


def exit_code(argv, json_out=True):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), (argv, code, err.getvalue())
    if code == 0 and json_out:
        json.loads(out.getvalue())
    return code


@given(a=edge_ints, b=edge_ints, h=edge_ints, data=st.data())
@fuzz
def test_compute(a, b, h, data):
    # No --targets means all of them, so only small a may omit it.
    good = TARGETS if abs(a) < 2**96 else S_TARGETS
    names = st.lists(st.sampled_from(good), max_size=4) | st.lists(
        st.sampled_from(good + BAD_NAMES), max_size=4
    )
    targets = data.draw(st.none() | names if abs(a) < 2**96 else names)
    argv = ["compute", "--a", str(a), "--b", str(b), "--h", str(h)]
    if targets is not None:
        argv += ["--targets", ",".join(targets)]
    code = exit_code(argv)
    event(f"exit {code}")
    named = targets is None or (targets and not set(targets) & set(BAD_NAMES))
    if a >= 1 and b >= 0 and h >= 0 and named:
        assert code == 0


@given(a=edge_ints, b=edge_ints, h=st.integers(-3, 2000))
@fuzz
def test_verify(a, b, h):
    code = exit_code(["verify", "--a", str(a), "--b", str(b), "--h", str(h)], json_out=False)
    event(f"exit {code}")
    if a >= 1 and b >= 0 and h >= 0:
        assert code == 0


@given(a=edge_ints, b=edge_ints, n=st.none() | edge_ints)
@fuzz
def test_frobenius(a, b, n):
    argv = ["frobenius", "--a", str(a), "--b", str(b), "--format", "json"]
    if n is not None:
        argv += ["--n", str(n)]
    event(f"exit {exit_code(argv)}")


def test_malformed_arguments_exit_2():
    assert exit_code(["compute", "--a", "1.5", "--b", "2", "--h", "3"]) == 2
    assert exit_code(["compute", "--a", "0x10", "--b", "2", "--h", "3"]) == 2
    assert exit_code(["verify", "--max", "ten"], json_out=False) == 2
    assert exit_code(["frobenius", "--a", "3"]) == 2
    assert exit_code(["nonsense"]) == 2
