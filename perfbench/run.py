"""Closed-loop benchmark of floorsums: one client in one process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload report-64 --seed 1 --seconds 20 --trace 0

The program is imported from the checkout's ``src/``; the run aborts if it
resolves anywhere else.  Each operation waits for the previous one, and
every output is checked exactly by ``checker`` outside the timed region.

--trace 0 measures the end-to-end metrics.  Their times are scaled to a
reference machine speed: after the operations, outside their timing,
``calibration`` units take a fifth as long again, and each second of
operations is scaled by the speed its units measured.  This cancels the
drift of a shared machine; the wall-clock values are printed as "wall.*".

--trace 1 measures the per-layer metrics, in wall-clock time: two cProfile
count passes (counts only, which must repeat exactly), a pass that reads
recursion-step counts from ``Trace`` objects, and a loop that runs each
input once untraced and once under the span wrappers, so the tracing
overhead is reported next to the traced numbers.

Standard output: a table of every metric with its unit, an ``env`` line
with the environment stamp, and, as the last line, the result as JSON with
the keys correct, attempted, failed and metrics.
"""

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

POOL_SIZE = 2048  # inputs made per run; the loop cycles through them
WARMUP_OPS = 3
SETUP_PROBES = 11  # fresh interpreters per setup_s, after one discarded
CALIBRATION_SHARE = 0.2  # calibration time per unit of timed operation time
MAX_FAILURE_REPORTS = 5


class ProgramMissing(Exception):
    pass


def import_program():
    """Import floorsums from this checkout's src/, or raise ProgramMissing."""
    sys.path.insert(0, str(SRC))
    try:
        import floorsums
        import floorsums.cli  # noqa: F401
    except ImportError as exc:
        raise ProgramMissing(f"cannot import floorsums from {SRC}: {exc}") from None
    if not Path(floorsums.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ProgramMissing(f"floorsums resolved to {floorsums.__file__}, outside {SRC}")
    return floorsums


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; failed operations enter as +inf."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


class Runner:
    """Runs and checks operations of one workload and tallies the outcomes."""

    def __init__(self, workload, check, pool):
        self.workload = workload
        self.pool = pool
        self.expected_of, self.observed_of = check
        self.expected = {}
        self.attempted = 0
        self.failed = 0

    def fail(self, inp, reason: str):
        self.failed += 1
        if self.failed <= MAX_FAILURE_REPORTS:
            print(f"FAILED {self.workload.name} input={inp}: {reason}", file=sys.stderr)

    def run_op(self, index: int, recorder=None) -> tuple[int, bool]:
        """Time one operation on pool input `index`, then check its output.

        With a span recorder the operation runs traced; the library is
        patched only around the call, so checking is never traced.  Returns
        (nanoseconds, correct).
        """
        key = index % len(self.pool)
        inp = self.pool[key]
        run = self.workload.run
        self.attempted += 1
        with recorder.patched() if recorder else contextlib.nullcontext():
            start = time.perf_counter_ns()
            try:
                out = recorder.op(run, inp) if recorder else run(inp)
            except Exception:  # the program failed this operation; count it
                elapsed = time.perf_counter_ns() - start
                self.fail(inp, traceback.format_exc())
                return elapsed, False
            elapsed = time.perf_counter_ns() - start
        try:
            if key not in self.expected:
                self.expected[key] = self.expected_of(inp)
            ok = self.observed_of(out) == self.expected[key]
        except Exception:  # an unreadable output is a rejected one
            ok = False
        if not ok:
            self.fail(inp, f"output rejected: {out!r}"[:2000])
        return elapsed, ok


def closed_loop(seconds: float, step) -> tuple[int, int]:
    """Call step(index) for index = 0, 1, ... until the time it reports reaches `seconds`.

    Returns the number of steps and the nanoseconds they reported.  A
    wall-clock cap ends a loop whose checking between operations takes far
    longer than the operations themselves.
    """
    budget = seconds * 1e9
    wall_end = time.monotonic() + 3 * seconds + 30
    measured = index = 0
    while measured < budget and time.monotonic() < wall_end:
        measured += step(index)
        index += 1
    return index, measured


def setup_seconds(runner) -> tuple[float, float]:
    """Median time for a fresh interpreter to import floorsums and floorsums.cli
    and finish one operation, at the reference speed and on the wall clock.

    Probe k gets pool input k, made beforehand, and calibrates the speed of
    its own process after the measurement.
    """
    scaled, wall = [], []
    for k in range(SETUP_PROBES + 1):
        inp = runner.pool[k]
        runner.attempted += 1
        proc = subprocess.run(
            [sys.executable, "-I", str(HERE / "setup_probe.py"), runner.workload.name,
             json.dumps(inp)],
            capture_output=True, text=True, timeout=60, cwd=ROOT, check=False,
        )
        if proc.returncode != 0:
            runner.fail(inp, f"set-up probe exited {proc.returncode}: {proc.stderr[-2000:]}")
        elif k:
            elapsed_ns, units, spent_ns = map(int, proc.stdout.split()[-3:])
            scaled.append(elapsed_ns * calibration.speed_factor(units, spent_ns) / 1e9)
            wall.append(elapsed_ns / 1e9)
    if not scaled:
        raise RuntimeError("every set-up probe failed")
    return statistics.median(scaled), statistics.median(wall)


def end_to_end(runner, seconds: float) -> dict:
    """End-to-end metrics; times are at the reference speed, with wall-clock
    versions under "wall." for the table."""
    samples = []  # (wall_ns, calibration units, their ns) per operation
    oks = []
    debt = [0.0]

    def step(index):
        elapsed, ok = runner.run_op(index)
        debt[0] += CALIBRATION_SHARE * elapsed
        units = spent = 0
        if debt[0] > 0:
            units, spent = calibration.measure(debt[0])
            debt[0] -= spent
        samples.append((elapsed, units, spent))
        oks.append(ok)
        return elapsed

    setup_s, wall_setup_s = setup_seconds(runner)
    failed_before = runner.failed
    ops, _ = closed_loop(seconds, step)
    scaled = calibration.at_reference_speed(samples)
    ok_count = sum(oks)
    beyond_p90 = ops - math.ceil(0.9 * ops)
    print(f"# {ops} timed operations, {beyond_p90} beyond p90, "
          f"{sum(s[0] for s in samples) / 1e9:.3f} s timed, "
          f"{sum(s[2] for s in samples) / 1e9:.3f} s calibrating")
    if beyond_p90 < 10:
        print("# warning: fewer than 10 samples beyond p90; raise --seconds", file=sys.stderr)

    def latency_metrics(times, prefix=""):
        latencies = [t if ok else math.inf for t, ok in zip(times, oks)]
        return {
            f"{prefix}ops_per_s": (ok_count / (sum(times) / 1e9), "1/s"),
            f"{prefix}latency_p50_ms": (percentile(latencies, 0.5) / 1e6, "ms"),
            f"{prefix}latency_p90_ms": (percentile(latencies, 0.9) / 1e6, "ms"),
        }

    wall_times = [s[0] for s in samples]
    return {
        **latency_metrics(scaled),
        "error_rate": ((runner.failed - failed_before) / ops, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        **latency_metrics(wall_times, "wall."),
        "wall.setup_s": (wall_setup_s, "s"),
        "speed_factor": (sum(scaled) / sum(wall_times), "ratio"),
    }


def per_layer(runner, seconds: float, seed: int) -> tuple[dict, bool]:
    """Per-layer metrics and whether the two count passes agreed exactly."""
    import tracing

    run = runner.workload.run
    inputs = runner.pool[:runner.workload.count_ops]
    counts = tracing.count_pass(run, inputs)
    repeat = tracing.count_pass(run, inputs)
    if counts != repeat:
        print("FAILED count passes disagree for the same inputs", file=sys.stderr)
    steps = tracing.step_pass(run, inputs)

    recorder = tracing.SpanRecorder()
    total_ns = {True: 0, False: 0}

    def step(index):
        elapsed_sum = 0
        for traced in ((True, False) if index % 2 else (False, True)):
            elapsed, _ = runner.run_op(index, recorder if traced else None)
            total_ns[traced] += elapsed
            elapsed_sum += elapsed
        return elapsed_sum

    pairs, _ = closed_loop(seconds, step)
    times = recorder.op_layer_times()
    print(f"# {pairs} untraced/traced pairs, {len(recorder.spans)} spans, "
          f"{len(inputs)} operations per count pass")

    metrics = {}
    for layer in tracing.SPAN_LAYERS:
        for kind in ("busy", "self") if layer in tracing.SELF_TIME_LAYERS else ("busy",):
            per_op = [t[kind][layer] for t in times]
            metrics[f"{layer}.{kind}_ms"] = (statistics.median(per_op) / 1e6, "ms")
    for rows in (counts, steps):
        for name in rows[0]:
            metrics[name] = (statistics.median_low(row[name] for row in rows), "count")
    untraced_s, traced_s = total_ns[False] / 1e9, total_ns[True] / 1e9
    metrics["trace.untraced_ops_per_s"] = (pairs / untraced_s, "1/s")
    metrics["trace.traced_ops_per_s"] = (pairs / traced_s, "1/s")
    metrics["trace.overhead_pct"] = ((traced_s / untraced_s - 1) * 100, "%")
    metrics["trace.spans_per_op"] = (statistics.median(t["spans"] for t in times), "count")

    OUT.mkdir(exist_ok=True)
    origin = recorder.spans[0][2] if recorder.spans else 0
    with open(OUT / f"spans-{runner.workload.name}-seed{seed}.json", "w") as fh:
        json.dump({
            "fields": ["name", "layer", "start_ns", "end_ns", "parent", "op"],
            "spans": [[n, l, s - origin, e - origin, p, o] for n, l, s, e, p, o in recorder.spans],
        }, fh)
    return metrics, counts == repeat


def env_stamp(floorsums, load_before) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "rational_backend": floorsums.numeric._Q.__module__,
        "floorsums_file": str(Path(floorsums.__file__).resolve().relative_to(ROOT)),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }


def main(argv=None) -> int:
    load_before = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        floorsums = import_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import checker
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    problems = checker.self_test()
    for problem in problems[:MAX_FAILURE_REPORTS]:
        print(f"FAILED checker self-test: {problem}", file=sys.stderr)

    rng = random.Random(f"{workload.name}/{args.seed}")
    pool = [workload.make_input(rng) for _ in range(POOL_SIZE)]
    runner = Runner(workload, checker.CHECKS[workload.name], pool)
    for index in range(WARMUP_OPS):
        runner.run_op(POOL_SIZE - 1 - index)
    gc.collect()

    if args.trace:
        metrics, repeatable = per_layer(runner, args.seconds, args.seed)
    else:
        metrics, repeatable = end_to_end(runner, args.seconds), True

    width = max(map(len, metrics))
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")
    print("env " + json.dumps({"workload": workload.name, "seed": args.seed,
                               "seconds": args.seconds, "trace": args.trace,
                               **env_stamp(floorsums, load_before)}))
    # The result carries the metrics BENCHMARK.json names; error_rate is
    # carried by attempted and failed.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": runner.failed == 0 and not problems and repeatable,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
