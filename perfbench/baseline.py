"""Run the benchmark on several seeds per workload and summarise the spread.

Run from the root of a checkout:

    python3 perfbench/baseline.py --runs 10 --trace 0 --out perfbench/baseline.json

For every workload and metric it records the median of the runs, the first
and third quartile (``statistics.quantiles(values, n=4)``) and their distance
as a share of the median, which is the spread a metric's bound is compared
with.  Seeds are 1..runs and each run lasts BENCHMARK.json's run_seconds.
Runs go one at a time; each must report correct=true.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600, check=False,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    return result, env


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "runs": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    doc = {"runs": args.runs, "seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        results, envs = zip(*(run_once(workload, seed, spec["run_seconds"], args.trace)
                              for seed in range(1, args.runs + 1)))
        if not all(r["correct"] for r in results):
            raise RuntimeError(f"{workload}: a run reported correct=false")
        metrics = {name: summarise([r["metrics"][name]["value"] for r in results])
                   for name in results[0]["metrics"]}
        for name, summary in metrics.items():
            summary["unit"] = results[0]["metrics"][name]["unit"]
            print(f"{workload:15s} {name:28s} median {summary['median']:<12.6g} "
                  f"spread {summary['spread'] if summary['spread'] is not None else 'n/a'}")
        attempted, failed = sum(r["attempted"] for r in results), sum(r["failed"] for r in results)
        print(f"{workload:15s} {'error_rate':28s} {failed / attempted} ({failed} of {attempted})")
        doc["workloads"][workload] = {
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
            "env": {key: envs[0][key] for key in
                    ("python", "implementation", "rational_backend", "nproc", "cpus_usable")},
            "loadavg_before": [env["loadavg_before"] for env in envs],
        }
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
