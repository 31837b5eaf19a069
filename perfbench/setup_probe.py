"""One fresh-interpreter set-up measurement, started by run.py.

Usage: python3 -I perfbench/setup_probe.py WORKLOAD INPUT_JSON

Times importing floorsums and floorsums.cli and finishing one operation of
WORKLOAD on the given input, then runs calibration units for the machine's
current speed.  Prints: elapsed_ns units units_ns.
"""

import json
import sys
import time
from pathlib import Path

CALIBRATION_NS = 20_000_000


def main() -> int:
    start = time.perf_counter_ns()
    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    sys.path[:0] = [str(src), str(here)]
    import floorsums
    import floorsums.cli  # noqa: F401

    if not Path(floorsums.__file__).resolve().is_relative_to(src):
        print(f"floorsums imported from {floorsums.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    workloads.WORKLOADS[sys.argv[1]].run(tuple(json.loads(sys.argv[2])))
    elapsed = time.perf_counter_ns() - start
    import calibration

    units, spent = calibration.measure(CALIBRATION_NS)
    print(elapsed, units, spent)
    return 0


if __name__ == "__main__":
    sys.exit(main())
