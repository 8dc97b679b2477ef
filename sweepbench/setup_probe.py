"""Time one fresh interpreter from start to ready-to-run for a workload.

Run by ``run.py`` several times per benchmark run; prints one JSON line
``{"setup_s": ...}``: the time from this script's first statement through
``import repro``, the workload's in-process set-up (spec expansion, store
roots) and one tiny first call that finishes the program's lazy set-up.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--tmp", required=True, type=Path)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    workload = workloads.build(args.workload, smoke=args.smoke)
    args.tmp.mkdir(parents=True, exist_ok=True)
    workload.prepare(args.tmp)
    workload.first_call()
    print(json.dumps({"setup_s": time.perf_counter() - START}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
