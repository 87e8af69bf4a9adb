"""Set-up time of one workload in a fresh process.

Prints the seconds from the first line of this script through importing
normpack and building and unit-volume-normalizing every body the workload
uses.  run.py starts it several times and reports the median as setup_s:

    python3 perfbench/setup_probe.py --workload mc_route_d2 --seed 1
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args()
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]
    import workloads

    workloads.WORKLOADS[args.workload](args.seed, toy=args.toy).setup()
    print(time.perf_counter() - T0)


if __name__ == "__main__":
    main()
