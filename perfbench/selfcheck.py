"""Show that the benchmark's output checks have teeth.

    python3 perfbench/selfcheck.py [--seed N]

Runs every workload once on the engine as it is and once per planted fault
(see ``child.plant_fault``).  The engine as it is must report no failed unit;
a fault must make every workload that runs the broken code report failed
units.  ``deriv`` breaks ``operators``, which only ``verify-all`` calls, so
the other two workloads must stay clean under it.  Exits 1 if any of this
does not hold.
"""

from __future__ import annotations

import argparse
import sys
import time

from run import HARD_LIMIT_S, WORKLOADS, run_child

# fault -> workloads that run the code it breaks
BREAKS = {
    "none": (),
    "h-sign": WORKLOADS,
    "deriv": ("verify-all",),
}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    ok = True
    for fault, broken in BREAKS.items():
        for workload in WORKLOADS:
            deadline = time.perf_counter() + HARD_LIMIT_S
            res = run_child(workload, args.seed, deadline, fault=fault)
            frac = res["failed"] / res["attempted"]
            good = (frac > 0) == (workload in broken)
            ok &= good
            print(f"{'ok ' if good else 'BAD'} fault {fault:7s} {workload:15s} "
                  f"ops_failed_frac {frac:.4f} ({res['failed']}/{res['attempted']})"
                  f"  {(res['first_error'] or '')[:100]}")
    print("self-check passed" if ok else "self-check FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
