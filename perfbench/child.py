"""One workload run in a fresh interpreter, started by run.py.

It imports shefferpoly cold, builds the workload's inputs from the seed,
times the workload's work, optionally traced or with a planted fault, then
checks the outputs outside the timed interval and prints one JSON line.

    PYTHONPATH=src python3 perfbench/child.py --workload expand-catalog --seed 1
"""

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import shefferpoly

FAULTS = ("none", "h-sign", "deriv")


def plant_fault(name: str) -> None:
    """Break the engine on purpose, to show the output checks can fail.

    h-sign: negate the first nonzero coefficient of H beyond t^1 in every
    resolved pair.  deriv: d/dv multiplies by k + 1 instead of k.
    """
    from shefferpoly import operators, pairs
    from shefferpoly.series import Series

    if name == "h-sign":
        resolved = pairs.ShefferPair.resolved

        def flipped(self, order):
            res = resolved(self, order)
            H = list(res.H.coeffs)
            k = next((i for i in range(2, len(H)) if H[i]), None)
            if k is not None:
                H[k] = -H[k]
            return pairs.ResolvedPair(res.g, res.f, Series(H, res.H.order), res.A)

        pairs.ShefferPair.resolved = flipped
    elif name == "deriv":
        def off_by_one(self, p):
            out = {}
            for e, c in p.terms.items():
                k = e[self.index]
                if k:
                    e2 = list(e)
                    e2[self.index] = k - 1
                    out[tuple(e2)] = c * (k + 1)
            return shefferpoly.MultiPoly._raw(out)

        operators.Deriv.apply = off_by_one


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", type=int, choices=(0, 1), default=1,
                    help="run the independent output checks")
    ap.add_argument("--fault", choices=FAULTS, default="none")
    ap.add_argument("--spans", help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(shefferpoly.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"shefferpoly imported from {shefferpoly.__file__}, not {src}")

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.make_inputs(args.seed)
    plant_fault(args.fault)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(f"{args.workload}-seed{args.seed}")
        tracer.install()

    laps: list[float] = []
    t0 = time.perf_counter()
    outputs = workload.run(inputs, laps)
    run_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"run_s": run_s, "laps": laps, "peak_rss_mb": peak_rss_mb, "inputs": inputs}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write(args.spans)
    result["digest"] = hashlib.sha256(workload.render(outputs).encode()).hexdigest()
    if args.check:
        result["attempted"], result["failed"], result["first_error"] = workload.check(
            inputs, outputs)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
