"""shefferpoly benchmark: three cold-process workloads and a traced run.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 55 --trace 0

Run it from anywhere inside a source checkout; it benchmarks ``src/`` of
that checkout and exits with code 2, printing no result, when there is none.

Load shape: this process starts one workload child (``child.py``) at a time
and waits for it, so each workload is a closed loop with one client.  Every
child is a fresh interpreter, because the engine keeps module-level caches
and every CLI call starts cold.  Children are started until the next one
would end after ``--seconds``; at least ``MIN_CHILDREN`` always run (one
untraced and one traced child with ``--trace 1``).  The first child
checks its outputs against an independent route; the others must give the
same output digest.

--trace 0 reports the end-to-end metrics, each as the median over the run:

* ``setup_s``: fresh interpreter start until ``import shefferpoly`` has
  completed, sampled ``SETUP_SAMPLES`` times.
* ``run_s``: wall time of one child's workload, cold caches, no tracing,
  excluding set-up and checks.  Children time each pair of the catalog
  (each suite for ``verify-all``), and ``run_s`` is the sum over pairs of
  each pair's median over the children.
* ``peak_rss_mb``: peak resident memory of a child at the end of its work.

Both times are rescaled to a fixed machine speed.  On a shared machine the
speed of a core drifts by tens of percent within minutes, and process CPU
time drifts with wall time.  So a fixed stdlib-only reference kernel runs
in this process, where no change to the package can reach it, before and
after every timed stretch, and each time is reported as
``median(measured) * REF_S / median(kernel times)``: the seconds it would
have taken while the kernel took ``REF_S``.  The report lines also give
the unscaled medians and the speed factor.

--trace 1 reports the per-layer metrics of ``tracer.py`` from traced
children and ``trace.overhead_frac``, traced ``run_s`` over untraced
``run_s`` of the same inputs, minus 1.

Before the result, the output lists the seed, the drawn inputs, medians,
quartiles and sample counts, and ``ops_failed_frac``: failed or wrong units over units
attempted.  The last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
OUT = HERE / "out"

WORKLOADS = ("verify-all", "expand-catalog", "resolve-deep")
SETUP_SAMPLES = 20
# run_s is a median of at least this many children, even past --seconds
MIN_CHILDREN = 2
# a run must end within 180 s whatever --seconds asks for
HARD_LIMIT_S = 170
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
# nominal seconds of reference_kernel(), about its time on an idle core of
# the 2.1 GHz Xeon the benchmark was written on
REF_S = 0.2
# kernel runs between two timed stretches; their median damps bursts
KERNEL_REPEATS = 4


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _run(cmd: list[str], deadline: float) -> str:
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError("out of time before starting a child")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child did not finish within {HARD_LIMIT_S} s of the run start")
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc.stdout


def reference_kernel() -> float:
    """Seconds taken by a fixed Fraction, tuple and dict workload that
    resembles the engine's instruction mix but does not touch it."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 32000):
        f = Fraction(i % 97 + 1, i % 89 + 1)
        acc = acc * f + f if i % 50 else Fraction(0)
        key = (i % 31, i % 17, i % 7)
        table[key] = table.get(key, 0) + f
    return time.perf_counter() - t0


class SpeedGauge:
    """Samples the reference kernel between the timed stretches of a run."""

    def __init__(self):
        self.samples: list[float] = []
        self.sample()

    def sample(self) -> None:
        self.samples += [reference_kernel() for _ in range(KERNEL_REPEATS)]

    @property
    def factor(self) -> float:
        """REF_S over the median kernel time: multiplies a time measured in
        this run into the time it would take while the kernel takes REF_S."""
        return REF_S / statistics.median(self.samples)


def setup_sample(deadline: float) -> float:
    """Seconds from starting a fresh interpreter to ``import shefferpoly`` done."""
    t0 = time.perf_counter()
    out = _run([sys.executable, "-c", "import shefferpoly, time; print(time.perf_counter())"],
               deadline)
    return float(out) - t0


def run_child(workload: str, seed: int, deadline: float, *, trace: int = 0,
              check: int = 1, fault: str = "none") -> dict:
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--check", str(check), "--fault", fault]
    if trace:
        OUT.mkdir(exist_ok=True)
        cmd += ["--spans", str(OUT / f"{workload}.spans")]
    t0 = time.perf_counter()
    result = json.loads(_run(cmd, deadline).splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result


def describe(name: str, values: list[float], unit: str) -> str:
    """Median, first quartile and sample count; the third quartile only when
    at least ten samples lie above it."""
    med = statistics.median(values)
    line = f"{name:16s} median {med:.6g} {unit}  n {len(values)}"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        line += f"  q1 {q1:.6g}"
        if sum(v > q3 for v in values) >= 10:
            line += f"  q3 {q3:.6g}"
    return line


def tally(reference: dict, others: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes) over every child.  Only the reference child
    ran the checks; another child with the same digest has the same outputs,
    and one with a different digest counts every unit as failed."""
    attempted = reference["attempted"]
    failed = reference["failed"]
    notes = [reference["first_error"]] if reference["first_error"] else []
    for child in others:
        if child["digest"] == reference["digest"]:
            failed += reference["failed"]
        else:
            failed += attempted
            notes.append(f"output digest {child['digest']} != {reference['digest']}")
    return attempted * (1 + len(others)), failed, notes


def _unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "ratio"


def measure(workload: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    # warm-up import: compiles the package's bytecode once, untimed
    setup_sample(deadline)
    report: list[str] = []
    metrics: dict[str, float] = {}
    children: list[dict] = []
    traced: list[dict] = []
    if not trace:
        gauge = SpeedGauge()
        # half the set-up samples before the children and half after, so
        # they span the run as the children do
        setups = [setup_sample(deadline) for _ in range(SETUP_SAMPLES // 2)]
        gauge.sample()
        start = last = time.perf_counter()
        while True:
            children.append(run_child(workload, seed, deadline, check=int(not children)))
            gauge.sample()
            now = time.perf_counter()
            if len(children) >= MIN_CHILDREN and now - start + (now - last) > seconds:
                break
            last = now
        setups += [setup_sample(deadline) for _ in range(SETUP_SAMPLES - len(setups))]
        gauge.sample()
        scaled = [v * gauge.factor for v in setups]
        metrics["setup_s"] = statistics.median(scaled)
        report.append(describe("setup_s", scaled, "s")
                      + f"  (unscaled median {statistics.median(setups):.6g} s)")
        # each lap's median over the children, summed: a burst of machine
        # slowness inside one child moves only the laps it overlapped
        laps = [statistics.median(lap) for lap in zip(*(c["laps"] for c in children))]
        metrics["run_s"] = sum(laps) * gauge.factor
        totals = [c["run_s"] for c in children]
        report.append(f"run_s            {metrics['run_s']:.6g} s  sum of {len(laps)} per-lap"
                      f" medians over n {len(children)}  (unscaled {sum(laps):.6g} s;"
                      f" median of unscaled totals {statistics.median(totals):.6g} s)")
        rss = [c["peak_rss_mb"] for c in children]
        metrics["peak_rss_mb"] = statistics.median(rss)
        report.append(describe("peak_rss_mb", rss, "MB"))
        kernel = gauge.samples
        report.append(f"speed factor     {gauge.factor:.4g}  (reference kernel median"
                      f" {statistics.median(kernel):.4g} s, min {min(kernel):.4g},"
                      f" max {max(kernel):.4g}, n {len(kernel)}; nominal {REF_S} s)")
    else:
        start = last = time.perf_counter()
        while True:
            children.append(run_child(workload, seed, deadline, check=int(not children)))
            traced.append(run_child(workload, seed, deadline, trace=1, check=0))
            now = time.perf_counter()
            if now - start + (now - last) > seconds:
                break
            last = now
        for name in traced[0]["layers"]:
            value = statistics.median(t["layers"][name] for t in traced)
            metrics[name] = round(value) if _unit(name) == "count" else value
        untraced_s = statistics.median(c["run_s"] for c in children)
        traced_s = statistics.median(t["run_s"] for t in traced)
        metrics["trace.overhead_frac"] = traced_s / untraced_s - 1
        report.append(f"run_s untraced {untraced_s:.6g} s  traced {traced_s:.6g} s"
                      f"  n {len(children)}; spans in {OUT / (workload + '.spans')}")
        report += [f"{name:40s} {value:.6g} {_unit(name)}" for name, value in metrics.items()]
    attempted, failed, notes = tally(children[0], children[1:] + traced)
    report.append(f"ops_failed_frac  {failed / attempted:.6g}  ({failed} of {attempted} units,"
                  f" {children[0]['attempted']} per child)")
    report += [f"failure: {note}" for note in notes]
    units = END_TO_END_UNITS if not trace else {n: _unit(n) for n in metrics}
    return {
        "report": [f"workload {workload}  seed {seed}  seconds {seconds}  trace {trace}",
                   f"inputs {json.dumps(children[0]['inputs'], sort_keys=True)}"] + report,
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}},
    }


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.perf_counter() + HARD_LIMIT_S
    if not (SRC / "shefferpoly" / "__init__.py").is_file():
        print(f"error: no shefferpoly sources under {SRC}", file=sys.stderr)
        return 2
    try:
        out = measure(args.workload, args.seed, args.seconds, args.trace, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(out["report"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
