"""Workload process: one workload in a fresh interpreter, single-threaded,
as a closed loop with one caller.

Modes:
  coldstart  import feynkac, build the seeded inputs, print "ready", exit;
             the measuring process times this from launch to "ready"
  measure    run whole cycles until --seconds of operation time are spent,
             with --coldstarts cold starts spread between segments of the run
  trace      run --cycles untraced and --cycles traced cycles, alternating,
             and derive the per-layer metrics from the spans

The last line of standard output is one JSON object with the raw results;
run.py turns it into metrics. Run through run.py, which sets PYTHONPATH to
the checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent


class Runner:
    """Runs cycles of a workload, timing each operation on its own. The
    timed run is the sum of operation times: checks and cold starts between
    operations are not in it.

    Latencies go to a store of fixed size allocated up front, so the memory
    the benchmark itself holds does not grow with the number of operations
    (peak_rss_mb would otherwise rise when the program gets faster)."""

    CAPACITY = 4_000_000

    def __init__(self, wl):
        self.wl = wl
        self.lat = array("f", [0.0]) * self.CAPACITY   # us per attempted operation
        self.ok = array("b", [0]) * self.CAPACITY      # 1 where it did not fail
        self.n = 0
        self.busy_ns = 0
        self.attempted = 0
        self.failed = 0
        self.failed_by = {}
        self.cycles = 0
        self.digests = None         # outputs of the first cycle

    def full(self) -> bool:
        return self.n + len(self.wl.ops) > self.CAPACITY

    def cycle(self, through=None, tracer=None) -> None:
        wl, ops = self.wl, self.wl.ops
        lat, ok = self.lat, self.ok
        first = self.digests is None
        digests = [] if first else self.digests
        now = time.perf_counter_ns
        base = self.n
        busy = 0
        for i, op in enumerate(ops):
            call = op.call
            if tracer is not None:
                tracer.op = base + i
            t0 = now()
            try:
                out = call() if through is None else through(call)
            except Exception as exc:  # any raise is a failed operation
                out = exc
            dt = now() - t0
            failed = wl.failed(op, out)
            lat[base + i] = dt / 1e3
            ok[base + i] = 0 if failed else 1
            busy += dt
            if failed:
                self.failed += 1
                key = op.fault or "unexpected"
                self.failed_by[key] = self.failed_by.get(key, 0) + 1
            d = wl.digest(out)
            if first:
                digests.append(d)
                wl.check(op, out)
            elif d != digests[i]:
                wl.problem(f"{wl.name}: output of operation {i} ({op.kind}) "
                           "differs from the first cycle")
        if first:
            self.digests = digests
            wl.finish_checks()
        self.n += len(ops)
        self.attempted += len(ops)
        self.busy_ns += busy
        self.cycles += 1

    def summary(self) -> dict:
        """Counts over the whole run. Timing is best-of-N: every operation of
        the cycle ran once per cycle, and its fastest time in the run is its
        latency. op_p50_us / op_p99_us are percentiles of those latencies
        over the operations that did not fail; ops_per_s is the number of
        those operations over the sum of all the fastest times. The plain
        figures over the whole run are kept for reference."""
        import numpy as np
        size = len(self.wl.ops)
        lat = np.frombuffer(self.lat, dtype=np.float32)[:self.n].reshape(-1, size)
        ok = np.frombuffer(self.ok, dtype=np.int8)[:self.n].reshape(-1, size) == 1
        best = lat.min(axis=0).astype(np.float64)
        good = best[ok.all(axis=0)]
        p50, p99 = np.percentile(good, [50, 99])
        every = lat[ok].astype(np.float64)
        return {"attempted": self.attempted, "failed": self.failed,
                "failed_by": self.failed_by, "cycles": self.cycles,
                "ops_per_cycle": size, "busy_s": self.busy_ns / 1e9,
                "ops_per_s": good.size / (best.sum() / 1e6),
                "p50_us": float(p50), "p99_us": float(p99),
                "latency_samples": int(good.size), "above_p99": int((good > p99).sum()),
                "run_ops_per_s": every.size / (self.busy_ns / 1e9),
                "run_p50_us": float(np.percentile(every, 50)),
                "run_p99_us": float(np.percentile(every, 99))}


def coldstart(args) -> float:
    """Seconds from launching a fresh interpreter to its workload being ready."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", "coldstart"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        proc.wait(timeout=120)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"cold start failed (exit {proc.returncode})")
    return elapsed


def measure(args, wl) -> dict:
    runner = Runner(wl)
    target = args.seconds * 1e9
    starts = []
    for k in range(args.coldstarts):
        starts.append(coldstart(args))
        bound = target * (k + 1) / args.coldstarts
        while not runner.full() and (runner.busy_ns < bound or runner.cycles == 0):
            runner.cycle()
    # read before summary(), whose temporary arrays grow with the run
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = runner.summary()
    out["coldstart_s"] = starts
    out["peak_rss_mb"] = peak_rss_mb
    return out


def trace(args, wl) -> dict:
    import workloads
    from tracer import Tracer, layer_metrics
    tracer = Tracer()
    tracer.install()
    wl_traced = workloads.build(args.workload, args.seed)
    tracer.uninstall()
    plain, traced = Runner(wl), Runner(wl_traced)
    through = tracer.wrap("op", lambda call: call())
    for _ in range(args.cycles):
        plain.cycle()
        # traced outputs must equal the untraced ones
        traced.digests = traced.digests or plain.digests
        tracer.install()
        tracer.recording = True
        try:
            traced.cycle(through=through, tracer=tracer)
        finally:
            tracer.recording = False
            tracer.uninstall()
    wl.problems += wl_traced.problems
    wl.n_problems += wl_traced.n_problems
    out = plain.summary()
    traced_summary = traced.summary()
    for key in ("attempted", "failed"):
        out[key] += traced_summary[key]
    for key, n in traced_summary["failed_by"].items():
        out["failed_by"][key] = out["failed_by"].get(key, 0) + n
    out["traced_busy_s"] = traced_summary["busy_s"]
    out["layers"] = layer_metrics(tracer)
    if args.spans:
        tracer.write_spans(args.spans, {"workload": args.workload, "seed": args.seed,
                                        "traced_cycles": args.cycles})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("points", "tabulate", "verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("coldstart", "measure", "trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--coldstarts", type=int, default=1)
    ap.add_argument("--cycles", type=int, default=1)
    ap.add_argument("--spans", default="")
    args = ap.parse_args(argv)

    import feynkac  # noqa: F401  (set-up starts with the package import)
    if args.workload != "points":
        import feynkac.cli  # noqa: F401
    import workloads
    wl = workloads.build(args.workload, args.seed)
    if args.mode == "coldstart":
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0

    out = measure(args, wl) if args.mode == "measure" else trace(args, wl)
    out.update(problems=wl.problems, n_problems=wl.n_problems, refs=wl.refs,
               feynkac_file=feynkac.__file__)
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
