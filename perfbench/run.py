"""Benchmark command for feynkac.

    python3 perfbench/run.py --workload {points,tabulate,verify,all} \
        --seed N --seconds S --trace {0,1} [--short]

Run from the root of a checkout: the package is imported from ./src. Each
workload runs in its own fresh Python process (perfbench/worker.py),
single-threaded, as a closed loop with one caller. With --trace 0 the command
prints the end-to-end metrics; with --trace 1 it runs the traced pass and
prints the per-layer metrics. Outputs are checked against the property checks
of workloads.py and the mpmath references of references.py.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --workload all, metric names carry the workload as a prefix.
--short runs one cycle of each workload with one cold start, so that every
workload and every check runs in seconds (used by selftest.py).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
RUNS = HERE / "runs"
WORKLOADS = ("points", "tabulate", "verify")

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_us", "us"),
              ("op_p99_us", "us"), ("peak_rss_mb", "MB"))
COLDSTARTS = 5
# traced pass: cycles of each workload (counts repeat exactly for a seed)
TRACE_CYCLES = {"points": 10, "tabulate": 1, "verify": 1}
IMPORTTIME_RUNS = 3
WORKER_TIMEOUT_S = 170


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("overhead_pct"):
        return "%"
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith("us_per_call"):
        return "us"
    if metric.endswith(("_ms", ".ms", "ms_per_call")):
        return "ms"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    if env.get("PYTHONPATH"):
        src += os.pathsep + env["PYTHONPATH"]
    env["PYTHONPATH"] = src
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(1)


def run_worker(args, workload: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed)]
    if args.trace:
        RUNS.mkdir(exist_ok=True)
        spans = RUNS / f"spans-{workload}-seed{args.seed}.jsonl"
        cmd += ["--mode", "trace", "--cycles",
                "1" if args.short else str(TRACE_CYCLES[workload]),
                "--spans", str(spans)]
    else:
        cmd += ["--mode", "measure",
                "--seconds", "0" if args.short else str(args.seconds),
                "--coldstarts", "1" if args.short else str(COLDSTARTS)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {workload} did not finish in {WORKER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"workload {workload} exited with {proc.returncode}")
    raw = json.loads(lines[-1])
    source = Path(raw["feynkac_file"]).resolve().parent
    if source != (ROOT / "src" / "feynkac").resolve():
        fail(f"feynkac was imported from {raw['feynkac_file']}, not from ./src")
    return raw


def check_references(refs: list) -> list:
    """Problems found by comparing outputs with the mpmath references."""
    import references
    problems = []
    for req in refs:
        ref = references.evaluate(req["ref"], req["args"], log=req["log"])
        if not abs(req["value"] - ref) <= req["atol"] + req["rtol"] * abs(ref):
            problems.append(f"{req['what']}: {req['value']!r} vs reference {ref!r}")
    return problems


_IMPORT_LINE = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|( +)(\S+)\s*$")
IMPORTS = (("import.feynkac_ms", "feynkac"), ("import.scipy_stats_ms", "scipy.stats"),
           ("import.verify_ms", "feynkac.verify"))


def module_import_ms(importtime: str, module: str) -> float:
    """Cumulative import time (ms) of `module` and its submodules from
    `-X importtime` output. Lines come in post-order, indented by depth; a
    line is counted when its parent is outside the module, which also covers
    packages (such as scipy's lazily loaded subpackages) whose own line is
    missing. 0 when the module is not imported."""
    lines = []
    for line in importtime.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            lines.append((int(m.group(1)), len(m.group(2)), m.group(3)))

    def inside(name):
        return name == module or name.startswith(module + ".")

    total = 0
    for i, (cumulative, depth, name) in enumerate(lines):
        if not inside(name):
            continue
        parent = next((n for _, d, n in lines[i + 1:] if d < depth), None)
        if parent is None or not inside(parent):
            total += cumulative
    return total / 1e3


def import_times(runs: int) -> dict:
    """Import times (ms) from fresh `python -X importtime -c "import feynkac"`
    runs; medians over `runs`."""
    samples = {key: [] for key, _ in IMPORTS}
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import feynkac"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            fail("import feynkac failed")
        for key, module in IMPORTS:
            samples[key].append(module_import_ms(proc.stderr, module))
    return {key: statistics.median(v) for key, v in samples.items()}


def measure_workload(args, workload: str) -> dict:
    raw = run_worker(args, workload)
    ref_problems = check_references(raw["refs"])
    problems = raw["problems"] + ref_problems
    n_problems = raw["n_problems"] + len(ref_problems)
    if args.trace:
        metrics = dict(raw["layers"])
        metrics.update(import_times(1 if args.short else IMPORTTIME_RUNS))
        # traced against untraced ops_per_s over the same operations
        overhead = raw["traced_busy_s"] / raw["busy_s"] - 1.0
        metrics["trace.overhead_pct"] = overhead * 100.0
        units = {k: unit_of(k) for k in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(raw["coldstart_s"]),
            "ops_per_s": raw["ops_per_s"],
            "op_p50_us": raw["p50_us"],
            "op_p99_us": raw["p99_us"],
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        units = dict(END_TO_END)
    return {"workload": workload, "raw": raw, "metrics": metrics, "units": units,
            "problems": problems, "n_problems": n_problems,
            "correct": n_problems == 0}


def report(res: dict, args) -> None:
    raw = res["raw"]
    fails = ", ".join(f"{k} {v}" for k, v in sorted(raw["failed_by"].items())) or "none"
    print(f"== {res['workload']}: seed {args.seed}, trace {args.trace}, "
          f"{raw['cycles']} cycles of {raw['ops_per_cycle']} operations")
    print(f"   attempted {raw['attempted']}, failed {raw['failed']} ({fails}), "
          f"correct {str(res['correct']).lower()} ({res['n_problems']} problems, "
          f"{len(raw['refs'])} reference checks)")
    if not args.trace:
        print(f"   best-of-{raw['cycles']} latencies: {raw['latency_samples']} "
              f"operations, {raw['above_p99']} above p99; whole run: "
              f"{raw['run_ops_per_s']:.6g} ops/s, p50 {raw['run_p50_us']:.6g} us, "
              f"p99 {raw['run_p99_us']:.6g} us")
        print("   cold starts " + ", ".join(f"{s:.3f}" for s in raw["coldstart_s"]) + " s")
    for text in res["problems"][:10]:
        print(f"   problem: {text}")
    for name, value in res["metrics"].items():
        print(f"   {name:<44} {value:>16.6g} {res['units'][name]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="one cycle and one cold start per workload")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "feynkac" / "__init__.py").is_file():
        fail(f"no feynkac sources under {ROOT / 'src'}; run from a checkout")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [measure_workload(args, w) for w in names]
    for res in results:
        report(res, args)
    metrics = {}
    for res in results:
        prefix = f"{res['workload']}." if args.workload == "all" else ""
        for name, value in res["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": res["units"][name]}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["raw"]["attempted"] for r in results),
                      "failed": sum(r["raw"]["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
