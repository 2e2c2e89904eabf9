"""Self-test of the benchmark, built on its short mode (about two minutes).

    python3 perfbench/selftest.py

Checks, against BENCHMARK.json:
  * `run.py --workload all --short` prints every end-to-end metric of every
    workload with its unit, all outputs check out, and the only failed
    operations are the known faults (F3 x4 on points, F2 and F1 once each);
  * a single-workload run prints exactly the end-to-end metrics;
  * two traced short runs print exactly the per-layer metrics, and their
    call counts and quad.integrand_evals_per_call repeat exactly;
  * in a directory holding only BENCHMARK.json and perfbench/ (no sources)
    the command fails without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py", "--seed", "7", "--short"]
KNOWN_FAILED = {"points": 4, "tabulate": 1, "verify": 1}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(extra, cwd=ROOT):
    proc = subprocess.run([sys.executable] + RUN + extra, cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def last_json(stdout: str) -> dict:
    doc = json.loads(stdout.strip().splitlines()[-1])
    assert set(doc) == RESULT_KEYS, sorted(doc)
    return doc


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    failures = []

    def expect(cond, text):
        if not cond:
            failures.append(text)
        print(("ok   " if cond else "FAIL ") + text)

    rc, out, err = run(["--workload", "all", "--trace", "0"])
    expect(rc == 0, f"short run of every workload exits 0 ({err.strip()[-300:]})")
    doc = last_json(out)
    expect(doc["correct"], "every output passes its checks")
    expect(doc["failed"] == sum(KNOWN_FAILED.values()),
           f"only the known faults fail ({doc['failed']} failed)")
    wanted = {f"{w}.{m}": u for w in workloads for m, u in e2e.items()}
    got = {k: v["unit"] for k, v in doc["metrics"].items()}
    expect(got == wanted, "every end-to-end metric of every workload, with its unit")
    expect(all(v["value"] > 0 for v in doc["metrics"].values()),
           "end-to-end metrics are positive")

    rc, out, _ = run(["--workload", "points", "--trace", "0"])
    doc = last_json(out)
    expect(rc == 0 and set(doc["metrics"]) == set(e2e),
           "a single workload prints exactly the end-to-end metrics")

    traced = []
    for _ in range(2):
        rc, out, err = run(["--workload", "all", "--trace", "1"])
        expect(rc == 0, f"traced short run exits 0 ({err.strip()[-300:]})")
        traced.append(last_json(out))
    wanted = {f"{w}.{m}": u for w in workloads for m, u in layers.items()}
    got = {k: v["unit"] for k, v in traced[0]["metrics"].items()}
    expect(got == wanted, "every per-layer metric of every workload, with its unit")
    expect(traced[0]["correct"] and traced[1]["correct"],
           "traced outputs pass their checks")
    counts = [k for k in wanted if k.endswith((".calls", "integrand_evals_per_call"))]
    same = [k for k in counts
            if traced[0]["metrics"][k]["value"] == traced[1]["metrics"][k]["value"]]
    expect(len(same) == len(counts),
           f"call counts repeat across traced runs ({sorted(set(counts) - set(same))})")

    bare = ROOT / "perfbench" / "runs" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for src in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(src, bare / "perfbench")
    rc, out, _ = run(["--workload", "points", "--trace", "0"], cwd=bare)
    expect(rc != 0 and not out.strip(),
           "without sources the command fails and prints no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} failed checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
