"""Smoke test of the benchmark itself (not collected by pytest).

    python3 perfbench/smoke.py

Runs every workload at minimal size, untraced and traced, and checks that
each run is correct and reports exactly the metrics BENCHMARK.json names,
with their units and finite values (end-to-end values non-zero). Then checks
that a copy holding only BENCHMARK.json and the benchmark refuses to run.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int, smoke: bool = True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for w in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = run(ROOT, w, trace)
            where = f"{w} --trace {trace}"
            if done.returncode != 0:
                failures.append(f"{where}: exit {done.returncode}: {done.stderr[-2000:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']}/{result['attempted']}")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {[k for k in want if k in got and got[k] != want[k]]}")
            for name, m in result["metrics"].items():
                v = m["value"]
                if not isinstance(v, (int, float)) or not math.isfinite(v) or (trace == 0 and v == 0):
                    failures.append(f"{where}: {name} = {v!r}")
            print(f"{where}: ok ({len(result['metrics'])} metrics)")

    (ROOT / ".perfbench-out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench-out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in bench["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, bench["workloads"][0]["name"], 0, smoke=False)
        if done.returncode == 0 or done.stdout.strip():
            failures.append("a copy without the library sources did not refuse to run")
        else:
            print(f"bare copy: refused with exit {done.returncode}")

    for f in failures:
        print("FAIL", f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
