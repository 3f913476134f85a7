"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Runs ``run.py`` once per (seed, workload), seeds in the outer loop so that a
drift in machine load spreads over every workload, one process at a time.
For each workload and metric it records the values, their median and
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles over the median. Exits non-zero if any run
failed or reported incorrect output.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--label", default="", help="what was measured, e.g. a commit")
    ap.add_argument("--out", help="write the summary JSON here")
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    runs = {w: [] for w in workloads}
    env = None
    ok = True
    for seed in seeds:
        for w in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            took = time.perf_counter() - t0
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                print(f"{w} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                ok = False
                continue
            details, result = json.loads(lines[-2]), json.loads(lines[-1])
            env = env or details["env"]
            ok = ok and result["correct"]
            runs[w].append({"seed": seed, "process_s": took, **result,
                            "notes": {k: v for k, v in details.items()
                                      if k not in ("env", "end_to_end", "per_layer")}})
            print(f"{w} seed {seed} ({took:.0f} s): correct={result['correct']} "
                  + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
                             if args.trace == 0), file=sys.stderr)

    summary = {}
    for w, rs in runs.items():
        metrics = {}
        for name in (rs[0]["metrics"] if rs else {}):
            values = [r["metrics"][name]["value"] for r in rs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metrics[name] = {"unit": rs[0]["metrics"][name]["unit"], "median": med,
                             "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else None, "values": values}
        summary[w] = {"seeds": [r["seed"] for r in rs],
                      "process_s": [r["process_s"] for r in rs], "metrics": metrics,
                      "runs": rs}
        for name, m in metrics.items():
            bound = next((e["bound"] for e in bench["end_to_end"] if e["name"] == name), None)
            if m["spread"] is not None:
                print(f"{w:12} {name:18} median {m['median']:12.5g} spread {m['spread']:.4f}"
                      + (f" (bound {bound})" if bound is not None else ""), file=sys.stderr)

    if args.out:
        Path(args.out).write_text(json.dumps({
            "schema_version": 1, "label": args.label, "seconds": args.seconds,
            "trace": args.trace, "env": env, "workloads": summary}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
