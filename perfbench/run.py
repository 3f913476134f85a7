"""winmix benchmark: one workload, timed, checked, and reported as JSON.

Run from the repository root:

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the workload
once untraced and once with layer spans recorded, prints a self-time table
and reports the per-layer metrics. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the environment and the details of the run, which also go to
``.perfbench-out/``. BLAS is pinned to one thread; the run refuses to start
otherwise. The library is imported from ``src/`` of the checkout.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SCHEMA_VERSION = 1
SETUP_REPS = 5

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import winmix; print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Wall time of ``import winmix`` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def _openblas_libs() -> list[str]:
    with open("/proc/self/maps") as f:
        paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    return sorted(p for p in paths if ".so" in p)


def _call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            return fn()
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = []
    for path in _openblas_libs():
        lib = ctypes.CDLL(path)
        threads = _call(lib, ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                              "openblas_get_num_threads64_", "openblas_get_num_threads"), ctypes.c_int)
        config = _call(lib, ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                             "openblas_get_config64_", "openblas_get_config"), ctypes.c_char_p)
        blas.append({"library": os.path.basename(path), "threads": threads,
                     "config": config.decode() if config else None})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    threads = {b["threads"] for b in blas}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "blas_threads": threads.pop() if len(threads) == 1 else None,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="minimal sizes, one set-up: for checking the benchmark itself")
    args = ap.parse_args(argv)

    if not (SRC / "winmix" / "__init__.py").is_file():
        print(f"perfbench: no winmix sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import winmix as wm

    if Path(wm.__file__).resolve().parent != SRC / "winmix":
        print(f"perfbench: imported winmix from {wm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spans import Tracer, format_table, layer_metrics, unit_of
    from workloads import WORKLOADS, Calibrator

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    if env["blas_threads"] != 1:
        print(f"perfbench: BLAS must run one thread, found {env['openblas']}", file=sys.stderr)
        return 3

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        work = WORKLOADS[args.workload](wm, args.seed, args.smoke, Path(tmp))
        cal = Calibrator(work.calibration)
        setups, ref_setups = [], []
        for _ in range(1 if args.smoke else SETUP_REPS):
            before = cal()
            imported = import_seconds()
            t0 = time.perf_counter()
            work.setup()
            took = imported + time.perf_counter() - t0
            setups.append(took)
            ref_setups.append(took / ((before + cal()) / 2))

        plain = work.run(args.seconds, cal, None)
        # before the traced phase and the output checks, which allocate more
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tracer = traced = None
        if args.trace:
            tracer = Tracer()
            tracer.install(wm)
            try:
                with tracer.span("bench.setup"):
                    work.setup()
                traced = work.run(args.seconds, cal, tracer)
            finally:
                tracer.uninstall()
        checked_bad = work.check()

    if not plain.latencies:
        print("perfbench: no op completed", file=sys.stderr)
        return 1
    phases = [p for p in (plain, traced) if p is not None]
    attempted = sum(p.attempted for p in phases)
    failed = min(attempted, sum(p.failed for p in phases) + checked_bad)
    tail = work.tail_percentile
    e2e = {
        "setup_s": (statistics.median(ref_setups), "s"),
        "throughput": (plain.units / sum(plain.ref_latencies), "1/ref-s"),
        "latency_p50": (1000 * plain.typical(plain.ref_latencies), "ref-ms"),
        "latency_tail": (1000 * plain.tail_mean(plain.ref_latencies, tail), "ref-ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    details = {
        "schema_version": SCHEMA_VERSION,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "env": env,
        "samples": len(plain.latencies),
        "tail_percentile": tail,
        "error_rate": failed / attempted,
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        # the same figures in wall-clock units, before scaling to the
        # reference speed, and the host slowdown that scales them
        "wall_clock": {
            "setup_s": statistics.median(setups),
            "throughput_per_s": plain.units / sum(plain.latencies),
            "latency_ms_p50": 1000 * plain.typical(plain.latencies),
            "latency_ms_tail": 1000 * plain.tail_mean(plain.latencies, tail),
            "host_slowdown_p50": statistics.median(plain.slowdown),
        },
        **work.notes(),
    }
    if traced is not None:
        sgemm, copy = machine_peaks()
        slowdown = statistics.median(traced.slowdown)
        scale = 1 / slowdown
        wall = sum(traced.latencies)
        layers = layer_metrics(tracer, traced.attempted, wall, args.workload, scale)
        layers["tensor.sgemm_peak_gmacs"] = sgemm
        layers["tensor.copy_gbs"] = copy
        base = plain.typical(plain.ref_latencies)
        layers["trace.overhead_pct"] = 100 * (traced.typical(traced.ref_latencies) - base) / base
        layers["trace.host_slowdown"] = slowdown
        details["per_layer"] = layers
        details["traced_samples"] = len(traced.latencies)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                     {"schema_version": SCHEMA_VERSION, "workload": args.workload,
                      "seed": args.seed, "host_slowdown": slowdown})
        print(format_table(tracer, traced.attempted, wall, scale))
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}

    line = json.dumps(details)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def machine_peaks() -> tuple[float, float]:
    """Best-of-five single-thread sgemm (1024^3) in GMAC/s and array copy
    (64 MiB read plus 64 MiB written) in GB/s."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((1024, 1024), dtype=np.float32)
    b = rng.standard_normal((1024, 1024), dtype=np.float32)
    src = np.ones(16 * 1024 * 1024, dtype=np.float32)
    dst = np.empty_like(src)
    gemm, copy = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        np.matmul(a, b)
        t1 = time.perf_counter()
        np.copyto(dst, src)
        t2 = time.perf_counter()
        gemm.append(1024 ** 3 / (t1 - t0) / 1e9)
        copy.append(2 * src.nbytes / (t2 - t1) / 1e9)
    return max(gemm), max(copy)


if __name__ == "__main__":
    sys.exit(main())
