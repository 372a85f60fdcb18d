"""Benchmark of the specsum proof pipeline.

Run from the root of a specsum checkout:

    python3 perfbench/run.py --workload certify-tight --seed 1 --seconds 40 --trace 0

Workloads, metrics and bounds are declared in BENCHMARK.json; the
perfbench README explains them. The run times fresh interpreters importing
the package (set-up), then runs the workload in a child process
(perfbench/worker.py) and reads that child's peak RSS with os.wait4. The
last line of output is one JSON object: `correct`, `attempted`, `failed`,
and the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). The line before it carries the environment, certificate
hashes, every operation's outcome and all measured values.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
from time import perf_counter

SETUP_PROBES = 5
PROBE = ("import time; t0 = time.perf_counter(); import specsum; "
         "print(time.perf_counter() - t0)")
WORKER_TIMEOUT_S = 170
#: One BLAS thread. With OpenBLAS's default of one thread per core, its
#: idle threads spin on the shared cores, and the CPU and wall time of the
#: small (at most 105 x 105) eigensolves then vary with the host's load.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def setup_probes(env: dict) -> dict:
    """Medians over fresh interpreters importing specsum: CPU seconds of
    the whole interpreter, its wall seconds, and the import time measured
    inside it."""
    cpus, walls, imports = [], [], []
    for _ in range(SETUP_PROBES):
        c0, t0 = _children_cpu(), perf_counter()
        proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                              capture_output=True, text=True, timeout=60)
        walls.append(perf_counter() - t0)
        cpus.append(_children_cpu() - c0)
        if proc.returncode != 0:
            raise RuntimeError(f"importing specsum failed: {proc.stderr.strip()}")
        imports.append(float(proc.stdout))
    return {"cpu_s": statistics.median(cpus), "wall_s": statistics.median(walls),
            "import_s": statistics.median(imports)}


def run_worker(args, env: dict):
    """Run the workload child; return its result and its peak RSS in MB."""
    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
    cmd = [sys.executable, worker, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        with proc.stdout:
            out = proc.stdout.read()
    finally:
        watchdog.cancel()
    # wait4, not Popen.wait: its rusage is this child's (and the ssc
    # processes it reaped), where RUSAGE_CHILDREN would mix every child
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(out.splitlines()[-1]), usage.ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="specsum proof-pipeline benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "specsum", "__init__.py")):
        return fail("src/specsum not found; run from the root of a specsum checkout")
    try:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as e:
        return fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")

    env = dict(os.environ, PYTHONPATH=src, **BLAS_THREADS)
    try:
        setup = setup_probes(env)
        result, peak_rss_mb = run_worker(args, env)
    except (RuntimeError, subprocess.SubprocessError, ValueError, IndexError) as e:
        return fail(str(e))

    if args.trace:
        values = {**result["layers"], "cli.import_s": setup["import_s"]}
        declared = bench["per_layer"]
    else:
        values = dict(result["e2e"], setup_s=setup["cpu_s"] + result["input_s"],
                      peak_rss_mb=peak_rss_mb)
        declared = bench["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        return fail(f"metrics not measured: {missing}")

    info = dict(result["info"], setup_probes=setup, peak_rss_mb=peak_rss_mb,
                measured=values, spans_file=result.get("spans_file"))
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
