"""One benchmark workload, run in a process of its own.

    PYTHONPATH=src python3 perfbench/worker.py --workload certify-tight \
        --seed 1 --seconds 40 --trace 0

`perfbench/run.py` launches it like this from the repository root. The
worker runs the workload's operation list once, then in rounds: every short
operation and the long operation with the fewest timings so far, until
another round would overrun --seconds. With --trace 1 one traced pass of
the whole list follows the first. Every output is checked against its
expected value; the worker prints one JSON object as its last line of
output.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter, process_time

import numpy as np

import specsum
from specsum import certify, compound, exactq, graphs, numerics, stepmodel
from spans import Tracer

TIGHT = Fraction(8, 7)
RESTARTS = 200
SIGMA_TOL = 1e-9
SEARCH_TOL = 1e-9
SPOT_TOL = 1e-9
CLI_TIMEOUT_S = 150
OUT_ROOT = os.path.join("perfbench", "out")  # certificates and span files
#: restarts of the `ssc optimize` call, few enough to run it in every round
CLI_RESTARTS = 40

#: max / connected-min of lambda1 + lambda2 over graphs on n vertices
PINNED = {(6, graphs.MAX): 2 + 2 * math.sqrt(2),
          (6, graphs.MIN_CONNECTED): math.sqrt(5),
          (7, graphs.MAX): 6.0}

#: `ssc` without an installed console script; `python -m specsum.cli`
#: would warn because the package imports `cli` itself
SSC = "import sys; from specsum.cli import main; sys.exit(main(sys.argv[1:]))"

#: end-to-end time buckets and the operation kinds summed into each
BUCKETS = {"certify": "certify_s", "verify": "verify_s",
           "optimize": "optimize_s", "search": "search_s", "cli": "cli_s"}

# Hostile certificates are inputs, so they are formatted with the function
# as imported, never through a tracing wrapper.
_format_certificate = certify.format_certificate


@dataclass(frozen=True)
class Op:
    """One operation: kind, arguments, and the outcome it must have.

    expect is, by kind: certify "FOUND"; verify the verdict of
    `check_certificate`; spot_check and optimize and search the exact
    value; cli (exit code, {report key: value}). A tuple among cli
    arguments names a certificate file (candidate, bound, variant).

    A short operation (about a second or less) runs in every round, so
    that its timings spread over the whole run and their median does not
    follow the host's speed of one moment.
    """

    kind: str
    args: tuple
    expect: object
    short: bool = False


def _cli_certify(name: str, c: Fraction, short: bool = False) -> list[Op]:
    bound = f"{c.numerator}/{c.denominator}"
    out = (name, c, "cli")
    return [Op("cli", ("certify", name, "--bound", bound, "--out", out),
               (0, {"status": "FOUND"}), short),
            Op("cli", ("verify", out), (0, {"verdict": "PASS"}), True)]


def _certify_and_verify(names, c: Fraction, short=()) -> list[Op]:
    """Certify and re-verify each candidate; names in short certify in
    every round."""
    ops = []
    for name in names:
        ops += [Op("certify", (name, c), "FOUND", name in short),
                Op("verify", (name, c, "accepted"), "PASS", True)]
    return ops


def workload_ops(workload: str, seed: int) -> list[Op]:
    """The operation list of one pass. The seed feeds only the
    maximize_sigma restarts and the spot-check samples.

    Every workload reports every metric, so each certify workload also
    confirms sigma* = 8/7 on H6 and the n = 6 maximum, and explore closes
    with one loose H6 certificate. `ssc certify` runs on a smaller
    candidate than H6 (P4 at the tight bound, H5 at 6/5), whose certify
    the library call already times, so that more rounds fit in a run.
    """
    if workload == "certify-tight":
        ops = _certify_and_verify(("P3", "P4", "H5", "H6"), TIGHT)
        ops += [Op("verify", ("H6", TIGHT, "perturbed"), "FAIL:identity", True),
                Op("verify", ("H6", TIGHT, "negdiag"), "FAIL:NOT_PSD", True),
                Op("spot_check", ("H6", TIGHT, seed), 0.0, True)]
        ops += _cli_certify("P4", TIGHT)
        ops += [Op("cli", ("verify", ("H6", TIGHT, "perturbed")),
                   (1, {"identity": "FAIL", "verdict": "FAIL"}), True),
                Op("cli", ("verify", ("H6", TIGHT, "negdiag")),
                   (1, {"psd": exactq.NOT_PSD, "verdict": "FAIL"}), True)]
        ops += [Op("optimize", ("H6", seed), TIGHT, True),
                Op("search", (6, graphs.MAX), PINNED[6, graphs.MAX], True)]
        return ops
    if workload == "certify-loose":
        ops = []
        for c in (Fraction(6, 5), Fraction(23, 20)):
            ops += _certify_and_verify(("H5", "H6"), c, short=("H5",))
        ops += [Op("spot_check", ("H6", Fraction(6, 5), seed), 0.0, True)]
        ops += _cli_certify("H5", Fraction(6, 5), short=True)
        ops += [Op("optimize", ("H6", seed), TIGHT, True),
                Op("search", (6, graphs.MAX), PINNED[6, graphs.MAX], True)]
        return ops
    if workload == "explore":
        ops = [Op("optimize", (name, seed), TIGHT)
               for name in ("P3", "P4", "H5", "H6")]
        # n = 7 MIN_CONNECTED (about 30 s) does not fit the run budget;
        # n = 6 MIN_CONNECTED keeps the connectivity filter measured
        ops += [Op("search", key, PINNED[key], key[0] == 6)
                for key in ((6, graphs.MAX), (6, graphs.MIN_CONNECTED),
                            (7, graphs.MAX))]
        ops += [Op("cli", ("optimize", "P3", "--restarts", str(CLI_RESTARTS),
                           "--seed", str(seed)), (0, {"sigma": float(TIGHT)}), True),
                Op("cli", ("search", "6", "--min-connected"),
                   (0, {"value": PINNED[6, graphs.MIN_CONNECTED]}), True)]
        ops += _certify_and_verify(("H6",), Fraction(23, 20), short=("H6",))
        ops += [Op("spot_check", ("H6", Fraction(23, 20), seed), 0.0, True)]
        return ops
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Context:
    out: str  # directory for certificate files
    cli_env: dict
    certs: dict = field(default_factory=dict)  # (name, c) -> Certificate

    def path(self, name: str, c: Fraction, variant: str) -> str:
        return os.path.join(self.out, f"{name}_{c.numerator}-{c.denominator}.{variant}.txt")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def perturbed(cert: certify.Certificate) -> str:
    """Q[0][0] moved by 1/10^6: the constant coefficient stops matching."""
    Q = [list(row) for row in cert.Q]
    Q[0][0] += Fraction(1, 10 ** 6)
    return _format_certificate(dataclasses.replace(cert, Q=tuple(map(tuple, Q))))


def negdiag(cert: certify.Certificate) -> str:
    """Q_00 - lam I, T + lam I and Q_ii + lam I satisfy every coefficient
    equation; lam one above the least diagonal entry of Q_00 makes that
    entry negative, so Q is not PSD whatever the solver returned."""
    m = cert.m
    lam = min(cert.Q[r][r] for r in range(m)) + 1
    Q = [list(row) for row in cert.Q]
    for t in range(len(Q)):
        Q[t][t] += -lam if t < m else lam
    T = [list(row) for row in cert.T]
    for r in range(m):
        T[r][r] += lam
    return _format_certificate(dataclasses.replace(
        cert, Q=tuple(map(tuple, Q)), T=tuple(map(tuple, T))))


HOSTILE = {"perturbed": perturbed, "negdiag": negdiag}


def check_certificate(text: str) -> str:
    """Exact verdict from a certificate's text, reached as `ssc verify`
    reaches it: PASS, FAIL:identity, or FAIL:NOT_PSD with a witness whose
    quadratic form is checked to be negative."""
    cert = certify.parse_certificate(text)
    if not certify.verify_identity(cert).ok:
        return "FAIL:identity"
    wit = certify.verify_psd(cert)
    if wit.verdict == exactq.PSD:
        return "PASS"
    if exactq.q_eval([list(row) for row in cert.Q], list(wit.counterexample)) >= 0:
        return "FAIL:witness-not-negative"
    return "FAIL:" + wit.verdict


# Each operation returns (CPU seconds in its end-to-end bucket, ok, detail).
# CPU time, not wall time: the cores are shared, and time spent waiting for
# one would otherwise dominate the run-to-run spread.

def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def op_certify(ctx: Context, op: Op):
    name, c = op.args
    cand = certify.cert_base(name)
    t0 = process_time()
    r = certify.certify(cand, c)
    dt = process_time() - t0
    detail = {"status": r.status, "iterations": r.solve.iterations,
              "attempts": " ".join(f"{d}:{v}" for d, v in r.attempts)}
    if r.status == "FOUND":
        text = certify.format_certificate(r.certificate)
        with open(ctx.path(name, c, "accepted"), "w", encoding="utf-8") as fh:
            fh.write(text)
        ctx.certs[name, c] = r.certificate
        detail["sha256"] = _sha256(text)
    return dt, r.status == op.expect, detail


def op_verify(ctx: Context, op: Op):
    name, c, variant = op.args
    path = ctx.path(name, c, variant)
    if variant in HOSTILE:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(HOSTILE[variant](ctx.certs[name, c]))
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    t0 = process_time()
    verdict = check_certificate(text)
    dt = process_time() - t0
    return dt, verdict == op.expect, {"verdict": verdict}


def op_spot_check(ctx: Context, op: Op):
    name, c, seed = op.args
    t0 = process_time()
    worst = certify.soundness_spot_check(certify.cert_base(name), c, seed=seed)
    dt = process_time() - t0
    return dt, worst >= op.expect - SPOT_TOL, {"min_eigenvalue": worst}


def op_optimize(ctx: Context, op: Op):
    name, seed = op.args
    t0 = process_time()
    u, val = stepmodel.maximize_sigma(stepmodel.candidate(name),
                                      restarts=RESTARTS, seed=seed)
    dt = process_time() - t0
    return dt, abs(val - float(op.expect)) <= SIGMA_TOL, {"sigma": val}


def op_search(ctx: Context, op: Op):
    n, mode = op.args
    t0 = process_time()
    G, val = graphs.search_extremal(n, mode)
    dt = process_time() - t0
    ok = abs(val - op.expect) <= SEARCH_TOL
    if mode == graphs.MAX and n >= 5:
        want = graphs.knpq(n, *graphs.conjecture_pq(n)).adjacency()
        ok = ok and bool(np.allclose(np.linalg.eigvalsh(G.adjacency()),
                                     np.linalg.eigvalsh(want), rtol=0, atol=SEARCH_TOL))
    return dt, ok, {"value": val, "edges": len(G.edges)}


def _matches(got, want) -> bool:
    if isinstance(want, float):
        try:
            return abs(float(got) - want) <= SIGMA_TOL
        except (TypeError, ValueError):
            return False
    return got == want


def op_cli(ctx: Context, op: Op):
    argv = [ctx.path(*a) if isinstance(a, tuple) else a for a in op.args]
    c0, t0 = _children_cpu(), perf_counter()
    proc = subprocess.run([sys.executable, "-c", SSC, *argv], env=ctx.cli_env,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    wall = perf_counter() - t0
    dt = _children_cpu() - c0
    # stderr is not a failure signal; exit code and report lines are
    report = dict(ln.split(": ", 1) for ln in proc.stdout.splitlines() if ": " in ln)
    code, want = op.expect
    ok = proc.returncode == code and all(_matches(report.get(k), v)
                                         for k, v in want.items())
    detail = {"exit": proc.returncode,
              "overhead_s": wall - float(report.get("duration_s", 0.0))}
    if argv[0] == "certify" and ok:
        with open(report["certificate"], encoding="utf-8") as fh:
            detail["sha256"] = _sha256(fh.read())
    return dt, ok, detail


RUNNERS = {"certify": op_certify, "verify": op_verify, "spot_check": op_spot_check,
           "optimize": op_optimize, "search": op_search, "cli": op_cli}


def _cand_name(cand, *args, **kwargs) -> str:
    return cand.name


def _search_label(n, mode, *args, **kwargs) -> str:
    return f"n{n}.{mode}"


def _psi_name(M) -> str:
    is_float = isinstance(M, np.ndarray) and M.dtype != object
    return "compound.psi.float" if is_float else "compound.psi.exact"


def _count_rungs(counts, r) -> None:
    counts["certify.rungs"] += len(r.attempts)
    counts["certify.psd_rungs"] += sum(v == exactq.PSD for _, v in r.attempts)
    if r.status == "FOUND":
        counts["certify.accepted_den"] += r.attempts[-1][0]


def install(tracer: Tracer) -> None:
    """Wrap every module attribute the pipeline calls through."""
    w = tracer.wrap
    w(certify, "certify", "certify.certify", label=_cand_name, on_result=_count_rungs)
    w(certify, "assemble", "certify.assemble")
    w(certify, "sdp_solve", "certify.sdp_solve",
      on_result=lambda n, r: n.update({"certify.sdp_iterations": r.iterations}))
    w(certify, "rationalize", "certify.rationalize")
    w(certify, "verify_identity", "certify.verify_identity")
    w(certify, "verify_psd", "certify.verify_psd")
    w(certify, "parse_certificate", "certify.parse_certificate")
    w(certify, "format_certificate", "certify.format_certificate",
      on_result=lambda n, text: n.update({"certify.cert_bytes": len(text.encode())}))
    w(certify, "soundness_spot_check", "certify.spot_check")
    w(exactq, "ldl_psd_check", "exactq.ldl_psd_check")
    w(exactq, "q_eval", "exactq.q_eval")
    w(exactq, "rational_approx", "exactq.rational_approx", span=False)
    w(compound, "psi", _psi_name)
    w(stepmodel, "maximize_sigma", "stepmodel.maximize_sigma", label=_cand_name)
    w(numerics, "project_simplex", "numerics.project_simplex", span=False)
    w(graphs, "search_extremal", "graphs.search_extremal", label=_search_label)


def _label(arg) -> str:
    if isinstance(arg, Fraction):
        return f"{arg.numerator}/{arg.denominator}"
    if isinstance(arg, tuple):
        return "[" + " ".join(map(_label, arg)) + "]"
    return str(arg)


def _op_label(op: Op) -> str:
    return " ".join(map(_label, op.args))


def run_pass(ops: list[Op], ctx: Context, tracer: Tracer | None = None) -> dict:
    """Run each operation once, in order; with a tracer, record layer spans.

    rec["ops"] has one entry per operation, with its CPU seconds in its
    end-to-end bucket (`seconds`) and its wall seconds (`wall`).
    """
    rec = {"wall_s": 0.0, "cli_overhead_s": 0.0, "attempted": 0, "failed": 0,
           "ops": []}
    if tracer is not None:
        install(tracer)
    t0 = perf_counter()
    try:
        for op in ops:
            sid = tracer.begin("op." + op.kind, _op_label(op)) if tracer else None
            w0 = perf_counter()
            try:
                seconds, ok, detail = RUNNERS[op.kind](ctx, op)
            except Exception as e:  # a crashing operation is a failed one
                seconds, ok, detail = 0.0, False, {"error": repr(e)}
            finally:
                if tracer is not None:
                    tracer.end(sid)
            wall = perf_counter() - w0
            rec["cli_overhead_s"] += detail.get("overhead_s", 0.0)
            rec["attempted"] += 1
            rec["failed"] += not ok
            rec["ops"].append({"kind": op.kind, "args": _op_label(op), "ok": ok,
                               "seconds": seconds, "wall": wall, **detail})
    finally:
        rec["wall_s"] = perf_counter() - t0
        if tracer is not None:
            tracer.unwrap_all()
    if tracer is not None:
        rec["layers"] = layer_metrics(tracer, rec)
    return rec


#: short per-layer names for two span call counts
_ALIASES = {"certify.solve_calls": "certify.sdp_solve_calls",
            "exactq.ldl_calls": "exactq.ldl_psd_check_calls"}


def layer_metrics(tracer: Tracer, rec: dict) -> dict:
    """Self seconds per span name and label, plus every counter."""
    out = {f"{name}_s": row["self_s"] for name, row in tracer.summary().items()}
    out.update(tracer.counts)
    for alias, name in _ALIASES.items():
        out[alias] = out.get(name, 0)
    rungs = out.get("certify.rungs", 0)
    out["certify.rung_yield"] = out.get("certify.psd_rungs", 0) / rungs if rungs else 0.0
    out["cli.overhead_s"] = rec["cli_overhead_s"]
    out["trace.spans"] = len(tracer.spans)
    return out


def _blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _git_commit() -> str:
    """The checkout's commit, read from .git without running git (which
    would search parent directories)."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for ln in fh:
                if ln.rstrip().endswith(" " + ref):
                    return ln.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "specsum": specsum.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration", ""),
            "blas_threads": _blas_threads(),
            "nproc": len(os.sched_getaffinity(0)), "git_commit": _git_commit()}


class Samples:
    """Every untraced timing of every operation of the list."""

    def __init__(self, ops: list[Op]):
        self.ops = ops
        self.cpu = [[] for _ in ops]
        self.wall = [[] for _ in ops]
        self.passes: list[dict] = []

    def add(self, index: list[int], rec: dict) -> None:
        for i, o in zip(index, rec["ops"]):
            self.cpu[i].append(o["seconds"])
            self.wall[i].append(o["wall"])
        self.passes.append(rec)

    def next_round(self, budget: float) -> list[int] | None:
        """Every short operation, and of the long ones that fit in budget
        seconds the one timed least often; None if not even the short
        ones fit."""
        short = [i for i, op in enumerate(self.ops) if op.short]
        rest = budget - self.estimate(short)
        if rest < 0:
            return None
        fits = [i for i, op in enumerate(self.ops)
                if not op.short and statistics.median(self.wall[i]) <= rest]
        if fits:
            short.append(min(fits, key=lambda i: (len(self.wall[i]), i)))
        return sorted(short)

    def estimate(self, index: list[int]) -> float:
        return sum(statistics.median(self.wall[i]) for i in index)

    def e2e(self) -> dict:
        """One pass of the list, each operation at its median time."""
        out = {"wall_s": self.estimate(range(len(self.ops)))}
        for kind, metric in BUCKETS.items():
            out[metric] = sum(statistics.median(self.cpu[i])
                              for i, op in enumerate(self.ops) if op.kind == kind)
        return out


def run(workload: str, seed: int, seconds: float, trace: bool, out_root: str) -> dict:
    t0 = process_time()
    ops = workload_ops(workload, seed)
    input_s = process_time() - t0
    out = os.path.join(out_root, workload)
    os.makedirs(out, exist_ok=True)
    src = os.path.dirname(os.path.dirname(os.path.abspath(specsum.__file__)))
    ctx = Context(out=out, cli_env=dict(os.environ, PYTHONPATH=src))

    start = perf_counter()
    samples = Samples(ops)
    samples.add(range(len(ops)), run_pass(ops, ctx))  # makes every certificate
    traced = None
    if trace:
        tracer = Tracer()
        traced = run_pass(ops, ctx, tracer)
    while (index := samples.next_round(seconds - (perf_counter() - start))):
        samples.add(index, run_pass([ops[i] for i in index], ctx))

    passes = samples.passes + ([traced] if traced else [])
    e2e = samples.e2e()
    result = {"attempted": sum(p["attempted"] for p in passes),
              "failed": sum(p["failed"] for p in passes),
              "input_s": input_s, "e2e": e2e, "layers": None}
    if trace:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = sum(o["wall"] for o in traced["ops"]) - e2e["wall_s"]
        result["layers"] = layers
        spans_file = os.path.join(out_root, f"spans-{workload}-seed{seed}.json")
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["id", "name", "label", "start", "end", "parent"],
                       "spans": tracer.spans, "summary": tracer.summary(),
                       "counts": dict(tracer.counts)}, fh)
        result["spans_file"] = spans_file
    first = samples.passes[0]["ops"]
    result["info"] = {
        "workload": workload, "seed": seed, "environment": environment(),
        "rounds": len(samples.passes),
        "fail_rate": result["failed"] / result["attempted"],
        "failures": [o for p in passes for o in p["ops"] if not o["ok"]],
        "ops": [dict(o, samples=len(samples.wall[i]), cpu_samples=samples.cpu[i],
                     seconds=statistics.median(samples.cpu[i]),
                     wall=statistics.median(samples.wall[i]))
                for i, o in enumerate(first)]}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), OUT_ROOT)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
