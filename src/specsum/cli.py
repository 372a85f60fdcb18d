"""Command-line surface: `ssc <command>`.

Commands: spectrum, search, optimize, certify, verify, compound. Output is
machine-parseable `key: value` lines (append --human for formatted tables).
Every command is deterministic: only `optimize` draws random numbers, from
--seed (default 0). Exit codes: 0 success/PASS, 1 FAIL/NOT_FOUND, 2
usage/parse error or, for `verify`, a Q over the exact PSD check's work
budget (`exactq.MAX_WORK`); `certify` records such a rung as OVER_BUDGET
and goes on up the ladder.

The parser needs only `check`'s base table, and each command imports the
modules it uses, so `ssc verify` and `ssc compound` run without loading
numpy. Certificates are read and written by `check`, matrix files by
`exactq.read_matrix_q` and `exactq.format_row`.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
import time
from typing import NamedTuple

from . import check, exactq


# a NamedTuple: a frozen dataclass takes about 0.4 ms to build at every start
class RunReport(NamedTuple):
    command: str
    config: tuple  # (key, value) echo of run parameters
    results: tuple
    duration_s: float
    status: int = 0
    human: str = ""  # optional formatted block, shown with --human

    def lines(self) -> list[str]:
        out = [f"command: {self.command}"]
        out += [f"{k}: {v}" for k, v in self.config]
        out += [f"{k}: {v}" for k, v in self.results]
        out.append(f"duration_s: {self.duration_s:.3f}")
        return out


def _f(x) -> str:
    return repr(float(x))


def _vec(v) -> str:
    import numpy as np

    return " ".join(_f(x) for x in np.asarray(v).ravel())


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def cmd_spectrum(path: str) -> RunReport:
    from . import graphs

    t0 = time.perf_counter()
    G = graphs.read_graph(_read_text(path))
    s = graphs.spectral_sum(G)
    results = [("n", str(G.n)), ("edges", str(len(G.edges))),
               ("eigenvalues", _vec(s.eigenvalues)),
               ("lambda1", _f(s.lambda1)), ("lambda2", _f(s.lambda2)),
               ("spectral_sum", _f(s.spectral_sum))]
    if s.lambda2_by_convention:
        results.append(("note", "single vertex: lambda2 is 0 by convention"))
    return RunReport("spectrum", (("file", path),), tuple(results),
                     time.perf_counter() - t0)


def cmd_search(n: int, mode: str) -> RunReport:
    from . import graphs

    t0 = time.perf_counter()
    G, val = graphs.search_extremal(n, mode)
    A = G.adjacency()
    degs = sorted((int(d) for d in A.sum(axis=1)), reverse=True)
    edges = " ".join(f"{i}-{j}" for i, j in sorted(G.edges))
    results = (("n", str(n)), ("mode", mode), ("value", _f(val)),
               ("edge_count", str(len(G.edges))), ("edges", edges or "none"),
               ("degree_sequence", " ".join(map(str, degs))))
    return RunReport("search", (), results,
                     time.perf_counter() - t0, human=graphs.format_graph(G))


def _parse_weights(text: str, k: int):
    import numpy as np

    toks = [t for t in text.split(",") if t.strip()]
    if len(toks) != k:
        raise ValueError(f"expected {k} comma-separated weights, got {len(toks)}")
    try:
        return np.array([float(exactq.parse_rational(t)) for t in toks])
    except OverflowError as e:
        raise ValueError(f"weight too large for a float: {e}")


def cmd_optimize(name: str, restarts: int = 200, seed: int = 0,
                 weights: str | None = None) -> RunReport:
    from . import stepmodel

    t0 = time.perf_counter()
    cand = stepmodel.candidate(name)
    if weights is None:
        u, val = stepmodel.maximize_sigma(cand, restarts=restarts, seed=seed)
        model = stepmodel.StepModel(cand, u)
    else:
        model = stepmodel.StepModel(cand, _parse_weights(weights, cand.k))
        u, val = model.u, stepmodel.sigma(model)
    se = stepmodel.step_eigs(model)
    resid = stepmodel.ellipse_residual(model)
    checks = stepmodel.adjacency_criterion_check(model)
    twins = stepmodel.true_twin_check(cand.graph)
    results = [("candidate", name), ("sigma", _f(val)), ("u", _vec(u)),
               ("mu1", _f(se.mu1)), ("mu2", _f(se.mu2)),
               ("alpha", _vec(se.alpha)), ("beta", _vec(se.beta)),
               ("ellipse_residual", _vec(resid))]
    for c in checks:
        results.append((f"pair_{c.i}_{c.j}",
                        f"kappa={_f(c.kappa)} adjacent={c.adjacent} consistent={c.consistent}"))
    results.append(("adjacency_criterion",
                    "PASS" if all(c.consistent for c in checks) else "FAIL"))
    results.append(("true_twins", " ".join(f"{a}-{b}" for a, b in twins) or "none"))
    rows = [f"{'pair':>6} {'kappa':>22} {'adjacent':>9} {'consistent':>11}"]
    for c in checks:
        rows.append(f"{c.i}-{c.j:<4} {c.kappa:>22.15g} {str(c.adjacent):>9} "
                    f"{str(c.consistent):>11}")
    if weights is None:
        cfg = (("restarts", str(restarts)), ("seed", str(seed)))
    else:
        cfg = (("weights", weights),)
    return RunReport("optimize", cfg, tuple(results),
                     time.perf_counter() - t0, human="\n".join(rows))


def cmd_certify(name: str, bound: str = "8/7", max_den: int = 10 ** 4,
                max_iter: int = 50000, out: str | None = None) -> RunReport:
    from . import certify as certify_mod

    t0 = time.perf_counter()
    cand = certify_mod.cert_base(name)
    c = exactq.parse_rational(bound)
    r = certify_mod.certify(cand, c, max_iter=max_iter, max_den=max_den)
    results = [("candidate", name), ("bound", exactq.format_rational(c)),
               ("status", r.status),
               ("sdp_status", r.solve.status),
               ("iterations", str(r.solve.iterations)),
               ("affine_residual", _f(r.solve.affine_residual)),
               ("psd_residual", _f(r.solve.psd_residual)),
               ("attempts", " ".join(f"{d}:{v}" for d, v in r.attempts) or "none")]
    status = 0
    if r.status == "FOUND":
        path = out or f"{name}_certificate.txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(certify_mod.format_certificate(r.certificate))
        results += [("k", str(r.certificate.k)), ("m", str(r.certificate.m)),
                    ("dimQ", str(len(r.certificate.Q))),
                    ("certificate", path)]
    else:
        results.append(("failing_stage", r.stage))
        status = 1
    cfg_echo = (("max_den", str(max_den)), ("max_iter", str(max_iter)))
    return RunReport("certify", cfg_echo, tuple(results),
                     time.perf_counter() - t0, status=status)


def cmd_verify(path: str) -> RunReport:
    """Exact verdict from file contents alone: parse, re-derive the
    coefficient equations for the named base, compare over Q, then LDL^T."""
    t0 = time.perf_counter()
    cert = check.parse_certificate(_read_text(path))
    results = [("candidate", cert.candidate),
               ("bound", exactq.format_rational(cert.c)),
               ("k", str(cert.k)), ("m", str(cert.m)),
               ("dimQ", str(len(cert.Q)))]
    idr = check.verify_identity(cert)
    results.append(("identity", "PASS" if idr.ok else "FAIL"))
    for coeff, r, s, got, want in idr.violations[:5]:
        results.append(("identity_violation",
                        f"coefficient {coeff} entry ({r},{s}): "
                        f"got {got}, want {want}"))
    ok = idr.ok
    if idr.ok:
        wit = check.verify_psd(cert)
        results.append(("psd", wit.verdict))
        if wit.verdict != exactq.PSD:
            ok = False
            z = " ".join(exactq.format_rational(x) for x in wit.counterexample)
            results.append(("psd_counterexample", z))
            results.append(("psd_value", exactq.format_rational(wit.value)))
    else:
        results.append(("psd", "SKIPPED"))
    results.append(("verdict", "PASS" if ok else "FAIL"))
    return RunReport("verify", (("file", path),), tuple(results),
                     time.perf_counter() - t0, status=0 if ok else 1)


def cmd_compound(path: str, k: int) -> RunReport:
    t0 = time.perf_counter()
    M = exactq.read_matrix_q(_read_text(path))
    C = check.additive_compound(M, k)
    results = [("n", str(len(M))), ("k", str(k)), ("dim", str(len(C))),
               ("arithmetic", "exact")]
    results += [("row", exactq.format_row(row)) for row in C]
    return RunReport("compound", (("file", path),), tuple(results),
                     time.perf_counter() - t0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ssc",
        description="spectral-sum toolkit: spectra, exhaustive search, "
                    "weight optimization, and exact SOS certificates")
    human = "append human-formatted tables to the report"
    ap.add_argument("--human", action="store_true", help=human)
    # --human after the command too; with no default there, leaving it out
    # keeps the value read before the command
    after = argparse.ArgumentParser(add_help=False)
    after.add_argument("--human", action="store_true", default=argparse.SUPPRESS, help=human)
    sub = ap.add_subparsers(dest="cmd", required=True)
    add = functools.partial(sub.add_parser, parents=[after])

    p = add("spectrum", help="eigenvalues and spectral sum of a graph file")
    p.add_argument("file")
    p.set_defaults(run=lambda a: cmd_spectrum(a.file))

    p = add("search", help="exhaustive extremal search over graphs")
    p.add_argument("n", type=int)
    g = p.add_mutually_exclusive_group(required=True)
    # graphs.MAX and graphs.MIN_CONNECTED, spelled out: graphs loads numpy
    g.add_argument("--max", dest="mode", action="store_const", const="MAX",
                   help="maximize the spectral sum")
    g.add_argument("--min-connected", dest="mode", action="store_const",
                   const="MIN_CONNECTED", help="minimize over connected graphs")
    p.set_defaults(run=lambda a: cmd_search(a.n, a.mode))

    p = add("optimize", help="maximize sigma over simplex weights")
    p.add_argument("candidate", choices=sorted(check.CANDIDATES))
    p.add_argument("--restarts", type=int, default=200,
                   help="Dirichlet probes scored besides the 1/14 grid")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weights", default=None, metavar="W1,W2,...",
                   help="evaluate at these weights (rationals or decimals) "
                        "instead of optimizing")
    p.set_defaults(run=lambda a: cmd_optimize(a.candidate, restarts=a.restarts,
                                              seed=a.seed, weights=a.weights))

    p = add("certify", help="produce an exact SOS certificate")
    p.add_argument("candidate", choices=sorted(check.BASES))
    p.add_argument("--bound", default="8/7", help="rational bound")
    p.add_argument("--max-den", type=int, default=10 ** 4,
                   help="largest denominator tried")
    p.add_argument("--max-iter", type=int, default=50000)
    p.add_argument("--out", default=None, help="certificate path "
                   "(default <candidate>_certificate.txt)")
    p.set_defaults(run=lambda a: cmd_certify(a.candidate, bound=a.bound,
                                             max_den=a.max_den,
                                             max_iter=a.max_iter, out=a.out))

    p = add("verify", help="exactly verify a certificate file")
    p.add_argument("file")
    p.set_defaults(run=lambda a: cmd_verify(a.file))

    p = add("compound", help="k-th additive compound of a matrix file")
    p.add_argument("file")
    p.add_argument("k", type=int)
    p.set_defaults(run=lambda a: cmd_compound(a.file, a.k))
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a "-1/2" or "-.5" after --bound for an option: glue it on
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--bound" and re.match(r"-[0-9.]", argv[i + 1]):
            argv[i:i + 2] = [f"--bound={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        report = args.run(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for ln in report.lines():
        print(ln)
    if args.human and report.human:
        print(report.human)
    return report.status


if __name__ == "__main__":
    sys.exit(main())
