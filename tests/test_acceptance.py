"""Acceptance gate: one test per shipping criterion, each printing a
single PASS/FAIL line (visible with -s; pytest -v shows one line per
criterion either way).  Criteria 5, 6 and 8 share a single H6
certification run via the module-scoped fixture below.
"""
import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from specsum import certify, cli, compound, exactq, graphs, stepmodel
from oracles import P3_ALPHA, P3_BETA, P3_MU, P3_U_STAR


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def as_dict(rep):
    return dict(rep.results)


@pytest.fixture(scope="module")
def h6_cert(tmp_path_factory):
    """One full H6 certification at 8/7; reused by criteria 5, 6, 8."""
    out = tmp_path_factory.mktemp("cert") / "h6.txt"
    t0 = time.perf_counter()
    rep = cli.cmd_certify("H6", bound="8/7", out=str(out))
    sdp_s = time.perf_counter() - t0
    assert rep.status == 0 and as_dict(rep)["status"] == "FOUND"
    cert = certify.parse_certificate(out.read_text())
    return rep, cert, sdp_s


class TestAcceptance:
    def test_criterion_1_compound_spectrum(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(100):
            A = rng.standard_normal((6, 6))
            M = (A + A.T) / 2
            lam = np.linalg.eigvalsh(M)
            want = np.sort([lam[i] + lam[j] for i in range(6) for j in range(i + 1, 6)])
            got = np.linalg.eigvalsh(compound.psi(M))
            worst = max(worst, float(np.max(np.abs(got - want))))
        dt = time.perf_counter() - t0
        report(1, worst < 1e-8 and dt < 5,
               f"psi spectrum vs pairwise sums, max err {worst:.3g}, {dt:.2f}s")

    def test_criterion_2_blowup_scaling(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(2, 7))
            edges = [(i + 1, j + 1) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.5]
            G = graphs.graph(n, edges)
            lam = np.linalg.eigvalsh(G.adjacency())
            for t in (2, 3, 4):
                want = np.sort(np.concatenate([t * lam, np.zeros(n * (t - 1))]))
                got = np.linalg.eigvalsh(graphs.blowup(G, t).adjacency())
                worst = max(worst, float(np.max(np.abs(got - want))))
        dt = time.perf_counter() - t0
        report(2, worst < 1e-9 and dt < 5,
               f"blowup spectra over 50 graphs x t=2,3,4, max err {worst:.3g}, {dt:.2f}s")

    def test_criterion_3_extremal_weights(self):
        t0 = time.perf_counter()
        rep = cli.cmd_optimize("P3", restarts=200, seed=0)
        d = as_dict(rep)
        sigma = float(d["sigma"])
        u = np.array([float(x) for x in d["u"].split()])
        resid = np.array([float(x) for x in d["ellipse_residual"].split()])
        mu = (float(d["mu1"]), float(d["mu2"]))
        alpha = np.array([float(x) for x in d["alpha"].split()])
        beta = np.array([float(x) for x in d["beta"].split()])
        dt = time.perf_counter() - t0
        ok = (abs(sigma - 8 / 7) < 1e-6
              and np.max(np.abs(u - np.array(P3_U_STAR))) < 1e-4
              and np.all(np.abs(resid) <= 1e-6)
              and max(abs(mu[0] - P3_MU[0]), abs(mu[1] - P3_MU[1])) < 1e-4
              and np.max(np.abs(alpha - np.array(P3_ALPHA))) < 1e-4
              and np.max(np.abs(beta - np.array(P3_BETA))) < 1e-4
              and dt < 30)
        report(3, ok,
               f"P3 sigma*={sigma:.9f}, |u-u*|={np.max(np.abs(u - np.array(P3_U_STAR))):.2g}, "
               f"max ellipse residual {np.max(np.abs(resid)):.2g}, {dt:.2f}s")

    def test_criterion_4_candidate_ceiling(self):
        t0 = time.perf_counter()
        vals = {}
        for name in ("P3", "P4", "H5", "H6"):
            _, vals[name] = stepmodel.maximize_sigma(stepmodel.candidate(name),
                                                     restarts=200, seed=0)
        dt = time.perf_counter() - t0
        ok = (all(v <= 8 / 7 + 1e-6 for v in vals.values())
              and vals["H6"] >= 8 / 7 - 1e-6 and dt < 300)
        report(4, ok, "sigma* " + " ".join(f"{k}={v:.9f}" for k, v in vals.items())
               + f", {dt:.1f}s")

    def test_criterion_5_end_to_end_certification(self, h6_cert):
        rep, cert, sdp_s = h6_cert
        t0 = time.perf_counter()
        ident = certify.verify_identity(cert)
        witness = certify.verify_psd(cert)
        ver_s = time.perf_counter() - t0
        ok = (ident.ok and witness.verdict == "PSD"
              and witness.decomposition is not None
              and len(witness.decomposition) > 0
              and sdp_s < 1800 and ver_s < 600)
        report(5, ok,
               f"H6 at 8/7: identity={'ok' if ident.ok else 'FAIL'}, "
               f"psd={witness.verdict} with {len(witness.decomposition or ())} "
               f"rank-one terms, solve+round {sdp_s:.1f}s, exact checks {ver_s:.1f}s")

    def test_criterion_6_soundness_spot_check(self, h6_cert):
        _, cert, _ = h6_cert
        t0 = time.perf_counter()
        base = certify.cert_base(cert.candidate)
        min_eig = certify.soundness_spot_check(base, cert.c, samples=1000, seed=0)
        dt = time.perf_counter() - t0
        report(6, min_eig >= -1e-9 and dt < 60,
               f"min eig of (8/7)I - psi(M*(x)) over 1000 unit x: {min_eig:.3g}, {dt:.2f}s")

    def test_criterion_7_exhaustive_bound(self):
        t0 = time.perf_counter()
        ok = True
        notes = []
        for n in range(2, 8):
            G, val = graphs.search_extremal(n, graphs.MAX)
            ok &= val <= 8 * n / 7 + 1e-12
            notes.append(f"n={n}:{val:.6f}<=8n/7={8 * n / 7:.6f}")
            if n >= 5:
                p, q = graphs.conjecture_pq(n)
                K = graphs.knpq(n, p, q)
                deg = sorted(int(x) for x in G.adjacency().sum(axis=1))
                deg_k = sorted(int(x) for x in K.adjacency().sum(axis=1))
                ev = np.linalg.eigvalsh(G.adjacency())
                ev_k = np.linalg.eigvalsh(K.adjacency())
                iso = deg == deg_k and float(np.max(np.abs(ev - ev_k))) < 1e-8
                ok &= iso
                notes.append(f"n={n} maximizer ~ K({n},{p},{q}): {iso}")
        dt = time.perf_counter() - t0
        ok &= dt < 600
        report(7, ok, "; ".join(notes[:6]) + f"; {dt:.1f}s")

    def test_criterion_8_exact_verifier_negative(self, h6_cert):
        _, cert, _ = h6_cert
        t0 = time.perf_counter()
        rng = np.random.default_rng(8)
        dim = len(cert.Q)
        m = cert.m
        eps = Fraction(1, 10 ** 6)

        # a spread of single-entry corruptions across Q and T, every one of
        # which must break the exact identity
        spots = {(0, 0, "Q"), (dim - 1, dim - 1, "Q"), (0, dim - 1, "Q"),
                 (0, 0, "T"), (m - 1, m - 2, "T")}
        while len(spots) < 25:
            a, b = (int(x) for x in rng.integers(0, dim, 2))
            spots.add((a, b, "Q"))
        while len(spots) < 30:
            a, b = (int(x) for x in rng.integers(0, m, 2))
            spots.add((a, b, "T"))
        flipped = 0
        for a, b, which in sorted(spots):
            if which == "Q":
                Q = [list(row) for row in cert.Q]
                Q[a][b] += eps
                bad = dataclasses.replace(cert, Q=tuple(tuple(r) for r in Q))
            else:
                T = [list(row) for row in cert.T]
                T[a][b] += eps
                bad = dataclasses.replace(cert, T=tuple(tuple(r) for r in T))
            flipped += not certify.verify_identity(bad).ok
        identity_ok = flipped == len(spots)

        Qm = [list(row) for row in cert.Q]
        for i in range(dim):
            Qm[i][i] -= Fraction(1, 1000)
        shifted = dataclasses.replace(cert, Q=tuple(tuple(r) for r in Qm))
        w = certify.verify_psd(shifted)
        psd_ok = (w.verdict == "NOT_PSD" and w.counterexample is not None
                  and exactq.q_eval([list(r) for r in shifted.Q],
                                    list(w.counterexample)) < 0)
        dt = time.perf_counter() - t0
        report(8, identity_ok and psd_ok and dt < 60,
               f"{flipped}/{len(spots)} single-entry corruptions flip the identity; "
               f"Q-(1/1000)I -> {w.verdict} with rational witness, {dt:.1f}s")
