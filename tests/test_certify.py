import dataclasses
import functools
import hashlib
import inspect
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsum import certify as ct
from specsum import check, cli, exactq, graphs, stepmodel
from oracles import (additive_compound_pairs, dense_verify_identity, fraction_ldl_psd_check,
                     hostile_certificate, spot_check_loop, work_score)

C87 = Fraction(8, 7)

# the 8 certificate files pinned byte for byte: (base, bound, SHA-256)
PINNED = [
    ("P3", C87, "1e510a88601ff6f083f23ea203cb0888fa1fa95ef1b6b2f4d987c2c0f88e9ebe"),
    ("P4", C87, "ac68b6a0c57b2d53eeaac4c42f7025ef119038f9cd04eb4f66c0bc684376ebd0"),
    ("H5", C87, "077683f3255e3e6ac159d686699f287dfc10d65cf8740bf9f274973a0f6bd573"),
    ("H6", C87, "cbef8f2570b723a30829a4132284fb3a0f3b496f1f84f5c62ceb754285957643"),
    ("H5", Fraction(6, 5), "7a15a97ecaeb2920d6957e2f050be6233ac810bd9e103590c6e2856d3fca063a"),
    ("H5", Fraction(23, 20), "fcd3113176e250441a34ebe61e9cb1bfa26ae151578ed20cf8472f58bda8ae9b"),
    ("H6", Fraction(23, 20), "0a139772277bab92156a4b3afa68dce387a0770994a29a1c85fd276c724c9109"),
    ("H6", Fraction(6, 5), "69e80fc85ba7abb188afee4c715a2796871ec59907776546a84c835580d26365"),
]
# the denominators each of those calls tries, in order; the last one passes
RUNGS = {("P3", C87): (7, 14), ("P4", C87): (7, 14, 21, 28, 42),
         ("H5", C87): (7, 14), ("H6", C87): (7, 14, 21, 28),
         ("H5", Fraction(6, 5)): (7,), ("H5", Fraction(23, 20)): (7, 14),
         ("H6", Fraction(23, 20)): (7, 14, 21, 28),
         ("H6", Fraction(6, 5)): (7, 14, 21, 28, 42)}


@functools.lru_cache(maxsize=None)
def certified(name, c):
    return ct.certify(ct.cert_base(name), c)


def character(p, t):
    """e_a + e_i + e_j of coordinate t = (a, (i, j)) as a set of vertices."""
    a, r = divmod(t, p.m)
    i, j = p.pairs[r]
    return frozenset({a} if a else ()) ^ {i} ^ {j}


def block_mask(p):
    M = np.zeros((p.dim, p.dim), dtype=bool)
    for B in p.blocks.values():
        for idx in B:
            M[np.ix_(idx, idx)] = True
    return M


@functools.lru_cache(maxsize=None)
def problem(name, c):
    return ct.assemble(ct.cert_base(name), c)


def replace_entries(cert, Q=(), T=()):
    """cert with Q[t][u] += d for each (t, u, d) in Q, and likewise T."""
    out = {}
    for key, edits in (("Q", Q), ("T", T)):
        M = [list(row) for row in getattr(cert, key)]
        for t, u, d in edits:
            M[t][u] += d
        out[key] = tuple(map(tuple, M))
    return dataclasses.replace(cert, **out)


def perturbed(cert):
    """Q[0][0] moved by 1/10^6: the constant coefficient stops matching."""
    return replace_entries(cert, Q=[(0, 0, Fraction(1, 10 ** 6))])


def negdiag(cert):
    """Q_00 - lam I, T + lam I and Q_ii + lam I: every coefficient equation
    still holds, and a diagonal entry of Q_00 is -1."""
    m = cert.m
    lam = min(cert.Q[r][r] for r in range(m)) + 1
    return replace_entries(cert, Q=[(t, t, -lam if t < m else lam) for t in range(len(cert.Q))],
                           T=[(r, r, lam) for r in range(m)])


@pytest.fixture(scope="module")
def p3_problem():
    return ct.assemble(ct.cert_base("P3"), C87)


@pytest.fixture(scope="module")
def p3_result(p3_problem):
    r = ct.certify(ct.cert_base("P3"), C87)
    assert r.status == "FOUND"
    return r


class TestAssemble:
    def test_h6_dimensions(self):
        p = ct.assemble(ct.cert_base("H6"), C87)
        assert (p.k, p.m, p.dim) == (6, 15, 105)
        assert len(p.pairs) == 15
        assert len(p.R) == 6 and len(p.F) == 15

    def test_k2_dimensions(self):
        p = ct.assemble(ct.cert_base("K2"), 1)
        assert (p.k, p.m, p.dim) == (2, 1, 3)

    def test_psi_e11_diagonal_structure(self):
        # R_1 = c*I - psi(E_11): psi(E_11) is diagonal with 1 exactly at
        # wedge pairs containing vertex 1
        p = ct.assemble(ct.cert_base("H6"), C87)
        R1 = p.R[0]
        for a, (i, j) in enumerate(p.pairs):
            for b in range(p.m):
                if a != b:
                    assert R1[a][b] == 0
            want = C87 - (1 if 1 in (i, j) else 0)
            assert R1[a][a] == want

    def test_off_diagonal_fixed_parts_vanish_on_non_edges(self):
        p = ct.assemble(ct.cert_base("P3"), C87)
        # (1,3) is not an edge of the looped path
        assert all(x == 0 for row in p.F[(1, 3)] for x in row)
        assert any(x != 0 for row in p.F[(1, 2)] for x in row)

    def test_unknown_base(self):
        with pytest.raises(ValueError):
            ct.cert_base("K3")

    @pytest.mark.parametrize("name", ["K2", "P3", "P4", "H5", "H6"])
    def test_right_hand_sides_match_additive_compound(self, name):
        # the all-pairs oracle builds psi by another route
        p = ct.assemble(ct.cert_base(name), C87)
        A = p.candidate.graph.adjacency()
        cI = [[C87 if r == s else 0 for s in range(p.m)] for r in range(p.m)]

        def term(i, j):  # -A_ij psi(E_ij + E_ji), E_ii once for i = j
            E = [[Fraction(0)] * p.k for _ in range(p.k)]
            E[i - 1][j - 1] = E[j - 1][i - 1] = Fraction(1)
            return [[-int(A[i - 1, j - 1]) * x for x in row]
                    for row in additive_compound_pairs(E, 2)]

        def support(M):
            return {(r, s): x for r, row in enumerate(M) for s, x in enumerate(row) if x}

        rhs = check.coefficient_rhs(p.k, p.candidate.graph.edges, C87)
        assert rhs["1"] == support(cI)
        for i in range(1, p.k + 1):
            sq = term(i, i)
            assert rhs[f"x_{i}"] == {}
            assert rhs[f"x_{i}^2"] == support(sq)
            assert [list(row) for row in p.R[i - 1]] == \
                [[a + b for a, b in zip(*rows)] for rows in zip(cI, sq)]
        for i, j in p.pairs:
            two_f = term(i, j)
            assert rhs[f"x_{i}*x_{j}"] == support(two_f)
            assert [list(row) for row in p.F[(i, j)]] == [[x / 2 for x in row] for row in two_f]


class TestSignBlocks:
    @pytest.mark.parametrize("name", ["K2", "P3", "P4", "H5", "H6"])
    def test_blocks_partition_coordinates_by_character(self, name):
        p = ct.assemble(ct.cert_base(name), C87)
        seen = sorted(t for B in p.blocks.values() for t in B.ravel().tolist())
        assert seen == list(range(p.dim))
        chars = {}
        for s, B in p.blocks.items():
            assert B.shape[1] == s
            for idx in B.tolist():
                assert idx == sorted(idx)
                (ch,) = {character(p, t) for t in idx}  # one character a block
                assert ch not in chars  # and one block a character
                chars[ch] = idx

    @pytest.mark.parametrize("name,sizes", [
        ("P3", {1: 3, 2: 3, 3: 1}), ("P4", {1: 6, 3: 8}),
        ("H5", {1: 10, 3: 10, 4: 5}), ("H6", {1: 15, 3: 20, 5: 6})])
    def test_block_sizes(self, name, sizes):
        p = ct.assemble(ct.cert_base(name), C87)
        assert {s: len(B) for s, B in p.blocks.items()} == sizes

    @pytest.mark.parametrize("name", ["P3", "P4", "H5", "H6"])
    def test_solve_is_exactly_zero_off_block(self, name):
        p = ct.assemble(ct.cert_base(name), C87)
        r = ct.sdp_solve(p)
        assert r.status == "CONVERGED"
        assert not r.Q[~block_mask(p)].any()
        assert np.array_equal(r.Q, r.Q.T)

    def test_affine_residual_sees_each_equation(self):
        # a point on the affine set, then one equation broken by 1e-3 at a time
        p = ct.assemble(ct.cert_base("P4"), C87)
        L = p.layout
        v = ct._project_affine(p, np.zeros(L.rows.size))
        assert ct.affine_residual(p, v) < 1e-12
        # Q_0i is off the blocks; the entries of Q_ij, i < j, are in
        assert not (L.rows[L.off] < p.m).any()
        for e in L.off[L.up == L.off][[0, -1]]:
            for pert in ((e,), (e, L.tr[e])):  # asymmetric; symmetric
                w = v.copy()
                w[list(pert)] += 1e-3
                assert ct.affine_residual(p, w) >= 1e-3 - 1e-12
        for e in (L.diag[0][0], L.diag[2][1]):
            w = v.copy()
            w[e] += 1e-3
            assert ct.affine_residual(p, w) >= 1e-3 - 1e-12


class TestSdpSolve:
    def test_trivial_base_immediate(self):
        p = ct.assemble(ct.cert_base("K2"), 1)
        r = ct.sdp_solve(p)
        assert r.status == "CONVERGED"
        assert r.iterations <= 5
        assert np.abs(r.Q).max() < 1e-9

    def test_p3_converges(self, p3_problem):
        r = ct.sdp_solve(p3_problem)
        assert r.status == "CONVERGED"
        assert r.affine_residual <= 1e-9 and r.psd_residual <= 1e-9
        # 97 with the eigen-clip at 0; a clip at a positive margin, which no
        # point can meet at 8/7, ran to about 2000
        assert r.iterations <= 200

    def test_affine_residual_measured_once_and_still_gates(self, monkeypatch, p3_problem):
        # the loop stops on the PSD residual; the affine one is taken on the
        # returned point only, and CONVERGED needs it at most TOL there
        calls = []
        inner = ct.affine_residual

        def recording(p, v):
            calls.append(inner(p, v))
            return calls[-1]

        monkeypatch.setattr(ct, "affine_residual", recording)
        r = ct.sdp_solve(p3_problem)
        assert (r.status, r.iterations, calls) == ("CONVERGED", 97, [r.affine_residual])
        monkeypatch.setattr(ct, "affine_residual", lambda p, v: 2 * ct.TOL)
        r = ct.sdp_solve(p3_problem)
        assert (r.status, r.iterations, r.affine_residual) == ("NOT_FOUND", 97, 2 * ct.TOL)

    def test_infeasible_bound_stalls(self, p3_problem):
        # 9/8 < 8/7 = attained max, so no certificate exists
        p = ct.assemble(ct.cert_base("P3"), Fraction(9, 8))
        r = ct.sdp_solve(p, max_iter=4000)
        assert r.status == "NOT_FOUND"
        assert r.psd_residual > 1e-9

    def test_h6_below_true_max_stalls(self):
        # same at full scale: sigma reaches 8/7 on H6, so 9/8 is infeasible
        p = ct.assemble(ct.cert_base("H6"), Fraction(9, 8))
        r = ct.sdp_solve(p, max_iter=800)
        assert r.status == "NOT_FOUND"
        assert max(r.psd_residual, r.affine_residual) > 1e-9


class TestRationalize:
    def test_identity_holds_regardless_of_input(self, p3_problem):
        # dependent entries are reconstructed exactly, so even rounding
        # garbage yields a (non-PSD) certificate satisfying the identity
        rng = np.random.default_rng(0)
        junk = rng.standard_normal((p3_problem.dim, p3_problem.dim))
        cert = ct.rationalize(p3_problem, junk, max_den=97)
        assert ct.verify_identity(cert).ok

    def test_off_block_input_is_ignored(self):
        p = ct.assemble(ct.cert_base("H5"), C87)
        junk = np.random.default_rng(1).standard_normal((p.dim, p.dim))
        cert = ct.rationalize(p, junk, max_den=97)
        assert cert == ct.rationalize(p, np.where(block_mask(p), junk, 0.0), max_den=97)
        assert ct.verify_identity(cert).ok

    def test_trivial_base_exact(self):
        p = ct.assemble(ct.cert_base("K2"), 1)
        cert = ct.rationalize(p, np.zeros((3, 3)), max_den=10)
        assert all(x == 0 for row in cert.Q for x in row)
        assert cert.T == ((Fraction(1),),)


class TestVerifyIdentity:
    def test_pipeline_output_passes(self, p3_result):
        rep = ct.verify_identity(p3_result.certificate)
        assert rep.ok and rep.violations == ()

    def test_perturbed_entry_identified(self, p3_result):
        cert = p3_result.certificate
        Q = [list(row) for row in cert.Q]
        Q[2][5] += Fraction(1, 10 ** 6)
        bad = ct.Certificate(cert.candidate, cert.c, cert.k, cert.m,
                             tuple(tuple(r) for r in Q), cert.T)
        rep = ct.verify_identity(bad)
        assert not rep.ok
        assert rep.violations  # names the violated coefficient
        assert any("sym(Q)" in v[0] or "x" in v[0] or v[0] == "1"
                   for v in rep.violations)

    def test_zero_q_cannot_match(self):
        p = ct.assemble(ct.cert_base("H6"), C87)
        dim, m = p.dim, p.m
        zq = tuple((Fraction(0),) * dim for _ in range(dim))
        zt = tuple((Fraction(0),) * m for _ in range(m))
        rep = ct.verify_identity(ct.Certificate("H6", C87, p.k, p.m, zq, zt))
        assert not rep.ok

    def test_every_violation_reported(self):
        # zero Q and T on H6 violate every one of the 117 nonzero right-hand
        # side entries; none is dropped from the report
        p = problem("H6", C87)
        zq = tuple((Fraction(0),) * p.dim for _ in range(p.dim))
        zt = tuple((Fraction(0),) * p.m for _ in range(p.m))
        cert = ct.Certificate("H6", C87, p.k, p.m, zq, zt)
        rep = ct.verify_identity(cert)
        assert len(rep.violations) == 117
        assert rep.violations == dense_verify_identity(cert, p)[1]

    @pytest.mark.parametrize("name", ["P3", "P4", "H5", "H6"])
    def test_hostile_certificates_match_dense_oracle(self, name):
        cert = certified(name, C87).certificate
        p = problem(name, C87)
        for bad, ok in ((perturbed(cert), False), (negdiag(cert), True)):
            rep = ct.verify_identity(bad)
            want_ok, want_bad, dense_checked = dense_verify_identity(bad, p)
            assert rep.ok == want_ok == ok
            assert rep.violations == want_bad
            assert 0 < rep.checked < dense_checked
        assert ct.verify_psd(negdiag(cert)).verdict == exactq.NOT_PSD

    @settings(max_examples=150, deadline=None)
    @given(name=st.sampled_from(["P3", "P4", "H5"]),
           kind=st.sampled_from(["q_entry", "q_pair", "t_entry", "off_block", "skew_0i"]),
           picks=st.tuples(*[st.integers(0, 10 ** 6)] * 3),
           delta=st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(bool))
    def test_mutations_match_dense_oracle(self, name, kind, picks, delta):
        cert = certified(name, C87).certificate
        p = problem(name, C87)
        t, u, w = picks
        if kind == "q_entry":
            bad = replace_entries(cert, Q=[(t % p.dim, u % p.dim, delta)])
        elif kind == "q_pair":
            t, u = t % p.dim, u % p.dim
            bad = replace_entries(cert, Q=[(t, u, delta)] + [(u, t, delta)] * (t != u))
        elif kind == "t_entry":
            bad = replace_entries(cert, T=[(t % p.m, u % p.m, delta)])
        elif kind == "off_block":
            off = np.argwhere(~block_mask(p))
            t, u = off[t % len(off)].tolist()
            bad = replace_entries(cert, Q=[(t, u, delta)] + [(u, t, delta)] * (t != u))
        else:  # a skew pair of Q_0i with its mirror in Q_i0: the identity holds
            i, r, s = 1 + w % p.k, t % p.m, u % p.m
            o = i * p.m
            bad = replace_entries(cert, Q=[(r, o + s, delta), (o + s, r, delta),
                                           (s, o + r, -delta), (o + r, s, -delta)])
        rep = ct.verify_identity(bad)
        want_ok, want_bad, dense_checked = dense_verify_identity(bad, p)
        assert rep.ok == want_ok
        assert rep.violations == want_bad
        assert rep.checked <= dense_checked
        if kind == "skew_0i":
            assert rep.ok


class TestVerifyPsd:
    def test_pipeline_output_is_psd(self, p3_result):
        wit = ct.verify_psd(p3_result.certificate)
        assert wit.verdict == exactq.PSD

    def test_shifted_down_is_not_psd(self, p3_result):
        cert = p3_result.certificate
        Q = [list(row) for row in cert.Q]
        for i in range(len(Q)):
            Q[i][i] -= Fraction(1, 1000)
        bad = ct.Certificate(cert.candidate, cert.c, cert.k, cert.m,
                             tuple(tuple(r) for r in Q), cert.T)
        wit = ct.verify_psd(bad)
        assert wit.verdict == exactq.NOT_PSD
        assert exactq.q_eval([list(r) for r in bad.Q],
                             list(wit.counterexample)) < 0


class TestCertify:
    def test_p3_end_to_end(self, p3_result):
        cert = p3_result.certificate
        assert cert.candidate == "P3" and cert.c == C87
        assert (cert.k, cert.m, len(cert.Q), len(cert.T)) == (3, 3, 12, 3)
        assert ct.verify_identity(cert).ok
        assert ct.verify_psd(cert).verdict == exactq.PSD
        assert p3_result.attempts  # ladder consulted and recorded

    def test_trivial_base(self):
        r = ct.certify(ct.cert_base("K2"), 1)
        assert r.status == "FOUND"
        assert all(x == 0 for row in r.certificate.Q for x in row)
        assert r.certificate.T == ((Fraction(1),),)

    def test_deterministic(self, p3_result):
        again = ct.certify(ct.cert_base("P3"), C87)
        assert again.certificate == p3_result.certificate
        assert again.attempts == p3_result.attempts

    def test_infeasible_bound_reports_not_found(self):
        r = ct.certify(ct.cert_base("P3"), Fraction(9, 8), max_iter=2000)
        assert r.status == "NOT_FOUND"
        assert r.certificate is None
        assert r.stage in ("sdp_solve", "verify_psd")

    @pytest.mark.parametrize("name,c,sha", PINNED)
    def test_certificate_bytes_pinned(self, name, c, sha):
        # the emitted file is what `ssc verify` users re-check and compare,
        # so a solver change that moves the rounded point must show up here
        r = certified(name, c)
        assert r.status == "FOUND"
        text = ct.format_certificate(r.certificate)
        assert hashlib.sha256(text.encode()).hexdigest() == sha

    @pytest.mark.parametrize("name,c", list(RUNGS))
    def test_rungs_pinned_and_nonzeros_inside_blocks(self, name, c):
        r = certified(name, c)
        want = RUNGS[name, c]
        assert r.attempts == tuple((d, exactq.PSD if d == want[-1] else exactq.NOT_PSD)
                                   for d in want)
        Q = np.array([[x != 0 for x in row] for row in r.certificate.Q])
        assert not (Q & ~block_mask(ct.assemble(ct.cert_base(name), c))).any()
        T = np.array([[x != 0 for x in row] for row in r.certificate.T])
        assert not (T & ~np.eye(len(T), dtype=bool)).any()

    def test_identity_break_fails_closed(self, monkeypatch):
        # the identity is checked only on the accepted rung; a PSD
        # certificate that breaks it must still raise, not be returned
        real = ct.rationalize

        def broken(p, Q_num, max_den=10 ** 4):
            cert = real(p, Q_num, max_den=max_den)
            T = [list(row) for row in cert.T]
            T[0][0] += 1
            return ct.Certificate(cert.candidate, cert.c, cert.k, cert.m,
                                  cert.Q, tuple(map(tuple, T)))

        monkeypatch.setattr(ct, "rationalize", broken)
        with pytest.raises(ArithmeticError, match="broke identity"):
            ct.certify(ct.cert_base("P3"), C87)

    def test_assembles_once(self, monkeypatch):
        calls = []
        real = ct.assemble

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(ct, "assemble", counting)
        r = ct.certify(ct.cert_base("P3"), C87)
        assert r.status == "FOUND" and len(r.attempts) > 1
        assert len(calls) == 1

    def test_denominator_ladder_small_first(self):
        ladder = ct._denominator_ladder(10 ** 4)
        assert ladder[0] == 7
        assert 21 in ladder and 10 ** 4 in ladder
        assert ladder == sorted(ladder)

    def test_denominator_ladder_ends_at_max_den(self):
        assert ct._denominator_ladder(10 ** 4)[-1] == 10 ** 4
        assert ct._denominator_ladder(10 ** 4) == sorted(
            [7 << j for j in range(11)] + [21 << j for j in range(9)] + [10 ** 4])

    def test_infeasible_bound_solves_once(self, monkeypatch):
        # no second solve at a tighter tolerance: one solve, then one ladder
        calls = []
        real = ct.sdp_solve

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(ct, "sdp_solve", counting)
        r = ct.certify(ct.cert_base("P3"), Fraction(9, 8), max_iter=500)
        assert len(calls) == 1
        assert (r.status, r.stage, r.solve.status) == ("NOT_FOUND", "sdp_solve", "NOT_FOUND")
        assert r.attempts == tuple((d, exactq.NOT_PSD) for d in ct._denominator_ladder(10 ** 4))

    def test_unconverged_solve_is_still_rounded(self):
        # 60 iterations leave H6 at 8/7 short of tol, yet a rung verifies
        r = ct.certify(ct.cert_base("H6"), C87, max_iter=60)
        assert r.solve.status == "NOT_FOUND"
        assert r.status == "FOUND"
        assert check.verify_identity(r.certificate).ok
        assert check.verify_psd(r.certificate).verdict == exactq.PSD

    def test_config_has_only_the_cli_fields(self):
        params = inspect.signature(ct.certify).parameters.values()
        assert [(q.name, q.default) for q in params if q.kind is q.KEYWORD_ONLY] == \
            [("max_iter", 50000), ("max_den", 10 ** 4)]

    @pytest.mark.parametrize("max_den", [0, -3])
    def test_max_den_below_one_refused_before_solving(self, monkeypatch, max_den):
        calls = []
        monkeypatch.setattr(ct, "sdp_solve", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match="max_den must be >= 1"):
            ct.certify(ct.cert_base("P3"), Fraction(9, 8), max_den=max_den)
        assert calls == []

    @pytest.mark.parametrize("c", [Fraction(10) ** 400, -Fraction(10) ** 308, 2 ** 512 + 1],
                             ids=["1e400", "-1e308", "2^512+1"])
    def test_bound_beyond_the_float_solve_refused_before_solving(self, monkeypatch, c):
        calls = []
        for stage in ("assemble", "sdp_solve"):
            monkeypatch.setattr(ct, stage, lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match=r"bound must be at most 2\^512 in absolute value"):
            ct.certify(ct.cert_base("P3"), c)
        assert calls == []

    @pytest.mark.parametrize("max_iter", [0, -5])
    def test_max_iter_below_one_refused_before_solving(self, monkeypatch, max_iter):
        calls = []
        for stage in ("assemble", "sdp_solve"):
            monkeypatch.setattr(ct, stage, lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            ct.certify(ct.cert_base("P3"), Fraction(9, 8), max_iter=max_iter)
        assert calls == []


@functools.lru_cache(maxsize=None)
def ladder_point(name, c):
    """The solver's point for a catalog base at c, after at most 2000
    iterations: every bound here but 9/8 converges well within them."""
    return ct.sdp_solve(problem(name, c), max_iter=2000).Q


class TestExactPsdOnTheLadder:
    @pytest.mark.parametrize("c", [C87, Fraction(6, 5), Fraction(23, 20), Fraction(9, 8)],
                             ids=["8/7", "6/5", "23/20", "9/8"])
    @pytest.mark.parametrize("name", ["P3", "P4", "H5", "H6"])
    def test_every_rung_matches_fraction_reference(self, name, c):
        # the integer elimination returns the PsdWitness of the Fraction one
        # on every rung up to 10^4, the failing ones and their witnesses too
        p = problem(name, c)
        verdicts = set()
        for d in ct._denominator_ladder(10 ** 4):
            Q = ct.rationalize(p, ladder_point(name, c), max_den=d).Q
            w = exactq.ldl_psd_check(Q)
            assert w == fraction_ldl_psd_check(Q)
            verdicts.add(w.verdict)
        assert (exactq.PSD in verdicts) == (c != Fraction(9, 8))

    @pytest.mark.parametrize("name,c", list(RUNGS))
    def test_every_rung_up_to_1e9_within_budget(self, name, c):
        # the pinned calls' points rounded at every rung up to 10^9, beyond
        # any default ladder, stay inside the work budget (the largest
        # score here is 2,115, on H6)
        p, Qn = problem(name, c), certified(name, c).solve.Q
        for d in ct._denominator_ladder(10 ** 9):
            Q = ct.rationalize(p, Qn, max_den=d).Q
            assert work_score(Q) <= exactq.MAX_WORK
            exactq.ldl_psd_check(Q)

    @pytest.mark.parametrize("name", ["P3", "H6"])
    def test_hostile_certificate_refused_within_a_second(self, capsys, tmp_path, name):
        # every free parameter moved by 1/N for a fresh 240-digit N: inside
        # the grammar, the identity holds, and the budget refuses the LDL^T
        r = ct.certify(ct.cert_base(name), 2)
        cert = hostile_certificate(r.certificate)
        assert ct.verify_identity(cert).ok
        f = tmp_path / "hostile.txt"
        f.write_text(ct.format_certificate(cert))
        t0 = time.perf_counter()
        code = cli.main(["verify", str(f)])
        elapsed = time.perf_counter() - t0
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: PSD check refused: a component of ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert elapsed < 1.0


class TestBaseTable:
    def test_one_table_for_candidates_and_certificate_bases(self):
        assert ct.cert_base is stepmodel.candidate
        for name, (k, edges) in check.BASES.items():
            assert ct.cert_base(name) == stepmodel.CandidateGraph(name, graphs.graph(k, edges))
        assert check.CANDIDATES == {name: check.BASES[name] for name in check.CANDIDATES}
        assert list(check.BASES) == ["P3", "P4", "H5", "H6", "K2"]

    def test_unknown_base_refused_alike(self):
        for lookup in (check.base, ct.cert_base, stepmodel.candidate):
            with pytest.raises(ValueError, match=r"unknown certificate base 'K9'; "
                                                 r"have \['H5', 'H6', 'K2', 'P3', 'P4'\]"):
                lookup("K9")

    def test_base_added_to_the_table_alone_is_certified_and_verified(
            self, monkeypatch, tmp_path, capsys):
        # P3's edges under a new name: every lookup and `ssc certify` /
        # `ssc verify` take it from check.BASES, and its certificate is P3's
        # but for the name on line 1
        monkeypatch.setitem(check.BASES, "Q3", check.BASES["P3"])
        for lookup in (stepmodel.candidate, ct.cert_base):
            assert lookup("Q3") == stepmodel.CandidateGraph("Q3", ct.cert_base("P3").graph)
        f = tmp_path / "q3.txt"
        assert cli.main(["certify", "Q3", "--out", str(f)]) == 0
        assert cli.main(["verify", str(f)]) == 0
        assert "verdict: PASS" in capsys.readouterr().out
        q3 = f.read_text().splitlines(keepends=True)
        p3 = ct.format_certificate(certified("P3", C87).certificate).splitlines(keepends=True)
        assert (q3[0], p3[0]) == ("candidate Q3\n", "candidate P3\n")
        assert q3[1:] == p3[1:]


def _report(stem, k, m, *tail):
    """The report on the file <stem>.txt, whose base is the stem up to its first dot."""
    return ["command: verify", f"file: {stem}.txt", f"candidate: {stem.split('.')[0]}",
            "bound: 8/7", f"k: {k}", f"m: {m}", f"dimQ: {(k + 1) * m}", *tail]


_PASS = ("identity: PASS", "psd: PSD", "verdict: PASS")


class TestVerifyReport:
    """`ssc verify` reports, line by line but for duration_s, on the pinned
    certificates at 8/7 and on two hostile variants of H6's."""

    @pytest.mark.parametrize("name,variant,code,want", [
        ("P3", None, 0, _report("P3", 3, 3, *_PASS)),
        ("P4", None, 0, _report("P4", 4, 6, *_PASS)),
        ("H5", None, 0, _report("H5", 5, 10, *_PASS)),
        ("H6", None, 0, _report("H6", 6, 15, *_PASS)),
        ("H6", perturbed, 1, _report(
            "H6.perturbed", 6, 15, "identity: FAIL",
            "identity_violation: coefficient 1 entry (0,0): got 8000007/7000000, want 8/7",
            "psd: SKIPPED", "verdict: FAIL")),
        ("H6", negdiag, 1, _report(
            "H6.negdiag", 6, 15, "identity: PASS", "psd: NOT_PSD",
            "psd_counterexample: 1/1" + " 0/1" * 104, "psd_value: -1/1",
            "verdict: FAIL")),
    ], ids=["P3", "P4", "H5", "H6", "H6-perturbed", "H6-negdiag"])
    def test_report_lines(self, capsys, tmp_path, monkeypatch, name, variant, code, want):
        cert = certified(name, C87).certificate
        stem = name if variant is None else f"{name}.{variant.__name__}"
        if variant is not None:
            cert = variant(cert)
        monkeypatch.chdir(tmp_path)
        (tmp_path / f"{stem}.txt").write_text(ct.format_certificate(cert))
        assert cli.main(["verify", f"{stem}.txt"]) == code
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("duration_s: ")
        assert lines[:-1] == want


class TestCertificateIO:
    def test_round_trip(self, p3_result):
        text = ct.format_certificate(p3_result.certificate)
        again = ct.parse_certificate(text)
        assert again == p3_result.certificate

    def test_header_layout(self, p3_result):
        lines = ct.format_certificate(p3_result.certificate).splitlines()
        assert lines[0] == "candidate P3"
        assert lines[1] == "bound 8/7"
        assert lines[2] == "3 3 12"
        assert len(lines) == 3 + 12 + 3

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="line 1"):
            ct.parse_certificate("bogus\n")
        with pytest.raises(ValueError, match="line 2"):
            ct.parse_certificate("candidate P3\nnope\n1 1 2\n")
        with pytest.raises(ValueError, match="line 3"):
            ct.parse_certificate("candidate P3\nbound 8/7\n3 3 11\n")
        good = "candidate K2\nbound 1/1\n2 1 3\n0/1 0/1 0/1\n0/1 0/1 0/1\n"
        with pytest.raises(ValueError, match="rows"):
            ct.parse_certificate(good)  # truncated body
        with pytest.raises(ValueError, match="line 1"):
            ct.parse_certificate("candidate \nbound 1/1\n2 1 3\n")
        with pytest.raises(ValueError, match="line 2"):
            ct.parse_certificate("candidate K2\nbound \n2 1 3\n")

    @staticmethod
    def k2(q_rows, t_row="1/1"):
        return "candidate K2\nbound 1/1\n2 1 3\n" + "\n".join(q_rows) + f"\n{t_row}\n"

    def test_zeros_are_the_shared_zero(self):
        cert = ct.parse_certificate(self.k2(["0 -0/3 0.0e5", "-0/3 0 0/1", "0.0e5 0/1 0"], "0"))
        assert all(x is exactq._ZERO for row in cert.Q + cert.T for x in row)

    def test_repeated_tokens_parse_to_their_values(self):
        cert = ct.parse_certificate(self.k2(["3/7 -2.5e-1 3/7", "-2.5e-1 3/7 3/7",
                                             "3/7 3/7 -2.5e-1"], "3/7"))
        a, b = Fraction(3, 7), Fraction(-1, 4)
        assert cert.Q == ((a, b, a), (b, a, a), (a, a, b)) and cert.T == ((a,),)

    def test_bad_token_refused_on_its_line(self):
        # "1_0/1" reads as 10 with Fraction() on Python >= 3.11; the map is
        # keyed by the text, so "10/1" on an earlier line does not admit it
        with pytest.raises(ValueError, match=r"line 5: bad rational '1_0/1'"):
            ct.parse_certificate(self.k2(["10/1 0 0", "0 1_0/1 0", "0 0 0"]))
        # the same bad token twice: refused where it first appears
        with pytest.raises(ValueError, match=r"line 5: bad rational '1_0/1'"):
            ct.parse_certificate(self.k2(["0 0 0", "0 1_0/1 0", "0 1_0/1 0"]))
        with pytest.raises(ValueError, match=r"line 7: bad rational '1_0/1'"):
            ct.parse_certificate(self.k2(["1 0 0", "0 0 0", "0 0 0"], "1_0/1"))


class TestSoundness:
    def test_spot_check_p3(self):
        worst = ct.soundness_spot_check(ct.cert_base("P3"), C87,
                                        samples=200, seed=0)
        assert worst >= -1e-9

    @pytest.mark.parametrize("name,c,seed", [
        ("K2", 1, 0), ("P3", C87, 1), ("P4", Fraction(6, 5), 2),
        ("H5", C87, 3), ("H6", C87, 0), ("H6", Fraction(23, 20), 4)])
    def test_spot_check_matches_loop(self, name, c, seed):
        base = ct.cert_base(name)
        got = ct.soundness_spot_check(base, c, samples=300, seed=seed)
        assert abs(got - spot_check_loop(base, c, samples=300, seed=seed)) <= 1e-12

    def test_bridge_to_weighted_matrix(self):
        # x = sqrt(u) turns M*(x) into the weighted step matrix
        from specsum import stepmodel
        rng = np.random.default_rng(1)
        cand = stepmodel.candidate("H6")
        A = cand.graph.adjacency()
        for _ in range(100):
            u = rng.dirichlet(np.ones(6))
            x = np.sqrt(u)
            M = A * np.outer(x, x)
            w = np.linalg.eigvalsh(M)
            direct = float(w[-1] + w[-2])
            via_model = stepmodel.sigma(stepmodel.StepModel(cand, u))
            assert abs(direct - via_model) < 1e-9
