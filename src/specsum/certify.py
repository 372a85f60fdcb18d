"""Matrix sum-of-squares certification pipeline.

Target identity, over polynomials in x with matrix coefficients:

    c*I_m - psi(M*(x)) = V(x)^T Q V(x) + (1 - |x|^2) T,
    M*(x) = diag(x) A diag(x),   V(x) = (1, x_1, ..., x_k)^T (x) I_m,

with Q PSD. On the unit sphere the T term vanishes, so a verified (Q, T)
proves lambda1 + lambda2 of M*(x) <= c for every unit x. Writing Q in
(k+1) x (k+1) blocks Q_ab of dim m = C(k,2) and comparing coefficients:

    constant:  Q_00 + T = c*I
    x_i:       Q_0i + Q_i0 = 0            (Q symmetric => Q_0i skew)
    x_i^2:     Q_ii - T = -A_ii psi(E_ii)
    x_i x_j:   Q_ij + Q_ji = -A_ij psi(E_ij + E_ji)   (i < j)

Eliminating T = c*I - Q_00 leaves free parameters: Q_00 (symmetric), the
strict upper triangles of the skew blocks Q_0i, and the skew parts of Q_ij;
everything else is affine in those. The pipeline solves the PSD feasibility
problem by Douglas-Rachford projection splitting, rounds the free
parameters to bounded-denominator rationals, reconstructs the dependent
entries exactly (so the identity holds over Q by construction), and
verifies PSD by exact LDL^T.

Any certificate here is necessarily singular: at extremal unit x* (where
lambda1 + lambda2 attains c) the top wedge vector w of psi(M*(x*)) gives
w^T (cI - psi) w = 0, forcing Q V(x*) w = 0. No strictly feasible point
exists, so the solver clips at the cone boundary itself, and rounding must
land exactly on the feasible face — which is why small denominators are
tried first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import compound, exactq
from .exactq import QMatrix
from .graphs import graph
from .stepmodel import CANDIDATES, CandidateGraph

#: bases accepted by name in certificate files; the four candidates plus a
#: 2-vertex looped edge whose certificate at c = 1 is trivial (Q = 0, T = [1])
CERT_BASES: dict[str, CandidateGraph] = dict(CANDIDATES)
CERT_BASES["K2"] = CandidateGraph("K2", graph(2, [(1, 1), (2, 2), (1, 2)]))


def cert_base(name: str) -> CandidateGraph:
    try:
        return CERT_BASES[name]
    except KeyError:
        raise ValueError(f"unknown certificate base {name!r}; have {sorted(CERT_BASES)}")


def _adjacency_q(cand: CandidateGraph) -> QMatrix:
    k = cand.k
    A = [[Fraction(0)] * k for _ in range(k)]
    for i, j in cand.graph.edges:
        A[i - 1][j - 1] = Fraction(1)
        A[j - 1][i - 1] = Fraction(1)
    return A


@dataclass(frozen=True)
class SosProblem:
    candidate: CandidateGraph
    c: Fraction
    k: int
    m: int
    dim: int
    pairs: tuple
    R: tuple  # R_i = c*I - A_ii psi(E_ii), exact, i = 1..k
    F: dict  # F[(i,j)] = -A_ij psi(E_ij + E_ji)/2, exact, i < j
    R_f: np.ndarray = field(repr=False, default=None)
    F_f: dict = field(repr=False, default=None)


def assemble(cand: CandidateGraph, c) -> SosProblem:
    """Exact right-hand sides of the coefficient equations for a base graph."""
    c = Fraction(c)
    k = cand.k
    if k < 2:
        raise ValueError("base graph needs at least 2 vertices")
    A = _adjacency_q(cand)
    pairs = tuple(itertools.combinations(range(1, k + 1), 2))
    m = len(pairs)

    def E(i, j):
        Z = [[Fraction(0)] * k for _ in range(k)]
        Z[i - 1][j - 1] = Fraction(1)
        return Z

    def EpE(i, j):
        Z = E(i, j)
        Z[j - 1][i - 1] = Fraction(1)
        return Z

    R = []
    for i in range(1, k + 1):
        psiE = compound.psi(E(i, i))
        R.append([[ (c if r == s else Fraction(0)) - A[i - 1][i - 1] * psiE[r][s]
                    for s in range(m)] for r in range(m)])
    F = {}
    for i, j in pairs:
        psiP = compound.psi(EpE(i, j))
        F[(i, j)] = [[-A[i - 1][j - 1] * psiP[r][s] / 2 for s in range(m)]
                     for r in range(m)]
    R_f = np.array([[[float(x) for x in row] for row in Ri] for Ri in R])
    F_f = {key: np.array([[float(x) for x in row] for row in val])
           for key, val in F.items()}
    return SosProblem(candidate=cand, c=c, k=k, m=m, dim=(k + 1) * m,
                      pairs=pairs, R=tuple(tuple(tuple(row) for row in Ri) for Ri in R),
                      F={key: tuple(tuple(row) for row in val) for key, val in F.items()},
                      R_f=R_f, F_f=F_f)


def _block(Q: np.ndarray, m: int, a: int, b: int) -> np.ndarray:
    return Q[a * m:(a + 1) * m, b * m:(b + 1) * m]


def _project_affine(p: SosProblem, Q: np.ndarray) -> np.ndarray:
    """Closed-form Frobenius projection onto the coefficient equations
    (within symmetric matrices). The coupled diagonal blocks average:
    S0 = (Q_00 + sum_i (R_i - Q_ii)) / (k+1), Q_ii = R_i - S0."""
    k, m = p.k, p.m
    out = np.empty_like(Q)
    S0 = _block(Q, m, 0, 0).copy()
    for i in range(1, k + 1):
        S0 += p.R_f[i - 1] - _block(Q, m, i, i)
    S0 /= (k + 1)
    S0 = (S0 + S0.T) / 2
    out[0:m, 0:m] = S0
    for i in range(1, k + 1):
        out[i * m:(i + 1) * m, i * m:(i + 1) * m] = p.R_f[i - 1] - S0
        B = _block(Q, m, 0, i)
        K = (B - B.T) / 2
        out[0:m, i * m:(i + 1) * m] = K
        out[i * m:(i + 1) * m, 0:m] = K.T
    for i, j in p.pairs:
        B = _block(Q, m, i, j)
        K = (B - B.T) / 2
        out[i * m:(i + 1) * m, j * m:(j + 1) * m] = p.F_f[(i, j)] + K
        out[j * m:(j + 1) * m, i * m:(i + 1) * m] = (p.F_f[(i, j)] + K).T
    return out


def affine_residual(p: SosProblem, Q: np.ndarray) -> float:
    """Max-norm violation of the coefficient equations at Q."""
    k, m = p.k, p.m
    r = float(np.abs(Q - Q.T).max())
    S0 = _block(Q, m, 0, 0)
    for i in range(1, k + 1):
        r = max(r, float(np.abs(S0 + _block(Q, m, i, i) - p.R_f[i - 1]).max()))
        r = max(r, float(np.abs(_block(Q, m, 0, i) + _block(Q, m, i, 0)).max()))
    for i, j in p.pairs:
        r = max(r, float(np.abs(_block(Q, m, i, j) + _block(Q, m, j, i)
                                - 2 * p.F_f[(i, j)]).max()))
    return r


@dataclass(frozen=True)
class SolveResult:
    status: str  # CONVERGED | NOT_FOUND
    Q: np.ndarray
    T: np.ndarray
    iterations: int
    affine_residual: float
    psd_residual: float


def sdp_solve(p: SosProblem, tol: float = 1e-9, max_iter: int = 50000,
              omega: float = 1.0) -> SolveResult:
    """Projection splitting between the coefficient equations and the PSD
    cone, in the reflect-reflect-average (Douglas-Rachford / ADMM) form:

        Qa = P_aff(Q);  Q <- Q + omega * (P_psd(2*Qa - Q) - Qa).

    Plain alternation P_psd(P_aff(.)) stalls here: the intersection is
    non-transversal (every certificate is singular, see module docstring),
    where averaged reflections keep their linear rate. Both projections are
    the closed forms above: blockwise averaging for the affine set,
    eigen-clip at 0 for the cone. Terminates when the affine shadow Qa has
    both residuals (affine max-norm violation, most negative eigenvalue)
    below tol; Qa is returned symmetrized. Deterministic: starts from Q = 0.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not (0 < omega <= 2):
        raise ValueError("omega must be in (0, 2]")
    Q = np.zeros((p.dim, p.dim))
    aff = psd = np.inf
    Qa = Q
    for it in range(1, max_iter + 1):
        Qa = _project_affine(p, Q)
        Qa = (Qa + Qa.T) / 2
        psd = max(0.0, float(-np.linalg.eigvalsh(Qa)[0]))
        aff = affine_residual(p, Qa)
        if psd <= tol and aff <= tol:
            T = float(p.c) * np.eye(p.m) - _block(Qa, p.m, 0, 0)
            return SolveResult("CONVERGED", Qa, (T + T.T) / 2, it, aff, psd)
        R = 2 * Qa - Q
        w, V = np.linalg.eigh((R + R.T) / 2)
        Rp = (V * np.maximum(w, 0.0)) @ V.T
        Q = Q + omega * ((Rp + Rp.T) / 2 - Qa)
    T = float(p.c) * np.eye(p.m) - _block(Qa, p.m, 0, 0)
    return SolveResult("NOT_FOUND", Qa, (T + T.T) / 2, max_iter, aff, psd)


@dataclass(frozen=True)
class Certificate:
    candidate: str
    c: Fraction
    k: int
    m: int
    Q: tuple  # ((k+1)m)^2 Fractions, row tuples
    T: tuple


def _freeze(M: QMatrix) -> tuple:
    return tuple(tuple(row) for row in M)


def rationalize(p: SosProblem, Q_num: np.ndarray, max_den: int = 10 ** 4) -> Certificate:
    """Round the free parameters to denominators <= max_den and reconstruct
    every dependent entry exactly from the coefficient equations.

    Free: upper triangle of Q_00, strict upper triangles of the skew blocks
    Q_0i, skew parts of Q_ij (i < j). Dependent: Q_ii = R_i - Q_00,
    sym(Q_ij) = F_ij, T = c*I - Q_00. The output therefore satisfies the
    polynomial identity over Q regardless of rounding quality; only PSD can
    fail.
    """
    k, m = p.k, p.m
    Qs = (np.asarray(Q_num, dtype=float) + np.asarray(Q_num, dtype=float).T) / 2

    def approx(x) -> Fraction:
        return exactq.rational_approx(float(x), max_den)

    Z = lambda: [[Fraction(0)] * m for _ in range(m)]
    B00 = _block(Qs, m, 0, 0)
    Q00 = Z()
    for r in range(m):
        for s in range(r, m):
            Q00[r][s] = Q00[s][r] = approx((B00[r, s] + B00[s, r]) / 2)

    blocks: dict[tuple[int, int], QMatrix] = {(0, 0): Q00}
    for i in range(1, k + 1):
        Rm = p.R[i - 1]
        blocks[(i, i)] = [[Rm[r][s] - Q00[r][s] for s in range(m)] for r in range(m)]
        B = _block(Qs, m, 0, i)
        K = Z()
        for r in range(m):
            for s in range(r + 1, m):
                v = approx((B[r, s] - B[s, r]) / 2)
                K[r][s], K[s][r] = v, -v
        blocks[(0, i)] = K
        blocks[(i, 0)] = [[-K[r][s] for s in range(m)] for r in range(m)]
    for i, j in p.pairs:
        B = _block(Qs, m, i, j)
        Fm = p.F[(i, j)]
        K = Z()
        for r in range(m):
            for s in range(r + 1, m):
                v = approx((B[r, s] - B[s, r]) / 2)
                K[r][s], K[s][r] = v, -v
        blocks[(i, j)] = [[Fm[r][s] + K[r][s] for s in range(m)] for r in range(m)]
        blocks[(j, i)] = [[Fm[r][s] - K[r][s] for s in range(m)] for r in range(m)]

    dim = p.dim
    Q = [[Fraction(0)] * dim for _ in range(dim)]
    for (a, b), Bm in blocks.items():
        for r in range(m):
            Q[a * m + r][b * m:(b + 1) * m] = list(Bm[r])
    T = [[(p.c if r == s else Fraction(0)) - Q00[r][s] for s in range(m)]
         for r in range(m)]
    return Certificate(candidate=p.candidate.name, c=p.c, k=k, m=m,
                       Q=_freeze(Q), T=_freeze(T))


@dataclass(frozen=True)
class IdentityReport:
    ok: bool
    violations: tuple  # (coefficient, row, col, got, want), capped
    checked: int


def verify_identity(cert: Certificate, problem: SosProblem = None,
                    max_report: int = 20) -> IdentityReport:
    """Exact coefficientwise comparison of both sides of the identity.

    Expands V(x)^T Q V(x) + (1-|x|^2) T and c*I - psi(M*(x)) as quadratic
    matrix polynomials and compares the constant, x_i, x_i^2 and x_i x_j
    coefficients over the rationals. Also checks exact symmetry of Q and T.
    The right-hand sides come from `problem` when given (it must be for the
    certificate's base and bound), else from assembling the named base at
    cert.c.
    """
    if problem is None:
        problem = assemble(cert_base(cert.candidate), cert.c)
    elif (problem.candidate.name, problem.c) != (cert.candidate, cert.c):
        raise ValueError(f"problem is for {problem.candidate.name} at {problem.c}, "
                         f"certificate for {cert.candidate} at {cert.c}")
    p = problem
    if cert.k != p.k or cert.m != p.m:
        return IdentityReport(False, (("dims", 0, 0, (cert.k, cert.m), (p.k, p.m)),), 0)
    Q, T = cert.Q, cert.T
    if len(Q) != p.dim or any(len(r) != p.dim for r in Q) or \
            len(T) != p.m or any(len(r) != p.m for r in T):
        return IdentityReport(False, (("shape", 0, 0, (len(Q), len(T)), (p.dim, p.m)),), 0)
    m, k = p.m, p.k
    bad = []
    checked = 0

    def blk(a, b, r, s):
        return Q[a * m + r][b * m + s]

    for r in range(p.dim):
        for s in range(r + 1, p.dim):
            checked += 1
            if Q[r][s] != Q[s][r]:
                bad.append(("sym(Q)", r, s, Q[r][s], Q[s][r]))
    for r in range(m):
        for s in range(r + 1, m):
            checked += 1
            if T[r][s] != T[s][r]:
                bad.append(("sym(T)", r, s, T[r][s], T[s][r]))
    for r in range(m):
        for s in range(m):
            checked += 1
            want = p.c if r == s else Fraction(0)
            got = blk(0, 0, r, s) + T[r][s]
            if got != want:
                bad.append(("1", r, s, got, want))
    for i in range(1, k + 1):
        Ri = p.R[i - 1]
        for r in range(m):
            for s in range(m):
                checked += 2
                got = blk(0, i, r, s) + blk(i, 0, r, s)
                if got != 0:
                    bad.append((f"x_{i}", r, s, got, Fraction(0)))
                # x_i^2: Q_ii - T = R_i - c*I
                want = Ri[r][s] - (p.c if r == s else Fraction(0))
                got = blk(i, i, r, s) - T[r][s]
                if got != want:
                    bad.append((f"x_{i}^2", r, s, got, want))
    for i, j in p.pairs:
        Fm = p.F[(i, j)]
        for r in range(m):
            for s in range(m):
                checked += 1
                got = blk(i, j, r, s) + blk(j, i, r, s)
                want = 2 * Fm[r][s]
                if got != want:
                    bad.append((f"x_{i}*x_{j}", r, s, got, want))
    return IdentityReport(ok=not bad, violations=tuple(bad[:max_report]), checked=checked)


def verify_psd(cert: Certificate) -> exactq.PsdWitness:
    """Exact PSD check of Q by rational LDL^T with rank-one re-multiplication."""
    return exactq.ldl_psd_check([list(row) for row in cert.Q])


def soundness_spot_check(base: CandidateGraph, c, samples: int = 1000,
                         seed: int = 0) -> float:
    """Min over random unit x of the least eigenvalue of c*I - psi(M*(x)).

    A verified certificate implies this is >= 0 up to float roundoff.
    """
    rng = np.random.default_rng(seed)
    A = base.graph.adjacency()
    cf = float(Fraction(c))
    worst = np.inf
    for _ in range(samples):
        x = rng.standard_normal(base.k)
        x /= np.linalg.norm(x)
        M = A * np.outer(x, x)
        w = np.linalg.eigvalsh(cf * np.eye(len(compound.wedge_pairs(base.k)))
                               - compound.psi(M))
        worst = min(worst, float(w[0]))
    return worst


@dataclass(frozen=True)
class CertifyConfig:
    tol: float = 1e-9
    max_iter: int = 50000
    max_den: int = 10 ** 4
    max_den_cap: int = 8 * 10 ** 4
    omega: float = 1.0
    solve_rounds: int = 2
    rationalize_residual: float = 1e-5  # attempt rounding even on NOT_FOUND below this


@dataclass(frozen=True)
class CertifyResult:
    status: str  # FOUND | NOT_FOUND
    certificate: Certificate | None
    solve: SolveResult
    attempts: tuple  # (max_den, verdict) pairs in order
    stage: str = ""  # failing stage when NOT_FOUND


def _denominator_ladder(max_den: int, cap: int) -> list[int]:
    """Small denominators first: limit_denominator(d) recovers a true entry
    p/q exactly whenever q <= d and the numeric error is below ~1/(2qd), so
    small caps tolerate the most solver noise. Then the spec'd doubling."""
    ds = set()
    for base in (7, 21):
        d = base
        while d < max_den:
            ds.add(d)
            d *= 2
    d = max_den
    while d <= cap:
        ds.add(d)
        d *= 2
    ds.add(max_den)
    return sorted(ds)


def certify(cand: CandidateGraph, c, config: CertifyConfig = CertifyConfig()) -> CertifyResult:
    """assemble -> sdp_solve -> rationalize -> verify, with retries.

    Rounding retries walk the denominator ladder; if no rung verifies PSD,
    the SDP is re-solved with a tighter tolerance and the ladder retried.
    Each rung is checked for PSD only: reconstruction makes every rung
    satisfy the identity, so that is checked once, on the accepted rung, and
    a violation raises ArithmeticError. The returned certificate always
    passes both exact checks.
    """
    p = assemble(cand, c)
    attempts = []
    tol = config.tol
    solve = None
    for round_no in range(max(1, config.solve_rounds)):
        solve = sdp_solve(p, tol=tol, max_iter=config.max_iter, omega=config.omega)
        resid = max(solve.affine_residual, solve.psd_residual)
        if solve.status != "CONVERGED" and resid > config.rationalize_residual:
            tol /= 10
            continue
        for d in _denominator_ladder(config.max_den, config.max_den_cap):
            cert = rationalize(p, solve.Q, max_den=d)
            wit = verify_psd(cert)
            attempts.append((d, wit.verdict))
            if wit.verdict == exactq.PSD:
                idr = verify_identity(cert, problem=p)
                if not idr.ok:  # reconstruction guarantees this; treat as fatal
                    raise ArithmeticError(f"reconstructed certificate broke identity: {idr.violations[:1]}")
                return CertifyResult("FOUND", cert, solve, tuple(attempts))
        tol /= 10
    stage = "sdp_solve" if (solve and solve.status != "CONVERGED" and not attempts) else "verify_psd"
    return CertifyResult("NOT_FOUND", None, solve, tuple(attempts), stage=stage)


# --- certificate text format ---------------------------------------------
# line 1: "candidate <name>"; line 2: "bound p/q"; line 3: "k m dimQ";
# then dimQ rows of dimQ rationals (Q), then m rows of m rationals (T).

def format_certificate(cert: Certificate) -> str:
    lines = [f"candidate {cert.candidate}",
             f"bound {exactq.format_rational(cert.c)}",
             f"{cert.k} {cert.m} {len(cert.Q)}"]
    for row in cert.Q:
        lines.append(" ".join(exactq.format_rational(x) for x in row))
    for row in cert.T:
        lines.append(" ".join(exactq.format_rational(x) for x in row))
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> Certificate:
    lines = text.splitlines()
    if len(lines) < 3:
        raise ValueError("line 1: truncated certificate")
    if not lines[0].startswith("candidate "):
        raise ValueError("line 1: expected 'candidate <name>'")
    name = lines[0].split(None, 1)[1].strip()
    if not lines[1].startswith("bound "):
        raise ValueError("line 2: expected 'bound p/q'")
    c = exactq.parse_rational(lines[1].split(None, 1)[1])
    head = lines[2].split()
    if len(head) != 3:
        raise ValueError("line 3: expected 'k m dimQ'")
    try:
        k, m, dim = (exactq.parse_int(t) for t in head)
    except ValueError:
        raise ValueError("line 3: expected integers 'k m dimQ'")
    if dim != (k + 1) * m:
        raise ValueError(f"line 3: dimQ must be (k+1)*m = {(k + 1) * m}, got {dim}")
    body = [(no, ln) for no, ln in enumerate(lines[3:], start=4) if ln.strip()]
    if len(body) != dim + m:
        raise ValueError(f"expected {dim + m} matrix rows, got {len(body)}")

    def parse_row(ln_no: int, ln: str, width: int):
        toks = ln.split()
        if len(toks) != width:
            raise ValueError(f"line {ln_no}: expected {width} entries, got {len(toks)}")
        try:
            return tuple(exactq.parse_rational(t) for t in toks)
        except ValueError as e:
            raise ValueError(f"line {ln_no}: {e}")

    Q = tuple(parse_row(no, ln, dim) for no, ln in body[:dim])
    T = tuple(parse_row(no, ln, m) for no, ln in body[dim:])
    return Certificate(candidate=name, c=c, k=k, m=m, Q=Q, T=T)
