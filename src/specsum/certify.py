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
everything else is affine in those.

Sign symmetry. Flipping x -> Dx, D diagonal +-1, maps M*(x) to D M*(x) D,
and psi(DMD) = P psi(M) P with P diagonal +-1 on the wedge basis (sign
d_i d_j at pair (i,j)). So if (Q, T) certifies, so does (GQG, PTP) with
G = diag(1, D) (x) P, and so does the average over all 2^k sign patterns.
Coordinate (a, (i,j)) of Q, a = 0..k, carries the character e_a + e_i + e_j
of (Z/2)^k (e_0 = 0); the average is zero between coordinates of different
characters. A certificate may therefore be taken block-diagonal by
character, and the coefficient equations never couple two blocks
(assemble checks this). Then Q_00, each Q_ii and T are diagonal and every
Q_0i is zero. H6's 105 coordinates fall into 15 blocks of size 1, 20 of
size 3 and 6 of size 5 (Gatermann and Parrilo, J. Pure Appl. Algebra 192,
2004, for this reduction of SOS programs).

The pipeline solves the PSD feasibility problem on the blocks by
Douglas-Rachford projection splitting, rounds the free parameters inside
the blocks to bounded-denominator rationals, reconstructs the dependent
entries exactly (so the identity holds over Q by construction), and
verifies PSD by exact LDL^T. The exact checks live in `check`, which
imports no numpy; this module re-exports them and the certificate format.
They do not rely on the blocks:
the identity is compared entry by entry wherever either side of an
equation is nonzero (everywhere else both sides are exactly 0), and the
LDL^T splits Q only into the connected components of its nonzero pattern.

Any certificate here is necessarily singular: at extremal unit x* (where
lambda1 + lambda2 attains c) the top wedge vector w of psi(M*(x*)) gives
w^T (cI - psi) w = 0, forcing Q V(x*) w = 0. No strictly feasible point
exists, so the solver clips at the cone boundary itself, and rounding must
land exactly on the feasible face — which is why small denominators are
tried first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import check, compound, exactq, stepmodel
from .check import (Certificate, IdentityReport, format_certificate,  # noqa: F401
                    parse_certificate, verify_identity, verify_psd)
from .exactq import _ZERO, QMatrix
from .stepmodel import CandidateGraph

#: a base of check.BASES as a graph, by name: the one lookup there is
cert_base = stepmodel.candidate


@dataclass(frozen=True)
class BlockLayout:
    """Where the entries of the sign blocks sit, as index arrays.

    The block entries (both triangles) are stored flat: blocks of one size
    are contiguous, each block row-major. Entry e is Q[rows[e], cols[e]].
    """

    rows: np.ndarray
    cols: np.ndarray
    stacks: tuple  # (size, start, count): flat[start:start+count*size^2] holds count blocks
    tr: np.ndarray  # entry of the transpose
    diag: np.ndarray  # (k+1, m): entry ((a,r), (a,r)); no other entry of Q_aa is in a block
    off: np.ndarray  # entries in Q_ab, a != b (both >= 1: Q_0i is off the blocks)
    up: np.ndarray  # for each of off: the entry (a,r),(b,s) with a < b it equals by symmetry
    swap: np.ndarray  # for each of off: the entry (a,s),(b,r) paired with up
    F_up: np.ndarray  # F_ab[r, s] at up
    R_diag: np.ndarray  # (k, m): diagonals of R_i
    skew: tuple  # (t, u, t2, u2): the up entries with r < s and their pairs, as ints


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
    blocks: dict = field(repr=False)  # size -> (count, size) coordinates, see _sign_blocks
    layout: BlockLayout = field(repr=False)


def _sign_blocks(k: int, pairs) -> dict[int, np.ndarray]:
    """Coordinates a*m + r of Q grouped by the character e_a + e_i + e_j of
    (a, pairs[r] = (i, j)), e_0 = 0: {size: (count, size) index array}.
    Coordinates ascend within a block; blocks of a size are in the order of
    their first coordinate."""
    groups: dict[int, list[int]] = {}
    t = 0
    for a in range(k + 1):
        for i, j in pairs:
            groups.setdefault((1 << a if a else 0) ^ (1 << i) ^ (1 << j), []).append(t)
            t += 1
    by_size: dict[int, list[list[int]]] = {}
    for g in groups.values():
        by_size.setdefault(len(g), []).append(g)
    return {s: np.array(gs, dtype=np.intp) for s, gs in sorted(by_size.items())}


def _block_layout(k: int, m: int, blocks: dict, R_f: np.ndarray,
                  F_dense: np.ndarray) -> BlockLayout:
    """F_dense holds F_ij at block (i, j), i < j, and 0 elsewhere."""
    dim = (k + 1) * m
    rows = np.concatenate([np.repeat(B, s, axis=1).ravel() for s, B in blocks.items()])
    cols = np.concatenate([np.tile(B, (1, s)).ravel() for s, B in blocks.items()])
    stacks, start = [], 0
    for s, B in blocks.items():
        stacks.append((s, start, len(B)))
        start += len(B) * s * s
    pos = np.full((dim, dim), -1, dtype=np.intp)
    pos[rows, cols] = np.arange(rows.size)
    a_r, a_c, r, s = rows // m, cols // m, rows % m, cols % m
    off = np.flatnonzero(a_r != a_c)
    up = np.where(a_r[off] < a_c[off], off, pos[cols[off], rows[off]])
    swap = pos[a_r[up] * m + s[up], a_c[up] * m + r[up]]
    fixed = F_dense + F_dense.T
    for i in range(1, k + 1):
        fixed[i * m:(i + 1) * m, i * m:(i + 1) * m] = R_f[i - 1]
    if (swap < 0).any() or fixed[pos < 0].any():
        raise ArithmeticError("coefficient equations couple different sign blocks")
    ups = np.flatnonzero((a_r < a_c) & (r < s))
    skew = tuple(zip(rows[ups].tolist(), cols[ups].tolist(),
                     (a_r[ups] * m + s[ups]).tolist(), (a_c[ups] * m + r[ups]).tolist()))
    idx = np.arange(dim).reshape(k + 1, m)
    return BlockLayout(rows=rows, cols=cols, stacks=tuple(stacks), tr=pos[cols, rows],
                       diag=pos[idx, idx], off=off, up=up, swap=swap,
                       F_up=F_dense[rows[up], cols[up]],
                       R_diag=np.ascontiguousarray(R_f.diagonal(axis1=1, axis2=2)),
                       skew=skew)


def assemble(cand: CandidateGraph, c) -> SosProblem:
    """Exact right-hand sides of the coefficient equations for a base graph
    (check.coefficient_rhs, calling psi as compound.psi), R_i and F_ij from
    them, and the sign blocks of Q. Fraction arithmetic touches only the
    nonzero entries; a non-edge's F is the all-zero matrix."""
    c = Fraction(c)
    k = cand.k
    if k < 2:
        raise ValueError("base graph needs at least 2 vertices")
    pairs = tuple(check.wedge_pairs(k))
    m = len(pairs)
    dim = (k + 1) * m
    rhs = check.coefficient_rhs(k, cand.graph.edges, c, compound.psi)

    def dense(entries: dict, out: np.ndarray) -> tuple:
        """entries as an m x m matrix, 0 elsewhere; also written into out as floats."""
        M = [[_ZERO] * m for _ in range(m)]
        for (r, s), x in entries.items():
            M[r][s] = x
            out[r, s] = float(x)
        return tuple(map(tuple, M))

    R, R_f = [], np.zeros((k, m, m))
    for i in range(1, k + 1):
        Ri = {(r, r): c for r in range(m)}  # R_i - c*I is the x_i^2 right-hand side
        for key, x in rhs[f"x_{i}^2"].items():
            Ri[key] = Ri[key] + x if key in Ri else x
        R.append(dense(Ri, R_f[i - 1]))
    F, F_dense = {}, np.zeros((dim, dim))
    for i, j in pairs:
        F[(i, j)] = dense({key: x / 2 for key, x in rhs[f"x_{i}*x_{j}"].items()},
                          F_dense[i * m:(i + 1) * m, j * m:(j + 1) * m])
    blocks = _sign_blocks(k, pairs)
    return SosProblem(candidate=cand, c=c, k=k, m=m, dim=dim, pairs=pairs,
                      R=tuple(R), F=F, blocks=blocks,
                      layout=_block_layout(k, m, blocks, R_f, F_dense))


def _project_affine(p: SosProblem, v: np.ndarray) -> np.ndarray:
    """Closed-form Frobenius projection of the block entries v onto the
    coefficient equations (within symmetric matrices). Q_00 and each Q_ii
    hold only their diagonal, and those average coordinate by coordinate:
    S0 = (Q_00 + sum_i (R_i - Q_ii)) / (k+1), Q_ii = R_i - S0. An entry of
    Q_ab, a < b, keeps its skew part against its pair (a,s),(b,r) on top of
    F_ab; Q_ba mirrors it."""
    L = p.layout
    out = np.empty_like(v)
    S0 = v[L.diag[0]]
    for i in range(1, p.k + 1):
        S0 += L.R_diag[i - 1] - v[L.diag[i]]
    S0 /= (p.k + 1)
    out[L.diag[0]] = S0
    out[L.diag[1:]] = L.R_diag - S0
    out[L.off] = L.F_up + (v[L.up] - v[L.swap]) / 2
    return out


def affine_residual(p: SosProblem, v: np.ndarray) -> float:
    """Max-norm violation of the coefficient equations at the block entries
    v (symmetry; x_i^2 with T eliminated; x_i and x_i x_j)."""
    L = p.layout
    return max(float(np.abs(v - v[L.tr]).max()),
               float(np.abs(v[L.diag[0]] + v[L.diag[1:]] - L.R_diag).max()),
               float(np.abs(v[L.up] + v[L.tr[L.swap]] - 2 * L.F_up).max(initial=0.0)))


def _stacks(L: BlockLayout, v: np.ndarray):
    """(start, stop, blocks of v as a (count, size, size) view), per size."""
    for s, start, count in L.stacks:
        stop = start + count * s * s
        yield start, stop, v[start:stop].reshape(count, s, s)


def _clip_psd(L: BlockLayout, v: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix block by block: one stacked eigh per block size."""
    out = np.empty_like(v)
    for start, stop, X in _stacks(L, v):
        w, V = np.linalg.eigh(X)
        P = (V * np.maximum(w, 0.0)[:, None, :]) @ V.transpose(0, 2, 1)
        out[start:stop] = ((P + P.transpose(0, 2, 1)) / 2).ravel()
    return out


def _min_eigenvalue(L: BlockLayout, v: np.ndarray) -> float:
    return min(float(np.linalg.eigvalsh(X)[:, 0].min()) for _, _, X in _stacks(L, v))


@dataclass(frozen=True)
class SolveResult:
    status: str  # CONVERGED | NOT_FOUND
    Q: np.ndarray
    iterations: int
    affine_residual: float
    psd_residual: float


#: the solver's tolerance on both residuals (it stops on the PSD one)
TOL = 1e-9


def sdp_solve(p: SosProblem, max_iter: int = 50000) -> SolveResult:
    """Projection splitting between the coefficient equations and the PSD
    cone, in the reflect-reflect-average (Douglas-Rachford / ADMM) form:

        Qa = P_aff(Q);  Q <- Q + P_psd(2*Qa - Q) - Qa.

    Plain alternation P_psd(P_aff(.)) stalls here: the intersection is
    non-transversal (every certificate is singular, see module docstring),
    where averaged reflections keep their linear rate. The iterate lives on
    the sign blocks (module docstring), and both projections are closed
    forms there: coordinate averaging for the affine set, eigen-clip at 0
    block by block for the cone. Stops when the affine shadow Qa has no
    block eigenvalue below -TOL. Its affine max-norm violation is one
    rounding (_project_affine writes each entry and its mirror from one
    expression), so it is measured once, on the returned Qa, where
    CONVERGED needs it <= TOL too. Qa is returned as a dense matrix,
    exactly 0 off the blocks. Deterministic: starts from Q = 0.
    """
    L = p.layout
    v = np.zeros(L.rows.size)
    va = v
    psd, it = np.inf, max_iter
    for n in range(1, max_iter + 1):
        va = _project_affine(p, v)
        psd = max(0.0, -_min_eigenvalue(L, va))
        if psd <= TOL:
            it = n
            break
        v = v + (_clip_psd(L, 2 * va - v) - va)
    aff = affine_residual(p, va)
    status = "CONVERGED" if psd <= TOL and aff <= TOL else "NOT_FOUND"
    Q = np.zeros((p.dim, p.dim))
    Q[L.rows, L.cols] = va
    return SolveResult(status, Q, it, aff, psd)


def _freeze(M: QMatrix) -> tuple:
    return tuple(tuple(row) for row in M)


def rationalize(p: SosProblem, Q_num: np.ndarray, max_den: int) -> Certificate:
    """Round the free parameters to denominators <= max_den and reconstruct
    every dependent entry exactly from the coefficient equations.

    Only block entries are touched; every other entry, all of Q_0i among
    them, is exactly 0. Free: the diagonal of Q_00, and the skew parts of
    Q_ij (i < j), rounded on (r, s) with r < s and negated on (s, r). Dependent:
    Q_ii = R_i - Q_00, sym(Q_ij) = F_ij, T = c*I - Q_00. The output
    therefore satisfies the polynomial identity over Q regardless of
    rounding quality; only PSD can fail.
    """
    k, m = p.k, p.m
    Qn = np.asarray(Q_num, dtype=float)
    Qs = ((Qn + Qn.T) / 2).tolist()

    def approx(x) -> Fraction:
        return exactq.rational_approx(float(x), max_den)

    Q = [[_ZERO] * p.dim for _ in range(p.dim)]
    T = [[_ZERO] * m for _ in range(m)]
    for r in range(m):
        q = Q[r][r] = approx(Qs[r][r])
        T[r][r] = p.c - q
        for i in range(1, k + 1):
            t = i * m + r
            Q[t][t] = p.R[i - 1][r][r] - q
    for t, u, t2, u2 in p.layout.skew:  # (i,r),(j,s) and (i,s),(j,r); i < j, r < s
        v = approx((Qs[t][u] - Qs[t2][u2]) / 2)
        Fm = p.F[(t // m, u // m)]
        r, s = t % m, u % m
        Q[t][u] = Q[u][t] = Fm[r][s] + v
        Q[t2][u2] = Q[u2][t2] = Fm[s][r] - v
    return Certificate(candidate=p.candidate.name, c=p.c, k=k, m=m,
                       Q=_freeze(Q), T=_freeze(T))


def soundness_spot_check(base: CandidateGraph, c, samples: int = 1000,
                         seed: int = 0) -> float:
    """Min over random unit x of the least eigenvalue of c*I - psi(M*(x)).

    A verified certificate implies this is >= 0 up to float roundoff. psi is
    linear, so psi(M*(x)) = sum over edges i <= j of A_ij x_i x_j
    psi(E_ij + E_ji) (E_ii once on a loop): the edge terms are built once and
    all samples are formed and eigensolved as one stack.
    """
    rng = np.random.default_rng(seed)
    A = base.graph.adjacency()
    X = rng.standard_normal((samples, base.k))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    iu, ju = np.nonzero(np.triu(A))
    E = np.zeros((iu.size, base.k, base.k))
    E[np.arange(iu.size), iu, ju] = E[np.arange(iu.size), ju, iu] = 1.0
    terms = np.array([compound.psi(Ee) for Ee in E])
    psis = np.einsum("sp,pab->sab", A[iu, ju] * X[:, iu] * X[:, ju], terms)
    w = np.linalg.eigvalsh(float(Fraction(c)) * np.eye(terms.shape[1]) - psis)
    return float(w[:, 0].min())


@dataclass(frozen=True)
class CertifyResult:
    status: str  # FOUND | NOT_FOUND
    certificate: Certificate | None
    solve: SolveResult
    attempts: tuple  # (max_den, verdict) pairs in order
    stage: str = ""  # failing stage when NOT_FOUND


def _denominator_ladder(max_den: int) -> list[int]:
    """Small denominators first: limit_denominator(d) recovers a true entry
    p/q exactly whenever q <= d and the numeric error is below ~1/(2qd), so
    small caps tolerate the most solver noise. 7 * 2^j and 21 * 2^j below
    max_den, then max_den itself."""
    ds = {max_den}
    for d in (7, 21):
        while d < max_den:
            ds.add(d)
            d *= 2
    return sorted(ds)


#: the largest |c| certify accepts. On a bound below sigma* the solver's
#: iterate grows by about |c| per iteration, so this leaves the float solve
#: 2^500 of headroom at any iteration count that can run.
MAX_BOUND = 2 ** 512


def certify(cand: CandidateGraph, c, *, max_iter: int = 50000,
            max_den: int = 10 ** 4) -> CertifyResult:
    """assemble -> sdp_solve -> rationalize -> verify.

    One solve, then one walk up the denominator ladder from the solver's
    point, whatever its status; the first rung whose Q is PSD is accepted.
    Each rung is checked for PSD only: reconstruction makes every rung
    satisfy the identity, so that is checked once, on the accepted rung, by
    the call `ssc verify` makes, and a violation raises ArithmeticError.
    The returned certificate always passes both exact checks. On NOT_FOUND
    the failing stage is sdp_solve if the solve did not converge, else
    verify_psd. max_den is the largest denominator tried. A max_den or
    max_iter below 1, or a bound beyond MAX_BOUND in absolute value, raises
    ValueError before any work.
    """
    if max_den < 1:
        raise ValueError("max_den must be >= 1")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if abs(Fraction(c)) > MAX_BOUND:
        raise ValueError("bound must be at most 2^512 in absolute value")
    p = assemble(cand, c)
    solve = sdp_solve(p, max_iter=max_iter)
    attempts = []
    for d in _denominator_ladder(max_den):
        cert = rationalize(p, solve.Q, max_den=d)
        wit = verify_psd(cert)
        attempts.append((d, wit.verdict))
        if wit.verdict == exactq.PSD:
            idr = verify_identity(cert)
            if not idr.ok:  # reconstruction guarantees this; treat as fatal
                raise ArithmeticError(f"reconstructed certificate broke identity: {idr.violations[:1]}")
            return CertifyResult("FOUND", cert, solve, tuple(attempts))
    stage = "sdp_solve" if solve.status != "CONVERGED" else "verify_psd"
    return CertifyResult("NOT_FOUND", None, solve, tuple(attempts), stage=stage)
