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
A base is any `check.Base`, the value `stepmodel` takes too, so this
module loads neither `stepmodel` nor `graphs`.

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

from . import check, compound, exactq
from .check import (Base, Certificate, format_certificate, parse_certificate,  # noqa: F401
                    verify_identity, verify_psd)
from .exactq import _ZERO

#: the base `name` of check.BASES: check.base, the one lookup there is
cert_base = check.base


@dataclass(frozen=True)
class BlockLayout:
    """Where the entries of the sign blocks sit, as index arrays.

    The block entries (both triangles) are stored flat: blocks of one size
    are contiguous, each block row-major. Entry e is Q[rows[e], cols[e]].
    """

    rows: np.ndarray
    cols: np.ndarray
    stacks: tuple  # (size, start, stop, count): flat[start:stop] holds count blocks
    tr: np.ndarray  # entry of the transpose
    diag: np.ndarray  # (k+1, m): entry ((a,r), (a,r)); no other entry of Q_aa is in a block
    off: np.ndarray  # entries in Q_ab, a != b (both >= 1: Q_0i is off the blocks)
    up: np.ndarray  # for each of off: the entry (a,r),(b,s) with a < b it equals by symmetry
    swap: np.ndarray  # for each of off: the entry (a,s),(b,r) paired with up
    F_up: np.ndarray  # the fixed part of Q_ab at up, as a float (SosProblem.fixed)
    R_diag: np.ndarray  # (k, m): the fixed part of each Q_ii's diagonal, as floats
    skew: np.ndarray  # (4, n) rows t, u, t2, u2: the up entries with r < s and their pairs


@dataclass(frozen=True)
class SosProblem:
    candidate: Base
    c: Fraction
    k: int
    m: int
    dim: int
    pairs: tuple
    #: the fixed part of every dependent block entry, exact, keyed (t, u) in
    #: Q's coordinates: c + rhs[i, i] at every diagonal entry of Q_ii, and
    #: rhs[i, j]/2 at each entry t < u of Q_ij (i < j) where it is nonzero
    #: (rhs = check.coefficient_rhs); a non-edge adds no key
    fixed: dict
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


def _block_layout(k: int, m: int, blocks: dict, fixed: dict) -> BlockLayout:
    """The index arrays, and F_up and R_diag as the floats of fixed, whose
    every key must be a block position."""
    dim = (k + 1) * m
    rows = np.concatenate([np.repeat(B, s, axis=1).ravel() for s, B in blocks.items()])
    cols = np.concatenate([np.tile(B, (1, s)).ravel() for s, B in blocks.items()])
    stacks, start = [], 0
    for s, B in blocks.items():
        stacks.append((s, start, start + len(B) * s * s, len(B)))
        start = stacks[-1][2]
    pos = np.full((dim, dim), -1, dtype=np.intp)
    pos[rows, cols] = np.arange(rows.size)
    a_r, a_c, r, s = rows // m, cols // m, rows % m, cols % m
    off = np.flatnonzero(a_r != a_c)
    up = np.where(a_r[off] < a_c[off], off, pos[cols[off], rows[off]])
    swap = pos[a_r[up] * m + s[up], a_c[up] * m + r[up]]
    t, u = np.array(list(fixed), dtype=np.intp).T
    at = pos[t, u]
    if (swap < 0).any() or (at < 0).any():
        raise ArithmeticError("coefficient equations couple different sign blocks")
    vals = np.zeros(rows.size)
    vals[at] = [float(x) for x in fixed.values()]
    ups = np.flatnonzero((a_r < a_c) & (r < s))
    skew = np.stack([rows[ups], cols[ups], a_r[ups] * m + s[ups], a_c[ups] * m + r[ups]])
    idx = np.arange(dim).reshape(k + 1, m)
    diag = pos[idx, idx]
    return BlockLayout(rows=rows, cols=cols, stacks=tuple(stacks), tr=pos[cols, rows],
                       diag=diag, off=off, up=up, swap=swap, F_up=vals[up],
                       R_diag=vals[diag[1:]], skew=skew)


def assemble(base: Base, c) -> SosProblem:
    """Exact right-hand sides of the coefficient equations for a base graph
    (check.coefficient_rhs, calling psi as compound.psi), the fixed part of
    Q from them, and the sign blocks of Q. Fraction arithmetic touches only
    the nonzero entries, and the fixed part is held once, sparse: see
    SosProblem.fixed."""
    c = Fraction(c)
    k = base.k
    if k < 2:
        raise ValueError("base graph needs at least 2 vertices")
    pairs = tuple(check.wedge_pairs(k))
    m = len(pairs)
    rhs = check.coefficient_rhs(k, base.edges, c, compound.psi)
    fixed = {}
    for i in range(1, k + 1):
        fixed.update(((i * m + r, i * m + r), c) for r in range(m))
        for (r, s), x in rhs[i, i].items():
            key = (i * m + r, i * m + s)
            fixed[key] = fixed.get(key, _ZERO) + x
    for i, j in pairs:
        fixed.update(((i * m + r, j * m + s), x / 2) for (r, s), x in rhs[i, j].items())
    blocks = _sign_blocks(k, pairs)
    return SosProblem(candidate=base, c=c, k=k, m=m, dim=(k + 1) * m, pairs=pairs,
                      fixed=fixed, blocks=blocks, layout=_block_layout(k, m, blocks, fixed))


def _project_affine(p: SosProblem, v: np.ndarray) -> np.ndarray:
    """Closed-form Frobenius projection of the block entries v onto the
    coefficient equations (within symmetric matrices). Q_00 and each Q_ii
    hold only their diagonal, and those average coordinate by coordinate:
    S0 = (Q_00 + sum_i (R_i - Q_ii)) / (k+1), Q_ii = R_i - S0, with R_i
    the fixed diagonal of Q_ii. An entry of Q_ab, a < b, keeps its skew part
    against its pair (a,s),(b,r) on top of its fixed part; Q_ba mirrors it."""
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


def _clip_psd(L: BlockLayout, v: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix block by block: one stacked eigh per block size.
    A 1x1 block is its own eigenvalue, and np.maximum(x, 0.0) is bit for
    bit what the eigh route makes of it (0.0 for -0.0 too)."""
    out = np.empty_like(v)
    for s, start, stop, count in L.stacks:
        if s == 1:
            np.maximum(v[start:stop], 0.0, out=out[start:stop])
            continue
        w, V = np.linalg.eigh(v[start:stop].reshape(count, s, s))
        P = (V * np.maximum(w, 0.0)[:, None, :]) @ V.transpose(0, 2, 1)
        out[start:stop] = ((P + P.transpose(0, 2, 1)) / 2).ravel()
    return out


def _min_eigenvalue(L: BlockLayout, v: np.ndarray) -> float:
    """Least eigenvalue over the blocks; the 1x1 blocks' are their entries."""
    least = np.inf
    for s, start, stop, count in L.stacks:
        X = v[start:stop]
        w = X if s == 1 else np.linalg.eigvalsh(X.reshape(count, s, s))[:, 0]
        least = min(least, float(w.min()))
    return least


@dataclass(frozen=True)
class SolveResult:
    status: str  # CONVERGED | NOT_FOUND
    Q: np.ndarray
    iterations: int
    affine_residual: float
    psd_residual: float


#: the solver's default tolerance on both residuals (it stops on the PSD one)
TOL = 1e-9
#: the PSD residual at which certify first rounds (see certify)
ROUND_TOL = 1e-6


def sdp_solve(p: SosProblem, max_iter: int = 50000, tol: float = TOL) -> SolveResult:
    """Projection splitting between the coefficient equations and the PSD
    cone, in the reflect-reflect-average (Douglas-Rachford / ADMM) form:

        Qa = P_aff(Q);  Q <- Q + P_psd(2*Qa - Q) - Qa.

    Plain alternation P_psd(P_aff(.)) stalls here: the intersection is
    non-transversal (every certificate is singular, see module docstring),
    where averaged reflections keep their linear rate. The iterate lives on
    the sign blocks (module docstring), and both projections are closed
    forms there: coordinate averaging for the affine set, eigen-clip at 0
    block by block for the cone. Stops when the affine shadow Qa has no
    block eigenvalue below -tol. Its affine max-norm violation is one
    rounding (_project_affine writes each entry and its mirror from one
    expression), so it is measured once, on the returned Qa, where
    CONVERGED needs it <= tol too. Qa is returned as a dense matrix,
    exactly 0 off the blocks. Deterministic: starts from Q = 0, so a run
    to a smaller tol repeats a larger tol's iterations and goes on.
    """
    L = p.layout
    v = np.zeros(L.rows.size)
    va = v
    psd, it = np.inf, max_iter
    for n in range(1, max_iter + 1):
        va = _project_affine(p, v)
        psd = max(0.0, -_min_eigenvalue(L, va))
        if psd <= tol:
            it = n
            break
        v = v + (_clip_psd(L, 2 * va - v) - va)
    aff = affine_residual(p, va)
    status = "CONVERGED" if psd <= tol and aff <= tol else "NOT_FOUND"
    Q = np.zeros((p.dim, p.dim))
    Q[L.rows, L.cols] = va
    return SolveResult(status, Q, it, aff, psd)


def rationalize(p: SosProblem, Q_num: np.ndarray, max_den: int) -> Certificate:
    """Round the free parameters to denominators <= max_den and reconstruct
    every dependent entry exactly from the coefficient equations.

    Only block entries are touched; every other entry, all of Q_0i among
    them, is exactly 0. Free: the diagonal of Q_00, and the skew parts of
    Q_ij (i < j), rounded on (r, s) with r < s and negated on (s, r); they
    are read from Q_num through the layout's index arrays, with the float
    operations of (Q_num + Q_num^T)/2. Dependent, with p.fixed read at the
    upper entry: each diagonal entry of Q_ii is fixed - Q_00's, each entry
    of Q_ij is fixed plus or minus its skew part, and T = c*I - Q_00. The
    output therefore satisfies the polynomial identity over Q regardless of
    rounding quality; only PSD can fail.
    """
    k, m, fixed = p.k, p.m, p.fixed
    Qn = np.asarray(Q_num, dtype=float)
    a, b, a2, b2 = p.layout.skew
    skew = ((Qn[a, b] + Qn[b, a]) / 2 - (Qn[a2, b2] + Qn[b2, a2]) / 2) / 2

    def approx(x) -> Fraction:
        return exactq.rational_approx(x, max_den)

    Q = [[_ZERO] * p.dim for _ in range(p.dim)]
    T = [[_ZERO] * m for _ in range(m)]
    for r, x in enumerate(Qn.diagonal()[:m].tolist()):
        q = Q[r][r] = approx(x)
        T[r][r] = p.c - q
        for t in range(m + r, p.dim, m):
            Q[t][t] = fixed[t, t] - q
    # (i,r),(j,s) and (i,s),(j,r); i < j, r < s
    for t, u, t2, u2, x in zip(*p.layout.skew.tolist(), skew.tolist()):
        v = approx(x)
        Q[t][u] = Q[u][t] = fixed.get((t, u), _ZERO) + v
        Q[t2][u2] = Q[u2][t2] = fixed.get((t2, u2), _ZERO) - v
    return Certificate(candidate=p.candidate.name, c=p.c, k=k, m=m,
                       Q=tuple(map(tuple, Q)), T=tuple(map(tuple, T)))


def soundness_spot_check(base: Base, c, samples: int = 1000,
                         seed: int = 0) -> float:
    """Min over random unit x of the least eigenvalue of c*I - psi(M*(x)).

    A verified certificate implies this is >= 0 up to float roundoff. psi is
    linear, so psi(M*(x)) = sum over edges i <= j of A_ij x_i x_j
    psi(E_ij + E_ji) (E_ii once on a loop): the edge terms are built once and
    all samples are formed and eigensolved as one stack.
    """
    rng = np.random.default_rng(seed)
    A = compound.adjacency(base.k, base.edges)
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
    attempts: tuple  # (max_den, verdict) pairs in order: PSD, NOT_PSD or OVER_BUDGET
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


#: a rung's verdict in CertifyResult.attempts when its Q is over the exact
#: PSD check's work budget (exactq.MAX_WORK)
OVER_BUDGET = "OVER_BUDGET"


def _walk(p: SosProblem, Q_num: np.ndarray, max_den: int, attempts: list) -> Certificate | None:
    """The first rung of the ladder whose Q is PSD, or None; each rung's
    (max_den, verdict) is appended to attempts."""
    for d in _denominator_ladder(max_den):
        cert = rationalize(p, Q_num, max_den=d)
        try:
            verdict = verify_psd(cert).verdict
        except exactq.OverBudget:
            verdict = OVER_BUDGET
        attempts.append((d, verdict))
        if verdict == exactq.PSD:
            return cert
    return None


def certify(base: Base, c, *, max_iter: int = 50000,
            max_den: int = 10 ** 4) -> CertifyResult:
    """assemble -> sdp_solve -> rationalize -> verify.

    The ladder's rungs up to about 700 need the point only to about
    1/(2 d^2) >= ROUND_TOL (_denominator_ladder), so the first solve stops
    at PSD residual ROUND_TOL, and the ladder is walked from its point,
    whatever its status; the first rung whose Q is PSD is accepted. Only if
    no rung passes and that solve stopped with TOL < psd_residual <=
    ROUND_TOL is the solve run again from zero to TOL and the ladder walked
    once more from its point. A solve that hit max_iter, or already reached
    TOL, gets one walk. The result's solve is the one whose point was
    rounded last; attempts lists every rung of both walks in order. A rung
    whose Q is over the exact PSD check's work budget is recorded as
    OVER_BUDGET and the walk goes on.

    Each rung is checked for PSD only: reconstruction makes every rung
    satisfy the identity, so that is checked once, on the accepted rung, by
    the call `ssc verify` makes, and a violation raises ArithmeticError.
    The returned certificate always passes both exact checks. On NOT_FOUND
    the failing stage is sdp_solve if the last solve did not converge, else
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
    p = assemble(base, c)
    attempts: list = []
    solve = sdp_solve(p, max_iter=max_iter, tol=ROUND_TOL)
    cert = _walk(p, solve.Q, max_den, attempts)
    if cert is None and TOL < solve.psd_residual <= ROUND_TOL:
        solve = sdp_solve(p, max_iter=max_iter)
        cert = _walk(p, solve.Q, max_den, attempts)
    if cert is None:
        stage = "sdp_solve" if solve.status != "CONVERGED" else "verify_psd"
        return CertifyResult("NOT_FOUND", None, solve, tuple(attempts), stage=stage)
    idr = verify_identity(cert)
    if not idr.ok:  # reconstruction guarantees this; treat as fatal
        raise ArithmeticError(f"reconstructed certificate broke identity: {idr.violations[:1]}")
    return CertifyResult("FOUND", cert, solve, tuple(attempts))
