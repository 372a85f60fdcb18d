"""Independent cross-checks used by the tests.

Everything here is deliberately written by a different route than the
package code: closed forms, brute force over bitmasks, minor expansions,
and the plain one-step-at-a-time loop that a batched fast path replaced.
The frozen P3 constants are floats; tests/test_p3_exact.py derives their
exact values in Fraction arithmetic and checks each within 1e-15. Tests
compare against these literals, not against package output.
"""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np

# --- frozen extremal data for the looped path on 3 vertices ---------------
# maximizer of sigma over the simplex and the step values there; each is
# checked exactly in tests/test_p3_exact.py, by the test named beside it
P3_U_STAR = (2 / 7, 3 / 7, 2 / 7)  # test_attainment, test_rational_constants
P3_SIGMA_STAR = 8 / 7  # test_attainment, test_rational_constants
P3_MU = (6 / 7, 2 / 7)  # top two eigenvalues of M* at u*: test_eigenpairs
P3_SPECTRUM = (6 / 7, 2 / 7, -1 / 7)  # test_eigenpairs
# alpha^2 = (3/4, 4/3, 3/4) and beta^2 = (7/4, 0, 7/4): test_squares,
# test_step_values
P3_ALPHA = (math.sqrt(3) / 2, 2 / math.sqrt(3), math.sqrt(3) / 2)
P3_BETA = (math.sqrt(7) / 2, 0.0, -math.sqrt(7) / 2)
P3_KAPPA = {(1, 2): 1.0, (1, 3): -1.0, (2, 3): 1.0}  # test_kappa

# spectral sums of named small graphs (irrational ones kept as floats)
# P4: eigenvalues 2cos(k pi/5), so 2cos(pi/5) + 2cos(2pi/5) = phi + 1/phi
PATH4_SUM = math.sqrt(5)
# K(7,2,2): the quotient matrix on its parts of 2, 2 and 3 vertices,
# [[1,0,3],[0,1,3],[2,2,2]], has eigenvalues 5, 1 and -2, so 5 + 1
K722_SUM = 6.0

# exhaustive extremal values (brute force below reproduces these):
# n=2 the empty graph, 0 + 0; n=3 the path, sqrt(2) + 0; n=4 the diamond
# K4 - e, whose eigenvalues are (1 +- sqrt(17))/2, 0 and -1
MAX_SUM = {2: 0.0, 3: math.sqrt(2), 4: (1 + math.sqrt(17)) / 2}


def path_spectrum(n: int) -> np.ndarray:
    """Closed form for the loop-free path: 2 cos(k pi / (n+1)), k = 1..n."""
    k = np.arange(1, n + 1)
    return np.sort(2 * np.cos(k * np.pi / (n + 1)))[::-1]


def complete_graph(n: int):
    from specsum.graphs import graph

    return graph(n, itertools.combinations(range(1, n + 1), 2))


def blowup(G, t: int):
    """Replace each vertex by t independent copies; copies inherit adjacency.

    Spectrum of the result is {t * lambda_i(G)} plus n(t-1) zeros.
    """
    from specsum.graphs import graph

    if t < 1:
        raise ValueError("t must be >= 1")
    if any(i == j for i, j in G.edges):
        raise ValueError("blowup is undefined for graphs with loops")
    edges = set()
    for i, j in G.edges:
        for a in range(t):
            for b in range(t):
                edges.add(((i - 1) * t + a + 1, (j - 1) * t + b + 1))
    return graph(G.n * t, edges)


def pair_sums(eigs) -> np.ndarray:
    """All lambda_i + lambda_j for i < j, sorted descending."""
    e = np.asarray(eigs, dtype=float)
    s = [e[i] + e[j] for i, j in itertools.combinations(range(e.size), 2)]
    return np.sort(np.asarray(s))[::-1]


def top_two_sum(A: np.ndarray) -> float:
    w = np.linalg.eigvalsh(np.asarray(A, dtype=float))
    return float(w[-1] + w[-2]) if A.shape[0] > 1 else float(w[-1])


EIG_TOL = 1e-10


def eigh(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Checked symmetric eigendecomposition (w, V), sorted descending.

    The wrapper that graphs.spectral_sum, stepmodel.sigma and
    stepmodel.step_eigs once called: it refuses non-square, empty,
    non-finite and asymmetric input, symmetrizes, breaks ties by original
    index (stable sort), makes each eigenvector's largest-magnitude entry
    positive, and checks the residual and orthonormality against EIG_TOL.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if M.size == 0:
        raise ValueError("expected dim >= 1")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    scale = max(1.0, float(np.abs(M).max()))
    if np.abs(M - M.T).max() > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    S = (M + M.T) / 2.0
    w, V = np.linalg.eigh(S)
    order = np.argsort(-w, kind="stable")
    w = w[order]
    V = V[:, order]
    for i in range(V.shape[1]):
        col = V[:, i]
        j = int(np.argmax(np.abs(col)))
        if col[j] < 0:
            V[:, i] = -col
    scale = max(1.0, float(np.abs(w).max()))
    resid = np.abs(S @ V - V * w).max()
    ortho = np.abs(V.T @ V - np.eye(len(w))).max()
    if resid > EIG_TOL * scale or ortho > EIG_TOL:
        raise ArithmeticError(
            f"eigendecomposition failed tolerance: residual {resid:.3e}, ortho {ortho:.3e}")
    return w, V


def step_eigs_via_eigh(A: np.ndarray, u: np.ndarray):
    """(mu1, mu2, alpha, beta, support) of the looped base A at weights u, as
    stepmodel.step_eigs computed them through the checked eigh above:
    restricted to the support, sum u_i alpha_i >= 0, beta[first] >=
    beta[last] on the support, nan off it."""
    idx = np.nonzero(u > 0)[0]
    us = u[idx]
    s = np.sqrt(us)
    w, V = eigh(A[np.ix_(idx, idx)] * np.outer(s, s))
    alpha_s, beta_s = V[:, 0] / s, V[:, 1] / s
    if float(us @ alpha_s) < 0:
        alpha_s = -alpha_s
    if beta_s[0] < beta_s[-1]:
        beta_s = -beta_s
    alpha = np.full(u.size, np.nan)
    beta = np.full(u.size, np.nan)
    alpha[idx], beta[idx] = alpha_s, beta_s
    return float(w[0]), float(w[1]), alpha, beta, tuple(int(i) + 1 for i in idx)


def _top_two_sums(n: int, masks: np.ndarray, connected_only: bool):
    """lambda1 + lambda2 of each mask's graph, with the masks kept; when
    connected_only, only the connected graphs. Connectivity is read off the
    Laplacian: a graph is connected exactly when its second-smallest
    Laplacian eigenvalue is positive, and for a connected graph on n <= 8
    vertices that eigenvalue is at least 2(1 - cos(pi/n)) > 0.1."""
    iu, ju = np.triu_indices(n, 1)
    bits = ((masks[:, None] >> np.arange(iu.size)) & 1).astype(float)
    A = np.zeros((masks.size, n, n))
    A[:, iu, ju] = A[:, ju, iu] = bits
    w = np.linalg.eigvalsh(A)
    vals = w[:, -1] + w[:, -2]
    if connected_only:
        L = np.eye(n) * A.sum(axis=2)[:, :, None] - A
        keep = np.linalg.eigvalsh(L)[:, 1] > 0.1
        masks, vals = masks[keep], vals[keep]
    return vals, masks


def _first_extreme(vals, masks, maximize: bool):
    i = int(np.argmax(vals) if maximize else np.argmin(vals))
    return float(vals[i]), int(masks[i])


def brute_force_extremal(n: int, connected_only: bool, maximize: bool):
    """Eigensolve every one of the 2^C(n,2) labeled loop-free graphs.

    Returns (value, mask) for the first mask in increasing order that
    attains the extreme; bit b of a mask is pair b in lexicographic order.
    """
    masks = np.arange(1 << (n * (n - 1) // 2), dtype=np.int64)
    return _first_extreme(*_top_two_sums(n, masks, connected_only), maximize)


def degree_ordered(masks: np.ndarray, n: int) -> np.ndarray:
    """The per-mask degree filter: which masks label their graph so that
    deg(1) >= deg(2) >= ... >= deg(n). It counts every degree of every
    mask, the scan that the split table in graphs replaced."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    inc = [sum(1 << b for b, e in enumerate(pairs) if v in e)
           for v in range(1, n + 1)]
    deg = np.stack([np.bitwise_count(masks & m) for m in inc], axis=1)
    return np.all(deg[:, :-1] >= deg[:, 1:], axis=1)


def degree_ordered_masks(n: int) -> np.ndarray:
    """Every degree-ordered mask on n vertices, in increasing order, by
    running degree_ordered over all 2^C(n,2) masks 4096 at a time."""
    total = 1 << (n * (n - 1) // 2)
    chunks = (np.arange(s, min(s + 4096, total), dtype=np.int64)
              for s in range(0, total, 4096))
    return np.concatenate([m[degree_ordered(m, n)] for m in chunks])


def degree_ordered_search(n: int, connected_only: bool, maximize: bool):
    """The extremal search over degree_ordered_masks(n): (value, mask) for
    the first degree-ordered mask that attains the extreme."""
    masks = degree_ordered_masks(n)
    return _first_extreme(*_top_two_sums(n, masks, connected_only), maximize)


def _connected(A: np.ndarray) -> bool:
    n = A.shape[0]
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for w in range(n):
            if A[v, w] and w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == n


def multiplicative_compound(M: np.ndarray, k: int) -> np.ndarray:
    """Matrix of k x k minors over lexicographic k-subsets (row/col selected)."""
    n = M.shape[0]
    subs = list(itertools.combinations(range(n), k))
    C = np.empty((len(subs), len(subs)))
    for a, rows in enumerate(subs):
        for b, cols in enumerate(subs):
            C[a, b] = np.linalg.det(M[np.ix_(rows, cols)])
    return C


def additive_compound_fd(M: np.ndarray, k: int, h: float = 1e-6) -> np.ndarray:
    """Additive compound via its defining limit: the k-th multiplicative
    compound of I + tM is I + t * (additive compound) + O(t^2). Central
    difference kills the O(t^2) term."""
    n = M.shape[0]
    I = np.eye(n)
    return (multiplicative_compound(I + h * M, k)
            - multiplicative_compound(I - h * M, k)) / (2 * h)


def additive_compound_pairs(M, k: int):
    """k-th additive compound of a rational matrix over k-subsets in
    lexicographic order, by a scan of all C(n,k)^2 pairs of subsets.

    diagonal (alpha, alpha): sum of m_ii over i in alpha;
    |alpha ^ beta| = k-1: sign(alpha, beta) * m_ij with {i} = alpha \\ beta,
    {j} = beta \\ alpha, sign = (-1)^#{r in alpha ^ beta strictly between
    i and j}; zero otherwise.

    check.additive_compound, which visits only the nonzero entries of M,
    is checked against it.
    """
    n = len(M)
    subsets = [frozenset(s) for s in itertools.combinations(range(1, n + 1), k)]
    out = [[Fraction(0)] * len(subsets) for _ in subsets]
    for a, sa in enumerate(subsets):
        out[a][a] = sum((Fraction(M[i - 1][i - 1]) for i in sa), Fraction(0))
        for b, sb in enumerate(subsets):
            inter = sa & sb
            if a == b or len(inter) != k - 1:
                continue
            (i,), (j,) = sa - inter, sb - inter
            lo, hi = min(i, j), max(i, j)
            sign = -1 if sum(lo < r < hi for r in inter) % 2 else 1
            out[a][b] = sign * Fraction(M[i - 1][j - 1])
    return out


def wedge_basis(n: int) -> np.ndarray:
    """The n^2 x C(n,2) matrix whose columns are the orthonormal wedge basis
    (e_i (x) e_j - e_j (x) e_i)/sqrt(2), i < j in lexicographic order."""
    if n < 2:
        raise ValueError("wedge basis needs n >= 2")
    pairs = list(itertools.combinations(range(n), 2))
    P = np.zeros((n * n, len(pairs)))
    for c, (i, j) in enumerate(pairs):
        P[i * n + j, c] = 1 / math.sqrt(2)
        P[j * n + i, c] = -1 / math.sqrt(2)
    return P


def psi_kron(M: np.ndarray) -> np.ndarray:
    """psi by its definition, P^T (M (x) I + I (x) M) P with P = wedge_basis(n)."""
    n = M.shape[0]
    P, I = wedge_basis(n), np.eye(n)
    return P.T @ (np.kron(M, I) + np.kron(I, M)) @ P


def rational_matrix(rng, n: int, den: int = 7, lo: int = -3, hi: int = 3):
    """Random symmetric matrix of Fractions with denominator den."""
    Q = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(int(rng.integers(lo, hi + 1)), den)
            Q[i][j] = Q[j][i] = v
    return Q


def _sig(A: np.ndarray, U: np.ndarray) -> np.ndarray:
    """lambda1 + lambda2 of D_u^{1/2} A D_u^{1/2} for u = each row of U."""
    S = np.sqrt(np.maximum(U, 0.0))
    w = np.linalg.eigvalsh(A * (S[..., :, None] * S[..., None, :]))
    return w[..., -1] + w[..., -2]


def fd_ascend(A: np.ndarray, u0: np.ndarray, rng, project, h: float = 1e-6,
              max_iter: int = 100) -> tuple[np.ndarray, float]:
    """One start of projected gradient ascent on lambda1 + lambda2 of
    D_u^{1/2} A D_u^{1/2}, with forward-difference gradients (k extra
    eigensolves per step), scalar Armijo halving and a random step off
    lambda2 = lambda3 kinks. `project` maps a point onto the simplex.

    stepmodel.maximize_sigma, which only scores grid points and probes,
    must end no lower than any climb.
    """
    k = u0.size
    u = project(u0)
    val = float(_sig(A, u))
    for _ in range(max_iter):
        w = np.linalg.eigvalsh(A * np.outer(np.sqrt(u), np.sqrt(u)))
        if k >= 3 and abs(w[-2] - w[-3]) < 1e-9:
            u = project(u + 1e-7 * rng.standard_normal(k))
            val = float(_sig(A, u))
            continue
        g = (_sig(A, u[None, :] + h * np.eye(k)) - val) / h
        g = g - g.mean()
        gnorm2 = float(g @ g)
        if gnorm2 < 1e-18:
            break
        t = 0.5
        while t > 1e-12:
            cand = project(u + t * g)
            cval = float(_sig(A, cand))
            if cval > val + 1e-4 * t * gnorm2:
                u, val = cand, cval
                break
            t /= 2.0
        else:
            break
    return u, val


def _sig_grad(A: np.ndarray, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of each row's M* and the gradient in u of
    lambda1 + lambda2: d lambda/d u_i = v_i (A(s o v))_i / s_i, s = sqrt(u).
    M v = lambda v gives v_i/s_i = (A(s o v))_i/lambda, so on a zero weight
    the one-sided limit is (A(s o v))_i^2/lambda (0 when lambda <= 0).
    """
    S = np.sqrt(U)
    w, V = np.linalg.eigh(A[None, :, :] * (S[:, None, :] * S[:, :, None]))
    G = np.zeros_like(U)
    for c in (-1, -2):
        v = V[:, :, c]
        r = (S * v) @ A
        q = np.divide(v, S, out=np.zeros_like(v), where=S > 0)
        np.divide(r, w[:, c, None], out=q, where=(S == 0) & (w[:, c, None] > 0))
        G += r * q
    return w, G


def halving_ascend(A: np.ndarray, U0: np.ndarray, rng, project,
                   max_iter: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Projected analytic-gradient ascent from every row of U0 at once, with
    one stacked eigensolve per halving of t; a row stops at a zero gradient
    or when no step down to 1e-12 passes Armijo.

    stepmodel.maximize_sigma, which only scores grid points and probes,
    must end no lower than any climb.
    """
    B, k = U0.shape
    U = project(U0)
    vals = _sig(A, U)
    active = np.ones(B, dtype=bool)
    for _ in range(max_iter):
        live = np.flatnonzero(active)
        if live.size == 0:
            break
        w, G = _sig_grad(A, U[live])
        kink = w[:, -2] - w[:, -3] < 1e-9 if k >= 3 else np.zeros(live.size, bool)
        if kink.any():
            rows = live[kink]
            U[rows] = project(U[rows] + 1e-7 * rng.standard_normal((rows.size, k)))
            vals[rows] = _sig(A, U[rows])
        rows, G = live[~kink], G[~kink]
        G -= G.mean(axis=1, keepdims=True)  # tangent of the simplex
        gnorm2 = np.einsum("ij,ij->i", G, G)
        flat = gnorm2 < 1e-18
        active[rows[flat]] = False
        rows, G, gnorm2 = rows[~flat], G[~flat], gnorm2[~flat]
        t = 0.5
        while t > 1e-12 and rows.size:
            cand = project(U[rows] + t * G)
            cvals = _sig(A, cand)
            ok = cvals > vals[rows] + 1e-4 * t * gnorm2
            U[rows[ok]], vals[rows[ok]] = cand[ok], cvals[ok]
            rows, G, gnorm2 = rows[~ok], G[~ok], gnorm2[~ok]
            t /= 2.0
        active[rows] = False
    return U, vals


def dense_ldl_psd_check(Q):
    """Exact PSD check of a symmetric Fraction matrix by one dense symmetric
    elimination over all of it (largest remaining diagonal as pivot), with
    no split into components. Returns ("PSD", decomposition) with
    decomposition [(column, pivot), ...] or ("NOT_PSD", z) with z^T Q z < 0.

    The component-wise exactq.ldl_psd_check is checked against it.
    """
    n = len(Q)
    S = [list(row) for row in Q]
    active = list(range(n))
    cols, vals, idx = [], [], []

    def pull_back(y):
        z = list(y)
        for r in range(len(cols) - 1, -1, -1):
            z[idx[r]] -= sum((cols[r][t] * z[t] for t in range(n)), Fraction(0))
        return z

    def unit(*entries):
        y = [Fraction(0)] * n
        for i, v in entries:
            y[i] = Fraction(v)
        return "NOT_PSD", pull_back(y)

    while active:
        p = max(active, key=lambda i: S[i][i])
        d = S[p][p]
        if d < 0:
            return unit((p, 1))
        if d == 0:
            for i in active:
                for j in active:
                    if S[i][j] != 0:
                        return unit((i, 1), (j, -1 if S[i][j] > 0 else 1))
            break
        col = [Fraction(0)] * n
        for i in active:
            col[i] = S[i][p] / d
        for i in active:
            for j in active:
                S[i][j] -= d * col[i] * col[j]
        cols.append(col)
        vals.append(d)
        idx.append(p)
        active.remove(p)
    return "PSD", list(zip(cols, vals))


def _eliminate(Q):
    """Symmetric elimination with diagonal pivoting on a dense Q of
    Fractions (see fraction_ldl_psd_check). Returns (columns, pivots, None)
    when the residual hits exactly zero, else (columns, pivots, z) with
    z^T Q z < 0 expected."""
    n = len(Q)
    S = [row[:] for row in Q]
    active = list(range(n))
    piv_cols: list[list[Fraction]] = []
    piv_vals: list[Fraction] = []
    piv_idx: list[int] = []

    def pull_back(y: list[Fraction]) -> list[Fraction]:
        # find z with z^T Q z = y^T S y: z agrees with y on active indices,
        # corrections on eliminated ones kill every recorded column.
        z = y[:]
        for r in range(len(piv_cols) - 1, -1, -1):
            c = piv_cols[r]
            dot = sum((c[t] * z[t] for t in range(n) if z[t] != 0), Fraction(0))
            z[piv_idx[r]] -= dot
        return z

    def unit(*entries) -> list[Fraction]:
        y = [Fraction(0)] * n
        for i, v in entries:
            y[i] = Fraction(v)
        return pull_back(y)

    while active:
        p = max(active, key=lambda i: S[i][i])
        d = S[p][p]
        if d < 0:
            return piv_cols, piv_vals, unit((p, 1))
        if d == 0:
            # every remaining diagonal is <= 0, hence exactly 0 here
            for i in active:
                if S[i][i] < 0:
                    return piv_cols, piv_vals, unit((i, 1))
                for j in active:
                    if S[i][j] != 0:
                        # minor [[0, s],[s, S_jj]]: try z = e_i - sign(s) e_j
                        return piv_cols, piv_vals, unit((i, 1), (j, -1 if S[i][j] > 0 else 1))
            break  # residual is exactly zero
        col = [Fraction(0)] * n
        for i in active:
            col[i] = S[i][p] / d
        for i in active:
            ci = col[i]
            if ci == 0:
                continue
            Si = S[i]
            for j in active:
                if col[j] != 0:
                    Si[j] -= d * ci * col[j]
        piv_cols.append(col)
        piv_vals.append(d)
        piv_idx.append(p)
        active.remove(p)
    return piv_cols, piv_vals, None


def fraction_ldl_psd_check(Q_in):
    """exactq.ldl_psd_check as it was before its fraction-free rewrite:
    the same components, pivots and witnesses, with every Schur-complement
    update done in Fraction arithmetic (_eliminate) and the decomposition
    re-multiplied in Fractions on the nonzeros. It has no work budget.

    The integer exactq.ldl_psd_check must return an equal PsdWitness.
    """
    from specsum.exactq import (_ZERO, NOT_PSD, PSD, PsdWitness, _components,
                                nonzeros, q_eval)

    nz = nonzeros(Q_in)
    n = len(nz)
    decomp = []
    R = [{} for _ in range(n)]  # the re-multiplied decomposition, as nz
    for comp in _components(nz):
        sub = [[nz[i].get(j, _ZERO) for j in comp] for i in comp]
        cols, vals, y = _eliminate(sub)
        if y is not None:
            z = [_ZERO] * n
            for i, yi in zip(comp, y):
                z[i] = yi
            value = q_eval(sub, y)  # z is zero off the component
            if not value < 0:
                raise ArithmeticError("internal error: witness is not negative")
            return PsdWitness(verdict=NOT_PSD, counterexample=tuple(z), value=value)
        for c, d in zip(cols, vals):
            support = [(i, ci) for i, ci in zip(comp, c) if ci]
            full = [_ZERO] * n
            for i, ci in support:
                full[i] = ci
                dci, Ri = d * ci, R[i]
                for j, cj in support:
                    Ri[j] = Ri.get(j, _ZERO) + dci * cj
            decomp.append((full, d))
    if any(Ri.get(j, _ZERO) != Qi.get(j, _ZERO)
           for Ri, Qi in zip(R, nz) for j in Ri.keys() | Qi.keys()):
        raise ArithmeticError("internal error: decomposition does not re-multiply to Q")
    return PsdWitness(verdict=PSD, decomposition=tuple((tuple(c), d) for c, d in decomp))


def work_score(Q) -> int:
    """The largest, over the connected components of Q's nonzero pattern,
    of the component's size times the bit length of its largest entry
    over the lcm of its denominators: the measure exactq.MAX_WORK bounds."""
    from specsum.exactq import _components, nonzeros

    best = 0
    for comp in _components(nonzeros(Q)):
        vals = [Fraction(Q[i][j]) for i in comp for j in comp]
        L = math.lcm(*(x.denominator for x in vals))
        best = max(best, len(comp) * max(abs(x * L).numerator for x in vals).bit_length())
    return best


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


def hostile_certificate(cert, seed: int = 0, digits: int = 240):
    """cert with every free parameter moved by +-1/N, a fresh random
    `digits`-digit N for each, and every dependent entry rebuilt: it passes
    the identity whenever cert does.

    The free parameters are the entries of Q_00 (an entry and its mirror
    together), the strict upper triangle of each skew Q_0i, and the skew
    part of each Q_ij, i < j. T = c*I - Q_00 and Q_ii = R_i - Q_00 follow
    Q_00. The moved entries couple every block of Q into one component
    whose denominators share no factor.
    """
    rng = random.Random(seed)
    k, m = cert.k, cert.m
    Q = [list(row) for row in cert.Q]
    T = [list(row) for row in cert.T]

    def step():
        return Fraction(rng.choice((-1, 1)), rng.randrange(10 ** (digits - 1), 10 ** digits))

    def move(M, t, u, e):
        M[t][u] += e
        if t != u:
            M[u][t] += e

    for r in range(m):
        for s in range(r, m):
            e = step()
            move(Q, r, s, e)
            move(T, r, s, -e)
            for i in range(1, k + 1):
                move(Q, i * m + r, i * m + s, -e)
    for a in range(k + 1):
        for i in range(a + 1, k + 1):
            for r in range(m):
                for s in range(r + 1, m):
                    e = step()
                    move(Q, a * m + r, i * m + s, e)
                    move(Q, a * m + s, i * m + r, -e)
    return dataclasses.replace(cert, Q=tuple(map(tuple, Q)), T=tuple(map(tuple, T)))


def spot_check_loop(base, c, samples: int = 1000, seed: int = 0) -> float:
    """One sample at a time: min over random unit x of the least eigenvalue
    of c*I - psi(A o x x^T), with psi_kron of the whole matrix per sample."""
    rng = np.random.default_rng(seed)
    A = base.graph.adjacency()
    cI = float(Fraction(c)) * np.eye(base.k * (base.k - 1) // 2)
    worst = np.inf
    for _ in range(samples):
        x = rng.standard_normal(base.k)
        x /= np.linalg.norm(x)
        w = np.linalg.eigvalsh(cI - psi_kron(A * np.outer(x, x)))
        worst = min(worst, float(w[0]))
    return worst


def dense_verify_identity(cert, p):
    """Compare both sides of the SOS identity entry by entry over every
    entry of every coefficient block. The right-hand sides are built by
    additive_compound_pairs from the adjacency of the base graph of the
    assembled problem p, which supplies only the base, the bound and the
    dimensions. Returns (ok, every violation, entries compared).

    The support-based certify.verify_identity is checked against it.
    """
    m, k = p.m, p.k
    Q, T = cert.Q, cert.T
    A = p.candidate.graph.adjacency()
    bad = []
    checked = 0

    def blk(a, b, r, s):
        return Q[a * m + r][b * m + s]

    def edge_rhs(i, j):
        """-A_ij psi(E_ij + E_ji), with E_ii once for i = j."""
        E = [[Fraction(0)] * k for _ in range(k)]
        E[i - 1][j - 1] = E[j - 1][i - 1] = Fraction(1)
        a = -int(A[i - 1, j - 1])
        return [[a * x for x in row] for row in additive_compound_pairs(E, 2)]

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
        sq = edge_rhs(i, i)
        for r in range(m):
            for s in range(m):
                checked += 2
                got = blk(0, i, r, s) + blk(i, 0, r, s)
                if got != 0:
                    bad.append((f"x_{i}", r, s, got, Fraction(0)))
                # x_i^2: Q_ii - T = -A_ii psi(E_ii)
                want = sq[r][s]
                got = blk(i, i, r, s) - T[r][s]
                if got != want:
                    bad.append((f"x_{i}^2", r, s, got, want))
    for i, j in itertools.combinations(range(1, k + 1), 2):
        two_f = edge_rhs(i, j)
        for r in range(m):
            for s in range(m):
                checked += 1
                got = blk(i, j, r, s) + blk(j, i, r, s)
                want = two_f[r][s]
                if got != want:
                    bad.append((f"x_{i}*x_{j}", r, s, got, want))
    return not bad, tuple(bad), checked


def dense_rationalize(p, Q_num, max_den: int):
    """certify.rationalize by the dense route: symmetrize the whole of Q_num
    as (Q + Q^T)/2, then round the diagonal of Q_00 and, for every i < j
    and r < s whose coordinates (i, r) and (j, s) share a sign block, the
    skew part of Q_ij at (r, s); every dependent entry follows exactly."""
    from specsum.check import Certificate
    from specsum.exactq import rational_approx

    k, m = p.k, p.m
    Qn = np.asarray(Q_num, dtype=float)
    Qs = ((Qn + Qn.T) / 2).tolist()
    block_of = {t: tuple(row) for B in p.blocks.values() for row in B.tolist() for t in row}
    Q = [[Fraction(0)] * p.dim for _ in range(p.dim)]
    T = [[Fraction(0)] * m for _ in range(m)]
    for r in range(m):
        q = Q[r][r] = rational_approx(Qs[r][r], max_den)
        T[r][r] = p.c - q
        for i in range(1, k + 1):
            Q[i * m + r][i * m + r] = p.fixed[i * m + r, i * m + r] - q
    for i, j in itertools.combinations(range(1, k + 1), 2):
        F = [[p.fixed.get((i * m + r, j * m + s), Fraction(0)) for s in range(m)]
             for r in range(m)]
        for r, s in itertools.combinations(range(m), 2):
            t, u, t2, u2 = i * m + r, j * m + s, i * m + s, j * m + r
            if block_of[t] != block_of[u]:
                continue
            v = rational_approx((Qs[t][u] - Qs[t2][u2]) / 2, max_den)
            Q[t][u] = Q[u][t] = F[r][s] + v
            Q[t2][u2] = Q[u2][t2] = F[s][r] - v
    return Certificate(candidate=p.candidate.name, c=p.c, k=k, m=m,
                       Q=tuple(map(tuple, Q)), T=tuple(map(tuple, T)))


def one_pass_certify(cand, c, max_iter: int = 50000, max_den: int = 10 ** 4):
    """certify as one solve to certify.TOL and one walk up the denominator
    ladder from its point, rounded by dense_rationalize: the flow before
    certify first rounded at ROUND_TOL. Returns a certify.CertifyResult."""
    from specsum import certify as ct
    from specsum.exactq import PSD

    p = ct.assemble(cand, c)
    solve = ct.sdp_solve(p, max_iter=max_iter)
    attempts = []
    for d in ct._denominator_ladder(max_den):
        cert = dense_rationalize(p, solve.Q, d)
        attempts.append((d, ct.verify_psd(cert).verdict))
        if attempts[-1][1] == PSD:
            return ct.CertifyResult("FOUND", cert, solve, tuple(attempts))
    stage = "sdp_solve" if solve.status != "CONVERGED" else "verify_psd"
    return ct.CertifyResult("NOT_FOUND", None, solve, tuple(attempts), stage=stage)


def eigh_clip_psd(L, v: np.ndarray) -> np.ndarray:
    """certify._clip_psd with every block, 1x1 ones included, clipped
    through a stacked eigh."""
    out = np.empty_like(v)
    for s, start, stop, count in L.stacks:
        w, V = np.linalg.eigh(v[start:stop].reshape(count, s, s))
        P = (V * np.maximum(w, 0.0)[:, None, :]) @ V.transpose(0, 2, 1)
        out[start:stop] = ((P + P.transpose(0, 2, 1)) / 2).ravel()
    return out


def eigvalsh_min(L, v: np.ndarray) -> float:
    """certify._min_eigenvalue with every block through a stacked eigvalsh."""
    return min(float(np.linalg.eigvalsh(v[start:stop].reshape(count, s, s))[:, 0].min())
               for s, start, stop, count in L.stacks)


# --- certificate format 1 -------------------------------------------------
# The dense format that check.format_certificate wrote before the sparse
# entry lines: the same three header lines, then dimQ rows of dimQ
# rationals (Q) and m rows of m rationals (T), every zero written as 0/1.

def dense_format_certificate(cert) -> str:
    from specsum.exactq import format_rational, format_row

    lines = [f"candidate {cert.candidate}", f"bound {format_rational(cert.c)}",
             f"{cert.k} {cert.m} {len(cert.Q)}"]
    lines += map(format_row, cert.Q)
    lines += map(format_row, cert.T)
    return "\n".join(lines) + "\n"


def dense_parse_certificate(text: str):
    """Read format 1 with exactq.read_rows; any deviation raises ValueError."""
    from specsum.check import Certificate
    from specsum.exactq import numbered_lines, parse_int, parse_rational, read_rows

    lines = text.splitlines()
    if len(lines) < 3 or not lines[0].startswith("candidate ") \
            or not lines[1].startswith("bound "):
        raise ValueError("line 1: expected 'candidate <name>' and 'bound p/q'")
    k, m, dim = (parse_int(t) for t in lines[2].split())
    if dim != (k + 1) * m:
        raise ValueError(f"line 3: dimQ must be (k+1)*m = {(k + 1) * m}, got {dim}")
    body = numbered_lines(text)[3:]
    if len(body) != dim + m:
        raise ValueError(f"expected {dim + m} matrix rows, got {len(body)}")
    return Certificate(candidate=lines[0][len("candidate "):].strip(),
                       c=parse_rational(lines[1][len("bound "):]), k=k, m=m,
                       Q=tuple(read_rows(body[:dim], dim)), T=tuple(read_rows(body[dim:], m)))
