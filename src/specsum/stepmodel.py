"""Candidate base graphs with loops, weighted matrices M*, spectral-sum
maximization over the weight simplex, and extremal diagnostics.

A step model is a base graph on k looped vertices plus simplex weights u;
its matrix is M*[i][j] = sqrt(u_i u_j) on edges (loops included) and 0
elsewhere. sigma = lambda1(M*) + lambda2(M*). The four catalog bases:

    P3: path 1-2-3
    P4: path 1-2-3-4
    H5: edges 12 13 23 24 34 35 45
    H6: edges 12 13 23 24 34 35 45 46 56

each with a loop on every vertex. All four are true-twin-free. The maximum
of sigma over the simplex is 8/7 for every one of them; for P3 it is
attained at u = (2/7, 3/7, 2/7), and the larger bases attain it on
embedded-path boundary points (e.g. H6 at u = (2/7, 3/7, 0, 2/7, 0, 0)).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import check, numerics
from .graphs import Graph, graph

SIMPLEX_TOL = 1e-12

#: most Dirichlet restarts maximize_sigma takes; its stacks hold
#: 50 + restarts matrices, about 30 MB at k = 6 and this cap
MAX_RESTARTS = 10 ** 5
#: Armijo steps t = 2^-1 ... 2^-39 (the halvings of 1/2 above 1e-12), exact
_STEPS = 0.5 ** np.arange(1, 40)
#: most ascent iterations per start
_MAX_ITER = 100


@dataclass(frozen=True)
class CandidateGraph:
    name: str
    graph: Graph

    @property
    def k(self) -> int:
        return self.graph.n


#: the four catalog bases, from check.CANDIDATES
CANDIDATES: dict[str, CandidateGraph] = {
    name: CandidateGraph(name, graph(k, edges)) for name, (k, edges) in check.CANDIDATES.items()}


def candidate(name: str) -> CandidateGraph:
    try:
        return CANDIDATES[name]
    except KeyError:
        raise ValueError(f"unknown candidate {name!r}; have {sorted(CANDIDATES)}")


@dataclass(frozen=True)
class StepModel:
    candidate: CandidateGraph
    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if u.shape != (self.candidate.k,):
            raise ValueError(f"weight vector must have length {self.candidate.k}")
        if not np.all(np.isfinite(u)):
            raise ValueError("weights must be finite")
        if np.any(u < 0):
            raise ValueError("weights must be nonnegative")
        if abs(float(u.sum()) - 1.0) > SIMPLEX_TOL:
            raise ValueError(f"weights must sum to 1 within {SIMPLEX_TOL}")
        u = u.copy()
        u.setflags(write=False)
        object.__setattr__(self, "u", u)


@dataclass(frozen=True)
class StepEigs:
    mu1: float
    mu2: float
    alpha: np.ndarray  # nan on zero-weight blocks
    beta: np.ndarray
    support: tuple[int, ...]  # 1-based blocks with u_i > 0


@dataclass(frozen=True)
class PairCheck:
    i: int
    j: int
    kappa: float
    adjacent: bool
    consistent: bool


def _weighted(A: np.ndarray, u: np.ndarray) -> np.ndarray:
    s = np.sqrt(u)
    return A * np.outer(s, s)


def weighted_matrix(model: StepModel) -> np.ndarray:
    """M* = D_u^{1/2} A D_u^{1/2}: sqrt(u_i u_j) on edges, loops included."""
    return _weighted(model.candidate.graph.adjacency(), model.u)


def sigma(model: StepModel) -> float:
    """lambda1(M*) + lambda2(M*), on the full matrix (zero blocks vanish)."""
    w = numerics.eigh(weighted_matrix(model)).eigenvalues
    return float(w[0] + w[1])


def _sigma_batch(A: np.ndarray, U: np.ndarray) -> np.ndarray:
    S = np.sqrt(np.maximum(U, 0.0))
    mats = A[None, :, :] * (S[:, None, :] * S[:, :, None])
    w = np.linalg.eigvalsh(mats)
    return w[:, -1] + w[:, -2]


def simplex_grid(k: int, mesh: int) -> np.ndarray:
    """All points v/mesh, v a nonnegative integer k-composition of mesh, in
    lexicographic order (stars and bars: k - 1 bars in mesh + k - 1 slots)."""
    bars = np.array(list(itertools.combinations(range(mesh + k - 1), k - 1)))
    cuts = np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, mesh + k - 1))
    return (np.diff(cuts, axis=1) - 1) / mesh


def _sigma_grad(A: np.ndarray, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


def _ascend(A: np.ndarray, U0: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    """Projected gradient ascent from every row of U0 at once; a row stops
    at a zero gradient or when no step in _STEPS passes Armijo.

    The line search tries the steps largest first, as many at a time as
    fit in B = U0.shape[0] matrices: each pass stacks the rows still
    searching against their next max(1, B // rows) steps, and a row takes
    its first step that passes. No stacked eigensolve is larger than the
    one that scores the starts.
    """
    B, k = U0.shape
    U = numerics.project_simplex(U0)
    vals = _sigma_batch(A, U)
    active = np.ones(B, dtype=bool)
    for _ in range(_MAX_ITER):
        live = np.flatnonzero(active)
        if live.size == 0:
            break
        w, G = _sigma_grad(A, U[live])
        kink = w[:, -2] - w[:, -3] < 1e-9 if k >= 3 else np.zeros(live.size, bool)
        if kink.any():
            rows = live[kink]
            U[rows] = numerics.project_simplex(
                U[rows] + 1e-7 * rng.standard_normal((rows.size, k)))
            vals[rows] = _sigma_batch(A, U[rows])
        rows, G = live[~kink], G[~kink]
        G -= G.mean(axis=1, keepdims=True)  # tangent of the simplex
        gnorm2 = np.einsum("ij,ij->i", G, G)
        flat = gnorm2 < 1e-18
        active[rows[flat]] = False
        rows, G, gnorm2 = rows[~flat], G[~flat], gnorm2[~flat]
        s = 0
        while s < _STEPS.size and rows.size:
            t = _STEPS[s:s + max(1, B // rows.size)]
            cand = numerics.project_simplex(
                (U[rows, None, :] + t[:, None] * G[:, None, :]).reshape(-1, k))
            cvals = _sigma_batch(A, cand).reshape(rows.size, t.size)
            ok = cvals > vals[rows, None] + 1e-4 * t * gnorm2[:, None]
            hit = ok.any(axis=1)
            first = np.flatnonzero(hit) * t.size + ok[hit].argmax(axis=1)
            U[rows[hit]], vals[rows[hit]] = cand[first], cvals.ravel()[first]
            rows, G, gnorm2 = rows[~hit], G[~hit], gnorm2[~hit]
            s += t.size
        active[rows] = False
    return U, vals


def maximize_sigma(cand: CandidateGraph, restarts: int = 200,
                   seed: int = 0) -> tuple[np.ndarray, float]:
    """Best (u*, sigma*) from a deterministic 1/14 simplex grid plus
    Dirichlet(1) restarts, polished by projected ascent.

    The grid contains the exact extremal weights (2/7 = 4/14, 3/7 = 6/14),
    so the result is never below the best grid value. Ascent starts from
    the 50 best grid points (at k = 6 the grid has ~12k) and every Dirichlet
    point, all climbing as one stack: per iteration one stacked eigensolve,
    the analytic gradient (one-sided on zero weights, see _sigma_grad) and
    an Armijo line search over t = 2^-1 ... 2^-39 that tries several steps
    per eigensolve once few rows are left searching, never stacking more
    than the 50 + restarts matrices of the starts (see _ascend). A row at
    a lambda2 = lambda3 kink, where sigma has no gradient, instead takes a
    small seeded random step. The best grid point is kept unless a climb
    beats it by more than 8 ulps; equal climbed values go to the
    lexicographically smaller u. More than MAX_RESTARTS restarts is
    refused before anything is allocated.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if restarts > MAX_RESTARTS:
        raise ValueError(f"restarts {restarts} is above the limit {MAX_RESTARTS}")
    A = cand.graph.adjacency()
    k = cand.k
    rng = np.random.default_rng(seed)

    grid = simplex_grid(k, 14)
    grid_vals = _sigma_batch(A, grid)

    # grid rows are in lexicographic order, so the stable sort ranks them
    # by the tie-break below and order[0] is the best grid point
    order = np.argsort(-grid_vals, kind="stable")
    starts = np.vstack([grid[order[:50]],
                        rng.dirichlet(np.ones(k), size=restarts)])
    U, vals = _ascend(A, starts, rng)
    i = np.lexsort((*U.T[::-1], -vals))[0]  # highest value, then smallest u
    best_u, best_val = grid[order[0]], float(grid_vals[order[0]])
    # a climb that ends a few ulps above the grid point has found the same
    # maximum, rounded differently; the exact grid point wins that tie
    if vals[i] > best_val + 8 * np.finfo(float).eps * abs(best_val):
        best_u, best_val = U[i], float(vals[i])

    # Optima routinely sit on a simplex face; the projection leaves
    # weights at roundoff scale (~1e-17) instead of exact zeros, which
    # would drag phantom blocks into the support downstream. Snap and
    # keep the snapped point unless it actually costs anything.
    snapped = np.where(best_u < 1e-9, 0.0, best_u)
    if snapped.sum() > 0 and not np.array_equal(snapped, best_u):
        snapped /= snapped.sum()
        val = _sigma_batch(A, snapped[None, :])[0]
        if val >= best_val - 1e-9:
            best_u, best_val = snapped, float(val)
    return best_u, best_val


def step_eigs(model: StepModel) -> StepEigs:
    """Step values alpha_i = a_i/sqrt(u_i), beta_i = b_i/sqrt(u_i) of the top
    two eigenvectors, on positive-weight blocks (undefined elsewhere).

    Computed on the matrix restricted to the support: the nonzero spectrum
    is unchanged and restriction keeps the step functions unit-normalized.
    Signs: sum u_i alpha_i >= 0, and beta decreasing between the first and
    last defined blocks.
    """
    u = model.u
    support = tuple(int(i) + 1 for i in np.nonzero(u > 0)[0])
    if len(support) < 2:
        raise ValueError("need at least 2 positive-weight blocks")
    idx = [i - 1 for i in support]
    A = model.candidate.graph.adjacency()[np.ix_(idx, idx)]
    us = u[idx]
    dec = numerics.eigh(_weighted(A, us))
    mu1, mu2 = float(dec.eigenvalues[0]), float(dec.eigenvalues[1])
    a = dec.eigenvectors[:, 0]
    b = dec.eigenvectors[:, 1]
    alpha_s = a / np.sqrt(us)
    beta_s = b / np.sqrt(us)
    if float(us @ alpha_s) < 0:
        alpha_s = -alpha_s
    if beta_s[0] < beta_s[-1]:
        beta_s = -beta_s
    k = model.candidate.k
    alpha = np.full(k, np.nan)
    beta = np.full(k, np.nan)
    alpha[idx] = alpha_s
    beta[idx] = beta_s
    return StepEigs(mu1=mu1, mu2=mu2, alpha=alpha, beta=beta, support=support)


def ellipse_residual(model: StepModel) -> np.ndarray:
    """Per-block r_i = mu1 alpha_i^2 + mu2 beta_i^2 - (mu1 + mu2); nan on
    zero-weight blocks. Residuals vanish at extremal weights."""
    se = step_eigs(model)
    return se.mu1 * se.alpha ** 2 + se.mu2 * se.beta ** 2 - (se.mu1 + se.mu2)


def adjacency_criterion_check(model: StepModel, tol: float = 1e-8) -> list[PairCheck]:
    """kappa_ij = alpha_i alpha_j + beta_i beta_j for positive-weight block
    pairs (i <= j); an edge should have kappa >= -tol, a non-edge <= tol."""
    se = step_eigs(model)
    edges = model.candidate.graph.edges
    out = []
    for a in range(len(se.support)):
        for b in range(a, len(se.support)):
            i, j = se.support[a], se.support[b]
            kappa = float(se.alpha[i - 1] * se.alpha[j - 1]
                          + se.beta[i - 1] * se.beta[j - 1])
            adjacent = (min(i, j), max(i, j)) in edges
            consistent = (kappa >= -tol) if adjacent else (kappa <= tol)
            out.append(PairCheck(i=i, j=j, kappa=kappa,
                                 adjacent=adjacent, consistent=consistent))
    return out


def true_twin_check(G: Graph) -> list[tuple[int, int]]:
    """Pairs of vertices with identical closed neighborhoods."""
    closed = (G.adjacency() + np.eye(G.n)) > 0
    return [(i, j) for i in range(1, G.n + 1) for j in range(i + 1, G.n + 1)
            if np.array_equal(closed[i - 1], closed[j - 1])]
