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
Those points lie on the 1/14 simplex grid, which maximize_sigma scores
along with a few random probes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import check, numerics
from .graphs import Graph, graph

SIMPLEX_TOL = 1e-12

#: most Dirichlet probes maximize_sigma scores; its probe stack holds
#: that many k x k matrices, about 30 MB at k = 6 and this cap
MAX_RESTARTS = 10 ** 5


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


def maximize_sigma(cand: CandidateGraph, restarts: int = 200,
                   seed: int = 0) -> tuple[np.ndarray, float]:
    """Best (u*, sigma*) over the 1/14 simplex grid and `restarts`
    Dirichlet(1) probes drawn from `seed`.

    The grid holds the exact extremal weights (2/7 = 4/14, 3/7 = 6/14), so
    on the catalog bases its first best point is the answer. The grid and
    the probes, projected onto the simplex, are each scored in one stacked
    eigensolve. A probe replaces the grid point only if it beats it by more
    than 8 ulps, so rounding alone never displaces the exact grid point.
    More than MAX_RESTARTS probes are refused before anything is allocated.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if restarts > MAX_RESTARTS:
        raise ValueError(f"restarts {restarts} is above the limit {MAX_RESTARTS}")
    A = cand.graph.adjacency()
    grid = simplex_grid(cand.k, 14)
    grid_vals = _sigma_batch(A, grid)
    i = int(np.argmax(grid_vals))
    best_u, best_val = grid[i], float(grid_vals[i])

    rng = np.random.default_rng(seed)
    probes = numerics.project_simplex(rng.dirichlet(np.ones(cand.k), size=restarts))
    vals = _sigma_batch(A, probes)
    j = int(np.argmax(vals))
    if vals[j] > best_val + 8 * np.finfo(float).eps * abs(best_val):
        best_u, best_val = probes[j], float(vals[j])
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
