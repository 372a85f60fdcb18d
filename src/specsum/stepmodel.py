"""Candidate base graphs with loops, weighted matrices M*, spectral-sum
maximization over the weight simplex, and extremal diagnostics.

A step model is a base graph on k looped vertices plus simplex weights u;
its matrix is M*[i][j] = sqrt(u_i u_j) on edges (loops included) and 0
elsewhere. sigma = lambda1(M*) + lambda2(M*). A base is a `check.Base`,
and `candidate` is `check.base`, its lookup by name. The four catalog
bases, `check.CANDIDATES` (P3, P4, H5 and H6), carry a loop on every vertex
and are true-twin-free. The maximum of sigma over the simplex is 8/7 for
every one of them; for P3 it is attained at u = (2/7, 3/7, 2/7), and the
larger bases attain it on embedded-path boundary points (e.g. H6 at
u = (2/7, 3/7, 0, 2/7, 0, 0)). Those points lie on the 1/14 simplex grid,
which maximize_sigma scores along with a few random probes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import check, compound, numerics

SIMPLEX_TOL = 1e-12
GRID_MESH = 14
KAPPA_TOL = 1e-8

#: most Dirichlet probes maximize_sigma scores; its probe stack holds
#: that many k x k matrices, about 30 MB at k = 6 and this cap
MAX_RESTARTS = 10 ** 5


#: the base `name` of `check.BASES`; ValueError if unknown
candidate = check.base


@dataclass(frozen=True)
class StepModel:
    candidate: check.Base
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
    return _weighted(compound.adjacency(model.candidate.k, model.candidate.edges), model.u)


def sigma(model: StepModel) -> float:
    """lambda1(M*) + lambda2(M*), on the full matrix (zero blocks vanish)."""
    w = np.linalg.eigh(weighted_matrix(model)).eigenvalues
    return float(w[-1] + w[-2])


def _sigma_batch(A: np.ndarray, U: np.ndarray) -> np.ndarray:
    S = np.sqrt(np.maximum(U, 0.0))
    mats = A[None, :, :] * (S[:, None, :] * S[:, :, None])
    w = np.linalg.eigvalsh(mats)
    return w[:, -1] + w[:, -2]


def simplex_grid(k: int) -> np.ndarray:
    """All points v/GRID_MESH, v a nonnegative integer k-composition of
    GRID_MESH, in lexicographic order (stars and bars: k - 1 bars in slots)."""
    slots = GRID_MESH + k - 1
    bars = np.array(list(itertools.combinations(range(slots), k - 1)))
    cuts = np.pad(bars, ((0, 0), (1, 1)), constant_values=(-1, slots))
    return (np.diff(cuts, axis=1) - 1) / GRID_MESH


def maximize_sigma(base: check.Base, restarts: int = 200,
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
    A = compound.adjacency(base.k, base.edges)
    grid = simplex_grid(base.k)
    grid_vals = _sigma_batch(A, grid)
    i = int(np.argmax(grid_vals))
    best_u, best_val = grid[i], float(grid_vals[i])

    rng = np.random.default_rng(seed)
    probes = numerics.project_simplex(rng.dirichlet(np.ones(base.k), size=restarts))
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
    last defined blocks. Exact ties (mu1 = mu2, equal beta ends) go by a
    stable sort on -mu and a positive largest-magnitude eigenvector entry.
    """
    u = model.u
    support = tuple(int(i) + 1 for i in np.nonzero(u > 0)[0])
    if len(support) < 2:
        raise ValueError("need at least 2 positive-weight blocks")
    idx = [i - 1 for i in support]
    A = compound.adjacency(model.candidate.k, model.candidate.edges)[np.ix_(idx, idx)]
    us = u[idx]
    w, V = np.linalg.eigh(_weighted(A, us))
    top = np.argsort(-w, kind="stable")[:2]
    V = V[:, top] * np.sign(V[np.argmax(np.abs(V[:, top]), axis=0), top])
    mu1, mu2 = map(float, w[top])
    alpha_s, beta_s = V.T / np.sqrt(us)
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


def adjacency_criterion_check(model: StepModel) -> list[PairCheck]:
    """kappa_ij = alpha_i alpha_j + beta_i beta_j for positive-weight block
    pairs (i <= j); an edge needs kappa >= -KAPPA_TOL, a non-edge <= KAPPA_TOL."""
    se = step_eigs(model)
    edges = model.candidate.edges
    out = []
    for a in range(len(se.support)):
        for b in range(a, len(se.support)):
            i, j = se.support[a], se.support[b]
            kappa = float(se.alpha[i - 1] * se.alpha[j - 1]
                          + se.beta[i - 1] * se.beta[j - 1])
            adjacent = (min(i, j), max(i, j)) in edges
            consistent = (kappa >= -KAPPA_TOL) if adjacent else (kappa <= KAPPA_TOL)
            out.append(PairCheck(i=i, j=j, kappa=kappa,
                                 adjacent=adjacent, consistent=consistent))
    return out


def true_twin_check(n: int, edges) -> list[tuple[int, int]]:
    """Pairs of vertices of the graph (n, edges) with identical closed neighborhoods."""
    closed = (compound.adjacency(n, edges) + np.eye(n)) > 0
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
            if np.array_equal(closed[i - 1], closed[j - 1])]
