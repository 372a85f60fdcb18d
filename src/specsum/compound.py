"""Exterior-algebra machinery on the wedge basis.

The orthonormal basis of the antisymmetric subspace of R^n (x) R^n is
(e_i (x) e_j - e_j (x) e_i)/sqrt(2) for i < j, ordered lexicographically by
(i, j). That ordering is normative repo-wide: the certificate file format
and the coefficient constraints index wedge coordinates by it.

psi(M) = P^T (M (x) I + I (x) M) P has spectrum {lambda_i + lambda_j : i<j}.
Over the rationals the 1/sqrt(2) factors cancel; psi is computed by the
entrywise formula

    psi(M)[(i,j),(k,l)] = M_ik d_jl + M_jl d_ik - M_il d_jk - M_jk d_il

(d = Kronecker delta), which agrees with the literal P^T N P float path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import check, numerics
from .check import wedge_pairs
from .exactq import QMatrix


@dataclass(frozen=True)
class WedgeBasis:
    n: int
    pairs: tuple
    P: np.ndarray  # n^2 x C(n,2), columns (e_i x e_j - e_j x e_i)/sqrt(2)


def wedge_basis(n: int) -> WedgeBasis:
    if n < 2:
        raise ValueError("wedge basis needs n >= 2")
    pairs = wedge_pairs(n)
    P = np.zeros((n * n, len(pairs)))
    r = 1.0 / np.sqrt(2.0)
    for c, (i, j) in enumerate(pairs):
        P[(i - 1) * n + (j - 1), c] = r
        P[(j - 1) * n + (i - 1), c] = -r
    P.setflags(write=False)
    return WedgeBasis(n=n, pairs=tuple(pairs), P=P)


def _is_float_matrix(M) -> bool:
    return isinstance(M, np.ndarray) and M.dtype != object


def psi(M):
    """Second additive compound on the wedge basis.

    Float input: the literal P^T (M x I + I x M) P product.
    Rational input (lists of Fraction): the exact entrywise formula, as
    check.psi computes it.
    """
    if _is_float_matrix(M):
        M = np.asarray(M, dtype=float)
        n = M.shape[0]
        if M.ndim != 2 or M.shape[1] != n:
            raise ValueError("M must be square")
        if n < 2:
            raise ValueError("psi needs dim >= 2")
        B = wedge_basis(n)
        N = numerics.kron(M, np.eye(n)) + numerics.kron(np.eye(n), M)
        return B.P.T @ N @ B.P
    return check.psi(M)


def additive_compound(M, k: int):
    """k-th additive compound over k-subsets in lexicographic order.

    diagonal (alpha, alpha): sum of m_ii over i in alpha;
    |alpha ^ beta| = k-1: sign(alpha, beta) * m_ij with {i} = alpha \\ beta,
    {j} = beta \\ alpha, sign = (-1)^#{r in alpha ^ beta strictly between
    the two elements of the symmetric difference}; zero otherwise.
    """
    float_path = _is_float_matrix(M)
    rows = [list(r) for r in (np.asarray(M, dtype=float) if float_path else M)]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("M must be square")
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    subsets = list(itertools.combinations(range(1, n + 1), k))
    N = len(subsets)
    zero = 0.0 if float_path else Fraction(0)
    out = [[zero] * N for _ in range(N)]
    sets = [frozenset(s) for s in subsets]
    for a in range(N):
        out[a][a] = sum(rows[i - 1][i - 1] for i in subsets[a])
        for b in range(N):
            if a == b:
                continue
            inter = sets[a] & sets[b]
            if len(inter) != k - 1:
                continue
            (i,) = sets[a] - inter
            (j,) = sets[b] - inter
            lo, hi = min(i, j), max(i, j)
            sgn = -1 if sum(1 for r in inter if lo < r < hi) % 2 else 1
            out[a][b] = sgn * rows[i - 1][j - 1]
    if float_path:
        return np.array(out, dtype=float)
    return [[Fraction(x) for x in row] for row in out]


@lru_cache(maxsize=None)
def compound_sign_matrix(n: int) -> tuple[int, ...]:
    """Diagonal +-1 reconciling psi with the k=2 additive compound.

    Determined constructively: compare both maps on E_12 + E_21 and
    propagate sign ratios over pair indices (components untouched by that
    comparison default to +1). With the lexicographic basis the result is
    the identity; the agreement itself is checked exactly in tests.
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    E: QMatrix = [[Fraction(0)] * n for _ in range(n)]
    E[0][1] = E[1][0] = Fraction(1)
    A = psi(E)
    B = additive_compound(E, 2)
    m = len(A)
    sign: list[int | None] = [None] * m
    for root in range(m):
        if sign[root] is not None:
            continue
        sign[root] = 1
        stack = [root]
        while stack:
            p = stack.pop()
            for q in range(m):
                if A[p][q] != 0 and sign[q] is None:
                    sign[q] = sign[p] * (1 if B[p][q] == A[p][q] else -1)
                    stack.append(q)
    return tuple(s if s is not None else 1 for s in sign)
