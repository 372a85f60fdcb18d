"""Exterior-algebra machinery on the wedge basis.

The orthonormal basis of the antisymmetric subspace of R^n (x) R^n is
(e_i (x) e_j - e_j (x) e_i)/sqrt(2) for i < j, ordered lexicographically by
(i, j) (`check.wedge_pairs`). That ordering is normative repo-wide: the
certificate file format and the coefficient constraints index wedge
coordinates by it.

psi(M) = P^T (M (x) I + I (x) M) P, with P the matrix of that basis, has
spectrum {lambda_i + lambda_j : i<j}. The 1/sqrt(2) factors cancel, and
psi is computed by the entrywise formula

    psi(M)[(i,j),(k,l)] = M_ik d_jl + M_jl d_ik - M_il d_jk - M_jk d_il

(d = Kronecker delta) of `check.psi`, for float and rational input alike.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from . import check


def _is_float_matrix(M) -> bool:
    return isinstance(M, np.ndarray) and M.dtype != object


def psi(M):
    """Second additive compound on the wedge basis, by `check.psi`.

    Rational input (lists of Fraction) gives lists of Fraction. Float input
    (a numeric ndarray) is read exactly and the result rounded to float
    once; every entry of psi is +-M_xy or M_ii + M_jj, so that is what
    float arithmetic gives. A non-finite float entry raises ValueError.
    """
    if not _is_float_matrix(M):
        return check.psi(M)
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("M must be square")
    if not np.all(np.isfinite(M)):
        raise ValueError("psi needs finite entries")
    return np.array(check.psi(M.tolist()), dtype=float)


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
