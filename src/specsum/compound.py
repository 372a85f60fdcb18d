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
import math

import numpy as np

from . import check
from .exactq import _ZERO, QMatrix, _as_fraction


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


#: the largest C(n, k) that additive_compound builds: its output is a dense
#: C(n, k) x C(n, k) matrix, and `ssc compound` prints every entry
MAX_COMPOUND_DIM = 1000


def additive_compound(M, k: int) -> QMatrix:
    """k-th additive compound of a rational matrix over k-subsets in
    lexicographic order, exactly.

    diagonal (alpha, alpha): sum of m_ii over i in alpha;
    |alpha ^ beta| = k-1: sign(alpha, beta) * m_ij with {i} = alpha \\ beta,
    {j} = beta \\ alpha, sign = (-1)^#{r in alpha ^ beta strictly between
    i and j}; zero otherwise. Each beta of that kind is reached from alpha
    by swapping one i out for one j, and only nonzero m_ij are visited.
    C(n, k) is checked against MAX_COMPOUND_DIM before any entry is read.
    """
    n = len(M)
    if any(len(r) != n for r in M):
        raise ValueError("M must be square")
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    N = math.comb(n, k)
    if N > MAX_COMPOUND_DIM:
        raise ValueError(f"the compound has C({n},{k}) = {N} rows, "
                         f"above the limit {MAX_COMPOUND_DIM}")
    rows = [[_as_fraction(x) for x in r] for r in M]
    subsets = list(itertools.combinations(range(1, n + 1), k))
    index = {s: a for a, s in enumerate(subsets)}
    out: QMatrix = [[_ZERO] * N for _ in range(N)]
    for a, s in enumerate(subsets):
        out[a][a] = sum(rows[i - 1][i - 1] for i in s)
        for i in s:
            rest = [r for r in s if r != i]
            for j, v in enumerate(rows[i - 1], 1):
                if not v or j in s:
                    continue
                lo, hi = min(i, j), max(i, j)
                flips = sum(lo < r < hi for r in rest)
                out[a][index[tuple(sorted(rest + [j]))]] = -v if flips % 2 else v
    return out
