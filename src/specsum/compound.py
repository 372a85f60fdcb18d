"""Float adapters of `check`: psi on float input, and a base's adjacency.

The exact compounds, psi among them, live in `check`, which also describes
the wedge basis. The stacked soundness spot check in `certify` calls psi
on a float ndarray here; `assemble` calls it on exact input, which passes
straight through. `graphs.Graph.adjacency` calls `adjacency` as well.
"""

from __future__ import annotations

import numpy as np

from . import check


def psi(M):
    """Second additive compound on the wedge basis, by `check.psi`.

    Rational input (lists of Fraction) gives lists of Fraction. Float input
    (a numeric ndarray) is read exactly and the result rounded to float
    once; every entry of psi is +-M_xy or M_ii + M_jj, so that is what
    float arithmetic gives. A non-finite float entry raises ValueError.
    """
    if not isinstance(M, np.ndarray) or M.dtype == object:
        return check.psi(M)
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("M must be square")
    if not np.all(np.isfinite(M)):
        raise ValueError("psi needs finite entries")
    return np.array(check.psi(M.tolist()), dtype=float)


def adjacency(n: int, edges) -> np.ndarray:
    """Float adjacency of the graph (n, edges) on vertices 1..n; a loop is a 1 on the diagonal."""
    A = np.zeros((n, n))
    for i, j in edges:
        A[i - 1, j - 1] = A[j - 1, i - 1] = 1.0
    return A
