"""psi for float input: the one float adapter of `check.psi`.

The exact compounds, psi among them, live in `check`, which also describes
the wedge basis. This module lets the numpy side, the stacked soundness
spot check in `certify`, call psi on a float ndarray; `assemble` calls it
on exact input, which passes straight through.
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
