"""Euclidean projection onto the probability simplex; no module state."""

from __future__ import annotations

import numpy as np


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x : x >= 0, sum x = 1}; a (B, k) stack is
    projected row by row.

    Standard sort-based method: find the largest j with
    u_j + (1 - sum_{i<=j} u_i)/j > 0 for u sorted descending, shift and clip.
    j = 1 always qualifies, so the largest j exists.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.size == 0:
        raise ValueError("expected a nonempty 1-d array or (B, k) stack")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite entries")
    V = np.atleast_2d(v)
    u = np.sort(V, axis=1)[:, ::-1]
    cs = np.cumsum(u, axis=1)
    ok = u + (1.0 - cs) / np.arange(1, V.shape[1] + 1) > 0
    rho = V.shape[1] - 1 - np.argmax(ok[:, ::-1], axis=1)
    theta = (1.0 - cs[np.arange(V.shape[0]), rho]) / (rho + 1.0)
    out = np.maximum(V + theta[:, None], 0.0)
    return out if v.ndim == 2 else out[0]
