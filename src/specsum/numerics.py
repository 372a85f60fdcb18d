"""Floating-point symmetric linear algebra.

Eigensolver with deterministic ordering and sign conventions, and
Euclidean projection onto the probability simplex. Everything here is a
pure function on immutable inputs; no module state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EIG_TOL = 1e-10


@dataclass(frozen=True)
class EigenDecomp:
    """Eigenvalues sorted descending; eigenvectors[:, i] pairs with eigenvalues[i]."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_symmetric(M: np.ndarray) -> np.ndarray:
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
    return (M + M.T) / 2.0


def eigh(M: np.ndarray) -> EigenDecomp:
    """Full symmetric eigendecomposition, sorted descending.

    Deterministic for fixed input: ties broken by original index (stable
    sort), and each eigenvector's sign fixed so its largest-magnitude entry
    is positive. Residual and orthonormality are checked against EIG_TOL.
    """
    S = _as_symmetric(M)
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
    w.setflags(write=False)
    V.setflags(write=False)
    return EigenDecomp(eigenvalues=w, eigenvectors=V)


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
