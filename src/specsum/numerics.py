"""Floating-point symmetric linear algebra.

Eigensolver with deterministic ordering and sign conventions, Kronecker
products, Euclidean projection onto the probability simplex, and the shared
plain-text matrix format. Everything here is a pure function on immutable
inputs; no module state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactq import parse_int

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


def eigh(M: np.ndarray, eig_tol: float = EIG_TOL) -> EigenDecomp:
    """Full symmetric eigendecomposition, sorted descending.

    Deterministic for fixed input: ties broken by original index (stable
    sort), and each eigenvector's sign fixed so its largest-magnitude entry
    is positive. Residual and orthonormality are checked against eig_tol.
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
    if resid > eig_tol * scale or ortho > eig_tol:
        raise ArithmeticError(
            f"eigendecomposition failed tolerance: residual {resid:.3e}, ortho {ortho:.3e}")
    w.setflags(write=False)
    V.setflags(write=False)
    return EigenDecomp(eigenvalues=w, eigenvectors=V)


def kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product: (A x B)[(i*p+k),(j*q+l)] = A[i,j] * B[k,l]."""
    return np.kron(np.asarray(A, dtype=float), np.asarray(B, dtype=float))


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


# --- shared plain-text matrix format ------------------------------------
# line 1: dimension k; then k lines of k whitespace-separated entries, each
# a decimal or an exact rational "p/q".

def parse_number(tok: str) -> float:
    """A float literal or "p/q"; ValueError for a zero denominator or a
    value that does not fit a finite float."""
    try:
        if "/" in tok:
            num, den = tok.split("/", 1)
            x = int(num) / int(den)
        else:
            x = float(tok)
    except (ZeroDivisionError, OverflowError) as e:
        raise ValueError(f"bad number {tok[:40]!r}: {e}")
    if not math.isfinite(x):
        raise ValueError(f"bad number {tok[:40]!r}: not a finite float")
    return x


def read_matrix(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines()]
    idx = 0
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx >= len(lines):
        raise ValueError("line 1: missing dimension")
    try:
        k = parse_int(lines[idx])
    except ValueError:
        raise ValueError(f"line {idx + 1}: expected integer dimension, got {lines[idx].strip()!r}")
    if k < 1:
        raise ValueError(f"line {idx + 1}: dimension must be >= 1")
    rows = []
    for ln_no in range(idx + 1, len(lines)):
        ln = lines[ln_no].strip()
        if not ln:
            continue
        if len(rows) >= k:
            raise ValueError(f"line {ln_no + 1}: more than {k} rows")
        toks = ln.split()
        if len(toks) != k:
            raise ValueError(f"line {ln_no + 1}: expected {k} entries, got {len(toks)}")
        try:
            rows.append([parse_number(t) for t in toks])
        except ValueError as e:
            raise ValueError(f"line {ln_no + 1}: {e}")
    if len(rows) != k:
        raise ValueError(f"expected {k} rows, got {len(rows)}")
    return np.array(rows, dtype=float)


def format_matrix(M: np.ndarray) -> str:
    M = np.asarray(M)
    lines = [str(M.shape[0])]
    for row in M:
        if M.dtype == object:
            lines.append(" ".join(f"{Fraction(x).numerator}/{Fraction(x).denominator}" for x in row))
        else:
            lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"
