"""The exact certificate checker: everything `ssc verify` runs.

It imports only the standard library and `exactq`, so a reader can audit
the trust anchor without numpy and start it without loading numpy. It
holds the certificate format, the base graphs a certificate may name, the
exact k-th additive compound and psi, the right-hand sides of the
coefficient equations, and the two exact checks: the polynomial identity
compared over Q, and PSD of Q by exact LDL^T (`exactq.ldl_psd_check`).
See the `certify` module docstring for the identity and its equations.
Equation (a, b), 0 <= a <= b <= k, is the coefficient of x_a x_b, x_0 = 1:
blocks Q_ab and Q_ba feed it, and T feeds (0, 0) and each (i, i).

The orthonormal basis of the antisymmetric subspace of R^n (x) R^n is
(e_i (x) e_j - e_j (x) e_i)/sqrt(2) for i < j, ordered lexicographically by
(i, j) (`wedge_pairs`). That ordering is normative repo-wide: the
certificate file format and the coefficient equations index wedge
coordinates by it. psi(M) = P^T (M (x) I + I (x) M) P, with P the matrix
of that basis, has spectrum {lambda_i + lambda_j : i < j}. The 1/sqrt(2)
factors cancel, and psi is the k = 2 compound, entrywise

    psi(M)[(i,j),(k,l)] = M_ik d_jl + M_jl d_ik - M_il d_jk - M_jk d_il

(d = Kronecker delta). `ssc compound` runs `additive_compound`, and
`compound.psi` adapts `psi` to float input.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import exactq
from .exactq import _ZERO, QMatrix


def _looped(k: int, edges) -> tuple:
    return k, tuple(edges) + tuple((i, i) for i in range(1, k + 1))


#: the step-model candidates: name -> (k, edges with loops)
CANDIDATES: dict[str, tuple] = {
    "P3": _looped(3, [(1, 2), (2, 3)]),
    "P4": _looped(4, [(1, 2), (2, 3), (3, 4)]),
    "H5": _looped(5, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)]),
    "H6": _looped(6, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5),
                      (4, 6), (5, 6)]),
}
#: bases accepted by name in certificate files, the one table of base edge
#: lists: the four candidates plus a 2-vertex looped edge whose certificate
#: at c = 1 is trivial (Q = 0, T = [1])
BASES: dict[str, tuple] = {**CANDIDATES, "K2": _looped(2, [(1, 2)])}


def base(name: str) -> tuple:
    """(k, edges with loops) of a certificate base; ValueError if unknown."""
    try:
        return BASES[name]
    except KeyError:
        raise ValueError(f"unknown certificate base {name!r}; have {sorted(BASES)}")


def wedge_pairs(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(1, n + 1), 2))


#: the largest C(n, k) that additive_compound builds: its output is a dense
#: C(n, k) x C(n, k) matrix, and `ssc compound` prints every entry
MAX_COMPOUND_DIM = 1000


def additive_compound(M, k: int) -> QMatrix:
    """k-th additive compound of a square rational matrix over the
    k-subsets of 1..n in lexicographic order, exactly.

    Each nonzero entry M_xy lands on (R + {x}, R + {y}) for every
    (k-1)-subset R of the indices other than x and y, negated when an odd
    number of R lies strictly between x and y: a diagonal entry M_xx adds
    to every subset holding x, an off-diagonal one swaps x out for y. An
    output entry that no entry of M reaches, which covers every pair of
    subsets more than one swap apart, is the one shared exactq._ZERO.
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
    index = {s: a for a, s in enumerate(itertools.combinations(range(n), k))}
    out: QMatrix = [[_ZERO] * N for _ in range(N)]
    for x, row in enumerate(exactq.nonzeros(M)):
        for y, v in row.items():
            lo, hi = min(x, y), max(x, y)
            others = [t for t in range(n) if t != x and t != y]
            for R in itertools.combinations(others, k - 1):
                a, b = index[tuple(sorted(R + (x,)))], index[tuple(sorted(R + (y,)))]
                out[a][b] += -v if sum(lo < t < hi for t in R) % 2 else v
    return out


def psi(M) -> QMatrix:
    """The second additive compound on the wedge basis (module docstring);
    a matrix below 2 x 2 has none."""
    if len(M) < 2:
        raise ValueError("psi needs dim >= 2")
    return additive_compound(M, 2)


def coefficient_rhs(k: int, edges, c: Fraction, psi=psi) -> dict:
    """Right-hand sides of the coefficient equations of c*I - psi(M*(x)) for
    the base graph on k vertices with these edges (loops included, each as
    (i, j) with i <= j): {(a, b): {(r, s): nonzero value}}, where (a, b) is
    the coefficient of x_a x_b, 0 <= a <= b <= k and x_0 = 1.

    (0, 0) gets c*I and (0, i) nothing; (i, i) gets -A_ii psi(E_ii) and
    (i, j) gets -A_ij psi(E_ij + E_ji). psi is called once per edge, on the
    exact matrix; a non-edge's right-hand side is empty.
    """

    def edge_term(i, j) -> dict:
        if (i, j) not in edges:
            return {}
        E = [[_ZERO] * k for _ in range(k)]
        E[i - 1][j - 1] = E[j - 1][i - 1] = Fraction(-1)
        return {(r, s): x for r, row in enumerate(exactq.nonzeros(psi(E)))
                for s, x in row.items()}

    cI = {(r, r): c for r in range(k * (k - 1) // 2)} if c else {}
    return {(a, b): edge_term(a, b) if a else {} if b else cI
            for a, b in itertools.combinations_with_replacement(range(k + 1), 2)}


def coefficient_name(a: int, b: int) -> str:
    """How a violation report names the coefficient of x_a x_b (x_0 = 1)."""
    if a == 0:
        return f"x_{b}" if b else "1"
    return f"x_{a}^2" if a == b else f"x_{a}*x_{b}"


@dataclass(frozen=True)
class Certificate:
    candidate: str
    c: Fraction
    k: int
    m: int
    Q: tuple  # ((k+1)m)^2 Fractions, row tuples
    T: tuple


class IdentityReport(NamedTuple):
    ok: bool
    violations: tuple  # (coefficient, row, col, got, want), all of them
    checked: int  # entries compared explicitly: the union of supports


def verify_identity(cert: Certificate) -> IdentityReport:
    """Exact coefficientwise comparison of both sides of the identity.

    Expands V(x)^T Q V(x) + (1-|x|^2) T and c*I - psi(M*(x)) as quadratic
    matrix polynomials and compares over the rationals the coefficient
    (a, b) of x_a x_b, 0 <= a <= b <= k, x_0 = 1: entry (r, s) of block
    Q_ab adds to entry (r, s) of coefficient (min(a, b), max(a, b)), and T
    adds to (0, 0) and subtracts from every (i, i). The right-hand sides
    are `coefficient_rhs` of the named base at cert.c. Also checks exact
    symmetry of Q and T.

    One pass over the nonzeros of Q and T sums the left-hand sides. Each
    equation, symmetry included, is compared on the union of the supports
    of its two sides; off it every term is exactly 0, so the check is
    complete, and `checked` counts the entries on the unions. Every
    violation is returned, at most one per entry compared, in the order of
    a dense row-major scan: symmetry, the constant, then for each i the x_i
    and x_i^2 entries interleaved by (r, s), then each x_i x_j, i < j.
    """
    k, edges = base(cert.candidate)
    m, rhs = k * (k - 1) // 2, coefficient_rhs(k, edges, cert.c)
    dim = (k + 1) * m
    if cert.k != k or cert.m != m:
        return IdentityReport(False, (("dims", 0, 0, (cert.k, cert.m), (k, m)),), 0)
    Q, T = cert.Q, cert.T
    if len(Q) != dim or any(len(r) != dim for r in Q) or \
            len(T) != m or any(len(r) != m for r in T):
        return IdentityReport(False, (("shape", 0, 0, (len(Q), len(T)), (dim, m)),), 0)
    q_nz, t_nz = exactq.nonzeros(Q), exactq.nonzeros(T)
    bad, checked = [], 0
    for name, M, nz in (("sym(Q)", Q, q_nz), ("sym(T)", T, t_nz)):
        keys = sorted({(min(r, s), max(r, s)) for r, row in enumerate(nz) for s in row if r != s})
        checked += len(keys)
        bad += [(name, r, s, M[r][s], M[s][r]) for r, s in keys if M[r][s] != M[s][r]]
    got = {key: {} for key in rhs}  # (a, b) -> {(r, s): left-hand side}
    for t, row in enumerate(q_nz):
        a, r = divmod(t, m)
        for u, x in row.items():
            b, s = divmod(u, m)
            g, rs = got[(a, b) if a <= b else (b, a)], (r, s)
            g[rs] = g[rs] + x if rs in g else x
    for r, row in enumerate(t_nz):
        for s, x in row.items():
            rs = r, s
            for i, y in enumerate([x] + [-x] * k):
                g = got[i, i]
                g[rs] = g[rs] + y if rs in g else y
    found = []
    for (a, b), want in rhs.items():
        g = got[a, b]
        keys = g.keys() | want.keys()
        checked += len(keys)
        for r, s in keys:
            x, w = g.get((r, s), _ZERO), want.get((r, s), _ZERO)
            if x != w:
                rank = (0, b, r, s, a) if a in (0, b) else (1, a, b, r, s)
                found.append((rank, (coefficient_name(a, b), r, s, x, w)))
    bad += [v for _, v in sorted(found)]
    return IdentityReport(ok=not bad, violations=tuple(bad), checked=checked)


def verify_psd(cert: Certificate) -> exactq.PsdWitness:
    """Exact PSD check of Q by fraction-free integer LDL^T, one connected
    component at a time, with the decomposition re-multiplied in integers
    (`exactq.ldl_psd_check`). A component over the work budget
    `exactq.MAX_WORK` raises exactq.OverBudget, a ValueError, which `ssc
    verify` reports with exit 2 and certify records as an OVER_BUDGET rung."""
    return exactq.ldl_psd_check(cert.Q)


# --- certificate text format ---------------------------------------------
# line 1: "candidate <name>"; line 2: "bound p/q"; line 3: "k m dimQ", the
# named base's own; then one line "Q r s p/q" per nonzero entry of Q on or
# above the diagonal (0-based, r <= s) in increasing (r, s), then the
# "T r s p/q" lines of T likewise. Unlisted entries are zero and the lower
# triangle is the mirror, so Q and T read from a file are symmetric.

def format_certificate(cert: Certificate) -> str:
    lines = [f"candidate {cert.candidate}",
             f"bound {exactq.format_rational(cert.c)}",
             f"{cert.k} {cert.m} {len(cert.Q)}"]
    for tag, M in (("Q", cert.Q), ("T", cert.T)):
        nz = exactq.nonzeros(M)
        if any(nz[s].get(r) != x for r, row in enumerate(nz) for s, x in row.items()):
            raise ValueError(f"{tag} is not symmetric; the file holds only its upper triangle")
        lines += [f"{tag} {r} {s} {exactq.format_rational(x)}"
                  for r, row in enumerate(nz) for s, x in row.items() if s >= r]
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> Certificate:
    """Read the certificate format; any deviation raises ValueError naming
    the line. Line 3 must be the named base's, checked before Q and T are
    allocated. Entry lines must follow the order above, with indices in
    canonical decimal and nonzero values in the exactq.parse_rational
    grammar. An entry and its mirror are one object, as are equal values;
    every unlisted entry is the shared exactq._ZERO."""
    lines = exactq.numbered_lines(text)
    (n1, l1), (n2, l2), (n3, l3) = (lines + [(lines[-1][0] + 1 if lines else 1, "")] * 3)[:3]
    if not l1.startswith("candidate "):
        raise ValueError(f"line {n1}: expected 'candidate <name>'")
    name = l1[len("candidate "):].strip()
    if not l2.startswith("bound "):
        raise ValueError(f"line {n2}: expected 'bound p/q'")
    try:
        k, _ = base(name)
    except ValueError as e:
        raise ValueError(f"line {n1}: {e}")
    try:
        c = exactq.parse_rational(l2[len("bound "):])
    except ValueError as e:
        raise ValueError(f"line {n2}: {e}")
    m = k * (k - 1) // 2
    dim = (k + 1) * m
    if l3.split() != [str(k), str(m), str(dim)]:
        raise ValueError(f"line {n3}: expected '{k} {m} {dim}', the k m dimQ of base {name}")
    Q = [[_ZERO] * dim for _ in range(dim)]
    T = [[_ZERO] * m for _ in range(m)]
    # each matrix with its indices by their text; each value is parsed once
    mats = {tag: (M, {str(i): i for i in range(len(M))}) for tag, M in (("Q", Q), ("T", T))}
    values, last = {}, ("Q", -1, -1)
    for no, ln in lines[3:]:
        f = ln.split()
        if len(f) != 4 or f[0] not in mats:
            raise ValueError(f"line {no}: expected 'Q r s p/q' or 'T r s p/q'")
        tag, a, b, tok = f
        M, index = mats[tag]
        r, s = index.get(a), index.get(b)
        if r is None or s is None or r > s:
            raise ValueError(f"line {no}: {tag} {a[:20]} {b[:20]}: need 0 <= r <= s < {len(M)}")
        if (tag, r, s) <= last:
            raise ValueError(f"line {no}: {tag} {r} {s} comes after {' '.join(map(str, last))}; "
                             f"Q lines come first, each matrix in increasing (r, s)")
        x = values.get(tok)
        if x is None:
            try:
                x = values[tok] = exactq.parse_rational(tok)
            except ValueError as e:
                raise ValueError(f"line {no}: {e}")
        if not x:
            raise ValueError(f"line {no}: explicit zero; leave the entry out")
        M[r][s] = M[s][r] = x
        last = tag, r, s
    return Certificate(candidate=name, c=c, k=k, m=m,
                       Q=tuple(map(tuple, Q)), T=tuple(map(tuple, T)))
