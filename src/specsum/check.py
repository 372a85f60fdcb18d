"""The exact certificate checker: everything `ssc verify` runs.

It imports only the standard library and `exactq`, so a reader can audit
the trust anchor without numpy and start it without loading numpy. It
holds the certificate format, the base graphs a certificate may name, the
exact k-th additive compound and psi, the right-hand sides of the
coefficient equations, and the two exact checks: the polynomial identity
compared over Q, and PSD of Q by exact LDL^T (`exactq.ldl_psd_check`).
See the `certify` module docstring for the identity and its equations.

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

from . import exactq
from .exactq import _ZERO, QMatrix, _as_fraction


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
    rows = [[_as_fraction(x) for x in r] for r in M]
    index = {s: a for a, s in enumerate(itertools.combinations(range(1, n + 1), k))}
    out: QMatrix = [[_ZERO] * N for _ in range(N)]
    for x, row in enumerate(rows, 1):
        for y, v in enumerate(row, 1):
            if not v:
                continue
            lo, hi = min(x, y), max(x, y)
            others = [t for t in range(1, n + 1) if t != x and t != y]
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


def _support(M) -> list:
    """(row, col) of every nonzero entry of a square matrix, row-major."""
    return [(r, s) for r, row in enumerate(M) for s in exactq.nonzero_cols(row)]


def coefficient_rhs(k: int, edges, c: Fraction, psi=psi) -> dict:
    """Right-hand sides of the coefficient equations of c*I - psi(M*(x)) for
    the base graph on k vertices with these edges (loops included, each as
    (i, j) with i <= j): coefficient name -> {(r, s): nonzero value}.

    x_i^2 gets -A_ii psi(E_ii) and x_i x_j gets -A_ij psi(E_ij + E_ji); the
    constant gets c*I and x_i nothing. psi is called once per edge, on the
    exact matrix; a non-edge's right-hand side is empty.
    """
    m = k * (k - 1) // 2

    def edge_term(i, j) -> dict:
        if (i, j) not in edges:
            return {}
        E = [[_ZERO] * k for _ in range(k)]
        E[i - 1][j - 1] = E[j - 1][i - 1] = Fraction(-1)
        P = psi(E)
        return {(r, s): P[r][s] for r, s in _support(P)}

    rhs = {"1": {(r, r): c for r in range(m)} if c else {}}
    for i in range(1, k + 1):
        rhs[f"x_{i}"] = {}
        rhs[f"x_{i}^2"] = edge_term(i, i)
    for i, j in wedge_pairs(k):
        rhs[f"x_{i}*x_{j}"] = edge_term(i, j)
    return rhs


@dataclass(frozen=True)
class Certificate:
    candidate: str
    c: Fraction
    k: int
    m: int
    Q: tuple  # ((k+1)m)^2 Fractions, row tuples
    T: tuple


@dataclass(frozen=True)
class IdentityReport:
    ok: bool
    violations: tuple  # (coefficient, row, col, got, want), all of them
    checked: int  # entries compared explicitly: the union of supports


def verify_identity(cert: Certificate) -> IdentityReport:
    """Exact coefficientwise comparison of both sides of the identity.

    Expands V(x)^T Q V(x) + (1-|x|^2) T and c*I - psi(M*(x)) as quadratic
    matrix polynomials and compares the constant, x_i, x_i^2 and x_i x_j
    coefficients over the rationals. Also checks exact symmetry of Q and T.
    The right-hand sides are built from the named base at cert.c by
    `coefficient_rhs`.

    One pass collects the nonzeros of Q and T. Each equation, symmetry
    included, is compared on the union of the supports of its two sides:
    the nonzeros of the blocks of Q and T it reads and of its right-hand
    side. Off that union every term on both sides is exactly 0, so the
    check is complete; `checked` counts the entries on the unions.
    Every violation is returned, at most one per entry compared, in the
    order of a dense row-major scan.
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
    q_nz, t_nz = _support(Q), set(_support(T))
    bad = []
    checked = 0
    for name, M, nz in (("sym(Q)", Q, q_nz), ("sym(T)", T, t_nz)):
        keys = sorted({(min(r, s), max(r, s)) for r, s in nz if r != s})
        checked += len(keys)
        bad += [(name, r, s, M[r][s], M[s][r]) for r, s in keys if M[r][s] != M[s][r]]
    blk: dict = {}
    for t, u in q_nz:
        blk.setdefault((t // m, u // m), set()).add((t % m, u % m))

    def on(a, b) -> set:
        return blk.get((a, b), set())

    def check(name, keys, got) -> list:
        nonlocal checked
        want = rhs[name]
        keys = sorted(keys | want.keys())
        checked += len(keys)
        out = []
        for r, s in keys:
            g, w = got(r, s), want.get((r, s), _ZERO)
            if g != w:
                out.append((name, r, s, g, w))
        return out

    bad += check("1", on(0, 0) | t_nz, lambda r, s: Q[r][s] + T[r][s])
    for i in range(1, k + 1):
        o = i * m
        # a dense scan meets x_i and x_i^2 entry by entry
        bad += sorted(check(f"x_{i}", on(0, i) | on(i, 0),
                            lambda r, s: Q[r][o + s] + Q[o + r][s])
                      + check(f"x_{i}^2", on(i, i) | t_nz,
                              lambda r, s: Q[o + r][o + s] - T[r][s]),
                      key=lambda v: v[1:3])
    for i, j in wedge_pairs(k):
        oi, oj = i * m, j * m
        bad += check(f"x_{i}*x_{j}", on(i, j) | on(j, i),
                     lambda r, s: Q[oi + r][oj + s] + Q[oj + r][oi + s])
    return IdentityReport(ok=not bad, violations=tuple(bad), checked=checked)


def verify_psd(cert: Certificate) -> exactq.PsdWitness:
    """Exact PSD check of Q by fraction-free integer LDL^T, one connected
    component at a time, with the decomposition re-multiplied in integers
    (`exactq.ldl_psd_check`). A component over the work budget
    `exactq.MAX_WORK` raises ValueError, which `ssc verify` reports with
    exit 2."""
    return exactq.ldl_psd_check(cert.Q)


# --- certificate text format ---------------------------------------------
# line 1: "candidate <name>"; line 2: "bound p/q"; line 3: "k m dimQ";
# then dimQ rows of dimQ rationals (Q), then m rows of m rationals (T).

def format_certificate(cert: Certificate) -> str:
    def row_text(row) -> str:
        return " ".join([exactq.format_rational(x) if x else "0/1" for x in row])

    lines = [f"candidate {cert.candidate}",
             f"bound {exactq.format_rational(cert.c)}",
             f"{cert.k} {cert.m} {len(cert.Q)}"]
    lines += map(row_text, cert.Q)
    lines += map(row_text, cert.T)
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> Certificate:
    """Read the certificate format; any deviation raises ValueError naming
    the line. Each distinct matrix token is read by exactq.parse_rational
    once per call, and every zero is the shared exactq._ZERO."""
    lines = text.splitlines()
    if len(lines) < 3:
        raise ValueError("line 1: truncated certificate")
    name = lines[0][len("candidate "):].strip() if lines[0].startswith("candidate ") else ""
    if not name:
        raise ValueError("line 1: expected 'candidate <name>'")
    if not lines[1].startswith("bound "):
        raise ValueError("line 2: expected 'bound p/q'")
    try:
        c = exactq.parse_rational(lines[1][len("bound "):])
    except ValueError as e:
        raise ValueError(f"line 2: {e}")
    head = lines[2].split()
    if len(head) != 3:
        raise ValueError("line 3: expected 'k m dimQ'")
    try:
        k, m, dim = (exactq.parse_int(t) for t in head)
    except ValueError:
        raise ValueError("line 3: expected integers 'k m dimQ'")
    if dim != (k + 1) * m:
        raise ValueError(f"line 3: dimQ must be (k+1)*m = {(k + 1) * m}, got {dim}")
    body = [(no, ln) for no, ln in enumerate(lines[3:], start=4) if ln.strip()]
    if len(body) != dim + m:
        raise ValueError(f"expected {dim + m} matrix rows, got {len(body)}")
    values: dict = {}  # token -> value

    def parse_row(ln_no: int, ln: str, width: int):
        toks = ln.split()
        if len(toks) != width:
            raise ValueError(f"line {ln_no}: expected {width} entries, got {len(toks)}")
        for t in toks:
            if t not in values:
                try:
                    x = exactq.parse_rational(t)
                except ValueError as e:
                    raise ValueError(f"line {ln_no}: {e}")
                values[t] = x if x else _ZERO
        return tuple(map(values.__getitem__, toks))

    Q = tuple(parse_row(no, ln, dim) for no, ln in body[:dim])
    T = tuple(parse_row(no, ln, m) for no, ln in body[dim:])
    return Certificate(candidate=name, c=c, k=k, m=m, Q=Q, T=T)
