"""Exact rational matrix arithmetic.

PSD verification by pivoted LDL^T elimination over Fraction, bounded-
denominator rationalization of floats, and exact quadratic-form evaluation.
Matrices over Q are plain lists of lists of Fraction; Fraction keeps every
value in lowest terms after each operation, which is the growth control.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

QMatrix = list[list[Fraction]]

PSD = "PSD"
NOT_PSD = "NOT_PSD"


@dataclass(frozen=True)
class PsdWitness:
    """PSD: Q = sum_r d_r w_r w_r^T exactly with d_r > 0.

    NOT_PSD: counterexample z with z^T Q z = value, an exactly negative
    rational.
    """

    verdict: str
    decomposition: tuple[tuple[tuple[Fraction, ...], Fraction], ...] = ()
    counterexample: tuple[Fraction, ...] = ()
    value: Fraction | None = None


_ZERO = Fraction(0)


def _as_fraction(x) -> Fraction:
    x = x if type(x) is Fraction else Fraction(x)
    return x if x else _ZERO


def nonzero_cols(row: Sequence) -> list[int]:
    """Indices of the nonzero entries of a row. Entries that are the shared
    _ZERO are passed over by identity in C; only the others are tested,
    since the truth test of a Fraction is Python code."""
    maybe = itertools.compress(range(len(row)),
                               map(operator.is_not, row, itertools.repeat(_ZERO)))
    return [j for j in maybe if row[j]]


def _nonzeros(rows: Sequence[Sequence]) -> list[dict[int, Fraction]]:
    """The nonzero entries of a square symmetric matrix as Fractions, row by
    row: {col: value}. Only these are converted and compared for symmetry."""
    n = len(rows)
    nz = []
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix is not square")
        out = {}
        for j in nonzero_cols(row):
            x = _as_fraction(row[j])
            if x:
                out[j] = x
        nz.append(out)
    bad = [(max(i, j), min(i, j)) for i, row in enumerate(nz) for j, x in row.items()
           if (y := nz[j].get(i, _ZERO)) is not x and y != x]
    if bad:
        raise ValueError("matrix is not symmetric at (%d,%d)" % min(bad))
    return nz


def q_eval(Q: Sequence[Sequence[Fraction]], z: Sequence[Fraction]) -> Fraction:
    """z^T Q z, exact."""
    n = len(Q)
    if len(z) != n or any(len(row) != n for row in Q):
        raise ValueError(f"dimension mismatch: matrix {len(Q)}, vector {len(z)}")
    total = Fraction(0)
    for i in range(n):
        zi = z[i]
        if zi == 0:
            continue
        row = Q[i]
        total += zi * sum((row[j] * z[j] for j in range(n) if z[j] != 0), Fraction(0))
    return total


def rational_approx(x: float, max_den: int) -> Fraction:
    """Best rational approximation to x with denominator <= max_den."""
    if max_den < 1:
        raise ValueError("max_den must be >= 1")
    x = float(x)
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("x must be finite")
    return Fraction(x).limit_denominator(max_den)


def components(Q: Sequence[Sequence]) -> list[list[int]]:
    """Connected components of the nonzero pattern of a square matrix, each
    sorted, in the order of their least index. Q is the direct sum of its
    principal submatrices on them (up to a permutation)."""
    return _components([nonzero_cols(row) for row in Q])


def _components(adj: Sequence) -> list[list[int]]:
    """components, from the columns of the nonzero entries of each row."""
    seen = [False] * len(adj)
    out = []
    for root in range(len(adj)):
        if seen[root]:
            continue
        seen[root] = True
        comp, stack = [root], [root]
        while stack:
            for j in adj[stack.pop()]:
                if not seen[j]:
                    seen[j] = True
                    comp.append(j)
                    stack.append(j)
        out.append(sorted(comp))
    return out


def _eliminate(Q: QMatrix):
    """Symmetric elimination with diagonal pivoting on a dense Q (see
    ldl_psd_check). Returns (columns, pivots, None) when the residual hits
    exactly zero, else (columns, pivots, z) with z^T Q z < 0 expected."""
    n = len(Q)
    S = [row[:] for row in Q]
    active = list(range(n))
    piv_cols: list[list[Fraction]] = []
    piv_vals: list[Fraction] = []
    piv_idx: list[int] = []

    def pull_back(y: list[Fraction]) -> list[Fraction]:
        # find z with z^T Q z = y^T S y: z agrees with y on active indices,
        # corrections on eliminated ones kill every recorded column.
        z = y[:]
        for r in range(len(piv_cols) - 1, -1, -1):
            c = piv_cols[r]
            dot = sum((c[t] * z[t] for t in range(n) if z[t] != 0), Fraction(0))
            z[piv_idx[r]] -= dot
        return z

    def unit(*entries) -> list[Fraction]:
        y = [Fraction(0)] * n
        for i, v in entries:
            y[i] = Fraction(v)
        return pull_back(y)

    while active:
        p = max(active, key=lambda i: S[i][i])
        d = S[p][p]
        if d < 0:
            return piv_cols, piv_vals, unit((p, 1))
        if d == 0:
            # every remaining diagonal is <= 0, hence exactly 0 here
            for i in active:
                if S[i][i] < 0:
                    return piv_cols, piv_vals, unit((i, 1))
                for j in active:
                    if S[i][j] != 0:
                        # minor [[0, s],[s, S_jj]]: try z = e_i - sign(s) e_j
                        return piv_cols, piv_vals, unit((i, 1), (j, -1 if S[i][j] > 0 else 1))
            break  # residual is exactly zero
        col = [Fraction(0)] * n
        for i in active:
            col[i] = S[i][p] / d
        for i in active:
            ci = col[i]
            if ci == 0:
                continue
            Si = S[i]
            for j in active:
                if col[j] != 0:
                    Si[j] -= d * ci * col[j]
        piv_cols.append(col)
        piv_vals.append(d)
        piv_idx.append(p)
        active.remove(p)
    return piv_cols, piv_vals, None


def ldl_psd_check(Q_in: Sequence[Sequence]) -> PsdWitness:
    """Exact PSD check by symmetric elimination with diagonal pivoting, one
    connected component of the nonzero pattern at a time.

    Q is PSD iff each principal submatrix on a component is. Within one,
    pivot = largest remaining diagonal entry. Each positive pivot d with
    column c (c[pivot] = 1) contributes a rank-one term d*c*c^T that is
    subtracted from the residual. Columns are zero-extended to all of Q's
    indices. Accept PSD only when every residual hits exactly zero and the
    accumulated decomposition re-multiplies to Q.

    A negative remaining diagonal, or a zero diagonal with a nonzero entry
    in its row (indefinite 2x2 principal minor), yields a witness vector in
    residual coordinates that is pulled back through the recorded columns
    and zero-extended; its quadratic form on Q must be negative, and is
    returned as the witness's value. It is evaluated on the component's
    submatrix, as the witness is zero off the component.

    Converting Q, splitting it into components and re-multiplying the
    decomposition touch only nonzero entries. The re-multiplication is
    compared with Q on the union of the two supports; off it both sides
    are exactly 0, so every entry of Q is compared.
    """
    nz = _nonzeros(Q_in)
    n = len(nz)
    decomp = []
    R = [{} for _ in range(n)]  # the re-multiplied decomposition, as nz
    for comp in _components(nz):
        sub = [[nz[i].get(j, _ZERO) for j in comp] for i in comp]
        cols, vals, y = _eliminate(sub)
        if y is not None:
            z = [_ZERO] * n
            for i, yi in zip(comp, y):
                z[i] = yi
            value = q_eval(sub, y)  # z is zero off the component
            if not value < 0:
                raise ArithmeticError("internal error: witness is not negative")
            return PsdWitness(verdict=NOT_PSD, counterexample=tuple(z), value=value)
        for c, d in zip(cols, vals):
            support = [(i, ci) for i, ci in zip(comp, c) if ci]
            full = [_ZERO] * n
            for i, ci in support:
                full[i] = ci
                dci, Ri = d * ci, R[i]
                for j, cj in support:
                    Ri[j] = Ri.get(j, _ZERO) + dci * cj
            decomp.append((full, d))
    if any(Ri.get(j, _ZERO) != Qi.get(j, _ZERO)
           for Ri, Qi in zip(R, nz) for j in Ri.keys() | Qi.keys()):
        raise ArithmeticError("internal error: decomposition does not re-multiply to Q")
    return PsdWitness(verdict=PSD, decomposition=tuple((tuple(c), d) for c, d in decomp))


# --- rational rendering and the shared matrix format ---------------------

# One strict ASCII grammar (see parse_rational) rather than Fraction(str),
# whose accepted forms grow with the interpreter: since 3.11 it takes "1_0"
# and non-ASCII digits. MAX_LEN stays below 640, the least limit that
# sys.set_int_max_str_digits accepts, so int() never refuses a group;
# MAX_EXPONENT bounds the power of ten a token can demand.
MAX_LEN = 500
MAX_EXPONENT = 500

_RATIONAL = re.compile(
    r"([+-]?)(?:([0-9]+)/([0-9]+)"
    r"|(?=\.?[0-9])([0-9]*)(?:\.([0-9]*))?(?:[eE]([+-]?[0-9]+))?)")
_INT = re.compile(r"[0-9]+")


def parse_int(tok: str) -> int:
    """Parse a header integer (a dimension or a size): `[0-9]+`, ASCII
    digits only, at most MAX_LEN characters after stripping outer
    whitespace. Anything else raises ValueError."""
    tok = tok.strip()
    if len(tok) > MAX_LEN or _INT.fullmatch(tok) is None:
        raise ValueError(f"bad integer {tok[:20]!r}")
    return int(tok)


def parse_rational(tok: str) -> Fraction:
    r"""Parse 'p/q', an integer or a plain decimal literal, exactly.

    Accepted (after stripping outer whitespace): `[+-]?[0-9]+(/[0-9]+)?` and
    `[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?`, ASCII digits only;
    no underscores, no inner whitespace. A token has at most MAX_LEN
    characters and an exponent of absolute value at most MAX_EXPONENT.
    Anything else, and a zero denominator, raises ValueError.
    """
    tok = tok.strip()
    if len(tok) > MAX_LEN:
        raise ValueError(f"bad rational {tok[:20]!r}...: longer than {MAX_LEN} characters")
    m = _RATIONAL.fullmatch(tok)
    if m is None:
        raise ValueError(f"bad rational {tok!r}")
    sign, num, den, whole, frac, exp = m.groups()
    if num is not None:
        if int(den) == 0:
            raise ValueError(f"bad rational {tok!r}: zero denominator")
        return Fraction(int(sign + num), int(den))
    e = int(exp or 0)
    if abs(e) > MAX_EXPONENT:
        raise ValueError(f"bad rational {tok!r}: exponent beyond {MAX_EXPONENT} in absolute value")
    frac = frac or ""
    e -= len(frac)
    mant = int(sign + whole + frac)
    return Fraction(mant * 10 ** e) if e >= 0 else Fraction(mant, 10 ** -e)


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def read_matrix_q(text: str) -> QMatrix:
    """The matrix file format: the dimension k (parse_int), then k rows of
    k entries in the parse_rational grammar; blank lines are skipped."""
    lines = text.splitlines()
    idx = 0
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx >= len(lines):
        raise ValueError("line 1: missing dimension")
    try:
        k = parse_int(lines[idx])
    except ValueError:
        raise ValueError(f"line {idx + 1}: expected integer dimension")
    if k < 1:
        raise ValueError(f"line {idx + 1}: dimension must be >= 1")
    rows: QMatrix = []
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
            rows.append([parse_rational(t) for t in toks])
        except ValueError as e:
            raise ValueError(f"line {ln_no + 1}: {e}")
    if len(rows) != k:
        raise ValueError(f"expected {k} rows, got {len(rows)}")
    return rows
