"""Exact rational matrix arithmetic.

PSD verification by pivoted LDL^T elimination, bounded-denominator
rationalization of floats, exact quadratic-form evaluation, and the one
scan (nonzeros), reader (numbered_lines, read_rows) and writer (format_row)
of exact matrices. Matrices over Q are rows of Fractions. The PSD check
scales each connected component of Q's nonzero pattern to integers by the
lcm of its denominators and eliminates it fraction-free (Bareiss), so
every intermediate is an integer minor of the scaled component, whose
size the work budget MAX_WORK caps before any elimination starts.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction
from typing import NamedTuple, Sequence

QMatrix = list[list[Fraction]]

PSD = "PSD"
NOT_PSD = "NOT_PSD"


class PsdWitness(NamedTuple):
    """PSD: Q = sum_r d_r w_r w_r^T exactly with d_r > 0.

    NOT_PSD: counterexample z with z^T Q z = value, an exactly negative
    rational.
    """

    verdict: str
    decomposition: tuple[tuple[tuple[Fraction, ...], Fraction], ...] = ()
    counterexample: tuple[Fraction, ...] = ()
    value: Fraction | None = None


_ZERO = Fraction(0)


def nonzeros(M: Sequence[Sequence]) -> list[dict[int, Fraction]]:
    """The nonzero entries of a square matrix as Fractions, row by row:
    {col: value}. Entries that are the shared _ZERO are passed over by
    identity in C; only the others are converted and tested, since the
    truth test of a Fraction is Python code."""
    n = len(M)
    out = []
    for row in M:
        if len(row) != n:
            raise ValueError("matrix is not square")
        d = {}
        for j in itertools.compress(range(n), map(operator.is_not, row, itertools.repeat(_ZERO))):
            x = row[j]
            if type(x) is not Fraction:
                x = Fraction(x)
            if x:
                d[j] = x
        out.append(d)
    return out


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


def _components(adj: Sequence) -> list[list[int]]:
    """Connected components of a square matrix's nonzero pattern, from its
    nonzeros, each sorted, in the order of their least index."""
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


#: The published work budget of ldl_psd_check, per connected component:
#: the component's size times the bit length of its largest entry once it
#: is scaled to integers by the lcm of its denominators. By Hadamard's
#: bound every integer that the elimination of a component of size n with
#: b-bit entries forms has at most about n*(b + log2(n)/2) bits, so the
#: budget caps them all. The catalog bases' certificates, rounded at any
#: denominator up to 10^9, score at most 2,115 (H6).
MAX_WORK = 4096


def _scaled(nz: list[dict[int, Fraction]], comp: list[int]) -> tuple[int, list[list[int]]]:
    """(L, B): the principal submatrix of Q on comp as the integer matrix
    B = L * Q[comp, comp], with L the lcm of its denominators.

    Raises OverBudget when len(comp) times the bit length of max |B| is
    above MAX_WORK. Every nonzero |B_ij| is at least L over its own
    denominator, so max |B| >= L / (least denominator): the lcm is refused
    as soon as that lower bound is over budget, before unrelated
    denominators can grow it further.
    """
    n = len(comp)
    pos = {i: a for a, i in enumerate(comp)}
    ratios = [[(pos[j], *x.as_integer_ratio()) for j, x in nz[i].items()] for i in comp]
    dens = {q for row in ratios for _, _, q in row}
    least = min(dens, default=1).bit_length()
    L = 1
    for q in dens:
        L = math.lcm(L, q)
        if n * (L.bit_length() - least) > MAX_WORK:
            raise _over_budget(n)
    B = []
    for row in ratios:
        Ba = [0] * n
        for a, p, q in row:
            Ba[a] = p * (L // q)
        B.append(Ba)
    if n * max(map(abs, itertools.chain.from_iterable(B))).bit_length() > MAX_WORK:
        raise _over_budget(n)
    return L, B


class OverBudget(ValueError):
    """ldl_psd_check refuses a component over the work budget MAX_WORK."""


def _over_budget(n: int) -> OverBudget:
    return OverBudget(f"PSD check refused: a component of {n} coordinates is over the work "
                      f"budget (its size times the bit length of its largest entry over a "
                      f"common denominator is above {MAX_WORK})")


def _bareiss(B: list[list[int]]):
    """Fraction-free symmetric elimination with diagonal pivoting on an
    integer matrix B (Bareiss, Math. Comp. 22, 1968; see ldl_psd_check).

    Step k takes the largest remaining diagonal entry d_k as pivot and
    updates every remaining entry as S_ij <- (d_k S_ij - b_i b_j) / d_{k-1}
    (d_0 = 1), with b the pivot's row. Each S_ij is then a minor of B, so
    the division is exact, and S is d_k times the Schur complement of B:
    its pivots, ties and signs are those of rational elimination. Returns
    (pivot indices, pivot rows b, pivots d, None) when the residual hits
    exactly zero, else with a witness in residual coordinates as its last
    item: ((index, value), ...).
    """
    n = len(B)
    S = [row[:] for row in B]
    active = list(range(n))
    order: list[int] = []
    rows: list[list[int]] = []
    piv: list[int] = []
    prev = 1
    while active:
        p = max(active, key=lambda i: S[i][i])
        d = S[p][p]
        if d < 0:
            return order, rows, piv, ((p, 1),)
        if d == 0:
            # every remaining diagonal is <= 0, hence exactly 0 here
            for i in active:
                Si = S[i]
                for j in active:
                    if Si[j]:
                        # minor [[0, s],[s, S_jj]]: try z = e_i - sign(s) e_j
                        return order, rows, piv, ((i, 1), (j, -1 if Si[j] > 0 else 1))
            break  # residual is exactly zero
        b = [0] * n
        Sp = S[p]
        for i in active:
            b[i] = Sp[i]
        active.remove(p)
        for i in active:
            Si, bi = S[i], b[i]
            for j in active:
                Si[j] = (d * Si[j] - bi * b[j]) // prev
        order.append(p)
        rows.append(b)
        piv.append(d)
        prev = d
    return order, rows, piv, None


def _remultiply(B: list[list[int]], rows: list[list[int]], piv: list[int]) -> None:
    """Check in integers that the pivot rows and pivots of _bareiss rebuild
    B; ArithmeticError if not.

    Walks back from the zero residual: R_{k-1} = (b_k b_k^T + d_{k-1} R_k)
    / d_k, each division checked to be exact. Then R_{k-1} / d_{k-1} =
    R_k / d_k + b_k b_k^T / (d_{k-1} d_k), so R_0 = B says exactly that
    B = sum_k b_k b_k^T / (d_{k-1} d_k). Only the rows and columns where
    some b_k is nonzero are formed; everywhere else both sides are 0.
    """
    R = [[0] * len(B) for _ in B]
    live: set[int] = set()
    for k in range(len(rows) - 1, -1, -1):
        b, d, prev = rows[k], piv[k], piv[k - 1] if k else 1
        live.update(i for i, x in enumerate(b) if x)
        idx = sorted(live)
        for i in idx:
            Ri, bi = R[i], b[i]
            for j in idx:
                Ri[j], rem = divmod(bi * b[j] + prev * Ri[j], d)
                if rem:
                    raise ArithmeticError("internal error: decomposition does not re-multiply to Q")
    if R != B:
        raise ArithmeticError("internal error: decomposition does not re-multiply to Q")


def _pull_back(order: list[int], cols: list[list[Fraction]], entries, n: int) -> list[Fraction]:
    """The z with z^T Q z = y^T S y, for the residual S and the y with these
    (index, value) entries: z agrees with y on the active indices, and
    corrections on the eliminated ones kill every recorded column."""
    z = [_ZERO] * n
    for i, v in entries:
        z[i] = Fraction(v)
    for p, c in zip(reversed(order), reversed(cols)):
        z[p] -= sum((c[t] * z[t] for t in range(n) if z[t]), _ZERO)
    return z


def ldl_psd_check(Q_in: Sequence[Sequence]) -> PsdWitness:
    """Exact PSD check by symmetric elimination with diagonal pivoting, one
    connected component of the nonzero pattern at a time.

    Q is PSD iff each principal submatrix on a component is. Each one is
    scaled to the integer matrix B = L * Q (L the lcm of its denominators)
    and eliminated fraction-free, largest remaining diagonal first
    (_bareiss). Pivot k, with pivot row b, gives the column c = b / d_k
    (c[pivot] = 1) and the pivot d_k / (L d_{k-1}); their rank-one terms
    sum to Q. Columns are zero-extended to all of Q's indices. Accept PSD
    only when every residual hits exactly zero and the pivot rows
    re-multiply to B in integers (_remultiply).

    A negative remaining diagonal, or a zero diagonal with a nonzero entry
    in its row (indefinite 2x2 principal minor), yields a witness vector in
    residual coordinates that is pulled back through the recorded columns
    and zero-extended. Its quadratic form on Q must be negative, and is
    returned as the witness's value; it is formed by q_eval on the
    component's B and the witness over a common denominator, both integer,
    as the witness is zero off the component.

    Every component is scaled, and held to the work budget MAX_WORK, before
    any is eliminated; one over budget raises OverBudget, a ValueError.
    Converting Q and splitting it into components touch only nonzero
    entries.
    """
    nz = nonzeros(Q_in)
    bad = [(max(i, j), min(i, j)) for i, row in enumerate(nz) for j, x in row.items()
           if (y := nz[j].get(i, _ZERO)) is not x and y != x]
    if bad:
        raise ValueError("matrix is not symmetric at (%d,%d)" % min(bad))
    n = len(nz)
    comps = _components(nz)
    scaled = [_scaled(nz, comp) for comp in comps]
    decomp = []
    for comp, (L, B) in zip(comps, scaled):
        order, rows, piv, bad = _bareiss(B)
        cols = [[Fraction(x, d) if x else _ZERO for x in b] for b, d in zip(rows, piv)]
        if bad is not None:
            y = _pull_back(order, cols, bad, len(comp))
            den = math.lcm(*(x.denominator for x in y))
            form = q_eval(B, [x.numerator * (den // x.denominator) for x in y])
            if not form < 0:
                raise ArithmeticError("internal error: witness is not negative")
            z = [_ZERO] * n
            for i, yi in zip(comp, y):
                z[i] = yi
            return PsdWitness(verdict=NOT_PSD, counterexample=tuple(z),
                              value=form / (L * den * den))
        _remultiply(B, rows, piv)
        prev = 1
        for c, d in zip(cols, piv):
            full = [_ZERO] * n
            for i, ci in zip(comp, c):
                full[i] = ci
            decomp.append((tuple(full), Fraction(d, L * prev)))
            prev = d
    return PsdWitness(verdict=PSD, decomposition=tuple(decomp))


# --- rational rendering and the matrix file format -----------------------

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
    return f"{x.numerator}/{x.denominator}"


def format_row(row: Sequence) -> str:
    """A matrix row in the shared format: p/q tokens, one space apart."""
    return " ".join([format_rational(x) if x else "0/1" for x in row])


def numbered_lines(text: str) -> list[tuple[int, str]]:
    """(line number, stripped text) of each non-blank line, counting from 1;
    the text formats skip blank lines and name lines by these numbers."""
    return [(no, s) for no, ln in enumerate(text.splitlines(), 1) if (s := ln.strip())]


def read_rows(lines: Sequence[tuple[int, str]], width: int) -> list[tuple[Fraction, ...]]:
    """Rows of `width` entries in the parse_rational grammar, one per
    (line number, text) of numbered_lines. Each distinct token is parsed
    once per call and every zero is the shared _ZERO, so equal tokens give
    one object. A malformed row raises ValueError naming its line and, for
    a bad entry, the first one in the row."""
    values: dict[str, Fraction] = {}
    rows = []
    for no, ln in lines:
        toks = ln.split()
        if len(toks) != width:
            raise ValueError(f"line {no}: expected {width} entries, got {len(toks)}")
        if not values.keys() >= set(toks):  # a new token: read them in row order
            for t in toks:
                if t not in values:
                    try:
                        values[t] = parse_rational(t) or _ZERO
                    except ValueError as e:
                        raise ValueError(f"line {no}: {e}")
        row = operator.itemgetter(*toks)(values)  # one key gives a bare value
        rows.append(row if width > 1 else (row,))
    return rows


def read_matrix_q(text: str) -> QMatrix:
    """The matrix file format: the dimension k (parse_int), then k rows of
    k entries (read_rows); blank lines are skipped."""
    lines = numbered_lines(text)
    if not lines:
        raise ValueError("line 1: missing dimension")
    no, head = lines[0]
    try:
        k = parse_int(head)
    except ValueError:
        raise ValueError(f"line {no}: expected integer dimension")
    if k < 1:
        raise ValueError(f"line {no}: dimension must be >= 1")
    rows = read_rows(lines[1:k + 1], k)
    if len(lines) > k + 1:
        raise ValueError(f"line {lines[k + 1][0]}: more than {k} rows")
    if len(rows) != k:
        raise ValueError(f"expected {k} rows, got {len(rows)}")
    return [list(r) for r in rows]
