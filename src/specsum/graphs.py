"""Graphs with optional loops: spectral sums, the K(n,p,q) family, and
exhaustive extremal search over graphs on small orders.

Vertices are labeled 1..n. Edges are unordered pairs {i,j}; i = j is a loop
(adjacency diagonal 1). Only base graphs carry loops.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .check import wedge_pairs
from .exactq import numbered_lines, parse_int

MAX = "MAX"
MIN_CONNECTED = "MIN_CONNECTED"
#: the most edge masks that search_extremal eigensolves at once; 128 to
#: 512 ran equally fast at n = 6..8, and larger stacks pass the cutoff
SEARCH_BATCH = 256
#: bits in the low half of a mask that _degree_ordered_stacks tables
LOW_BITS = 12
#: added to a bound before search_extremal compares it with a float sum,
#: far above the rounding of either
BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("n must be >= 0")
        norm = set()
        for e in self.edges:
            i, j = e
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"edge {e} out of range 1..{self.n}")
            norm.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", frozenset(norm))

    def adjacency(self) -> np.ndarray:
        A = np.zeros((self.n, self.n))
        for i, j in self.edges:
            A[i - 1, j - 1] = 1.0
            A[j - 1, i - 1] = 1.0
        return A


def graph(n: int, edges=()) -> Graph:
    return Graph(n=n, edges=frozenset(tuple(e) for e in edges))


@dataclass(frozen=True)
class SpectralSummary:
    eigenvalues: np.ndarray
    lambda1: float
    lambda2: float
    spectral_sum: float
    lambda2_by_convention: bool = False  # True only for n = 1


def spectral_sum(G: Graph) -> SpectralSummary:
    """lambda1 + lambda2 of the adjacency matrix (loops contribute diagonal 1)."""
    if G.n == 0:
        raise ValueError("spectral sum undefined on the empty vertex set")
    w = np.linalg.eigh(G.adjacency()).eigenvalues
    w = w[np.argsort(-w, kind="stable")]
    if G.n == 1:
        return SpectralSummary(w, float(w[0]), 0.0, float(w[0]),
                               lambda2_by_convention=True)
    return SpectralSummary(w, float(w[0]), float(w[1]), float(w[0] + w[1]))


def knpq(n: int, p: int, q: int) -> Graph:
    """Join of K_{n-p-q} with the disjoint union K_p + K_q.

    Vertex split: A = 1..p, B = p+1..p+q, C = the rest; A, B, C internally
    complete, C joined to A and B, no A-B edges, no loops.
    """
    if not (n >= p >= q >= 0 and p + q <= n):
        raise ValueError(f"need n >= p >= q >= 0 and p+q <= n, got ({n},{p},{q})")
    a = list(range(1, p + 1))
    b = list(range(p + 1, p + q + 1))
    c = list(range(p + q + 1, n + 1))
    edges = set()
    for part in (a, b, c):
        edges.update(itertools.combinations(part, 2))
    for v in c:
        for w in a + b:
            edges.add((v, w))
    return graph(n, edges)


def conjecture_pq(n: int) -> tuple[int, int]:
    """The (p, q) split conjectured extremal for the spectral sum at order n.

    Writes n = 7k + r and returns:
      r in {0,1} -> (2k, 2k);      r = 2      -> (2k+1, 2k)
      r in {3,4} -> (2k+1, 2k+1);  r = 5      -> (2k+2, 2k+1)
      r = 6      -> (2k+2, 2k+2)
    """
    if n < 5:
        raise ValueError("defined for n >= 5")
    k, r = divmod(n, 7)
    if r in (0, 1):
        return (2 * k, 2 * k)
    if r == 2:
        return (2 * k + 1, 2 * k)
    if r in (3, 4):
        return (2 * k + 1, 2 * k + 1)
    if r == 5:
        return (2 * k + 2, 2 * k + 1)
    return (2 * k + 2, 2 * k + 2)


def mask_to_graph(n: int, mask: int) -> Graph:
    pairs = wedge_pairs(n)
    return graph(n, (pairs[b] for b in range(len(pairs)) if mask >> b & 1))


def _incidence(n: int) -> list[int]:
    """Per vertex, the edge mask of the pairs that contain it."""
    pairs = wedge_pairs(n)
    return [sum(1 << b for b, e in enumerate(pairs) if v in e)
            for v in range(1, n + 1)]


def _degree_steps(masks: np.ndarray, inc: list[int]) -> np.ndarray:
    """Row v - 1 holds deg(v) - deg(v + 1), v = 1..n-1, as int8, of each
    mask's graph, given inc = _incidence(n)."""
    deg = np.stack([np.bitwise_count(masks & m) for m in inc]).astype(np.int8)
    return deg[:-1] - deg[1:]


def _degree_ordered_stacks(n: int):
    """Yield, in increasing order, the edge masks on n vertices that label
    their graph so that deg(1) >= deg(2) >= ... >= deg(n), one stack per
    chunk of 2^LOW_BITS high halves.

    A mask is hi << L | lo, and each degree is the sum of the degrees that
    the low L bits and the high bits give, so the mask passes exactly when
    _degree_steps(lo) >= -_degree_steps(hi << L) in every row. One table
    holds the steps of all 2^L low halves; each high half's threshold picks
    its low halves from it, and high halves with equal thresholds share the
    pick. High halves in order, each with its low halves ascending, is
    increasing mask order.
    """
    inc = _incidence(n)
    pairs = n * (n - 1) // 2
    L = min(pairs, LOW_BITS)
    n_high = 1 << (pairs - L)
    table = _degree_steps(np.arange(1 << L, dtype=np.int64), inc)
    top = table.max(axis=1, keepdims=True)
    picks = {}  # threshold bytes -> passing low halves
    # thresholds of 2^L high halves at a time take no more room than the table
    for start in range(0, n_high, 1 << L):
        highs = np.arange(start, min(start + (1 << L), n_high), dtype=np.int64) << L
        need = -_degree_steps(highs, inc)
        stack = []
        for h in np.flatnonzero(np.all(need <= top, axis=0)):
            thr = need[:, h, None]
            key = thr.tobytes()
            lows = picks.get(key)
            if lows is None:
                lows = np.flatnonzero(np.all(table >= thr, axis=0))
                lows = picks[key] = lows.astype(np.uint16)
            stack.append(highs[h] | lows)
        if stack:
            yield np.concatenate(stack)


def _sum_bounds(n: int, masks: np.ndarray, mode: str) -> np.ndarray:
    """Per mask, the bound of search_extremal's docstring on
    sign * (lambda1 + lambda2) of its loop-free graph, from its edge count
    and degrees alone."""
    deg = np.stack([np.bitwise_count(masks & row) for row in _incidence(n)])
    m = np.bitwise_count(masks).astype(np.int64)
    sq = np.sum(deg.astype(np.int64) ** 2, axis=0)  # sum of d^2
    ell = np.sqrt(sq / n)
    if mode == MIN_CONNECTED:
        return np.where(2 * m == n * (n - 1), 1.0 - ell, -ell)
    far = np.sqrt(4 * m * (n - 2) / n)
    near = ((n - 2) * ell + np.sqrt((n - 2) * (2 * (n - 1) * m - sq))) / (n - 1)
    return np.where(sq <= m * (n - 2), far, near)


def _adjacency_stack(n: int, masks: np.ndarray) -> np.ndarray:
    iu, ju = np.triu_indices(n, 1)  # the same lexicographic order as wedge_pairs
    bits = (masks[:, None] >> np.arange(iu.size)) & 1
    A = np.zeros((masks.size, n, n))
    A[:, iu, ju] = bits
    A[:, ju, iu] = bits
    return A


def _connected_stack(A: np.ndarray) -> np.ndarray:
    # R holds walks of length <= 2^k after k squarings of I + A; every
    # vertex lies within n - 1 steps of vertex 1 exactly when G is connected
    n = A.shape[-1]
    R = A + np.eye(n)
    for _ in range((n - 2).bit_length()):
        R = np.minimum(R @ R, 1.0)
    return np.all(R[:, 0, :] > 0, axis=1)


def search_extremal(n: int, mode: str) -> tuple[Graph, float]:
    """Exhaustive extremal search over loop-free graphs on n vertices.

    MAX: maximize s = lambda1 + lambda2. MIN_CONNECTED: minimize it over
    connected graphs. Bit b of an edge mask is pair b in lexicographic
    order (1,2),(1,3),...; the search considers only the labelings whose
    degrees do not increase, deg(1) >= deg(2) >= ... >= deg(n), which a
    split table of low- and high-bit degrees picks without counting every
    mask's degrees (_degree_ordered_stacks). Relabeling changes neither s
    nor connectivity, and sorting the vertices by degree gives every graph
    such a labeling, so the extremum over these labelings is the extremum
    over all graphs.

    Each labeling gets a proven bound on sign * s (sign = 1 for MAX, -1
    for MIN_CONNECTED) from its edge count m and degrees d alone
    (_sum_bounds). With l = sqrt(sum d^2 / n), lambda1 >= l (Hofmeister,
    Math. Nachr. 139, 1988).
    - MAX: tr A = 0 and tr A^2 = 2m, so Cauchy-Schwarz on lambda3..lambdan,
      which sum to -s, gives s^2 <= (n - 2)(2m - lambda1^2 - lambda2^2).
      With lambda1 >= max(l, s/2), s is at most the largest root of the
      resulting quadratic: sqrt(4m(n - 2)/n) when sum d^2 <= m(n - 2),
      else ((n - 2) l + sqrt((n - 2)(2(n - 1)m - sum d^2)))/(n - 1).
    - MIN_CONNECTED: s >= l + lambda2. Interlacing on two non-adjacent
      vertices gives lambda2 >= 0 unless G is complete, where lambda2 = -1.
    The labelings are eigensolved in decreasing order of the bound, in
    stacks of at most SEARCH_BATCH, until the next bound plus BOUND_SLACK
    is below the best float sign * s found: no later labeling can reach it.
    Ties go to the first such mask in increasing order whose float s is
    largest (smallest when minimizing), as in a scan of every labeling.
    """
    if not (2 <= n <= 8):
        raise ValueError("exhaustive search supports 2 <= n <= 8")
    if mode not in (MAX, MIN_CONNECTED):
        raise ValueError(f"unknown mode {mode!r}")
    sign = 1.0 if mode == MAX else -1.0
    masks = np.concatenate(list(_degree_ordered_stacks(n)))
    bound = _sum_bounds(n, masks, mode)
    order = np.argsort(-bound)
    masks, bound = masks[order], bound[order]
    best_val, best_mask = -np.inf, -1
    for start in range(0, masks.size, SEARCH_BATCH):
        if bound[start] + BOUND_SLACK < best_val:
            break
        stack = masks[start:start + SEARCH_BATCH]
        A = _adjacency_stack(n, stack)
        if mode == MIN_CONNECTED:
            keep = _connected_stack(A)
            stack, A = stack[keep], A[keep]
        if stack.size == 0:
            continue
        w = np.linalg.eigvalsh(A)
        sums = sign * (w[:, -1] + w[:, -2])
        top = sums.max()
        mask = int(stack[sums == top].min())
        if top > best_val or (top == best_val and mask < best_mask):
            best_val, best_mask = float(top), mask
    if best_mask < 0:
        raise ValueError("no graph satisfied the filter")
    return mask_to_graph(n, best_mask), sign * best_val


# --- plain-text graph format: "n m" then m lines "i j" (i = j is a loop) --

#: the largest n that read_graph accepts: a graph's adjacency matrix is
#: dense, and `ssc spectrum` eigensolves it whole
MAX_FILE_ORDER = 1000


def read_graph(text: str) -> Graph:
    """Read the graph format; every integer is read by exactq.parse_int,
    and n is checked against MAX_FILE_ORDER before any edge is read. An
    edge given twice, in either orientation, is refused at its second line."""
    lines = numbered_lines(text)
    if not lines:
        raise ValueError("line 1: missing header 'n m'")
    no, ln = lines[0]
    head = ln.split()
    if len(head) != 2:
        raise ValueError(f"line {no}: expected 'n m', got {ln!r}")
    try:
        n, m = parse_int(head[0]), parse_int(head[1])
    except ValueError:
        raise ValueError(f"line {no}: expected integers 'n m'")
    if n > MAX_FILE_ORDER:
        raise ValueError(f"line {no}: n = {n} is above the limit {MAX_FILE_ORDER}")
    edges = {}  # (min, max) -> line of first occurrence
    for no, ln in lines[1:]:
        toks = ln.split()
        if len(toks) != 2:
            raise ValueError(f"line {no}: expected 'i j', got {ln!r}")
        try:
            i, j = parse_int(toks[0]), parse_int(toks[1])
        except ValueError:
            raise ValueError(f"line {no}: expected integer endpoints")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"line {no}: endpoint out of range 1..{n}")
        e = (min(i, j), max(i, j))
        if e in edges:
            raise ValueError(f"line {no}: edge {i} {j} repeats line {edges[e]}")
        edges[e] = no
    if len(edges) != m:
        raise ValueError(f"header says {m} edges, file has {len(edges)}")
    return graph(n, edges)


def format_graph(G: Graph) -> str:
    es = sorted(G.edges)
    lines = [f"{G.n} {len(es)}"]
    lines += [f"{i} {j}" for i, j in es]
    return "\n".join(lines) + "\n"
