"""Graphs with optional loops: spectral sums, blowups, the K(n,p,q) family,
and exhaustive extremal search over graphs on small orders.

Vertices are labeled 1..n. Edges are unordered pairs {i,j}; i = j is a loop
(adjacency diagonal 1). Only base graphs carry loops; blowups reject them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .check import wedge_pairs
from .exactq import parse_int

MAX = "MAX"
MIN_CONNECTED = "MIN_CONNECTED"
#: edge masks that search_extremal filters and eigensolves at once
SEARCH_BATCH = 4096


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

    def has_loops(self) -> bool:
        return any(i == j for i, j in self.edges)


def graph(n: int, edges=()) -> Graph:
    return Graph(n=n, edges=frozenset(tuple(e) for e in edges))


def complete_graph(n: int) -> Graph:
    return graph(n, itertools.combinations(range(1, n + 1), 2))


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
    dec = numerics.eigh(G.adjacency())
    w = dec.eigenvalues
    if G.n == 1:
        return SpectralSummary(w, float(w[0]), 0.0, float(w[0]),
                               lambda2_by_convention=True)
    return SpectralSummary(w, float(w[0]), float(w[1]), float(w[0] + w[1]))


def blowup(G: Graph, t: int) -> Graph:
    """Replace each vertex by t independent copies; copies inherit adjacency.

    Spectrum of the result is {t * lambda_i(G)} plus n(t-1) zeros.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if G.has_loops():
        raise ValueError("blowup is undefined for graphs with loops")
    edges = set()
    for i, j in G.edges:
        for a in range(t):
            for b in range(t):
                edges.add(((i - 1) * t + a + 1, (j - 1) * t + b + 1))
    return graph(G.n * t, edges)


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


def _degree_ordered(masks: np.ndarray, inc: list[int]) -> np.ndarray:
    """Which masks label their graph so that deg(1) >= deg(2) >= ... >= deg(n),
    given inc = _incidence(n)."""
    deg = np.stack([np.bitwise_count(masks & m) for m in inc], axis=1)
    return np.all(deg[:, :-1] >= deg[:, 1:], axis=1)


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

    MAX: maximize lambda1 + lambda2. MIN_CONNECTED: minimize it over
    connected graphs. Bit b of an edge mask is pair b in lexicographic
    order (1,2),(1,3),...; the scan walks every mask in increasing order,
    in batches of SEARCH_BATCH, but eigensolves only the labelings whose degrees
    do not increase, deg(1) >= deg(2) >= ... >= deg(n). Relabeling changes
    neither lambda1 + lambda2 nor connectivity, and sorting the vertices by
    degree gives every graph such a labeling, so the extremum over these
    labelings is the extremum over all graphs. Ties go to the first such
    mask in increasing order whose float lambda1 + lambda2 is largest
    (smallest when minimizing).
    """
    if not (2 <= n <= 8):
        raise ValueError("exhaustive search supports 2 <= n <= 8")
    if mode not in (MAX, MIN_CONNECTED):
        raise ValueError(f"unknown mode {mode!r}")
    total = 1 << (n * (n - 1) // 2)
    inc = _incidence(n)
    sign = 1.0 if mode == MAX else -1.0
    best_val, best_mask = -np.inf, -1
    for start in range(0, total, SEARCH_BATCH):
        masks = np.arange(start, min(start + SEARCH_BATCH, total), dtype=np.int64)
        masks = masks[_degree_ordered(masks, inc)]
        A = _adjacency_stack(n, masks)
        if mode == MIN_CONNECTED:
            keep = _connected_stack(A)
            masks, A = masks[keep], A[keep]
        if masks.size == 0:
            continue
        w = np.linalg.eigvalsh(A)
        sums = sign * (w[:, -1] + w[:, -2])
        # argmax keeps the first of equal values; batches fold in mask order
        i = int(np.argmax(sums))
        if sums[i] > best_val:
            best_val, best_mask = float(sums[i]), int(masks[i])
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
    lines = text.splitlines()
    idx = 0
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx >= len(lines):
        raise ValueError("line 1: missing header 'n m'")
    head = lines[idx].split()
    if len(head) != 2:
        raise ValueError(f"line {idx + 1}: expected 'n m', got {lines[idx].strip()!r}")
    try:
        n, m = parse_int(head[0]), parse_int(head[1])
    except ValueError:
        raise ValueError(f"line {idx + 1}: expected integers 'n m'")
    if n > MAX_FILE_ORDER:
        raise ValueError(f"line {idx + 1}: n = {n} is above the limit {MAX_FILE_ORDER}")
    edges = {}  # (min, max) -> line of first occurrence
    for ln_no in range(idx + 1, len(lines)):
        ln = lines[ln_no].strip()
        if not ln:
            continue
        toks = ln.split()
        if len(toks) != 2:
            raise ValueError(f"line {ln_no + 1}: expected 'i j', got {ln!r}")
        try:
            i, j = parse_int(toks[0]), parse_int(toks[1])
        except ValueError:
            raise ValueError(f"line {ln_no + 1}: expected integer endpoints")
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"line {ln_no + 1}: endpoint out of range 1..{n}")
        e = (min(i, j), max(i, j))
        if e in edges:
            raise ValueError(f"line {ln_no + 1}: edge {i} {j} repeats line {edges[e]}")
        edges[e] = ln_no + 1
    if len(edges) != m:
        raise ValueError(f"header says {m} edges, file has {len(edges)}")
    return graph(n, edges)


def format_graph(G: Graph) -> str:
    es = sorted(G.edges)
    lines = [f"{G.n} {len(es)}"]
    lines += [f"{i} {j}" for i, j in es]
    return "\n".join(lines) + "\n"
