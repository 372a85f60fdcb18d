"""Exhaustive spectral-sum extremes over all graphs, n = 2..N (N = 7 by
default, at most 8).

Run:  python scripts/search_small_n.py [--max-n N]

For each n this reports the maximum of lambda1 + lambda2 against the 8n/7
ceiling, compares the maximizer to the conjectured extremal family
K(n,p,q) (join of a clique with two cliques) by degree sequence and
spectrum, and reports the minimum over connected graphs next to it. Each
search takes only the labelings whose degrees do not increase, which a
split table of low- and high-bit degrees picks out of the 2^C(n,2) edge
masks, and eigensolves only those that a bound from their degrees cannot
rule out (graphs.search_extremal). n = 7 takes about 0.01 s of CPU per
mode, and n = 8 (2^28 masks) about 0.32 s (MAX) and 0.30 s
(MIN_CONNECTED): medians of 5, one BLAS thread on an x86-64 host,
Python 3.11, numpy 2.4.

Exits 1 if a maximum exceeds 8n/7 or, for n >= 5, the maximizer does not
match K(n,p,q).
"""

import argparse
import sys
import time

import numpy as np

from specsum import graphs


def _degrees(G) -> list[int]:
    return sorted((int(x) for x in G.adjacency().sum(axis=1)), reverse=True)


def _edges(G) -> str:
    return " ".join(f"{a}-{b}" for a, b in sorted(G.edges)) or "none"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-n", type=int, default=7)
    args = ap.parse_args()

    failed = False
    for n in range(2, args.max_n + 1):
        t0 = time.perf_counter()
        G, val = graphs.search_extremal(n, graphs.MAX)
        dt = time.perf_counter() - t0
        deg = _degrees(G)
        line = (f"n={n}: max lambda1+lambda2 = {val:.9f}"
                f"   8n/7 = {8 * n / 7:.9f}   degrees {deg}   [{dt:.2f}s]")
        if n >= 5:
            p, q = graphs.conjecture_pq(n)
            K = graphs.knpq(n, p, q)
            gap = float(np.max(np.abs(
                np.linalg.eigvalsh(G.adjacency()) - np.linalg.eigvalsh(K.adjacency()))))
            match = deg == _degrees(K) and gap < 1e-8
            line += f"   maximizer ~ K({n},{p},{q}): {match}"
            failed |= not match
        print(line)
        print(f"      edges {_edges(G)}")
        if val > 8 * n / 7 + 1e-12:
            print(f"      FAIL: the maximum exceeds 8n/7 = {8 * n / 7:.9f}")
            failed = True

        t0 = time.perf_counter()
        H, low = graphs.search_extremal(n, graphs.MIN_CONNECTED)
        dt = time.perf_counter() - t0
        print(f"      connected min lambda1+lambda2 = {low:.9f}"
              f"   degrees {_degrees(H)}   [{dt:.2f}s]")
        print(f"      edges {_edges(H)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
