"""Exhaustive spectral-sum extremes over all graphs, n = 2..7.

Run:  python scripts/search_small_n.py [--max-n N]

For each n this reports the maximum of lambda1 + lambda2 against the 8n/7
ceiling, compares the maximizer to the conjectured extremal family
K(n,p,q) (join of a clique with two cliques) by degree sequence and
spectrum, and reports the minimum over connected graphs next to it. Each
search walks all 2^C(n,2) edge masks but eigensolves only the labelings
whose degrees do not increase (graphs.search_extremal); n = 7 takes about
0.2 s of CPU per mode, and n = 8 (2^28 masks) about 25 s per mode.
"""

import argparse
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
        print(line)
        print(f"      edges {_edges(G)}")
        assert val <= 8 * n / 7 + 1e-12

        t0 = time.perf_counter()
        H, low = graphs.search_extremal(n, graphs.MIN_CONNECTED)
        dt = time.perf_counter() - t0
        print(f"      connected min lambda1+lambda2 = {low:.9f}"
              f"   degrees {_degrees(H)}   [{dt:.2f}s]")
        print(f"      edges {_edges(H)}")


if __name__ == "__main__":
    main()
