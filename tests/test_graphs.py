import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsum import graphs
from oracles import (MAX_SUM, PATH4_SUM, K722_SUM, _connected, brute_force_extremal,
                     path_spectrum)


def path(n):
    return graphs.graph(n, [(i, i + 1) for i in range(1, n)])


def random_graph(seed, n):
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if rng.random() < 0.5]
    return graphs.graph(n, edges)


class TestGraphBasics:
    def test_normalizes_edge_orientation(self):
        G = graphs.graph(3, [(2, 1), (3, 2)])
        assert (1, 2) in G.edges and (2, 3) in G.edges

    def test_adjacency_symmetric_with_loops(self):
        G = graphs.graph(2, [(1, 1), (1, 2)])
        A = G.adjacency()
        assert A.tolist() == [[1.0, 1.0], [1.0, 0.0]]
        assert G.has_loops()

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            graphs.graph(2, [(1, 3)])
        with pytest.raises(ValueError):
            graphs.graph(2, [(0, 1)])


class TestSpectralSum:
    def test_named_values(self):
        assert abs(graphs.spectral_sum(graphs.knpq(7, 2, 2)).spectral_sum - K722_SUM) < 1e-9
        assert abs(graphs.spectral_sum(path(4)).spectral_sum - PATH4_SUM) < 1e-12
        assert graphs.spectral_sum(graphs.graph(3)).spectral_sum == 0.0

    def test_path_matches_closed_form(self):
        for n in (2, 3, 5, 8):
            got = graphs.spectral_sum(path(n)).eigenvalues
            assert np.abs(got - path_spectrum(n)).max() < 1e-12

    def test_single_vertex_convention(self):
        s = graphs.spectral_sum(graphs.graph(1))
        assert s.spectral_sum == 0.0 and s.lambda2 == 0.0
        assert s.lambda2_by_convention

    def test_zero_vertices_rejected(self):
        with pytest.raises(ValueError):
            graphs.spectral_sum(graphs.Graph(n=0))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 8))
    def test_rayleigh_pair_bound(self, seed, n):
        # f'Af + g'Ag over orthonormal (f, g) never beats lambda1 + lambda2
        G = random_graph(seed, n)
        A = G.adjacency()
        s = graphs.spectral_sum(G)
        rng = np.random.default_rng(seed + 1)
        F, _ = np.linalg.qr(rng.standard_normal((n, 2)))
        f, g = F[:, 0], F[:, 1]
        assert f @ A @ f + g @ A @ g <= s.spectral_sum + 1e-9

    def test_bitwise_deterministic(self):
        G = graphs.knpq(7, 2, 2)
        a, b = graphs.spectral_sum(G), graphs.spectral_sum(G)
        assert a.spectral_sum == b.spectral_sum
        assert np.array_equal(a.eigenvalues, b.eigenvalues)


class TestBlowup:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 6), st.sampled_from([2, 3, 4]))
    def test_spectrum_scales_and_pads_zeros(self, seed, n, t):
        G = random_graph(seed, n)
        B = graphs.blowup(G, t)
        assert B.n == n * t
        w = graphs.spectral_sum(B).eigenvalues
        base = graphs.spectral_sum(G).eigenvalues
        want = np.sort(np.concatenate([t * base, np.zeros(n * (t - 1))]))[::-1]
        assert np.abs(np.sort(w) - np.sort(want)).max() < 1e-9

    def test_edge_structure(self):
        B = graphs.blowup(graphs.graph(2, [(1, 2)]), 2)
        # copies of adjacent vertices fully joined; copies of one vertex not
        assert B.n == 4
        assert len(B.edges) == 4

    def test_rejects_loops_and_bad_t(self):
        with pytest.raises(ValueError):
            graphs.blowup(graphs.graph(2, [(1, 1)]), 2)
        with pytest.raises(ValueError):
            graphs.blowup(graphs.graph(2), 0)


class TestKnpq:
    def test_structure(self):
        G = graphs.knpq(7, 2, 2)
        A = G.adjacency()
        degs = sorted(A.sum(axis=1), reverse=True)
        # 3 join vertices of degree 6; 4 part vertices of degree 4
        assert degs == [6, 6, 6, 4, 4, 4, 4]
        # the two parts are mutually non-adjacent
        assert A[0, 2] == 0 and A[1, 3] == 0

    def test_degenerate_parts_give_complete_graph(self):
        assert graphs.knpq(4, 0, 0) == graphs.complete_graph(4)

    def test_bowtie(self):
        # two triangles sharing the single join vertex
        G = graphs.knpq(5, 2, 2)
        assert sorted(G.adjacency().sum(axis=1)) == [2, 2, 2, 2, 4]
        assert len(G.edges) == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            graphs.knpq(4, 2, 3)  # p + q > n
        with pytest.raises(ValueError):
            graphs.knpq(5, 0, 2)  # p < q


class TestConjecturePq:
    def test_table_all_residues(self):
        # r = 0..6 at k = 1, then k = 2
        want = {7: (2, 2), 8: (2, 2), 9: (3, 2), 10: (3, 3), 11: (3, 3),
                12: (4, 3), 13: (4, 4),
                14: (4, 4), 15: (4, 4), 16: (5, 4), 17: (5, 5), 18: (5, 5),
                19: (6, 5), 20: (6, 6)}
        for n, pq in want.items():
            assert graphs.conjecture_pq(n) == pq, n

    def test_small_n(self):
        assert graphs.conjecture_pq(5) == (2, 1)
        assert graphs.conjecture_pq(6) == (2, 2)
        with pytest.raises(ValueError):
            graphs.conjecture_pq(4)


class TestSearchExtremal:
    def test_max_matches_brute_force(self):
        for n in range(2, 7):
            G, val = graphs.search_extremal(n, graphs.MAX)
            if n in MAX_SUM:
                assert abs(val - MAX_SUM[n]) < 1e-12
            want_val, _ = brute_force_extremal(n, connected_only=False, maximize=True)
            assert abs(val - want_val) < 1e-12
            assert abs(graphs.spectral_sum(G).spectral_sum - want_val) < 1e-12

    def test_min_connected_matches_brute_force(self):
        for n in range(2, 7):
            G, val = graphs.search_extremal(n, graphs.MIN_CONNECTED)
            want_val, _ = brute_force_extremal(n, connected_only=True, maximize=False)
            assert abs(val - want_val) < 1e-12
            assert abs(graphs.spectral_sum(G).spectral_sum - want_val) < 1e-12
            # result must itself be connected
            assert _connected(G.adjacency())

    def test_returned_graph_attains_value(self):
        G, val = graphs.search_extremal(5, graphs.MAX)
        assert abs(graphs.spectral_sum(G).spectral_sum - val) < 1e-12

    def test_repeat_calls_bit_identical(self):
        g1, v1 = graphs.search_extremal(6, graphs.MAX)
        g2, v2 = graphs.search_extremal(6, graphs.MAX)
        assert v1 == v2 and g1.edges == g2.edges

    def test_ties_go_to_the_first_degree_ordered_mask(self):
        # K(6,2,2) has three degree-ordered labelings; across batches the
        # search must return the first one that attains the largest sum
        n = 6
        masks = np.arange(1 << 15)
        masks = masks[graphs._degree_ordered(masks, graphs._incidence(n))]
        w = np.linalg.eigvalsh(graphs._adjacency_stack(n, masks))
        sums = w[:, -1] + w[:, -2]
        G, val = graphs.search_extremal(n, graphs.MAX)
        assert val == sums.max()
        assert G == graphs.mask_to_graph(n, int(masks[np.argmax(sums)]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 8))
    def test_connectivity_matches_bfs(self, seed, n):
        # the path 1-2-...-n puts vertex n at the largest distance, n - 1
        rng = np.random.default_rng(seed)
        A = np.zeros((8, n, n))
        A[0] = path(n).adjacency()
        for k in range(1, 8):
            U = np.triu(rng.random((n, n)) < k / 10, 1)
            A[k] = U + U.T
        got = graphs._connected_stack(A)
        assert got.tolist() == [_connected(a) for a in A]

    def test_n7_min_connected_is_star(self):
        G, val = graphs.search_extremal(7, graphs.MIN_CONNECTED)
        degs = sorted((int(d) for d in G.adjacency().sum(axis=1)), reverse=True)
        assert abs(val - math.sqrt(6)) < 1e-12
        assert degs == [6, 1, 1, 1, 1, 1, 1]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(5, 8))
    def test_degree_filter_keeps_a_sorted_relabeling(self, seed, n):
        # relabel by non-increasing degree: the filter must keep the new
        # mask, and the spectral sum must not move
        G = random_graph(seed, n)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        inc = graphs._incidence(n)

        def mask(H):
            return sum(1 << b for b, e in enumerate(pairs) if e in H.edges)

        deg = G.adjacency().sum(axis=1)
        order = sorted(range(1, n + 1), key=lambda v: -deg[v - 1])
        new = {v: k for k, v in enumerate(order, start=1)}
        H = graphs.graph(n, [(new[i], new[j]) for i, j in G.edges])
        kept = graphs._degree_ordered(np.array([mask(G), mask(H)]), inc)
        assert kept[0] == bool(np.all(np.diff(deg) <= 0))
        assert kept[1]
        assert abs(graphs.spectral_sum(H).spectral_sum
                   - graphs.spectral_sum(G).spectral_sum) < 1e-12

    def test_bounds_and_mode_validated(self):
        with pytest.raises(ValueError):
            graphs.search_extremal(1, graphs.MAX)
        with pytest.raises(ValueError):
            graphs.search_extremal(9, graphs.MAX)
        with pytest.raises(ValueError):
            graphs.search_extremal(4, "BOGUS")


class TestGraphIO:
    def test_round_trip(self):
        G = graphs.knpq(6, 2, 2)
        again = graphs.read_graph(graphs.format_graph(G))
        assert again == G

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 1"):
            graphs.read_graph("x y\n")
        with pytest.raises(ValueError, match="line 2"):
            graphs.read_graph("2 1\n1 5\n")
        with pytest.raises(ValueError):
            graphs.read_graph("2 2\n1 2\n")  # header promises 2 edges
        with pytest.raises(ValueError, match="line 4: edge 3 2 repeats line 2"):
            graphs.read_graph("3 3\n2 3\n1 1\n3 2\n")
        with pytest.raises(ValueError, match="line 4: edge 1 1 repeats line 2"):
            graphs.read_graph("2 2\n1 1\n\n1 1\n")
