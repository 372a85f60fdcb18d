import functools
import itertools
import math
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsum import graphs
from oracles import (MAX_SUM, PATH4_SUM, K722_SUM, _connected, blowup,
                     brute_force_extremal, complete_graph, degree_ordered,
                     degree_ordered_masks, degree_ordered_search, path_spectrum)


def path(n):
    return graphs.graph(n, [(i, i + 1) for i in range(1, n)])


@functools.lru_cache(maxsize=None)
def degree_ordered_stream(n):
    """Every mask that graphs._degree_ordered_stacks(n) yields, in order."""
    return np.concatenate(list(graphs._degree_ordered_stacks(n)))


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
        assert (1, 1) in G.edges

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
        for n in (2, 3, 4, 5, 8):
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
        B = blowup(G, t)
        assert B.n == n * t
        w = graphs.spectral_sum(B).eigenvalues
        base = graphs.spectral_sum(G).eigenvalues
        want = np.sort(np.concatenate([t * base, np.zeros(n * (t - 1))]))[::-1]
        assert np.abs(np.sort(w) - np.sort(want)).max() < 1e-9

    def test_edge_structure(self):
        B = blowup(graphs.graph(2, [(1, 2)]), 2)
        # copies of adjacent vertices fully joined; copies of one vertex not
        assert B.n == 4
        assert len(B.edges) == 4

    def test_rejects_loops_and_bad_t(self):
        with pytest.raises(ValueError):
            blowup(graphs.graph(2, [(1, 1)]), 2)
        with pytest.raises(ValueError):
            blowup(graphs.graph(2), 0)


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
        assert graphs.knpq(4, 0, 0) == complete_graph(4)

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
        # K(6,2,2) has three degree-ordered labelings; the search must
        # return the first one that attains the largest sum
        n = 6
        masks = np.arange(1 << 15)
        masks = masks[degree_ordered(masks, n)]
        w = np.linalg.eigvalsh(graphs._adjacency_stack(n, masks))
        sums = w[:, -1] + w[:, -2]
        G, val = graphs.search_extremal(n, graphs.MAX)
        assert val == sums.max()
        assert G == graphs.mask_to_graph(n, int(masks[np.argmax(sums)]))

    def test_stacks_match_the_per_mask_filter(self):
        for n in range(2, 8):
            got = degree_ordered_stream(n)
            assert np.array_equal(got, degree_ordered_masks(n)), n
        assert degree_ordered_stream(6).size == 936
        assert degree_ordered_stream(7).size == 16758

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, (1 << 16) - 1))
    def test_stacks_match_the_per_mask_filter_at_n8(self, high):
        # the 4096 masks that share the high bits `high`, against the scan
        stream = degree_ordered_stream(8)
        masks = np.arange(high << 12, (high + 1) << 12)
        lo, hi = np.searchsorted(stream, [masks[0], masks[-1] + 1])
        assert np.array_equal(stream[lo:hi], masks[degree_ordered(masks, 8)])
        assert stream.size == 602544 and np.all(np.diff(stream) > 0)

    def test_search_matches_the_per_mask_search(self):
        # same graph, same float: the split table changes which masks are
        # stacked together, never which mask wins
        for n in range(2, 8):
            for mode in (graphs.MAX, graphs.MIN_CONNECTED):
                G, val = graphs.search_extremal(n, mode)
                want_val, want_mask = degree_ordered_search(
                    n, connected_only=mode == graphs.MIN_CONNECTED,
                    maximize=mode == graphs.MAX)
                assert val == want_val, (n, mode)
                assert G == graphs.mask_to_graph(n, want_mask), (n, mode)

    def test_stacks_and_tables_stay_bounded(self, monkeypatch):
        rows, table_bytes = [], []
        adjacency_stack, degree_steps = graphs._adjacency_stack, graphs._degree_steps

        def counted_stack(n, masks):
            rows.append(masks)
            return adjacency_stack(n, masks)

        def counted_steps(masks, inc):
            out = degree_steps(masks, inc)
            table_bytes.append(out.nbytes)
            return out

        monkeypatch.setattr(graphs, "_adjacency_stack", counted_stack)
        stream = degree_ordered_stream(7)
        for mode, sign in ((graphs.MAX, 1.0), (graphs.MIN_CONNECTED, -1.0)):
            rows.clear()
            _, val = graphs.search_extremal(7, mode)
            assert max(r.size for r in rows) <= graphs.SEARCH_BATCH
            # the bound prunes most labelings, and never one it cannot rule out
            built = np.concatenate(rows)
            assert built.size < stream.size // 4, mode
            bound = graphs._sum_bounds(7, stream, mode)
            reach = stream[bound + graphs.BOUND_SLACK >= sign * val]
            assert np.all(np.isin(reach, built)), mode
        monkeypatch.setattr(graphs, "_degree_steps", counted_steps)
        for n in range(2, 9):
            # the low-half table, then the thresholds of the first chunk of
            # high halves; no later chunk is larger
            table_bytes.clear()
            next(graphs._degree_ordered_stacks(n))
            assert len(table_bytes) == 2 and sum(table_bytes) < 200_000, n

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

    def test_n8_max_is_k822_and_min_connected_is_star(self):
        G, val = graphs.search_extremal(8, graphs.MAX)
        assert abs(val - 7.12310562561766) < 1e-12
        assert sorted(G.adjacency().sum(axis=1), reverse=True) == [7] * 4 + [5] * 4
        want = np.linalg.eigvalsh(graphs.knpq(8, 2, 2).adjacency())
        assert np.allclose(np.linalg.eigvalsh(G.adjacency()), want, rtol=0, atol=1e-12)
        G, val = graphs.search_extremal(8, graphs.MIN_CONNECTED)
        assert abs(val - math.sqrt(7)) < 1e-12
        assert sorted(G.adjacency().sum(axis=1), reverse=True) == [7] + [1] * 7

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(5, 8))
    def test_degree_filter_keeps_a_sorted_relabeling(self, seed, n):
        # relabel by non-increasing degree: the filter must keep the new
        # mask, and the spectral sum must not move
        G = random_graph(seed, n)
        pairs = list(itertools.combinations(range(1, n + 1), 2))

        def mask(H):
            return sum(1 << b for b, e in enumerate(pairs) if e in H.edges)

        deg = G.adjacency().sum(axis=1)
        order = sorted(range(1, n + 1), key=lambda v: -deg[v - 1])
        new = {v: k for k, v in enumerate(order, start=1)}
        H = graphs.graph(n, [(new[i], new[j]) for i, j in G.edges])
        stream = degree_ordered_stream(n)
        kept = [stream[min(np.searchsorted(stream, m), stream.size - 1)] == m
                for m in (mask(G), mask(H))]
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


class TestSumBounds:
    """_sum_bounds against eigvalsh: the MAX bound is at least
    lambda1 + lambda2, and the MIN_CONNECTED bound, on its negation, at
    most it, on every loop-free graph."""

    @staticmethod
    def assert_bounds_hold(G):
        pairs = itertools.combinations(range(1, G.n + 1), 2)
        mask = np.array([sum(1 << b for b, e in enumerate(pairs) if e in G.edges)])
        w = np.linalg.eigvalsh(G.adjacency())
        s = w[-1] + w[-2]
        upper = graphs._sum_bounds(G.n, mask, graphs.MAX)[0]
        lower = -graphs._sum_bounds(G.n, mask, graphs.MIN_CONNECTED)[0]
        assert lower - graphs.BOUND_SLACK <= s <= upper + graphs.BOUND_SLACK, G

    def test_named_graphs(self):
        # the complete graph, the star and the n = 2 graphs meet a bound
        for n in range(2, 10):
            named = [complete_graph(n), graphs.graph(n), path(n),
                     graphs.graph(n, [(1, v) for v in range(2, n + 1)])]
            named += [graphs.knpq(n, p, q) for p in range(n + 1)
                      for q in range(min(p, n - p) + 1)]
            for G in named:
                self.assert_bounds_hold(G)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 9).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, (1 << n * (n - 1) // 2) - 1))))
    def test_random_graphs(self, n_mask):
        self.assert_bounds_hold(graphs.mask_to_graph(*n_mask))


class TestSearchScript:
    SCRIPT = str(Path(__file__).resolve().parent.parent / "scripts" / "search_small_n.py")

    def run(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", [self.SCRIPT, "--max-n", "6"])
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_path(self.SCRIPT, run_name="__main__")
        return exit_info.value.code, capsys.readouterr().out

    def test_exits_0_when_the_maximizers_match(self, monkeypatch, capsys):
        code, out = self.run(monkeypatch, capsys)
        assert code == 0
        assert out.count(": True") == 2 and ": False" not in out

    def test_exits_1_when_a_maximizer_does_not_match(self, monkeypatch, capsys):
        monkeypatch.setattr(graphs, "conjecture_pq", lambda n: (1, 1))
        code, out = self.run(monkeypatch, capsys)
        assert code == 1
        assert "maximizer ~ K(6,1,1): False" in out


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
