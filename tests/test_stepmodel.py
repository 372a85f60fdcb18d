import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsum import graphs, numerics, stepmodel
from oracles import (P3_ALPHA, P3_BETA, P3_KAPPA, P3_MU, P3_SIGMA_STAR,
                     P3_SPECTRUM, P3_U_STAR, fd_ascend, halving_ascend,
                     top_two_sum)

CANDIDATE_NAMES = ("P3", "P4", "H5", "H6")


def model(name, u):
    return stepmodel.StepModel(stepmodel.candidate(name), np.asarray(u, dtype=float))


class TestCatalog:
    def test_all_candidates_fully_looped(self):
        for name, cand in stepmodel.CANDIDATES.items():
            G = cand.graph
            for v in range(1, G.n + 1):
                assert (v, v) in G.edges, (name, v)

    def test_edge_sets(self):
        def plain(cand):
            return {e for e in cand.graph.edges if e[0] != e[1]}

        assert plain(stepmodel.candidate("P3")) == {(1, 2), (2, 3)}
        assert plain(stepmodel.candidate("P4")) == {(1, 2), (2, 3), (3, 4)}
        assert plain(stepmodel.candidate("H5")) == {(1, 2), (1, 3), (2, 3),
                                                    (2, 4), (3, 4), (3, 5), (4, 5)}
        assert plain(stepmodel.candidate("H6")) == {(1, 2), (1, 3), (2, 3),
                                                    (2, 4), (3, 4), (3, 5),
                                                    (4, 5), (4, 6), (5, 6)}

    def test_h6_restricted_to_first_five_is_h5(self):
        h6 = {e for e in stepmodel.candidate("H6").graph.edges if max(e) <= 5}
        assert h6 == stepmodel.candidate("H5").graph.edges

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            stepmodel.candidate("P5")


class TestStepModelValidation:
    def test_accepts_simplex_point(self):
        m = model("P3", [0.5, 0.25, 0.25])
        assert m.candidate.name == "P3"

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            model("P3", [0.5, 0.5])  # wrong length
        with pytest.raises(ValueError):
            model("P3", [0.6, 0.6, -0.2])  # negative
        with pytest.raises(ValueError):
            model("P3", [0.5, 0.25, 0.125])  # sums to 7/8

    def test_rejects_non_finite_weights(self):
        for bad in ([np.nan, 0.5, 0.5], [0.5, np.inf, 0.5], [0.5, 0.5, -np.inf]):
            with pytest.raises(ValueError):
                model("P3", bad)


class TestWeightedMatrixAndSigma:
    def test_entries(self):
        m = model("P3", [0.25, 0.5, 0.25])
        M = stepmodel.weighted_matrix(m)
        s = math.sqrt(0.25 * 0.5)
        want = np.array([[0.25, s, 0.0], [s, 0.5, s], [0.0, s, 0.25]])
        assert np.abs(M - want).max() < 1e-15

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(stepmodel.CANDIDATES)), st.integers(0, 10 ** 6))
    def test_sigma_matches_direct_eigenvalues(self, name, seed):
        cand = stepmodel.candidate(name)
        u = np.random.default_rng(seed).dirichlet(np.ones(cand.k))
        m = stepmodel.StepModel(cand, u)
        assert abs(stepmodel.sigma(m) - top_two_sum(stepmodel.weighted_matrix(m))) < 1e-12

    def test_sigma_at_p3_extremal(self):
        m = model("P3", P3_U_STAR)
        assert abs(stepmodel.sigma(m) - P3_SIGMA_STAR) < 1e-12
        w = np.linalg.eigvalsh(stepmodel.weighted_matrix(m))[::-1]
        assert np.abs(w - np.array(P3_SPECTRUM)).max() < 1e-12


class TestSimplexGrid:
    def test_count_and_feasibility(self):
        g = stepmodel.simplex_grid(3, 14)
        assert g.shape == (15 * 16 // 2, 3)  # C(16, 2) compositions
        assert np.abs(g.sum(axis=1) - 1).max() < 1e-12
        assert g.min() >= 0

    def test_contains_p3_extremal(self):
        g = stepmodel.simplex_grid(3, 14)
        target = np.array([4, 6, 4]) / 14
        assert np.abs(g - target).sum(axis=1).min() < 1e-12


class TestMaximizeSigma:
    def test_p3_value_and_weights(self):
        u, val = stepmodel.maximize_sigma(stepmodel.candidate("P3"),
                                          restarts=50, seed=0)
        assert abs(val - P3_SIGMA_STAR) < 1e-9
        assert np.abs(u - np.array(P3_U_STAR)).max() < 1e-4

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_p3_exact_grid_point_wins_ulp_tie(self, seed):
        # (4, 6, 4)/14 = u* is on the grid and is the exact maximizer; no
        # Dirichlet probe comes within 8 ulps above it, so it is kept
        u, val = stepmodel.maximize_sigma(stepmodel.candidate("P3"),
                                          restarts=200, seed=seed)
        grid_u = np.array([4, 6, 4]) / 14
        assert np.array_equal(u, grid_u)
        assert val == stepmodel.sigma(model("P3", grid_u))

    def test_deterministic_under_seed(self):
        cand = stepmodel.candidate("P4")
        u1, v1 = stepmodel.maximize_sigma(cand, restarts=20, seed=3)
        u2, v2 = stepmodel.maximize_sigma(cand, restarts=20, seed=3)
        assert v1 == v2 and np.array_equal(u1, u2)

    def test_never_exceeds_ceiling(self):
        for name in ("P4", "H5"):
            _, val = stepmodel.maximize_sigma(stepmodel.candidate(name),
                                              restarts=20, seed=1)
            assert val <= P3_SIGMA_STAR + 1e-6

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name", CANDIDATE_NAMES)
    def test_sigma_gate(self, name, seed):
        # the benchmark's check: sigma* = 8/7 at 200 restarts
        _, val = stepmodel.maximize_sigma(stepmodel.candidate(name),
                                          restarts=200, seed=seed)
        assert abs(val - 8 / 7) <= 1e-9

    def test_probe_beats_grid_off_the_catalog(self):
        # loops on 1 and 2 only: the maximum lies off the 1/14 grid, and the
        # best of 200 probes beats the best grid point by about 3.7e-4
        cand = stepmodel.CandidateGraph(
            "off-grid", graphs.graph(3, [(1, 1), (2, 2), (1, 2), (2, 3)]))
        A = cand.graph.adjacency()
        grid = stepmodel.simplex_grid(3, 14)
        grid_best = stepmodel._sigma_batch(A, grid).max()
        assert abs(grid_best - 1.0662934) < 1e-7
        probes = numerics.project_simplex(
            np.random.default_rng(0).dirichlet(np.ones(3), size=200))
        probe_vals = stepmodel._sigma_batch(A, probes)
        best = probe_vals.argmax()
        assert probe_vals[best] - grid_best > 3e-4

        u, val = stepmodel.maximize_sigma(cand, restarts=200, seed=0)
        assert np.array_equal(u, probes[best])
        assert val == probe_vals[best]
        assert abs(val - stepmodel.sigma(stepmodel.StepModel(cand, u))) < 1e-12


def tie(val):
    """How far a probe must beat the grid point to replace it."""
    return 8 * np.finfo(float).eps * abs(val)


class TestStackedAscent:
    """maximize_sigma scores points instead of climbing; a gradient ascent
    from its own probes never ends above its answer beyond the tie rule."""

    @pytest.mark.parametrize("name", CANDIDATE_NAMES)
    def test_no_worse_than_scalar_oracle(self, name):
        # the oracle climbs from the same 200 Dirichlet draws that
        # maximize_sigma scores as probes at seed 7
        cand = stepmodel.candidate(name)
        A = cand.graph.adjacency()
        U0 = np.random.default_rng(7).dirichlet(np.ones(cand.k), size=200)
        rng = np.random.default_rng(1)
        oracle = np.array([fd_ascend(A, u0, rng, numerics.project_simplex)[1]
                           for u0 in U0])
        _, val = stepmodel.maximize_sigma(cand, restarts=200, seed=7)
        assert oracle.max() <= val + tie(val)
        assert val - oracle.max() < 1e-4  # the climbs reach the same top
        assert val <= 8 / 7 + 1e-12


def ascent_starts(cand, kind, B, seed):
    """B starts of one kind: Dirichlet points, points on simplex faces (some
    weights zero) or lambda2 = lambda3 kink points (a vertex of the simplex,
    or weight on one edge's two ends only, where M* has rank 1)."""
    rng = np.random.default_rng(seed)
    k = cand.k
    U = rng.dirichlet(np.ones(k), size=B)
    if kind == "faces":
        U[rng.random((B, k)) < 0.4] = 0.0
        U[np.arange(B), rng.integers(0, k, B)] += 0.1  # keep every row nonzero
        U /= U.sum(axis=1, keepdims=True)
    elif kind == "kinks":
        edges = [e for e in cand.graph.edges if e[0] != e[1]]
        U = np.zeros((B, k))
        for r in range(B):
            i, j = edges[rng.integers(len(edges))]
            a = rng.random() if r % 2 else 1.0
            U[r, i - 1], U[r, j - 1] = a, 1.0 - a
    return U


class TestLineSearch:
    @pytest.mark.parametrize("B", [1, 7, 60])
    @pytest.mark.parametrize("kind", ["dirichlet", "faces", "kinks"])
    @pytest.mark.parametrize("name", CANDIDATE_NAMES)
    def test_matches_halving_oracle(self, name, kind, B):
        # B climbs with an Armijo line search reach maximize_sigma's sigma
        # with B probes, but never beat it by more than the tie rule
        cand = stepmodel.candidate(name)
        A = cand.graph.adjacency()
        U0 = ascent_starts(cand, kind, B, seed=B)
        if kind == "kinks":
            w = np.linalg.eigvalsh(A * np.sqrt(U0[:, None, :] * U0[:, :, None]))
            assert np.all(w[:, -2] - w[:, -3] < 1e-9)
        _, vals = halving_ascend(A, U0, np.random.default_rng(5),
                                 numerics.project_simplex)
        _, val = stepmodel.maximize_sigma(cand, restarts=B, seed=B)
        assert vals.max() <= val + tie(val)
        assert val - vals.max() < 1e-4

    @pytest.mark.parametrize("restarts", [1, 40])
    @pytest.mark.parametrize("name", CANDIDATE_NAMES)
    def test_stacks_never_exceed_the_starts(self, monkeypatch, name, restarts):
        # exactly two stacked eigensolves: the 1/14 grid, then the probes
        sizes = []
        inner = stepmodel._sigma_batch

        def recording(A, U):
            sizes.append(U.shape[0])
            return inner(A, U)

        monkeypatch.setattr(stepmodel, "_sigma_batch", recording)
        cand = stepmodel.candidate(name)
        stepmodel.maximize_sigma(cand, restarts=restarts, seed=2)
        assert sizes == [stepmodel.simplex_grid(cand.k, 14).shape[0], restarts]


class TestStepEigs:
    def test_p3_extremal_values(self):
        se = stepmodel.step_eigs(model("P3", P3_U_STAR))
        assert abs(se.mu1 - P3_MU[0]) < 1e-12
        assert abs(se.mu2 - P3_MU[1]) < 1e-12
        assert np.abs(se.alpha - np.array(P3_ALPHA)).max() < 1e-12
        assert np.abs(se.beta - np.array(P3_BETA)).max() < 1e-12

    def test_unit_norm_identities(self):
        # sum u_i alpha_i^2 = 1 and sum u_i beta_i^2 = 1 on the support
        u = np.array([0.3, 0.3, 0.4])
        se = stepmodel.step_eigs(model("P3", u))
        assert abs(np.sum(u * se.alpha ** 2) - 1) < 1e-10
        assert abs(np.sum(u * se.beta ** 2) - 1) < 1e-10

    def test_sign_conventions(self):
        u = np.array([0.2, 0.5, 0.3])
        se = stepmodel.step_eigs(model("P3", u))
        assert np.sum(u * se.alpha) >= 0
        defined = [i for i in range(3) if not math.isnan(se.beta[i])]
        assert se.beta[defined[0]] >= se.beta[defined[-1]]

    def test_zero_blocks_give_nan_and_support(self):
        se = stepmodel.step_eigs(model("P4", [0.0, 2 / 7, 3 / 7, 2 / 7]))
        assert math.isnan(se.alpha[0]) and math.isnan(se.beta[0])
        assert se.support == (2, 3, 4)
        # restriction is the P3 extremal: same mu
        assert abs(se.mu1 - P3_MU[0]) < 1e-12
        assert abs(se.mu2 - P3_MU[1]) < 1e-12

    def test_requires_two_positive_blocks(self):
        with pytest.raises(ValueError):
            stepmodel.step_eigs(model("P3", [1.0, 0.0, 0.0]))


class TestEllipseResidual:
    def test_vanishes_at_extremal(self):
        r = stepmodel.ellipse_residual(model("P3", P3_U_STAR))
        assert np.nanmax(np.abs(r)) < 1e-10

    def test_nonzero_away_from_extremal(self):
        r = stepmodel.ellipse_residual(model("P3", [1 / 3, 1 / 3, 1 / 3]))
        assert np.nanmax(np.abs(r)) > 1e-3


class TestAdjacencyCriterion:
    def test_p3_extremal_kappa_table(self):
        checks = stepmodel.adjacency_criterion_check(model("P3", P3_U_STAR))
        got = {(c.i, c.j): c for c in checks}
        for (i, j), want in P3_KAPPA.items():
            assert abs(got[(i, j)].kappa - want) < 1e-9
            assert got[(i, j)].consistent
        assert got[(1, 2)].adjacent and not got[(1, 3)].adjacent

    def test_all_consistent_at_extremal(self):
        checks = stepmodel.adjacency_criterion_check(model("P3", P3_U_STAR))
        assert all(c.consistent for c in checks)

    def test_detects_violation(self):
        # P4 with weight drained from block 3: the non-edge pair (1,3)
        # turns strongly positive (kappa ~ 0.84), failing the criterion
        checks = stepmodel.adjacency_criterion_check(
            model("P4", [0.2, 0.3, 0.06, 0.44]), tol=1e-8)
        got = {(c.i, c.j): c for c in checks}
        assert got[(1, 3)].kappa > 0.5
        assert not got[(1, 3)].consistent


class TestTrueTwins:
    def test_knpq_parts_are_twin_classes(self):
        twins = stepmodel.true_twin_check(graphs.knpq(7, 2, 2))
        assert set(twins) == {(1, 2), (3, 4), (5, 6), (5, 7), (6, 7)}

    def test_path_has_none(self):
        assert stepmodel.true_twin_check(graphs.graph(4, [(1, 2), (2, 3), (3, 4)])) == []

    def test_complete_graph_all_pairs(self):
        twins = stepmodel.true_twin_check(graphs.complete_graph(3))
        assert set(twins) == {(1, 2), (1, 3), (2, 3)}


class TestInvariants:
    def test_induced_subgraph_monotonicity(self):
        # zero-padding embeds each candidate's models in the next, so the
        # optimal values must be nondecreasing along P3, P4, H5, H6
        vals = [stepmodel.maximize_sigma(stepmodel.candidate(n), restarts=60,
                                         seed=0)[1]
                for n in ("P3", "P4", "H5", "H6")]
        for lo, hi in zip(vals, vals[1:]):
            assert lo <= hi + 1e-6

    def test_automorphism_relabeling_preserves_spectrum(self):
        # block reversal is an automorphism of every candidate here
        rng = np.random.default_rng(5)
        for name in ("P3", "P4", "H6"):
            u = rng.dirichlet(np.ones(stepmodel.candidate(name).k))
            w = np.linalg.eigvalsh(stepmodel.weighted_matrix(model(name, u)))
            w_rev = np.linalg.eigvalsh(
                stepmodel.weighted_matrix(model(name, u[::-1])))
            assert np.max(np.abs(w - w_rev)) < 1e-12

    def test_random_simplex_points_stay_under_ceiling(self):
        rng = np.random.default_rng(6)
        for name in ("P3", "P4", "H5", "H6"):
            k = stepmodel.candidate(name).k
            for u in rng.dirichlet(np.ones(k), size=100):
                assert stepmodel.sigma(model(name, u)) <= 8 / 7 + 1e-6
