import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsum import check, compound
from oracles import (additive_compound_fd, additive_compound_pairs, pair_sums, psi_kron,
                     rational_matrix, wedge_basis)


def sym(seed, n):
    A = np.random.default_rng(seed).standard_normal((n, n))
    return (A + A.T) / 2


def exact(M):
    """A float matrix read exactly, entry by entry, as Fractions."""
    return [[Fraction(x) for x in row] for row in np.asarray(M).tolist()]


def compound_f(M, k):
    """The exact k-th compound of a float matrix, rounded to floats once."""
    return np.array(check.additive_compound(exact(M), k), dtype=float)


class TestWedgeBasis:
    def test_pairs_are_lexicographic(self):
        assert check.wedge_pairs(4) == [(1, 2), (1, 3), (1, 4),
                                        (2, 3), (2, 4), (3, 4)]

    def test_columns_orthonormal_and_antisymmetric(self):
        # the oracle's basis, which psi_kron projects onto
        P = wedge_basis(4)
        assert P.shape == (16, 6)
        assert np.abs(P.T @ P - np.eye(6)).max() < 1e-14
        # each column lives in the antisymmetric subspace: S vec = -vec
        # under the swap (i*n+j) <-> (j*n+i)
        S = np.zeros((16, 16))
        for i in range(4):
            for j in range(4):
                S[i * 4 + j, j * 4 + i] = 1.0
        assert np.abs(S @ P + P).max() < 1e-14

    def test_too_small(self):
        with pytest.raises(ValueError):
            wedge_basis(1)


class TestPsi:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 10 ** 6))
    def test_spectrum_is_pairwise_sums(self, n, seed):
        M = sym(seed, n)
        w = np.sort(np.linalg.eigvalsh(compound.psi(M)))[::-1]
        assert np.abs(w - pair_sums(np.linalg.eigvalsh(M))).max() < 1e-8

    def test_identity_maps_to_twice_identity(self):
        m = 6 * 5 // 2
        assert np.abs(compound.psi(np.eye(6)) - 2 * np.eye(m)).max() < 1e-14

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 10 ** 6))
    def test_exact_path_matches_float_path(self, n, seed):
        # both paths agree with each other and with the Kronecker definition
        Mq = rational_matrix(np.random.default_rng(seed), n)
        Mf = np.array([[float(x) for x in row] for row in Mq])
        exact = compound.psi(Mq)
        flt = compound.psi(Mf)
        kron = psi_kron(Mf)
        m = n * (n - 1) // 2
        for r in range(m):
            for s in range(m):
                assert abs(float(exact[r][s]) - flt[r, s]) < 1e-12
                assert abs(flt[r, s] - kron[r, s]) < 1e-12

    def test_defining_projection_formula(self):
        # psi equals P^T (M (x) I + I (x) M) P, the oracle's Kronecker route
        M = sym(11, 5)
        assert np.abs(compound.psi(M) - psi_kron(M)).max() < 1e-12

    def test_entry_formula_exact_on_unit_matrices(self):
        # psi(E_ab) = 1/2 P0^T (E_ab (x) I + I (x) E_ab) P0 exactly, where P0
        # has the column e_i (x) e_j - e_j (x) e_i for each wedge pair; psi is
        # linear, so this pins it on every matrix, symmetric or not
        n = 4

        def mm(X, Y):
            return [[sum(x * y for x, y in zip(row, col)) for col in zip(*Y)] for row in X]

        P0 = [[(r == i * n + j) - (r == j * n + i) for i, j in itertools.combinations(range(n), 2)]
              for r in range(n * n)]
        for a, b in itertools.product(range(n), repeat=2):
            E = [[int((r, s) == (a, b)) for s in range(n)] for r in range(n)]
            N = [[E[p // n][q // n] * (p % n == q % n) + (p // n == q // n) * E[p % n][q % n]
                  for q in range(n * n)] for p in range(n * n)]
            want = [[Fraction(x, 2) for x in row] for row in mm(mm(list(zip(*P0)), N), P0)]
            assert [list(row) for row in check.psi(E)] == want

    def test_float_entries_are_float_arithmetic(self):
        # every entry is M_ii + M_jj, +-M_xy or 0, as float arithmetic gives it
        M = sym(14, 6)
        P = compound.psi(M)
        pairs = check.wedge_pairs(6)
        for a, p in enumerate(pairs):
            assert P[a, a] == M[p[0] - 1, p[0] - 1] + M[p[1] - 1, p[1] - 1]
            for b, q in enumerate(pairs):
                if len(set(p) & set(q)) == 0:
                    assert P[a, b] == 0
                elif a != b:
                    (x,), (y,) = set(p) - set(q), set(q) - set(p)
                    assert abs(P[a, b]) == abs(M[x - 1, y - 1])

    def test_refuses_non_finite_floats(self):
        for bad in (np.inf, -np.inf, np.nan):
            M = np.eye(3)
            M[0, 1] = M[1, 0] = bad
            with pytest.raises(ValueError, match="finite"):
                compound.psi(M)

    def test_wedges_of_eigenvectors_are_eigenvectors(self):
        # P^T (v_i ^ v_j) is an eigenvector of psi(M) for lambda_i + lambda_j
        M = sym(12, 6)
        lam, V = np.linalg.eigh(M)
        P = wedge_basis(6)
        psiM = compound.psi(M)
        for i in range(6):
            for j in range(i + 1, 6):
                vi, vj = V[:, i], V[:, j]
                w = P.T @ (np.kron(vi, vj) - np.kron(vj, vi))
                assert np.abs(psiM @ w - (lam[i] + lam[j]) * w).max() < 1e-8

    def test_linearity_exact_over_rationals(self):
        rng = np.random.default_rng(13)
        Mq = rational_matrix(rng, 4)
        Nq = rational_matrix(rng, 4)
        a, b = Fraction(3, 5), Fraction(-2, 7)
        combo = [[a * Mq[i][j] + b * Nq[i][j] for j in range(4)] for i in range(4)]
        lhs = compound.psi(combo)
        pm, pn = compound.psi(Mq), compound.psi(Nq)
        m = 4 * 3 // 2
        assert all(lhs[r][s] == a * pm[r][s] + b * pn[r][s]
                   for r in range(m) for s in range(m))


class TestAdditiveCompound:
    def test_k1_is_matrix_itself(self):
        M = sym(0, 4)
        assert np.abs(compound_f(M, 1) - M).max() == 0

    def test_kn_is_trace(self):
        M = sym(1, 4)
        C = compound_f(M, 4)
        assert C.shape == (1, 1)
        assert abs(C[0, 0] - np.trace(M)) < 1e-14

    def test_k2_equals_psi(self):
        # exact arithmetic: entrywise identical rationals
        Mq = rational_matrix(np.random.default_rng(2), 5)
        assert additive_compound_pairs(Mq, 2) == compound.psi(Mq)
        # float: psi reads Mf exactly and rounds each entry once, as does
        # the exact compound of Mf rounded once, so they agree on the nose
        Mf = sym(3, 6)
        want = np.array(additive_compound_pairs(exact(Mf), 2), dtype=float)
        assert np.array_equal(want, compound.psi(Mf))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_all_pairs_oracle(self, data):
        # sparse, non-symmetric rationals, every k: only the nonzero
        # entries are visited, and every sign comes from the swap position
        n = data.draw(st.integers(1, 6))
        k = data.draw(st.integers(1, n))
        entry = st.one_of(st.just(Fraction(0)),
                          st.fractions(min_value=-5, max_value=5, max_denominator=9))
        M = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                               min_size=n, max_size=n))
        assert check.additive_compound(M, k) == additive_compound_pairs(M, k)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(3, 5), st.integers(2, 4))
    def test_matches_multiplicative_compound_derivative(self, seed, n, k):
        # independent oracle: d/dt C_k(I + tM) at t = 0, including signs
        if k > n:
            k = n
        M = sym(seed, n)
        got = compound_f(M, k)
        want = additive_compound_fd(M, k)
        assert np.abs(got - want).max() < 1e-5

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(3, 6), st.integers(1, 5))
    def test_nonsymmetric_sparse_matches_derivative(self, seed, n, k):
        # entry (alpha, beta) reads m_ij with i on alpha's side, and zero
        # entries of M are skipped: a sparse non-symmetric M checks both
        k = min(k, n)
        rng = np.random.default_rng(seed)
        M = rng.integers(-3, 4, (n, n)) * (rng.random((n, n)) < 0.5)
        got = compound_f(M.astype(float), k)
        assert np.abs(got - additive_compound_fd(M.astype(float), k)).max() < 1e-5

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(3, 5))
    def test_spectrum_triples(self, seed, n):
        M = sym(seed, n)
        w = np.linalg.eigvalsh(M)
        trips = sorted(sum(c) for c in itertools.combinations(w, 3))
        got = np.sort(np.linalg.eigvalsh(compound_f(M, 3)))
        assert np.abs(got - np.asarray(trips)).max() < 1e-8

    def test_k_bounds(self):
        M = exact(sym(4, 3))
        with pytest.raises(ValueError):
            check.additive_compound(M, 0)
        with pytest.raises(ValueError):
            check.additive_compound(M, 4)


class TestSignMatrix:
    # psi and the all-pairs k = 2 compound share one sign convention, so
    # the sign matrix between them is the identity and they agree on the nose
    def test_global_agreement_it_certifies(self):
        rng = np.random.default_rng(5)
        for n in (3, 4, 6):
            Mq = rational_matrix(rng, n)
            assert compound.psi(Mq) == additive_compound_pairs(Mq, 2)
