import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from specsum import numerics


def sym(rng, n):
    A = rng.standard_normal((n, n))
    return (A + A.T) / 2


class TestEigh:
    def test_reconstruction_and_order(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 5, 8, 13):
            A = sym(rng, n)
            d = numerics.eigh(A)
            w, V = d.eigenvalues, d.eigenvectors
            assert np.all(np.diff(w) <= 1e-12)  # descending
            assert np.abs(V @ np.diag(w) @ V.T - A).max() < 1e-10 * max(1, np.abs(w).max())
            assert np.abs(V.T @ V - np.eye(n)).max() < 1e-10

    def test_sign_convention(self):
        rng = np.random.default_rng(1)
        A = sym(rng, 6)
        V = numerics.eigh(A).eigenvectors
        for i in range(6):
            col = V[:, i]
            assert col[np.argmax(np.abs(col))] > 0

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        A = sym(rng, 7)
        d1, d2 = numerics.eigh(A), numerics.eigh(A.copy())
        assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
        assert np.array_equal(d1.eigenvectors, d2.eigenvectors)

    def test_known_spectrum(self):
        # loop-free path on 4 vertices: 2cos(k pi/5)
        A = np.zeros((4, 4))
        for i in range(3):
            A[i, i + 1] = A[i + 1, i] = 1.0
        w = numerics.eigh(A).eigenvalues
        want = np.sort(2 * np.cos(np.arange(1, 5) * np.pi / 5))[::-1]
        assert np.abs(w - want).max() < 1e-12

    def test_rejects_asymmetric_and_bad_shapes(self):
        with pytest.raises(ValueError):
            numerics.eigh(np.array([[0.0, 1.0], [0.5, 0.0]]))
        with pytest.raises(ValueError):
            numerics.eigh(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            numerics.eigh(np.array([[np.nan]]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 10 ** 6))
    def test_trace_and_frobenius_identities(self, n, seed):
        A = sym(np.random.default_rng(seed), n)
        w = numerics.eigh(A).eigenvalues
        assert abs(w.sum() - np.trace(A)) < 1e-9
        assert abs((w ** 2).sum() - (A * A).sum()) < 1e-9


class TestKron:
    def test_against_definition(self):
        rng = np.random.default_rng(3)
        A, B = rng.standard_normal((2, 3)), rng.standard_normal((4, 2))
        K = numerics.kron(A, B)
        assert K.shape == (8, 6)
        for i in range(2):
            for j in range(3):
                for k in range(4):
                    for l in range(2):
                        assert K[i * 4 + k, j * 2 + l] == A[i, j] * B[k, l]

    def test_mixed_product_law(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            A, B, C, D = (rng.standard_normal((3, 3)) for _ in range(4))
            lhs = numerics.kron(A, B) @ numerics.kron(C, D)
            rhs = numerics.kron(A @ C, B @ D)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestProjectSimplex:
    def test_fixed_points_and_corners(self):
        assert np.allclose(numerics.project_simplex(np.array([0.2, 0.3, 0.5])),
                           [0.2, 0.3, 0.5])
        assert np.allclose(numerics.project_simplex(np.array([2.0, 0.0, 0.0])),
                           [1.0, 0.0, 0.0])

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 8),
                      elements=st.floats(-10, 10, allow_nan=False)))
    def test_feasible(self, v):
        p = numerics.project_simplex(v)
        assert p.min() >= 0
        assert abs(p.sum() - 1) < 1e-9

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 10 ** 6))
    def test_optimality(self, n, seed):
        # closer to v than any other feasible point
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(n) * 3
        p = numerics.project_simplex(v)
        for _ in range(20):
            w = rng.dirichlet(np.ones(n))
            assert np.dot(v - p, v - p) <= np.dot(v - w, v - w) + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 8)),
                      elements=st.floats(-10, 10, allow_nan=False)))
    def test_stack_matches_rows(self, V):
        P = numerics.project_simplex(V)
        assert P.shape == V.shape
        for row, p in zip(V, P):
            assert np.array_equal(p, numerics.project_simplex(row))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            numerics.project_simplex(np.array([np.inf, 0.0]))
        with pytest.raises(ValueError):
            numerics.project_simplex(np.array([]))
        with pytest.raises(ValueError):
            numerics.project_simplex(np.array([[0.5, 0.5], [np.nan, 0.0]]))
        with pytest.raises(ValueError):
            numerics.project_simplex(np.zeros((2, 2, 2)))


class TestMatrixIO:
    def test_round_trip_floats(self):
        M = np.array([[1.5, -2.0], [-2.0, 0.25]])
        again = numerics.read_matrix(numerics.format_matrix(M))
        assert np.array_equal(M, again)

    def test_rational_tokens(self):
        M = numerics.read_matrix("2\n1/2 0\n0 2/3\n")
        assert M[0, 0] == 0.5
        assert abs(M[1, 1] - 2 / 3) < 1e-15

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 1"):
            numerics.read_matrix("x\n")
        with pytest.raises(ValueError, match="line 3"):
            numerics.read_matrix("2\n1 2\n3\n")
        with pytest.raises(ValueError, match="line 2"):
            numerics.read_matrix("2\n1 2 3\n4 5\n")
        with pytest.raises(ValueError, match="line 1"):
            numerics.read_matrix("\uff12\n1 0\n0 1\n")  # fullwidth two
        # a huge dimension fails on the rows, before any allocation
        with pytest.raises(ValueError, match="line 2"):
            numerics.read_matrix("100000000\n1\n")

    def test_parse_number(self):
        assert numerics.parse_number("8/7") == 8 / 7
        assert numerics.parse_number("-1.25") == -1.25
        with pytest.raises(ValueError):
            numerics.parse_number("8/7/2")
        for tok in ("1/0", "1" * 401 + "/1", "1e400"):
            with pytest.raises(ValueError):
                numerics.parse_number(tok)
