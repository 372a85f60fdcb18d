import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from specsum import cli, exactq, numerics
from oracles import eigh


def sym(rng, n):
    A = rng.standard_normal((n, n))
    return (A + A.T) / 2


class TestEigh:
    # the reference eigendecomposition of the differential tests in
    # test_stepmodel.py; they are only as good as it is
    def test_reconstruction_and_order(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 5, 8, 13):
            A = sym(rng, n)
            w, V = eigh(A)
            assert np.all(np.diff(w) <= 1e-12)  # descending
            assert np.abs(V @ np.diag(w) @ V.T - A).max() < 1e-10 * max(1, np.abs(w).max())
            assert np.abs(V.T @ V - np.eye(n)).max() < 1e-10

    def test_sign_convention(self):
        rng = np.random.default_rng(1)
        A = sym(rng, 6)
        _, V = eigh(A)
        for i in range(6):
            col = V[:, i]
            assert col[np.argmax(np.abs(col))] > 0

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        A = sym(rng, 7)
        (w1, V1), (w2, V2) = eigh(A), eigh(A.copy())
        assert np.array_equal(w1, w2)
        assert np.array_equal(V1, V2)

    def test_known_spectrum(self):
        # loop-free path on 4 vertices: 2cos(k pi/5)
        A = np.zeros((4, 4))
        for i in range(3):
            A[i, i + 1] = A[i + 1, i] = 1.0
        w, _ = eigh(A)
        want = np.sort(2 * np.cos(np.arange(1, 5) * np.pi / 5))[::-1]
        assert np.abs(w - want).max() < 1e-12

    def test_rejects_asymmetric_and_bad_shapes(self):
        with pytest.raises(ValueError):
            eigh(np.array([[0.0, 1.0], [0.5, 0.0]]))
        with pytest.raises(ValueError):
            eigh(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            eigh(np.array([[np.nan]]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 10 ** 6))
    def test_trace_and_frobenius_identities(self, n, seed):
        A = sym(np.random.default_rng(seed), n)
        w, _ = eigh(A)
        assert abs(w.sum() - np.trace(A)) < 1e-9
        assert abs((w ** 2).sum() - (A * A).sum()) < 1e-9


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
    # the one matrix reader is exact; the float side rounds what it reads
    def read_matrix(self, text):
        return np.array(exactq.read_matrix_q(text), dtype=float)

    def test_rational_tokens(self):
        M = self.read_matrix("2\n1/2 0\n0 2/3\n")
        assert M[0, 0] == 0.5
        assert abs(M[1, 1] - 2 / 3) < 1e-15

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ValueError, match="line 1"):
            self.read_matrix("x\n")
        with pytest.raises(ValueError, match="line 3: expected 2 entries, got 1"):
            self.read_matrix("2\n1 2\n3\n")
        with pytest.raises(ValueError, match="line 2: expected 2 entries, got 3"):
            self.read_matrix("2\n1 2 3\n4 5\n")
        with pytest.raises(ValueError, match="line 1"):
            self.read_matrix("\uff12\n1 0\n0 1\n")  # fullwidth two
        # a huge dimension fails on the rows, before any allocation
        with pytest.raises(ValueError, match="line 2"):
            self.read_matrix("100000000\n1\n")

    def test_parse_number(self):
        # number tokens become floats where --weights reads them
        assert cli._parse_weights("8/7", 1)[0] == 8 / 7
        assert cli._parse_weights("-1.25", 1)[0] == -1.25
        with pytest.raises(ValueError):
            cli._parse_weights("8/7/2", 1)
        for tok in ("1/0", "1" * 401 + "/1", "1e400"):
            with pytest.raises(ValueError):
                cli._parse_weights(tok, 1)
