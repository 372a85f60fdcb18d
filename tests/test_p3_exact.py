"""The extremal data of the looped path P3 at u* = (2/7, 3/7, 2/7), exactly.

Only `fractions` and `check.psi` are used. D_u A = diag(u) A is rational and
similar to M*(u) = D_u^{1/2} A D_u^{1/2} (conjugate by D_u^{1/2}), so it
has the same eigenvalues. An eigenvector w of D_u A gives the step values
alpha_i = w_i / (u_i sqrt(N)), with N = sum_i w_i^2 / u_i, so every product
alpha_i alpha_j = w_i w_j / (u_i u_j N) is rational even where alpha is
not. The frozen floats of oracles.py are checked against these values.
"""

import math
from fractions import Fraction as F

from specsum import check
from oracles import (P3_ALPHA, P3_BETA, P3_KAPPA, P3_MU, P3_SIGMA_STAR,
                     P3_SPECTRUM, P3_U_STAR)

U = (F(2, 7), F(3, 7), F(2, 7))
A = ((1, 1, 0), (1, 1, 1), (0, 1, 1))  # path 1-2-3, every vertex looped
DUA = [[u * a for a in row] for u, row in zip(U, A)]
# eigenvalue -> eigenvector of D_u A, in decreasing order
EIGEN = {F(6, 7): (1, 2, 1), F(2, 7): (-1, 0, 1), F(-1, 7): (1, F(-3, 2), 1)}
MU1, MU2 = F(6, 7), F(2, 7)


def products(w):
    """alpha_i alpha_j (as a 3x3 table) of the step function of eigenvector w."""
    s = [x / u for x, u in zip(w, U)]
    N = sum(x * x / u for x, u in zip(w, U))
    return [[a * b / N for b in s] for a in s]


ALPHA = products(EIGEN[MU1])
BETA = products(EIGEN[MU2])


class TestEigendata:
    def test_eigenpairs(self):
        for lam, w in EIGEN.items():
            assert [sum(a * x for a, x in zip(row, w)) for row in DUA] == [lam * x for x in w]

    def test_three_distinct_eigenvalues_sum_to_the_trace(self):
        assert len(EIGEN) == 3 and sum(EIGEN) == sum(DUA[i][i] for i in range(3)) == 1


class TestStepValues:
    def test_squares(self):
        assert [ALPHA[i][i] for i in range(3)] == [F(3, 4), F(4, 3), F(3, 4)]
        assert [BETA[i][i] for i in range(3)] == [F(7, 4), 0, F(7, 4)]

    def test_kappa(self):
        kappa = {(i + 1, j + 1): ALPHA[i][j] + BETA[i][j] for i, j in ((0, 1), (0, 2), (1, 2))}
        assert kappa == {(1, 2): 1, (1, 3): -1, (2, 3): 1}

    def test_ellipse_residuals_are_zero(self):
        assert [MU1 * ALPHA[i][i] + MU2 * BETA[i][i] - (MU1 + MU2) for i in range(3)] == [0, 0, 0]

    def test_unit_norms_and_orthogonality(self):
        assert sum(u * ALPHA[i][i] for i, u in enumerate(U)) == 1
        assert sum(u * BETA[i][i] for i, u in enumerate(U)) == 1
        # sum u_i alpha_i beta_i is a positive multiple of sum w_i w'_i / u_i
        assert sum(a * b / u for a, b, u in zip(EIGEN[MU1], EIGEN[MU2], U)) == 0


def test_attainment():
    # psi(D_u A) is similar to psi(M*(u)), whose eigenvalues are the sums
    # lambda_i + lambda_j <= sigma(u); an eigenvalue 8/7 proves sigma* >= 8/7
    assert [sum(row) for row in check.psi(DUA)] == [F(8, 7)] * 3


class TestFrozenFloats:
    """oracles.py's P3 floats within 1e-15 of the exact values above."""

    def test_rational_constants(self):
        assert max(abs(a - float(b)) for a, b in zip(P3_U_STAR, U)) <= 1e-15
        assert abs(P3_SIGMA_STAR - 8 / 7) <= 1e-15 and MU1 + MU2 == F(8, 7)
        assert max(abs(a - float(b)) for a, b in zip(P3_MU, (MU1, MU2))) <= 1e-15
        assert max(abs(a - float(b)) for a, b in zip(P3_SPECTRUM, EIGEN)) <= 1e-15

    def test_step_values(self):
        # the floats take sum u_i alpha_i >= 0 and beta_1 >= beta_3, so their
        # signs are those of (1, 2, 1) and (1, 0, -1)
        for got, table, signs in ((P3_ALPHA, ALPHA, (1, 1, 1)), (P3_BETA, BETA, (1, 0, -1))):
            want = [s * math.sqrt(table[i][i]) for i, s in enumerate(signs)]
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-15
        for (i, j), k in P3_KAPPA.items():
            assert abs(k - float(ALPHA[i - 1][j - 1] + BETA[i - 1][j - 1])) <= 1e-15
