import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specsum import check, exactq
from oracles import dense_ldl_psd_check, fraction_ldl_psd_check, rational_matrix, work_score


def remultiply(decomp, n):
    R = [[Fraction(0)] * n for _ in range(n)]
    for c, d in decomp:
        for i in range(n):
            for j in range(n):
                R[i][j] += d * c[i] * c[j]
    return R


class TestRationalApprox:
    def test_exact_recovery(self):
        assert exactq.rational_approx(8 / 7, 100) == Fraction(8, 7)
        assert exactq.rational_approx(float(Fraction(-355, 113)), 113) == Fraction(-355, 113)
        assert exactq.rational_approx(1.14285714, 50) == Fraction(8, 7)

    def test_noise_tolerance_scales_inversely_with_cap(self):
        noisy = 2 / 7 + 3e-5
        assert exactq.rational_approx(noisy, 10) == Fraction(2, 7)
        assert exactq.rational_approx(noisy, 10 ** 6) != Fraction(2, 7)

    @settings(max_examples=200, deadline=None)
    @given(st.fractions(min_value=-100, max_value=100, max_denominator=500),
           st.integers(1, 2000))
    def test_best_approximation(self, x, d):
        # no admissible denominator does strictly better
        p = exactq.rational_approx(float(x), max(d, 1))
        assert p.denominator <= max(d, 1)
        err = abs(Fraction(float(x)) - p)
        for q in range(1, min(max(d, 1), 50) + 1):
            cand = Fraction(round(float(x) * q), q)
            assert err <= abs(Fraction(float(x)) - cand)

    def test_rejects_non_finite(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                exactq.rational_approx(bad, 10)


class TestQEval:
    def test_exact_value(self):
        Q = [[Fraction(2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1)]]
        z = [Fraction(1, 2), Fraction(-3)]
        # 2*(1/4) + 2*(1/3)*(1/2)*(-3) + 1*9 = 1/2 - 1 + 9
        assert exactq.q_eval(Q, z) == Fraction(17, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            exactq.q_eval([[Fraction(1)]], [Fraction(1), Fraction(2)])


class TestLdlPsdCheck:
    def test_identity_and_zero(self):
        I3 = [[Fraction(i == j) for j in range(3)] for i in range(3)]
        assert exactq.ldl_psd_check(I3).verdict == exactq.PSD
        Z = [[Fraction(0)] * 3 for _ in range(3)]
        w = exactq.ldl_psd_check(Z)
        assert w.verdict == exactq.PSD and w.decomposition == ()

    def test_rank_one_decomposition_remultiplies(self):
        v = [Fraction(2), Fraction(-1, 3), Fraction(5)]
        Q = [[a * b for b in v] for a in v]
        w = exactq.ldl_psd_check(Q)
        assert w.verdict == exactq.PSD
        assert len(w.decomposition) == 1
        assert remultiply(w.decomposition, 3) == Q

    def test_indefinite_witness(self):
        Q = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]]
        w = exactq.ldl_psd_check(Q)
        assert w.verdict == exactq.NOT_PSD
        assert exactq.q_eval(Q, list(w.counterexample)) < 0

    def test_zero_pivot_off_diagonal(self):
        # zero diagonal with a nonzero row is never PSD
        Q = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
        w = exactq.ldl_psd_check(Q)
        assert w.verdict == exactq.NOT_PSD
        assert exactq.q_eval(Q, list(w.counterexample)) < 0

    def test_negative_diagonal(self):
        Q = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(-1)]]
        w = exactq.ldl_psd_check(Q)
        assert w.verdict == exactq.NOT_PSD
        assert exactq.q_eval(Q, list(w.counterexample)) < 0

    def test_psd_boundary_rank_deficient(self):
        # [[1,1],[1,1]] has eigenvalues 2, 0
        Q = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
        w = exactq.ldl_psd_check(Q)
        assert w.verdict == exactq.PSD
        assert remultiply(w.decomposition, 2) == Q

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 5))
    def test_gram_matrices_are_psd_with_exact_decomposition(self, seed, n):
        rng = np.random.default_rng(seed)
        B = rational_matrix(rng, n)
        Q = [[sum(B[r][i] * B[r][j] for r in range(n)) for j in range(n)]
             for i in range(n)]
        w = exactq.ldl_psd_check(Q)
        assert w.verdict == exactq.PSD
        assert remultiply(w.decomposition, n) == Q

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 5))
    def test_witness_is_always_sound(self, seed, n):
        rng = np.random.default_rng(seed)
        Q = rational_matrix(rng, n)
        w = exactq.ldl_psd_check(Q)
        if w.verdict == exactq.NOT_PSD:
            assert exactq.q_eval(Q, list(w.counterexample)) < 0
        else:
            assert remultiply(w.decomposition, n) == Q

    def test_soundness_both_sides_200_random(self):
        # Gram matrices G^T G certify PSD with an exact decomposition;
        # draining a diagonal entry past itself (G^T G - c e_i e_i^T)
        # always yields NOT_PSD with a negative rational witness
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            B = rational_matrix(rng, n)
            Q = [[sum(B[r][i] * B[r][j] for r in range(n)) for j in range(n)]
                 for i in range(n)]
            w = exactq.ldl_psd_check(Q)
            assert w.verdict == exactq.PSD
            assert remultiply(w.decomposition, n) == Q
            i = int(rng.integers(0, n))
            Q[i][i] -= Q[i][i] + 1
            w = exactq.ldl_psd_check(Q)
            assert w.verdict == exactq.NOT_PSD
            assert exactq.q_eval(Q, list(w.counterexample)) < 0

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10 ** 6),
           st.lists(st.tuples(st.integers(1, 4), st.integers(0, 4)), min_size=1, max_size=5),
           st.integers(-1, 4))
    def test_planted_blocks_match_dense_oracle(self, seed, shapes, broken):
        # a direct sum of Gram blocks B^T B (B of `rank` rows, so some are
        # singular), block `broken` with a diagonal entry drained below 0,
        # under a random permutation
        rng = np.random.default_rng(seed)
        blocks = []
        for b, (size, rank) in enumerate(shapes):
            B = [row[:size] for row in rational_matrix(rng, max(size, rank))[:rank]]
            G = [[sum((B[r][i] * B[r][j] for r in range(rank)), Fraction(0))
                  for j in range(size)] for i in range(size)]
            if b == broken:
                i = int(rng.integers(0, size))
                G[i][i] -= G[i][i] + Fraction(1, 7)
            blocks.append(G)
        n = sum(len(G) for G in blocks)
        perm = rng.permutation(n)
        Q = [[Fraction(0)] * n for _ in range(n)]
        at = 0
        for G in blocks:
            for i, row in enumerate(G):
                for j, x in enumerate(row):
                    Q[perm[at + i]][perm[at + j]] = x
            at += len(G)

        want, _ = dense_ldl_psd_check(Q)
        assert want == (exactq.NOT_PSD if 0 <= broken < len(shapes) else exactq.PSD)
        w = exactq.ldl_psd_check(Q)
        assert w.verdict == want
        if want == exactq.PSD:
            assert remultiply(w.decomposition, n) == Q
        else:
            assert exactq.q_eval(Q, list(w.counterexample)) < 0

    def test_components_of_nonzero_pattern(self):
        Q = [[Fraction(int(c)) for c in row] for row in
             ("10010", "01000", "00000", "10010", "00001")]
        assert exactq._components(exactq.nonzeros(Q)) == [[0, 3], [1], [2], [4]]
        # a chain connects its ends through the middle: 0 - 2 - 1
        Q = [[Fraction(int(c)) for c in row] for row in ("101", "011", "111")]
        assert exactq._components(exactq.nonzeros(Q)) == [[0, 1, 2]]

    def test_witness_lives_on_its_component(self):
        I, Z = Fraction(1), Fraction(0)
        Q = [[I, Z, Z, Z], [Z, I, Z, 2 * I], [Z, Z, I, Z], [Z, 2 * I, Z, I]]
        w = exactq.ldl_psd_check(Q)
        assert w.verdict == exactq.NOT_PSD
        assert len(w.counterexample) == 4
        assert w.counterexample[0] == w.counterexample[2] == 0
        assert exactq.q_eval(Q, list(w.counterexample)) < 0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            exactq.ldl_psd_check([[Fraction(0), Fraction(1)],
                                  [Fraction(2), Fraction(0)]])

    def test_asymmetry_named_at_first_lower_entry(self):
        # the first (row, col), col < row, in row-major order that differs
        # from its mirror, whichever of the two is zero
        Z, I = Fraction(0), Fraction(1)
        Q = [[Z, Z, I, Z], [Z, Z, Z, Z], [Z, Z, Z, I], [Z, I, Z, Z]]
        with pytest.raises(ValueError, match=r"not symmetric at \(2,0\)"):
            exactq.ldl_psd_check(Q)
        Q[0][2] = Q[2][0] = I
        with pytest.raises(ValueError, match=r"not symmetric at \(3,1\)"):
            exactq.ldl_psd_check(Q)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(2, 6))
    def test_witness_value_is_its_quadratic_form(self, seed, n):
        rng = np.random.default_rng(seed)
        Q = rational_matrix(rng, n)
        w = exactq.ldl_psd_check(Q)
        if w.verdict == exactq.NOT_PSD:
            assert w.value == exactq.q_eval(Q, list(w.counterexample)) < 0
        else:
            assert w.value is None


class TestRationalIO:
    def test_format_lowest_terms_positive_denominator(self):
        assert exactq.format_rational(Fraction(14, -21)) == "-2/3"
        assert exactq.format_rational(Fraction(0)) == "0/1"
        assert exactq.format_rational(Fraction(3)) == "3/1"

    def test_format_int_as_its_fraction(self):
        for n in (0, 3, -5, 10 ** 40):
            assert exactq.format_rational(n) == exactq.format_rational(Fraction(n)) == f"{n}/1"

    def test_parse_forms(self):
        assert exactq.parse_rational("8/7") == Fraction(8, 7)
        assert exactq.parse_rational("-3") == Fraction(-3)
        assert exactq.parse_rational("1.25") == Fraction(5, 4)
        with pytest.raises(ValueError):
            exactq.parse_rational("1/0")
        with pytest.raises(ValueError):
            exactq.parse_rational("x")
        # the package's own grammar: no digit grouping, no non-ASCII digits,
        # no inner whitespace, a bounded exponent and a bounded length
        for tok in ("1_0", "1_000/7", "\u0661\u0660", "8 / 7",
                    f"1e{exactq.MAX_EXPONENT + 1}", "1" * (exactq.MAX_LEN + 1)):
            with pytest.raises(ValueError):
                exactq.parse_rational(tok)

    @given(st.from_regex(r"[+-]?[0-9]{1,30}(/[1-9][0-9]{0,29})?"
                         r"|[+-]?([0-9]{1,30}\.?[0-9]{0,30}|\.[0-9]{1,30})"
                         r"([eE][+-]?[0-4]?[0-9]{1,2})?", fullmatch=True))
    @settings(max_examples=300, deadline=None)
    def test_grammar_agrees_with_fraction(self, tok):
        assert exactq.parse_rational(tok) == Fraction(tok)

    def test_matrix_round_trip(self):
        Q = [[Fraction(1, 2), Fraction(-3)], [Fraction(-3), Fraction(8, 7)]]
        text = "2\n" + "".join(" ".join(map(exactq.format_rational, row)) + "\n"
                               for row in Q)
        assert exactq.read_matrix_q(text) == Q

    def test_matrix_parse_errors(self):
        with pytest.raises(ValueError, match="line 1"):
            exactq.read_matrix_q("nope\n")
        with pytest.raises(ValueError, match="line 3"):
            exactq.read_matrix_q("2\n1 2\n1/0 4\n")
        with pytest.raises(ValueError, match="expected 2 rows"):
            exactq.read_matrix_q("2\n1 2\n")
        with pytest.raises(ValueError, match="line 1"):
            exactq.read_matrix_q("\uff12\n1 0\n0 1\n")  # fullwidth two


ZEROS = (exactq._ZERO, Fraction(0), 0, 0.0, -0.0)
NONZERO = (st.integers(-9, 9).filter(bool)
           | st.fractions(max_denominator=97).filter(bool)
           | st.floats(allow_nan=False, allow_infinity=False).filter(bool))


def dense_nonzeros(M):
    """exactq.nonzeros by a plain scan of every entry."""
    return [{j: Fraction(x) for j, x in enumerate(row) if x != 0} for row in M]


class TestSharedReader:
    """The helpers that every exact matrix goes through: nonzeros scans,
    numbered_lines and read_rows read, format_row writes."""

    @given(st.integers(0, 6).flatmap(lambda n: st.lists(
        st.lists(st.sampled_from(ZEROS) | NONZERO, min_size=n, max_size=n),
        min_size=n, max_size=n)))
    @settings(max_examples=300, deadline=None)
    def test_nonzeros_match_a_dense_scan(self, M):
        got = exactq.nonzeros(M)
        assert got == dense_nonzeros(M)
        assert all(list(row) == sorted(row) for row in got)
        assert all(type(x) is Fraction for row in got for x in row.values())

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, n - 1), st.integers(0, 8).filter(lambda w: w != n))))
    @settings(max_examples=50, deadline=None)
    def test_nonzeros_refuses_a_ragged_matrix(self, shape):
        n, at, width = shape
        M = [[Fraction(1)] * n for _ in range(n)]
        M[at] = [Fraction(1)] * width
        with pytest.raises(ValueError, match="matrix is not square"):
            exactq.nonzeros(M)

    @staticmethod
    def both_readers(row, entry):
        """A matrix file of three 3-entry rows and a K2 certificate, the
        one's second row and the other's second entry line on line 5."""
        matrix = "\n\n3\n10/1 0 0\n" + row + "\n0 0 1\n"
        cert = "candidate K2\nbound 1/1\n2 1 3\nQ 0 0 10/1\n" + entry + "\nT 0 0 1/1\n"
        return matrix, cert

    # both readers name the line, and parse_rational's message on a bad token
    @pytest.mark.parametrize("row,entry,err,cert_err", [
        ("0 0", "Q 1 1", "line 5: expected 3 entries, got 2",
         "line 5: expected 'Q r s p/q' or 'T r s p/q'"),
        ("0 1_0/1 0", "Q 1 1 1_0/1", "line 5: bad rational '1_0/1'", None),
        ("2_0/1 1_0/1 3_0/1", "Q 1 1 2_0/1", "line 5: bad rational '2_0/1'", None)],
        ids=["short_row", "grouped_digits", "first_bad_entry_named"])
    def test_malformed_row_same_message_in_both_readers(self, row, entry, err, cert_err):
        matrix, cert = self.both_readers(row, entry)
        with pytest.raises(ValueError) as from_matrix:
            exactq.read_matrix_q(matrix)
        with pytest.raises(ValueError) as from_cert:
            check.parse_certificate(cert)
        assert str(from_matrix.value) == err
        assert str(from_cert.value) == (cert_err or err)

    def test_zeros_shared_and_repeated_tokens_one_object(self):
        M = exactq.read_matrix_q("3\n0 -0/3 3/7\n0.0e5 3/7 0\n3/7 0/1 -0\n")
        assert [M[i][j] for i, j in ((0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2))] \
            == [Fraction(0)] * 6
        # a certificate lists no zero, and mirrors an entry as the same object
        Q = check.parse_certificate("candidate K2\nbound 1/1\n2 1 3\nQ 0 2 3/7\nQ 1 1 3/7\n").Q
        for A in (M, Q):
            assert all(x is exactq._ZERO for row in A for x in row if not x)
            assert A[0][2] == Fraction(3, 7) and A[0][2] is A[1][1] is A[2][0]

    def test_numbered_lines_skip_blank_lines(self):
        assert exactq.numbered_lines("\n a b \n\t\n \nc\n") == [(2, "a b"), (5, "c")]

    def test_format_row(self):
        row = [exactq._ZERO, Fraction(0), Fraction(-6, 4), Fraction(3)]
        assert exactq.format_row(row) == "0/1 0/1 -3/2 3/1"
        assert exactq.read_rows([(1, exactq.format_row(row))], 4) == [tuple(row)]


# denominators that share some factors and not others, so that components
# scale by different lcms
MIXED_DENS = (1, 2, 3, 5, 7, 12, 35, 97)
KINDS = ("gram", "rank_deficient", "shifted_negative", "zero_diagonal", "mixed")


def drawn_matrix(kind: str, seed: int, n: int):
    """A symmetric n x n Fraction matrix of one kind, with entries over
    MIXED_DENS and about a third of them zero, so that most split into
    several components: a Gram product G^T G of full rank n or of rank below
    n; one with a diagonal entry shifted below zero; one with a zero
    diagonal entry and a nonzero entry in its row; or symmetric noise."""
    rng = np.random.default_rng(seed)

    def rat():
        if rng.random() < 0.35:
            return Fraction(0)
        return Fraction(int(rng.integers(-9, 10)), int(rng.choice(MIXED_DENS)))

    if kind == "mixed":
        Q = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                Q[i][j] = Q[j][i] = rat()
        return Q
    rank = int(rng.integers(0, n)) if kind == "rank_deficient" else n
    G = [[rat() for _ in range(n)] for _ in range(rank)]
    Q = [[sum((G[r][i] * G[r][j] for r in range(rank)), Fraction(0)) for j in range(n)]
         for i in range(n)]
    i = int(rng.integers(0, n))
    if kind == "shifted_negative":
        Q[i][i] -= Q[i][i] + Fraction(1, int(rng.choice(MIXED_DENS)))
    elif kind == "zero_diagonal" and n > 1:
        Q[i][i] = Fraction(0)
        if not any(Q[i]):
            j = (i + 1) % n
            Q[i][j] = Q[j][i] = Fraction(1, int(rng.choice(MIXED_DENS)))
    return Q


class TestFractionFreeElimination:
    """The integer ldl_psd_check against the Fraction elimination it
    replaced (oracles.fraction_ldl_psd_check): equal PsdWitness values,
    verdict, decomposition, counterexample and value alike."""

    @settings(max_examples=250, deadline=None)
    @given(st.sampled_from(KINDS), st.integers(0, 10 ** 6), st.integers(1, 7))
    def test_matches_fraction_reference(self, kind, seed, n):
        Q = drawn_matrix(kind, seed, n)
        w = exactq.ldl_psd_check(Q)
        assert w == fraction_ldl_psd_check(Q)
        if kind in ("gram", "rank_deficient"):
            assert w.verdict == exactq.PSD
        elif kind == "shifted_negative" or (kind == "zero_diagonal" and n > 1):
            assert w.verdict == exactq.NOT_PSD

    def test_matches_fraction_reference_1000_seeded(self):
        rng = np.random.default_rng(16)
        for _ in range(1000):
            kind = KINDS[int(rng.integers(0, len(KINDS)))]
            Q = drawn_matrix(kind, int(rng.integers(0, 10 ** 6)), int(rng.integers(1, 8)))
            assert exactq.ldl_psd_check(Q) == fraction_ldl_psd_check(Q)

    @staticmethod
    def gram4():
        # one component of 4 coordinates, full rank: 4 pivots
        G = [[Fraction(v, d) for v, d in zip(row, (1, 3, 7, 2))]
             for row in ((2, 1, 0, -1), (1, -2, 3, 0), (0, 1, 1, 5), (4, 0, -1, 1))]
        return [[sum(G[r][i] * G[r][j] for r in range(4)) for j in range(4)]
                for i in range(4)]

    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("i", range(4))
    def test_altered_column_fails_remultiplication(self, monkeypatch, k, i):
        # one entry of one recorded pivot row moved by 1, wherever it is:
        # the integer re-multiplication must refuse the decomposition
        Q = self.gram4()
        assert exactq.ldl_psd_check(Q).verdict == exactq.PSD
        real = exactq._bareiss

        def altered(B):
            order, rows, piv, bad = real(B)
            assert len(rows) == 4 and bad is None
            rows[k][i] += 1
            return order, rows, piv, bad

        monkeypatch.setattr(exactq, "_bareiss", altered)
        with pytest.raises(ArithmeticError, match="does not re-multiply"):
            exactq.ldl_psd_check(Q)

    def test_pivots_are_scaled_leading_minors(self):
        # d_k is the k-th leading principal minor of L*Q in pivot order, and
        # the returned pivot d_k / (L d_{k-1}) is the rational one
        Q = self.gram4()
        L = math.lcm(*(x.denominator for row in Q for x in row))
        B = [[int(x * L) for x in row] for row in Q]
        order, rows, piv, bad = exactq._bareiss(B)
        assert bad is None and sorted(order) == [0, 1, 2, 3]
        for k in range(1, 5):
            P = order[:k]
            sub = np.array([[float(B[a][b]) for b in P] for a in P])
            assert piv[k - 1] == pytest.approx(np.linalg.det(sub), rel=1e-9)
        pivots = [d for _, d in exactq.ldl_psd_check(Q).decomposition]
        assert pivots == [Fraction(d, L * prev) for d, prev in zip(piv, [1] + piv[:-1])]


class TestWorkBudget:
    @staticmethod
    def dense(n, nums, dens):
        Q = [[Fraction(0)] * n for _ in range(n)]
        t = 0
        for i in range(n):
            for j in range(i, n):
                Q[i][j] = Q[j][i] = Fraction(nums[t], dens[t])
                t += 1
        return Q

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 4),
           st.integers(1, 1400).flatmap(
               lambda bits: st.lists(st.integers(1, 2 ** bits), min_size=10, max_size=10)),
           st.lists(st.integers(-(2 ** 600), 2 ** 600).filter(bool), min_size=10, max_size=10))
    def test_refused_exactly_over_budget(self, n, dens, nums):
        # one dense component; refused iff its measure is above MAX_WORK,
        # whether the lcm's lower bound or the final entry trips it
        Q = self.dense(n, nums, dens)
        over = work_score(Q) > exactq.MAX_WORK
        try:
            w = exactq.ldl_psd_check(Q)
        except ValueError as e:
            assert over and "over the work budget" in str(e)
        else:
            assert not over
            assert w == fraction_ldl_psd_check(Q)

    def test_many_unrelated_denominators_admitted_under_budget(self):
        # ten 101-bit denominators with no common factor to speak of: the
        # lcm has 992 bits and the measure is 3,568, so the lcm's lower
        # bound (3,564) comes close to the budget but must not refuse
        Q = self.dense(4, [1] * 10, [2 ** 100 + 2 * k + 1 for k in range(10)])
        assert work_score(Q) == 3568
        assert exactq.ldl_psd_check(Q) == fraction_ldl_psd_check(Q)

    def test_checked_before_any_elimination(self, monkeypatch):
        # a PSD component first, then one whose three unrelated 400-digit
        # denominators put it over budget: nothing is eliminated
        calls = []
        monkeypatch.setattr(exactq, "_bareiss", lambda B: calls.append(B))
        big = [Fraction(1, 10 ** 399 + k) for k in (1, 3, 7)]
        Z = Fraction(0)
        Q = [[Fraction(1), Z, Z, Z],
             [Z, big[0], big[1], Z],
             [Z, big[1], big[2], big[0]],
             [Z, Z, big[0], big[1]]]
        assert work_score(Q) > exactq.MAX_WORK
        with pytest.raises(ValueError, match="a component of 3 coordinates is over the work"):
            exactq.ldl_psd_check(Q)
        assert calls == []

    def test_integer_entries_count_their_own_bits(self):
        # no denominator at all: the bit length of the largest entry alone
        b = exactq.MAX_WORK // 2
        ok = [[Fraction(2 ** (b - 1)), Fraction(1)], [Fraction(1), Fraction(1)]]
        assert exactq.ldl_psd_check(ok).verdict == exactq.PSD
        ok[0][0] *= 2
        with pytest.raises(ValueError, match="over the work budget"):
            exactq.ldl_psd_check(ok)
