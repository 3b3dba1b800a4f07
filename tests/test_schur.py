import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qchar import (
    EMPTY,
    Signature,
    enumerate_down,
    iter_signatures,
    lr_coefficients,
    principal_specialization,
    qbracket,
    qdim,
    schur_eval,
    shift,
)

from helpers import lr_by_subtraction, random_points, schur_eval_gt_oracle

HALF = Fraction(1, 2)


def sig(*parts):
    return Signature(parts)


class TestQBracket:
    def test_frozen_values(self):
        assert qbracket(1, HALF) == 1
        assert qbracket(2, HALF) == Fraction(5, 2)
        assert qbracket(3, HALF) == Fraction(21, 4)
        assert qbracket(0, HALF) == 0

    @given(st.integers(-6, 6), st.integers(1, 9))
    def test_odd_in_n(self, n, num):
        q = Fraction(num, 10)
        assert qbracket(-n, q) == -qbracket(n, q)

    def test_q_range_enforced(self):
        with pytest.raises(ValueError):
            qbracket(2, Fraction(3, 2))
        with pytest.raises(ValueError):
            qbracket(2, Fraction(0))


class TestSchurEval:
    def test_empty_signature(self):
        assert schur_eval(EMPTY, ()) == 1

    def test_frozen_values(self):
        assert schur_eval(sig(1, 0), (3, 5)) == 8
        assert schur_eval(sig(2, 0), (2, HALF)) == Fraction(21, 4)
        assert schur_eval(sig(0, -1), (2, 3)) == Fraction(5, 6)

    def test_level_mismatch_rejected(self):
        with pytest.raises(ValueError):
            schur_eval(sig(1), (1, 2))

    def test_zero_point_rejected(self):
        with pytest.raises(ValueError):
            schur_eval(sig(1, 0), (0, 1))

    def test_repeated_points_fall_back_to_pattern_sum(self):
        # coincident points take the branching rule; the pattern sum is the reference
        rng = random.Random(20261018)
        for level in (2, 3, 4):
            for lam in iter_signatures(level, -2, 2):
                pts = list(random_points(level, rng))
                i, j = rng.sample(range(level), 2)
                pts[j] = pts[i]
                assert schur_eval(lam, pts) == schur_eval_gt_oracle(lam, pts)

    def test_oracle_frozen_values(self):
        assert schur_eval_gt_oracle(sig(1, 1), (Fraction(3), Fraction(7))) == 21
        assert schur_eval_gt_oracle(sig(1, 0), (HALF, 2)) == Fraction(5, 2)

    def test_agrees_with_oracle_everywhere(self):
        rng = random.Random(20240811)
        for level in (1, 2, 3):
            sigs = list(iter_signatures(level, -2, 3))
            tuples = [random_points(level, rng) for _ in range(5)]
            for lam in sigs:
                for pts in tuples:
                    assert schur_eval(lam, pts) == schur_eval_gt_oracle(lam, pts)

    def test_branching_identity(self):
        # s_nu(x, y) = sum over lam below nu of y^(|nu|-|lam|) s_lam(x)
        rng = random.Random(7)
        for nu in iter_signatures(3, -2, 2):
            pts = random_points(3, rng)
            x, y = pts[:2], pts[2]
            lhs = schur_eval(nu, pts)
            rhs = sum(
                y ** (nu.size - lam.size) * schur_eval(lam, x)
                for lam in enumerate_down(nu)
            )
            assert lhs == rhs


class TestPrincipalSpecialization:
    def test_frozen_values(self):
        assert principal_specialization(sig(0, 0, 0), HALF) == 1
        assert principal_specialization(sig(1, 0), HALF) == 5
        assert principal_specialization(sig(1, 1), HALF) == 4


class TestQDim:
    def test_rectangles_are_one(self):
        for k in (-2, 0, 3):
            assert qdim(sig(k, k, k), HALF) == 1

    def test_frozen_values(self):
        assert qdim(sig(1, 0), HALF) == Fraction(5, 2)
        assert qdim(sig(1, 1, 0), HALF) == Fraction(21, 4)

    @pytest.mark.parametrize("q", [HALF, Fraction(2, 3), Fraction(3, 5), Fraction(99, 100)])
    def test_equals_the_bracket_product(self, q):
        for level in range(1, 6):
            for lam in iter_signatures(level, -3, 3 if level < 5 else 1):
                p = lam.parts
                expected = Fraction(1)
                for i in range(level):
                    for j in range(i + 1, level):
                        expected *= qbracket(p[i] - p[j] + j - i, q) / qbracket(j - i, q)
                assert qdim(lam, q) == expected

    @pytest.mark.parametrize("q", [HALF, Fraction(2, 3)])
    def test_consistency_locks(self, q):
        # product formula == Schur value at the q-point == reversed q-point
        # == bridge through the principal specialization; shift invariant
        for level in (1, 2, 3):
            for lam in iter_signatures(level, -2, 2):
                value = qdim(lam, q)
                pts = tuple(q ** (level - 1 - 2 * i) for i in range(level))
                assert value == schur_eval(lam, pts)
                assert value == schur_eval(lam, tuple(reversed(pts)))
                bridge = q ** ((level - 1) * lam.size)
                assert value == bridge * principal_specialization(lam, q)
                assert value == qdim(shift(lam, 2), q)
                assert value > 0


class TestLRCoefficients:
    def test_pieri_example(self):
        assert lr_coefficients(sig(1, 0), sig(1, 0)) == {
            sig(2, 0): 1,
            sig(1, 1): 1,
        }

    def test_single_variable_monomials(self):
        assert lr_coefficients(sig(3), sig(-1)) == {sig(2): 1}

    def test_three_variable_example(self):
        assert lr_coefficients(sig(2, 1, 0), sig(1, 0, 0)) == {
            sig(3, 1, 0): 1,
            sig(2, 2, 0): 1,
            sig(2, 1, 1): 1,
        }

    def test_level_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lr_coefficients(sig(1, 0), sig(1))

    def test_rectangle_product_is_a_shift(self):
        lam = sig(2, 0, -1)
        assert lr_coefficients(lam, sig(3, 3, 3)) == {shift(lam, 3): 1}

    def test_shift_equivariance(self):
        lam, mu = sig(2, 1), sig(1, 0)
        base = lr_coefficients(lam, mu)
        shifted = lr_coefficients(shift(lam, -2), mu)
        assert shifted == {shift(nu, -2): c for nu, c in base.items()}

    def test_matches_monomial_oracle(self):
        for lam, mu in [
            (sig(2, 1), sig(2, 1)),
            (sig(2, 0), sig(1, 1)),
            (sig(1, 0, -1), sig(1, 0, 0)),
            (sig(2, 1, 0), sig(2, 1, 0)),
        ]:
            assert lr_coefficients(lam, mu) == lr_by_subtraction(lam, mu)

    def test_product_identity_at_random_points(self):
        rng = random.Random(99)
        for lam, mu in [(sig(2, 0), sig(1, 1)), (sig(1, 0, -1), sig(2, 1, 1))]:
            pts = random_points(lam.level, rng)
            lhs = sum(
                c * schur_eval(nu, pts) for nu, c in lr_coefficients(lam, mu).items()
            )
            assert lhs == schur_eval(lam, pts) * schur_eval(mu, pts)

    @pytest.mark.parametrize("q", [HALF, Fraction(2, 3)])
    def test_dimension_multiplicativity(self, q):
        for lam, mu in [(sig(1, 0), sig(1, 0)), (sig(2, 1, 0), sig(1, 1, 0))]:
            total = sum(
                c * qdim(nu, q) for nu, c in lr_coefficients(lam, mu).items()
            )
            assert total == qdim(lam, q) * qdim(mu, q)
