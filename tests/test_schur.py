import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qchar import (
    EMPTY,
    Signature,
    check_q,
    dimension,
    enumerate_down,
    indecomposable,
    lr_coefficients,
    qdim,
    schur_eval,
    sgf_eval,
    shift,
)

from qchar import schur
from qchar.jsonio import MAX_PART
from qchar.schur import _principal_pair, _qdim_pair

from helpers import (
    iter_signatures,
    lr_by_subtraction,
    principal_specialization,
    qbracket,
    random_character,
    random_points,
    schur_eval_bialternant,
    schur_eval_branching_oracle,
    schur_eval_gt_oracle,
)

HALF = Fraction(1, 2)


def sig(*parts):
    return Signature(parts)


class TestCheckQ:
    @pytest.mark.parametrize("q", [HALF, Fraction(99, 100), Fraction(1, 10 ** 30), 0.5, "2/3"])
    def test_accepts_the_open_interval(self, q):
        out = check_q(q)
        assert type(out) is Fraction and out == Fraction(q)

    def test_a_fraction_comes_back_unchanged(self):
        assert check_q(HALF) is HALF

    def test_a_fraction_subclass_becomes_a_fraction(self):
        class Half(Fraction):
            pass

        out = check_q(Half(1, 2))
        assert type(out) is Fraction and out == HALF

    @pytest.mark.parametrize(
        "q", [0, 1, Fraction(2, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, -2), -0.5, 1.5]
    )
    def test_rejects_the_rest(self, q):
        with pytest.raises(ValueError, match="q must lie strictly between 0 and 1"):
            check_q(q)


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
        with pytest.raises(ValueError, match=r"^need 1 points for a level-1 signature, got 2$"):
            schur_eval(sig(1), (1, 2))

    def test_zero_point_rejected(self):
        with pytest.raises(ValueError):
            schur_eval(sig(1, 0), (0, 1))

    def test_repeated_points_fall_back_to_pattern_sum(self):
        # coincident points take the same Jacobi-Trudi path; the pattern sum is the reference
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


class TestIntegerEvaluator:
    # points go over one common denominator and the Schur value is computed
    # in integers; the pattern sum is the oracle, by exact equality
    POINTS = {
        "different-denominators": ("1/2", "-2/3", "5/7", "9/4"),
        "negative": ("-1", "-3/5", "-7/2", "-2/9"),
        "opposite-pairs": ("1/3", "-1/3", "5/2", "-5/2"),
        "equal-values-written-differently": ("1/2", "2/4", "3/6", "-3"),
    }

    @pytest.mark.parametrize("points", list(POINTS.values()), ids=list(POINTS))
    def test_agrees_with_the_pattern_sum(self, points):
        assert schur_eval(EMPTY, points[:0]) == 1
        last_parts = set()
        for level in range(1, 5):
            pts = points[:level]
            for lam in iter_signatures(level, -2, 3 if level < 4 else 2):
                assert schur_eval(lam, pts) == schur_eval_gt_oracle(lam, pts)
                last_parts.add(lam.parts[-1])
        assert min(last_parts) < 0 < max(last_parts)

    def test_sgf_eval_is_the_per_signature_sum(self):
        rng = random.Random(20261018)
        for level in range(1, 5):
            for q in (HALF, Fraction(2, 3), Fraction(99, 100)):
                chi = random_character(level, q, rng, max_support=5)
                pts = random_points(level, rng)
                while len(set(pts)) < level:
                    pts = random_points(level, rng)
                expected = sum(
                    p * schur_eval_gt_oracle(lam, pts) / principal_specialization(lam, q)
                    for lam, p in chi.weights.items()
                )
                assert sgf_eval(chi, pts) == expected

    @pytest.mark.parametrize("points", [(0, 1), ("0/5", 2), (0, 0), (3, 3, "0")])
    def test_zero_points_raise(self, points):
        lam = Signature((1,) + (0,) * (len(points) - 1))
        with pytest.raises(ValueError, match="nonzero"):
            schur_eval(lam, points)
        with pytest.raises(ValueError, match="nonzero"):
            sgf_eval(indecomposable(lam, HALF), points)


def random_signature(level: int, bound: int, rng: random.Random) -> Signature:
    return Signature(sorted((rng.randint(-bound, bound) for _ in range(level)), reverse=True))


class TestJacobiTrudi:
    # one Jacobi-Trudi path serves every point set; at large parts each
    # point set has its own independent oracle

    @pytest.mark.parametrize("x", [Fraction(-7, 9), HALF, Fraction(3)])
    def test_all_equal_points_large_parts(self, x):
        # s_lam(x, ..., x) = x^|lam| dim(lam)
        rng = random.Random(20261018)
        for level in range(1, 6):
            sigs = [random_signature(level, MAX_PART, rng) for _ in range(4)]
            if level > 1:
                sigs.append(Signature((MAX_PART,) + (0,) * (level - 2) + (-MAX_PART,)))
            for lam in sigs:
                assert schur_eval(lam, (x,) * level) == x ** lam.size * dimension(lam)

    @pytest.mark.parametrize(
        "x, y", [(HALF, Fraction(-7, 9)), (Fraction(-2, 3), Fraction(2, 3)), (Fraction(5, 4), 3)]
    )
    def test_mixed_coincident_points(self, x, y):
        rng = random.Random(7)
        sigs = [Signature((60, 0, -60)), Signature((60, 60, 0)), Signature((0, -30, -60))]
        sigs += [random_signature(3, 60, rng) for _ in range(4)]
        for lam in sigs:
            for pts in ((x, x, y), (x, y, x), (y, x, x)):
                assert schur_eval(lam, pts) == schur_eval_branching_oracle(lam, pts)

    def test_distinct_points_near_the_limit(self):
        rng = random.Random(11)
        for level in (2, 3, 4):
            for _ in range(4):
                lam = Signature(
                    sorted(
                        (rng.choice((1, -1)) * rng.randint(MAX_PART - 20, MAX_PART)
                         for _ in range(level)),
                        reverse=True,
                    )
                )
                pts = random_points(level, rng)
                while len(set(pts)) < level:
                    pts = random_points(level, rng)
                assert schur_eval(lam, pts) == schur_eval_bialternant(lam, pts)

    def test_oracles_agree_at_small_parts(self):
        rng = random.Random(3)
        for level in (1, 2, 3):
            for lam in iter_signatures(level, -2, 2):
                pts = random_points(level, rng)
                expected = schur_eval_gt_oracle(lam, pts)
                assert schur_eval_branching_oracle(lam, pts) == expected
                if len(set(pts)) == level:
                    assert schur_eval_bialternant(lam, pts) == expected


class TestPrincipalSpecialization:
    def test_frozen_values(self):
        for parts, value in (((0, 0, 0), 1), ((1, 0), 5), ((1, 1), 4)):
            assert principal_specialization(sig(*parts), HALF) == value
            assert Fraction(*_principal_pair(parts, 1, 2)) == value


class TestQDim:
    def test_rectangles_are_one(self):
        for k in (-2, 0, 3):
            assert qdim(sig(k, k, k), HALF) == 1

    def test_frozen_values(self):
        assert qdim(sig(1, 0), HALF) == Fraction(5, 2)
        assert qdim(sig(1, 1, 0), HALF) == Fraction(21, 4)

    @pytest.mark.parametrize("q", [HALF, Fraction(2, 3), Fraction(3, 5), Fraction(99, 100)])
    def test_equals_the_bracket_product(self, q):
        # long runs of equal parts, as in approximants of eventually constant
        # sequences, where most brackets cancel in pairs
        runs = [
            (1,) * (level - 2) + (0, -2) for level in (6, 17, 40)
        ] + [
            (5,) + (2,) * (level // 2) + (0,) * (level - 1 - level // 2) for level in (9, 40)
        ] + [(3,) * 13 + (1,) * 14 + (-1,) * 13, (4,) * 40, (2, 2) + (-3,) * 38]
        small = [
            lam for level in range(1, 6) for lam in iter_signatures(level, -3, 3 if level < 5 else 1)
        ]
        for lam in small + [Signature(parts) for parts in runs]:
            p, level = lam.parts, lam.level
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


class TestQDimPair:
    """The integer pair behind qdim and the principal specialization."""

    QS = [HALF, Fraction(2, 3), Fraction(99, 100)]

    @staticmethod
    def random_signatures(seed):
        # a few distinct values, negative ones included, repeated in long
        # runs, at every level 1..8
        rng = random.Random(seed)
        out = []
        for level in range(1, 9):
            for _ in range(12):
                values = rng.sample(range(-6, 7), rng.randint(1, min(level, 4)))
                parts = sorted(rng.choices(values, k=level), reverse=True)
                out.append(Signature(parts))
        out += [sig(*(3,) * 8), sig(5, 2, 2, 2, 2, 2, 2, -4), sig(*(-1,) * 7 + (-6,))]
        return out

    @pytest.mark.parametrize("q", QS)
    def test_reduced_pair_is_the_bracket_product(self, q):
        for lam in self.random_signatures(7):
            num, den = _qdim_pair(lam.parts, q.numerator, q.denominator)
            assert type(num) is int and type(den) is int and num > 0 and den > 0
            p, level = lam.parts, lam.level
            expected = Fraction(1)
            for i in range(level):
                for j in range(i + 1, level):
                    expected *= qbracket(p[i] - p[j] + j - i, q) / qbracket(j - i, q)
            assert Fraction(num, den) == expected == qdim(lam, q)

    @pytest.mark.parametrize("q", QS)
    def test_principal_pair_is_the_schur_value(self, q):
        for lam in self.random_signatures(11):
            num, den = _principal_pair(lam.parts, q.numerator, q.denominator)
            assert num > 0 and den > 0
            pts = tuple(q ** (-2 * i) for i in range(lam.level))
            assert Fraction(num, den) == schur_eval(lam, pts)

    def test_public_qdim_keeps_its_cache_info(self):
        before = schur.qdim.cache_info()
        value = qdim(sig(2, 1, 0), Fraction(1, 3))
        assert qdim(sig(2, 1, 0), Fraction(1, 3)) is value
        after = schur.qdim.cache_info()
        assert after.hits >= before.hits + 1
        assert after.currsize >= 1
        assert type(value) is Fraction


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
            (sig(2, 1, 0, 0), sig(1, 1, 0, 0)),
            (sig(2, 1, 0, -1), sig(2, 0, 0, -1)),
        ]:
            assert lr_coefficients(lam, mu) == lr_by_subtraction(lam, mu)

    def test_product_identity_at_random_points(self):
        # seeded signature pairs at levels 1-5; the Jacobi-Trudi evaluator
        # shares no code with the tableau rule
        rng = random.Random(99)

        def draw(level):
            return sig(*sorted((rng.randint(-2, 6) for _ in range(level)), reverse=True))

        pairs = [(sig(2, 0), sig(1, 1)), (sig(1, 0, -1), sig(2, 1, 1))]
        for level in [rng.randint(1, 5) for _ in range(150)]:
            pairs.append((draw(level), draw(level)))
        for lam, mu in pairs:
            coeffs = lr_coefficients(lam, mu)
            for _ in range(2):
                pts = random_points(lam.level, rng)
                lhs = sum(c * schur_eval(nu, pts) for nu, c in coeffs.items())
                assert lhs == schur_eval(lam, pts) * schur_eval(mu, pts), (lam, mu)

    @pytest.mark.parametrize("q", [HALF, Fraction(2, 3)])
    def test_dimension_multiplicativity(self, q):
        for lam, mu in [(sig(1, 0), sig(1, 0)), (sig(2, 1, 0), sig(1, 1, 0))]:
            total = sum(
                c * qdim(nu, q) for nu, c in lr_coefficients(lam, mu).items()
            )
            assert total == qdim(lam, q) * qdim(mu, q)
