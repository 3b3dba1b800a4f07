import random
from fractions import Fraction

import pytest

from qchar import (
    BoundaryParam,
    CoherentFamily,
    LevelCharacter,
    Signature,
    ak_on_measure,
    ak_on_theta,
    cauchy_gap,
    cotransition,
    extreme_character,
    first_discrepancy,
    indecomposable,
    is_coherent,
    restrict,
    tensor,
    verify_corollary,
)

from helpers import iterated_restrict, random_character

HALF = Fraction(1, 2)
QS = (HALF, Fraction(2, 3), Fraction(3, 5), Fraction(99, 100))


def sig(*parts):
    return Signature(parts)


class TestExtremeCharacter:
    def test_constant_sequence_gives_the_rectangle(self):
        theta = BoundaryParam((), 2)
        for level, trunc in [(1, 1), (2, 5), (3, 9)]:
            approx = extreme_character(theta, level, trunc, HALF)
            assert approx.measure == indecomposable(
                Signature((2,) * level), HALF
            )

    def test_zero_sequence(self):
        approx = extreme_character(BoundaryParam((), 0), 2, 6, HALF)
        assert approx.measure == indecomposable(sig(0, 0), HALF)

    def test_frozen_two_step_pushdown(self):
        # theta = (0, 1, 1, ...): the level-3 prefix signature is (1, 1, 0)
        approx = extreme_character(BoundaryParam((0,), 1), 1, 3, HALF)
        assert approx.measure.weights == {
            sig(0): Fraction(16, 21),
            sig(1): Fraction(5, 21),
        }

    def test_truncation_below_level_rejected(self):
        with pytest.raises(ValueError):
            extreme_character(BoundaryParam((), 0), 3, 2, HALF)

    def test_approximants_form_a_coherent_family(self):
        theta = BoundaryParam((-1, 0), 2)
        trunc = 5
        measures = tuple(
            extreme_character(theta, level, trunc, HALF).measure
            for level in range(1, trunc + 1)
        )
        assert is_coherent(CoherentFamily(HALF, measures)).ok


class TestPushdownOracle:
    """The one-pass pushdown equals restricting one level at a time."""

    @staticmethod
    def oracle(theta, level, trunc, q):
        return iterated_restrict(indecomposable(theta.signature_at(trunc), q), level)

    def test_seeded_theta_sweep(self):
        rng = random.Random(2)
        for q in QS:
            for level in range(1, 5):
                for _ in range(5):
                    head = sorted(rng.randint(-3, 3) for _ in range(rng.randint(0, 4)))
                    theta = BoundaryParam(tuple(head), rng.randint(max(head, default=-3), 3))
                    trunc = rng.randint(level, 10)
                    got = extreme_character(theta, level, trunc, q).measure
                    assert got == self.oracle(theta, level, trunc, q), (theta, level, trunc, q)

    def test_truncation_equal_to_level_is_the_point_mass(self):
        theta = BoundaryParam((-2, 0), 3)
        for level in range(1, 5):
            approx = extreme_character(theta, level, level, HALF)
            assert approx.measure == indecomposable(theta.signature_at(level), HALF)

    def test_one_step_is_the_cotransition_row(self):
        for q in QS:
            for theta in (BoundaryParam((-3, -1, 0), 2), BoundaryParam((-1,), 4)):
                for level in range(1, 5):
                    row = cotransition(theta.signature_at(level + 1), q)
                    assert extreme_character(theta, level, level + 1, q).measure.weights == row

    def test_negative_parts(self):
        for q in QS:
            for theta in (BoundaryParam((-5, -4, -4), -1), BoundaryParam((-6,), -2)):
                for level, trunc in ((1, 6), (2, 7), (3, 5)):
                    got = extreme_character(theta, level, trunc, q).measure
                    assert got == self.oracle(theta, level, trunc, q)
                    assert all(max(s.parts) < 0 for s in got.weights)

    def test_pinned_parts_give_the_point_mass(self):
        # nu[i + L - N] == nu[i] for every target part: a constant prefix
        theta = BoundaryParam((-1, -1, -1), 2)
        assert extreme_character(theta, 2, 3, HALF).measure == indecomposable(sig(-1, -1), HALF)
        approx = extreme_character(BoundaryParam((), -3), 4, 10**5, HALF)
        assert approx.measure == indecomposable(sig(-3, -3, -3, -3), HALF)


class TestCauchyGap:
    def test_constant_sequence_has_zero_gap(self):
        for trunc in (2, 4, 7):
            assert cauchy_gap(BoundaryParam((), 1), 2, trunc, HALF) == 0

    def test_edge_case_truncation_equals_level(self):
        gap = cauchy_gap(BoundaryParam((0,), 1), 2, 2, HALF)
        assert gap >= 0

    def test_gaps_shrink_for_a_nonconstant_sequence(self):
        theta = BoundaryParam((0,), 1)
        gaps = [cauchy_gap(theta, 1, trunc, HALF) for trunc in range(3, 7)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


class TestAk:
    def test_on_theta(self):
        assert ak_on_theta(BoundaryParam((0,), 1), 0) == BoundaryParam((0,), 1)
        assert ak_on_theta(BoundaryParam((), 0), 2) == BoundaryParam((), 2)
        assert ak_on_theta(BoundaryParam((0,), 1), -1) == BoundaryParam((-1,), 0)

    def test_on_measure(self):
        assert ak_on_measure(indecomposable(sig(1, 0), HALF), 2) == indecomposable(
            sig(3, 2), HALF
        )
        mix = LevelCharacter(1, HALF, {sig(0): HALF, sig(1): HALF})
        assert ak_on_measure(mix, -1).weights == {sig(-1): HALF, sig(0): HALF}
        assert ak_on_measure(mix, 0) == mix

    def test_commutes_with_restriction(self):
        rng = random.Random(13)
        for _ in range(5):
            chi = random_character(3, HALF, rng)
            k = rng.randint(-2, 2)
            assert restrict(ak_on_measure(chi, k)) == ak_on_measure(restrict(chi), k)


class TestVerifyCorollary:
    def test_constant_sequence(self):
        report = verify_corollary(BoundaryParam((), 1), 4, 2, 6, HALF)
        assert report.ok
        assert report.gap == 0
        assert report.tensored == indecomposable(sig(5, 5), HALF)

    def test_nonconstant_sequence_exact_at_finite_truncation(self):
        report = verify_corollary(BoundaryParam((0,), 1), 3, 2, 10, HALF)
        assert report.ok
        assert report.gap == 0
        assert report.discrepancy is None

    def test_perturbed_measure_is_caught(self):
        base = extreme_character(BoundaryParam((0,), 1), 2, 6, HALF).measure
        support = base.support()
        a, b = support[0], support[1]
        swapped = dict(base.weights)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        perturbed = LevelCharacter(2, HALF, swapped)
        lhs = tensor(perturbed, indecomposable(sig(1, 1), HALF))
        rhs = ak_on_measure(base, 1)
        bad = first_discrepancy(lhs, rhs)
        assert bad is not None
