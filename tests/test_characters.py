import random
from fractions import Fraction

import pytest

from qchar import (
    EMPTY,
    CoherentFamily,
    LevelCharacter,
    Signature,
    cotransition,
    first_discrepancy,
    indecomposable,
    is_coherent,
    lr_coefficients,
    restrict,
    sgf_eval,
    sgf_eval_torus,
    tensor,
    total_variation,
)
from qchar.characters import _push
from qchar.jsonio import character_from_json, character_to_json

from helpers import (
    ascending,
    assert_stochastic,
    check_product,
    cotransition_oracle,
    iter_signatures,
    iterated_restrict,
    path_expectation,
    push_edge_oracle,
    random_character,
    random_points,
    restrict_oracle,
    sgf_eval_oracle,
    sgf_eval_torus_edge_oracle,
    sgf_eval_torus_oracle,
    tensor_oracle,
    total_variation_oracle,
    wq,
)

HALF = Fraction(1, 2)
QS = (HALF, Fraction(2, 3), Fraction(3, 5), Fraction(99, 100))


def sig(*parts):
    return Signature(parts)


def delta(q, *parts):
    return indecomposable(Signature(parts), q)


def push_down(weights, level, q):
    """The one-level `_push`, repeated down to `level`."""
    while next(iter(weights)).level > level:
        weights = _push(weights, q)
    return weights


class Third(Fraction):
    """A Fraction subclass, as a caller might pass for a weight."""


class TestLevelCharacter:
    def test_point_mass(self):
        chi = delta(HALF, 1, 0)
        assert chi.weights == {sig(1, 0): 1}

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            LevelCharacter(1, HALF, {sig(0): Fraction(1, 2)})

    @pytest.mark.parametrize("eps", [Fraction(1, 10**30), Fraction(-1, 10**30)])
    def test_weights_off_one_by_a_tiny_amount_rejected(self, eps):
        # three denominators, so the integer test needs a nontrivial lcm
        weights = {sig(0): Fraction(1, 3), sig(1): Fraction(1, 6), sig(2): HALF + eps}
        assert sum(weights.values()) == 1 + eps
        with pytest.raises(ValueError, match="sum to exactly 1"):
            LevelCharacter(1, HALF, weights)

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            LevelCharacter(1, HALF, {sig(0): 2, sig(1): -1})

    @pytest.mark.parametrize(
        "weights",
        [
            {sig(0): 1},
            {sig(0): 0.5, sig(1): 0.5},
            {sig(0): Third(1, 3), sig(1): Third(2, 3)},
            {sig(0): Third(1, 3), sig(1): 0.5, sig(2): Fraction(1, 6)},
        ],
        ids=["int", "float", "fraction-subclass", "mixed"],
    )
    def test_weights_are_stored_as_fractions(self, weights):
        chi = LevelCharacter(1, HALF, weights)
        assert all(type(w) is Fraction for w in chi.weights.values())
        assert chi.weights == {s: Fraction(w) for s, w in weights.items()}

    @pytest.mark.parametrize(
        "weights",
        [
            {sig(0): 0, sig(1): 1},
            {sig(0): -1, sig(1): 2},
            {sig(0): -0.5, sig(1): 1.5},
            {sig(0): Third(0), sig(1): Third(1)},
            {sig(0): Third(-1, 3), sig(1): Third(4, 3)},
        ],
        ids=["int-zero", "int-negative", "float-negative", "subclass-zero", "subclass-negative"],
    )
    def test_zero_and_negative_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="must be positive"):
            LevelCharacter(1, HALF, weights)

    def test_level_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LevelCharacter(2, HALF, {sig(0): 1})
        # the level is read with operator.index: a float is refused, and a
        # bool is the int the codec writes and reads back
        with pytest.raises(TypeError):
            LevelCharacter(2.0, HALF, {sig(1, 0): 1})
        chi = LevelCharacter(True, HALF, {sig(0): 1})
        assert type(chi.level) is int
        assert character_to_json(chi)["level"] == 1
        assert character_from_json(character_to_json(chi)) == chi


class TestWq:
    def test_examples(self):
        assert wq(sig(0), sig(0, 0), HALF) == 1
        assert wq(sig(1), sig(1, 0), HALF) == HALF
        assert wq(sig(1, 0), sig(1, 1, 0), HALF) == 2

    def test_non_interlacing_rejected(self):
        with pytest.raises(ValueError):
            wq(sig(2), sig(1, 0), HALF)


class TestCotransition:
    def test_forced_rows(self):
        assert cotransition(sig(0, 0), HALF) == {sig(0): 1}
        assert cotransition(sig(2, 2, 2), HALF) == {sig(2, 2): 1}

    def test_frozen_row(self):
        assert cotransition(sig(1, 0), HALF) == {
            sig(0): Fraction(4, 5),
            sig(1): Fraction(1, 5),
        }

    @pytest.mark.parametrize("q", [HALF, Fraction(2, 3)])
    def test_stochastic(self, q):
        for level in (1, 2, 3):
            for nu in iter_signatures(level, -2, 2):
                row = cotransition(nu, q)
                assert sum(row.values()) == 1
                assert all(p > 0 for p in row.values())


class TestRestrict:
    def test_point_mass(self):
        assert restrict(delta(HALF, 1, 0)).weights == {
            sig(0): Fraction(4, 5),
            sig(1): Fraction(1, 5),
        }

    def test_rectangle(self):
        assert restrict(delta(HALF, 3, 3)) == delta(HALF, 3)

    def test_linearity(self):
        mix = LevelCharacter(2, HALF, {sig(0, 0): HALF, sig(1, 1): HALF})
        assert restrict(mix).weights == {sig(0): HALF, sig(1): HALF}

    def test_level_one_goes_to_the_trivial_character(self):
        chi = restrict(delta(HALF, 4))
        assert chi.level == 0
        assert chi.weights == {EMPTY: 1}


class TestCoherence:
    def test_iterated_restriction_is_coherent(self):
        top = random_character(3, HALF, random.Random(5))
        mid = restrict(top)
        low = restrict(mid)
        family = CoherentFamily(HALF, (low, mid, top))
        assert is_coherent(family).ok

    def test_violation_is_located(self):
        family = CoherentFamily(HALF, (delta(HALF, 0), delta(HALF, 1, 0)))
        report = is_coherent(family)
        assert not report.ok
        assert report.level == 1
        assert report.sig == sig(0)

    def test_single_level_is_vacuous(self):
        assert is_coherent(CoherentFamily(HALF, (delta(HALF, 1),))).ok

    def test_q_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CoherentFamily(HALF, (indecomposable(sig(0), Fraction(2, 3)),))


def shared_run_character(level, q, rng):
    """A random measure whose signatures all start with the same part, in
    leading runs of different lengths, with negative parts below them."""
    first = rng.randint(-1, 3)
    support = set()
    for _ in range(rng.randint(1, 6)):
        run = rng.randint(1, level)
        rest = sorted((rng.randint(-3, first - 1) for _ in range(level - run)), reverse=True)
        support.add(Signature((first,) * run + tuple(rest)))
    support = sorted(support, key=lambda s: s.parts)
    raw = [Fraction(rng.randint(1, 9)) for _ in support]
    return LevelCharacter(level, q, {s: w / sum(raw) for s, w in zip(support, raw)})


class TestKernelWalker:
    """`cotransition` and `restrict` are one integer level step, `_push`;
    each is checked exactly against the per-entry Fraction oracles and,
    entry for entry, against the edge-loop walk, keys in ascending order of
    parts, one level at a time and repeated over many."""

    def test_cotransition_rows(self):
        rng = random.Random(3)
        for q in QS:
            for level in range(1, 5):
                for _ in range(12):
                    parts = sorted((rng.randint(-3, 3) for _ in range(level)), reverse=True)
                    nu = Signature(tuple(parts))
                    got, want = cotransition(nu, q), cotransition_oracle(nu, q)
                    assert list(got.items()) == list(want.items()), (nu, q)
                    edges = push_edge_oracle({nu: Fraction(1)}, level - 1, q)
                    assert list(got.items()) == ascending(edges), (nu, q)
                    assert all(type(p) is Fraction for p in got.values())

    def test_restrict_on_mixed_leading_parts(self):
        rng = random.Random(5)
        mixed = 0
        for q in QS:
            for level in range(1, 5):
                for _ in range(10):
                    chi = random_character(level, q, rng, max_support=12, lo=-3, hi=3)
                    got, want = restrict(chi), restrict_oracle(chi)
                    assert got == want, chi
                    assert list(got.weights.items()) == ascending(want.weights)
                    edges = push_edge_oracle(chi.weights, level - 1, q)
                    assert list(got.weights.items()) == ascending(edges)
                    mixed += len({nu.parts[0] for nu in chi.weights}) > 1
        assert mixed >= 50

    def test_restrict_on_shared_leading_runs(self):
        rng = random.Random(7)
        for q in QS:
            for level in range(1, 5):
                for _ in range(10):
                    chi = shared_run_character(level, q, rng)
                    got, want = restrict(chi), restrict_oracle(chi)
                    assert got == want, chi
                    assert list(got.weights.items()) == ascending(want.weights)
                    edges = push_edge_oracle(chi.weights, level - 1, q)
                    assert list(got.weights.items()) == ascending(edges)

    def test_many_levels_at_once(self):
        rng = random.Random(9)
        for q in QS:
            for _ in range(8):
                big = rng.randint(2, 6)
                if rng.random() < 0.5:
                    chi = shared_run_character(big, q, rng)
                else:
                    chi = random_character(big, q, rng, max_support=6, lo=-3, hi=3)
                level = rng.randint(0, big - 1)
                want = iterated_restrict(chi, level).weights
                got = push_down(chi.weights, level, q)
                assert list(got.items()) == ascending(want), (chi, level)
                assert list(got.items()) == ascending(push_edge_oracle(chi.weights, level, q))

    def test_edge_loop_on_wide_multi_signature_measures(self):
        # supports with mixed leading parts and with shared leading runs,
        # several levels down, where groups hold many states
        rng = random.Random(19)
        shared = 0
        for q in (HALF, Fraction(9, 10)):
            for big in range(2, 6):
                for _ in range(6):
                    if rng.random() < 0.5:
                        chi = shared_run_character(big, q, rng)
                        shared += 1
                    else:
                        chi = random_character(big, q, rng, max_support=15, lo=-4, hi=4)
                    for level in range(big):
                        got = push_down(chi.weights, level, q)
                        want = push_edge_oracle(chi.weights, level, q)
                        assert list(got.items()) == ascending(want), (chi, level)
        assert shared >= 10

    @pytest.mark.parametrize(
        "support",
        [
            [(0, 0), (5, 5)],
            [(4, 4, 4), (0, 0, 0), (2, 2, -3)],
            [(3, -3, -3), (3, 3, 3), (-2, -2, -2)],
            [(0, 0, 0, 0), (6, 1, 0, -4), (6, 6, -1, -1)],
        ],
    )
    def test_edge_loop_on_supports_with_gaps(self, support):
        # runs of sums that leave gaps in a row, or start below or end past
        # the part of the row already filled
        for q in (HALF, Fraction(9, 10)):
            weights = {Signature(p): Fraction(1, len(support)) for p in support}
            for level in range(len(support[0])):
                got = push_down(weights, level, q)
                assert list(got.items()) == ascending(push_edge_oracle(weights, level, q))

    def test_built_measures_are_stochastic(self):
        # restrict and tensor build their measures unchecked; check them here
        rng = random.Random(29)
        for q in QS:
            for level in range(1, 4):
                for _ in range(4):
                    chi = random_character(level, q, rng, max_support=8, lo=-3, hi=3)
                    assert_stochastic(restrict(chi))
                    assert_stochastic(tensor(chi, random_character(level, q, rng)))

    def test_level_zero_errors_are_unchanged(self):
        with pytest.raises(ValueError, match=r"^need a signature of level >= 1$"):
            cotransition(EMPTY, HALF)
        with pytest.raises(ValueError, match=r"^cannot restrict below level 0$"):
            restrict(indecomposable(EMPTY, HALF))

    def test_coherence_of_families_built_both_ways(self):
        rng = random.Random(13)
        broken_checked = 0
        for q in QS:
            for top in (
                shared_run_character(4, q, rng),
                random_character(4, q, rng, max_support=6, lo=-3, hi=3),
            ):
                for step in (restrict, restrict_oracle):
                    levels = [top]
                    while levels[0].level > 1:
                        levels.insert(0, step(levels[0]))
                    assert is_coherent(CoherentFamily(q, tuple(levels))).ok
                    # move the mass of the lex-first signature at level 2 onto
                    # a lex-larger one
                    a = levels[1].support()[0]
                    b = Signature((a.parts[0] + 1, a.parts[1]))
                    moved = dict(levels[1].weights)
                    moved[b] = moved.get(b, 0) + moved.pop(a)
                    levels[1] = LevelCharacter(2, q, moved)
                    report = is_coherent(CoherentFamily(q, tuple(levels)))
                    assert (report.ok, report.level, report.sig) == (False, 2, a)
                    broken_checked += 1
        assert broken_checked == 16


class TestTensor:
    def test_level_one_adds_labels(self):
        assert tensor(delta(HALF, 3), delta(HALF, -1)) == delta(HALF, 2)

    def test_level_zero_is_the_empty_point_mass(self):
        assert lr_coefficients(EMPTY, EMPTY) == {EMPTY: 1}
        assert tensor(delta(HALF), delta(HALF)) == delta(HALF)

    def test_frozen_level_two_fusion(self):
        chi = tensor(delta(HALF, 1, 0), delta(HALF, 1, 0))
        assert chi.weights == {
            sig(2, 0): Fraction(21, 25),
            sig(1, 1): Fraction(4, 25),
        }

    def test_rectangle_absorption(self):
        for k in (-2, 1, 3):
            lam = sig(2, 0, -1)
            rect = Signature((k,) * 3)
            assert tensor(delta(HALF, *lam.parts), indecomposable(rect, HALF)) == (
                indecomposable(Signature(tuple(p + k for p in lam.parts)), HALF)
            )

    def test_commutative_and_associative(self):
        rng = random.Random(11)
        a = random_character(2, HALF, rng)
        b = random_character(2, HALF, rng)
        c = random_character(2, HALF, rng)
        assert tensor(a, b) == tensor(b, a)
        assert tensor(tensor(a, b), c) == tensor(a, tensor(b, c))

    def test_mismatches_rejected(self):
        # levels are checked before q
        with pytest.raises(ValueError, match=r"^levels must agree: 1 != 2$"):
            tensor(delta(HALF, 0), delta(HALF, 0, 0))
        with pytest.raises(ValueError, match=r"^levels must agree: 1 != 2$"):
            tensor(delta(HALF, 0), delta(Fraction(2, 3), 0, 0))
        with pytest.raises(ValueError, match=r"^q must agree$"):
            tensor(delta(HALF, 0), indecomposable(sig(0), Fraction(2, 3)))

    def test_equals_the_fraction_oracle(self):
        # 1-3 signatures per side with negative parts; several (lam, mu) pairs
        # reach the same nu, so terms are added on a target already present.
        # The keys come in the oracle's order, the order nu is first reached
        rng = random.Random(29)
        repeated = 0
        for q in QS:
            for level in range(1, 5):
                for _ in range(6):
                    a = random_character(level, q, rng, max_support=3, lo=-3, hi=2)
                    b = random_character(level, q, rng, max_support=3, lo=-2, hi=1)
                    got, expected = tensor(a, b), tensor_oracle(a, b)
                    assert got == expected, (a, b)
                    assert list(got.weights) == list(expected.weights)
                    assert all(type(w) is Fraction for w in got.weights.values())
                    terms = sum(
                        len(lr_coefficients(lam, mu)) for lam in a.weights for mu in b.weights
                    )
                    repeated += terms > len(got.weights)
        assert repeated >= 20

    def test_restriction_intertwines_rectangle_tensoring(self):
        rng = random.Random(47)
        for k in (-1, 2):
            chi = random_character(3, HALF, rng)
            rect_up = indecomposable(Signature((k,) * 3), HALF)
            rect_down = indecomposable(Signature((k,) * 2), HALF)
            assert restrict(tensor(chi, rect_up)) == tensor(restrict(chi), rect_down)


class TestTotalVariation:
    def test_equals_the_fraction_oracle(self):
        rng = random.Random(31)
        for q in QS:
            for level in range(1, 5):
                for _ in range(8):
                    # overlapping and disjoint supports, negative parts
                    a = random_character(level, q, rng, max_support=3, lo=-3, hi=1)
                    b = random_character(level, q, rng, max_support=3, lo=-2, hi=2)
                    got = total_variation(a, b)
                    assert type(got) is Fraction
                    assert got == total_variation_oracle(a, b)
                    assert got == total_variation(b, a)
                    assert 0 <= got <= 1
                    assert total_variation(a, a) == 0

    def test_disjoint_supports_are_at_distance_one(self):
        for q in QS:
            assert total_variation(delta(q, 1, -2), delta(q, 0, -1)) == 1

    def test_frozen_value(self):
        a = LevelCharacter(1, HALF, {sig(0): Fraction(1, 3), sig(1): Fraction(2, 3)})
        b = LevelCharacter(1, HALF, {sig(1): Fraction(1, 4), sig(2): Fraction(3, 4)})
        # (1/3 + (2/3 - 1/4) + 3/4) / 2
        assert total_variation(a, b) == Fraction(3, 4)


class TestSgf:
    def test_trivial_character_is_constant_one(self):
        chi = delta(HALF, 0, 0)
        rng = random.Random(3)
        for _ in range(4):
            assert sgf_eval(chi, random_points(2, rng)) == 1

    def test_closed_form_for_a_point_mass(self):
        chi = delta(HALF, 1, 0)
        x = (Fraction(3, 7), Fraction(-5, 2))
        assert sgf_eval(chi, x) == (x[0] + x[1]) / (1 + HALF ** -2)
        with pytest.raises(ValueError, match=r"^need 2 points, got 1$"):
            sgf_eval(chi, x[:1])

    def test_normalization_point(self):
        rng = random.Random(17)
        for level in (1, 2, 3):
            chi = random_character(level, HALF, rng)
            pts = tuple(HALF ** (-2 * i) for i in range(level))
            assert sgf_eval(chi, pts) == 1

    def test_stability_under_restriction(self):
        rng = random.Random(23)
        for level in (2, 3):
            chi = random_character(level, HALF, rng)
            x = random_points(level - 1, rng)
            top = HALF ** (-2 * (level - 1))
            # the second point set repeats the top point (branching-rule path)
            for y in (x, (top,) + x[1:]):
                assert sgf_eval(chi, y + (top,)) == sgf_eval(restrict(chi), y)

    @pytest.mark.parametrize("q", [HALF, Fraction(9, 10), Fraction(99, 100)], ids=str)
    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_equals_the_fraction_oracle(self, level, q):
        rng = random.Random(700 + 10 * level + q.denominator)
        chars = [random_character(level, q, rng, max_support=8, lo=-3, hi=3) for _ in range(6)]
        if level == 4:
            # a support of 495 signatures, folded over one growing denominator
            everything = list(iter_signatures(4, -4, 4))
            raw = [rng.randint(1, 9) for _ in everything]
            total = sum(raw)
            weights = {lam: Fraction(w, total) for lam, w in zip(everything, raw)}
            chars.append(LevelCharacter(4, q, weights))
        for chi in chars:
            x = random_points(level, rng)
            # the second point set repeats its first point
            for pts in (x, x[:1] * level):
                assert sgf_eval(chi, pts) == sgf_eval_oracle(chi, pts)


class TestSgfTorus:
    def test_counit_point(self):
        chi = delta(HALF, 2, 1, 0)
        assert abs(sgf_eval_torus(chi, [1, 1, 1]) - 1) < 1e-12
        # the level-0 point mass at the empty signature pairs to 1 exactly
        assert sgf_eval_torus(delta(HALF), []) == 1
        assert sgf_eval(delta(HALF), []) == 1

    def test_rectangle_is_a_phase(self):
        chi = delta(HALF, 2, 2)
        z = [complex(0, 1), complex(-1, 0)]
        value = sgf_eval_torus(chi, z)
        assert abs(value - (z[0] * z[1]) ** 2) < 1e-12

    def test_frozen_value(self):
        value = sgf_eval_torus(delta(HALF, 1, 0), [1, -1])
        assert abs(value - (-0.6)) < 1e-12

    def test_off_torus_rejected(self):
        with pytest.raises(ValueError):
            sgf_eval_torus(delta(HALF, 1, 0), [2, 1])
        with pytest.raises(ValueError, match=r"^need 2 torus points, got 1$"):
            sgf_eval_torus(delta(HALF, 1, 0), [1])
        # a finite point whose modulus is past the float range, or not a number
        for z in (complex(1.5e308, 1.5e308), complex(1, float("nan")), complex(float("inf"), 0)):
            with pytest.raises(ValueError, match="^torus points must have unit modulus$"):
                sgf_eval_torus(delta(HALF, 1, 0), [z, 1])

    def test_points_are_tested_at_the_stated_bound(self):
        # TORUS_PRECISION = 1e-12: 5e-13 off the circle passes, 2e-12 off does not
        assert abs(sgf_eval_torus(delta(HALF, 2), [1 + 5e-13]) - 1) < 2e-12
        with pytest.raises(ValueError, match="^torus points must have unit modulus$"):
            sgf_eval_torus(delta(HALF, 2), [1 + 2e-12])

    def test_modulus_bound(self):
        rng = random.Random(31)
        import cmath

        chi = random_character(2, HALF, rng)
        for _ in range(50):
            z = [cmath.exp(2j * cmath.pi * rng.random()) for _ in range(2)]
            assert abs(sgf_eval_torus(chi, z)) <= 1 + 1e-12

    def test_sizes_far_apart(self):
        # |x_3|^40 = 10^320 at q = 1/100: powers of x_3 anchored at either size
        # would overflow at the other; in the second character the prefix row
        # (0, 0) at level 3 holds the sizes 0, -20 and -40
        import cmath

        third = Fraction(1, 3)
        for chi in [
            LevelCharacter(3, Fraction(1, 100), {sig(0, 0, 0): HALF, sig(0, 0, -40): HALF}),
            LevelCharacter(
                3, Fraction(1, 100),
                {sig(0, 0, 0): third, sig(0, 0, -20): third, sig(0, 0, -40): third},
            ),
        ]:
            rng = random.Random(37)
            zs = [[cmath.exp(2j * cmath.pi * rng.random()) for _ in range(3)] for _ in range(3)]
            for z in [[1, 1, 1]] + zs:
                assert abs(sgf_eval_torus(chi, z) - path_expectation(chi, z)) <= 1e-12

    def test_a_901_state_row_at_nine_tenths_matches_the_edge_oracle(self):
        # the level-2 row (0,) spans sizes 0 down to -900 at q = 9/10; unlike
        # at q = 1/100, no state is negligible, so a state lost or counted
        # twice along the row's running sum shows
        import cmath

        chi = LevelCharacter(2, Fraction(9, 10), {sig(0, -j): Fraction(1, 901) for j in range(901)})
        rng = random.Random(41)
        for z in ([1, 1], [cmath.exp(2j * cmath.pi * rng.random()) for _ in range(2)]):
            assert abs(sgf_eval_torus(chi, z) - sgf_eval_torus_edge_oracle(chi, z)) <= 1e-13

    @pytest.mark.parametrize("q", [HALF, Fraction(9, 10), Fraction(99, 100)], ids=str)
    def test_every_point_mass_of_a_wide_grid_answers(self, q):
        # every level-2 point mass with parts on the step-100 grid over
        # [-1000, 1000], every level-3 one of width <= 200, and (-512, -512),
        # subnormal at q = 1/2: the principal specializations of many leave
        # the float range, the scaled states do not; each level-2 mass also
        # meets the scaled edge walk
        import cmath

        grid = range(-1000, 1001, 100)
        sigs = [sig(a, b) for a in grid for b in grid if a >= b]
        sigs += [
            sig(a, b, c) for a in grid for b in grid for c in grid if a >= b >= c and a - c <= 200
        ]
        sigs.append(sig(-512, -512))
        assert len(sigs) == 350
        rng = random.Random(47)
        for lam in sigs:
            chi = indecomposable(lam, q)
            z = [cmath.exp(2j * cmath.pi * rng.random()) for _ in range(lam.level)]
            assert abs(sgf_eval_torus(chi, [1] * lam.level) - 1) <= 1e-12, lam
            value = sgf_eval_torus(chi, z)
            assert abs(value) <= 1 + 1e-12, lam
            if lam.level == 2:
                assert abs(value - sgf_eval_torus_edge_oracle(chi, z)) <= 1e-12, lam

    def test_mixed_support_at_a_small_q(self):
        # s_lam(1, 10^4) spans 10^320 at [80, 0] down to 10^-320 at [-80, -80]
        third = Fraction(1, 3)
        chi = LevelCharacter(
            2, Fraction(1, 100), {sig(80, 0): third, sig(-80, -80): third, sig(0, 0): third}
        )
        for z in (
            [(1, 0), (1, 0)],
            [(0, 1), (-1, 0)],
            [(Fraction(3, 5), Fraction(4, 5)), (Fraction(-4, 5), Fraction(3, 5))],
        ):
            re, im = sgf_eval_torus_oracle(chi, z)
            value = sgf_eval_torus(chi, [complex(a, b) for a, b in z])
            assert abs(value - complex(re, im)) <= 1e-12

    @pytest.mark.parametrize("q", [HALF, Fraction(9, 10), Fraction(99, 100)], ids=str)
    @pytest.mark.parametrize(
        "level, top",
        [(1, 3), (2, 3), (3, 3), (4, 3), (5, 3), (6, 3), (4, 6), (5, 6), (6, 6), (4, None)],
        ids=["1", "2", "3", "4", "5", "6", "4-wide", "5-wide", "6-wide", "4-broad"],
    )
    def test_prefix_rows_agree_with_the_edge_walk(self, level, top, q):
        # the running sums over prefix rows against the walk that adds each
        # state along every interlacing edge, at (1, ..., 1) and on the torus;
        # parts in [-6, 6] give rows that the sweeps merge many at a time.
        # With top None the input is the restriction of the level-5 point
        # mass (6, 3, 0, -3, -6): 256 states on 64 first-level rows whose
        # boxes overlap, each row's box holding many of the others
        import cmath

        if top is None:
            chi = restrict(indecomposable(sig(6, 3, 0, -3, -6), q))
            rng = random.Random(760 + q.denominator)
            points = [[1] * level] + [
                [cmath.exp(2j * cmath.pi * rng.random()) for _ in range(level)] for _ in range(2)
            ]
            for pts in points:
                assert abs(sgf_eval_torus(chi, pts) - sgf_eval_torus_edge_oracle(chi, pts)) <= 1e-13
            return
        rng = random.Random(700 + 10 * level + q.denominator + 1000 * (top - 3))
        for _ in range(8):
            chi = random_character(level, q, rng, lo=-top, hi=top)
            z = [cmath.exp(2j * cmath.pi * rng.random()) for _ in range(level)]
            for pts in ([1] * level, z):
                assert abs(sgf_eval_torus(chi, pts) - sgf_eval_torus_edge_oracle(chi, pts)) <= 1e-13

    @pytest.mark.parametrize(
        "parts, q, broad",
        [
            ((40, 20, 0, -20, -40), Fraction(99, 100), False),
            ((30, 10, 0, -10, -30), Fraction(999, 1000), False),
            ((30, 10, 0, -10, -30), 1 - Fraction(1, 10**12), False),
            ((1000, 0, -1000), 1 - Fraction(1, 10**12), False),
            ((12, 6, 0, -6, -12), Fraction(99, 100), True),
            ((12, 6, 0, -6, -12), Fraction(999, 1000), True),
        ],
        ids=[
            "level5-99/100",
            "level5-999/1000",
            "level5-1-1e-12",
            "level3-1-1e-12",
            "broad4-99/100",
            "broad4-999/1000",
        ],
    )
    def test_wide_point_masses_meet_the_bound(self, parts, q, broad):
        # up to 21^4 states a level below the support, far past the edge
        # oracle's reach, and q up to 1 - 10^-12; a broad input is the
        # point mass restricted once, 2401 states on 343 first-level rows
        import cmath

        chi = indecomposable(sig(*parts), q)
        if broad:
            chi = restrict(chi)
        assert abs(sgf_eval_torus(chi, [1] * chi.level) - 1) <= 1e-12
        rng = random.Random(53)
        for _ in range(3):
            z = [cmath.exp(2j * cmath.pi * rng.random()) for _ in range(chi.level)]
            assert abs(sgf_eval_torus(chi, z)) <= 1 + 1e-12

    # points of the unit circle with rational coordinates, from Pythagorean triples
    PYTHAGOREAN = [
        (Fraction(a, c), Fraction(b, c))
        for a, b, c in [(3, 4, 5), (5, -12, 13), (-8, 15, 17), (-20, -21, 29), (0, 1, 1)]
    ]

    @pytest.mark.parametrize("q", [HALF, Fraction(9, 10), Fraction(99, 100), Fraction(999, 1000)])
    @pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6])
    def test_exact_at_gaussian_rational_points(self, level, q):
        rng = random.Random(100 * level + q.denominator)
        # the oracle sums over patterns, so the parts shrink as the level grows
        top = 3 if level <= 3 else 1
        everything = list(iter_signatures(level, -top, top))
        share = Fraction(1, len(everything))
        uniform = LevelCharacter(level, q, {lam: share for lam in everything})
        if level == 4:
            top = 2
        for chi in [uniform] + [
            random_character(level, q, rng, lo=-top, hi=top) for _ in range(4)
        ]:
            for _ in range(2):
                z = [rng.choice(self.PYTHAGOREAN) for _ in range(level)]
                re, im = sgf_eval_torus_oracle(chi, z)
                assert re * re + im * im <= 1
                value = sgf_eval_torus(chi, [complex(a, b) for a, b in z])
                assert abs(value - complex(re, im)) <= 1e-12


class TestPathExpectation:
    """Both generating functions against the walk down the cotransition
    kernel in `helpers`, which computes no Schur value."""

    @pytest.mark.parametrize("q", [HALF, Fraction(2, 3), Fraction(9, 10)], ids=str)
    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_sgf_eval_is_the_path_expectation(self, level, q):
        rng = random.Random(500 + 10 * level + q.denominator)
        for _ in range(6):
            chi = random_character(level, q, rng, lo=-3, hi=3)
            x = random_points(level, rng)
            ys = [q ** (2 * n) * v for n, v in enumerate(x)]
            assert sgf_eval(chi, x) == path_expectation(chi, ys)

    @pytest.mark.parametrize("q", [HALF, Fraction(2, 3), Fraction(9, 10)], ids=str)
    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_sgf_eval_torus_is_the_path_expectation(self, level, q):
        import cmath

        rng = random.Random(600 + 10 * level + q.denominator)
        for _ in range(6):
            chi = random_character(level, q, rng, lo=-3, hi=3)
            z = [cmath.exp(2j * cmath.pi * rng.random()) for _ in range(level)]
            assert abs(sgf_eval_torus(chi, z) - path_expectation(chi, z)) <= 1e-12

    def test_reversed_variable_order_disagrees(self):
        # the path pins y_n to the level-n step: 4/5 y_2 + 1/5 y_1 for the
        # point mass at (1, 0), which is not symmetric in y_1 and y_2
        chi = delta(HALF, 1, 0)
        x = (Fraction(2), Fraction(3))
        ys = [x[0], HALF ** 2 * x[1]]
        assert sgf_eval(chi, x) == path_expectation(chi, ys) == 1
        assert path_expectation(chi, ys[::-1]) == Fraction(7, 4)


class TestCheckProduct:
    def test_tensor_output_passes(self):
        rng = random.Random(41)
        a = random_character(2, HALF, rng)
        b = random_character(2, HALF, rng)
        assert check_product(tensor(a, b), a, b, trials=10, seed=1)

    def test_trivial_case(self):
        chi = delta(HALF, 0, 0)
        assert check_product(chi, chi, chi)

    def test_wrong_product_fails(self):
        assert not check_product(
            delta(HALF, 1, 1), delta(HALF, 1, 0), delta(HALF, 1, 0), trials=5, seed=2
        )

    def test_discrepancy_helper(self):
        a = delta(HALF, 1, 1)
        b = tensor(delta(HALF, 1, 0), delta(HALF, 1, 0))
        assert first_discrepancy(a, b) == sig(1, 1)
        assert first_discrepancy(a, a) is None
