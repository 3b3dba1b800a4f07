import random
import sys
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
    extreme_character,
    first_discrepancy,
    indecomposable,
    is_coherent,
    restrict,
    tensor,
    verify_corollary,
)
from qchar import boundary
from qchar.boundary import CorollaryReport
from qchar.characters import _push, total_variation

from helpers import (
    ascending,
    assert_stochastic,
    cotransition_oracle,
    iterated_restrict,
    push_edge_oracle,
    random_character,
)

HALF = Fraction(1, 2)
QS = (HALF, Fraction(2, 3), Fraction(3, 5), Fraction(99, 100))


def sig(*parts):
    return Signature(parts)


def random_theta(rng):
    head = sorted(rng.randint(-3, 3) for _ in range(rng.randint(0, 4)))
    return BoundaryParam(tuple(head), rng.randint(head[-1] if head else -3, 3))


def corollary_with_full_scans(theta, k, level, trunc, q):
    """`verify_corollary` with both discrepancy scans and the total variation
    always taken; the tensor and the pushforward are looked up in `boundary`,
    as there."""
    base = extreme_character(theta, level, trunc, q).measure
    tensored = boundary.tensor(base, indecomposable(Signature((k,) * level), q))
    pushed = boundary.ak_on_measure(base, k)
    direct = extreme_character(ak_on_theta(theta, k), level, trunc, q).measure
    bad = first_discrepancy(tensored, direct)
    if bad is None:
        bad = first_discrepancy(tensored, pushed)
    return CorollaryReport(
        tensored.weights == pushed.weights == direct.weights,
        tensored,
        direct,
        total_variation(tensored, direct),
        bad,
    )


class TestExtremeCharacter:
    def test_constant_sequence_gives_the_rectangle(self, monkeypatch):
        # decided from theta alone: the prefix is neither built nor walked,
        # so every truncation answers, and so do the gap and the corollary
        def refuse(*args):
            raise AssertionError("a constant prefix was built or its determinant taken")

        monkeypatch.setattr(BoundaryParam, "signature_at", refuse)
        monkeypatch.setattr(boundary, "_approximant", refuse)
        theta = BoundaryParam((), 2)
        for level, trunc in [(1, 1), (2, 5), (3, 9), (4, 10**9)]:
            approx = extreme_character(theta, level, trunc, HALF)
            assert approx.measure == indecomposable(
                Signature((2,) * level), HALF
            )
        # constant up to the truncation, not beyond it
        approx = extreme_character(BoundaryParam((-1, -1, -1), 2), 2, 3, HALF)
        assert approx.measure == indecomposable(sig(-1, -1), HALF)
        assert cauchy_gap(theta, 3, 10**9, HALF) == 0
        report = verify_corollary(theta, 4, 2, 10**9, HALF)
        assert report.ok
        assert report.tensored == indecomposable(sig(6, 6), HALF)

    def test_truncation_at_the_level_is_the_point_mass(self, monkeypatch):
        # at L = N nothing is pushed down: the point mass at the prefix is
        # returned without taking a determinant, at any level
        def refuse(*args):
            raise AssertionError("a determinant was taken at L = N")

        monkeypatch.setattr(boundary, "_approximant", refuse)
        theta = BoundaryParam((-3, -1, 0, 2), 3)
        for q in (HALF, Fraction(2, 3)):
            for n in (1, 4, 5000):
                approx = extreme_character(theta, n, n, q)
                assert approx.measure == indecomposable(theta.signature_at(n), q)
            # the tensor of verify_corollary pays O(N^2) per qdim: small N only
            for n in (1, 4):
                assert verify_corollary(theta, 2, n, n, q).ok
            # a constant theta far past the level
            approx = extreme_character(BoundaryParam((), 3), 2, 10**6, q)
            assert approx.measure == indecomposable(sig(3, 3), q)

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
        # level and truncation are read with operator.index, constant theta or not
        for theta in (BoundaryParam((), 0), BoundaryParam((0,), 1)):
            with pytest.raises(TypeError):
                extreme_character(theta, 1, 3.0, HALF)
            with pytest.raises(TypeError):
                extreme_character(theta, 1.0, 3, HALF)
            # no signature has more than sys.maxsize parts
            big = sys.maxsize + 1
            with pytest.raises(ValueError, match=r"^level \d+ is beyond the longest signature"):
                extreme_character(theta, big, big, HALF)

    def test_approximants_form_a_coherent_family(self):
        theta = BoundaryParam((-1, 0), 2)
        trunc = 5
        measures = tuple(
            extreme_character(theta, level, trunc, HALF).measure
            for level in range(1, trunc + 1)
        )
        assert is_coherent(CoherentFamily(HALF, measures)).ok


class TestPushdownOracle:
    """The determinant approximant equals restricting one level at a time,
    and the edge-loop walk entry for entry, in ascending order of parts."""

    @staticmethod
    def oracle(theta, level, trunc, q):
        return iterated_restrict(indecomposable(theta.signature_at(trunc), q), level)

    @staticmethod
    def assert_edge_loop(theta, level, trunc, q, got):
        start = {theta.signature_at(trunc): Fraction(1)}
        want = push_edge_oracle(start, level, q)
        assert list(got.weights.items()) == ascending(want), (theta, level, trunc, q)

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
                    self.assert_edge_loop(theta, level, trunc, q, got)

    def test_arbitrary_start_signatures(self):
        # any nu is the prefix of theta = (nu_L, ..., nu_2 | nu_1) at L = len(nu):
        # leading runs of every length
        rng = random.Random(17)
        for q in QS:
            for _ in range(15):
                big = rng.randint(2, 7)
                parts = sorted((rng.randint(-3, 3) for _ in range(big)), reverse=True)
                nu = Signature(tuple(parts))
                theta = BoundaryParam(tuple(reversed(parts[1:])), parts[0])
                assert theta.signature_at(big) == nu
                level = rng.randint(1, big - 1)
                want = iterated_restrict(indecomposable(nu, q), level).weights
                got = extreme_character(theta, level, big, q).measure.weights
                assert got == want, (nu, level, q)
                edges = push_edge_oracle({nu: Fraction(1)}, level, q)
                assert list(got.items()) == ascending(edges), (nu, level, q)

    def test_long_pinned_run(self):
        # at L = 30 the walk carries only the parts after the pinned tail value
        theta = BoundaryParam((-2, 0, 1), 2)
        for q in (HALF, Fraction(99, 100)):
            for level in (1, 2, 3):
                got = extreme_character(theta, level, 30, q).measure
                assert got == self.oracle(theta, level, 30, q), (level, q)
                self.assert_edge_loop(theta, level, 30, q, got)

    @pytest.mark.parametrize("trunc", range(6, 11))
    def test_wide_theta_at_level_three(self, trunc):
        # theta = (-10, -5, 0, 5 | 10): interlacing boxes up to 21 wide
        theta = BoundaryParam((-10, -5, 0, 5), 10)
        for q in (HALF, Fraction(9, 10)):
            got = extreme_character(theta, 3, trunc, q).measure
            self.assert_edge_loop(theta, 3, trunc, q, got)

    def test_truncation_equal_to_level_is_the_point_mass(self):
        theta = BoundaryParam((-2, 0), 3)
        for level in range(1, 5):
            approx = extreme_character(theta, level, level, HALF)
            assert approx.measure == indecomposable(theta.signature_at(level), HALF)

    def test_one_step_is_the_cotransition_row(self):
        for q in QS:
            for theta in (BoundaryParam((-3, -1, 0), 2), BoundaryParam((-1,), 4)):
                for level in range(1, 5):
                    row = cotransition_oracle(theta.signature_at(level + 1), q)
                    assert extreme_character(theta, level, level + 1, q).measure.weights == row

    def test_negative_parts(self):
        for q in QS:
            for theta in (BoundaryParam((-5, -4, -4), -1), BoundaryParam((-6,), -2)):
                for level, trunc in ((1, 6), (2, 7), (3, 5)):
                    got = extreme_character(theta, level, trunc, q).measure
                    assert got == self.oracle(theta, level, trunc, q)
                    assert all(max(s.parts) < 0 for s in got.weights)
                    self.assert_edge_loop(theta, level, trunc, q, got)

    def test_built_measures_are_stochastic(self):
        # extreme_character and ak_on_measure build their measures unchecked
        rng = random.Random(31)
        for q in QS:
            for level in range(1, 4):
                for _ in range(4):
                    theta = random_theta(rng)
                    chi = extreme_character(theta, level, rng.randint(level, 8), q).measure
                    assert_stochastic(chi)
                    assert_stochastic(ak_on_measure(chi, rng.randint(-3, 3)))

    def test_pinned_parts_give_the_point_mass(self):
        # a single rectangle nu, as `restrict` and `cotransition` reach the
        # one-level push, is its own point mass one level below; a
        # non-rectangle is pushed
        for parts in [(-1, -1, -1), (-3,) * 6, (5,)]:
            got = _push({Signature(parts): Fraction(1)}, HALF)
            assert got == {Signature(parts[:-1]): 1}
        assert len(_push({sig(0, -1, -1): Fraction(1)}, HALF)) == 2
        assert restrict(indecomposable(sig(2, 2), HALF)) == indecomposable(sig(2), HALF)
        # a prefix at its own level is its point mass, by the determinant too
        theta = BoundaryParam((-3, -1), 0)
        approx = extreme_character(theta, 3, 3, HALF)
        assert approx.measure.weights == {sig(0, -1, -3): 1}


class TestDeterminant:
    """The skew Jacobi-Trudi approximant on heads of 1-6 entries, levels 1-5
    and truncations from the level up to 12, entry for entry against the
    edge-loop walk in ascending order of parts, and coherent across levels."""

    QS = (HALF, Fraction(2, 3), Fraction(9, 10))

    @staticmethod
    def cases(rng, q):
        for size in range(1, 7):
            for level in range(1, 6):
                head = tuple(sorted(rng.randint(-3, 2) for _ in range(size)))
                theta = BoundaryParam(head, rng.randint(head[-1] + 1, 3))
                # the level itself, one inside the head where there is room
                # (a prefix shorter than the head), and one up to 12
                truncs = {level, rng.randint(level, 12)}
                if level < size:
                    truncs.add(rng.randint(level, size))
                for trunc in sorted(truncs):
                    if theta.entry(1) != theta.entry(trunc):
                        yield theta, level, trunc

    @pytest.mark.parametrize("q", QS, ids=str)
    def test_against_the_edge_loop(self, q):
        rng = random.Random(41)
        short = at_level = 0
        for theta, level, trunc in self.cases(rng, q):
            got = extreme_character(theta, level, trunc, q).measure
            assert_stochastic(got)
            want = push_edge_oracle({theta.signature_at(trunc): Fraction(1)}, level, q)
            assert list(got.weights.items()) == ascending(want), (theta, level, trunc)
            short += trunc <= len(theta.head)
            at_level += trunc == level
        assert short >= 5 and at_level >= 5

    @pytest.mark.parametrize("q", QS, ids=str)
    def test_narrow_heads_against_the_edge_loop(self, q):
        # heads of small spread, where c - theta_1 < min(level, h) and the
        # dual determinant, of size c - theta_1, is the smaller one
        rng = random.Random(53)
        dual = 0
        for _ in range(100):
            head = tuple(sorted(rng.randint(-2, 1) for _ in range(rng.randint(3, 9))))
            theta = BoundaryParam(head, rng.randint(head[-1] + 1, 2))
            level = rng.randint(1, 6)
            trunc = rng.randint(level, 12)
            first, top = theta.entry(1), theta.entry(trunc)
            if first == top:
                continue
            got = extreme_character(theta, level, trunc, q).measure
            want = push_edge_oracle({theta.signature_at(trunc): Fraction(1)}, level, q)
            assert list(got.weights.items()) == ascending(want), (theta, level, trunc)
            below = sum(x < top for x in theta.head[:trunc])
            dual += trunc > level and top - first < min(level, below)
        assert dual >= 25

    @pytest.mark.parametrize("q", QS, ids=str)
    def test_restriction_is_the_level_below(self, q):
        rng = random.Random(43)
        for theta, level, trunc in self.cases(rng, q):
            if level < trunc:
                upper = extreme_character(theta, level + 1, trunc, q).measure
                assert restrict(upper) == extreme_character(theta, level, trunc, q).measure

    @pytest.mark.parametrize(
        "head, tail, level, trunc",
        [
            # 20 zeros below theta_L = 1: a 20 x 20 determinant whose columns
            # but the last are pinned, at L = 21, or mostly pinned, at L = 25
            ((0,) * 20, 1, 20, 21),
            ((0,) * 20, 1, 20, 25),
            # and all 20 moving, over a support of 21 signatures
            ((0,) * 20, 1, 20, 40),
            # pinned columns below, between and beside the moving ones
            ((-2, 0, 0, 0, 0), 1, 4, 7),
            ((-1, -1, 0, 0, 0, 1, 1), 2, 5, 6),
            ((-1, -1, 0, 0, 0, 1, 1), 2, 6, 8),
            ((-2, -1, -1) + (0,) * 12 + (1, 1), 2, 15, 18),
            # each form at L = N + 1 and past it, its second moving row (a
            # column, in the dual) emptied on part of the support: the h x h
            # one at alpha = (4, 2), the dual at alpha = (2, 2, 1, 1)
            ((-2, 0), 2, 2, 3),
            ((-2, 0), 2, 2, 5),
            ((0, 0, 1, 1), 2, 4, 5),
            ((0, 0, 1, 1), 2, 3, 7),
        ],
    )
    def test_runs_of_equal_head_entries(self, head, tail, level, trunc):
        theta = BoundaryParam(head, tail)
        for q in self.QS:
            got = extreme_character(theta, level, trunc, q).measure
            want = push_edge_oracle({theta.signature_at(trunc): Fraction(1)}, level, q)
            assert list(got.weights.items()) == ascending(want), q

    def test_long_prefixes_match_the_walk(self):
        # the determinant does not grow with L; the walk checks it at L = 40
        theta = BoundaryParam((-2, 0, 1), 2)
        for level in (1, 2, 3):
            got = extreme_character(theta, level, 40, Fraction(2, 3)).measure
            want = push_edge_oracle({theta.signature_at(40): Fraction(1)}, level, Fraction(2, 3))
            assert list(got.weights.items()) == ascending(want), level


class TestPrintable:
    """`check_printable` refuses only approximants that hold an integer past
    Python's int-to-str digit limit."""

    def test_the_least_weight_is_a_multiple_of_the_bound(self):
        # the proof's claim: qd^F divides the reduced numerator of the least
        # signature's weight, F = 2 (theta_L - theta_1)(L - N - h + 1)
        rng = random.Random(47)
        checked = 0
        for _ in range(60):
            theta = random_theta(rng)
            level = rng.randint(1, 4)
            trunc = rng.randint(level, 14)
            q = rng.choice((HALF, Fraction(2, 3), Fraction(3, 10)))
            first, top = theta.entry(1), theta.entry(trunc)
            h = sum(x < top for x in theta.head[:trunc])
            if first == top or trunc - level < h:
                continue
            fall = 2 * (top - first) * (trunc - level - h + 1)
            chi = extreme_character(theta, level, trunc, q).measure
            weight = chi.weights[chi.support()[0]]
            assert weight.numerator % q.denominator ** fall == 0, (theta, level, trunc, q)
            checked += 1
        assert checked >= 20

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no limit on int-to-str digits"
    )
    def test_the_edge(self):
        # theta = (0 | 1) at level 1 and q = 1/10: the least weight is
        # 100^M / ((100^(M+1) - 1) / 99), so the bound is tight
        theta, tenth = BoundaryParam((0,), 1), Fraction(1, 10)
        limit = sys.get_int_max_str_digits()
        edge = 1 + (limit + 1) // 2  # the least truncation refused
        with pytest.raises(ValueError, match=f"more than {limit} digits"):
            boundary.check_printable(theta, 1, edge, tenth)
        past = extreme_character(theta, 1, edge, tenth).measure.weights.values()
        assert max(max(w.numerator, w.denominator) for w in past) >= 10**limit
        boundary.check_printable(theta, 1, edge - 1, tenth)
        inside = extreme_character(theta, 1, edge - 1, tenth).measure.weights.values()
        assert max(max(w.numerator, w.denominator) for w in inside) < 10**limit
        # constant prefixes, short gaps and no limit are never refused
        boundary.check_printable(BoundaryParam((), 1), 1, 10**9, tenth)
        boundary.check_printable(BoundaryParam((0,) * 9, 1), 1, 10, tenth)
        sys.set_int_max_str_digits(0)
        try:
            boundary.check_printable(theta, 1, 10**9, tenth)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_arguments_are_checked_first(self):
        theta = BoundaryParam((0,), 1)
        with pytest.raises(ValueError, match="^level must be at least 1$"):
            boundary.check_printable(theta, 0, 10**9, HALF)
        with pytest.raises(ValueError, match="must be >= level"):
            boundary.check_printable(theta, 5, 4, HALF)
        with pytest.raises(ValueError, match="q must lie strictly between 0 and 1"):
            boundary.check_printable(theta, 1, 10**9, Fraction(1))


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

    def test_equals_the_full_scans_on_seeded_theta(self):
        rng = random.Random(23)
        for _ in range(12):
            theta, q = random_theta(rng), rng.choice(QS)
            k, level = rng.randint(-2, 2), rng.randint(1, 3)
            trunc = level + rng.randint(0, 3)
            report = verify_corollary(theta, k, level, trunc, q)
            assert report.ok
            assert report == corollary_with_full_scans(theta, k, level, trunc, q)
            assert type(report.gap) is Fraction

    def test_perturbed_tensor_names_the_first_discrepancy_and_the_gap(self, monkeypatch):
        # move a share of the first support point's mass to a point just above
        # it, in the tensor product or else in the k-shift pushforward: the
        # first discrepancy is that point, and the gap, taken between the
        # tensor product and the shifted parameter's approximant, is the share
        # moved or 0
        for name in ("tensor", "ak_on_measure"):
            original, last = getattr(boundary, name), []

            def perturbed(*args):
                chi = original(*args)
                first = chi.support()[0]
                above = Signature((first.parts[0] + 1,) + first.parts[1:])
                weights = dict(chi.weights)
                moved = weights[first] / 3
                weights[first] -= moved
                weights[above] = weights.get(above, Fraction(0)) + moved
                last[:] = [first, moved]
                return LevelCharacter(chi.level, chi.q, weights)

            monkeypatch.setattr(boundary, name, perturbed)
            rng = random.Random(29)
            for _ in range(8):
                theta, q = random_theta(rng), rng.choice(QS)
                k, level = rng.randint(-2, 2), rng.randint(1, 3)
                trunc = level + rng.randint(0, 3)
                report = verify_corollary(theta, k, level, trunc, q)
                first, moved = last
                assert not report.ok
                assert report.discrepancy == first
                assert report.gap == (moved if name == "tensor" else 0)
                assert report == corollary_with_full_scans(theta, k, level, trunc, q)
            monkeypatch.undo()
