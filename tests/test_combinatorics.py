import pytest
from hypothesis import given, strategies as st

from qchar import (
    EMPTY,
    BoundaryParam,
    GTPattern,
    Signature,
    dimension,
    enumerate_down,
    enumerate_gt_patterns,
    shift,
    weight,
)

from helpers import count_ssyt, interlaces, iter_signatures


def sig(*parts):
    return Signature(parts)


class TestSignature:
    def test_rejects_increasing_parts(self):
        with pytest.raises(ValueError):
            sig(1, 2)

    def test_empty_signature_is_a_value(self):
        assert EMPTY.level == 0
        assert EMPTY.size == 0
        assert str(EMPTY) == "*"

    def test_size(self):
        assert sig(2, 1, -1).size == 2


class TestInterlaces:
    def test_examples(self):
        assert interlaces(sig(1, 0), sig(2, 1, 0))
        assert not interlaces(sig(2), sig(1, 0))
        assert interlaces(EMPTY, sig(-5))

    def test_level_mismatch_rejected(self):
        with pytest.raises(ValueError):
            interlaces(sig(1), sig(2, 1, 0))

    @given(
        st.integers(-3, 3),
        st.lists(st.integers(-3, 3), min_size=3, max_size=3),
        st.lists(st.integers(-3, 3), min_size=2, max_size=2),
    )
    def test_shift_equivariance(self, k, nu_raw, lam_raw):
        nu = Signature(tuple(sorted(nu_raw, reverse=True)))
        lam = Signature(tuple(sorted(lam_raw, reverse=True)))
        assert interlaces(lam, nu) == interlaces(shift(lam, k), shift(nu, k))


class TestEnumerateDown:
    @pytest.mark.parametrize(
        "upper, expected",
        [
            (sig(1, 0), [sig(0), sig(1)]),
            (sig(1, 1), [sig(1)]),
            (sig(2, 0), [sig(0), sig(1), sig(2)]),
            (sig(3), [EMPTY]),
        ],
    )
    def test_examples(self, upper, expected):
        assert list(enumerate_down(upper)) == expected

    def test_count_and_order(self):
        for level in (1, 2, 3, 4):
            for nu in iter_signatures(level, -3, 3):
                down = list(enumerate_down(nu))
                expected = 1
                for k in range(level - 1):
                    expected *= nu.parts[k] - nu.parts[k + 1] + 1
                assert len(down) == expected
                assert all(interlaces(lam, nu) for lam in down)
                assert down == sorted(down, key=lambda s: s.parts)


class TestPatterns:
    def test_counts(self):
        assert len(list(enumerate_gt_patterns(sig(7)))) == 1
        assert len(list(enumerate_gt_patterns(sig(1, 0)))) == 2
        assert len(list(enumerate_gt_patterns(sig(2, 1, 0)))) == 8

    def test_count_matches_ssyt_oracle(self):
        for level in (1, 2, 3):
            for lam in iter_signatures(level, -2, 3):
                shape = tuple(p - lam.parts[-1] for p in lam.parts)
                expected = count_ssyt(shape, level)
                assert len(list(enumerate_gt_patterns(lam))) == expected
                assert dimension(lam) == expected

    def test_highest_weight_pattern_comes_first(self):
        for lam in (sig(2, 0), sig(3, 1, 0), sig(1, 0, -1)):
            first = next(enumerate_gt_patterns(lam))
            assert weight(first) == lam.parts

    def test_validation(self):
        with pytest.raises(ValueError):
            GTPattern(((0,), (2, 1)))  # 0 does not interlace within (2, 1)
        with pytest.raises(ValueError):
            GTPattern(((1, 0),))


class TestWeight:
    def test_examples(self):
        assert weight(GTPattern(((1,), (1, 0)))) == (1, 0)
        assert weight(GTPattern(((0,), (1, 0)))) == (0, 1)

    def test_rectangle_weights_are_forced(self):
        for pattern in enumerate_gt_patterns(sig(2, 2, 2)):
            assert weight(pattern) == (2, 2, 2)

    def test_total_weight_sum(self):
        lam = sig(2, 0, -1)
        patterns = list(enumerate_gt_patterns(lam))
        total = sum(sum(weight(p)) for p in patterns)
        assert total == dimension(lam) * lam.size


class TestShift:
    def test_examples(self):
        assert shift(sig(1, 0), 2) == sig(3, 2)
        assert shift(sig(0, 0), -1) == sig(-1, -1)

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=4), st.integers(-5, 5))
    def test_roundtrip(self, raw, k):
        lam = Signature(tuple(sorted(raw, reverse=True)))
        assert shift(shift(lam, k), -k) == lam
        assert shift(lam, 0) == lam


class TestBoundaryParam:
    def test_canonical_form(self):
        assert BoundaryParam((0, 1, 1), 1) == BoundaryParam((0,), 1)
        assert BoundaryParam((2, 2), 2) == BoundaryParam((), 2)

    def test_entries(self):
        theta = BoundaryParam((-1, 0), 2)
        assert [theta.entry(i) for i in range(1, 6)] == [-1, 0, 2, 2, 2]

    def test_signature_at(self):
        theta = BoundaryParam((0,), 1)
        assert theta.signature_at(3) == sig(1, 1, 0)
        assert theta.signature_at(1) == sig(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundaryParam((1, 0), 2)
        with pytest.raises(ValueError):
            BoundaryParam((3,), 2)
