"""Differential property tests: the fast paths against their oracles in
`helpers`, on generated q.  The exact paths equal theirs; the float torus
pairing stays within its 1e-12 bound of the edge walk.

The fixed grids of the other modules use a handful of q (1/2, 2/3, 9/10,
99/100); here q ranges over a/b with b up to 10**6 and over the families
1/b, (b - 1)/b and 2^k/(2^k + 1), where exact reduction meets its edge
cases (a = 1, b - a = 1, a power of 2 against an odd b).  Derandomized with
a fixed number of examples, so every run draws the same cases.
"""

import cmath
from fractions import Fraction
from math import gcd

from hypothesis import HealthCheck, given, settings, strategies as st

from qchar import (
    BoundaryParam,
    LevelCharacter,
    Signature,
    cotransition,
    extreme_character,
    restrict,
    sgf_eval,
    sgf_eval_torus,
    tensor,
)

from helpers import (
    cotransition_oracle,
    push_edge_oracle,
    sgf_eval_oracle,
    sgf_eval_torus_edge_oracle,
    tensor_oracle,
)

PROPERTY = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

BIG = 10**6
DENOMINATOR = st.integers(2, BIG)
Q = st.one_of(
    DENOMINATOR.flatmap(lambda b: st.builds(Fraction, st.integers(1, b - 1), st.just(b))),
    DENOMINATOR.map(lambda b: Fraction(1, b)),
    DENOMINATOR.map(lambda b: Fraction(b - 1, b)),
    st.integers(0, 20).map(lambda k: Fraction(2**k, 2**k + 1)),
)
PART = st.integers(-3, 3)


def signatures(level: int, part=PART):
    """Signatures of one level, parts drawn by `part`."""
    return st.lists(part, min_size=level, max_size=level).map(
        lambda parts: Signature(tuple(sorted(parts, reverse=True)))
    )


@st.composite
def measures(draw, levels=st.integers(2, 4), part=PART, max_size=3):
    """A measure on 1 to `max_size` signatures at a level drawn from
    `levels` (by default 1-3 signatures at level 2-4, parts in [-3, 3])."""
    level = draw(levels)
    sigs = draw(st.lists(signatures(level, part), min_size=1, max_size=max_size, unique=True))
    raw = [draw(st.integers(1, 9)) for _ in sigs]
    return {s: Fraction(w, sum(raw)) for s, w in zip(sigs, raw)}


def character(weights, q) -> LevelCharacter:
    return LevelCharacter(next(iter(weights)).level, q, weights)


def assert_reduced_measure(weights) -> None:
    """Every weight a positive `Fraction` in lowest terms, and mass exactly 1."""
    for w in weights.values():
        assert type(w) is Fraction and w > 0, w
        assert gcd(w.numerator, w.denominator) == 1, w
    assert sum(weights.values()) == 1


class TestRestrict:
    @PROPERTY
    @given(weights=measures(), q=Q)
    def test_restrict_is_the_edge_pushdown(self, weights, q):
        level = next(iter(weights)).level
        got = restrict(LevelCharacter(level, q, weights)).weights
        assert got == push_edge_oracle(weights, level - 1, q)
        assert list(got) == sorted(got, key=lambda s: s.parts)
        assert_reduced_measure(got)


@st.composite
def approximants(draw):
    """(theta, N, L): a head of at most 4 entries in [-3, 3], N <= 3 and
    N < L <= N + 4."""
    head = sorted(draw(st.lists(PART, max_size=4)))
    tail = draw(st.integers(max(head, default=-3), 3))
    level = draw(st.integers(1, 3))
    return BoundaryParam(tuple(head), tail), level, draw(st.integers(level + 1, level + 4))


class TestExtremeCharacter:
    @PROPERTY
    @given(case=approximants(), q=Q)
    def test_extreme_character_is_the_edge_pushdown(self, case, q):
        theta, level, truncation = case
        got = extreme_character(theta, level, truncation, q).measure.weights
        assert got == push_edge_oracle({theta.signature_at(truncation): Fraction(1)}, level, q)
        assert_reduced_measure(got)


class TestCotransition:
    @PROPERTY
    @given(nu=st.integers(1, 4).flatmap(signatures), q=Q)
    def test_cotransition_is_the_fraction_oracle(self, nu, q):
        got = cotransition(nu, q)
        assert list(got.items()) == list(cotransition_oracle(nu, q).items())
        assert_reduced_measure(got)


# operands of one level, 1-2 signatures each, parts in [-2, 2]
SMALL_PART = st.integers(-2, 2)
OPERANDS = st.integers(1, 3).flatmap(
    lambda level: st.tuples(*[measures(st.just(level), SMALL_PART, max_size=2)] * 2)
)


class TestTensor:
    @PROPERTY
    @given(operands=OPERANDS, q=Q)
    def test_tensor_is_the_fraction_oracle(self, operands, q):
        left, right = (character(weights, q) for weights in operands)
        got = tensor(left, right)
        assert got == tensor_oracle(left, right)
        assert_reduced_measure(got.weights)


# a character at level 1-3 with 1-3 signatures, parts in [-3, 3]
CHARACTERS = st.builds(character, measures(st.integers(1, 3)), Q)
NONZERO = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))
UNIT = st.floats(0, 2 * cmath.pi).map(lambda angle: cmath.exp(1j * angle))


class TestGeneratingFunction:
    @PROPERTY
    @given(chi=CHARACTERS, data=st.data())
    def test_sgf_eval_is_the_fraction_oracle(self, chi, data):
        points = data.draw(st.lists(NONZERO, min_size=chi.level, max_size=chi.level))
        assert sgf_eval(chi, points) == sgf_eval_oracle(chi, points)

    @PROPERTY
    @given(chi=CHARACTERS, data=st.data())
    def test_sgf_eval_torus_is_within_its_bound_of_the_edge_walk(self, chi, data):
        z = data.draw(st.lists(UNIT, min_size=chi.level, max_size=chi.level))
        assert abs(sgf_eval_torus(chi, z) - sgf_eval_torus_edge_oracle(chi, z)) <= 1e-12
        assert abs(sgf_eval_torus(chi, [1] * chi.level) - 1) <= 1e-12
