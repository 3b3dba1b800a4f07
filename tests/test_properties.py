"""Differential property tests: the exact fast paths against their oracles in
`helpers`, on generated q.

The fixed grids of the other modules use a handful of q (1/2, 2/3, 9/10,
99/100); here q ranges over a/b with b up to 10**6 and over the families
1/b, (b - 1)/b and 2^k/(2^k + 1), where exact reduction meets its edge
cases (a = 1, b - a = 1, a power of 2 against an odd b).  Derandomized with
a fixed number of examples, so every run draws the same cases.
"""

from fractions import Fraction
from math import gcd

from hypothesis import HealthCheck, given, settings, strategies as st

from qchar import BoundaryParam, LevelCharacter, Signature, extreme_character, restrict

from helpers import push_edge_oracle

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


@st.composite
def measures(draw):
    """A measure on 1-3 signatures at level 2-4, parts in [-3, 3]."""
    level = draw(st.integers(2, 4))
    sig = st.lists(PART, min_size=level, max_size=level).map(
        lambda parts: Signature(tuple(sorted(parts, reverse=True)))
    )
    sigs = draw(st.lists(sig, min_size=1, max_size=3, unique=True))
    raw = [draw(st.integers(1, 9)) for _ in sigs]
    return {s: Fraction(w, sum(raw)) for s, w in zip(sigs, raw)}


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
