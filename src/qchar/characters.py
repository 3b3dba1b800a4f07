"""Level-N characters as probability measures on signatures.

A character of the rank-N algebra decomposes uniquely as a convex
combination of the indecomposable ones, so it is stored losslessly as a
finitely supported probability measure.  This module provides the
cotransition kernel, restriction, coherence checking, the tensor product
(fusion weighted by quantum-dimension ratios) and generating-function
evaluation, exact and on the torus.
"""

from fractions import Fraction
from itertools import product
from math import gcd, lcm, log2
from typing import Mapping, Sequence

from .combinatorics import Signature, _Frozen, enumerate_down, interlaces
from .schur import (
    _evaluator,
    check_q,
    lr_coefficients,
    principal_specialization,
    qdim,
)


class LevelCharacter(_Frozen):
    """A level plus a finitely supported probability measure on signatures.

    Weights are strictly positive rationals summing to exactly 1.  The
    unique level-0 character is the point mass at the empty signature.
    """

    __slots__ = ("level", "q", "weights")

    def __init__(self, level: int, q: Fraction, weights: Mapping[Signature, Fraction]):
        q = check_q(q)
        checked = {}
        for sig, w in weights.items():
            if sig.level != level:
                raise ValueError(f"{sig} is not a level-{level} signature")
            if type(w) is not Fraction:
                w = Fraction(w)
            if w.numerator <= 0:
                raise ValueError(f"weights must be positive: {sig} -> {w}")
            checked[sig] = w
        # sum n_i / d_i == 1 in integers: sum n_i (D / d_i) == D, D = lcm(d_i)
        common = lcm(*(w.denominator for w in checked.values()))
        if sum(w.numerator * (common // w.denominator) for w in checked.values()) != common:
            raise ValueError("weights must sum to exactly 1")
        self._set(level, q, checked)

    def support(self) -> list[Signature]:
        return sorted(self.weights, key=lambda s: s.parts)


class CoherentFamily(_Frozen):
    """Characters at levels 1..M sharing q; coherence is checked separately."""

    __slots__ = ("q", "measures")

    def __init__(self, q: Fraction, measures: tuple[LevelCharacter, ...]):
        q = check_q(q)
        measures = tuple(measures)
        for i, chi in enumerate(measures):
            if chi.level != i + 1:
                raise ValueError(f"measure {i} has level {chi.level}, expected {i + 1}")
            if chi.q != q:
                raise ValueError("all levels must share the same q")
        self._set(q, measures)


class CoherenceReport(_Frozen):
    __slots__ = ("ok", "level", "sig")

    def __init__(self, ok: bool, level: int | None = None, sig: Signature | None = None):
        self._set(ok, level, sig)


def indecomposable(lam: Signature, q: Fraction) -> LevelCharacter:
    """The point mass at lam."""
    return LevelCharacter(lam.level, q, {lam: Fraction(1)})


def wq(lam: Signature, nu: Signature, q: Fraction) -> Fraction:
    """q^((N+1)|lam| - N|nu|) for an interlacing pair lam (level N) below nu."""
    if not interlaces(lam, nu):
        raise ValueError(f"{lam} does not interlace below {nu}")
    n = lam.level
    return check_q(q) ** ((n + 1) * lam.size - n * nu.size)


def cotransition(nu: Signature, q: Fraction) -> dict[Signature, Fraction]:
    """Stochastic row Lambda(nu, .): wq(lam, nu) * qdim(lam) / qdim(nu).

    Entries are positive and sum to exactly 1; keys ascend lexicographically.
    """
    d = qdim(nu, q)
    return {lam: wq(lam, nu, q) * qdim(lam, q) / d for lam in enumerate_down(nu)}


def restrict(chi: LevelCharacter) -> LevelCharacter:
    """Push the measure one level down along the cotransition kernel."""
    if chi.level < 1:
        raise ValueError("cannot restrict below level 0")
    out: dict[Signature, Fraction] = {}
    for nu, p in chi.weights.items():
        for lam, c in cotransition(nu, chi.q).items():
            out[lam] = out.get(lam, Fraction(0)) + p * c
    return LevelCharacter(chi.level - 1, chi.q, out)


def first_discrepancy(a: LevelCharacter, b: LevelCharacter) -> Signature | None:
    """Lexicographically first signature where the two measures disagree."""
    keys = sorted(set(a.weights) | set(b.weights), key=lambda s: s.parts)
    for sig in keys:
        if a.weights.get(sig, 0) != b.weights.get(sig, 0):
            return sig
    return None


def total_variation(a: LevelCharacter, b: LevelCharacter) -> Fraction:
    """Half the l1 distance between the two weight maps; exact.

    Taken in integers over D = lcm of both measures' denominators: every
    weight n/d becomes n * (D/d), and the result is one Fraction,
    sum |n_a (D/d_a) - n_b (D/d_b)| / 2D.
    """
    common = lcm(*(w.denominator for chi in (a, b) for w in chi.weights.values()))
    ia, ib = (
        {sig: w.numerator * (common // w.denominator) for sig, w in chi.weights.items()}
        for chi in (a, b)
    )
    gap = sum(abs(ia.get(sig, 0) - ib.get(sig, 0)) for sig in ia.keys() | ib.keys())
    return Fraction(gap, 2 * common)


def is_coherent(family: CoherentFamily) -> CoherenceReport:
    """Whether restricting each level reproduces the level below it, exactly.

    A single-level family is vacuously coherent.  On failure the report
    carries the lower level N and the first signature whose mass differs.
    """
    for n in range(len(family.measures) - 1, 0, -1):
        lower, upper = family.measures[n - 1], family.measures[n]
        pushed = restrict(upper)
        sig = first_discrepancy(pushed, lower)
        if sig is not None:
            return CoherenceReport(False, lower.level, sig)
    return CoherenceReport(True)


def tensor(chi1: LevelCharacter, chi2: LevelCharacter) -> LevelCharacter:
    """Fusion of characters; commutative and associative.

    On point masses the output weight of nu is
    c^nu_{lam,mu} * qdim(nu) / (qdim(lam) * qdim(mu)), extended bilinearly;
    the weights again sum to exactly 1.  Each term
    p1 * p2 * c * qdim(nu) / (qdim(lam) * qdim(mu)) is built as one Fraction
    from the integer numerators and denominators of its factors, and terms
    that land on the same nu are added as Fractions.
    """
    if chi1.level != chi2.level:
        raise ValueError(f"levels must agree: {chi1.level} != {chi2.level}")
    if chi1.q != chi2.q:
        raise ValueError("q must agree")
    q = chi1.q
    out: dict[Signature, Fraction] = {}
    for lam, p1 in chi1.weights.items():
        d1 = qdim(lam, q)
        num1, den1 = p1.numerator * d1.denominator, p1.denominator * d1.numerator
        for mu, p2 in chi2.weights.items():
            d2 = qdim(mu, q)
            num = num1 * p2.numerator * d2.denominator
            den = den1 * p2.denominator * d2.numerator
            for nu, c in lr_coefficients(lam, mu).items():
                d = qdim(nu, q)
                term = Fraction(num * c * d.numerator, den * d.denominator)
                out[nu] = out[nu] + term if nu in out else term
    return LevelCharacter(chi1.level, q, out)


def sgf_eval(chi: LevelCharacter, points: Sequence[Fraction]) -> Fraction:
    """Exact generating function: sum of P(lam) s_lam(x) / s_lam(1, q^-2, ...).

    At the normalization point (1, q^-2, ..., q^(-2(N-1))) the value is 1
    for every character.  The sum is taken in integers, one Fraction at the
    end: each term is the product of the integer parts of P(lam), of the
    Schur value and of the principal specialization, and the terms are
    folded over the lcm of their denominators, so the running denominator
    grows only by the factors a term does not share with it.
    """
    if len(points) != chi.level:
        raise ValueError(f"need {chi.level} points, got {len(points)}")
    s = _evaluator(chi.level, points)
    q = chi.q
    num, den = 0, 1
    for lam, p in chi.weights.items():
        sn, sd = s(lam)
        ps = principal_specialization(lam, q)
        n = p.numerator * sn * ps.denominator
        d = p.denominator * sd * ps.numerator
        g = gcd(den, d)
        num, den = num * (d // g) + n * (den // g), den * (d // g)
    return Fraction(num, den)


TORUS_PRECISION = 1e-12


def sgf_eval_torus(
    chi: LevelCharacter, z: Sequence[complex], precision: float = TORUS_PRECISION
) -> complex:
    """Generating function paired with the torus, in floating point.

    The unit-modulus inputs z are substituted as (z_1, q^-2 z_2, ...,
    q^(-2(N-1)) z_N), the scaled torus on which the series converges, and
    the Schur values are never formed: the coefficients P(lam) / s_lam(1,
    q^-2, ...) are pushed down one level at a time by the branching rule
    transposed,

        C_(k-1)(mu) = sum over lam at level k above mu of C_k(lam) x_k^(|lam|-|mu|),

    and the value is C_0 of the empty signature.  Every term is positive
    when evaluated at the |x_k|, so rounding stays relative to the
    normaliser: for every 0 < q < 1, |S(z)| <= 1 + 1e-12 and
    |S(1, ..., 1) - 1| <= 1e-12.  `precision`, the unit-modulus tolerance,
    lies in [0, TORUS_PRECISION]: it can only tighten the test, since
    points further off the torus void that bound.
    """
    if len(z) != chi.level:
        raise ValueError(f"need {chi.level} torus points, got {len(z)}")
    # written so that a NaN precision fails the comparison
    if not 0 <= precision <= TORUS_PRECISION:
        raise ValueError(f"precision must lie in [0, {TORUS_PRECISION}], got {precision}")
    zs = [complex(v) for v in z]
    # written so that a NaN or infinite coordinate fails the comparison
    if not all(abs(abs(v) - 1.0) <= precision for v in zs):
        raise ValueError("torus points must have unit modulus")
    q, qf = chi.q, float(chi.q)
    # (parts, |parts|, coefficient) for each state of the current level
    states = [
        (lam.parts, lam.size, float(p) / float(principal_specialization(lam, q)))
        for lam, p in chi.weights.items()
    ]
    for k in range(chi.level, 0, -1):
        states = _push(states, k - 1, qf ** (-2 * (k - 1)) * zs[k - 1])
    return complex(states[0][2])


# the widest factor |x|^(|lam| - |lam'|), in bits, between two states that
# share one table of powers of x
_TABLE_BITS = 256


def _push(states: list, level: int, x: complex) -> list:
    """The states one level down: C(mu) = sum over lam above mu of
    C(lam) x^(|lam|-|mu|), each state a tuple (parts, size, coefficient).

    States whose sizes lie far apart, so that |x|^(|lam| - |lam'|) reaches
    2^_TABLE_BITS, are pushed in separate groups: one table of powers of x
    anchored at one size would leave the float range at the others.
    """
    sizes = [size for _, size, _ in states]
    lo, top = min(sizes), max(sizes)
    bits = max(log2(abs(x)), 0.0)
    if (top - lo) * bits < _TABLE_BITS:
        return _push_close(states, lo, top, level, x)
    groups: dict[int, list] = {}
    for state in states:
        groups.setdefault(int((state[1] - lo) * bits) // _TABLE_BITS, []).append(state)
    merged: dict[tuple[int, ...], complex] = {}
    for group in groups.values():
        sizes = [size for _, size, _ in group]
        for mu, _, v in _push_close(group, min(sizes), max(sizes), level, x):
            merged[mu] = merged.get(mu, 0) + v
    return [(mu, sum(mu), v) for mu, v in merged.items()]


def _push_close(states: list, lo: int, top: int, level: int, x: complex) -> list:
    """`_push` for states whose sizes lie in [lo, top], with one table of
    powers of x.

    x^(|lam|-|mu|) = x^(|lam|-lo) x^(lo-|mu|): one power per state on either
    side of the interlacing product.  Below lam, |mu| runs from |lam| - lam_1
    to |lam| - lam_N.
    """
    least = min(0, lo - max([size - lam[-1] for lam, size, _ in states]))
    most = max(top - lo, lo - min([size - lam[0] for lam, size, _ in states]))
    powers = _powers(x, least, most)  # x^e at index e - least
    below: dict[tuple[int, ...], complex] = {}
    for lam, size, c in states:
        v = c * powers[size - lo - least]
        for mu in product(*[range(lam[i + 1], lam[i] + 1) for i in range(level)]):
            below[mu] = below.get(mu, 0) + v
    return [(mu, size := sum(mu), v * powers[lo - size - least]) for mu, v in below.items()]


def _powers(x: complex, least: int, most: int) -> list[complex]:
    """x^least, ..., x^most (least <= 0) by repeated multiplication from x^0."""
    up, down = [1 + 0j], [1 + 0j]
    for _ in range(most):
        up.append(up[-1] * x)
    for _ in range(-least):
        down.append(down[-1] / x)
    return down[:0:-1] + up
