"""Finite-level approximants of extreme characters and the shift action.

An extreme character is parametrized by a nondecreasing integer sequence.
Its level-N marginal is approximated by pushing the point mass at the
reversed length-L prefix down from level L along the composed cotransition
kernel, exactly and in one pass, by the walker behind `restrict`
(`characters._push`).  A constant prefix is decided from theta alone: its
approximant is the point mass at the rectangle (theta_1, ..., theta_1) at
every truncation, returned without building the prefix, so any truncation
answers.  Tensoring with a rectangle realizes the shift of the parameter
sequence.
"""

import sys
from fractions import Fraction
from operator import index

from .combinatorics import BoundaryParam, Signature, _Frozen, shift
from .characters import (
    LevelCharacter,
    _push,
    first_discrepancy,
    indecomposable,
    tensor,
    total_variation,
)
from .schur import check_q


class ExtremeApproximant(_Frozen):
    __slots__ = ("theta", "level", "truncation", "measure")

    def __init__(
        self, theta: BoundaryParam, level: int, truncation: int, measure: LevelCharacter
    ):
        self._set(theta, level, truncation, measure)


class CorollaryReport(_Frozen):
    """Outcome of the determinant-absorption check at one truncation."""

    __slots__ = ("ok", "tensored", "shifted", "gap", "discrepancy")

    def __init__(
        self,
        ok: bool,
        tensored: LevelCharacter,
        shifted: LevelCharacter,
        gap: Fraction,
        discrepancy: Signature | None = None,
    ):
        self._set(ok, tensored, shifted, gap, discrepancy)


def extreme_character(
    theta: BoundaryParam, level: int, truncation: int, q: Fraction
) -> ExtremeApproximant:
    """Exact level-`level` pushdown of the point mass at the reversed prefix.

    The point mass sits at the signature (theta_L, ..., theta_1) at level
    L = `truncation` and is pushed down to `level` along the composed
    cotransition kernel in one pass (`characters._push`); all arithmetic is
    exact and the result equals L - `level` successive restrictions.  When
    theta_1 == theta_L the prefix is a rectangle, and so is every level of
    it: the point mass at (theta_1,) * `level` is returned without building
    the prefix or walking.  A level beyond `sys.maxsize`, the longest tuple,
    is refused.  The measure is built without re-checking its weights.
    """
    level, truncation = index(level), index(truncation)
    if level < 1:
        raise ValueError("level must be at least 1")
    if level > sys.maxsize:
        raise ValueError(f"level {level} is beyond the longest signature, {sys.maxsize} parts")
    if truncation < level:
        raise ValueError(f"truncation {truncation} must be >= level {level}")
    q = check_q(q)
    first = theta.entry(1)
    if first == theta.entry(truncation):
        weights = {Signature._trusted((first,) * level): Fraction(1)}
    else:
        weights = _push({theta.signature_at(truncation): Fraction(1)}, level, q)
    return ExtremeApproximant(theta, level, truncation, LevelCharacter._trusted(level, q, weights))


def cauchy_gap(
    theta: BoundaryParam, level: int, truncation: int, q: Fraction
) -> Fraction:
    """Total-variation distance between the truncation-L and L+1 approximants.

    A convergence monitor only; no rate is claimed.
    """
    a = extreme_character(theta, level, truncation, q).measure
    b = extreme_character(theta, level, truncation + 1, q).measure
    return total_variation(a, b)


def ak_on_theta(theta: BoundaryParam, k: int) -> BoundaryParam:
    """Shift every entry of the parameter sequence by k."""
    return BoundaryParam(tuple(h + k for h in theta.head), theta.tail + k)


def ak_on_measure(chi: LevelCharacter, k: int) -> LevelCharacter:
    """Pushforward under shifting all signature parts by k; mass preserved,
    so the measure is built without re-checking its weights."""
    return LevelCharacter._trusted(
        chi.level, chi.q, {shift(sig, k): w for sig, w in chi.weights.items()}
    )


def verify_corollary(
    theta: BoundaryParam, k: int, level: int, truncation: int, q: Fraction
) -> CorollaryReport:
    """Check determinant absorption exactly at one truncation.

    Tensoring the approximant of theta with the rectangle point mass
    (k, ..., k) must equal both the k-shift pushforward of that approximant
    and the approximant of the shifted parameter sequence.  The cotransition
    kernel commutes with the shift, so equality is exact at every L.
    """
    base = extreme_character(theta, level, truncation, q).measure
    rect = indecomposable(Signature((k,) * level), q)
    tensored = tensor(base, rect)
    pushed = ak_on_measure(base, k)
    direct = extreme_character(ak_on_theta(theta, k), level, truncation, q).measure
    if tensored.weights == pushed.weights == direct.weights:
        # no discrepancy to look for, and the distance is exactly zero
        return CorollaryReport(True, tensored, direct, Fraction(0))
    bad = first_discrepancy(tensored, direct)
    if bad is None:
        bad = first_discrepancy(tensored, pushed)
    return CorollaryReport(
        ok=False,
        tensored=tensored,
        shifted=direct,
        gap=total_variation(tensored, direct),
        discrepancy=bad,
    )
