"""Finite-level approximants of extreme characters and the shift action.

An extreme character is parametrized by a nondecreasing integer sequence.
Its level-N marginal is approximated by pushing the point mass at the
reversed length-L prefix down from level L along the composed cotransition
kernel, exactly and in one pass (the kernel's closed form is in
`_pushdown`); for the constant sequence the approximant is already exact at
every truncation (it is the point mass at a rectangle, returned without
walking the levels), and tensoring with that rectangle realizes the shift
of the parameter sequence.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .combinatorics import BoundaryParam, Signature, shift
from .characters import (
    LevelCharacter,
    first_discrepancy,
    indecomposable,
    tensor,
    total_variation,
)
from .schur import check_q, qdim


@dataclass(frozen=True)
class ExtremeApproximant:
    theta: BoundaryParam
    level: int
    truncation: int
    measure: LevelCharacter


@dataclass(frozen=True)
class CorollaryReport:
    """Outcome of the determinant-absorption check at one truncation."""

    ok: bool
    tensored: LevelCharacter
    shifted: LevelCharacter
    gap: Fraction
    discrepancy: Signature | None = None


def _pushdown(nu: Signature, level: int, q: Fraction) -> dict[Signature, Fraction]:
    """Row nu of the composed cotransition kernel from level L = nu.level down
    to N = `level`, the pushdown of the point mass at nu.

    Composing the one-step rows telescopes the quantum dimensions and the
    q-powers; with t = q^2,

        Lambda(nu, lam) = qdim(lam) / qdim(nu) * q^((N+1)|lam| - (L-1)|nu|)
                          * sum over chains nu > mu_(L-1) > ... > mu_(N+1) > lam
                            of the product of t^|mu_k| over N < k < L,

    where the chain sum is the principal specialization of the skew Schur
    function s_(nu/lam), and the support is nu[i+L-N] <= lam[i] <= nu[i].
    The chain sum is accumulated level by level in integers: with t = A/B,
    each mu at level k carries A^(|mu|-lo) * B^(hi-|mu|), lo and hi being
    the smallest and largest sizes at that level, and the factors
    t^lo / B^(hi-lo) of all levels fold into one rational constant.  When
    every part of lam is pinned (nu[i+L-N] == nu[i]) the row is that point
    mass.
    """
    top, n = nu.parts, level
    if all(top[i + nu.level - n] == top[i] for i in range(n)):
        return {Signature(top[:n]): Fraction(1)}
    t = q * q
    a, b = t.numerator, t.denominator
    scale = q ** (-(nu.level - 1) * nu.size) / qdim(nu, q)
    sums = {top: 1}
    for k in range(nu.level - 1, n - 1, -1):
        below: dict[tuple[int, ...], int] = {}
        # interlacing on bare part tuples (as in enumerate_down), so the walk
        # builds no Signature and leaves nothing in enumerate_down's cache
        for mu, c in sums.items():
            for lam in product(*[range(mu[i + 1], mu[i] + 1) for i in range(k)]):
                below[lam] = below.get(lam, 0) + c
        if k == n:
            break
        sizes = {mu: sum(mu) for mu in below}
        lo, hi = min(sizes.values()), max(sizes.values())
        apow = [a ** e for e in range(hi - lo + 1)]
        bpow = [b ** e for e in range(hi - lo + 1)]
        sums = {mu: c * apow[sizes[mu] - lo] * bpow[hi - sizes[mu]] for mu, c in below.items()}
        scale *= t ** lo / bpow[-1]
    out = {}
    for lam, c in below.items():
        sig = Signature(lam)
        out[sig] = scale * c * q ** ((n + 1) * sig.size) * qdim(sig, q)
    return out


def extreme_character(
    theta: BoundaryParam, level: int, truncation: int, q: Fraction
) -> ExtremeApproximant:
    """Exact level-`level` pushdown of the point mass at the reversed prefix.

    The point mass sits at the signature (theta_L, ..., theta_1) at level
    L = `truncation` and is pushed down to `level` along the composed
    cotransition kernel in one pass (`_pushdown`); all arithmetic is exact
    and the result equals L - `level` successive restrictions.
    """
    if level < 1:
        raise ValueError("level must be at least 1")
    if truncation < level:
        raise ValueError(f"truncation {truncation} must be >= level {level}")
    q = check_q(q)
    weights = _pushdown(theta.signature_at(truncation), level, q)
    return ExtremeApproximant(theta, level, truncation, LevelCharacter(level, q, weights))


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
    """Pushforward under shifting all signature parts by k; mass preserved."""
    return LevelCharacter(
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
    ok = tensored.weights == pushed.weights == direct.weights
    bad = first_discrepancy(tensored, direct)
    if bad is None:
        bad = first_discrepancy(tensored, pushed)
    return CorollaryReport(
        ok=ok,
        tensored=tensored,
        shifted=direct,
        gap=total_variation(tensored, direct),
        discrepancy=bad,
    )
