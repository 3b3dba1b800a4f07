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

from fractions import Fraction
from itertools import product

from .combinatorics import BoundaryParam, Signature, _Frozen, shift
from .characters import (
    LevelCharacter,
    first_discrepancy,
    indecomposable,
    tensor,
    total_variation,
)
from .schur import check_q, qdim


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
    each mu at level k carries A^(|mu|-lo) * B^(hi-|mu|), where lo and hi,
    the smallest and largest sizes at that level, are the sizes of the
    corners nu[L-k:] and nu[:k] of the interlacing range.  What that leaves
    out, A^lo / B^hi at each level, is kept as two exponent sums, so the
    constant q^(-(L-1)|nu|) A^(sum lo) / (B^(sum hi) qdim(nu)) is built once
    from net powers of q's numerator and denominator, and each output
    weight is one Fraction built from integers: that constant, the chain
    sum, qdim(lam) and q^((N+1)|lam|).  The leading parts equal to nu[0]
    that are still pinned at a level are not carried in the walk, so for a
    theta prefix (nu[0] repeated L - h times) the tuples it builds have at
    most h + 1 parts whatever L is.  When every part of lam is pinned
    (nu[i+L-N] == nu[i]) the row is that point mass.
    """
    top, n, big = nu.parts, level, nu.level
    if all(top[i + big - n] == top[i] for i in range(n)):
        return {Signature(top[:n]): Fraction(1)}
    qn, qd = q.numerator, q.denominator
    a, b = qn * qn, qd * qd
    # the run of parts equal to `first` shrinks by one per level: at level k
    # the first max(0, run - (L - k)) parts of every mu are `first`, so the
    # walk carries only the parts after them (a theta prefix has run >= L - h)
    first = top[0]
    pinned = top.count(first)  # the run, at level L
    sums = {top[pinned:]: 1}
    lows = highs = 0
    for k in range(big - 1, n - 1, -1):
        lead = (first,) if pinned else ()
        pinned = max(pinned - 1, 0)
        below: dict[tuple[int, ...], int] = {}
        # interlacing on bare part tuples (as in enumerate_down), so the walk
        # builds no Signature and leaves nothing in enumerate_down's cache
        for mu, c in sums.items():
            ext = lead + mu
            for lam in product(*[range(ext[i + 1], ext[i] + 1) for i in range(len(ext) - 1)]):
                below[lam] = below.get(lam, 0) + c
        if k == n:
            break
        lo, hi = sum(top[big - k:]), sum(top[:k])
        weight = [a ** e * b ** (hi - lo - e) for e in range(hi - lo + 1)]
        offset = pinned * first - lo  # |mu| - lo = sum(mu) + offset
        sums = {mu: c * weight[sum(mu) + offset] for mu, c in below.items()}
        lows, highs = lows + lo, highs + hi
    # q^(-(L-1)|nu|) A^lows / B^highs = qn^x / qd^y, with A = qn^2, B = qd^2
    x = 2 * lows - (big - 1) * nu.size
    y = 2 * highs - (big - 1) * nu.size
    scale = Fraction(qn) ** x / Fraction(qd) ** y / qdim(nu, q)
    sn, sd = scale.numerator, scale.denominator
    lead = (first,) * pinned
    out = {}
    for lam, c in below.items():
        sig = Signature(lead + lam)
        d = qdim(sig, q)
        # q^e with e = (N+1)|lam|: each power goes where it is positive
        e = (n + 1) * sig.size
        if e >= 0:
            out[sig] = Fraction(sn * c * d.numerator * qn ** e, sd * d.denominator * qd ** e)
        else:
            out[sig] = Fraction(sn * c * d.numerator * qd ** -e, sd * d.denominator * qn ** -e)
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
