"""Level-N characters as probability measures on signatures.

A character of the rank-N algebra decomposes uniquely as a convex
combination of the indecomposable ones, so it is stored losslessly as a
finitely supported probability measure.  This module provides the
cotransition kernel, restriction, coherence checking, the tensor product
(fusion weighted by quantum-dimension ratios) and generating-function
evaluation, exact and on the torus.  Both walks down the levels keep a
level's states in rows by all parts but the last (`_add_run`) and move a
level by running sums along those rows: in integers by `_step` in `_push`,
behind a kernel row, `restrict` and the extreme-character approximants in
`boundary`, and in floats by `_torus_step` in `sgf_eval_torus`, on states
scaled by their dominant monomials so that no factor exceeds 1 in modulus.
"""

from fractions import Fraction
from itertools import accumulate, product
from math import gcd, lcm
from operator import add, mul
from typing import Mapping, Sequence

from .combinatorics import Signature, _Frozen
from .schur import _evaluator, _fold, _lr_terms, _principal_pair, _qdim_pair, _qpow, check_q


class LevelCharacter(_Frozen):
    """A level plus a finitely supported probability measure on signatures.

    Weights are strictly positive rationals summing to exactly 1.  The
    unique level-0 character is the point mass at the empty signature.
    The constructor checks every weight and the sum; the measures that
    `restrict`, `tensor` and the `boundary` approximants and shifts build
    are exact by construction and come through `_trusted` unchecked (the
    tests check them instead).
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


def cotransition(nu: Signature, q: Fraction) -> dict[Signature, Fraction]:
    """Stochastic row of the cotransition kernel at nu (level N + 1):

        Lambda(nu, lam) = q^((N+1)|lam| - N|nu|) * qdim(lam) / qdim(nu)

    for lam interlacing below nu.  Entries are positive and sum to exactly
    1; keys ascend lexicographically.  One step of `_push`.
    """
    q = check_q(q)
    if nu.level < 1:
        raise ValueError("need a signature of level >= 1")
    return _push({nu: 1}, nu.level - 1, q)


def restrict(chi: LevelCharacter) -> LevelCharacter:
    """Push the measure one level down along the cotransition kernel:
    the sum over nu of P(nu) Lambda(nu, .), taken in integers by `_push`.
    The weights are keyed in ascending order of parts, whatever the order
    of chi's; the result is built without re-checking them."""
    if chi.level < 1:
        raise ValueError("cannot restrict below level 0")
    weights = _push(chi.weights, chi.level - 1, chi.q)
    return LevelCharacter._trusted(chi.level - 1, chi.q, weights)


def _push(weights: Mapping[Signature, Fraction], level: int, q: Fraction) -> dict:
    """Push the measure `weights` at level L >= 1 down to N = `level` < L
    along the composed cotransition kernel, in one pass, in integers:

        Lambda(nu, lam) = qdim(lam) / qdim(nu) * q^((N+1)|lam| - (L-1)|nu|)
                          * sum over chains nu > mu_(L-1) > ... > mu_(N+1) > lam
                            of the product of q^(2|mu_k|) over N < k < L

    on nu[i+L-N] <= lam[i] <= nu[i].  Each nu starts as the integer
    P(nu) q^(-(L-1)(|nu|-s0)) / qdim(nu) (s0 the least |nu|) over one common
    denominator, divided by their gcd.  With q^2 = A/B a mu at level k
    carries A^(|mu|-lo) B^(hi-|mu|), lo and hi the extreme sizes there; the
    rest is one constant, and each output weight one Fraction from integers.

    A level is one `_step` over the states grouped by all parts but the
    last, each group kept as one row of integers indexed by the last part
    and weighted by that level's table.  Parts pinned to nu[0] in
    every nu are not carried (a theta prefix walks at most h + 1 parts
    whatever L is); a single nu whose target parts are all pinned
    (nu[i+L-N] == nu[i]), or a push to level 0, is a point mass at once.
    Keys ascend lexicographically, and the signatures are built unchecked.
    """
    sigs = list(weights)
    n, big, top = level, sigs[0].level, sigs[0].parts
    if n == 0 or len(sigs) == 1 and all(top[i + big - n] == top[i] for i in range(n)):
        return {Signature._trusted(top[:n]): Fraction(1)}
    qn, qd = q.numerator, q.denominator
    a, b = qn * qn, qd * qd
    least = min([nu.size for nu in sigs])
    nums, dens = [], []
    for nu, p in weights.items():
        (dn, dd), e = _qdim_pair(nu.parts, qn, qd), (big - 1) * (nu.size - least)
        nums.append(p.numerator * dd * qd ** e)
        dens.append(p.denominator * dn * qn ** e)
    common = lcm(*dens)
    starts = [m * (common // d) for m, d in zip(nums, dens)]
    g = gcd(*starts)
    # lo and hi at level k, at index k - 1: the least and largest corner sums
    # nu[L-k:] and nu[:k] of the interlacing ranges
    los = list(map(min, zip(*[accumulate(reversed(nu.parts)) for nu in sigs])))
    his = list(map(max, zip(*[accumulate(nu.parts) for nu in sigs])))
    # at level k the first max(0, run - (L - k)) parts of every mu are `first`
    first = top[0]
    pinned = min([nu.parts.count(first) if nu.parts[0] == first else 0 for nu in sigs])
    # a level's states by all parts but the last: prefix -> [start, values],
    # values[i] the integer at prefix + (start + i,), 0 where there is none
    rows: dict[tuple[int, ...], list] = {}
    for nu, c in zip(sigs, starts):
        mu = nu.parts[pinned:]
        _add_run(rows, mu[:-1], mu[-1], [c // g])
    lo = least
    weight = [1] * (his[big - 1] - lo + 1)  # the start carries no level weight
    for k in range(big - 1, n - 1, -1):
        # |mu| - lo = sum(mu) + pinned * first - lo over the carried parts mu
        rows = _step(rows, (first,) if pinned else (), pinned * first - lo, weight)
        pinned = max(pinned - 1, 0)
        if k > n:
            lo, hi = los[k - 1], his[k - 1]
            weight = [a ** e * b ** (hi - lo - e) for e in range(hi - lo + 1)]
    # q^(-(L-1)s0) A^(sum lo) / B^(sum hi) over levels N < k < L is qn^x / qd^y
    x = 2 * sum(los[n:big - 1]) - (big - 1) * least
    y = 2 * sum(his[n:big - 1]) - (big - 1) * least
    scale = Fraction(qn) ** x / Fraction(qd) ** y * Fraction(g, common)
    sn, sd = scale.numerator, scale.denominator
    lead = (first,) * pinned
    powers: dict[int, tuple[int, int]] = {}  # |lam| -> the scale times q^((N+1)|lam|)
    out = {}
    for key in sorted(rows):
        start, values = rows[key]
        for last, c in enumerate(values, start):
            if not c:
                continue
            parts = lead + key + (last,)
            size = sum(parts)
            pair = powers.get(size)
            if pair is None:
                up, down = _qpow(qn, qd, (n + 1) * size)
                pair = powers[size] = sn * up, sd * down
            dn, dd = _qdim_pair(parts, qn, qd)
            out[Signature._trusted(parts)] = Fraction(pair[0] * c * dn, pair[1] * dd)
    return out


def _step(rows: dict, lead: tuple, offset: int, weight: list) -> dict:
    """One level of `_push`, on rows of states keyed by all parts but the
    last (prefix -> [start, values], as in `_add_run`): each lam gets the sum
    over the mu above it of weight[sum(mu) + offset] times mu's value, the
    part `lead` (or none) standing before every key in the interlacing.

    The row with prefix pre = lead + key reaches exactly the lam in (the
    box below pre) x [start, pre[-1]] with lam_last >= mu_last, so its
    running sum of weighted states is added to the row of each lam[:-1] in
    the box as one slice, not one edge at a time.  The walk is on bare
    part tuples, so it builds no Signature.
    """
    below: dict[tuple[int, ...], list] = {}
    for key, (start, values) in rows.items():
        pre = lead + key
        at = sum(key) + offset + start  # the weight index of key + (start,)
        run = list(accumulate(map(mul, values, weight[at:at + len(values)])))
        # lam_last runs on to pre[-1], past the last state of the row
        run += [run[-1]] * (pre[-1] + 1 - start - len(run))
        box = [range(pre[i + 1], pre[i] + 1) for i in range(len(pre) - 1)]
        for prefix in product(*box):
            _add_run(below, prefix, start, run)
    return below


def _add_run(rows: dict, prefix: tuple, start: int, run: list) -> None:
    """Add run[i] to the state prefix + (start + i,) in `rows`, whose entry
    for a prefix is [start, values] as in `_push`; a row grows at either
    end to take the run, and the list `run` itself is never kept."""
    row = rows.get(prefix)
    if row is None:
        rows[prefix] = [start, run[:]]
        return
    at, values = row
    if start < at:
        values[:0] = [0] * (at - start)
        row[0] = at = start
    i = start - at
    j = i + len(run)
    if j > len(values):
        values += [0] * (j - len(values))
    values[i:j] = map(add, values[i:j], run)


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


def _check_operands(a, b) -> None:
    """The rule for two operands of one level's algebra, characters or block
    elements alike: their levels agree, and then their q."""
    if a.level != b.level:
        raise ValueError(f"levels must agree: {a.level} != {b.level}")
    if a.q != b.q:
        raise ValueError("q must agree")


def tensor(chi1: LevelCharacter, chi2: LevelCharacter) -> LevelCharacter:
    """Fusion of characters; commutative and associative.

    On point masses the output weight of nu is
    c^nu_{lam,mu} * qdim(nu) / (qdim(lam) * qdim(mu)), extended bilinearly;
    the weights again sum to exactly 1.  Each term
    p1 * p2 * c * qdim(nu) / (qdim(lam) * qdim(mu)) is an integer pair made
    of the integer parts of its factors, terms that land on the same nu are
    folded over the lcm of their denominators, and each output weight is one
    Fraction; the measure is built without re-checking them.
    """
    _check_operands(chi1, chi2)
    q = chi1.q
    qn, qd = q.numerator, q.denominator
    out: dict[tuple[int, ...], list] = {}
    for lam, p1 in chi1.weights.items():
        n1, d1 = _qdim_pair(lam.parts, qn, qd)
        num1, den1 = p1.numerator * d1, p1.denominator * n1
        for mu, p2 in chi2.weights.items():
            n2, d2 = _qdim_pair(mu.parts, qn, qd)
            num, den = num1 * p2.numerator * d2, den1 * p2.denominator * n2
            for nu, c in _lr_terms(lam.parts, mu.parts):
                dn, dd = _qdim_pair(nu, qn, qd)
                out.setdefault(nu, []).append((num * c * dn, den * dd))
    weights = {Signature._trusted(nu): Fraction(*_fold(terms)) for nu, terms in out.items()}
    return LevelCharacter._trusted(chi1.level, q, weights)


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
    s = _evaluator(points)
    qn, qd = chi.q.numerator, chi.q.denominator
    terms = []
    for lam, p in chi.weights.items():
        sn, sd = s(lam)
        pn, pd = _principal_pair(lam.parts, qn, qd)
        terms.append((p.numerator * sn * pd, p.denominator * sd * pn))
    return Fraction(*_fold(terms))


TORUS_PRECISION = 1e-12


def sgf_eval_torus(chi: LevelCharacter, z: Sequence[complex]) -> complex:
    """Generating function paired with the torus, in floating point.

    The inputs z must have unit modulus to within TORUS_PRECISION; they are
    substituted as (z_1, q^-2 z_2, ..., q^(-2(N-1)) z_N), the scaled torus
    on which the series converges, and the Schur values are never formed:
    the coefficients C(lam) = P(lam) / s_lam(1, q^-2, ...) are pushed down
    one level at a time by the branching rule transposed, each level-k
    state carried scaled by its dominant monomial,
    W(lam) = C(lam) q^(-2 sum_i (k-i) lam_i).  The walk starts from
    P(lam) / s'(lam), s'(lam) = qdim(lam) q^(sum_i (N+1-2i) lam_i) in
    [1, dim lam], and with t = q^2 each level is one `_torus_step`,

        W(mu) = sum over lam above mu of W(lam) z_k^(|lam|-|mu|)
                * prod_i t^(i (mu_i - lam_(i+1))),

    whose factors all have modulus at most 1; the value is the sum over the
    level-1 states of W(lam) z_1^lam_1.  Every term is positive at
    z = (1, ..., 1), so rounding stays relative to the normaliser, and no
    state leaves the float range: for every 0 < q < 1 and every valid
    character, |S(z)| <= 1 + 1e-12 and |S(1, ..., 1) - 1| <= 1e-12.
    """
    if len(z) != chi.level:
        raise ValueError(f"need {chi.level} torus points, got {len(z)}")
    zs = [complex(v) for v in z]
    # written so that a NaN or infinite coordinate fails the comparison
    if not all(abs(abs(v) - 1.0) <= TORUS_PRECISION for v in zs):
        raise ValueError("torus points must have unit modulus")
    n, qn, qd = chi.level, chi.q.numerator, chi.q.denominator
    if not n:
        return 1 + 0j  # the point mass at the empty signature
    # P(lam) / s'(lam) <= 1 as one int quotient, which is correctly rounded
    rows: dict[tuple[int, ...], list] = {}
    for lam, p in chi.weights.items():
        parts = lam.parts
        dn, dd = _qdim_pair(parts, qn, qd)
        en, ed = _qpow(qn, qd, sum([(n + 1 - 2 * i) * x for i, x in enumerate(parts, 1)]))
        _add_run(rows, parts[:-1], parts[-1], [p.numerator * dd * ed / (p.denominator * dn * en)])
    t = qn * qn / (qd * qd)
    for k in range(n, 1, -1):
        rows = _torus_step(rows, zs[k - 1], t, k)
    (start, values), = rows.values()
    return sum(c * zs[0] ** last for last, c in enumerate(values, start))


def _torus_step(rows: dict, z: complex, t: float, k: int) -> dict:
    """One level of `sgf_eval_torus`, from k >= 2 to k - 1, on the rows of
    `_add_run`.  With |lam| - |mu| = lam_1 - sum_i (mu_i - lam_(i+1)) the
    step's factor is z^lam_1 prod_i (t^i / z)^(mu_i - lam_(i+1)): for
    i = k - 1 a running sum along each row that decays by c = t^(k-1) / z,
    and the rest one factor per prefix of the box below the row, by which
    the run is added there as one slice.  Box coordinates of width 1 add no
    factor, and each list of powers of t^i / z is built on first use.
    """
    c = t ** (k - 1) / z
    powers: dict[int, list] = {}  # i -> (t^i / z)^d for d = 0, 1, ...
    below: dict[tuple[int, ...], list] = {}
    for key, (start, values) in rows.items():
        run, acc = [], 0
        # mu_(k-1) runs on to lam_(k-1), past the last state of the row
        for w in values + [0] * (key[-1] + 1 - start - len(values)):
            acc = acc * c + w
            run.append(acc)
        box = [range(key[i], key[i - 1] + 1) for i in range(1, k - 1)]
        factors = [z ** key[0]]  # in the order of product(*box)
        for i, span in enumerate(box, 1):
            width = len(span)
            if width > 1:
                pw = powers.setdefault(i, [1.0])
                while len(pw) < width:
                    pw.append(pw[-1] * (t ** i / z))
                factors = [f * g for f in factors for g in pw[:width]]
        for prefix, f in zip(product(*box), factors):
            _add_run(below, prefix, start, [f * v for v in run])
    return below
