"""Level-N characters as probability measures on signatures.

A character of the rank-N algebra decomposes uniquely as a convex
combination of the indecomposable ones, so it is stored losslessly as a
finitely supported probability measure.  This module provides the
cotransition kernel, restriction, coherence checking, the tensor product
(fusion weighted by quantum-dimension ratios) and generating-function
evaluation, exact and on the torus.  Every level step is one walk,
`_sweep`, on a level's states kept in rows by all parts but the last
(`_add_run`): a running sum along each row, then one running sum across
the rows per coordinate that they move, each with a factor its caller
gives.  `_push`, behind a kernel row and `restrict`, takes one level with
every factor 1, in integers; `sgf_eval_torus` takes every level in
floats, on states scaled by their dominant monomials so that no factor
exceeds 1 in modulus.  The extreme-character approximants of `boundary`
take many levels at once by a closed form, without a walk.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import add, index
from typing import Mapping, Sequence

from .combinatorics import Signature, _Frozen
from .schur import _evaluator, _fold, _lr_terms, _qdim_pair, _qpow, check_q


class LevelCharacter(_Frozen):
    """A level plus a finitely supported probability measure on signatures.

    Weights are strictly positive rationals summing to exactly 1.  The
    unique level-0 character is the point mass at the empty signature.
    The constructor reads the level with `operator.index`, as `Signature`
    reads parts, and checks every weight and the sum; the measures that
    `restrict`, `tensor` and the `boundary` approximants and shifts build
    are exact by construction and come through `_trusted` unchecked (the
    tests check them instead).
    """

    __slots__ = ("level", "q", "weights")

    def __init__(self, level: int, q: Fraction, weights: Mapping[Signature, Fraction]):
        q, level = check_q(q), index(level)
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
    """On failure: the lower level, the first signature whose mass differs,
    and its mass after restriction and as stored (0 where absent)."""

    __slots__ = ("ok", "level", "sig", "restricted_mass", "stored_mass")

    def __init__(
        self,
        ok: bool,
        level: int | None = None,
        sig: Signature | None = None,
        restricted_mass: Fraction | None = None,
        stored_mass: Fraction | None = None,
    ):
        self._set(ok, level, sig, restricted_mass, stored_mass)


def indecomposable(lam: Signature, q: Fraction) -> LevelCharacter:
    """The point mass at lam."""
    return LevelCharacter(lam.level, q, {lam: Fraction(1)})


def cotransition(nu: Signature, q: Fraction) -> dict[Signature, Fraction]:
    """Stochastic row of the cotransition kernel at nu (level N + 1):

        Lambda(nu, lam) = q^((N+1)|lam| - N|nu|) * qdim(lam) / qdim(nu)

    for lam interlacing below nu.  Entries are positive and sum to exactly
    1; keys ascend lexicographically.  `_push` of the point mass at nu.
    """
    q = check_q(q)
    if nu.level < 1:
        raise ValueError("need a signature of level >= 1")
    return _push({nu: 1}, q)


def restrict(chi: LevelCharacter) -> LevelCharacter:
    """Push the measure one level down along the cotransition kernel:
    the sum over nu of P(nu) Lambda(nu, .), taken in integers by `_push`.
    The weights are keyed in ascending order of parts, whatever the order
    of chi's; the result is built without re-checking them."""
    if chi.level < 1:
        raise ValueError("cannot restrict below level 0")
    return LevelCharacter._trusted(chi.level - 1, chi.q, _push(chi.weights, chi.q))


def _push(weights: Mapping[Signature, Fraction], q: Fraction) -> dict:
    """Push the measure `weights` at level N + 1 >= 1 one level down along
    the cotransition kernel, in integers:

        sum over nu of P(nu) q^((N+1)|lam| - N|nu|) qdim(lam) / qdim(nu)

    on nu[i+1] <= lam[i] <= nu[i].  Each nu starts as the integer
    P(nu) q^(-N(|nu|-s0)) / qdim(nu) (s0 the least |nu|) over one common
    denominator, divided by their gcd; the states are kept in rows by all
    parts but the last (`_add_run`) and moved by one `_sweep` with every
    factor 1, so each lam gets the plain sum of the integers above it, and
    each output weight is one Fraction from integers.  A push to level 0 is
    the point mass at the empty signature.  Keys ascend lexicographically,
    and the signatures are built unchecked.
    """
    sigs = list(weights)
    n = sigs[0].level - 1
    if not n:
        return {Signature._trusted(()): Fraction(1)}
    qn, qd = q.numerator, q.denominator
    least = min([nu.size for nu in sigs])
    nums, dens = [], []
    for nu, p in weights.items():
        (dn, dd), e = _qdim_pair(nu.parts, qn, qd), n * (nu.size - least)
        nums.append(p.numerator * dd * qd ** e)
        dens.append(p.denominator * dn * qn ** e)
    common = lcm(*dens)
    starts = [m * (common // d) for m, d in zip(nums, dens)]
    g = gcd(*starts)
    # the states by all parts but the last: prefix -> [start, values],
    # values[i] the integer at prefix + (start + i,), 0 where there is none
    rows: dict[tuple[int, ...], list] = {}
    for nu, c in zip(sigs, starts):
        _add_run(rows, nu.parts[:-1], nu.parts[-1], [c // g])
    rows = _sweep(rows, n + 1, lambda i: 1, lambda first: 1)
    up, down = _qpow(qn, qd, -n * least)
    sn, sd = Fraction(up * g, down * common).as_integer_ratio()
    powers: dict[int, tuple[int, int]] = {}  # |lam| -> the scale times q^((N+1)|lam|)
    out = {}
    for key in sorted(rows):
        start, values = rows[key]
        for last, c in enumerate(values, start):
            if not c:
                continue
            parts = key + (last,)
            size = sum(parts)
            pair = powers.get(size)
            if pair is None:
                up, down = _qpow(qn, qd, (n + 1) * size)
                pair = powers[size] = sn * up, sd * down
            dn, dd = _qdim_pair(parts, qn, qd)
            out[Signature._trusted(parts)] = Fraction(pair[0] * c * dn, pair[1] * dd)
    return out


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
    sum |n_a (D/d_a) - n_b (D/d_b)| / 2D, in one pass that reads each n/d
    and hashes each signature once; those only in b add their own mass.
    """
    ra = [w.as_integer_ratio() for w in a.weights.values()]
    rb = [w.as_integer_ratio() for w in b.weights.values()]
    common = lcm(*[d for _, d in ra], *[d for _, d in rb])
    ib = {sig: n * (common // d) for sig, (n, d) in zip(b.weights, rb)}
    gap = sum(abs(n * (common // d) - ib.pop(sig, 0)) for sig, (n, d) in zip(a.weights, ra))
    return Fraction(gap + sum(ib.values()), 2 * common)


def is_coherent(family: CoherentFamily) -> CoherenceReport:
    """Whether restricting each level reproduces the level below it, exactly.

    A single-level family is vacuously coherent.  On failure the report
    carries the lower level N, the first signature whose mass differs, and
    that signature's restricted and stored masses.
    """
    for n in range(len(family.measures) - 1, 0, -1):
        lower, upper = family.measures[n - 1], family.measures[n]
        pushed = restrict(upper)
        sig = first_discrepancy(pushed, lower)
        if sig is not None:
            return CoherenceReport(
                False,
                lower.level,
                sig,
                pushed.weights.get(sig, Fraction(0)),
                lower.weights.get(sig, Fraction(0)),
            )
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
    end, in one pass over the support: each term is the product of the
    integer parts of P(lam), of the Schur value (`schur._evaluator`: a
    Jacobi-Trudi determinant expanded up to two rows, by Bareiss from
    three) and of the principal specialization, the cached qdim pair over
    q^((N-1)|lam|).  The terms are folded over the lcm of their
    denominators, so the running denominator grows only by the factors a
    term does not share with it.
    """
    if len(points) != chi.level:
        raise ValueError(f"need {chi.level} points, got {len(points)}")
    s = _evaluator(points)
    qn, qd = chi.q.numerator, chi.q.denominator
    n = chi.level - 1
    terms = []
    for lam, p in chi.weights.items():
        parts = lam.parts
        sn, sd = s(lam)
        dn, dd = _qdim_pair(parts, qn, qd)
        un, ud = _qpow(qd, qn, n * sum(parts))  # q^-(N-1)|lam|
        pn, pd = p.as_integer_ratio()
        # P(lam) s_lam(x) / (qdim(lam) q^-(N-1)|lam|)
        terms.append((pn * sn * dd * ud, pd * sd * dn * un))
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
    [1, dim lam], and with t = q^2 each level from k to k - 1 is

        W(mu) = sum over lam above mu of W(lam) z_k^(|lam|-|mu|)
                * prod_i t^(i (mu_i - lam_(i+1))),

    whose factors all have modulus at most 1; the value is the sum over the
    level-1 states of W(lam) z_1^lam_1.  Each level, the first included, is
    one `_sweep` with the factors t^i / z_k and z_k^lam_1, which costs
    O(states x moving coordinates) rather than the box volume of its rows.
    Every term is positive at z = (1, ..., 1), so rounding stays relative
    to the normaliser, and no state leaves the float range: for every
    0 < q < 1 and every valid character, |S(z)| <= 1 + 1e-12 and
    |S(1, ..., 1) - 1| <= 1e-12.
    """
    if len(z) != chi.level:
        raise ValueError(f"need {chi.level} torus points, got {len(z)}")
    zs = [complex(v) for v in z]
    # written so that a NaN or infinite coordinate fails the comparison, and
    # bounded first so that abs() never overflows on a huge finite one
    if not all(
        abs(v.real) <= 2 and abs(v.imag) <= 2 and abs(abs(v) - 1.0) <= TORUS_PRECISION
        for v in zs
    ):
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
        zk = zs[k - 1]
        rows = _sweep(rows, k, lambda i: t ** i / zk, zk.__pow__)
    (start, values), = rows.values()
    return sum(c * zs[0] ** last for last, c in enumerate(values, start))


def _sweep(rows: dict, k: int, decay, lead) -> dict:
    """One level of the transposed branching rule, from k >= 2 to k - 1, on
    the rows of `_add_run`: each mu gets the sum over the lam above it of
    the value at lam times lead(lam_1) prod_i decay(i)^(mu_i - lam_(i+1)),
    the factors given by the caller (1 and 1 for `_push`, in integers;
    z^lam_1 and t^i / z for `sgf_eval_torus`, where |lam| - |mu| =
    lam_1 - sum_i (mu_i - lam_(i+1))).  The sum is taken one coordinate at
    a time, right to left.  First each row's running sum along the last
    part, decaying by decay(k-1), taken on to lam_(k-1) and times
    lead(lam_1); then, for i = k - 2 down to 1, the key's lam_(i+1)
    becomes mu_i by a running sum across the rows that differ only in it,
    decaying by decay(i) and emitted for each mu_i up to lam_i; last, lam_1
    is folded into the level-(k-1) rows.  A coordinate that no row moves
    (lam_i = lam_(i+1) in every row, so mu_i = lam_i with weight 1) costs
    no pass and no factor.  Each state of the last pass, or each run at a
    level with no pass (k = 2 among them), is folded as soon as it is
    final, so they are never all held beside the level-(k-1) rows.  Each
    state is emitted once per pass, so a level costs O(states x moving
    coordinates), not one slice per box prefix.
    """
    cols = list(zip(*rows))  # cols[i] = key[i] of every row, in one order
    moving = [i for i in range(k - 2, 0, -1) if cols[i - 1] != cols[i]]
    c, cur, below = decay(k - 1), {}, {}
    for key, (start, values) in rows.items():
        run, acc, f = [], 0, lead(key[0])
        # mu_(k-1) runs on to lam_(k-1), past the last state of the row
        for w in values + [0] * (key[-1] + 1 - start - len(values)):
            acc = acc * c + w
            run.append(acc * f)
        if moving:
            cur[key] = [start, run]
        else:  # no pass: each run goes straight into the level-(k-1) rows
            _add_run(below, key[1:], start, run)
    for i in moving:
        d = decay(i)
        last = i == moving[-1]
        rows, cur = cur, {}
        lows: dict[tuple[int, ...], int] = {}  # the rest of a key -> its least lam_(i+1)
        for key in rows:
            rest = key[:i] + key[i + 1 :]
            low = lows.get(rest)
            if low is None or key[i] < low:
                lows[rest] = key[i]
        for rest, low in lows.items():
            head, tail = rest[:i], rest[i:]
            # the lowest row moves on as it is; every later state is a fresh
            # decayed copy, so no row of the pass's input is changed
            key = head + (low,) + tail
            acc = cur[key] = rows[key]
            for v in range(low + 1, rest[i - 1] + 1):
                if last:  # the state at key is final: fold it and drop it
                    _add_run(below, key[1:], *cur.pop(key))
                key = head + (v,) + tail
                acc = cur[key] = [acc[0], [a * d for a in acc[1]]]
                row = rows.get(key)
                if row is not None:
                    _add_run(cur, key, *row)
            if last:
                _add_run(below, key[1:], *cur.pop(key))
    return below
