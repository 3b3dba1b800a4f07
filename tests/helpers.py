"""Shared test oracles and generators.

The oracles here are deliberately naive (monomial dictionaries, direct
enumeration, leading-term stripping) and independent of the fast paths in
the package; they are the reference every derived value is checked against.
"""

import cmath
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, product
from math import gcd, lcm
from pathlib import Path
from typing import Iterator

import qchar
from qchar import (
    BlockElement,
    LevelCharacter,
    Signature,
    check_q,
    enumerate_down,
    enumerate_gt_patterns,
    f_spectrum,
    lr_coefficients,
    qdim,
    schur_eval,
    sgf_eval,
    weight,
)
from qchar.blocks import DecomposeReport, FCompatReport, pattern_groups
from qchar.jsonio import character_to_json, format_scalar
from qchar.schur import _qdim_pair, _qpow


def run_fresh(*argv, timeout):
    """Run `python *argv` in a new interpreter that imports this checkout's qchar."""
    src = str(Path(qchar.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=dict(os.environ, PYTHONPATH=path),
    )


def principal_specialization(lam: Signature, q: Fraction) -> Fraction:
    """s_lam at (1, q^-2, ..., q^(-2(N-1))) by `schur_eval`: the oracle for
    the product formula of `principal_pair`."""
    q = check_q(q)
    return schur_eval(lam, [q ** (-2 * i) for i in range(lam.level)])


def principal_pair(parts: tuple[int, ...], a: int, b: int) -> tuple[int, int]:
    """The principal specialization at q = a/b as a positive integer pair,
    not reduced: the qdim pair over q^((N-1)|lam|), the product formula
    that `characters.sgf_eval` forms term by term."""
    num, den = _qdim_pair(parts, a, b)
    pn, pd = _qpow(b, a, (len(parts) - 1) * sum(parts))
    return num * pn, den * pd


def family_to_json(family) -> dict:
    """The document `jsonio.family_from_json` reads back."""
    return {
        "q": format_scalar(family.q),
        "levels": [character_to_json(chi) for chi in family.measures],
    }


def qbracket(n: int, q: Fraction) -> Fraction:
    """The quantum integer (q^n - q^-n) / (q - q^-1); odd in n, [1] = 1."""
    q = check_q(q)
    if n == 0:
        return Fraction(0)
    return (q ** n - q ** (-n)) / (q - q ** (-1))


def interlaces(lower: Signature, upper: Signature) -> bool:
    """Whether ``upper[k] >= lower[k] >= upper[k+1]`` holds for all k.

    The levels must differ by exactly one; the empty signature interlaces
    below every level-1 signature.
    """
    if upper.level != lower.level + 1:
        raise ValueError(
            f"levels must differ by 1: got {lower.level} and {upper.level}"
        )
    u, low = upper.parts, lower.parts
    return all(u[k] >= low[k] >= u[k + 1] for k in range(len(low)))


def iter_signatures(level: int, lo: int, hi: int) -> Iterator[Signature]:
    """All signatures of the given level with parts in [lo, hi], ascending lex."""
    # multisets of the descending range are the nonincreasing tuples in
    # descending lex order, built without a pass over all (hi - lo + 1)^level tuples
    for parts in reversed(list(combinations_with_replacement(range(hi, lo - 1, -1), level))):
        yield Signature(parts)


def monomial_schur(lam: Signature) -> dict[tuple[int, ...], int]:
    """Schur Laurent polynomial as an exponent -> coefficient dictionary."""
    out: dict[tuple[int, ...], int] = {}
    for pattern in enumerate_gt_patterns(lam):
        w = weight(pattern)
        out[w] = out.get(w, 0) + 1
    return out


def poly_mul(a: dict, b: dict) -> dict:
    out: dict[tuple[int, ...], int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(e, 0) + ca * cb
            if c:
                out[e] = c
            else:
                del out[e]
    return out


def lr_by_subtraction(lam: Signature, mu: Signature) -> dict[Signature, int]:
    """Brute-force LR expansion: multiply the monomial dictionaries and
    repeatedly strip the lex-leading term, which is always a signature."""
    prod = poly_mul(monomial_schur(lam), monomial_schur(mu))
    coeffs: dict[Signature, int] = {}
    while prod:
        e = max(prod)
        c = prod[e]
        nu = Signature(e)  # raises if the leading exponent is not sorted
        assert c > 0
        coeffs[nu] = c
        for em, cm in monomial_schur(nu).items():
            v = prod.get(em, 0) - c * cm
            if v:
                prod[em] = v
            else:
                prod.pop(em, None)
    return coeffs


def count_ssyt(shape: tuple[int, ...], letters: int) -> int:
    """Semistandard tableaux of partition shape with entries in 1..letters,
    counted by direct backtracking."""
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    entry: dict[tuple[int, int], int] = {}
    total = 0

    def place(idx: int) -> None:
        nonlocal total
        if idx == len(cells):
            total += 1
            return
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, entry[(i, j - 1)])
        if i > 0:
            lo = max(lo, entry[(i - 1, j)] + 1)
        for v in range(lo, letters + 1):
            entry[(i, j)] = v
            place(idx + 1)
        entry.pop((i, j), None)

    place(0)
    return total


def random_points(level: int, rng: random.Random) -> tuple[Fraction, ...]:
    """Nonzero random rationals with small numerators and denominators."""
    return tuple(
        Fraction(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 9))
        for _ in range(level)
    )


def random_character(
    level: int,
    q: Fraction,
    rng: random.Random,
    max_support: int = 4,
    lo: int = -2,
    hi: int = 2,
) -> LevelCharacter:
    """Random finitely supported probability measure on signatures."""
    pool = list(iter_signatures(level, lo, hi))
    support = rng.sample(pool, rng.randint(1, min(max_support, len(pool))))
    raw = [Fraction(rng.randint(1, 9)) for _ in support]
    total = sum(raw)
    return LevelCharacter(level, q, {s: w / total for s, w in zip(support, raw)})


def schur_eval_gt_oracle(lam: Signature, points) -> Fraction:
    """Reference Schur evaluation: sum over GT patterns of prod_i x_i^(w_i).

    Exponential in the level; the independent cross-check for `schur_eval`.
    """
    if len(points) != lam.level:
        raise ValueError(f"need {lam.level} points, got {len(points)}")
    total = Fraction(0)
    for pattern in enumerate_gt_patterns(lam):
        term = Fraction(1)
        for x, e in zip(points, weight(pattern)):
            term *= Fraction(x) ** e
        total += term
    return total


def _fraction_det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fractions."""
    a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, n):
            f = a[r][k] / a[k][k]
            for c in range(k, n):
                a[r][c] -= f * a[k][c]
    return det


def schur_eval_bialternant(lam: Signature, points) -> Fraction:
    """Reference Schur evaluation at pairwise distinct points, as the ratio of
    alternants det(x_i^(lam_j + N - j)) / det(x_i^(N - j)) over Fractions.

    Laurent exponents are used as they stand, with no shift to a partition.
    """
    pts = [Fraction(x) for x in points]
    n = lam.level
    if len(pts) != n or len(set(pts)) != n:
        raise ValueError(f"need {n} pairwise distinct points, got {pts}")
    top = _fraction_det([[x ** (m + n - 1 - j) for j, m in enumerate(lam.parts)] for x in pts])
    return top / _fraction_det([[x ** (n - 1 - j) for j in range(n)] for x in pts])


def schur_eval_branching_oracle(lam: Signature, points) -> Fraction:
    """Reference Schur evaluation at any nonzero points: branch in the last
    variable, s_lam(x_1..x_n) = sum over mu below lam of
    s_mu(x_1..x_(n-1)) x_n^(|lam| - |mu|), down to the two-variable closed
    form s_(a,b)(x, y) = (xy)^b h_(a-b)(x, y), h_k(x, y) = sum_i x^i y^(k-i).
    """
    pts = tuple(Fraction(x) for x in points)
    if len(pts) != lam.level:
        raise ValueError(f"need {lam.level} points, got {len(pts)}")

    @lru_cache(maxsize=None)
    def h2(k: int) -> Fraction:
        x, y = pts[:2]
        return sum((x ** i * y ** (k - i) for i in range(k + 1)), Fraction(0))

    def s(nu: Signature) -> Fraction:
        n = nu.level
        if n == 0:
            return Fraction(1)
        if n == 1:
            return pts[0] ** nu.parts[0]
        if n == 2:
            a, b = nu.parts
            return (pts[0] * pts[1]) ** b * h2(a - b)
        y = pts[n - 1]
        return sum((s(mu) * y ** (nu.size - mu.size) for mu in enumerate_down(nu)), Fraction(0))

    return s(lam)


def sgf_eval_oracle(chi: LevelCharacter, points) -> Fraction:
    """Reference exact generating function: the sum over lam of
    P(lam) * s_lam(x) / s_lam(1, q^-2, ...), one `Fraction` operation at a
    time.

    The independent cross-check for the integer fold behind `sgf_eval`.
    """
    if len(points) != chi.level:
        raise ValueError(f"need {chi.level} points, got {len(points)}")
    total = Fraction(0)
    for lam, p in chi.weights.items():
        total += p * schur_eval(lam, points) / principal_specialization(lam, chi.q)
    return total


def path_expectation(chi: LevelCharacter, ys) -> object:
    """Reference generating function as an expectation over the path: the
    sum over chains lam^(N) -> ... -> lam^(0) of
    P(lam^(N)) * prod_n Lambda(lam^(n), lam^(n-1)) * y_n^(|lam^(n)| - |lam^(n-1)|),
    Lambda the cotransition kernel.

    The chain is walked down one level at a time along
    `cotransition_oracle`, each level's mass kept per signature.  With
    y_n = q^(2(n-1)) x_n it is `sgf_eval(chi, x)` exactly; with y_n = z_n
    on the unit circle it is `sgf_eval_torus(chi, z)`, a convex combination
    of unit-modulus numbers.  No Schur value is ever computed.
    """
    if len(ys) != chi.level:
        raise ValueError(f"need {chi.level} variables, got {len(ys)}")
    layer = dict(chi.weights)
    for n in range(chi.level, 0, -1):
        y = ys[n - 1]
        below = {}
        for nu, w in layer.items():
            for lam, p in cotransition_oracle(nu, chi.q).items():
                below[lam] = below.get(lam, 0) + w * p * y ** (nu.size - lam.size)
        layer = below
    return sum(layer.values())


def _gaussian_mul(a: tuple, b: tuple) -> tuple:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def sgf_eval_torus_oracle(chi: LevelCharacter, z) -> tuple[Fraction, Fraction]:
    """Exact value of the torus pairing at Gaussian-rational points of unit
    modulus, each z_i a pair (re, im) of Fractions with re^2 + im^2 = 1.

    Sums sum over lam of P(lam) s_lam(z_1, q^-2 z_2, ...) / s_lam(1, q^-2, ...)
    pattern by pattern, both Schur values as sums over GT patterns; a
    negative power of z_i is a power of its conjugate, z^-1 = conj(z) on
    the unit circle.  Returns the real and imaginary parts.
    """
    pts = [(Fraction(re), Fraction(im)) for re, im in z]
    if len(pts) != chi.level or any(re * re + im * im != 1 for re, im in pts):
        raise ValueError(f"need {chi.level} points of unit modulus, got {pts}")
    t = chi.q ** -2
    total = (Fraction(0), Fraction(0))
    for lam, p in chi.weights.items():
        top, norm = (Fraction(0), Fraction(0)), Fraction(0)
        for pattern in enumerate_gt_patterns(lam):
            w = weight(pattern)
            scale = t ** sum(i * e for i, e in enumerate(w))
            term = (scale, Fraction(0))
            for (re, im), e in zip(pts, w):
                for _ in range(abs(e)):
                    term = _gaussian_mul(term, (re, im if e > 0 else -im))
            top = (top[0] + term[0], top[1] + term[1])
            norm += scale
        total = (total[0] + p * top[0] / norm, total[1] + p * top[1] / norm)
    return total


def sgf_eval_torus_edge_oracle(chi: LevelCharacter, z) -> complex:
    """Reference torus pairing in floats, walked along interlacing edges on
    scaled states: each level-k state is W(lam) = C(lam) q^(-2 sum_i (k-i) lam_i),
    C(lam) = P(lam) / s_lam(1, q^-2, ...), and each edge (lam, mu) from
    level k adds W(lam) z_k^(|lam|-|mu|) prod_i t^(i (mu_i - lam_(i+1))),
    t = q^2, to W(mu); the level-0 state is the value.

    The independent cross-check for the prefix-row running sums of
    `sgf_eval_torus`: the start is one exact quotient rounded once, from
    `principal_specialization`, and each edge's factor is computed on its
    own, with no running sums or shared power lists.  Every factor has
    modulus at most 1, so no state leaves the float range.
    """
    n, q = chi.level, chi.q
    states = {}
    for lam, p in chi.weights.items():
        scale = q ** (-2 * sum((n - i) * x for i, x in enumerate(lam.parts, 1)))
        states[lam.parts] = float(p * scale / principal_specialization(lam, q))
    t = float(q * q)
    for k in range(n, 0, -1):
        zk = complex(z[k - 1])
        below: dict[tuple[int, ...], complex] = {}
        for lam, w in states.items():
            for mu in product(*[range(lam[i], lam[i - 1] + 1) for i in range(1, k)]):
                f = zk ** (sum(lam) - sum(mu))
                for i in range(1, k):
                    f *= t ** (i * (mu[i - 1] - lam[i]))
                below[mu] = below.get(mu, 0) + w * f
        states = below
    return complex(states[()])


def check_product(
    chi: LevelCharacter,
    chi1: LevelCharacter,
    chi2: LevelCharacter,
    trials: int = 20,
    seed: int = 0,
) -> bool:
    """Certify chi = chi1 (x) chi2 by exact evaluation at seeded rational points.

    The generating functions are finite sums of linearly independent Schur
    polynomials, so agreement at enough distinct exact points pins the
    measures; a randomized cross-check of `tensor`.
    """
    if not (chi.level == chi1.level == chi2.level):
        raise ValueError("levels must agree")
    if not (chi.q == chi1.q == chi2.q):
        raise ValueError("q must agree")
    rng = random.Random(seed)
    for _ in range(trials):
        pts = random_points(chi.level, rng)
        if sgf_eval(chi, pts) != sgf_eval(chi1, pts) * sgf_eval(chi2, pts):
            return False
    return True


def tensor_oracle(chi1: LevelCharacter, chi2: LevelCharacter) -> LevelCharacter:
    """Reference fusion: sum over (lam, mu, nu) of
    p1 * p2 * c^nu_{lam,mu} * qdim(nu) / (qdim(lam) * qdim(mu)), one
    `Fraction` operation at a time."""
    q = chi1.q
    out: dict[Signature, Fraction] = {}
    for lam, p1 in chi1.weights.items():
        d1 = qdim(lam, q)
        for mu, p2 in chi2.weights.items():
            scale = p1 * p2 / (d1 * qdim(mu, q))
            for nu, c in lr_coefficients(lam, mu).items():
                out[nu] = out.get(nu, Fraction(0)) + scale * c * qdim(nu, q)
    return LevelCharacter(chi1.level, q, out)


def total_variation_oracle(a: LevelCharacter, b: LevelCharacter) -> Fraction:
    """Reference total variation: half the sum of |a - b| over the union of
    the supports, in `Fraction`s."""
    keys = set(a.weights) | set(b.weights)
    gap = sum(
        abs(a.weights.get(sig, Fraction(0)) - b.weights.get(sig, Fraction(0)))
        for sig in keys
    )
    return Fraction(gap) / 2


def charpoly_psd(rows) -> bool:
    """Reference semidefiniteness test for a symmetric rational matrix: every
    elementary symmetric function of the (real) spectrum is nonnegative,
    read off the characteristic polynomial by Faddeev-LeVerrier, O(n^4).

    The independent cross-check for the elimination in `blocks._ldl_psd`.
    """
    n = len(rows)
    a = [[Fraction(v) for v in row] for row in rows]
    m = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = [
            [sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        ck = -sum(am[i][i] for i in range(n)) / k
        if (-1) ** k * ck < 0:
            return False
        m = [
            [am[i][j] + (ck if i == j else 0) for j in range(n)] for i in range(n)
        ]
    return True


def wq(lam: Signature, nu: Signature, q: Fraction) -> Fraction:
    """q^((N+1)|lam| - N|nu|) for an interlacing pair lam (level N) below nu."""
    if not interlaces(lam, nu):
        raise ValueError(f"{lam} does not interlace below {nu}")
    n = lam.level
    return check_q(q) ** ((n + 1) * lam.size - n * nu.size)


def cotransition_oracle(nu: Signature, q: Fraction) -> dict[Signature, Fraction]:
    """Reference cotransition row: wq(lam, nu) * qdim(lam) / qdim(nu) for each
    lam of `enumerate_down(nu)`, in that order, one `Fraction` per entry.

    The independent cross-check for the integer walker behind `cotransition`.
    """
    d = qdim(nu, q)
    return {lam: wq(lam, nu, q) * qdim(lam, q) / d for lam in enumerate_down(nu)}


def restrict_oracle(chi: LevelCharacter) -> LevelCharacter:
    """Reference restriction: sum over nu of P(nu) * cotransition_oracle(nu),
    one `Fraction` product and sum per kernel entry."""
    out: dict[Signature, Fraction] = {}
    for nu, p in chi.weights.items():
        for lam, c in cotransition_oracle(nu, chi.q).items():
            out[lam] = out.get(lam, Fraction(0)) + p * c
    return LevelCharacter(chi.level - 1, chi.q, out)


def iterated_restrict(chi: LevelCharacter, level: int) -> LevelCharacter:
    """Push a measure down to `level` one `restrict_oracle` step at a time.

    The independent cross-check for the level step behind `restrict` and
    for the determinant behind `extreme_character`.
    """
    while chi.level > level:
        chi = restrict_oracle(chi)
    return chi


def ascending(weights) -> list:
    """The (signature, weight) entries of a measure in ascending order of parts."""
    return sorted(weights.items(), key=lambda kv: kv[0].parts)


def push_edge_oracle(weights, level: int, q: Fraction) -> dict:
    """Reference many-level pushdown by interlacing edges: the integer chain
    sum over the levels in between, a mu at level k weighted by
    A^(|mu|-lo) B^(hi-|mu|) (q^2 = A/B, lo and hi the extreme sizes there),
    each state adding its value to every lam in its box
    prod [mu[i+1], mu[i]] one edge at a time, and each level's states then
    weighted in a dict of their own.  Entries come in the order the edges
    first reach them.

    The independent cross-check for the prefix-group running sums of
    `characters._push`, repeated level by level, and for the determinant
    behind `extreme_character`.
    """
    sigs = list(weights)
    n, big, top = level, sigs[0].level, sigs[0].parts
    if len(sigs) == 1 and all(top[i + big - n] == top[i] for i in range(n)):
        return {Signature(top[:n]): Fraction(1)}
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
    los = list(map(min, zip(*[accumulate(reversed(nu.parts)) for nu in sigs])))
    his = list(map(max, zip(*[accumulate(nu.parts) for nu in sigs])))
    first = top[0]
    pinned = min([nu.parts.count(first) if nu.parts[0] == first else 0 for nu in sigs])
    sums = {nu.parts[pinned:]: c // g for nu, c in zip(sigs, starts)}
    for k in range(big - 1, n - 1, -1):
        lead = (first,) if pinned else ()
        pinned = max(pinned - 1, 0)
        below: dict[tuple[int, ...], int] = {}
        for mu, c in sums.items():
            ext = lead + mu
            for lam in product(*[range(ext[i + 1], ext[i] + 1) for i in range(len(ext) - 1)]):
                below[lam] = below.get(lam, 0) + c
        if k == n:
            break
        lo, hi = los[k - 1], his[k - 1]
        weight = [a ** e * b ** (hi - lo - e) for e in range(hi - lo + 1)]
        offset = pinned * first - lo
        sums = {mu: c * weight[sum(mu) + offset] for mu, c in below.items()}
    x = 2 * sum(los[n:big - 1]) - (big - 1) * least
    y = 2 * sum(his[n:big - 1]) - (big - 1) * least
    scale = Fraction(qn) ** x / Fraction(qd) ** y * Fraction(g, common)
    sn, sd = scale.numerator, scale.denominator
    lead = (first,) * pinned
    out = {}
    for lam, c in below.items():
        parts = lead + lam
        dn, dd = _qdim_pair(parts, qn, qd)
        e = (n + 1) * sum(parts)
        up, down = (qn ** e, qd ** e) if e >= 0 else (qd ** -e, qn ** -e)
        out[Signature(parts)] = Fraction(sn * c * dn * up, sd * dd * down)
    return out


def assert_stochastic(chi: LevelCharacter) -> None:
    """What `LevelCharacter.__init__` checks, asserted on a measure the
    library built unchecked: level-N signatures with nonincreasing int parts,
    positive `Fraction` weights, and a total of exactly 1."""
    assert type(chi.q) is Fraction and 0 < chi.q < 1, chi.q
    for lam, w in chi.weights.items():
        assert type(lam) is Signature and type(lam.parts) is tuple, lam
        assert lam.level == chi.level, (lam, chi.level)
        assert all(type(p) is int for p in lam.parts), lam
        assert all(x >= y for x, y in zip(lam.parts, lam.parts[1:])), lam
        assert type(w) is Fraction and w > 0, (lam, w)
    assert sum(chi.weights.values()) == 1


def char_state_eval_oracle(chi: LevelCharacter, x: BlockElement):
    """Reference state: sum over lam of weight(lam) * Tr(F_lam x_lam) / qdim(lam),
    one q-power `Fraction` per diagonal entry.

    The independent cross-check for the per-exponent integer sums behind
    `char_state_eval`.
    """
    q = x.q
    total = 0
    for sig, w in chi.weights.items():
        rows = x.blocks.get(sig)
        if rows is None:
            continue
        exps = f_spectrum(sig)
        tr = sum(q ** e * rows[p][p] for p, e in enumerate(exps))
        total = total + w * tr / qdim(sig, q)
    return total


def state_of_product_oracle(chi: LevelCharacter, x: BlockElement, y: BlockElement):
    """Reference chi(x @ y) from the block diagonals, one q-power `Fraction`
    per diagonal entry of the product."""
    q = x.q
    total = 0
    for sig, w in chi.weights.items():
        xs, ys = x.blocks.get(sig), y.blocks.get(sig)
        if xs is None or ys is None:
            continue
        tr = 0
        for p, (row, e) in enumerate(zip(xs, f_spectrum(sig))):
            entry = sum(a * yr[p] for a, yr in zip(row, ys))
            tr = tr + q ** e * entry
        total = total + w * tr / qdim(sig, q)
    return total


def scaling_oracle(x: BlockElement, s: int) -> BlockElement:
    """Reference imaginary-time flow: entry (p, r) times the `Fraction`
    q^(s * (e_p - e_r))."""
    q = x.q
    blocks = {}
    for sig, rows in x.blocks.items():
        exps = f_spectrum(sig)
        blocks[sig] = tuple(
            tuple(v * q ** (s * (ep - er)) if v else v for v, er in zip(row, exps))
            for row, ep in zip(rows, exps)
        )
    return BlockElement(x.level, x.q, blocks)


def kms_sides_oracle(chi: LevelCharacter, x: BlockElement, y: BlockElement) -> tuple:
    """Reference KMS sides chi(x * scaling(y, 1)) and chi(y * x), with the
    flow applied to y as a `Fraction` matrix."""
    return (
        state_of_product_oracle(chi, x, scaling_oracle(y, 1)),
        state_of_product_oracle(chi, y, x),
    )


def real_time_oracle(chi: LevelCharacter, x: BlockElement, y: BlockElement, t: float) -> complex:
    """Reference chi(sigma_t(x) @ y) at real time t, in floats: each block
    of x copied into nested lists of complex numbers, entry (p, r) times
    the unit-modulus factor exp(i t ln q (e_p - e_r)) of Ad F^(it), then
    sum over lam of weight(lam) / qdim(lam) * sum_p q^(e_p) (sigma_t(x) y)_pp.
    """
    lnq = math.log(float(x.q))
    total = 0j
    for sig, w in chi.weights.items():
        xs, ys = x.blocks.get(sig), y.blocks.get(sig)
        if xs is None or ys is None:
            continue
        exps = f_spectrum(sig)
        d = len(exps)
        flowed = [
            [complex(xs[p][r]) * cmath.exp(1j * t * lnq * (exps[p] - exps[r])) for r in range(d)]
            for p in range(d)
        ]
        tr = sum(
            float(x.q) ** exps[p] * sum(flowed[p][r] * complex(ys[r][p]) for r in range(d))
            for p in range(d)
        )
        total += float(w) * tr / float(qdim(sig, x.q))
    return total


def check_f_compatibility_oracle(nu: Signature, q: Fraction) -> FCompatReport:
    """Reference F-compatibility: F on each pattern group of nu against the
    group label's F times wq, compared as `Fraction` eigenvalues."""
    big = f_spectrum(nu)
    for lam, offset, size in pattern_groups(nu):
        factor = wq(lam, nu, q)
        small = f_spectrum(lam)
        for i in range(size):
            if q ** big[offset + i] != factor * q ** small[i]:
                return FCompatReport(False, lam, i)
    return FCompatReport(True)


def decompose_by_ratios(densities, q: Fraction) -> DecomposeReport:
    """Reference classification of a valid density (symmetric, PSD, traces
    summing to 1): zero off-diagonals, then d_i / q**e_i equal to d_0 / q**e_0
    at every pattern i, each ratio a `Fraction`."""
    coeffs = {}
    for sig, rows in sorted(densities.items(), key=lambda kv: kv[0].parts):
        n = len(rows)
        for i in range(n):
            for j in range(n):
                if i != j and rows[i][j] != 0:
                    return DecomposeReport(
                        False, reason=f"nonzero off-diagonal entry at {sig}[{i},{j}]"
                    )
        exps = f_spectrum(sig)
        ratios = [rows[i][i] / q ** exps[i] for i in range(n)]
        for i in range(1, n):
            if ratios[i] != ratios[0]:
                return DecomposeReport(
                    False,
                    reason=(
                        f"diagonal of {sig} is not proportional to the F"
                        f" eigenvalues (pattern {i})"
                    ),
                )
        coeffs[sig] = sum(rows[i][i] for i in range(n))
    return DecomposeReport(True, coefficients=coeffs)
