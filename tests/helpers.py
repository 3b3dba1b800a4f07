"""Shared test oracles and generators.

The oracles here are deliberately naive (monomial dictionaries, direct
enumeration, leading-term stripping) and independent of the fast paths in
the package; they are the reference every derived value is checked against.
"""

import random
from fractions import Fraction
from itertools import product

from qchar import Signature, LevelCharacter, enumerate_gt_patterns, sgf_eval, weight


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
    pool = [
        Signature(parts)
        for parts in product(range(lo, hi + 1), repeat=level)
        if all(parts[i] >= parts[i + 1] for i in range(level - 1))
    ]
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
