"""Exact Schur Laurent polynomials, q-brackets, quantum dimensions and
Littlewood-Richardson coefficients.

All values are ``fractions.Fraction``; the deformation parameter q is a
rational strictly between 0 and 1, supplied at call time.  Laurent labels
(signatures with negative parts) are handled by factoring out the smallest
part: s_lam(x) = (prod x_i)^{lam_N} * s_{lam - lam_N}(x).
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Sequence

from .combinatorics import Signature, shift


def check_q(q: Fraction) -> Fraction:
    """Validate the deformation parameter, 0 < q < 1."""
    q = Fraction(q)
    if not 0 < q < 1:
        raise ValueError(f"q must lie strictly between 0 and 1: {q}")
    return q


def qbracket(n: int, q: Fraction) -> Fraction:
    """The quantum integer (q^n - q^-n) / (q - q^-1); odd in n, [1] = 1."""
    q = check_q(q)
    if n == 0:
        return Fraction(0)
    return (q ** n - q ** (-n)) / (q - q ** (-1))


def _det(rows) -> Fraction:
    """In-place Gaussian elimination determinant over Fraction."""
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        pivot = rows[col][col]
        det = det * pivot
        for r in range(col + 1, n):
            f = rows[r][col] / pivot
            if f:
                rr, rc = rows[r], rows[col]
                for c in range(col + 1, n):
                    rr[c] = rr[c] - f * rc[c]
    return det


def _bialternant(lam: Signature, points: list[Fraction]) -> Fraction:
    """det(x_i^(mu_j + N - j)) / prod_{i<j}(x_i - x_j) after the Laurent shift."""
    n = lam.level
    base = lam.parts[-1]
    mu = [p - base for p in lam.parts]
    exps = [mu[j] + n - 1 - j for j in range(n)]
    num = _det([[x ** e for e in exps] for x in points])
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            den *= points[i] - points[j]
    value = num / den
    if base:
        prod = 1
        for x in points:
            prod *= x
        value *= prod ** base
    return value


def _branching(points: Sequence) -> Callable[[Signature], object]:
    """Evaluator lam -> s_lam(points) by the branching rule

        s_lam(x_1..x_N) = sum over mu below lam of s_mu(x_1..x_(N-1)) x_N^(|lam|-|mu|),

    memoised over part tuples and shared by every signature it is asked
    for, with one table of powers of x_N per level N.  Exact over Fraction;
    over complex floats every term is positive when evaluated at the |x_i|,
    so rounding stays relative to s_lam(|x_1|, ..., |x_N|).
    """
    memo: dict[tuple[int, ...], object] = {(): 1}
    powers: list[dict[int, object]] = [{} for _ in points]
    return lambda lam: _branch(lam.parts, points, memo, powers)


def _branch(parts: tuple[int, ...], points: Sequence, memo: dict, powers: list):
    # module level rather than a closure, so an evaluator is not a reference cycle
    value = memo.get(parts)
    if value is None:
        n = len(parts)
        x, table = points[n - 1], powers[n - 1]
        size = sum(parts)
        value = 0
        for mu in product(*[range(parts[i + 1], parts[i] + 1) for i in range(n - 1)]):
            e = size - sum(mu)
            p = table.get(e)
            if p is None:
                p = table[e] = x ** e
            v = memo.get(mu)
            value += (_branch(mu, points, memo, powers) if v is None else v) * p
        memo[parts] = value
    return value


def _evaluator(level: int, points: Sequence[Fraction]) -> Callable[[Signature], Fraction]:
    """lam -> s_lam(points) for level-`level` signatures at exact points.

    This is the one choice of path: pairwise distinct points go through the
    bialternant determinant ratio; coincident points, where its Vandermonde
    denominator vanishes, and level 0 go through the branching rule.  Zero
    points are rejected.
    """
    if len(points) != level:
        raise ValueError(
            f"need {level} points for a level-{level} signature, got {len(points)}"
        )
    pts = [Fraction(x) for x in points]
    if any(x == 0 for x in pts):
        raise ValueError("evaluation points must be nonzero")
    if pts and len(set(pts)) == len(pts):
        return lambda lam: _bialternant(lam, pts)
    return _branching(pts)


def schur_eval(lam: Signature, points: Sequence[Fraction]) -> Fraction:
    """Exact value of the Schur Laurent polynomial s_lam at rational points.

    Pairwise distinct points go through the bialternant determinant ratio,
    coincident points through the branching rule.  Zero points are rejected.
    """
    return Fraction(_evaluator(lam.level, points)(lam))


@lru_cache(maxsize=None)
def principal_specialization(lam: Signature, q: Fraction) -> Fraction:
    """s_lam at (1, q^-2, ..., q^(-2(N-1))); strictly positive.

    Equals qdim(lam, q) / q^((N-1)|lam|).
    """
    q = check_q(q)
    return qdim(lam, q) / q ** ((lam.level - 1) * lam.size)


@lru_cache(maxsize=None)
def qdim(lam: Signature, q: Fraction) -> Fraction:
    """Quantum dimension: product of [lam_i - lam_j + j - i] / [j - i].

    Equals s_lam evaluated at (q^(N-1), q^(N-3), ..., q^(1-N)), and
    q^((N-1)|lam|) times the principal specialization; it is invariant
    under q <-> 1/q and under shifting all parts.  The bracket convention
    is pinned by exactly these identities, which the test suite checks.
    """
    q = check_q(q)
    # in integers, one Fraction at the end: with q = a/b and m >= 1,
    # [m] = (b^2m - a^2m) / ((ab)^(m-1) (b^2 - a^2)), so each ratio
    # [m] / [d] (m >= d) is (b^2m - a^2m) / ((b^2d - a^2d) (ab)^(m-d))
    a, b = q.numerator, q.denominator
    num = den = 1
    parts, n = lam.parts, lam.level
    for i in range(n):
        for j in range(i + 1, n):
            m, d = parts[i] - parts[j] + j - i, j - i
            num *= b ** (2 * m) - a ** (2 * m)
            den *= (b ** (2 * d) - a ** (2 * d)) * (a * b) ** (m - d)
    return Fraction(num, den)


def _lr_fillings(nu: tuple[int, ...], lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Count column-strict fillings of the skew shape nu/lam with content mu
    whose reverse reading word is a lattice word.

    Cells are filled row by row, right to left inside each row, which is
    the reading order of the lattice condition, so every constraint is
    checked incrementally.
    """
    cells = []
    for i, (top, bottom) in enumerate(zip(nu, lam)):
        for j in range(top - 1, bottom - 1, -1):
            cells.append((i, j))
    nletters = len(mu)
    remaining = list(mu)
    counts = [0] * (nletters + 1)  # counts[0] is a sentinel upper bound
    counts[0] = len(cells) + 1
    entry = {}
    total = 0

    def place(idx: int) -> None:
        nonlocal total
        if idx == len(cells):
            total += 1
            return
        i, j = cells[idx]
        hi = nletters
        if j + 1 < nu[i] and (i, j + 1) in entry:
            hi = min(hi, entry[(i, j + 1)])
        lo = 1
        if i > 0 and j >= lam[i - 1]:
            lo = entry[(i - 1, j)] + 1
        for r in range(lo, hi + 1):
            if remaining[r - 1] == 0 or counts[r] + 1 > counts[r - 1]:
                continue
            counts[r] += 1
            remaining[r - 1] -= 1
            entry[(i, j)] = r
            place(idx + 1)
            del entry[(i, j)]
            remaining[r - 1] += 1
            counts[r] -= 1

    place(0)
    return total


@lru_cache(maxsize=None)
def _lr_partition_expansion(
    lam: tuple[int, ...], mu: tuple[int, ...], nvars: int
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """LR expansion for partitions, keys restricted to at most nvars parts."""
    mu = tuple(p for p in mu if p > 0)
    total = sum(mu)
    if total == 0:
        return ((lam, 1),)
    out = {}

    def build(prefix: tuple[int, ...], i: int, left: int) -> None:
        if i == nvars:
            if left == 0:
                c = _lr_fillings(prefix, lam, mu)
                if c:
                    out[prefix] = c
            return
        upper = lam[i] + left
        if prefix:
            upper = min(upper, prefix[-1])
        for part in range(lam[i], upper + 1):
            build(prefix + (part,), i + 1, left - (part - lam[i]))

    build((), 0, total)
    return tuple(sorted(out.items()))


def lr_coefficients(lam: Signature, mu: Signature) -> dict[Signature, int]:
    """Structure constants of s_lam * s_mu in level-many variables.

    Both labels are normalized to partitions by shifting away their
    smallest parts (the coefficients are shift-equivariant), the classical
    tableau rule is applied, and the keys are shifted back.  Keys are
    signatures of the common level; terms whose partition would need more
    rows are identically zero in that many variables and never appear.
    """
    if lam.level != mu.level:
        raise ValueError(f"levels must agree: {lam.level} != {mu.level}")
    n = lam.level
    if n == 0:
        return {lam: 1}
    a, b = lam.parts[-1], mu.parts[-1]
    lam0 = tuple(p - a for p in lam.parts)
    mu0 = tuple(p - b for p in mu.parts)
    raw = _lr_partition_expansion(lam0, mu0, n)
    return {shift(Signature(nu), a + b): c for nu, c in raw}
