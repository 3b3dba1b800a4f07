"""Exact Schur Laurent polynomials, quantum dimensions and
Littlewood-Richardson coefficients.

All values are ``fractions.Fraction``; the deformation parameter q is a
rational strictly between 0 and 1, supplied at call time.  Laurent labels
(signatures with negative parts) are handled by factoring out the smallest
part: s_lam(x) = (prod x_i)^{lam_N} * s_{lam - lam_N}(x).  Inside, the
exact Schur evaluator and ``qdim`` work in Python integers: the points are
put over one common denominator, and each Schur value is a Jacobi-Trudi
determinant of complete homogeneous values, valid at every point set:
read off the h table by its expansion up to two rows, taken fraction-free
(Bareiss) from three, and handed back as an integer numerator and
denominator, which `schur_eval` wraps in one Fraction.  Quantum
dimensions are cached on integers, as an unreduced integer pair per part
tuple and q = a/b, which the other layers multiply into their own integer
sums (`characters.sgf_eval` puts the pair over a power of q for the
principal specialization s_lam(1, q^-2, ...)); `qdim` wraps the pair in
one Fraction.  Littlewood-Richardson coefficients come from the row
(horizontal-strip) form of the tableau rule, on bare part tuples.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from typing import Callable, Iterable, Sequence

from .combinatorics import Signature


def check_q(q: Fraction) -> Fraction:
    """Validate the deformation parameter, 0 < q < 1.

    A `Fraction` has a positive denominator, so the range test is
    0 < numerator < denominator, in integers.
    """
    if type(q) is not Fraction:
        q = Fraction(q)
    if not 0 < q.numerator < q.denominator:
        raise ValueError(f"q must lie strictly between 0 and 1: {q}")
    return q


def _bareiss(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss's fraction-free
    elimination, in place (`_eliminate` on all but the last column)."""
    n = len(rows)
    if not n:
        return 1
    done = _eliminate(rows, n - 1)
    return 0 if done is None else done[0] * rows[-1][-1]


def _eliminate(rows: list[list[int]], steps: int) -> tuple[int, int] | None:
    """The first `steps` steps of Bareiss's fraction-free elimination, in
    place, on an integer matrix with at least `steps` rows and columns: every
    division is exact, and afterwards row i >= steps holds, in each column
    j >= steps, the minor on rows 0..steps-1, i and columns 0..steps-1, j.
    A zero pivot is swapped with a lower row.  Returns the sign of the swaps
    and the last pivot, the leading steps x steps minor (1 for no steps), or
    None when a column has no pivot left."""
    n, width = len(rows), len(rows[0]) if rows else 0
    sign, prev = 1, 1
    for k in range(steps):
        if not rows[k][k]:
            piv = next((r for r in range(k + 1, n) if rows[r][k]), None)
            if piv is None:
                return None
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        top = rows[k]
        pivot = top[k]
        for r in range(k + 1, n):
            row = rows[r]
            f = row[k]
            for c in range(k + 1, width):
                row[c] = (row[c] * pivot - f * top[c]) // prev
        prev = pivot
    return sign, prev


def _evaluator(points: Sequence[Fraction]) -> Callable[[Signature], tuple[int, int]]:
    """lam -> s_lam(points) for signatures of level len(points) at exact
    points, as an integer pair (numerator, denominator), not reduced; the
    denominator is nonzero but may be negative.

    The points are put over one common denominator, x_i = c_i / B, and every
    Schur value is computed in integers on the partition mu = lam - lam_N:

        s_lam(x) = s_mu(c) (c_1 ... c_N)^lam_N / B^|lam|.

    s_mu(c) is the Jacobi-Trudi determinant det(h_(mu_i - i + j)(c)), l x l
    for the l <= N - 1 nonzero parts of mu; it holds at every point set,
    distinct or coincident.  Up to two rows it is expanded, 1, h_a or
    h_a h_b - h_(a+1) h_(b-1), and from three rows it is taken by Bareiss
    elimination.  The complete homogeneous values h_k(c) are one table
    shared by every signature of the call, grown on demand by the column
    recurrence h_k(c_1..c_n) = h_k(c_1..c_(n-1)) + c_n h_(k-1)(c_1..c_n),
    O(N) per k.  Zero points are rejected; each caller checks the number
    of points.
    """
    pts = [x if type(x) is Fraction else Fraction(x) for x in points]
    den = lcm(*(x.denominator for x in pts))
    c = [x.numerator * (den // x.denominator) for x in pts]
    if not all(c):
        raise ValueError("evaluation points must be nonzero")
    h = [1]  # h[k] = h_k(c_1..c_N)
    col = [1] * len(c)  # col[n] = h_(len(h)-1)(c_1..c_(n+1))
    cprod = prod(c)

    def value(lam: Signature) -> tuple[int, int]:
        parts = lam.parts
        base = parts[-1] if parts else 0
        mu = [p - base for p in parts if p != base]  # the nonzero parts
        ell = len(mu)
        while ell and len(h) < mu[0] + ell:
            acc = 0
            for n, x in enumerate(c):
                acc = col[n] = acc + x * col[n]
            h.append(acc)
        if ell > 2:
            num = _bareiss(
                [[h[m - i + j] if j >= i - m else 0 for j in range(ell)] for i, m in enumerate(mu)]
            )
        elif ell == 2:
            a, b = mu
            num = h[a] * h[b] - h[a + 1] * h[b - 1]
        else:
            num = h[mu[0]] if ell else 1
        # lam_N and |lam| may be negative: each power goes where it is positive
        if base >= 0:
            num, out = num * cprod ** base, 1
        else:
            out = cprod ** -base
        size = sum(parts)
        if size >= 0:
            return num, out * den ** size
        return num * den ** -size, out

    return value


def schur_eval(lam: Signature, points: Sequence[Fraction]) -> Fraction:
    """Exact value of the Schur Laurent polynomial s_lam at rational points.

    Computed in integers over the points' common denominator, one Fraction
    out, as a Jacobi-Trudi determinant; the same path serves distinct and
    coincident points.  Zero points are rejected.
    """
    if len(points) != lam.level:
        raise ValueError(
            f"need {lam.level} points for a level-{lam.level} signature, got {len(points)}"
        )
    return Fraction(*_evaluator(points)(lam))


@lru_cache(maxsize=None)
def _qdim_pair(parts: tuple[int, ...], a: int, b: int) -> tuple[int, int]:
    """qdim of the signature with these parts at q = a/b (0 < a < b), as a
    positive integer pair (numerator, denominator), not reduced.

    The one cache of quantum dimensions, keyed on integers: the callers
    multiply the pair into their own integer arithmetic.
    """
    # with m >= 1, [m] = (b^2m - a^2m) / ((ab)^(m-1) (b^2 - a^2)).  A pair of
    # equal parts has m == d and cancels, and in a long run of equal parts
    # nearly every pair does, so only the net power of each bracket is
    # multiplied out.  Numerator and denominator hold equally many brackets,
    # so the (b^2 - a^2) cancel and (ab) is left to the power
    # sum of (m - d) = sum over i < j of (lam_i - lam_j).
    power: dict[int, int] = {}
    spread = 0
    n = len(parts)
    for i in range(n):
        for j in range(i + 1, n):
            gap = parts[i] - parts[j]
            if gap:
                m, d = gap + j - i, j - i
                power[m] = power.get(m, 0) + 1
                power[d] = power.get(d, 0) - 1
                spread += gap
    num, den = _brackets(power, a, b)
    return num, den * (a * b) ** spread


def _brackets(power: dict[int, int], a: int, b: int) -> tuple[int, int]:
    """The product of (b^2m - a^2m)^e over the items m: e of `power`, as an
    integer pair: the positive powers over the negative ones."""
    num, den = 1, 1
    for m, e in power.items():
        if e > 0:
            num *= (b ** (2 * m) - a ** (2 * m)) ** e
        elif e < 0:
            den *= (b ** (2 * m) - a ** (2 * m)) ** -e
    return num, den


def _qpow(a: int, b: int, e: int) -> tuple[int, int]:
    """(a/b)^e for positive integers a, b as an integer pair, each power
    placed where it is positive."""
    return (a ** e, b ** e) if e >= 0 else (b ** -e, a ** -e)


def _fold(shares: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """The sum of integer pairs over the lcm of their denominators: the
    running denominator grows only by the factors a share does not share
    with it."""
    num, den = 0, 1
    for n, d in shares:
        if n:
            g = gcd(den, d)
            num, den = num * (d // g) + n * (den // g), den * (d // g)
    return num, den


# kept beside `_qdim_pair`'s cache: bench/tracer.py reads qdim.cache_info in every traced run
@lru_cache(maxsize=None)
def qdim(lam: Signature, q: Fraction) -> Fraction:
    """Quantum dimension: product of [lam_i - lam_j + j - i] / [j - i].

    Equals s_lam evaluated at (q^(N-1), q^(N-3), ..., q^(1-N)), and
    q^((N-1)|lam|) times the principal specialization; it is invariant
    under q <-> 1/q and under shifting all parts.  The bracket convention
    is pinned by exactly these identities, which the test suite checks.
    """
    q = check_q(q)
    return Fraction(*_qdim_pair(lam.parts, q.numerator, q.denominator))


@lru_cache(maxsize=None)
def _lr_partitions(
    lam: tuple[int, ...], mu: tuple[int, ...], nvars: int
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """LR expansion of s_lam * s_mu for partitions (mu without zero parts),
    keys with at most nvars parts, in ascending order.

    Letter r of an LR tableau of content mu is added to the shape as a
    horizontal strip of mu_r cells: row i may grow up to the old length of
    row i - 1, so columns stay strict.  The lattice condition reads: the
    r's in rows 1..i number at most the (r - 1)'s in rows 1..i - 1.  A
    state is a shape with that bound per row for the next letter, and
    carries the number of fillings that reach it.  Strips are grown row by
    row, each row taking only the counts its bounds allow and that the rows
    below can still complete, so no zero term is ever built.
    """
    states = {(lam, (sum(mu),) * nvars): 1}  # letter 1 has no lattice bound
    for m in mu:
        grown: dict = {}
        for (shape, bound), mult in states.items():
            # partial strips over rows 0..i-1: (rows, next bound, cells placed)
            partial = [((), (), 0)]
            for i, row in enumerate(shape):
                cap = shape[i - 1] - row if i else m
                room = row - shape[-1]  # the most the rows below can take
                partial = [
                    (rows + (row + t,), nxt + (placed,), placed + t)
                    for rows, nxt, placed in partial
                    for t in range(
                        max(0, m - placed - room),
                        min(cap, m - placed, bound[i] - placed) + 1,
                    )
                ]
            for rows, nxt, _ in partial:
                grown[rows, nxt] = grown.get((rows, nxt), 0) + mult
        states = grown
    out: dict = {}
    for (shape, _), mult in states.items():
        out[shape] = out.get(shape, 0) + mult
    return tuple(sorted(out.items()))


def _lr_terms(lam: tuple[int, ...], mu: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """LR expansion of s_lam * s_mu for part tuples of one length N, as
    (parts, coefficient) pairs in ascending order.

    Both labels are normalized to partitions by shifting away their
    smallest parts (the coefficients are shift-equivariant), the row form
    of the tableau rule is applied without recursion, and the keys are
    shifted back.  Terms whose partition would need more than N rows are
    identically zero in N variables and never appear.
    """
    n = len(lam)
    if n == 0:
        return [((), 1)]
    a, b = lam[-1], mu[-1]
    raw = _lr_partitions(tuple([p - a for p in lam]), tuple([p - b for p in mu if p > b]), n)
    k = a + b
    return [(tuple([p + k for p in nu]), c) for nu, c in raw]


def lr_coefficients(lam: Signature, mu: Signature) -> dict[Signature, int]:
    """Structure constants of s_lam * s_mu in level-many variables, keyed by
    signatures of the common level in ascending order (see `_lr_terms`).
    The rule yields nonincreasing integer parts, so the keys are built
    unchecked."""
    if lam.level != mu.level:
        raise ValueError(f"levels must agree: {lam.level} != {mu.level}")
    return {Signature._trusted(nu): c for nu, c in _lr_terms(lam.parts, mu.parts)}
