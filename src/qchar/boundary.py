"""Finite-level approximants of extreme characters and the shift action.

An extreme character is parametrized by a nondecreasing integer sequence
theta.  Its truncation-L approximant at level N is the pushdown of the
point mass at the reversed prefix nu = (theta_L, ..., theta_1) along the
composed cotransition kernel, and that has a closed form.  With c = theta_L,
t = q^2 and M = L - N, let alpha_i = c - theta_i run over the h prefix
entries below c, and for a level-N signature lam let beta_j = c - lam_(N-j+1),
0 for j > N.  Then

    P_N(lam) = qdim(lam) / qdim(nu) * q^((N+1)|lam| - (L-1)|nu|)
               * t^(cM(M-1)/2 - (M-1)(Mc - |nu|))
               * det[h_(alpha_i - beta_j - i + j)(1, t, ..., t^(M-1))]_(i,j <= h),

a skew Jacobi-Trudi determinant at a principal specialization (Macdonald,
*Symmetric Functions and Hall Polynomials*, I.5), or its dual in the
elementary functions e_k, of size c - theta_1, where that is smaller.
Up to shift and reversal nu is alpha in L variables, so 1/qdim(nu) is the
hook-content product over the cells u of alpha of [h(u)] / [L + c(u)]
(Macdonald, I.3 Ex. 1), and all of its dependence on L sits in those
brackets.  `extreme_character` takes the weights exactly, in integers,
from theta's head and theta_L alone: it neither builds the length-L
prefix nor walks the L - N levels.  When theta is constant up to L, or
L = N, the approximant is the point mass at nu itself: for a constant
theta, the rectangle (theta_1, ..., theta_1) at any truncation.  The
exact answer carries t^M, so a non-constant prefix at a large finite L
cannot be printed; `check_printable` refuses one up front from a lower
bound on its digits.  Tensoring with a rectangle realizes the shift of
the parameter sequence.
"""

import sys
from fractions import Fraction
from itertools import accumulate
from operator import index, mul

from .combinatorics import BoundaryParam, Signature, _Frozen, shift
from .characters import (
    LevelCharacter,
    first_discrepancy,
    indecomposable,
    tensor,
    total_variation,
)
from .schur import _brackets, _eliminate, _qdim_pair, _qpow, check_q


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


def _read(
    theta: BoundaryParam, level: int, truncation: int, q: Fraction
) -> tuple[int, int, Fraction, int, list[int]]:
    """The arguments of an approximant as (level, truncation, q, c, below):
    the level and truncation read with `operator.index`, 1 <= level <=
    truncation, and a level beyond `sys.maxsize`, the longest tuple,
    refused; q by `check_q`; c = theta_L, and the head entries below c in
    order."""
    level, truncation = index(level), index(truncation)
    if level < 1:
        raise ValueError("level must be at least 1")
    if level > sys.maxsize:
        raise ValueError(f"level {level} is beyond the longest signature, {sys.maxsize} parts")
    if truncation < level:
        raise ValueError(f"truncation {truncation} must be >= level {level}")
    q = check_q(q)
    top = theta.entry(truncation)
    return level, truncation, q, top, [x for x in theta.head[:truncation] if x < top]


def extreme_character(
    theta: BoundaryParam, level: int, truncation: int, q: Fraction
) -> ExtremeApproximant:
    """Exact level-`level` pushdown of the point mass at the reversed prefix.

    The point mass sits at the signature (theta_L, ..., theta_1) at level
    L = `truncation`; its pushdown along the composed cotransition kernel,
    which equals L - `level` successive restrictions, is taken by the
    determinant of the module docstring (`_approximant`), from theta's head
    and theta_L, without building the prefix.  When theta is constant up
    to L, or L = N, there is nothing to push down: the point mass at the
    level-`level` signature (theta_L, ..., theta_L, then the head entries
    below theta_L, last first) is returned, which is the prefix itself at
    L = N and the rectangle (theta_1,) * `level` for a constant theta.  A
    level beyond `sys.maxsize`, the longest tuple, is refused.  The
    measure is built without re-checking its weights.
    """
    level, truncation, q, top, below = _read(theta, level, truncation, q)
    if not below or level == truncation:
        parts = (top,) * (level - len(below)) + tuple(reversed(below))
        weights = {Signature._trusted(parts): Fraction(1)}
    else:
        weights = _approximant([top - x for x in below], top, level, truncation, q)
    return ExtremeApproximant(theta, level, truncation, LevelCharacter._trusted(level, q, weights))


def _approximant(alpha: list[int], c: int, n: int, big: int, q: Fraction) -> dict:
    """The level-n weights of the truncation-`big` approximant whose prefix
    holds c - alpha_i, i = 1..h, then c up to entry `big`, for a nonempty
    partition alpha and big > n; keys ascend lexicographically, and the
    signatures are built unchecked.

    With M = big - n, the support is the partitions beta inside alpha whose
    skew shape alpha/beta has at most M cells in a column (alpha_(M+j) <=
    beta_j, alpha_i = 0 for i > h), with beta_j = 0 for j > m = min(n, h).
    The determinant D(lam) is taken in whichever form is smaller: the h x h
    one of the module docstring, whose columns past m do not move, or, when
    alpha_1 < m, its dual det[e_(alpha'_i - beta'_j - i + j)] of size
    alpha_1, over the conjugates.  Both are integers scaled alike: with
    a = qn^2 and b = qd^2, one table per call, H_k = h_k b^((M-1)k) by
    H_k = H_(k-1) (b^(M+k-1) - a^(M+k-1)) / (b^k - a^k), or
    E_k = e_k b^((M-1)k) by
    E_k = E_(k-1) (ab)^(k-1) (b^(M-k+1) - a^(M-k+1)) / (b^k - a^k), so
    either determinant is b^((M-1)|alpha/beta|) s_(alpha/beta).

    The columns that do not move are eliminated once, fraction-free
    (`schur._eliminate`), their rows with them, so each pivot is a
    principal minor: a skew Schur value of the rows (in the dual, the
    columns) of alpha/beta from some j on, positive on the support.  The
    support is visited with the first column fastest, so the elimination
    goes on over the moving columns, last first and each on its own row,
    one step per level of the visit (`_extend`); a row whose
    beta_j = alpha_j (a column, in the dual) is empty and splits the skew
    shape, so its row and column leave the determinant instead.  Each
    sweep of the first column reads its cofactors off the one row left,
    and an entry costs one product per moving column and one exact
    division; a level costs O(width^2) integers, never a table of minors.
    Each weight is one Fraction.  nu = (theta_L, ..., theta_1) is alpha in
    L variables up to shift and reversal, so 1/qdim(nu) is the
    hook-content product over the cells u of alpha of [h(u)] / [L + c(u)]
    (Macdonald, *Symmetric Functions and Hall Polynomials*, I.3 Ex. 1),
    reduced once; the powers of qn and qd it and the q-factors of the
    formula leave are netted per |beta| before they are raised.  The visit
    is a loop over a stack: a call leaves no reference cycle.
    """
    h, gap, m = len(alpha), big - n, min(n, len(alpha))
    qn, qd = q.numerator, q.denominator
    a, b = qn * qn, qd * qd
    cols = _conjugate(alpha, alpha[0])  # alpha'
    dual = alpha[0] < m
    if dual:
        # the conjugates: row i holds alpha'_i, beta'_i <= min(alpha'_i, m)
        rows_of, width, fixed = cols, alpha[0], []
        upper = [min(x, m) for x in cols]
        lower = [max(x - gap, 0) for x in cols]
    else:
        rows_of, width, fixed = alpha, m, list(range(m, h))  # beta_j = 0 past m
        upper = alpha[:m]
        lower = [alpha[gap + j] if gap + j < h else 0 for j in range(m)]
    # table[k] for k < alpha_1 + h, the largest index an entry reaches: H_k,
    # or E_k, whose bracket moves down and which gains (ab)^(k-1)
    table, low_a, low_b, ab = [1], 1, 1, 1
    up_a, up_b = a ** gap, b ** gap
    for _ in range(alpha[0] + h - 1):
        low_a *= a
        low_b *= b
        table.append(table[-1] * ab * (up_b - up_a) // (low_b - low_a))
        if dual:
            up_a, up_b, ab = up_a // a, up_b // b, ab * a * b
        else:
            up_a, up_b = up_a * a, up_b * b

    # the fixed columns and their rows first, then a moving column at every
    # s = beta_j - j from -width, row i holding table[alpha_i - i - 1 - s]
    shifts = [-j - 1 for j in fixed] + list(range(-width, rows_of[0]))
    matrix = [
        [table[top - s] if s <= top else 0 for s in shifts]
        for top in [rows_of[i] - i - 1 for i in fixed + list(range(width))]
    ]
    sign, pivot = _eliminate(matrix, len(fixed))
    divisor = sign * pivot  # an entry's sum of products is divisor * D(lam)
    columns = list(zip(*matrix[len(fixed):]))[len(fixed):]  # columns[s + width]

    # 1/qdim(nu) = (brackets) (qn qd)^spread by hook-content: the cell (i, j)
    # of alpha has hook alpha_i - j + alpha'_j - i - 1 and content j - i, and
    # spread = sum of (L + c(u) - h(u)) = (L - 1)|alpha| - 2 sum of i alpha_i
    size = sum(alpha)
    power: dict[int, int] = {}
    for i, x in enumerate(alpha):
        for j in range(x):
            k = x - j + cols[j] - i - 1
            power[k] = power.get(k, 0) + 1
            k = big + j - i
            power[k] = power.get(k, 0) - 1
    spread = (big - 1) * size - 2 * sum(i * x for i, x in enumerate(alpha))
    inverse = Fraction(*_brackets(power, qn, qd))
    kn, kd = inverse.numerator, inverse.denominator
    # the weight at |beta| = B is kn/kd qdim(lam) D / divisor times
    # qn^(spread - (n+1)B - (M-n-1)|alpha|) qd^(spread + (2M+n-1)B - (M+n-1)|alpha|)
    powers: dict[int, tuple[int, int]] = {}  # B -> that factor times kn/kd
    prefix, out = (c,) * (n - m), {}

    # a stack item: a moving column j (0-based) still to place, the
    # elimination of the columns past it, the least value that keeps beta (or
    # beta') a partition, c minus their values (last first) and their cells;
    # at first the rows left, last first, are their entries in the unit
    # columns, which start at pivot times the identity
    unit = [[pivot if r == i else 0 for i in range(width)] for r in reversed(range(width))]
    stack = [(width - 1, (pivot, unit), 0, () if dual else prefix, 0)]
    while stack:
        j, state, least, path, cells = stack.pop()
        floor = max(lower[j], least)
        if j:
            # pushed from the least value up, so the largest is placed first
            last, left = state
            for y in range(floor, upper[j] + 1):
                if y == rows_of[j]:
                    grown = last, left[1:]
                else:
                    grown = _extend(state, columns[y - j - 1 + width], pivot)
                stack.append((j - 1, grown, y, path + (c - y,), cells + y))
            continue
        (cof,) = state[1]
        for y in range(upper[0], floor - 1, -1):
            det = sum(map(mul, columns[y - 1 + width], cof)) // divisor
            lam = path + (c - y,)
            if dual:  # lam from beta, the conjugate of beta' = c - lam
                beta = _conjugate([c - v for v in lam], m)
                lam = prefix + tuple([c - x for x in reversed(beta)])
            total = cells + y
            pair = powers.get(total)
            if pair is None:
                xn, xd = _qpow(qn, 1, spread - (n + 1) * total - (gap - n - 1) * size)
                yn, yd = _qpow(qd, 1, spread + (2 * gap + n - 1) * total - (gap + n - 1) * size)
                pair = powers[total] = kn * xn * yn, kd * xd * yd
            dn, dd = _qdim_pair(lam, qn, qd)
            out[Signature._trusted(lam)] = Fraction(pair[0] * det * dn, pair[1] * dd)
    if dual:  # visited in another order
        return dict(sorted(out.items(), key=lambda item: item[0].parts))
    return out


def _conjugate(parts: list[int], length: int) -> list[int]:
    """The first `length` parts of the conjugate of the partition with these
    parts, taken in any order and none above `length`: part j + 1 counts
    the parts above j."""
    count = [0] * (length + 1)
    for x in parts:
        count[x] += 1
    return list(accumulate(reversed(count)))[-2::-1]


def _extend(state: tuple, col: tuple, pivot: int) -> tuple:
    """One more step of Bareiss's elimination, on the next moving column.

    The state (last, rows), never changed in place, is the elimination so
    far: `last` is its last pivot, and `rows` are the rows not yet pivoted,
    the one this column pivots on first, each held as its entries in the
    unit columns, one per moving row, that started as `pivot` times the
    identity.  A row's entry
    in any column c is then sum_i c_i row_i / pivot, so `col` needs no
    replay of the earlier steps, and the step is taken on the unit columns
    alone.  Every division is exact, as in `schur._eliminate`, and the
    pivot, a principal minor, is positive on the support.
    """
    last, rows = state
    v = [sum(map(mul, col, row)) // pivot for row in rows]
    top, head = v[0], rows[0]
    return top, [
        [(x * top - f * y) // last for x, y in zip(row, head)] for row, f in zip(rows[1:], v[1:])
    ]


def check_printable(
    theta: BoundaryParam, level: int, truncation: int, q: Fraction
) -> None:
    """Refuse, before any work, an approximant whose exact weights hold an
    integer that `str` cannot print: more digits than
    `sys.get_int_max_str_digits()` (0 is no limit).

    The arguments are checked as by `extreme_character` first.  A point
    mass (theta constant up to L, or L = N) always prints.  Otherwise let c = theta_L, h the number of
    prefix entries below c and M = L - N, and take the least signature of
    the support, lam_i = theta_(N-i+1).  As a function of q each
    unnormalized weight, qdim(lam) q^((N+1)|lam|) times the chain sum, is
    a Laurent polynomial with nonnegative integer coefficients and top
    coefficient 1 (one chain is highest), and only the top signature
    (nu_1, ..., nu_N) reaches the highest degree of all.  So for each
    prime p of qd the least weight has p-adic valuation F v_p(qd), F the
    fall of its degree below the highest, and its reduced numerator is a
    multiple of qd^F.  For M >= h, each level k from N to L - h holds
    theta_1 instead of c at index k of the highest chain through the
    least signature, so F >= 2 (c - theta_1)(M - h + 1).  The request is
    refused, with ValueError, when qd^F >= 10^limit, decided in integers.
    """
    level, truncation, q, top, below = _read(theta, level, truncation, q)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    h = len(below)
    if not limit or not below or truncation - level < h:
        return
    fall = 2 * (top - below[0]) * (truncation - level - h + 1)
    qd = q.denominator
    if fall * (qd.bit_length() - 1) >= 4 * limit or qd ** fall >= 10 ** limit:
        raise ValueError(
            f"input too large: the truncation-{truncation} approximant holds an integer"
            f" of more than {limit} digits"
        )


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
