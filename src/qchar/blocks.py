"""Finite-level block-matrix model of the group algebra with its modular flow.

Elements are finitely supported maps from signatures to square matrices,
one block per irreducible label, the block side being the classical
dimension.  The positive operator F attached to a block is diagonal in
the pattern basis with eigenvalue q^e at a pattern of weight w, where
e = sum_i (N+1-2i) w_i; `f_spectrum` gives the tuple of these exponents.
Three facts lock this model in: the trace of F (and of its inverse) is
the quantum dimension, restriction of F to the pattern group of a lower
label equals that label's F up to the cotransition q-power, and the
twisted trace below satisfies the beta = -1 KMS identity.  A global
q <-> 1/q flip would negate every exponent coherently and is an equally
valid convention.

States are reused from `characters`: a level character evaluates on a
block element as sum of weight(lam) * Tr(F_lam x_lam) / qdim(lam).

With q = a/b every eigenvalue of F is a^e/b^e, so a twisted trace is a
Laurent polynomial in q.  The pairings below gather each block's entry
products by F exponent, make each block's share an unreduced integer pair
over the integer quantum dimension, and fold the shares over the lcm of
their denominators, building one `Fraction` per returned value instead of
a q-power per entry or a quotient per block.  The pairings, `@`, `scaling`
and the off-diagonal test of `decompose_state` share one row walk, in
which `compress` visits only the nonzero entries of each stored row.  The
real-time flow is kept exact: `flow_coefficients` returns chi(sigma_t(x) y)
as the Laurent coefficients of a polynomial in w = q^(it), and evaluating
it in floats is left to the caller.  The KMS check reads its left side
from the same pass, the flow at w = q^-1, and its right side from
`state_of_product`.  The exact imaginary-time flow `scaling` reads each
scaled entry v * q^m from one module-level cache shared by every call,
keyed on (v.numerator, v.denominator, q.numerator, q.denominator, m).  A
miss takes one path: Fraction(v) times q^m, with q^m built once per call
and gap.  The cache is bounded by fixed limits: an entry is kept only when
|m| and every integer of its key and value are within `_SCALED_BITS` bits,
and the cache is cleared when it reaches `_SCALED_KEYS` entries, so it
never holds more than 6 MB.  The F-compatibility check compares exponents.
Rows of int 0s, most of a matrix unit or of an embedding that misses a
label, are stored once per block side, and the walks skip them.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, repeat
from math import lcm
from operator import index, is_
from typing import Iterable, Mapping, Sequence

from .combinatorics import (
    Signature,
    _Frozen,
    dimension,
    enumerate_down,
    enumerate_gt_patterns,
    weight,
)
from .characters import LevelCharacter, _check_operands
from .schur import _fold, _qdim_pair, _qpow, check_q

Matrix = tuple[tuple, ...]
_INEXACT = "block entries must be exact (int or Fraction)"


class FCompatReport(_Frozen):
    __slots__ = ("ok", "sig", "index")

    def __init__(self, ok: bool, sig: Signature | None = None, index: int | None = None):
        self._set(ok, sig, index)


class DecomposeReport(_Frozen):
    __slots__ = ("ok", "coefficients", "reason")

    def __init__(self, ok: bool, coefficients: dict | None = None, reason: str | None = None):
        self._set(ok, coefficients, reason)


@lru_cache(maxsize=None)
def f_spectrum(lam: Signature) -> tuple[int, ...]:
    """The diagonal of F on lam's block: the exponent sum_i (N+1-2i) w_i
    for each pattern of lam, in canonical pattern order.

    Summing q to these exponents, or their negatives, gives the quantum
    dimension either way: the weight multiset is symmetric under reversal.
    """
    n = lam.level
    exps = []
    for pattern in enumerate_gt_patterns(lam):
        w = weight(pattern)
        exps.append(sum((n - 1 - 2 * i) * w[i] for i in range(n)))
    return tuple(exps)


@lru_cache(maxsize=None)
def pattern_groups(nu: Signature) -> tuple[tuple[Signature, int, int], ...]:
    """(label, offset, size) runs of nu's patterns grouped by their sub-top
    row, larger labels first, matching the canonical pattern order."""
    groups = []
    offset = 0
    for lam in reversed(enumerate_down(nu)):
        size = dimension(lam)
        groups.append((lam, offset, size))
        offset += size
    return tuple(groups)


@lru_cache(maxsize=None)
def _zero_row(d: int) -> tuple:
    return (0,) * d


def _square(kind: str, sig: Signature, rows) -> Matrix:
    """Freeze and shape-check a block.  Each row of int 0s becomes `_zero_row(d)`,
    one tuple per side; a row that already is that tuple skips the identity scan."""
    d = dimension(sig)
    rows = tuple(map(tuple, rows))
    if len(rows) != d or any(len(r) != d for r in rows):
        raise ValueError(f"{kind} at {sig} must be {d}x{d}")
    if all(map(any, rows)):
        return rows
    zero = _zero_row(d)
    return tuple(zero if r is zero or (not any(r) and all(map(is_, r, zero))) else r for r in rows)


def _mat_mul(a: Matrix, b: Matrix) -> list:
    """a @ b over the nonzero entries of a's and b's rows, in the walk of
    `_pair_table`; a's shared zero rows stay shared in the product."""
    zero, cols = _zero_row(len(a)), range(len(a))
    out = [zero] * len(a)
    for i, row in enumerate(a):
        if row is zero:
            continue
        oi = out[i] = [0] * len(a)
        for k in compress(cols, row):
            x, bk = row[k], b[k]
            for j in compress(cols, bk):
                oi[j] = oi[j] + x * bk[j]
    return out


class BlockElement(_Frozen):
    """Finitely supported signature -> square matrix map at one level.

    The level is read with `operator.index`, as `Signature` reads parts.
    Matrix entries are exact (int or Fraction); each block is square with
    side equal to its signature's dimension, rows and columns indexed by
    patterns in canonical order.  Absent blocks are zero, and every row of
    int 0s is one tuple shared by all blocks of its side.  The first pairing
    or scaling that reads a non-exact entry refuses it with ValueError.
    """

    __slots__ = ("level", "q", "blocks")

    def __init__(self, level: int, q: Fraction, blocks: Mapping[Signature, Matrix]):
        q, level = check_q(q), index(level)
        if level < 1:
            raise ValueError("block elements live at level >= 1")
        frozen = {}
        for sig, rows in blocks.items():
            if sig.level != level:
                raise ValueError(f"{sig} is not a level-{level} signature")
            frozen[sig] = _square("block", sig, rows)
        self._set(level, q, frozen)

    @classmethod
    def identity(cls, level: int, q: Fraction, sigs: Iterable[Signature]) -> "BlockElement":
        blocks = {}
        for sig in sigs:
            d = dimension(sig)
            blocks[sig] = tuple(
                tuple(1 if i == j else 0 for j in range(d)) for i in range(d)
            )
        return cls(level, q, blocks)

    @classmethod
    def basis_unit(
        cls, level: int, q: Fraction, sig: Signature, row: int, col: int
    ) -> "BlockElement":
        """The matrix unit e_{row,col} on a single block, 0-indexed."""
        d = dimension(sig)
        rows = [_zero_row(d)] * d
        unit = [0] * d
        unit[col] = 1
        rows[row] = unit
        return cls(level, q, {sig: rows})

    def __matmul__(self, other: "BlockElement") -> "BlockElement":
        _check_operands(self, other)
        blocks = {
            sig: _mat_mul(rows, other.blocks[sig])
            for sig, rows in self.blocks.items()
            if sig in other.blocks
        }
        return BlockElement(self.level, self.q, blocks)

    def adjoint(self) -> "BlockElement":
        blocks = {sig: tuple(zip(*rows)) for sig, rows in self.blocks.items()}
        return BlockElement(self.level, self.q, blocks)


def random_block_element(
    level: int, q: Fraction, sigs: Iterable[Signature], rng
) -> BlockElement:
    """Seeded random element: sparse integer matrices on the given blocks,
    each entry drawn with probability 0.4, uniform on -3..3."""
    blocks = {}
    for sig in sigs:
        d = dimension(sig)
        blocks[sig] = [
            [rng.randint(-3, 3) if rng.random() < 0.4 else 0 for _ in range(d)]
            for _ in range(d)
        ]
    return BlockElement(level, q, blocks)


def _laurent_value(terms: Mapping[int, object], q: Fraction) -> tuple[int, int]:
    """sum_e c_e q^e over an exponent -> coefficient map, as an integer pair
    (numerator, denominator), not reduced.

    The coefficients are brought over their common denominator D; with
    q = a/b and lo <= e <= hi the sum is
    (sum_e D c_e a^(e-lo) b^(hi-e)) a^lo / (D b^hi).  A coefficient
    without integer parts is refused with ValueError.
    """
    if not terms:
        return 0, 1
    a, b = q.numerator, q.denominator
    lo, hi = min(terms), max(terms)
    try:
        den = lcm(*(c.denominator for c in terms.values()))
        num = sum(
            c.numerator * (den // c.denominator) * a ** (e - lo) * b ** (hi - e)
            for e, c in terms.items()
        )
    except AttributeError:
        raise ValueError(_INEXACT) from None
    (an, ad), (bn, bd) = _qpow(a, 1, lo), _qpow(1, b, hi)
    return num * an * bn, den * ad * bd


def _add_term(terms: dict, e: int, c) -> None:
    if c:
        terms[e] = terms.get(e, 0) + c


def _block_share(
    chi: LevelCharacter, sig: Signature, terms: Mapping[int, object]
) -> tuple[int, int]:
    """weight(sig) * P(q) / qdim(sig) as an integer pair, not reduced, for
    the exponent -> coefficient map of a twisted trace P on the block at
    sig; qdim is the integer pair of `_qdim_pair`."""
    q, w = chi.q, chi.weights[sig]
    pn, pd = _laurent_value(terms, q)
    dn, dd = _qdim_pair(sig.parts, q.numerator, q.denominator)
    return w.numerator * pn * dd, w.denominator * pd * dn


def _total(shares: list):
    """The folded shares as one `Fraction`, or int 0 when there are none."""
    return Fraction(*_fold(shares)) if shares else 0


def char_state_eval(chi: LevelCharacter, x: BlockElement):
    """sum over lam of weight(lam) * Tr(F_lam x_lam) / qdim(lam).

    F is diagonal, so the twisted trace needs only x's diagonal entries,
    gathered by F exponent into one Laurent polynomial in q per block;
    blocks outside the state's support contribute nothing.  Each block's
    share is an integer pair, and the shares are folded into one
    `Fraction`; the value is int 0 when x has no block in the support.
    """
    _check_operands(chi, x)
    shares = []
    for sig in chi.weights:
        rows = x.blocks.get(sig)
        if rows is None:
            continue
        terms = {}
        for p, e in enumerate(f_spectrum(sig)):
            _add_term(terms, e, rows[p][p])
        shares.append(_block_share(chi, sig, terms))
    return _total(shares)


def _shared_blocks(chi: LevelCharacter, x: BlockElement, y: BlockElement):
    """(sig, x's block, y's block, F exponents) for each label of chi's
    support at which both x and y have a block, after the level and q
    checks of `x @ y` and of evaluating chi on it."""
    _check_operands(x, y)
    _check_operands(chi, x)
    for sig in chi.weights:
        xs, ys = x.blocks.get(sig), y.blocks.get(sig)
        if xs is not None and ys is not None:
            yield sig, xs, ys, f_spectrum(sig)


def state_of_product(chi: LevelCharacter, x: BlockElement, y: BlockElement):
    """chi(x @ y) without forming the product, O(d^2) per block:
    sum over lam of weight(lam) / qdim(lam) * sum_p q^(e_p) sum_r x_pr y_rp.

    Only the diagonal of each block product is built, from the nonzero
    entries of x's stored rows, and it is gathered by F exponent and
    folded exactly as in `char_state_eval`, so the value is identical,
    one `Fraction` or int 0; the level and q checks are those of the two.
    With x and y swapped it is the right side of `kms_check`.
    """
    return _total([
        _block_share(chi, sig, _product_terms(xs, ys, exps))
        for sig, xs, ys, exps in _shared_blocks(chi, x, y)
    ])


def flow_coefficients(
    chi: LevelCharacter, x: BlockElement, y: BlockElement
) -> dict[int, Fraction]:
    """chi(sigma_t(x) @ y) as {k: c_k}, the nonzero coefficients, in
    increasing k, of its Laurent polynomial sum_k c_k w^k in w = q^(it).

    The flow sigma_t = Ad F^(it) multiplies entry (p, r) of a block by
    w^(e_p - e_r), so c_k = sum over lam of weight(lam) / qdim(lam) *
    sum over e_p - e_r = k of q^(e_p) x_pr y_rp: each block's
    `_pair_table` is grouped by the gap e_p - e_r and gathered by F
    exponent as in `state_of_product`.  The shares at each k are folded as
    integer pairs, and each returned c_k is one `Fraction`; a k whose
    shares cancel is left out.  Exactly, the value at w = 1 is
    state_of_product(chi, x, y), at w = q^s it is
    chi(scaling(x, s) @ y), and at w = q^-1 it is chi(x @ scaling(y, 1)),
    the left side of `kms_check`.  At real time t the value is the float
    sum sum_k float(c_k) e^(ikt ln q), left to the caller; with n terms and
    u = 2^-53 its rounding error is, to first order, at most
    (n + 3 + max_k |k t| (1 + 3 |ln q|)) u sum_k |c_k|, the phase error
    growing with |k t| from the rounding of q and of its logarithm.
    """
    shares = {}
    for sig, xs, ys, exps in _shared_blocks(chi, x, y):
        by_gap = {}
        for (ep, er), c in _pair_table(xs, ys, exps).items():
            by_gap.setdefault(ep - er, {})[ep] = c
        for k, terms in by_gap.items():
            shares.setdefault(k, []).append(_block_share(chi, sig, terms))
    coeffs = {}
    for k in sorted(shares):
        num, den = _fold(shares[k])
        if num:
            coeffs[k] = Fraction(num, den)
    return coeffs


def _pair_table(xs: Matrix, ys: Matrix, exps: Sequence[int]) -> dict:
    """{(e_p, e_r): sum of x_pr y_rp} on one block, the pass behind the
    flow and the KMS left side, over the nonzero entries of x's rows."""
    zero, cols = _zero_row(len(exps)), range(len(exps))
    table = {}
    for p, row in enumerate(xs):
        if row is zero:
            continue
        ep = exps[p]
        for r in compress(cols, row):
            b = ys[r][p]
            if b:
                key = ep, exps[r]
                table[key] = table.get(key, 0) + row[r] * b
    return table


def _product_terms(xs: Matrix, ys: Matrix, exps: Sequence[int]) -> dict:
    """Tr(F x y) on one block as an exponent -> coefficient map: the
    diagonal entry p of x @ y, summed in the order `@` uses, at e_p,
    over the nonzero entries of x's rows; a shared zero row adds nothing."""
    zero, cols = _zero_row(len(exps)), range(len(exps))
    terms = {}
    for p, row in enumerate(xs):
        if row is zero:
            continue
        entry = 0
        for r in compress(cols, row):
            b = ys[r][p]
            if b:
                entry = entry + row[r] * b
        _add_term(terms, exps[p], entry)
    return terms


# v * q^m for each key (v.numerator, v.denominator, q.numerator,
# q.denominator, m), shared by every `scaling` call: see `_scaled_entry`
_SCALED: dict[tuple[int, int, int, int, int], Fraction] = {}
_SCALED_BITS = 320
_SCALED_KEYS = 8192


def _scaled_entry(key: tuple[int, int, int, int, int], big: dict, gaps: dict) -> Fraction:
    """v * q^m as a reduced `Fraction`, for key = (v.numerator,
    v.denominator, q.numerator, q.denominator, m).

    q^m is taken from `gaps`, the calling `scaling`'s own table by m,
    where it is built once per call and gap as Fraction(a, b) ** m, which
    computes no gcd; the value is Fraction(v) * q^m, whose gcds run only
    against v's integers.  It is kept in `_SCALED` when |m| <= _SCALED_BITS
    and every integer of the key and of the value fits in _SCALED_BITS
    bits, and a full cache of _SCALED_KEYS entries is cleared before the
    next one is kept.  The cache thus never holds more than 8192 entries
    of at most six 320-bit integers each, under 6 MB.  Any other value
    goes to `big`, the calling `scaling`'s own dict, which `scaling` reads
    before calling here, so it is still built once per call and key.
    """
    vn, vd, a, b, m = key
    power = gaps.get(m)
    if power is None:
        power = gaps[m] = Fraction(a, b) ** m
    f = Fraction(vn, vd) * power
    # a < b, as 0 < q < 1
    fits = max(abs(vn), vd, b, abs(f.numerator), f.denominator).bit_length() <= _SCALED_BITS
    if fits and abs(m) <= _SCALED_BITS:
        if len(_SCALED) >= _SCALED_KEYS:
            _SCALED.clear()
        _SCALED[key] = f
    else:
        big[key] = f
    return f


def scaling(x: BlockElement, s: int) -> BlockElement:
    """Imaginary-time flow at integer time: entry (p, r) of each block is
    multiplied by q^(s * (exp_p - exp_r)).

    Each nonzero exact entry v at gap m = s * (exp_p - exp_r) becomes the
    reduced `Fraction` v * q^m, looked up in one module-level cache keyed on
    (v.numerator, v.denominator, q.numerator, q.denominator, m).  A miss
    has one path, `_scaled_entry`: Fraction(v) times q^m, which is built
    once per call and gap.  The value is cached when |m| and every integer
    of the key and of the value are within `_SCALED_BITS` bits, so the
    cache holds at most `_SCALED_KEYS` entries of six such integers, under
    6 MB; any other value is kept for the call only.  Equal exact values
    (True and 1, 2 and Fraction(4, 2)) share a key, so equal values at
    equal gaps and equal q get the same immutable object: across calls
    for cached keys, and within a call always.  Only the nonzero
    entries of each stored row are visited, and zeros are kept as they are.
    s = 1 is the KMS twist y -> F y F^(-1); the group law
    scaling(scaling(x, s), t) = scaling(x, s + t) holds exactly.  The
    blocks keep x's shapes and x's shared zero rows, so the result is built
    without `_square`'s re-freeze.
    """
    if s != int(s):
        raise ValueError("imaginary-time scaling is exact only at integer times")
    s = int(s)
    if s == 0:
        return x
    a, b = x.q.numerator, x.q.denominator
    get, big, gaps = _SCALED.get, {}, {}
    blocks = {}
    try:
        for sig, rows in x.blocks.items():
            powers = [s * e for e in f_spectrum(sig)]
            zero, cols = _zero_row(len(powers)), range(len(powers))
            scaled = []
            for row, ep in zip(rows, powers):
                if row is zero:
                    scaled.append(row)
                    continue
                out = list(row)
                for r in compress(cols, row):
                    v = row[r]
                    key = (v.numerator, v.denominator, a, b, ep - powers[r])
                    # v is nonzero, so a cached value is too
                    out[r] = get(key) or big.get(key) or _scaled_entry(key, big, gaps)
                scaled.append(tuple(out))
            blocks[sig] = tuple(scaled)
    except AttributeError:
        raise ValueError(_INEXACT) from None
    return BlockElement._trusted(x.level, x.q, blocks)


def _kms_sides(chi: LevelCharacter, x: BlockElement, y: BlockElement) -> tuple:
    """chi(x @ scaling(y, 1)) and chi(y @ x), each one `Fraction` (int 0
    when no block is shared).  Left, the flow at w = q^-1: cell (p, r) of
    `_pair_table` carries q^(e_p) from F and q^(e_r - e_p) from the twist,
    so it is gathered at e_r.  Right, `state_of_product` with x and y
    swapped.  Neither scaling(y, 1) nor a product is formed."""
    left = []
    for sig, xs, ys, exps in _shared_blocks(chi, x, y):
        terms = {}
        for (_, er), c in _pair_table(xs, ys, exps).items():
            _add_term(terms, er, c)
        left.append(_block_share(chi, sig, terms))
    return _total(left), state_of_product(chi, y, x)


def kms_check(chi: LevelCharacter, x: BlockElement, y: BlockElement) -> bool:
    """The beta = -1 KMS identity at imaginary time, exactly:
    chi(x @ scaling(y, 1)) equals chi(y @ x).

    The left side is the flow of `flow_coefficients` at w = q^-1, the
    right side `state_of_product`: two separate passes over the blocks, so
    the check also checks the flow.
    """
    lhs, rhs = _kms_sides(chi, x, y)
    return lhs == rhs


def embed(x: BlockElement, targets: Iterable[Signature]) -> BlockElement:
    """Image of a level-N element one level up, truncated to `targets`.

    Each target block is the direct sum, in canonical group order, of the
    source blocks at the labels interlacing below it; missing source
    labels contribute zero sub-blocks.  Each nonzero source row is copied
    with one slice assignment, and a source's shared zero rows stay the
    target's.  On a common truncation the map is unital, multiplicative
    and star-preserving.
    """
    blocks = {}
    for nu in targets:
        if nu.level != x.level + 1:
            raise ValueError(f"target {nu} is not one level above {x.level}")
        d = dimension(nu)
        rows = [_zero_row(d)] * d
        for lam, offset, size in pattern_groups(nu):
            src = x.blocks.get(lam)
            if src is None:
                continue
            src_zero = _zero_row(size)
            for i, part in enumerate(src, offset):
                if part is not src_zero:
                    row = rows[i] = [0] * d
                    row[offset : offset + size] = part
        blocks[nu] = rows
    return BlockElement(x.level + 1, x.q, blocks)


def check_f_compatibility(nu: Signature, q: Fraction) -> FCompatReport:
    """Verify that F on each pattern group of nu equals the group label's F
    scaled by the cotransition q-power, entry by entry and exactly.

    Every entry is a power of q, and q^e is injective on 0 < q < 1, so the
    check compares exponents: big[offset + i] == shift + small[i], where
    q^shift = q^((N+1)|lam| - N|nu|) is the q-power of the cotransition
    kernel, N the level of lam.
    """
    if nu.level < 2:
        raise ValueError("need a signature of level >= 2")
    q = check_q(q)
    big = f_spectrum(nu)
    for lam, offset, size in pattern_groups(nu):
        n = lam.level
        shift = (n + 1) * lam.size - n * nu.size
        small = f_spectrum(lam)
        for i in range(size):
            if big[offset + i] != shift + small[i]:
                return FCompatReport(False, lam, i)
    return FCompatReport(True)


def _ldl_psd(rows: Matrix) -> bool:
    """Exact semidefiniteness of a symmetric rational matrix by symmetric
    Gaussian elimination (LDL^T with diagonal pivoting), O(n^3).

    A negative diagonal entry refutes it.  Otherwise eliminate on the first
    positive diagonal entry: the matrix is PSD iff the Schur complement of
    that pivot is.  When only zero diagonal entries remain, the remaining
    submatrix is PSD iff it is zero.  A diagonal entry changes only when
    its row is updated, so signs are checked once up front and then once
    per updated row.  Elimination works on the entries as given (int or
    Fraction), with no copy into `Fraction`s, and touches only the live
    rows with a nonzero entry in the pivot column.  When there are any,
    the pivot is made a `Fraction`, so every multiplier and every updated
    entry is exact and no int / int division yields a float; when there
    are none, nothing is built and the next pivot is taken.
    """
    a = [list(row) for row in rows]
    live = list(range(len(a)))
    if any(a[i][i] < 0 for i in live):
        return False
    while live:
        pivot = next((i for i in live if a[i][i]), None)
        if pivot is None:
            return not any(a[i][j] for i in live for j in live)
        live.remove(pivot)
        prow = a[pivot]
        hits = [i for i in live if prow[i]]
        if not hits:
            continue
        d = Fraction(prow[pivot])
        for i in hits:
            m = prow[i] / d
            ai = a[i]
            for j in hits:
                ai[j] -= m * prow[j]
            if ai[i] < 0:
                return False
    return True


def decompose_state(
    densities: Mapping[Signature, Sequence[Sequence]], q: Fraction
) -> DecomposeReport:
    """Classify a blockwise density as a convex combination of F-traces.

    Accepts exactly when every block is a nonnegative multiple of its
    diagonal F matrix (zero off-diagonals, diagonal proportional to the
    F eigenvalues); the returned coefficient at lam is that block's trace.
    Densities must have exact (int or Fraction) entries, be positive
    semidefinite and have traces summing to 1.  Every comparison is exact:
    the traces and their total are integer pairs folded by `_fold`, with
    one `Fraction` per coefficient, and the PSD test is exact LDL^T
    elimination, O(d^3) per block and O(d^2) on a diagonal one.  Symmetry
    compares rows with columns, and the first nonzero off-diagonal entry,
    row-major, is found by the row walk of the pairings.
    """
    q = check_q(q)
    mats = {}
    for sig, rows in densities.items():
        rows = _square("density", sig, rows)
        if not all(map(isinstance, chain.from_iterable(rows), repeat((int, Fraction)))):
            raise ValueError(f"density at {sig} must have exact (int or Fraction) entries")
        mats[sig] = rows

    traces = {}
    for sig, rows in mats.items():
        if rows != tuple(zip(*rows)):
            raise ValueError(f"density at {sig} is not symmetric")
        if not _ldl_psd(rows):
            raise ValueError(f"density at {sig} is not positive semidefinite")
        traces[sig] = _fold((row[i].numerator, row[i].denominator) for i, row in enumerate(rows))

    total = _fold(traces.values())
    if total[0] != total[1]:
        raise ValueError(f"density traces must sum to 1, got {Fraction(*total)}")

    # with q = a/b, d_i / q^e_i == d_0 / q^e_0 iff
    # d_i a^(e_0 - m) b^(e_i - m) == d_0 a^(e_i - m) b^(e_0 - m), m = min e,
    # compared in integers over the entries' own denominators
    a, b = q.numerator, q.denominator
    coeffs = {}
    for sig, rows in sorted(mats.items(), key=lambda kv: kv[0].parts):
        cols = range(len(rows))
        for i, row in enumerate(rows):
            for j in compress(cols, row):
                if j != i:
                    return DecomposeReport(
                        False, reason=f"nonzero off-diagonal entry at {sig}[{i},{j}]"
                    )
        exps = f_spectrum(sig)
        m = min(exps)
        powers = {e: (a ** (e - m), b ** (e - m)) for e in set(exps)}
        pa, pb = powers[exps[0]]
        first = rows[0][0]
        left, right = first.denominator * pa, first.numerator * pb
        for i, row in enumerate(rows[1:], 1):
            d = row[i]
            pa, pb = powers[exps[i]]
            if d.numerator * pb * left != d.denominator * pa * right:
                return DecomposeReport(
                    False,
                    reason=(
                        f"diagonal of {sig} is not proportional to the F"
                        f" eigenvalues (pattern {i})"
                    ),
                )
        coeffs[sig] = Fraction(*traces[sig])
    return DecomposeReport(True, coefficients=coeffs)
