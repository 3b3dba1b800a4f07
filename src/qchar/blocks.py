"""Finite-level block-matrix model of the group algebra with its modular flow.

Elements are finitely supported maps from signatures to square matrices,
one block per irreducible label, the block side being the classical
dimension.  The positive operator F attached to a block is modeled as
diagonal in the pattern basis with eigenvalue q^(sum_i (N+1-2i) w_i) at a
pattern of weight w.  Three facts lock this model in: the trace of F (and
of its inverse) is the quantum dimension, restriction of F to the pattern
group of a lower label equals that label's F up to the cotransition
q-power, and the twisted trace below satisfies the beta = -1 KMS identity.
A global q <-> 1/q flip would negate every exponent coherently and is an
equally valid convention.

States are reused from `characters`: a level character evaluates on a
block element as sum of weight(lam) * Tr(F_lam x_lam) / qdim(lam).
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .combinatorics import (
    Signature,
    dimension,
    enumerate_down,
    enumerate_gt_patterns,
    weight,
)
from .characters import LevelCharacter, wq
from .schur import check_q, qdim

Matrix = tuple[tuple, ...]


@dataclass(frozen=True)
class FSpectrum:
    """Diagonal exponents of F on one block, in canonical pattern order."""

    signature: Signature
    exponents: tuple[int, ...]


@dataclass(frozen=True)
class FCompatReport:
    ok: bool
    sig: Signature | None = None
    index: int | None = None


@dataclass(frozen=True)
class DecomposeReport:
    ok: bool
    coefficients: dict | None = None
    reason: str | None = None


@lru_cache(maxsize=None)
def f_spectrum(lam: Signature) -> FSpectrum:
    """Exponent sum_i (N+1-2i) w_i for each pattern of lam, in order.

    Summing q to these exponents, or their negatives, gives the quantum
    dimension either way: the weight multiset is symmetric under reversal.
    """
    if lam.level < 1:
        raise ValueError("need a signature of level >= 1")
    n = lam.level
    exps = []
    for pattern in enumerate_gt_patterns(lam):
        w = weight(pattern)
        exps.append(sum((n - 1 - 2 * i) * w[i] for i in range(n)))
    return FSpectrum(lam, tuple(exps))


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


def _zero_matrix(n: int) -> list[list]:
    return [[0] * n for _ in range(n)]


def _freeze(rows) -> Matrix:
    return tuple(tuple(row) for row in rows)


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    out = _zero_matrix(n)
    for i in range(n):
        ai, oi = a[i], out[i]
        for k in range(n):
            x = ai[k]
            if x:
                bk = b[k]
                for j in range(n):
                    y = bk[j]
                    if y:
                        oi[j] = oi[j] + x * y
    return _freeze(out)


def _conj(x):
    return x.conjugate() if isinstance(x, complex) else x


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction))


@dataclass(frozen=True)
class BlockElement:
    """Finitely supported signature -> square matrix map at one level.

    Matrix entries are exact (int or Fraction) or complex floats; each
    block is square with side equal to its signature's dimension, rows and
    columns indexed by patterns in canonical order.  Absent blocks are zero.
    """

    level: int
    q: Fraction
    blocks: Mapping[Signature, Matrix]

    def __post_init__(self):
        object.__setattr__(self, "q", check_q(self.q))
        if self.level < 1:
            raise ValueError("block elements live at level >= 1")
        blocks = {}
        for sig, rows in self.blocks.items():
            if sig.level != self.level:
                raise ValueError(f"{sig} is not a level-{self.level} signature")
            d = dimension(sig)
            rows = _freeze(rows)
            if len(rows) != d or any(len(r) != d for r in rows):
                raise ValueError(f"block at {sig} must be {d}x{d}")
            blocks[sig] = rows
        object.__setattr__(self, "blocks", blocks)

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
        cls, level: int, q: Fraction, sig: Signature, row: int, col: int, value=1
    ) -> "BlockElement":
        """The matrix unit value * e_{row,col} on a single block, 0-indexed."""
        d = dimension(sig)
        rows = _zero_matrix(d)
        rows[row][col] = value
        return cls(level, q, {sig: _freeze(rows)})

    def _require_compatible(self, other: "BlockElement") -> None:
        if self.level != other.level:
            raise ValueError(f"levels must agree: {self.level} != {other.level}")
        if self.q != other.q:
            raise ValueError("q must agree")

    def __matmul__(self, other: "BlockElement") -> "BlockElement":
        self._require_compatible(other)
        blocks = {
            sig: _mat_mul(rows, other.blocks[sig])
            for sig, rows in self.blocks.items()
            if sig in other.blocks
        }
        return BlockElement(self.level, self.q, blocks)

    def adjoint(self) -> "BlockElement":
        blocks = {}
        for sig, rows in self.blocks.items():
            d = len(rows)
            blocks[sig] = tuple(
                tuple(_conj(rows[j][i]) for j in range(d)) for i in range(d)
            )
        return BlockElement(self.level, self.q, blocks)


def random_block_element(
    level: int,
    q: Fraction,
    sigs: Iterable[Signature],
    rng,
    density: float = 0.4,
    lo: int = -3,
    hi: int = 3,
) -> BlockElement:
    """Seeded random element: sparse integer matrices on the given blocks."""
    blocks = {}
    for sig in sigs:
        d = dimension(sig)
        rows = _zero_matrix(d)
        for i in range(d):
            for j in range(d):
                if rng.random() < density:
                    v = rng.randint(lo, hi)
                    if v:
                        rows[i][j] = v
        blocks[sig] = _freeze(rows)
    return BlockElement(level, q, blocks)


def _require_state_compatible(chi: LevelCharacter, x: BlockElement) -> None:
    if chi.level != x.level:
        raise ValueError(f"levels must agree: {chi.level} != {x.level}")
    if chi.q != x.q:
        raise ValueError("q must agree")


def char_state_eval(chi: LevelCharacter, x: BlockElement):
    """sum over lam of weight(lam) * Tr(F_lam x_lam) / qdim(lam).

    F is diagonal, so the twisted trace needs only x's diagonal entries;
    blocks outside the state's support contribute nothing.
    """
    _require_state_compatible(chi, x)
    q = x.q
    total = 0
    for sig, w in chi.weights.items():
        rows = x.blocks.get(sig)
        if rows is None:
            continue
        exps = f_spectrum(sig).exponents
        tr = sum(q ** e * rows[p][p] for p, e in enumerate(exps))
        total = total + w * tr / qdim(sig, q)
    return total


def state_of_product(chi: LevelCharacter, x: BlockElement, y: BlockElement):
    """chi(x @ y) without forming the product, O(d^2) per block:
    sum over lam of weight(lam) / qdim(lam) * sum_p q^(e_p) sum_r x_pr y_rp.

    Only the diagonal of each block product is built, with the same terms
    in the same order as `@` followed by `char_state_eval`, so the value is
    identical for exact and for complex-float entries alike; the level and
    q checks are those of the two.
    """
    x._require_compatible(y)
    _require_state_compatible(chi, x)
    q = x.q
    total = 0
    for sig, w in chi.weights.items():
        xs, ys = x.blocks.get(sig), y.blocks.get(sig)
        if xs is None or ys is None:
            continue
        tr = 0
        for p, (row, e) in enumerate(zip(xs, f_spectrum(sig).exponents)):
            entry = 0
            for a, yr in zip(row, ys):
                if a:
                    b = yr[p]
                    if b:
                        entry = entry + a * b
            tr = tr + q ** e * entry
        total = total + w * tr / qdim(sig, q)
    return total


def _difference_table(x: BlockElement, factor) -> dict:
    """factor(k) for every difference k = e_p - e_r of two F exponents
    occurring on x's blocks, each evaluated once."""
    exps = {e for sig in x.blocks for e in f_spectrum(sig).exponents}
    return {k: factor(k) for k in {ep - er for ep in exps for er in exps}}


def scaling(x: BlockElement, s: int) -> BlockElement:
    """Imaginary-time flow at integer time: entry (p, r) of each block is
    multiplied by q^(s * (exp_p - exp_r)).

    s = 1 is the KMS twist y -> F y F^(-1); the group law
    scaling(scaling(x, s), t) = scaling(x, s + t) holds exactly.
    """
    if s != int(s):
        raise ValueError("imaginary-time scaling is exact only at integer times")
    s = int(s)
    if s == 0:
        return x
    q = x.q
    factors = _difference_table(x, lambda k: q ** (s * k))
    blocks = {}
    for sig, rows in x.blocks.items():
        exps = f_spectrum(sig).exponents
        blocks[sig] = tuple(
            tuple(v * factors[ep - er] if v else v for v, er in zip(row, exps))
            for row, ep in zip(rows, exps)
        )
    return BlockElement(x.level, x.q, blocks)


def scaling_unitary(x: BlockElement, t: float) -> BlockElement:
    """Real-time flow Ad F^(it), numeric mode: unit-modulus entry factors."""
    lnq = math.log(float(x.q))
    factors = _difference_table(x, lambda k: cmath.exp(1j * t * lnq * k))
    blocks = {}
    for sig, rows in x.blocks.items():
        exps = f_spectrum(sig).exponents
        blocks[sig] = tuple(
            tuple(
                complex(v) * factors[ep - er] if v else 0j
                for v, er in zip(row, exps)
            )
            for row, ep in zip(rows, exps)
        )
    return BlockElement(x.level, x.q, blocks)


def kms_check(chi: LevelCharacter, x: BlockElement, y: BlockElement) -> bool:
    """The beta = -1 KMS identity at imaginary time, exactly:
    chi(x * scaling(y, 1)) equals chi(y * x).

    Both sides are computed, by `state_of_product`, and compared; neither
    product is formed.
    """
    return state_of_product(chi, x, scaling(y, 1)) == state_of_product(chi, y, x)


def embed(x: BlockElement, targets: Iterable[Signature]) -> BlockElement:
    """Image of a level-N element one level up, truncated to `targets`.

    Each target block is the direct sum, in canonical group order, of the
    source blocks at the labels interlacing below it; missing source
    labels contribute zero sub-blocks.  On a common truncation the map is
    unital, multiplicative and star-preserving.
    """
    blocks = {}
    for nu in targets:
        if nu.level != x.level + 1:
            raise ValueError(f"target {nu} is not one level above {x.level}")
        d = dimension(nu)
        rows = _zero_matrix(d)
        for lam, offset, size in pattern_groups(nu):
            src = x.blocks.get(lam)
            if src is None:
                continue
            for i in range(size):
                row = rows[offset + i]
                for j in range(size):
                    row[offset + j] = src[i][j]
        blocks[nu] = _freeze(rows)
    return BlockElement(x.level + 1, x.q, blocks)


def check_f_compatibility(nu: Signature, q: Fraction) -> FCompatReport:
    """Verify that F on each pattern group of nu equals the group label's F
    scaled by the cotransition q-power, entry by entry and exactly."""
    if nu.level < 2:
        raise ValueError("need a signature of level >= 2")
    q = check_q(q)
    big = f_spectrum(nu).exponents
    for lam, offset, size in pattern_groups(nu):
        factor = wq(lam, nu, q)
        small = f_spectrum(lam).exponents
        for i in range(size):
            if q ** big[offset + i] != factor * q ** small[i]:
                return FCompatReport(False, lam, i)
    return FCompatReport(True)


def _ldl_psd(rows: Matrix) -> bool:
    """Exact semidefiniteness of a symmetric rational matrix by symmetric
    Gaussian elimination (LDL^T with diagonal pivoting), O(n^3).

    A negative diagonal entry refutes it.  Otherwise eliminate on any
    positive diagonal entry: the matrix is PSD iff the Schur complement of
    that pivot is.  When only zero diagonal entries remain, the remaining
    submatrix is PSD iff it is zero.
    """
    a = [[Fraction(v) for v in row] for row in rows]
    live = list(range(len(a)))
    while live:
        if any(a[i][i] < 0 for i in live):
            return False
        pivot = next((i for i in live if a[i][i] > 0), None)
        if pivot is None:
            return not any(a[i][j] for i in live for j in live)
        live.remove(pivot)
        prow = a[pivot]
        d = prow[pivot]
        for i in live:
            if prow[i]:
                m = prow[i] / d
                ai = a[i]
                for j in live:
                    if prow[j]:
                        ai[j] -= m * prow[j]
    return True


def decompose_state(
    densities: Mapping[Signature, Sequence[Sequence]],
    q: Fraction,
    tol: float = 1e-10,
) -> DecomposeReport:
    """Classify a blockwise density as a convex combination of F-traces.

    Accepts exactly when every block is a nonnegative multiple of its
    diagonal F matrix (zero off-diagonals, diagonal proportional to the
    F eigenvalues); the returned coefficient at lam is that block's trace.
    Densities must be positive semidefinite with traces summing to 1.  With
    exact (int or Fraction) entries every comparison is exact and the PSD
    test is exact LDL^T elimination, O(d^3) per block and O(d^2) on a
    diagonal one; with any float or complex entry the check runs
    numerically, with an absolute threshold of `tol`.
    """
    q = check_q(q)
    mats = {}
    exact = True
    for sig, rows in densities.items():
        d = dimension(sig)
        rows = _freeze(rows)
        if len(rows) != d or any(len(r) != d for r in rows):
            raise ValueError(f"density at {sig} must be {d}x{d}")
        exact = exact and all(_is_exact(v) for row in rows for v in row)
        mats[sig] = rows

    for sig, rows in mats.items():
        n = len(rows)
        if exact:
            if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
                raise ValueError(f"density at {sig} is not symmetric")
            if not _ldl_psd(rows):
                raise ValueError(f"density at {sig} is not positive semidefinite")
        else:
            import numpy as np  # float densities only, so `import qchar` does not load numpy

            arr = np.array([[complex(v) for v in row] for row in rows])
            if np.abs(arr - arr.conj().T).max() > tol:
                raise ValueError(f"density at {sig} is not Hermitian")
            if np.linalg.eigvalsh(arr).min() < -tol:
                raise ValueError(f"density at {sig} is not positive semidefinite")

    total = sum(sum(rows[i][i] for i in range(len(rows))) for rows in mats.values())
    if exact:
        if total != 1:
            raise ValueError(f"density traces must sum to 1, got {total}")
    elif abs(total - 1) > tol:
        raise ValueError(f"density traces must sum to 1, got {total}")

    coeffs = {}
    for sig, rows in sorted(mats.items(), key=lambda kv: kv[0].parts):
        n = len(rows)
        exps = f_spectrum(sig).exponents
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                off = rows[i][j]
                if (off != 0) if exact else (abs(off) > tol):
                    return DecomposeReport(
                        False,
                        reason=f"nonzero off-diagonal entry at {sig}[{i},{j}]",
                    )
        ratios = [rows[i][i] / q ** exps[i] for i in range(n)]
        base = ratios[0]
        for i, r in enumerate(ratios[1:], start=1):
            bad = (r != base) if exact else (abs(r - base) > tol)
            if bad:
                return DecomposeReport(
                    False,
                    reason=(
                        f"diagonal of {sig} is not proportional to the F"
                        f" eigenvalues (pattern {i})"
                    ),
                )
        coeffs[sig] = sum(rows[i][i] for i in range(n))
    return DecomposeReport(True, coefficients=coeffs)
