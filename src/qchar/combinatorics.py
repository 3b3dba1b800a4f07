"""Signatures, interlacing, Gelfand-Tsetlin patterns and part shifts.

Everything in this module is a pure function on immutable values; the
enumeration orders are fixed and documented so that downstream output
(generating-function sums, matrix blocks, JSON) is deterministic.

Parts, pattern rows and boundary entries are read with `operator.index`,
so a float, str or Fraction raises TypeError instead of being truncated.

`_Frozen` is the base of every value class in the package (signatures,
patterns, boundary parameters, characters, reports, block elements): a
slotted class with the equality, hash, repr and immutability of a frozen
dataclass, without importing `dataclasses`.
"""

from functools import lru_cache
from itertools import product
from operator import index
from typing import Iterator


class _Frozen:
    """Immutable value whose fields are the subclass's ``__slots__``, in order.

    Each subclass's ``__init__`` validates its arguments and sets every
    field once, through `_set` or ``object.__setattr__``; `_trusted` sets
    the fields as given, without the checks, for values the library built
    valid by construction.  Equality holds
    only between instances of the same class with equal field tuples, the
    hash is the hash of the field tuple (a TypeError when a field is a
    dict), the repr is ``Name(field=value, ...)``, assignment and deletion
    raise AttributeError, and copies and pickles are rebuilt by the
    constructor.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _trusted(cls, *values):
        self = object.__new__(cls)
        self._set(*values)
        return self

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()


class Signature(_Frozen):
    """Nonincreasing integer tuple of length N (the level).

    Labels an irreducible representation of the rank-N (quantum) unitary
    group.  The empty signature, level 0, is a legitimate value and is the
    unique label at rank zero.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        parts = tuple(map(index, parts))
        object.__setattr__(self, "parts", parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"signature parts must be nonincreasing: {parts}")

    @classmethod
    def _trusted(cls, parts: tuple[int, ...]) -> "Signature":
        # the base class's `_trusted` without its loop over the fields
        self = object.__new__(cls)
        object.__setattr__(self, "parts", parts)
        return self

    # the package's hottest dict key: the base class's equality and hash
    # values, without its loop over the fields
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash((self.parts,))

    @property
    def level(self) -> int:
        return len(self.parts)

    @property
    def size(self) -> int:
        """Sum of the parts."""
        return sum(self.parts)

    def __str__(self) -> str:
        return "*" if not self.parts else "(" + ",".join(map(str, self.parts)) + ")"


EMPTY = Signature(())


class GTPattern(_Frozen):
    """Triangular array of pairwise interlacing rows; row k has length k.

    ``rows[0]`` is the single-entry bottom row, ``rows[-1]`` the top row.
    Patterns with top row t enumerate a weight basis of the irreducible
    representation labeled by t.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        rows = tuple(tuple(map(index, row)) for row in rows)
        if not rows:
            raise ValueError("a pattern needs at least one row")
        for k, row in enumerate(rows):
            if len(row) != k + 1:
                raise ValueError(f"row {k + 1} must have length {k + 1}: {row}")
        for low, up in zip(rows, rows[1:]):
            if not _interlaces_parts(low, up):
                raise ValueError(f"rows do not interlace: {low} within {up}")
        self._set(rows)


class BoundaryParam(_Frozen):
    """Eventually constant nondecreasing integer sequence.

    Represents (head[0], ..., head[-1], tail, tail, ...).  Trailing head
    entries equal to the tail are stripped on construction so that equal
    sequences always compare equal.
    """

    __slots__ = ("head", "tail")

    def __init__(self, head: tuple[int, ...], tail: int):
        head = tuple(map(index, head))
        tail = index(tail)
        for a, b in zip(head, head[1:]):
            if a > b:
                raise ValueError(f"head must be nondecreasing: {head}")
        if head and head[-1] > tail:
            raise ValueError(f"head may not exceed the tail value: {head} / {tail}")
        while head and head[-1] == tail:
            head = head[:-1]
        self._set(head, tail)

    def entry(self, i: int) -> int:
        """The i-th sequence entry, 1-based."""
        if i < 1:
            raise ValueError("sequence entries are indexed from 1")
        return self.head[i - 1] if i <= len(self.head) else self.tail

    def signature_at(self, level: int) -> Signature:
        """The level-`level` signature made of the first entries, largest first."""
        return Signature(tuple(self.entry(i) for i in range(level, 0, -1)))


def _interlaces_parts(lower: tuple[int, ...], upper: tuple[int, ...]) -> bool:
    return all(
        upper[k] >= lower[k] >= upper[k + 1] for k in range(len(lower))
    )


@lru_cache(maxsize=None)
def enumerate_down(upper: Signature) -> tuple[Signature, ...]:
    """All signatures one level below `upper` that interlace it, ascending lex.

    The count is the product of (upper[k] - upper[k+1] + 1) over k.
    """
    if upper.level < 1:
        raise ValueError("need a signature of level >= 1")
    n = upper.level - 1
    ranges = [range(upper.parts[k + 1], upper.parts[k] + 1) for k in range(n)]
    # any choice with parts[k] in [upper[k+1], upper[k]] is automatically
    # nonincreasing, so the raw product is exactly the interlacing set, built
    # unchecked
    return tuple(Signature._trusted(parts) for parts in product(*ranges))


def enumerate_gt_patterns(top: Signature) -> Iterator[GTPattern]:
    """Lazily enumerate all patterns with the given top row.

    Order: patterns are grouped by the row directly below the top, larger
    rows first, and recursively so inside each group.  The first pattern
    emitted is therefore the highest-weight one (weight equal to the top
    row itself), and patterns sharing a sub-top row are contiguous.  The
    number of patterns equals the classical dimension of the irreducible
    representation labeled by `top`.
    """
    if top.level < 1:
        raise ValueError("need a signature of level >= 1")
    # depth first on an explicit stack of iterators, one per level of the path
    path: list[tuple[int, ...]] = []  # the rows above the current one, top row first
    stack = [iter((top,))]
    while stack:
        lam = next(stack[-1], None)
        if lam is None:
            stack.pop()
            del path[-1:]
        elif lam.level == 1:  # every row interlaces the one above: unchecked
            yield GTPattern._trusted((lam.parts, *reversed(path)))
        else:
            path.append(lam.parts)
            stack.append(reversed(enumerate_down(lam)))


def weight(pattern: GTPattern) -> tuple[int, ...]:
    """Row-sum differences (w_1, ..., w_N); they sum to the top row size."""
    out = []
    prev = 0
    for row in pattern.rows:
        s = sum(row)
        out.append(s - prev)
        prev = s
    return tuple(out)


def shift(lam: Signature, k: int) -> Signature:
    """Add k to every part; shifting by -k inverts."""
    k = index(k)
    return Signature._trusted(tuple([p + k for p in lam.parts]))


@lru_cache(maxsize=None)
def dimension(lam: Signature) -> int:
    """Classical dimension: product of (lam_i - lam_j + j - i) / (j - i).

    Equals the number of patterns with top row `lam` (and the side length
    of the matrix block attached to `lam`).
    """
    # a pair of equal parts contributes (j - i) / (j - i) and is skipped
    parts, n = lam.parts, lam.level
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            gap = parts[i] - parts[j]
            if gap:
                num *= gap + j - i
                den *= j - i
    return num // den

