import cmath
import hashlib
import json
import math
import operator
import random
from fractions import Fraction

import pytest

from qchar import (
    BlockElement,
    LevelCharacter,
    Signature,
    char_state_eval,
    check_f_compatibility,
    cotransition,
    decompose_state,
    dimension,
    embed,
    enumerate_down,
    f_spectrum,
    flow_coefficients,
    indecomposable,
    kms_check,
    qdim,
    random_block_element,
    scaling,
    state_of_product,
)
from qchar import blocks
from qchar.jsonio import block_to_json, format_scalar
from qchar.blocks import (
    _kms_sides,
    _laurent_value,
    _ldl_psd,
    _pair_table,
    _product_terms,
    pattern_groups,
)

from helpers import (
    char_state_eval_oracle,
    charpoly_psd,
    check_f_compatibility_oracle,
    decompose_by_ratios,
    iter_signatures,
    kms_sides_oracle,
    random_character,
    real_time_oracle,
    scaling_oracle,
    state_of_product_oracle,
)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def sig(*parts):
    return Signature(parts)


def f_density(lam, q):
    """The diagonal density F / qdim attached to one block."""
    exps = f_spectrum(lam)
    d = qdim(lam, q)
    n = len(exps)
    return tuple(
        tuple(q ** exps[i] / d if i == j else Fraction(0) for j in range(n))
        for i in range(n)
    )


class TestFSpectrum:
    def test_examples(self):
        # rectangles carry the trivial flow: a single pattern, exponent 0
        assert f_spectrum(sig(0, 0, 0)) == (0,)
        assert f_spectrum(sig(1, 0)) == (1, -1)
        assert f_spectrum(sig(5)) == (0,)

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError, match=r"^need a signature of level >= 1$"):
            f_spectrum(sig())

    @pytest.mark.parametrize("q", [HALF, Fraction(2, 3)])
    def test_trace_identities(self, q):
        # Tr F = Tr F^-1 = quantum dimension, on every block
        for level in (1, 2, 3, 4):
            for lam in iter_signatures(level, -3, 3):
                exps = f_spectrum(lam)
                d = qdim(lam, q)
                assert sum(q ** e for e in exps) == d
                assert sum(q ** -e for e in exps) == d

    def test_groups_match_the_pattern_order(self):
        nu = sig(2, 0, -1)
        big = f_spectrum(nu)
        assert sum(size for _, _, size in pattern_groups(nu)) == dimension(nu)
        assert len(big) == dimension(nu)


class TestBlockElement:
    @pytest.mark.parametrize(
        "rows",
        [((1,),), ((1, 0), (0,)), ((1, 0), (0, 1), (0, 0)), ((0, 0, 0), (1, 0))],
        ids=["too-small", "ragged", "too-many-rows", "ragged-zero-row"],
    )
    def test_block_shape_enforced(self, rows):
        with pytest.raises(ValueError, match=r"^block at \(1,0\) must be 2x2$"):
            BlockElement(2, HALF, {sig(1, 0): rows})

    def test_level_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"^\(1\) is not a level-2 signature$"):
            BlockElement(2, HALF, {sig(1): ((1,),)})
        with pytest.raises(ValueError, match=r"^block elements live at level >= 1$"):
            BlockElement(0, HALF, {})

    def test_matmul_supports_intersect(self):
        x = BlockElement.basis_unit(2, HALF, sig(1, 0), 0, 1)
        y = BlockElement.identity(2, HALF, [sig(2, 0)])
        assert (x @ y).blocks == {}

    def test_adjoint_is_an_involution(self):
        rng = random.Random(2)
        x = random_block_element(2, HALF, [sig(1, 0), sig(2, 0)], rng)
        assert x.adjoint().adjoint() == x

    @pytest.mark.parametrize(
        "call",
        [
            lambda chi, x: char_state_eval(chi, x),
            lambda chi, x: state_of_product(chi, x, x),
            lambda chi, x: flow_coefficients(chi, x, x),
            lambda chi, x: kms_check(chi, x, x),
            lambda chi, x: scaling(x, 1),
        ],
        ids=["char_state_eval", "state_of_product", "flow_coefficients", "kms_check", "scaling"],
    )
    def test_float_entries_are_refused_where_read(self, call):
        # built without a per-entry scan, refused by the first exact read
        x = BlockElement(2, HALF, {sig(1, 0): ((0.5, 0.25), (0, 1.0))})
        with pytest.raises(ValueError, match=r"^block entries must be exact \(int or Fraction\)$"):
            call(indecomposable(sig(1, 0), HALF), x)


def typed(rows):
    """A block's entries with their types: 0, Fraction(0), False and 0.0 differ."""
    return [[(type(v), v) for v in row] for row in rows]


def dense(level, q, blocks):
    """A block element holding exactly the given rows, one tuple per row."""
    x = BlockElement.__new__(BlockElement)
    x._set(level, q, {s: tuple(map(tuple, rows)) for s, rows in blocks.items()})
    return x


# a side-7 block at (6,0) whose zero rows are made of each kind of zero
ZERO_ROWS = [
    [1, Fraction(1, 2), 0, -2, 0, 3, 0],
    [0] * 7,
    [Fraction(0)] * 7,
    [False] * 7,
    [0.0] * 7,
    [0, False, 0, Fraction(0), 0, 0.0, 0],
    [0] * 7,
]
FULL_ROWS = [[(i * 7 + j * 3) % 5 - 2 for j in range(7)] for i in range(7)]


class TestZeroRows:
    """Every row of int zeros is one tuple per block side; every result,
    entry types included, is what the rows as given produce."""

    def test_basis_unit_shares_its_zero_rows(self):
        rows = BlockElement.basis_unit(2, HALF, sig(399, 0), 0, 399).blocks[sig(399, 0)]
        assert len(rows) == 400 and len({id(r) for r in rows}) == 2
        assert rows[0][399] == 1 and sum(map(sum, rows)) == 1

    def test_shared_row_holds_the_same_zeros(self):
        x = BlockElement(2, HALF, {sig(6, 0): ZERO_ROWS})
        rows = x.blocks[sig(6, 0)]
        assert rows[1] is rows[6]
        assert all(map(operator.is_, rows[1], [0] * 7))
        assert len({id(r) for r in rows}) == 6

    def test_products_and_embeddings_share_zero_rows(self):
        u = BlockElement.basis_unit(2, HALF, sig(5, 0), 2, 4)
        assert len({id(r) for r in (u @ u.adjoint()).blocks[sig(5, 0)]}) == 2
        up = embed(u, [sig(5, 0, 0)]).blocks[sig(5, 0, 0)]
        assert len(up) == 21 and len({id(r) for r in up}) == 2

    def test_blocks_of_one_side_share_one_zero_row(self):
        # (5,0) and (2,0,0) both have side 6
        x = BlockElement.basis_unit(2, HALF, sig(5, 0), 0, 0)
        y = BlockElement.basis_unit(3, THIRD, sig(2, 0, 0), 5, 5)
        assert x.blocks[sig(5, 0)][1] is y.blocks[sig(2, 0, 0)][0]

    def test_storage_equality_and_json(self):
        x = BlockElement(2, HALF, {sig(6, 0): ZERO_ROWS})
        assert typed(x.blocks[sig(6, 0)]) == typed(ZERO_ROWS)
        assert x == dense(2, HALF, {sig(6, 0): ZERO_ROWS})
        assert block_to_json(x) == {
            "level": 2,
            "q": "1/2",
            "blocks": [
                {"sig": [6, 0], "matrix": [[format_scalar(v) for v in row] for row in ZERO_ROWS]}
            ],
        }

    @pytest.mark.parametrize("s", [1, -2])
    def test_scaling(self, s):
        x = BlockElement(2, HALF, {sig(6, 0): ZERO_ROWS})
        exps = f_spectrum(sig(6, 0))
        want = [
            [v * HALF ** (s * (ep - er)) if v else v for v, er in zip(row, exps)]
            for row, ep in zip(ZERO_ROWS, exps)
        ]
        assert typed(scaling(x, s).blocks[sig(6, 0)]) == typed(want)

    @pytest.mark.parametrize("s", [1, -2])
    def test_scaling_keeps_the_shared_zero_rows(self, s):
        # scaling builds its result without a re-freeze: each zero row of x
        # must still be the one shared tuple, and every other row a tuple
        x = BlockElement(2, HALF, {sig(6, 0): ZERO_ROWS, sig(5, 0): [r[:6] for r in FULL_ROWS[:6]]})
        for lam, rows in scaling(x, s).blocks.items():
            zero = blocks._zero_row(len(rows))
            assert type(rows) is tuple and all(type(r) is tuple for r in rows)
            assert [r is zero for r in rows] == [r is zero for r in x.blocks[lam]]
        assert scaling(x, s) == BlockElement(2, HALF, scaling(x, s).blocks)

    def test_matmul_and_adjoint(self):
        def mul(a, b):
            # the order and start value of `@`: int 0 plus each nonzero term
            cols = list(zip(*b))
            return [[sum((u * v for u, v in zip(row, col) if u and v), 0) for col in cols] for row in a]

        x = BlockElement(2, HALF, {sig(6, 0): ZERO_ROWS})
        y = BlockElement(2, HALF, {sig(6, 0): FULL_ROWS})
        assert typed((x @ y).blocks[sig(6, 0)]) == typed(mul(ZERO_ROWS, FULL_ROWS))
        assert typed((y @ x).blocks[sig(6, 0)]) == typed(mul(FULL_ROWS, ZERO_ROWS))
        assert typed(x.adjoint().blocks[sig(6, 0)]) == typed(zip(*ZERO_ROWS))

    def test_embed(self):
        nu = sig(6, 0, 0)
        given = {sig(6, 0): ZERO_ROWS, sig(2, 0): [r[:3] for r in FULL_ROWS[:3]]}
        x = BlockElement(2, HALF, given)
        want = [[0] * dimension(nu) for _ in range(dimension(nu))]
        for lam, offset, size in pattern_groups(nu):
            for i, row in enumerate(given.get(lam, ())):
                want[offset + i][offset : offset + size] = row
        assert typed(embed(x, [nu]).blocks[nu]) == typed(want)

    def test_pairings(self):
        chi = LevelCharacter(2, HALF, {sig(6, 0): Fraction(2, 3), sig(1, 1): Fraction(1, 3)})
        blocks_x = {sig(6, 0): ZERO_ROWS, sig(1, 1): [[Fraction(0)]]}
        blocks_y = {sig(6, 0): FULL_ROWS, sig(1, 1): [[0]]}
        x, y = BlockElement(2, HALF, blocks_x), BlockElement(2, HALF, blocks_y)
        dx, dy = dense(2, HALF, blocks_x), dense(2, HALF, blocks_y)
        for a, b, da, db in [(x, y, dx, dy), (y, x, dy, dx)]:
            got, want = char_state_eval(chi, a), char_state_eval(chi, da)
            assert (type(got), got) == (type(want), want)
            assert kms_check(chi, a, b) is kms_check(chi, da, db) is True
            assert _kms_sides(chi, a, b) == _kms_sides(chi, da, db)


class TestCharStateEval:
    def test_identity_evaluates_to_one(self):
        chi = indecomposable(sig(2, 0, -1), HALF)
        x = BlockElement.identity(3, HALF, [sig(2, 0, -1)])
        assert char_state_eval(chi, x) == 1

    def test_frozen_matrix_unit_value(self):
        chi = indecomposable(sig(1, 0), HALF)
        e11 = BlockElement.basis_unit(2, HALF, sig(1, 0), 0, 0)
        assert char_state_eval(chi, e11) == Fraction(1, 5)

    def test_off_support_blocks_vanish(self):
        chi = indecomposable(sig(1, 0), HALF)
        x = BlockElement.identity(2, HALF, [sig(2, 0)])
        assert char_state_eval(chi, x) == 0

    def test_level_mismatch_rejected(self):
        chi = indecomposable(sig(1, 0), HALF)
        with pytest.raises(ValueError):
            char_state_eval(chi, BlockElement.identity(3, HALF, [sig(1, 0, 0)]))


class TestScaling:
    def test_diagonal_elements_are_fixed(self):
        x = BlockElement.identity(2, HALF, [sig(1, 0), sig(3, -1)])
        for s in (-2, 1, 5):
            assert scaling(x, s) == x

    def test_frozen_offdiagonal_factor(self):
        e12 = BlockElement.basis_unit(2, HALF, sig(1, 0), 0, 1)
        assert scaling(e12, 1).blocks[sig(1, 0)][0][1] == Fraction(1, 4)

    def test_group_law(self):
        rng = random.Random(3)
        x = random_block_element(2, HALF, [sig(2, 0)], rng)
        assert scaling(scaling(x, 2), 3) == scaling(x, 5)
        assert scaling(x, 0) == x

    def test_multiplicative_and_star_compatible(self):
        rng = random.Random(4)
        sigs = [sig(1, 0), sig(2, 1)]
        x = random_block_element(2, HALF, sigs, rng)
        y = random_block_element(2, HALF, sigs, rng)
        assert scaling(x @ y, 1) == scaling(x, 1) @ scaling(y, 1)
        assert scaling(x.adjoint(), 2) == scaling(x, -2).adjoint()

    def test_rational_time_rejected(self):
        x = BlockElement.identity(2, HALF, [sig(1, 0)])
        with pytest.raises(ValueError):
            scaling(x, 0.5)


class TestKms:
    def test_frozen_example(self):
        chi = indecomposable(sig(1, 0), HALF)
        x = BlockElement.basis_unit(2, HALF, sig(1, 0), 0, 1)
        y = BlockElement.basis_unit(2, HALF, sig(1, 0), 1, 0)
        lhs = char_state_eval(chi, x @ scaling(y, 1))
        rhs = char_state_eval(chi, y @ x)
        assert lhs == rhs == Fraction(4, 5)
        assert kms_check(chi, x, y)

    def test_trivial_f_block_reduces_to_the_trace_property(self):
        chi = indecomposable(sig(0, 0), HALF)
        rng = random.Random(5)
        x = random_block_element(2, HALF, [sig(0, 0)], rng)
        y = random_block_element(2, HALF, [sig(0, 0)], rng)
        assert kms_check(chi, x, y)

    def test_random_elements_satisfy_kms(self):
        rng = random.Random(6)
        for lam in (sig(1, 0), sig(2, 0, -1), sig(1)):
            chi = indecomposable(lam, HALF)
            for _ in range(20):
                x = random_block_element(lam.level, HALF, [lam], rng)
                y = random_block_element(lam.level, HALF, [lam], rng)
                assert kms_check(chi, x, y)

    def test_mixed_states_satisfy_kms(self):
        rng = random.Random(7)
        sigs = [sig(1, 0), sig(2, 0)]
        chi = LevelCharacter(
            2, HALF, {sigs[0]: Fraction(1, 3), sigs[1]: Fraction(2, 3)}
        )
        for _ in range(20):
            x = random_block_element(2, HALF, sigs, rng)
            y = random_block_element(2, HALF, sigs, rng)
            assert kms_check(chi, x, y)

    def test_seeded_elements_are_pinned(self):
        # the generator's draws (random() first, randint only below 0.4)
        # fix every seeded element and so every `kms-check --trials` output
        sigs = [sig(4, 2, 0), sig(3, 1, -1), sig(2, 1, 0), sig(1, 0, 0)]
        digests = [
            "37ca50be7c9029bd5624defbadf0301e9928b8704ddd8f067c8c1295890dc750",
            "fb47f734894f6dcfe49a9694263895adfb1217746bb9a689720ce938004e0c94",
            "85b9fcd1e7adb5ab8e4e14b22f922527cd85f7fbe912360d307d710849b1e0be",
            "e573b02d8a22f360544fa4209af1dfed545b4caac05ab8f1a98398486910c1e1",
            "b494662c0efdde39bbca3f348bfb99d15b8824522d60a60c504312c186a293b5",
        ]
        for seed, digest in enumerate(digests):
            x = random_block_element(3, HALF, sigs, random.Random(seed))
            text = json.dumps(block_to_json(x)).encode()
            assert hashlib.sha256(text).hexdigest() == digest

    @pytest.mark.parametrize("pass_name", ["_pair_table", "_product_terms"])
    def test_a_dropped_cell_fails_the_check(self, pass_name, monkeypatch):
        # the left side comes from the flow's pass, the right side from
        # `state_of_product`'s: losing one nonzero cell in either shows
        lam = sig(2, 0)  # F exponents (2, 0, -2)
        chi = indecomposable(lam, HALF)
        x = _sparse(2, HALF, {lam: {(0, 1): 1, (1, 2): 2, (0, 0): 3}})
        y = _sparse(2, HALF, {lam: {(1, 0): 1, (2, 1): -1, (0, 0): 1}})
        assert kms_check(chi, x, y)
        assert char_state_eval(chi, x @ y) != char_state_eval(chi, y @ x)
        true_pass = getattr(blocks, pass_name)

        def mutated(*args):
            table = true_pass(*args)
            del table[next(k for k, c in table.items() if c)]
            return table

        monkeypatch.setattr(blocks, pass_name, mutated)
        assert not kms_check(chi, x, y)

    def test_plain_trace_is_not_kms(self):
        # the normalized matrix trace violates the twisted identity as soon
        # as the block has two distinct F exponents
        lam = sig(1, 0)
        d = dimension(lam)
        x = BlockElement.basis_unit(2, HALF, lam, 0, 1)
        y = BlockElement.basis_unit(2, HALF, lam, 1, 0)

        def plain_trace(z):
            rows = z.blocks.get(lam)
            return sum(rows[i][i] for i in range(d)) / d if rows else Fraction(0)

        lhs = plain_trace(x @ scaling(y, 1))
        rhs = plain_trace(y @ x)
        assert lhs != rhs


class TestStateOfProduct:
    """The O(d^2) pairing against the matmul path it replaces."""

    def _elements(self, level, rng):
        # x and y share some blocks, each has blocks the other lacks, the
        # state's support misses some of them and reaches blocks of neither
        pool = list(iter_signatures(level, -2, 2))
        chi = random_character(level, HALF, rng, max_support=5)
        sigs = rng.sample(pool, min(6, len(pool)))
        cut = len(sigs) // 2
        x = random_block_element(level, HALF, sigs[: cut + 1], rng)
        y = random_block_element(level, HALF, sigs[cut - 1 :], rng)
        return chi, x, y

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_matches_the_matmul_path(self, level):
        rng = random.Random(100 + level)
        for _ in range(25):
            chi, x, y = self._elements(level, rng)
            for a, b in ((x, y), (y, x), (x, scaling(y, 1)), (x, x.adjoint())):
                assert state_of_product(chi, a, b) == char_state_eval(chi, a @ b)

    @pytest.mark.parametrize(
        "chi, x, y, message",
        [
            ((2, HALF), (2, HALF), (3, HALF), r"^levels must agree: 2 != 3$"),
            ((2, HALF), (2, HALF), (2, THIRD), r"^q must agree$"),
            ((2, HALF), (3, HALF), (3, HALF), r"^levels must agree: 2 != 3$"),
            ((2, THIRD), (2, HALF), (2, HALF), r"^q must agree$"),
            # levels are checked before q, and x against y before chi against x
            ((2, HALF), (2, HALF), (3, THIRD), r"^levels must agree: 2 != 3$"),
            ((2, THIRD), (3, HALF), (3, HALF), r"^levels must agree: 2 != 3$"),
            ((2, HALF), (3, HALF), (4, HALF), r"^levels must agree: 3 != 4$"),
            ((2, HALF), (3, HALF), (3, THIRD), r"^q must agree$"),
        ],
        ids=[
            "xy-level", "xy-q", "state-level", "state-q",
            "xy-both", "state-both", "xy-before-state", "xy-q-before-state",
        ],
    )
    def test_errors_match_the_matmul_path(self, chi, x, y, message):
        # (level, q) of each operand; the elements are identities on one block
        chi = indecomposable(Signature((1,) + (0,) * (chi[0] - 1)), chi[1])
        x, y = (BlockElement.identity(n, q, [Signature((1,) + (0,) * (n - 1))]) for n, q in (x, y))
        with pytest.raises(ValueError, match=message):
            char_state_eval(chi, x @ y)
        for pairing in (state_of_product, flow_coefficients, kms_check):
            with pytest.raises(ValueError, match=message):
                pairing(chi, x, y)


SWEEP_QS = [HALF, Fraction(2, 3), Fraction(3, 5), Fraction(99, 100)]


def _with_fraction_entries(x, rng):
    """x with every nonzero entry divided by a random small denominator."""
    divided = {
        sig: tuple(tuple(Fraction(v, rng.randint(1, 6)) if v else v for v in row) for row in rows)
        for sig, rows in x.blocks.items()
    }
    return BlockElement(x.level, x.q, divided)


def _nonzero(terms):
    return {e: c for e, c in terms.items() if c}


class TestIntegerPathsAgainstOracle:
    """The integer Laurent sums and integer flow against the per-entry
    `Fraction` oracles in `helpers`, exactly."""

    @staticmethod
    def _cases(level, q, rng, count):
        # level 4 keeps to blocks of side <= 20 to bound the sweep's cost
        pool = [s for s in iter_signatures(level, -2, 2) if dimension(s) <= 20]
        for i in range(count):
            support = rng.sample(pool, rng.randint(1, min(3, len(pool))))
            raw = [rng.randint(1, 9) for _ in support]
            chi = LevelCharacter(level, q, {s: Fraction(r, sum(raw)) for s, r in zip(support, raw)})
            # blocks partly outside the support, and one factor missing some
            sigs = support + rng.sample(pool, min(2, len(pool)))
            x = random_block_element(level, q, sigs, rng)
            y = random_block_element(level, q, sigs[1:] or sigs, rng)
            if i % 2:
                x, y = _with_fraction_entries(x, rng), _with_fraction_entries(y, rng)
            yield chi, x, y

    @pytest.mark.parametrize("q", SWEEP_QS, ids=str)
    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_seeded_sweep_equals_the_oracle(self, level, q):
        rng = random.Random(1000 * level + q.denominator)
        for chi, x, y in self._cases(level, q, rng, 6):
            assert char_state_eval(chi, x) == char_state_eval_oracle(chi, x)
            assert char_state_eval(chi, x @ y) == char_state_eval_oracle(chi, x @ y)
            assert state_of_product(chi, x, y) == state_of_product_oracle(chi, x, y)
            assert _kms_sides(chi, x, y) == kms_sides_oracle(chi, x, y)
            assert kms_check(chi, x, y)
            for s in range(-3, 4):
                assert scaling(x, s) == scaling_oracle(x, s)
            if level >= 2:
                for nu in chi.support():
                    assert check_f_compatibility(nu, q) == check_f_compatibility_oracle(nu, q)

    @pytest.mark.parametrize(
        "terms",
        [{}, {0: 1}, {3: -2}, {-4: 5}, {-3: 1, -1: 2}, {1: 7, 4: -1},
         {-2: Fraction(1, 3), 2: Fraction(-5, 6), 0: 4}, {-1: Fraction(7, 9), 5: 3}],
    )
    @pytest.mark.parametrize("q", SWEEP_QS, ids=str)
    def test_laurent_value_on_every_sign_of_the_exponent_range(self, terms, q):
        num, den = _laurent_value(terms, q)
        assert den > 0
        assert Fraction(num, den) == sum((c * q ** e for e, c in terms.items()), Fraction(0))

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_kms_sides_agree_as_laurent_polynomials(self, level):
        # per block, the two sides are the same polynomial in q: an identity
        # in q, stronger than agreement of the two values at one q
        rng = random.Random(400 + level)
        twisted = 0
        # at the generator's density 0.4 a level-2 block is rarely twisted:
        # 80 cases give 7 there, where 12 gave 1
        for chi, x, y in self._cases(level, HALF, rng, 80):
            for sig in chi.weights:
                xs, ys = x.blocks.get(sig), y.blocks.get(sig)
                if xs is None or ys is None:
                    continue
                exps = f_spectrum(sig)
                left = {}
                for (_, er), c in _pair_table(xs, ys, exps).items():
                    left[er] = left.get(er, 0) + c
                right = _product_terms(ys, xs, exps)
                assert _nonzero(left) == _nonzero(right)
                twisted += len(_nonzero(left)) > 1
        # level 1 has the trivial flow: every block is a single exponent
        assert twisted > 3 or level == 1

    @pytest.mark.parametrize("nu", [sig(1, 0), sig(2, 1, -1), sig(2, 0, 0, -1)])
    @pytest.mark.parametrize("delta", [1, -1])
    def test_f_compat_mutant_is_reported(self, nu, delta, monkeypatch):
        # one exponent of nu's F off by one: q^e is injective on 0 < q < 1,
        # so the exponent comparison must locate it
        true_spectrum = f_spectrum
        for k in range(dimension(nu)):
            def mutated(lam, k=k):
                exps = list(true_spectrum(lam))
                if lam == nu:
                    exps[k] += delta
                return tuple(exps)

            monkeypatch.setattr(blocks, "f_spectrum", mutated)
            report = check_f_compatibility(nu, HALF)
            lam, offset, _ = next(g for g in pattern_groups(nu) if g[1] <= k < g[1] + g[2])
            assert report == blocks.FCompatReport(False, lam, k - offset)
        monkeypatch.undo()
        assert check_f_compatibility(nu, HALF).ok

    @pytest.mark.parametrize("lam", [sig(1, 0), sig(2, 0, -1), sig(1, 0, 0, -1)])
    def test_kms_on_matrix_units_exercises_the_twist(self, lam):
        # u = e_pr, v = e_rp with e_p != e_r: the state is not tracial on the
        # pair, yet the twisted identity holds
        q = Fraction(2, 3)
        chi = indecomposable(lam, q)
        exps = f_spectrum(lam)
        pairs = [(p, r) for p in range(len(exps)) for r in range(len(exps)) if exps[p] != exps[r]]
        assert pairs
        for p, r in pairs:
            u = BlockElement.basis_unit(lam.level, q, lam, p, r)
            v = BlockElement.basis_unit(lam.level, q, lam, r, p)
            assert kms_check(chi, u, v)
            assert char_state_eval(chi, u @ v) != char_state_eval(chi, v @ u)


class TestFlowCoefficients:
    """The real-time flow as exact Laurent coefficients in w = q^(it),
    against `state_of_product`, the integer flow and the float oracle."""

    @staticmethod
    def _cases(level, q, rng):
        yield from TestIntegerPathsAgainstOracle._cases(level, q, rng, 6)
        # matrix units e_pr, e_rp with e_p != e_r: the flow moves the pair,
        # so a coefficient at some k != 0 is nonzero (level 1 has none)
        for lam in iter_signatures(level, -1, 1):
            exps = f_spectrum(lam)
            if len(set(exps)) > 1:
                p, r = exps.index(max(exps)), exps.index(min(exps))
                u = BlockElement.basis_unit(level, q, lam, p, r)
                v = BlockElement.basis_unit(level, q, lam, r, p)
                yield indecomposable(lam, q), u, v
                return

    @pytest.mark.parametrize("q", SWEEP_QS, ids=str)
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_values_at_one_and_at_powers_of_q(self, level, q):
        rng = random.Random(500 * level + q.denominator)
        moved = 0
        for chi, x, y in self._cases(level, q, rng):
            coeffs = flow_coefficients(chi, x, y)
            assert list(coeffs) == sorted(coeffs)
            assert all(type(c) is Fraction and c for c in coeffs.values())
            assert sum(coeffs.values()) == state_of_product(chi, x, y)
            for s in range(-3, 4):
                value = sum((c * q ** (s * k) for k, c in coeffs.items()), Fraction(0))
                assert value == char_state_eval(chi, scaling(x, s) @ y)
            moved += any(coeffs)
        assert moved or level == 1

    @pytest.mark.parametrize("q", SWEEP_QS, ids=str)
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_kms_sides_are_the_flow_at_one_over_q_and_the_swapped_product(self, level, q):
        rng = random.Random(700 * level + q.denominator)
        for chi, x, y in self._cases(level, q, rng):
            lhs, rhs = _kms_sides(chi, x, y)
            coeffs = flow_coefficients(chi, x, y)
            assert lhs == sum(c * q**-k for k, c in coeffs.items())
            assert rhs == state_of_product(chi, y, x)

    @pytest.mark.parametrize("q", SWEEP_QS, ids=str)
    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_float_sum_matches_the_real_time_oracle(self, level, q):
        rng = random.Random(600 * level + q.denominator)
        lnq = math.log(q)
        for chi, x, y in self._cases(level, q, rng):
            coeffs = flow_coefficients(chi, x, y)
            for t in (0, 0.3, -1.7, 12.5):
                value = sum(float(c) * cmath.exp(1j * k * t * lnq) for k, c in coeffs.items())
                assert abs(value - real_time_oracle(chi, x, y, t)) <= 1e-12


def _sparse(level, q, cells):
    """A block element from {sig: {(row, col): value}}, zero elsewhere."""
    blocks = {}
    for s, entries in cells.items():
        d = dimension(s)
        rows = [[0] * d for _ in range(d)]
        for (p, r), v in entries.items():
            rows[p][r] = v
        blocks[s] = rows
    return BlockElement(level, q, blocks)


class TestSharesFold:
    """Each pairing folds its blocks' shares as integer pairs over the lcm
    of their denominators and builds one `Fraction` per returned value."""

    Q = Fraction(2, 3)
    LAM, MU = sig(1, 0), sig(2, 0)  # F exponents (1, -1) and (2, 0, -2)

    def _cancelling(self):
        """A state on two blocks, and the entry c of mu's block that makes
        x_01 y_10 = 1 at lam and x_01 y_10 = c at mu cancel in the state:
        both pairs sit at the same exponents' gap e_0 - e_1 = 2."""
        q, lam, mu = self.Q, self.LAM, self.MU
        chi = LevelCharacter(2, q, {lam: Fraction(1, 3), mu: Fraction(2, 3)})
        el, em = f_spectrum(lam), f_spectrum(mu)
        assert el[0] - el[1] == em[0] - em[1] == 2
        share = lambda s, e: chi.weights[s] * q ** e / qdim(s, q)
        return chi, -share(lam, el[0]) / share(mu, em[0])

    def test_totals_cancel_across_blocks(self):
        chi, c = self._cancelling()
        q, lam, mu = self.Q, self.LAM, self.MU
        x = _sparse(2, q, {lam: {(0, 1): 1}, mu: {(0, 1): c}})
        y = _sparse(2, q, {lam: {(1, 0): 1}, mu: {(1, 0): 1}})
        xy = x @ y
        pairs = [
            (char_state_eval(chi, xy), char_state_eval_oracle(chi, xy)),
            (state_of_product(chi, x, y), state_of_product_oracle(chi, x, y)),
            *zip(_kms_sides(chi, x, y), kms_sides_oracle(chi, x, y)),
        ]
        for got, want in pairs:
            assert type(got) is Fraction and got == want == 0
        # each block's share alone is not zero
        for s in (lam, mu):
            alone = indecomposable(s, q)
            assert char_state_eval(alone, xy) and all(_kms_sides(alone, x, y))

    def test_a_cancelled_gap_is_left_out(self):
        chi, c = self._cancelling()
        q, lam, mu = self.Q, self.LAM, self.MU
        # the cancelling pair at k = 2, plus one product entry at k = 0 on
        # lam and one at k = e_0 - e_2 = 4 on mu
        x = _sparse(2, q, {lam: {(0, 1): 1, (0, 0): 1}, mu: {(0, 1): c, (0, 2): 1}})
        y = _sparse(2, q, {lam: {(1, 0): 1, (0, 0): 1}, mu: {(1, 0): 1, (2, 0): 1}})
        coeffs = flow_coefficients(chi, x, y)
        assert list(coeffs) == [0, 4]
        assert all(type(v) is Fraction and v for v in coeffs.values())
        for s in range(-2, 3):
            value = sum((v * q ** (s * k) for k, v in coeffs.items()), Fraction(0))
            assert value == char_state_eval_oracle(chi, scaling_oracle(x, s) @ y)
        for s in (lam, mu):
            assert 2 in flow_coefficients(indecomposable(s, q), x, y)

    @pytest.mark.parametrize(
        "sigs",
        [[sig(2, 0)], [sig(1, 0), sig(2, 0)], [sig(1, 0), sig(2, 0), sig(1, -1), sig(3, 0)]],
        ids=["one", "two", "four"],
    )
    def test_one_fraction_per_returned_value(self, sigs, monkeypatch):
        q = self.Q
        rng = random.Random(len(sigs))
        chi = LevelCharacter(2, q, {s: Fraction(1, len(sigs)) for s in sigs})
        # int entries: entry products build no `Fraction`
        x, y = random_block_element(2, q, sigs, rng), random_block_element(2, q, sigs, rng)
        wants = [
            char_state_eval_oracle(chi, x),
            state_of_product_oracle(chi, x, y),
            kms_sides_oracle(chi, x, y),
            state_of_product_oracle(chi, x, y),
        ]
        built = []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
        # newer Pythons build arithmetic results without calling __new__
        if hasattr(Fraction, "_from_coprime_ints"):
            coprime = Fraction._from_coprime_ints.__func__

            def counting_coprime(cls, *args):
                built.append(args)
                return coprime(cls, *args)

            monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
        got, counts = [], []
        for call in (
            lambda: char_state_eval(chi, x),
            lambda: state_of_product(chi, x, y),
            lambda: _kms_sides(chi, x, y),
            lambda: flow_coefficients(chi, x, y),
        ):
            del built[:]
            got.append(call())
            counts.append(len(built))
        monkeypatch.undo()
        coeffs = got.pop()
        assert coeffs and counts == [1, 1, 2, len(coeffs)]
        assert got[:3] == wants[:3] and sum(coeffs.values()) == wants[3]


class TestScalingMemo:
    """The per-call memo of exact entry factors in `scaling`."""

    def _mixed(self, q):
        # sig(2, 0) has exponents (2, 0, -2): (0, 1) and (1, 2) share the gap
        # 2, and (1, 0) and (2, 1) the gap -2; at each shared gap an int meets
        # an equal bool or an equal Fraction
        rows = (
            (True, 2, Fraction(-1, 2)),
            (1, -3, Fraction(4, 2)),
            (Fraction(-7, 3), True, 2),
        )
        return BlockElement(2, q, {sig(2, 0): rows})

    @pytest.mark.parametrize("q", SWEEP_QS, ids=str)
    def test_mixed_entries_equal_the_oracle(self, q):
        x = self._mixed(q)
        for s in range(-3, 4):
            assert scaling(x, s) == scaling_oracle(x, s)

    def test_exact_entries_leave_as_fractions(self):
        x = self._mixed(HALF)
        assert scaling(x, 0) is x
        for s in (-3, -2, -1, 1, 2, 3):
            out = scaling(x, s).blocks[sig(2, 0)]
            assert all(type(v) is Fraction for row in out for v in row)
            # equal values at equal gaps: one object, built once
            assert out[0][1] is out[1][2]
            assert out[1][0] is out[2][1]

    @pytest.mark.parametrize("q", SWEEP_QS, ids=str)
    def test_group_law_on_fraction_entries(self, q):
        rng = random.Random(700 + q.denominator)
        sigs = [sig(2, 0, -1), sig(1, 1, 0)]
        x = _with_fraction_entries(random_block_element(3, q, sigs, rng), rng)
        for s, t in ((2, 3), (-1, 1), (3, -5), (-2, -1)):
            assert scaling(scaling(x, s), t) == scaling(x, s + t)

    def test_the_memo_does_not_outlive_a_call(self):
        rows = ((1, 2, 3), (2, 1, 2), (3, 2, 1))
        third = Fraction(1, 3)
        x = BlockElement(2, HALF, {sig(2, 0): rows})
        y = BlockElement(2, third, {sig(2, 0): rows})
        first = scaling(x, 1)
        assert scaling(y, 1) == scaling_oracle(y, 1)
        assert scaling(y, 1).blocks[sig(2, 0)][0][1] == 2 * third ** 2
        assert scaling(x, 1) == first == scaling_oracle(x, 1)
        assert first.blocks[sig(2, 0)][0][1] == 2 * HALF ** 2
        assert scaling(x, 2).blocks[sig(2, 0)][0][1] == 2 * HALF ** 4


class TestLdlPsd:
    """The exact elimination test against the Faddeev-LeVerrier oracle."""

    @pytest.mark.parametrize(
        "rows, psd",
        [
            (((0, 1), (1, 0)), False),
            (((0, 0), (0, 1)), True),
            (((0, 0, 0), (0, 0, 0), (0, 0, 0)), True),
            (((1, 1), (1, 1)), True),
            (((1, 2), (2, 1)), False),
            (((1, 0, 0), (0, 0, 1), (0, 1, 0)), False),
        ],
    )
    def test_edge_cases(self, rows, psd):
        assert _ldl_psd(rows) is psd
        assert charpoly_psd(rows) is psd

    @staticmethod
    def _gram(rng, n, rank):
        # B^T D B with B of shape rank x n and D >= 0 diagonal: PSD of rank <= rank
        b = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(rank)]
        dg = [Fraction(rng.randint(0, 4), rng.randint(1, 4)) for _ in range(rank)]
        return tuple(
            tuple(sum(b[k][i] * dg[k] * b[k][j] for k in range(rank)) for j in range(n))
            for i in range(n)
        )

    @staticmethod
    def _symmetric(rng, n):
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                if rng.random() < 0.6:
                    rows[i][j] = rows[j][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return tuple(map(tuple, rows))

    def test_agrees_with_the_charpoly_oracle(self):
        rng = random.Random(31337)
        verdicts = []
        for _ in range(400):
            n = rng.randint(1, 8)
            kind = rng.randrange(4)
            if kind == 0:
                rows = self._gram(rng, n, n)
            elif kind == 1:
                rows = self._gram(rng, n, rng.randint(0, max(0, n - 1)))
            elif kind == 2:
                # a Gram matrix pushed off the cone by a small negative shift
                rows = self._gram(rng, n, rng.randint(1, n))
                i = rng.randrange(n)
                rows = tuple(
                    tuple(v - (Fraction(1, 50) if (r, c) == (i, i) else 0)
                          for c, v in enumerate(row))
                    for r, row in enumerate(rows)
                )
            else:
                rows = self._symmetric(rng, n)
            psd = _ldl_psd(rows)
            assert psd is charpoly_psd(rows), rows
            verdicts.append(psd)
        # both verdicts occur in bulk
        assert 100 < sum(verdicts) < 300


class _NoFloatInt(int):
    """An int whose true division fails the test if it yields a float."""

    def __truediv__(self, other):
        out = int.__truediv__(self, other)
        assert out is NotImplemented, f"{int(self)} / {other} gave a float"
        return out

    def __rtruediv__(self, other):
        out = int.__rtruediv__(self, other)
        assert out is NotImplemented, f"{other} / {int(self)} gave a float"
        return out


class TestLdlPsdOnIntegers:
    """`_ldl_psd` on integer-only input, eliminated without a copy."""

    @staticmethod
    def _integer_cases(rng, count):
        for k in range(count):
            n = rng.randint(1, 7)
            kind = k % 3
            if kind < 2:
                # integer Gram matrix B^T B, full rank or rank-deficient, and
                # in the second kind pushed off the cone at one diagonal entry
                rank = rng.randint(0, n)
                b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rank)]
                rows = [[sum(r[i] * r[j] for r in b) for j in range(n)] for i in range(n)]
                if kind == 1:
                    i = rng.randrange(n)
                    rows[i][i] -= 1
            else:
                rows = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1):
                        if rng.random() < 0.6:
                            rows[i][j] = rows[j][i] = rng.randint(-4, 4)
            yield tuple(map(tuple, rows))

    def test_agrees_with_the_charpoly_oracle(self):
        rng = random.Random(4242)
        verdicts = []
        for rows in self._integer_cases(rng, 300):
            psd = _ldl_psd(rows)
            assert psd is charpoly_psd(rows), rows
            verdicts.append(psd)
        assert 50 < sum(verdicts) < 250

    # pivot 5 leaves (1/5, 4/5; 4/5, 16/5), whose Schur complement is
    # exactly 0; in floats 1 - 4/5 rounds below 1/5 and it comes out -4.4e-16
    ZERO_COMPLEMENT = ((5, -2, 2), (-2, 1, 0), (2, 0, 4))

    def test_zero_schur_complement_that_floats_round_negative(self):
        rows = self.ZERO_COMPLEMENT
        assert charpoly_psd(rows)
        assert _ldl_psd(rows) is True
        a11, a12, a22 = 1 - (-2 / 5) * -2, 0 - (-2 / 5) * 2, 4 - (2 / 5) * 2
        assert a22 - (a12 / a11) * a12 < 0

    def test_no_float_is_ever_produced(self):
        rng = random.Random(4243)
        cases = [self.ZERO_COMPLEMENT] + list(self._integer_cases(rng, 100))
        for rows in cases:
            wrapped = tuple(tuple(_NoFloatInt(v) for v in row) for row in rows)
            assert _ldl_psd(wrapped) is _ldl_psd(rows)


class TestEmbed:
    def test_unital(self):
        targets = [sig(2, 1, 0)]
        x = BlockElement.identity(2, HALF, enumerate_down(targets[0]))
        up = embed(x, targets)
        assert up == BlockElement.identity(3, HALF, targets)

    def test_non_interlacing_source_gives_a_zero_block(self):
        x = BlockElement.identity(1, HALF, [sig(5)])
        up = embed(x, [sig(1, 0)])
        assert all(v == 0 for row in up.blocks[sig(1, 0)] for v in row)

    def test_frozen_scalar_placement(self):
        x = BlockElement(1, HALF, {sig(1): ((7,),)})
        up = embed(x, [sig(1, 0)])
        assert up.blocks[sig(1, 0)] == ((7, 0), (0, 0))

    def test_multiplicative_and_star_preserving(self):
        rng = random.Random(8)
        sigs = [sig(1, 0), sig(1, 1)]
        x = random_block_element(2, HALF, sigs, rng)
        y = random_block_element(2, HALF, sigs, rng)
        targets = [sig(1, 1, 0), sig(2, 1, 1)]
        assert embed(x @ y, targets) == embed(x, targets) @ embed(y, targets)
        assert embed(x.adjoint(), targets) == embed(x, targets).adjoint()

    def test_state_embed_consistency(self):
        # evaluating above equals the cotransition mixture of evaluations below
        rng = random.Random(9)
        nu = sig(2, 1, 0)
        chi_up = indecomposable(nu, HALF)
        x = random_block_element(2, HALF, list(enumerate_down(nu)), rng)
        lhs = char_state_eval(chi_up, embed(x, [nu]))
        rhs = sum(
            p * char_state_eval(indecomposable(lam, HALF), x)
            for lam, p in cotransition(nu, HALF).items()
        )
        assert lhs == rhs


class TestFCompatibility:
    @pytest.mark.parametrize("nu", [sig(1, 0), sig(0, 0), sig(2, 1, -1)])
    def test_passes(self, nu):
        assert check_f_compatibility(nu, HALF).ok

    def test_level_one_rejected(self):
        with pytest.raises(ValueError):
            check_f_compatibility(sig(3), HALF)


class TestDecomposeState:
    def test_pure_f_density(self):
        lam = sig(1, 0)
        report = decompose_state({lam: f_density(lam, HALF)}, HALF)
        assert report.ok
        assert report.coefficients == {lam: 1}

    def test_mixture(self):
        lam, mu = sig(1, 0), sig(2, 0)
        dens = {
            lam: tuple(
                tuple(v * Fraction(1, 4) for v in row) for row in f_density(lam, HALF)
            ),
            mu: tuple(
                tuple(v * Fraction(3, 4) for v in row) for row in f_density(mu, HALF)
            ),
        }
        report = decompose_state(dens, HALF)
        assert report.ok
        assert report.coefficients == {lam: Fraction(1, 4), mu: Fraction(3, 4)}

    def test_normalized_identity_rejected(self):
        lam = sig(1, 0)
        d = dimension(lam)
        dens = {
            lam: tuple(
                tuple(Fraction(1, d) if i == j else Fraction(0) for j in range(d))
                for i in range(d)
            )
        }
        report = decompose_state(dens, HALF)
        assert not report.ok
        assert "not proportional" in report.reason

    def test_offdiagonal_rejected(self):
        lam = sig(1, 0)
        rows = [list(r) for r in f_density(lam, HALF)]
        rows[0][1] = rows[1][0] = Fraction(1, 100)
        report = decompose_state({lam: rows}, HALF)
        assert not report.ok
        assert "off-diagonal" in report.reason

    def test_non_psd_is_a_domain_error(self):
        lam = sig(1, 0)
        with pytest.raises(ValueError):
            decompose_state({lam: ((Fraction(2), 0), (0, Fraction(-1)))}, HALF)

    def test_trace_must_be_one(self):
        lam = sig(1, 0)
        with pytest.raises(ValueError):
            decompose_state({lam: ((HALF, 0), (0, 0))}, HALF)

    @pytest.mark.parametrize("kind", ["accept", "off-diagonal", "not proportional"])
    def test_matches_the_ratio_formulation(self, kind):
        # seeded mixtures of F-densities over 1-3 blocks, then one defect
        rng = random.Random(f"decompose:{kind}")
        sigs = [s for level in (1, 2, 3) for s in iter_signatures(level, -1, 2)]
        for _ in range(25):
            q = rng.choice([HALF, Fraction(2, 3), Fraction(3, 5), Fraction(99, 100)])
            level = rng.randint(1, 3)
            labels = rng.sample([s for s in sigs if s.level == level], rng.randint(1, 3))
            masses = [rng.randint(1, 5) for _ in labels]
            dens = {
                lam: [[v * Fraction(m, sum(masses)) for v in row] for row in f_density(lam, q)]
                for lam, m in zip(labels, masses)
            }
            wide = [lam for lam in labels if dimension(lam) > 1]
            if kind != "accept" and not wide:
                continue
            if kind == "off-diagonal":
                rows = dens[rng.choice(wide)]
                i, j = rng.sample(range(len(rows)), 2)
                rows[i][j] = rows[j][i] = min(rows[i][i], rows[j][j]) / 2
            elif kind == "not proportional":
                lam = rng.choice(wide)
                i = rng.randrange(dimension(lam))
                dens[lam][i][i] *= rng.choice([0, Fraction(1, 2), 3])
                total = sum(rows[k][k] for rows in dens.values() for k in range(len(rows)))
                dens = {s: [[v / total for v in row] for row in rows] for s, rows in dens.items()}
            # exact integers where a Fraction is whole, as a caller may pass them
            dens = {
                s: [[int(v) if v.denominator == 1 else v for v in row] for row in rows]
                for s, rows in dens.items()
            }
            report = decompose_state(dens, q)
            assert report == decompose_by_ratios(dens, q)
            assert report.ok == (kind == "accept")
            if not report.ok:
                assert kind in report.reason

    @pytest.mark.parametrize("kind", [float, complex])
    def test_inexact_entries_raise(self, kind):
        # only exact densities are classified; there is no numeric mode
        lam = sig(1, 0)
        rows = [[kind(v) for v in row] for row in f_density(lam, HALF)]
        with pytest.raises(
            ValueError, match=r"^density at \(1,0\) must have exact \(int or Fraction\) entries$"
        ):
            decompose_state({lam: rows}, HALF)

    def test_float_zero_row_is_still_inexact(self):
        # a row of float zeros is not stored as a row of int zeros
        with pytest.raises(
            ValueError, match=r"^density at \(1,0\) must have exact \(int or Fraction\) entries$"
        ):
            decompose_state({sig(1, 0): ((0.0, 0.0), (0, 1))}, HALF)

    @pytest.mark.parametrize(
        "rows",
        [((1,),), ((1, 0), (0,)), ((0.5,),), ((0, 0, 0), (1, 0))],
        ids=["too-small", "ragged", "inexact", "ragged-zero-row"],
    )
    def test_block_shape_enforced(self, rows):
        # the shape is checked before the entries are
        with pytest.raises(ValueError, match=r"^density at \(1,0\) must be 2x2$"):
            decompose_state({sig(1, 0): rows}, HALF)
