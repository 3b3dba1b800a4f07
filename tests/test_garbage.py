"""Library calls leave no cyclic garbage: everything one call allocates is
freed by reference counting, so the cyclic collector finds nothing after
it and a long run of calls does not set it off."""

import gc
import random
from fractions import Fraction

import pytest

from qchar import (
    BoundaryParam,
    LevelCharacter,
    Signature,
    cauchy_gap,
    cotransition,
    decompose_state,
    extreme_character,
    f_spectrum,
    indecomposable,
    kms_check,
    qdim,
    random_block_element,
    restrict,
    scaling,
    sgf_eval,
    sgf_eval_torus,
    tensor,
    verify_corollary,
)

HALF = Fraction(1, 2)


def _calls():
    rng = random.Random(5)
    lam, mu = Signature((2, 1, 0)), Signature((1, 1, -1))
    chi = LevelCharacter(3, HALF, {lam: Fraction(1, 3), mu: Fraction(2, 3)})
    x = random_block_element(3, HALF, [lam, mu], rng)
    y = random_block_element(3, HALF, [lam, mu], rng)
    f_diag = tuple(
        tuple(HALF ** e / qdim(lam, HALF) if i == j else Fraction(0) for j in range(8))
        for i, e in enumerate(f_spectrum(lam))
    )
    wide = BoundaryParam((-2, 0), 2)
    return {
        # alpha = (4, 2): the h x h determinant, whose second row empties
        "extreme_h_by_h": lambda: extreme_character(wide, 2, 5, HALF),
        # alpha = (2, 2, 1, 1): alpha_1 < min(N, h), the dual e-form
        "extreme_dual": lambda: extreme_character(BoundaryParam((0, 0, 1, 1), 2), 4, 5, HALF),
        # the same at L = N + 1, where the second row also empties
        "extreme_empty_row": lambda: extreme_character(wide, 2, 3, HALF),
        "extreme_point_mass": lambda: extreme_character(BoundaryParam((), 2), 2, 10, HALF),
        "cauchy_gap": lambda: cauchy_gap(wide, 2, 4, Fraction(2, 3)),
        "verify_corollary": lambda: verify_corollary(wide, 1, 2, 5, HALF),
        "tensor": lambda: tensor(chi, indecomposable(mu, HALF)),
        "sgf_eval": lambda: sgf_eval(chi, (Fraction(1, 3), Fraction(2, 5), Fraction(3, 7))),
        "sgf_eval_torus": lambda: sgf_eval_torus(chi, (1j, -1, 1)),
        "restrict": lambda: restrict(chi),
        "cotransition": lambda: cotransition(lam, HALF),
        "kms_check": lambda: kms_check(chi, x, y),
        "scaling": lambda: scaling(x, 2),
        "decompose_state": lambda: decompose_state({lam: f_diag}, HALF),
    }


@pytest.mark.parametrize("name", list(_calls()))
def test_a_call_leaves_no_cyclic_garbage(name):
    call = _calls()[name]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        call()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
