"""Acceptance suite.

Each criterion is one test that runs its full stated sweep at its stated
tolerance (exact equality unless noted) and prints a single PASS/FAIL
line; run with `pytest tests/test_acceptance.py -s` to see all verdicts.
"""

import cmath
import random
from fractions import Fraction

from qchar import (
    BoundaryParam,
    Signature,
    cauchy_gap,
    char_state_eval,
    check_f_compatibility,
    cotransition,
    decompose_state,
    dimension,
    embed,
    enumerate_down,
    f_spectrum,
    indecomposable,
    kms_check,
    lr_coefficients,
    qdim,
    random_block_element,
    restrict,
    scaling,
    schur_eval,
    sgf_eval,
    sgf_eval_torus,
    shift,
    tensor,
    verify_corollary,
)
from qchar.blocks import BlockElement

from helpers import (
    iter_signatures,
    lr_by_subtraction,
    principal_specialization,
    random_character,
    random_points,
    schur_eval_gt_oracle,
)

HALF = Fraction(1, 2)
TWO_THIRDS = Fraction(2, 3)


def _verdict(name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    assert ok, name


def test_criterion_01_quantum_dimension_consistency():
    ok = True
    for q in (HALF, TWO_THIRDS):
        for level in (1, 2, 3, 4):
            pts = tuple(q ** (level - 1 - 2 * i) for i in range(level))
            for lam in iter_signatures(level, -3, 3):
                value = qdim(lam, q)
                bridge = q ** ((level - 1) * lam.size)
                ok = ok and value == schur_eval(lam, pts)
                ok = ok and value == schur_eval_gt_oracle(lam, pts)
                ok = ok and value == bridge * principal_specialization(lam, q)
    _verdict("1 quantum-dimension consistency (exact)", ok)


def test_criterion_02_cotransition_stochasticity():
    ok = True
    for q in (HALF, TWO_THIRDS):
        for level in (1, 2, 3, 4):
            for nu in iter_signatures(level, -3, 3):
                ok = ok and sum(cotransition(nu, q).values()) == 1
    _verdict("2 cotransition stochasticity (exact)", ok)


def test_criterion_03_coherence_generating_function_stability():
    rng = random.Random(30303)
    ok = True
    for trial in range(50):
        n = trial % 3 + 1  # lower level N in 1..3, measure lives at N+1
        chi = random_character(n + 1, HALF, rng)
        low = restrict(chi)
        for _ in range(5):
            x = random_points(n, rng)
            lhs = sgf_eval(chi, x + (HALF ** (-2 * n),))
            ok = ok and lhs == sgf_eval(low, x)
    _verdict("3 coherence equals generating-function stability (exact)", ok)


def test_criterion_04_product_theorem():
    rng = random.Random(40404)
    ok = True
    for trial in range(50):
        n = trial % 3 + 1
        a = random_character(n, HALF, rng)
        b = random_character(n, HALF, rng)
        prod = tensor(a, b)
        for _ in range(3):
            x = random_points(n, rng)
            ok = ok and sgf_eval(prod, x) == sgf_eval(a, x) * sgf_eval(b, x)
    explicit = tensor(indecomposable(Signature((1, 0)), HALF),
                      indecomposable(Signature((1, 0)), HALF))
    ok = ok and explicit.weights == {
        Signature((2, 0)): Fraction(21, 25),
        Signature((1, 1)): Fraction(4, 25),
    }
    _verdict("4 product theorem for tensor characters (exact)", ok)


def test_criterion_05_determinant_absorption():
    ok = True
    for level in (1, 2, 3):
        for lam in iter_signatures(level, -2, 2):
            chi = indecomposable(lam, HALF)
            for k in range(-2, 3):
                rect = indecomposable(Signature((k,) * level), HALF)
                expected = indecomposable(shift(lam, k), HALF)
                ok = ok and tensor(chi, rect) == expected
    _verdict("5 determinant absorption at finite level (exact)", ok)


def test_criterion_06_corollary_with_gap_monitor():
    thetas = [
        BoundaryParam((), 0),          # (0, 0, ...)
        BoundaryParam((0,), 1),        # (0, 1, 1, ...)
        BoundaryParam((-1, 0), 2),     # (-1, 0, 2, 2, ...)
    ]
    ok = True
    for theta in thetas:
        for k in (-1, 1, 3):
            for level in (1, 2, 3):
                report = verify_corollary(theta, k, level, level + 8, HALF)
                ok = ok and report.ok and report.gap == 0
    for theta in thetas[1:]:
        for level in (1, 2, 3):
            gaps = [
                cauchy_gap(theta, level, trunc, HALF)
                for trunc in range(level + 2, level + 9)
            ]
            ok = ok and all(a > b for a, b in zip(gaps, gaps[1:]))
    _verdict("6 determinant-tensoring corollary, exact at each truncation", ok)


def test_criterion_07_kms_classification():
    rng = random.Random(70707)
    ok = True
    for level in (1, 2, 3):
        for lam in iter_signatures(level, -2, 2):
            chi = indecomposable(lam, HALF)
            for _ in range(200):
                x = random_block_element(level, HALF, [lam], rng)
                y = random_block_element(level, HALF, [lam], rng)
                ok = ok and kms_check(chi, x, y)

            exps = f_spectrum(lam)
            d = dimension(lam)
            distinct = [(i, j) for i in range(d) for j in range(d)
                        if exps[i] != exps[j]]
            if distinct:
                # normalized matrix trace must violate the twisted identity
                i, j = distinct[0]
                x = BlockElement.basis_unit(level, HALF, lam, i, j)
                y = BlockElement.basis_unit(level, HALF, lam, j, i)

                def plain_trace(z):
                    rows = z.blocks.get(lam)
                    if rows is None:
                        return Fraction(0)
                    return sum(rows[t][t] for t in range(d)) / d

                ok = ok and plain_trace(x @ scaling(y, 1)) != plain_trace(y @ x)

            # decompose accepts exactly the F-proportional densities
            f_diag = tuple(
                tuple(HALF ** exps[i] / qdim(lam, HALF) if i == j else Fraction(0)
                      for j in range(d))
                for i in range(d)
            )
            report = decompose_state({lam: f_diag}, HALF)
            ok = ok and report.ok and report.coefficients == {lam: 1}
            if distinct:
                ident = tuple(
                    tuple(Fraction(1, d) if i == j else Fraction(0)
                          for j in range(d))
                    for i in range(d)
                )
                ok = ok and not decompose_state({lam: ident}, HALF).ok
    _verdict("7 KMS classification with negative controls (exact)", ok)


def test_criterion_08_block_level_cotransition_power():
    ok = True
    for level in (2, 3, 4):
        for nu in iter_signatures(level, -2, 2):
            ok = ok and check_f_compatibility(nu, HALF).ok

    rng = random.Random(80808)
    pool = list(iter_signatures(2, -2, 2)) + list(iter_signatures(3, -2, 2))
    for _ in range(50):
        nu = rng.choice(pool)
        below = list(enumerate_down(nu))
        x = random_block_element(nu.level - 1, HALF, below, rng)
        lhs = char_state_eval(indecomposable(nu, HALF), embed(x, [nu]))
        rhs = sum(
            p * char_state_eval(indecomposable(lam, HALF), x)
            for lam, p in cotransition(nu, HALF).items()
        )
        ok = ok and lhs == rhs
    _verdict("8 block-level cotransition power and embedding consistency", ok)


def _torus_bound_holds(chi, rng, trials: int) -> bool:
    n = chi.level
    ok = abs(sgf_eval_torus(chi, [1.0] * n) - 1) <= 1e-12
    for _ in range(trials):
        z = [cmath.exp(2j * cmath.pi * rng.random()) for _ in range(n)]
        ok = ok and abs(sgf_eval_torus(chi, z)) <= 1 + 1e-12
    return ok


def test_criterion_09_torus_bound():
    rng = random.Random(90909)
    ok = True
    for idx in range(20):
        chi = random_character(idx % 3 + 1, HALF, rng)
        ok = ok and _torus_bound_holds(chi, rng, 1000)
    # q near 1, where the scaled torus is nearly the unit torus
    for q in (Fraction(9, 10), Fraction(99, 100), Fraction(999, 1000)):
        for level in range(1, 7):
            for _ in range(4):
                chi = random_character(level, q, rng, lo=-3, hi=3)
                ok = ok and _torus_bound_holds(chi, rng, 100)
    _verdict("9 torus bound |S| <= 1 + 1e-12 and S(1,...,1) = 1", ok)


def test_criterion_10_lr_oracle_equivalence():
    ok = True
    for level in (1, 2, 3):
        sigs = list(iter_signatures(level, 0, 2))
        for lam in sigs:
            for mu in sigs:
                ok = ok and lr_coefficients(lam, mu) == lr_by_subtraction(lam, mu)
    _verdict("10 LR tableau rule equals monomial-expansion oracle", ok)
