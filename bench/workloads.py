"""Seeded operation streams for the four benchmark workloads.

Every workload is a closed loop with one client: the next op is issued only
after the previous one has returned.  All inputs are built here, from the
seed alone, before the timed loop; the program under test only ever sees
the finished inputs.  Op i depends only on the seed and on i, so runs of
different lengths share their prefix and the committed goldens stay valid.

Kinds are issued in shuffled rounds (each slot of a round exactly once) so
that the cost mix of a run does not drift with the seed; only the inputs
inside each slot vary.

Each kind is a ``Kind(name, make, run, check, payload)``:

* ``make(rng)`` returns ``(key, args)``: a canonical hashable description
  of the input (used for repeat counting and input digests) and the
  materialised arguments;
* ``run(*args)`` is the timed call into the program;
* ``check(args, result)`` returns ``None`` when the result is right, or a
  ``Problem`` naming what is wrong; it runs outside the timed span;
* ``payload(args, result)`` returns the JSON document whose sha256 is the
  op digest, or ``None`` for results that are not exact (floats).
"""

import cmath
import contextlib
import functools
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

from qchar import blocks, boundary, characters, cli, jsonio, schur
from qchar.blocks import BlockElement
from qchar.characters import LevelCharacter
from qchar.combinatorics import BoundaryParam, Signature

TORUS_BOUND = 1e-12


@dataclass(frozen=True)
class Problem:
    """A failed output check.  ``known`` names the documented defect it
    belongs to; an unnamed problem makes the whole run incorrect."""

    message: str
    known: str | None = None


@dataclass(frozen=True)
class Kind:
    name: str
    make: Callable
    run: Callable
    check: Callable
    payload: Callable


@dataclass(frozen=True)
class Op:
    index: int
    kind: Kind
    key: tuple
    args: tuple


# ---------------------------------------------------------------- helpers


def _dim(parts) -> int:
    """Weyl dimension formula, independent of the program's `dimension`."""
    num = den = 1
    n = len(parts)
    for i in range(n):
        for j in range(i + 1, n):
            num *= parts[i] - parts[j] + j - i
            den *= j - i
    return num // den


def _signature(rng, level, lo, hi, max_dim=None) -> Signature:
    while True:
        parts = tuple(sorted((rng.randint(lo, hi) for _ in range(level)), reverse=True))
        if max_dim is None or _dim(parts) <= max_dim:
            return Signature(parts)


def _below(parts) -> list[tuple]:
    """Signatures interlacing below `parts`, computed here, not by the program."""
    ranges = [range(parts[k + 1], parts[k] + 1) for k in range(len(parts) - 1)]
    return list(product(*ranges))


def _weights(rng, n) -> list[Fraction]:
    raw = [rng.randint(1, 9) for _ in range(n)]
    return [Fraction(r, sum(raw)) for r in raw]


def _character(rng, level, q, size, lo, hi, max_dim=None) -> LevelCharacter:
    sigs = sorted({_signature(rng, level, lo, hi, max_dim) for _ in range(size)}, key=lambda s: s.parts)
    return LevelCharacter(level, q, dict(zip(sigs, _weights(rng, len(sigs)))))


def _char_key(chi: LevelCharacter) -> tuple:
    return (chi.level, str(chi.q)) + tuple((s.parts, str(w)) for s, w in sorted(chi.weights.items(), key=lambda kv: kv[0].parts))


# entries of random block matrices: 0 with probability 0.6 + 0.4/7, else
# uniform on -3..3 (a sparse integer matrix of density 0.4)
_ENTRIES = (-3, -2, -1, 0, 1, 2, 3)
_ENTRY_WEIGHTS = (0.4 / 7,) * 3 + (0.6 + 0.4 / 7,) + (0.4 / 7,) * 3


def _matrix(rng, d) -> tuple:
    flat = rng.choices(_ENTRIES, _ENTRY_WEIGHTS, k=d * d)
    return tuple(tuple(flat[i * d:(i + 1) * d]) for i in range(d))


def block_element(rng, level, q, sigs) -> BlockElement:
    return BlockElement(level, q, {s: _matrix(rng, _dim(s.parts)) for s in sigs})


def _block_key(x: BlockElement) -> tuple:
    return tuple((s.parts, m) for s, m in sorted(x.blocks.items(), key=lambda kv: kv[0].parts))


def _unit(level, q, sig, d, row, col) -> BlockElement:
    rows = [[0] * d for _ in range(d)]
    rows[row][col] = 1
    return BlockElement(level, q, {sig: rows})


def _f_exponents(parts) -> list[int]:
    """F exponents of the patterns of `parts` in the program's documented
    canonical order: grouped by the row below the top, larger rows first."""
    n = len(parts)

    def rows(top):
        if len(top) == 1:
            yield (top,)
            return
        for lam in reversed(_below(top)):
            for sub in rows(lam):
                yield sub + (top,)

    out = []
    for pattern in rows(tuple(parts)):
        sums = [sum(r) for r in pattern]
        w = [sums[0]] + [sums[k] - sums[k - 1] for k in range(1, n)]
        out.append(sum((n - 1 - 2 * i) * w[i] for i in range(n)))
    return out


def _max_bits(values) -> int:
    best = 0
    for v in values:
        v = Fraction(v)
        best = max(best, abs(v.numerator).bit_length(), v.denominator.bit_length())
    return best


def _corollary_json(report) -> dict:
    return {
        "pass": report.ok,
        "lhs": jsonio.character_to_json(report.tensored),
        "rhs": jsonio.character_to_json(report.shifted),
        "gap": jsonio.format_scalar(report.gap),
        "discrepancy": None if report.discrepancy is None else list(report.discrepancy.parts),
    }


def _mass_problem(chi: LevelCharacter, level: int) -> Problem | None:
    if chi.level != level:
        return Problem(f"level {chi.level}, expected {level}")
    if sum(chi.weights.values()) != 1 or any(w <= 0 for w in chi.weights.values()):
        return Problem("measure is not a probability measure")
    return None


# --------------------------------------------------------------- boundary
#
# extreme_character, cauchy_gap and verify_corollary at levels 1-3 and
# truncations up to 10: iterated restrict -> cotransition -> qdim and the
# growth of exact rationals carry the cost; the block layer is idle.
#
# The cost of a pushdown spans four decades over random parameters, which
# would make the median op a matter of luck.  Each op is therefore sized to
# a work budget: the truncation is the largest one whose pushed support
# (counted here from the parameter alone) fits the budget, and parameters
# whose support stays below half the budget at every truncation are drawn
# again.

BOUNDARY_QS = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 5))
PUSH_BUDGET = 600


def _theta(rng) -> BoundaryParam:
    head = sorted(rng.randint(-3, 3) for _ in range(rng.randint(0, 5)))
    tail = rng.randint(head[-1] if head else -3, 3)
    return BoundaryParam(tuple(head), tail)


def _theta_key(theta: BoundaryParam) -> tuple:
    return (theta.head, theta.tail)


def _support_size(nu, level) -> int:
    """Signatures lam of the level with nu[i + L - level] <= lam[i] <= nu[i]:
    the support of a pushdown of the point mass at nu to that level."""
    prev = {nu[0] + 1: 1}
    for i in range(level):
        lo, hi = nu[i + len(nu) - level], nu[i]
        prev = {v: sum(c for p, c in prev.items() if p >= v) for v in range(lo, hi + 1)}
    return sum(prev.values())


@functools.lru_cache(maxsize=None)
def _push_work(theta, level, trunc) -> int:
    nu = theta.signature_at(trunc).parts
    return sum(ell * _support_size(nu, ell) for ell in range(level, trunc + 1))


def _boundary_args(rng, level, max_trunc, budget):
    """A parameter, level, truncation and q whose pushdown fits the budget;
    the work grows with the truncation, so the first overrun ends the scan."""
    while True:
        theta = _theta(rng)
        if 2 * _push_work(theta, level, max_trunc) < budget:
            continue
        trunc = level
        while trunc < max_trunc and _push_work(theta, level, trunc + 1) <= budget:
            trunc += 1
        if trunc > level and 2 * _push_work(theta, level, trunc) >= budget:
            return theta, level, trunc, rng.choice(BOUNDARY_QS)


def _make_extreme(level):
    def make(rng):
        theta, n, trunc, q = _boundary_args(rng, level, 10, PUSH_BUDGET)
        return ("extreme", _theta_key(theta), n, trunc, str(q)), (theta, n, trunc, q)

    return make


def _check_extreme(args, approx):
    theta, n, trunc, _ = args
    bad = _mass_problem(approx.measure, n)
    if bad:
        return bad
    if len(approx.measure.weights) != _support_size(theta.signature_at(trunc).parts, n):
        return Problem("support differs from the interlacing range of the parameter")
    return None


def _make_gap(level):
    def make(rng):
        theta, n, trunc, q = _boundary_args(rng, level, 9, PUSH_BUDGET // 2)
        return ("gap", _theta_key(theta), n, trunc, str(q)), (theta, n, trunc, q)

    return make


def _check_gap(args, gap):
    if not 0 <= gap <= 1:
        return Problem(f"total variation {gap} outside [0, 1]")
    return None


def _make_corollary(level):
    def make(rng):
        theta, n, trunc, q = _boundary_args(rng, level, 10, PUSH_BUDGET // 2)
        k = rng.randint(-2, 2)
        return ("corollary", _theta_key(theta), k, n, trunc, str(q)), (theta, k, n, trunc, q)

    return make


def _check_corollary(args, report):
    if not report.ok or report.gap != 0 or report.discrepancy is not None:
        return Problem(f"determinant absorption failed: gap {report.gap}")
    return _mass_problem(report.tensored, args[2])


BOUNDARY = [
    Kind(f"{name}_n{n}", make(n), run, check, payload)
    for name, make, run, check, payload in (
        ("extreme", _make_extreme, boundary.extreme_character, _check_extreme,
         lambda a, r: jsonio.approximant_to_json(r)),
        ("gap", _make_gap, boundary.cauchy_gap, _check_gap,
         lambda a, r: jsonio.format_scalar(r)),
        ("corollary", _make_corollary, boundary.verify_corollary, _check_corollary,
         lambda a, r: _corollary_json(r)),
    )
    for n in (1, 2, 3)
]


def boundary_result_bits(result) -> int:
    """Largest numerator or denominator bit length in a boundary result."""
    if isinstance(result, Fraction):
        return _max_bits([result])
    if hasattr(result, "measure"):
        return _max_bits(result.measure.weights.values())
    return _max_bits(
        list(result.tensored.weights.values()) + list(result.shifted.weights.values()) + [result.gap]
    )


# ----------------------------------------------------------------- blocks
#
# One op is one check session on a level-3 state: kms_check on a random
# pair with blocks up to d = 27 plus a negative control, the scaling group
# law, embed + char_state_eval consistency, check_f_compatibility at level
# 2, 3 or 4, and decompose_state on an accepted (F-diagonal) and a rejected
# (identity) density.  Fraction matrix products, q-power tables and the
# O(d^4) PSD test carry the cost; restrict is idle.  Block sizes are drawn
# inside work bands (sum of d^3 for the products, of d^4 for the PSD test)
# wide enough that session costs spread smoothly over a decade: a workload
# whose ops all cost the same has a median that jumps whenever the host's
# speed does.

BLOCK_QS = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 5))
KMS_BAND = (500, 22000)  # blocks of side 8 to 27
PSD_BAND = (80, 5000)  # blocks of side 3 to 8


def _sigs_in_band(rng, level, band, power, lo, hi) -> list[Signature]:
    while True:
        sigs = {_signature(rng, level, lo, hi) for _ in range(rng.randint(1, 2))}
        sigs = sorted((s for s in sigs if _dim(s.parts) > 1), key=lambda s: s.parts)
        if band[0] <= sum(_dim(s.parts) ** power for s in sigs) <= band[1]:
            return sigs


def _densities(q, mass, accept):
    """Blockwise densities with the given block traces: F-diagonal ones
    (which decompose_state accepts) or identity ones (which it rejects)."""
    dens = {}
    for sig, w in mass.items():
        diag = [q ** e for e in _f_exponents(sig.parts)] if accept else [Fraction(1)] * _dim(sig.parts)
        scale = w / sum(diag)
        d = len(diag)
        dens[sig] = tuple(tuple(diag[i] * scale if i == j else 0 for j in range(d)) for i in range(d))
    return dens


def _make_session(fcompat_level):
    def make(rng):
        q = rng.choice(BLOCK_QS)
        sigs = _sigs_in_band(rng, 3, KMS_BAND, 3, -3, 3)
        chi = LevelCharacter(3, q, dict(zip(sigs, _weights(rng, len(sigs)))))
        x, y = block_element(rng, 3, q, sigs), block_element(rng, 3, q, sigs)
        # negative control: matrix units between the highest and lowest
        # weight patterns of a block, whose F eigenvalues differ
        d = _dim(sigs[-1].parts)
        u, v = _unit(3, q, sigs[-1], d, 0, d - 1), _unit(3, q, sigs[-1], d, d - 1, 0)
        s, t = rng.randint(-3, 3), rng.randint(-3, 3)
        below = sorted({lam for nu in sigs for lam in _below(nu.parts)}, reverse=True)
        low = block_element(rng, 2, q, [Signature(p) for p in below])
        nu = _signature(rng, fcompat_level, -2, 2, max_dim=64)
        dsigs = _sigs_in_band(rng, 3, PSD_BAND, 4, -2, 2)
        mass = dict(zip(dsigs, _weights(rng, len(dsigs))))
        key = ("session", _char_key(chi), _block_key(x), _block_key(y), s, t, _block_key(low),
               nu.parts, tuple((sig.parts, str(w)) for sig, w in mass.items()))
        args = (chi, x, y, u, v, s, t, low, nu, _densities(q, mass, True), _densities(q, mass, False), mass)
        return key, args

    return make


def _run_session(chi, x, y, u, v, s, t, low, nu, accept, reject, mass):
    q = chi.q
    return {
        "kms": blocks.kms_check(chi, x, y),
        "kms_units": blocks.kms_check(chi, u, v),
        "tracial": blocks.char_state_eval(chi, u @ v) == blocks.char_state_eval(chi, v @ u),
        "scaled": blocks.scaling(blocks.scaling(x, s), t),
        "scaled_once": blocks.scaling(x, s + t),
        "embedded": blocks.char_state_eval(chi, blocks.embed(low, chi.support())),
        "fcompat": blocks.check_f_compatibility(nu, q),
        "accept": blocks.decompose_state(accept, q),
        "reject": blocks.decompose_state(reject, q),
    }


def _check_session(args, r):
    chi, low, mass = args[0], args[7], args[11]
    if not (r["kms"] and r["kms_units"]):
        return Problem("KMS identity rejected")
    if r["tracial"]:
        return Problem("negative control passed: the state looks tracial")
    if r["scaled"].blocks != r["scaled_once"].blocks:
        return Problem("scaling group law violated")
    # the state of an embedded element is the restricted state of the element
    if r["embedded"] != blocks.char_state_eval(characters.restrict(chi), low):
        return Problem("state of the embedding differs from the restricted state")
    if not r["fcompat"].ok:
        return Problem(f"F restriction mismatch at {r['fcompat'].sig}")
    if not r["accept"].ok or r["accept"].coefficients != mass:
        return Problem(f"F-diagonal density not decomposed into its traces: {r['accept'].reason}")
    if r["reject"].ok:
        return Problem("negative control accepted: identity density")
    return None


def _session_json(args, r):
    return {
        "verdicts": [r["kms"], r["kms_units"], r["tracial"], r["fcompat"].ok, r["accept"].ok, r["reject"].ok],
        "scaled": jsonio.block_to_json(r["scaled"]),
        "embedded": jsonio.format_scalar(r["embedded"]),
        "coefficients": [[list(s.parts), jsonio.format_scalar(c)] for s, c in r["accept"].coefficients.items()],
        "reason": r["reject"].reason,
    }


def _matrix_json(m) -> list:
    return [[jsonio.format_scalar(v) for v in row] for row in m]


BLOCKS = [Kind(f"session_f{n}", _make_session(n), _run_session, _check_session, _session_json) for n in (2, 3, 4)]


# ----------------------------------------------------------------- fusion
#
# One op is one fusion session: tensor of two seeded characters at level
# 2, 3 or 4 with the product theorem checked at seeded rational points,
# lr_coefficients of two signatures of that level, and the float torus
# pairing of a character in one of fifteen cells, level 1-5 by q in
# {1/2, 9/10, 99/100}.  A round covers every cell once; the tensor level and
# whether the exact points coincide (which takes the pattern-sum fallback)
# are fixed per cell, so every round has the same mix.  This is the only
# workload where the Schur evaluators and the float path carry the load; in
# the others qdim is served from cache.

FUSION_QS = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 5))
TORUS_QS = (Fraction(1, 2), Fraction(9, 10), Fraction(99, 100))


def _points(rng, n, coincide) -> tuple:
    pts = [Fraction(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 9)) for _ in range(n)]
    if coincide:
        i, j = rng.sample(range(n), 2)
        pts[j] = pts[i]
    return tuple(pts)


def _make_fusion(level, coincide, torus_level, torus_q):
    def make(rng):
        q = rng.choice(FUSION_QS)
        a = _character(rng, level, q, rng.randint(1, 3), -1 if level == 4 else -2, 1 if level == 4 else 2)
        b = _character(rng, level, q, rng.randint(1, 2), -1, 1)
        pts = _points(rng, level, coincide)
        lam, mu = _signature(rng, level, -2, 3), _signature(rng, level, -1, 2)
        chi = _character(rng, torus_level, torus_q, rng.randint(1, 3), -3, 3)
        z = tuple(cmath.exp(2j * math.pi * rng.random()) for _ in range(torus_level))
        key = ("fusion", _char_key(a), _char_key(b), tuple(map(str, pts)), lam.parts, mu.parts,
               _char_key(chi), tuple((w.real, w.imag) for w in z))
        return key, (a, b, pts, lam, mu, chi, z)

    return make


def _run_fusion(a, b, pts, lam, mu, chi, z):
    c = characters.tensor(a, b)
    return {
        "tensor": c,
        "sgf": [characters.sgf_eval(x, pts) for x in (a, b, c)],
        "lr": schur.lr_coefficients(lam, mu),
        "torus": (characters.sgf_eval_torus(chi, (1,) * chi.level), characters.sgf_eval_torus(chi, z)),
    }


def torus_error(result) -> float:
    """Distance past the torus bound: |S(1..1) - 1| and |S(z)| - 1."""
    at_one, at_z = result["torus"]
    return max(abs(at_one - 1), abs(at_z) - 1, 0.0)


def _check_fusion(args, r):
    a, lam, mu, chi = args[0], args[3], args[4], args[5]
    bad = _mass_problem(r["tensor"], a.level)
    if bad:
        return bad
    va, vb, vc = r["sgf"]
    if vc != va * vb:
        return Problem("product theorem fails at an exact point")
    coeffs = r["lr"]
    if any(c <= 0 for c in coeffs.values()) or (
        sum(c * _dim(nu.parts) for nu, c in coeffs.items()) != _dim(lam.parts) * _dim(mu.parts)
    ):
        return Problem("LR expansion does not preserve dimension")
    err = torus_error(r)
    if err > TORUS_BOUND:
        message = f"torus bound broken by {err:.3g} at level {chi.level}, q = {chi.q}"
        # documented defect: the float bialternant loses accuracy as q -> 1
        return Problem(message, known="torus-near-q1" if chi.q >= Fraction(9, 10) else None)
    return None


def _fusion_json(args, r):
    # the float torus values are left out: only exact results have goldens
    return {
        "tensor": jsonio.character_to_json(r["tensor"]),
        "sgf": [jsonio.format_scalar(v) for v in r["sgf"]],
        "lr": [[list(s.parts), c] for s, c in sorted(r["lr"].items(), key=lambda kv: kv[0].parts)],
    }


# cell (n, i): torus level n + 1 at TORUS_QS[i]; tensor levels and
# coincident points are spread as a Latin square over the cells
FUSION = [
    Kind(f"fusion_t{n + 1}_q{q.denominator}",
         _make_fusion(2 + (n + i) % 3, (n + 2 * i) % 3 == 0, n + 1, q),
         _run_fusion, _check_fusion, _fusion_json)
    for n in range(5) for i, q in enumerate(TORUS_QS)
]


# -------------------------------------------------------------------- cli
#
# One fresh `python -m qchar.cli` per request over all 16 subcommands with
# small inputs, inline or as @path; one request in seventeen is malformed
# and must exit 2 with a JSON error.  Each request pays for interpreter
# start-up, `import qchar`, cold caches, argparse and jsonio.

CLI_QS = ("1/2", "2/3", "3/5")


def _dump(data) -> str:
    return json.dumps(data, separators=(",", ":"))


def _sig_json(sig: Signature) -> str:
    return _dump(list(sig.parts))


def _cotransition_family(rng, q_text):
    """Two-level coherent family: a point mass at (a, b) and its cotransition
    row, computed in closed form here rather than by the program."""
    q = Fraction(q_text)
    b = rng.randint(-2, 1)
    a = rng.randint(b, 2)
    bracket = (q ** (a - b + 1) - q ** (b - a - 1)) / (q - 1 / q)
    row = [{"sig": [c], "prob": jsonio.format_scalar(q ** (2 * c - a - b) / bracket)} for c in range(b, a + 1)]
    top = {"level": 2, "q": q_text, "entries": [{"sig": [a, b], "prob": "1"}]}
    return {"q": q_text, "levels": [{"level": 1, "q": q_text, "entries": row}, top]}


def _small_char(rng, level, q_text):
    return jsonio.character_to_json(_character(rng, level, Fraction(q_text), rng.randint(1, 2), -1, 2))


def _small_block(rng, level, q_text, sigs):
    return jsonio.block_to_json(block_element(rng, level, Fraction(q_text), sigs))


def _cli_request(rng, command):
    """argv and expected exit code of one well-formed request."""
    q = rng.choice(CLI_QS)
    level = rng.randint(1, 3)
    sig = _signature(rng, level, -2, 2)
    code = 0
    if command == "qdim":
        argv = ["--q", q, "--sig", _sig_json(sig)]
    elif command == "schur-eval":
        pts = _points(rng, level, level > 1 and rng.random() < 0.3)
        argv = ["--sig", _sig_json(sig), "--points", _dump([jsonio.format_scalar(p) for p in pts])]
    elif command == "lr":
        argv = ["--left", _sig_json(sig), "--right", _sig_json(_signature(rng, level, -1, 2))]
    elif command == "cotransition":
        argv = ["--q", q, "--sig", _sig_json(sig)]
    elif command == "restrict":
        argv = ["--char", _dump(_small_char(rng, level, q))]
    elif command == "tensor":
        argv = ["--left", _dump(_small_char(rng, level, q)), "--right", _dump(_small_char(rng, level, q))]
    elif command == "sgf-eval":
        pts = _points(rng, level, level > 1 and rng.random() < 0.3)
        argv = ["--char", _dump(_small_char(rng, level, q)), "--points",
                _dump([jsonio.format_scalar(p) for p in pts])]
    elif command == "sgf-torus":
        z = [[math.cos(t), math.sin(t)] for t in (2 * math.pi * rng.random() for _ in range(level))]
        argv = ["--char", _dump(_small_char(rng, level, q)), "--z", _dump(z)]
    elif command == "coherent-check":
        argv = ["--family", _dump(_cotransition_family(rng, q))]
    elif command in ("extreme", "verify-corollary"):
        theta = _theta(rng)
        n = rng.randint(1, 2)
        argv = ["--q", q, "--theta", _dump(jsonio.theta_to_json(theta)),
                "--level", str(n), "--trunc", str(rng.randint(n, 4))]
        if command == "verify-corollary":
            argv += ["--k", str(rng.randint(-2, 2))]
    elif command == "ak":
        if rng.random() < 0.5:
            argv = ["--k", str(rng.randint(-2, 2)), "--theta", _dump(jsonio.theta_to_json(_theta(rng)))]
        else:
            argv = ["--k", str(rng.randint(-2, 2)), "--char", _dump(_small_char(rng, level, q))]
    elif command == "kms-check":
        level = rng.randint(2, 3)
        chi = _character(rng, level, Fraction(q), 1, -1, 1, max_dim=8)
        argv = ["--state", _dump(jsonio.character_to_json(chi))]
        if rng.random() < 0.5:
            argv += ["--trials", str(rng.randint(1, 3)), "--seed", str(rng.randint(0, 99))]
        else:
            argv += ["--x", _dump(_small_block(rng, level, q, chi.weights)),
                     "--y", _dump(_small_block(rng, level, q, chi.weights))]
    elif command == "f-compat":
        argv = ["--q", q, "--sig", _sig_json(_signature(rng, rng.randint(2, 3), -2, 2))]
    elif command == "decompose":
        accept = rng.random() < 0.5
        sigs = _sigs_in_band(rng, rng.randint(2, 3), (16, 300), 4, -2, 2)
        dens = _densities(Fraction(q), dict(zip(sigs, _weights(rng, len(sigs)))), accept)
        data = {"level": next(iter(dens)).level, "q": q,
                "blocks": [{"sig": list(s.parts), "matrix": _matrix_json(m)} for s, m in dens.items()]}
        argv = ["--densities", _dump(data)]
        code = 0 if accept else 1
    elif command == "embed":
        nu = _signature(rng, 2, -1, 2)
        below = [Signature(p) for p in _below(nu.parts)]
        argv = ["--block", _dump(_small_block(rng, 1, q, below)), "--targets", _dump([list(nu.parts)])]
    else:
        raise AssertionError(command)
    return [command] + argv, code


CLI_COMMANDS = (
    "qdim", "schur-eval", "lr", "cotransition", "restrict", "tensor", "sgf-eval",
    "sgf-torus", "coherent-check", "extreme", "ak", "verify-corollary",
    "kms-check", "f-compat", "decompose", "embed",
)

# (name, argv, known defect or None); each must exit 2 with a JSON error
CLI_MALFORMED = (
    ("q-out-of-range", ["qdim", "--q", "3/2", "--sig", "[1,0]"], None),
    ("bad-json", ["lr", "--left", "[1,0", "--right", "[1,0]"], None),
    ("increasing-sig", ["cotransition", "--q", "1/2", "--sig", "[0,2]"], None),
    ("theta-head-above-tail", ["extreme", "--q", "1/2", "--theta", '{"head":[3],"tail":1}',
                               "--level", "1", "--trunc", "2"], None),
    ("entries-not-objects", ["restrict", "--char", '{"level":1,"q":"1/2","entries":[[1]]}'], "cli-traceback"),
    ("entries-missing-prob", ["restrict", "--char", '{"level":1,"q":"1/2","entries":[{"sig":[0]}]}'], "cli-traceback"),
    ("negative-trials", ["kms-check", "--state", '{"level":1,"q":"1/2","entries":[{"sig":[0],"prob":"1"}]}',
                         "--trials", "-3"], "cli-nonpositive-count"),
)


def _inline_or_path(rng, argv, files, serial):
    """Move each JSON argument to an @path file with probability 1/2."""
    out = []
    for tok in argv:
        if tok[:1] in "[{" and rng.random() < 0.5 and files is not None:
            path = os.path.join(files, f"{serial}-{len(out)}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(tok)
            tok = "@" + path
        out.append(tok)
    return out


@dataclass(frozen=True)
class Reply:
    code: int
    stdout: bytes
    peak_rss_kb: int = 0


def spawn(argv, env) -> Reply:
    """Run one request in a fresh interpreter and wait for it to exit."""
    with open(os.devnull, "wb") as devnull:
        proc = subprocess.Popen([sys.executable, "-m", "qchar.cli"] + argv,
                                stdout=subprocess.PIPE, stderr=devnull, env=env)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Reply(proc.returncode, out, usage.ru_maxrss)


def in_process(argv) -> Reply:
    """Run one request through `cli.main` in this process, capturing stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught error is exit status 1 in a real process
            code = 1
    return Reply(code, buf.getvalue().encode())


def check_cli(args, reply, expected_reply=None):
    argv, code, malformed, defect = args
    if malformed:
        try:
            ok = reply.code == 2 and "error" in json.loads(reply.stdout)
        except ValueError:
            ok = False
        if not ok:
            return Problem(f"malformed request {argv[0]} exited {reply.code} without a JSON error",
                           known=defect)
        return None
    if reply.code != code:
        return Problem(f"{argv[0]} exited {reply.code}, expected {code}")
    if expected_reply is not None and reply.stdout != expected_reply.stdout:
        return Problem(f"{argv[0]} stdout differs from the in-process result")
    return None


def _cli_payload(args, reply):
    argv, code, malformed, _ = args
    if malformed or argv[0] == "sgf-torus":
        return None
    return {"code": reply.code, "stdout": reply.stdout.decode()}


def generate_cli(seed: int, count: int, files: str | None) -> list[Op]:
    rng = random.Random(f"cli:{seed}")
    ops = []
    malformed = []
    while len(ops) < count:
        round_ = list(CLI_COMMANDS) + ["*"]
        rng.shuffle(round_)
        for command in round_:
            if command == "*":
                if not malformed:
                    malformed = list(CLI_MALFORMED)
                    rng.shuffle(malformed)
                name, argv, known = malformed.pop()
                args = (argv, 2, True, known)
                key = ("malformed", name)
            else:
                argv, code = _cli_request(rng, command)
                key = tuple(argv)
                args = (_inline_or_path(rng, argv, files, len(ops)), code, False, None)
            ops.append(Op(len(ops), CLI_KIND, key, args))
    return ops[:count]


CLI_KIND = Kind("request", None, None, check_cli, _cli_payload)


# ---------------------------------------------------------------- registry


WORKLOADS = {"boundary": BOUNDARY, "blocks": BLOCKS, "fusion": FUSION, "cli": None}


def generate(workload: str, seed: int, count: int, files: str | None = None) -> list[Op]:
    """The first `count` ops of the workload's stream for `seed`."""
    if workload == "cli":
        return generate_cli(seed, count, files)
    kinds = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    while len(ops) < count:
        round_ = list(kinds)
        rng.shuffle(round_)
        for kind in round_:
            key, args = kind.make(rng)
            ops.append(Op(len(ops), kind, key, args))
    return ops[:count]
