"""Batch command-line front end; JSON in, JSON out.

Every command reads exact scalars as "p/q" strings and prints one JSON
document to stdout (or --output).  Exit status: 0 on success, a passing
check or help, 1 when a verification command finds a violation, 2 on usage
or domain errors.  Every exit 2 writes one JSON error to stdout and nothing
to stderr (argparse's usage errors, among them an unknown flag, a flag
without its value, `--trunc inf` and a missing or unknown subcommand, a
`--z` integer coordinate beyond the float range, a signature part or
boundary parameter entry beyond `jsonio.MAX_PART` in a document read or
about to be printed, an approximant whose weights provably exceed Python's
int-to-str digit limit, refused before the work, an `--output` path that
cannot be written, a request deeper than Python's recursion limit and one
that runs out of memory included).
Help (`--help` or `-h`, for qchar or for one subcommand) is a reply too:
it is printed to stdout at a fixed 78 columns, the width argparse gives a
pipe, whatever `COLUMNS` says, and `main` returns 0.  Identical flags and
seed produce byte-identical output, help included.

Structured arguments (--char, --block, ...) take either inline JSON or
@path to read a file.

Each handler imports the layer (characters, boundary or blocks) it calls,
so a request loads only what its subcommand uses: `blocks` itself loads
only `combinatorics` and `schur`, so `f-compat`, `decompose` and `embed`
load neither `characters` nor `boundary`.  Likewise a request builds only
the parser of the subcommand it names; `qchar`, `qchar --help` and an
unknown subcommand go through the parser of all 16 subcommands.

`qchar` and `python -m qchar.cli` enter through `run`, never `main`
directly: `run` calls `main` and, once the reply is written, moves every
live object into the collector's permanent generation with `gc.freeze()`
before the process exits.  The exit-time collections then skip every
object that `site`, argparse, json, fractions and the qchar layers left
alive, which nothing will use again: the teardown of a `qdim` request
took 7.2 -> 2.0 ms of about 55 ms on a 2-core x86-64 VM (README, "CLI").
`main` never freezes, so in-process callers (tests, library users) keep
their collector as it was.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from typing import TYPE_CHECKING

from . import jsonio, schur
from .combinatorics import Signature
from .schur import check_q

if TYPE_CHECKING:
    from .blocks import BlockElement
    from .characters import LevelCharacter


def _json_arg(text: str):
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON argument: {exc}") from None
    except RecursionError:
        raise ValueError("malformed JSON argument: nested too deeply") from None


def _q_arg(text: str):
    return check_q(jsonio.parse_scalar(text))


def _sig_arg(text: str) -> Signature:
    return jsonio.signature_from_json(_json_arg(text))


def _char_arg(text: str) -> LevelCharacter:
    return jsonio.character_from_json(_json_arg(text))


def _block_arg(text: str) -> BlockElement:
    return jsonio.block_from_json(_json_arg(text))


def _list_arg(text: str, item, message: str) -> list:
    """A JSON array read by `item` element by element; `message` if not an array."""
    data = _json_arg(text)
    if not isinstance(data, list):
        raise ValueError(message)
    return [item(x) for x in data]


def _points_arg(text: str) -> list:
    return _list_arg(text, jsonio.parse_scalar, "points are a JSON array of 'p/q' strings")


_TORUS_POINTS = "torus points are a JSON array of [re, im] pairs"


def _torus_pair(z) -> list:
    # json.loads gives exact types, so this refuses a bool
    if isinstance(z, list) and len(z) == 2 and all(type(v) in (int, float) for v in z):
        return z
    raise ValueError(_TORUS_POINTS)


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_qdim(args):
    value = schur.qdim(_sig_arg(args.sig), _q_arg(args.q))
    return 0, {"value": jsonio.format_scalar(value)}


def _cmd_schur_eval(args):
    value = schur.schur_eval(_sig_arg(args.sig), _points_arg(args.points))
    return 0, {"value": jsonio.format_scalar(value)}


def _cmd_lr(args):
    coeffs = schur.lr_coefficients(_sig_arg(args.left), _sig_arg(args.right))
    return 0, {"terms": jsonio.entries_to_json(coeffs, "coeff", int)}


def _cmd_cotransition(args):
    from . import characters

    rows = characters.cotransition(_sig_arg(args.sig), _q_arg(args.q))
    return 0, {"rows": jsonio.entries_to_json(rows, "prob")}


def _cmd_restrict(args):
    from . import characters

    chi = characters.restrict(_char_arg(args.char))
    return 0, jsonio.character_to_json(chi)


def _cmd_tensor(args):
    from . import characters

    left, right = _char_arg(args.left), _char_arg(args.right)
    schur._check_operands(left, right)
    # the product's extreme parts, exact because the term lam + mu always has
    # a positive weight: the limit is decided before the work it bounds
    if left.level:
        top = max(s.parts[0] for s in left.weights) + max(s.parts[0] for s in right.weights)
        bottom = min(s.parts[-1] for s in left.weights) + min(s.parts[-1] for s in right.weights)
        jsonio.check_parts([top, bottom], "product signature part")
    return 0, jsonio.character_to_json(characters.tensor(left, right))


def _cmd_sgf_eval(args):
    from . import characters

    value = characters.sgf_eval(_char_arg(args.char), _points_arg(args.points))
    return 0, {"value": jsonio.format_scalar(value)}


def _cmd_sgf_torus(args):
    from . import characters

    chi = _char_arg(args.char)
    pairs = _list_arg(args.z, _torus_pair, _TORUS_POINTS)
    # every pair is checked, and then every coordinate, before any converts;
    # complex() refuses an int that rounds past the largest float
    if any(type(v) is int and abs(v) >= 2**1024 - 2**970 for z in pairs for v in z):
        raise ValueError("floating-point overflow: int too large to convert to float")
    value = characters.sgf_eval_torus(chi, [complex(*z) for z in pairs])
    return 0, {
        "value": {"re": value.real, "im": value.imag},
        "abs": abs(value),
    }


def _cmd_coherent_check(args):
    from . import characters

    family = jsonio.family_from_json(_json_arg(args.family))
    report = characters.is_coherent(family)
    violation = None
    if not report.ok:
        violation = {
            "level": report.level,
            "sig": jsonio.signature_to_json(report.sig),
            "restricted_mass": jsonio.format_scalar(report.restricted_mass),
            "stored_mass": jsonio.format_scalar(report.stored_mass),
        }
    return (0 if report.ok else 1), {"pass": report.ok, "violation": violation}


def _cmd_extreme(args):
    from . import boundary

    theta, q = jsonio.theta_from_json(_json_arg(args.theta)), _q_arg(args.q)
    boundary.check_printable(theta, args.level, args.trunc, q)
    approx = boundary.extreme_character(theta, args.level, args.trunc, q)
    return 0, jsonio.approximant_to_json(approx)


def _cmd_ak(args):
    from . import boundary

    if (args.theta is None) == (args.char is None):
        raise ValueError("pass exactly one of --theta or --char")
    jsonio.check_parts([args.k], "--k")
    if args.theta is not None:
        shifted = boundary.ak_on_theta(jsonio.theta_from_json(_json_arg(args.theta)), args.k)
        return 0, jsonio.theta_to_json(shifted)
    return 0, jsonio.character_to_json(boundary.ak_on_measure(_char_arg(args.char), args.k))


def _cmd_verify_corollary(args):
    from . import boundary

    jsonio.check_parts([args.k], "--k")
    theta, q = jsonio.theta_from_json(_json_arg(args.theta)), _q_arg(args.q)
    # before the work: both printed characters live on the shifted parameter's parts
    shifted = boundary.ak_on_theta(theta, args.k)
    jsonio.check_parts(shifted.head + (shifted.tail,), "shifted boundary parameter entry")
    # the shift moves every entry alike, so one check covers both approximants
    boundary.check_printable(theta, args.level, args.trunc, q)
    report = boundary.verify_corollary(theta, args.k, args.level, args.trunc, q)
    payload = {
        "pass": report.ok,
        "lhs": jsonio.character_to_json(report.tensored),
        "rhs": jsonio.character_to_json(report.shifted),
        "gap": jsonio.format_scalar(report.gap),
        "discrepancy": (
            None
            if report.discrepancy is None
            else jsonio.signature_to_json(report.discrepancy)
        ),
    }
    return (0 if report.ok else 1), payload


def _cmd_kms_check(args):
    import random

    from . import blocks

    chi = _char_arg(args.state)
    if args.x is not None or args.y is not None:
        if args.x is None or args.y is None:
            raise ValueError("pass both --x and --y, or neither")
        x = _block_arg(args.x)
        y = _block_arg(args.y)
        lhs, rhs = blocks._kms_sides(chi, x, y)
        ok = lhs == rhs
        return (0 if ok else 1), {
            "pass": ok,
            "lhs": jsonio.format_scalar(lhs),
            "rhs": jsonio.format_scalar(rhs),
        }
    if args.trials < 1:
        raise ValueError(f"--trials must be a positive integer, got {args.trials}")
    rng = random.Random(args.seed)
    sigs = chi.support()
    first_failure = None
    for trial in range(args.trials):
        x = blocks.random_block_element(chi.level, chi.q, sigs, rng)
        y = blocks.random_block_element(chi.level, chi.q, sigs, rng)
        if not blocks.kms_check(chi, x, y):
            first_failure = trial
            break
    ok = first_failure is None
    return (0 if ok else 1), {
        "pass": ok,
        "trials": args.trials,
        "first_failure": first_failure,
    }


def _cmd_f_compat(args):
    from . import blocks

    report = blocks.check_f_compatibility(_sig_arg(args.sig), _q_arg(args.q))
    violation = None
    if not report.ok:
        violation = {
            "sig": jsonio.signature_to_json(report.sig),
            "index": report.index,
        }
    return (0 if report.ok else 1), {"pass": report.ok, "violation": violation}


def _cmd_decompose(args):
    from . import blocks

    carrier = _block_arg(args.densities)
    report = blocks.decompose_state(carrier.blocks, carrier.q)
    if report.ok:
        coeffs = jsonio.entries_to_json(report.coefficients, "coeff")
        return 0, {"accepted": True, "coefficients": coeffs}
    return 1, {"accepted": False, "reason": report.reason}


def _cmd_embed(args):
    from . import blocks

    x = _block_arg(args.block)
    targets = _list_arg(
        args.targets, jsonio.signature_from_json, "targets are a JSON array of signatures"
    )
    return 0, jsonio.block_to_json(blocks.embed(x, targets))


# Each subcommand once: name -> (help, {flag: keyword arguments of
# add_argument}).  Every subcommand also takes --output, first.  The handler
# of a subcommand is `_cmd_` followed by its name with "-" as "_", looked up
# when the request is dispatched.
_REQUIRED = {"required": True}
_REQUIRED_INT = {"type": int, "required": True}
_COMMANDS = {
    "qdim": ("quantum dimension of a signature", {"--q": _REQUIRED, "--sig": _REQUIRED}),
    "schur-eval": ("exact Schur evaluation", {"--sig": _REQUIRED, "--points": _REQUIRED}),
    "lr": (
        "Littlewood-Richardson expansion of a product",
        {"--left": _REQUIRED, "--right": _REQUIRED},
    ),
    "cotransition": ("stochastic cotransition row", {"--q": _REQUIRED, "--sig": _REQUIRED}),
    "restrict": ("push a character one level down", {"--char": _REQUIRED}),
    "tensor": ("tensor product of two characters", {"--left": _REQUIRED, "--right": _REQUIRED}),
    "sgf-eval": ("exact generating-function value", {"--char": _REQUIRED, "--points": _REQUIRED}),
    "sgf-torus": (
        "generating function on the torus",
        {
            "--char": _REQUIRED,
            "--z": {"required": True, "help": "JSON array of [re, im] unit-modulus pairs"},
        },
    ),
    "coherent-check": ("verify a coherent family", {"--family": _REQUIRED}),
    "extreme": (
        "finite-level extreme-character approximant",
        {
            "--q": _REQUIRED,
            "--theta": _REQUIRED,
            "--level": _REQUIRED_INT,
            "--trunc": _REQUIRED_INT,
        },
    ),
    "ak": (
        "shift a boundary parameter or pushforward a measure",
        {"--k": _REQUIRED_INT, "--theta": {}, "--char": {}},
    ),
    "verify-corollary": (
        "determinant absorption check",
        {
            "--q": _REQUIRED,
            "--theta": _REQUIRED,
            "--k": _REQUIRED_INT,
            "--level": _REQUIRED_INT,
            "--trunc": _REQUIRED_INT,
        },
    ),
    "kms-check": (
        "twisted-trace KMS identity check",
        {
            "--state": _REQUIRED,
            "--x": {},
            "--y": {},
            "--trials": {"type": int, "default": 50},
            "--seed": {"type": int, "default": 0},
        },
    ),
    "f-compat": ("F restriction versus cotransition power", {"--q": _REQUIRED, "--sig": _REQUIRED}),
    "decompose": (
        "classify a blockwise density",
        {"--densities": {"required": True, "help": "block-element JSON carrying the densities"}},
    ),
    "embed": (
        "embed a block element one level up",
        {
            "--block": _REQUIRED,
            "--targets": {"required": True, "help": "JSON array of target signatures"},
        },
    ),
}


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as `ValueError(message)` instead of printing it
    and exiting, and formats help at 78 columns, argparse's width for a pipe
    (80 - 2), so that help reads the same under any `COLUMNS`."""

    def __init__(self, **kw):
        super().__init__(formatter_class=lambda prog: argparse.HelpFormatter(prog, width=78), **kw)

    def error(self, message):
        raise ValueError(message)


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The qchar parser with every subcommand, or with only the one named.

    A usage error raises `ValueError` with argparse's message, which `main`
    answers as a JSON error; no usage line is printed, so a parser narrowed
    to `only` answers every request as the full parser does.
    """
    parser = _Parser(
        prog="qchar",
        description="Exact finite-level calculus of quantized characters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS if only is None else (only,):
        help_text, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--output", help="write the JSON result to this path")
        for flag, options in arguments.items():
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    """Reply to one request, help included, on stdout (or --output); return its exit code."""
    if argv is None:
        argv = sys.argv[1:]
    # a request builds only the subparser it names; no arguments, --help and
    # an unknown name go through the full parser
    named = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = build_parser(named).parse_args(argv)
        code, payload = globals()["_cmd_" + args.command.replace("-", "_")](args)
        _emit(jsonio.dumps(payload), args.output)
        return code
    except SystemExit:
        # argparse's help, printed in full: the one exit `_Parser` leaves it
        return 0
    except RecursionError:
        error = "input too large: maximum recursion depth exceeded"
    except MemoryError:
        error = "input too large: out of memory"
    except (ValueError, OSError) as exc:
        error = str(exc)
    # written after the handler, once the traceback and the frames it holds are freed
    _emit(jsonio.dumps({"error": error}), None)
    return 2


def run() -> None:
    """The process entry: `main`, which returns on every path, then freeze the
    collector after the reply and before teardown, and exit with `main`'s code."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
