"""JSON wire formats: exact scalars as "p/q" strings, signatures as integer
arrays, characters/block elements as sorted entry lists.

Parsing is strict and raises ValueError with a usable message; emitted
structures round-trip through the parsers bit for bit.  `entries_to_json`
writes and `_document` reads every signature-keyed entry list.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING

from .combinatorics import BoundaryParam, Signature

# the parsers import the layer they build when called, so a command loads
# only the layers it uses
if TYPE_CHECKING:
    from .blocks import BlockElement
    from .boundary import ExtremeApproximant
    from .characters import CoherentFamily, LevelCharacter


# Largest magnitude of a signature part, a boundary-parameter entry or a
# shift --k read from input.  Exact results carry powers of q whose
# exponents grow with the parts, so without a bound a request such as qdim
# at [10**11, 0] never finishes; README gives the reason for 1000.
MAX_PART = 1000


def check_parts(values, what: str) -> None:
    """Reject integers above MAX_PART in magnitude."""
    big = next((v for v in values if abs(v) > MAX_PART), None)
    if big is not None:
        raise ValueError(f"{what} {big} is beyond the input limit |v| <= {MAX_PART}")


def _is_int(v) -> bool:
    """JSON integers only: bool is an int subclass but not a number here."""
    return isinstance(v, int) and not isinstance(v, bool)


def _document(data, what: str, list_key: str, value_key: str, parse) -> tuple:
    """Level, q and {Signature: parse(value, sig)} map of a character or
    block-element document whose entries carry "sig" and `value_key`; a
    repeated signature is refused after its value parses."""
    if not isinstance(data, dict):
        raise ValueError(f"a {what} is a JSON object")
    try:
        level, q, entries = data["level"], parse_scalar(data["q"]), data[list_key]
    except KeyError as exc:
        raise ValueError(f"{what} is missing key {exc}") from None
    if not _is_int(level):
        raise ValueError(f"{what} level must be an integer, got {level!r}")
    if not isinstance(entries, list) or not all(
        isinstance(e, dict) and "sig" in e and value_key in e for e in entries
    ):
        raise ValueError(f'{what} entries are objects {{"sig": [...], "{value_key}": ...}}')
    values = {}
    for entry in entries:
        sig = signature_from_json(entry["sig"])
        value = parse(entry[value_key], sig)
        if sig in values:
            raise ValueError(f"{what} entries repeat the signature {signature_to_json(sig)}")
        values[sig] = value
    return level, q, values


def format_scalar(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_scalar(s) -> Fraction:
    if _is_int(s):
        return Fraction(s)
    if not isinstance(s, str):
        raise ValueError(f"exact scalars are 'p/q' strings, got {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad exact scalar {s!r}: {exc}") from None


def signature_to_json(sig: Signature) -> list[int]:
    return list(sig.parts)


def entries_to_json(values, key: str, fmt=format_scalar) -> list[dict]:
    """[{"sig": [...], key: fmt(value)}, ...] in ascending order of parts."""
    return [
        {"sig": signature_to_json(sig), key: fmt(v)}
        for sig, v in sorted(values.items(), key=lambda kv: kv[0].parts)
    ]


def signature_from_json(data) -> Signature:
    if not isinstance(data, list) or not all(_is_int(p) for p in data):
        raise ValueError(f"a signature is a JSON array of integers, got {data!r}")
    check_parts(data, "signature part")
    return Signature(tuple(data))


def character_to_json(chi: LevelCharacter) -> dict:
    entries = entries_to_json(chi.weights, "prob")
    return {"level": chi.level, "q": format_scalar(chi.q), "entries": entries}


def character_from_json(data) -> LevelCharacter:
    from .characters import LevelCharacter

    return LevelCharacter(
        *_document(data, "character", "entries", "prob", lambda p, sig: parse_scalar(p))
    )


def family_from_json(data) -> CoherentFamily:
    from .characters import CoherentFamily

    if (
        not isinstance(data, dict)
        or not isinstance(data.get("levels"), list)
        or "q" not in data
    ):
        raise ValueError('a family is {"q": ..., "levels": [...]}')
    q = parse_scalar(data["q"])
    return CoherentFamily(q, tuple(character_from_json(c) for c in data["levels"]))


def theta_to_json(theta: BoundaryParam) -> dict:
    return {"head": list(theta.head), "tail": theta.tail}


def theta_from_json(data) -> BoundaryParam:
    if (
        not isinstance(data, dict)
        or not isinstance(data.get("head"), list)
        or not all(_is_int(h) for h in data["head"])
        or not _is_int(data.get("tail"))
    ):
        raise ValueError('a boundary parameter is {"head": [...], "tail": t}')
    check_parts(data["head"] + [data["tail"]], "boundary parameter entry")
    return BoundaryParam(tuple(data["head"]), data["tail"])


def block_to_json(x: BlockElement) -> dict:
    blocks = entries_to_json(
        x.blocks, "matrix", lambda rows: [[format_scalar(v) for v in row] for row in rows]
    )
    return {"level": x.level, "q": format_scalar(x.q), "blocks": blocks}


def block_from_json(data) -> BlockElement:
    from .blocks import BlockElement

    return BlockElement(*_document(data, "block element", "blocks", "matrix", _matrix))


def _matrix(matrix, sig: Signature) -> tuple:
    if not isinstance(matrix, list) or not all(isinstance(r, list) for r in matrix):
        raise ValueError(f"the matrix at {list(sig.parts)} is a JSON array of rows")
    return tuple(tuple(parse_scalar(v) for v in row) for row in matrix)


def approximant_to_json(approx: ExtremeApproximant) -> dict:
    return {
        "theta": theta_to_json(approx.theta),
        "level": approx.level,
        "truncation": approx.truncation,
        "measure": character_to_json(approx.measure),
    }


def dumps(payload) -> str:
    """Canonical rendering: sorted keys, two-space indent, trailing newline.

    A NaN or infinite float raises ValueError: it has no JSON spelling.
    """
    text = json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False)
    return text + "\n"
