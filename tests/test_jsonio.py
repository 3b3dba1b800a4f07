import json
import random
import time
from fractions import Fraction

import pytest

from qchar import BlockElement, BoundaryParam, CoherentFamily, Signature, restrict
from qchar import jsonio
from qchar.jsonio import (
    MAX_PART,
    block_from_json,
    block_to_json,
    character_from_json,
    character_to_json,
    entries_to_json,
    family_from_json,
    format_scalar,
    parse_scalar,
    signature_from_json,
    signature_to_json,
    theta_from_json,
    theta_to_json,
)

from helpers import family_to_json, random_character

HALF = Fraction(1, 2)


class TestScalars:
    @pytest.mark.parametrize(
        "value, text",
        [
            (Fraction(21, 25), "21/25"),
            (Fraction(-3, 4), "-3/4"),
            (Fraction(7), "7"),
            (Fraction(0), "0"),
        ],
    )
    def test_format_parse_roundtrip(self, value, text):
        assert format_scalar(value) == text
        assert parse_scalar(text) == value

    def test_plain_integers_accepted(self):
        assert parse_scalar(5) == 5

    @pytest.mark.parametrize(
        "bad", ["1/0", "abc", 1.5, None, "1e-10000000", "0.5", "1_000", " 1", "1/-2"]
    )
    def test_bad_scalars_rejected(self, bad):
        # only [+-]digits[/digits] is read: `Fraction` alone would expand
        # "1e-10000000" for seconds before answering
        start = time.perf_counter()
        with pytest.raises(ValueError):
            parse_scalar(bad)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("text, value", [("+5", 5), ("-0", 0), ("007/014", Fraction(1, 2))])
    def test_signed_and_padded_digits_accepted(self, text, value):
        assert parse_scalar(text) == value


class TestSignatures:
    def test_roundtrip(self):
        for parts in [(), (2, 1, 0), (-1, -1), (MAX_PART, 0, -MAX_PART)]:
            sig = Signature(parts)
            assert signature_from_json(signature_to_json(sig)) == sig

    @pytest.mark.parametrize("part", [MAX_PART + 1, -MAX_PART - 1])
    def test_writer_refuses_what_the_reader_refuses(self, part):
        with pytest.raises(ValueError) as read:
            signature_from_json([part, part])
        with pytest.raises(ValueError) as written:
            signature_to_json(Signature((part, part)))
        assert str(written.value) == str(read.value)
        assert str(read.value) == f"signature part {part} is beyond the input limit |v| <= {MAX_PART}"

    def test_bad_payload_rejected(self):
        with pytest.raises(ValueError):
            signature_from_json({"sig": [1]})
        with pytest.raises(ValueError):
            signature_from_json([1, "x"])


class TestCharacters:
    def test_roundtrip_and_sorted_entries(self):
        chi = random_character(2, HALF, random.Random(1))
        data = character_to_json(chi)
        sigs = [tuple(e["sig"]) for e in data["entries"]]
        assert sigs == sorted(sigs)
        assert character_from_json(data) == chi

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError):
            character_from_json({"level": 1, "entries": []})

    def test_family_roundtrip(self):
        top = random_character(2, HALF, random.Random(2))
        family = CoherentFamily(HALF, (restrict(top), top))
        assert family_from_json(family_to_json(family)) == family


class TestTheta:
    def test_roundtrip(self):
        for theta in [BoundaryParam((-1, 0), 2), BoundaryParam((-MAX_PART,), MAX_PART)]:
            assert theta_from_json(theta_to_json(theta)) == theta

    @pytest.mark.parametrize(
        "head, tail", [((), MAX_PART + 1), ((-MAX_PART - 1,), 0)], ids=["tail", "head"]
    )
    def test_writer_refuses_what_the_reader_refuses(self, head, tail):
        with pytest.raises(ValueError) as read:
            theta_from_json({"head": list(head), "tail": tail})
        with pytest.raises(ValueError) as written:
            theta_to_json(BoundaryParam(head, tail))
        assert str(written.value) == str(read.value)
        part = tail if tail > MAX_PART else head[0]
        assert str(read.value) == (
            f"boundary parameter entry {part} is beyond the input limit |v| <= {MAX_PART}"
        )

    def test_bad_payload_rejected(self):
        with pytest.raises(ValueError):
            theta_from_json({"head": [0]})


class TestBlocks:
    def test_roundtrip(self):
        x = BlockElement(
            2,
            HALF,
            {
                Signature((1, 0)): ((Fraction(1, 2), 0), (3, Fraction(-2, 7))),
                Signature((0, 0)): ((5,),),
            },
        )
        data = block_to_json(x)
        assert block_from_json(data) == x

    def test_matrix_entries_are_strings(self):
        x = BlockElement(1, HALF, {Signature((2,)): ((Fraction(1, 3),),)})
        data = block_to_json(x)
        assert data["blocks"][0]["matrix"] == [["1/3"]]


class TestEntryLists:
    def test_ascending_parts_whatever_the_insertion_order(self):
        values = {Signature((1, -1)): 2, Signature((-1, -1)): 1, Signature((0, -1)): 0}
        assert entries_to_json(values, "prob") == [
            {"sig": [-1, -1], "prob": "1"},
            {"sig": [0, -1], "prob": "0"},
            {"sig": [1, -1], "prob": "2"},
        ]

    def test_fmt_is_applied(self):
        values = {Signature((1,)): Fraction(1, 3), Signature((0,)): 5}
        assert entries_to_json(values, "coeff", repr) == [
            {"sig": [0], "coeff": "5"},
            {"sig": [1], "coeff": "Fraction(1, 3)"},
        ]

    def test_empty_map(self):
        assert entries_to_json({}, "prob") == []

    def test_character_round_trip_is_byte_identical(self):
        text = jsonio.dumps(character_to_json(random_character(3, HALF, random.Random(4))))
        assert jsonio.dumps(character_to_json(character_from_json(json.loads(text)))) == text

    def test_block_round_trip_is_byte_identical(self):
        x = BlockElement(
            2,
            HALF,
            {
                Signature((1, 0)): ((Fraction(1, 2), 0), (3, Fraction(-2, 7))),
                Signature((0, 0)): ((5,),),
                Signature((-1, -1)): ((Fraction(-1, 9),),),
            },
        )
        text = jsonio.dumps(block_to_json(x))
        assert jsonio.dumps(block_to_json(block_from_json(json.loads(text)))) == text

    def test_value_error_comes_before_a_later_signature_error(self):
        data = {
            "level": 1,
            "q": "1/2",
            "entries": [{"sig": [0], "prob": "x"}, {"sig": "y", "prob": "1"}],
        }
        with pytest.raises(ValueError, match="bad exact scalar 'x'"):
            character_from_json(data)

    def test_repeat_is_refused_after_its_value_parses(self):
        entries = [{"sig": [0], "matrix": [["1"]]}, {"sig": [0], "matrix": 5}]
        with pytest.raises(ValueError, match=r"the matrix at \[0\] is a JSON array of rows"):
            block_from_json({"level": 1, "q": "1/2", "blocks": entries})
        entries[1]["matrix"] = [["1"]]
        with pytest.raises(ValueError, match=r"block element entries repeat the signature \[0\]"):
            block_from_json({"level": 1, "q": "1/2", "blocks": entries})


class TestDumps:
    def test_canonical_and_newline_terminated(self):
        text = jsonio.dumps({"b": 1, "a": 2})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
