"""Value semantics of the eleven value classes: those of a frozen dataclass.

Each case builds one instance from positional and keyword arguments and
names its fields in order with their expected values, so the defaults are
pinned too.  The checks hold whatever machinery defines the classes.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from qchar import (
    BlockElement,
    BoundaryParam,
    CoherenceReport,
    CoherentFamily,
    CorollaryReport,
    DecomposeReport,
    ExtremeApproximant,
    FCompatReport,
    GTPattern,
    LevelCharacter,
    Signature,
)

HALF = Fraction(1, 2)
ONE = Signature((1,))
TEN = Signature((1, 0))
CHI = LevelCharacter(1, HALF, {ONE: 1})
CHI_REPR = "LevelCharacter(level=1, q=Fraction(1, 2), weights={Signature(parts=(1,)): Fraction(1, 1)})"

# (class, args, kwargs, {field: value} in field order, repr)
CASES = {
    "Signature": (
        Signature, [(2, 0, -1)], {}, {"parts": (2, 0, -1)}, "Signature(parts=(2, 0, -1))"
    ),
    "GTPattern": (
        GTPattern, [((1,), (2, 0))], {}, {"rows": ((1,), (2, 0))},
        "GTPattern(rows=((1,), (2, 0)))",
    ),
    "BoundaryParam": (
        BoundaryParam, [(0, 1, 1)], {"tail": 1}, {"head": (0,), "tail": 1},
        "BoundaryParam(head=(0,), tail=1)",
    ),
    "LevelCharacter": (
        LevelCharacter, [1], {"q": "1/2", "weights": {ONE: 1}},
        {"level": 1, "q": HALF, "weights": {ONE: Fraction(1)}}, CHI_REPR,
    ),
    "CoherentFamily": (
        CoherentFamily, [HALF, [CHI]], {}, {"q": HALF, "measures": (CHI,)},
        f"CoherentFamily(q=Fraction(1, 2), measures=({CHI_REPR},))",
    ),
    "CoherenceReport": (
        CoherenceReport, [False], {"sig": TEN, "level": 2, "stored_mass": HALF},
        {"ok": False, "level": 2, "sig": TEN, "restricted_mass": None, "stored_mass": HALF},
        "CoherenceReport(ok=False, level=2, sig=Signature(parts=(1, 0)), "
        "restricted_mass=None, stored_mass=Fraction(1, 2))",
    ),
    "ExtremeApproximant": (
        ExtremeApproximant, [BoundaryParam((), 1), 1], {"truncation": 3, "measure": CHI},
        {"theta": BoundaryParam((), 1), "level": 1, "truncation": 3, "measure": CHI},
        f"ExtremeApproximant(theta=BoundaryParam(head=(), tail=1), level=1, truncation=3, "
        f"measure={CHI_REPR})",
    ),
    "CorollaryReport": (
        CorollaryReport, [],
        {"ok": True, "tensored": CHI, "shifted": CHI, "gap": Fraction(0), "discrepancy": None},
        {"ok": True, "tensored": CHI, "shifted": CHI, "gap": 0, "discrepancy": None},
        f"CorollaryReport(ok=True, tensored={CHI_REPR}, shifted={CHI_REPR}, "
        f"gap=Fraction(0, 1), discrepancy=None)",
    ),
    "FCompatReport": (
        FCompatReport, [True], {}, {"ok": True, "sig": None, "index": None},
        "FCompatReport(ok=True, sig=None, index=None)",
    ),
    "DecomposeReport": (
        DecomposeReport, [False], {"reason": "not a density"},
        {"ok": False, "coefficients": None, "reason": "not a density"},
        "DecomposeReport(ok=False, coefficients=None, reason='not a density')",
    ),
    "DecomposeReport-with-coefficients": (
        DecomposeReport, [True, {ONE: HALF}], {},
        {"ok": True, "coefficients": {ONE: HALF}, "reason": None},
        "DecomposeReport(ok=True, coefficients={Signature(parts=(1,)): Fraction(1, 2)}, "
        "reason=None)",
    ),
    "BlockElement": (
        BlockElement, [1, HALF, {ONE: [[7]]}], {},
        {"level": 1, "q": HALF, "blocks": {ONE: ((7,),)}},
        "BlockElement(level=1, q=Fraction(1, 2), blocks={Signature(parts=(1,)): ((7,),)})",
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_frozen_value_semantics(case):
    cls, args, kwargs, fields, text = CASES[case]
    value = cls(*args, **kwargs)
    values = tuple(getattr(value, name) for name in fields)
    assert values == tuple(fields.values())
    assert repr(value) == text

    # equality compares the field tuples, only within the same class
    assert value == cls(*args, **kwargs)
    twin = type("Twin", (cls,), {})(*args, **kwargs)
    assert value != twin and twin != value
    assert value.__eq__(values) is NotImplemented
    assert value != values
    if cls is FCompatReport:
        # same field tuple (True, None, None), another class
        assert value != DecomposeReport(True)

    try:
        expected = hash(values)
    except TypeError:  # a field is, or holds, a dict
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == expected

    first = next(iter(fields))
    for name in (first, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, first)
    assert tuple(getattr(value, name) for name in fields) == values

    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value
