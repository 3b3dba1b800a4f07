"""The public surface of `import qchar`: which names it exports, where each
comes from, and that resolving them lazily changes none of it."""

import importlib
import json
import sys

import pytest

import qchar

from helpers import run_fresh

# exported name -> defining submodule, as `qchar/__init__` re-exports them
ORIGIN = {
    name: module
    for module, names in {
        "combinatorics": "EMPTY BoundaryParam GTPattern Signature dimension enumerate_down"
        " enumerate_gt_patterns shift weight",
        "schur": "check_q lr_coefficients qdim schur_eval",
        "characters": "CoherenceReport CoherentFamily LevelCharacter cotransition"
        " first_discrepancy indecomposable is_coherent restrict sgf_eval sgf_eval_torus"
        " tensor total_variation",
        "boundary": "CorollaryReport ExtremeApproximant ak_on_measure ak_on_theta cauchy_gap"
        " extreme_character verify_corollary",
        "blocks": "BlockElement DecomposeReport FCompatReport char_state_eval"
        " check_f_compatibility decompose_state embed f_spectrum flow_coefficients kms_check"
        " random_block_element scaling state_of_product",
    }.items()
    for name in names.split()
}
SUBMODULES = ("combinatorics", "schur", "characters", "boundary", "blocks")


def test_the_pinned_surface():
    assert len(ORIGIN) == 45
    assert sorted(qchar.__all__) == sorted([*ORIGIN, *SUBMODULES])
    assert qchar.__version__ == "0.1.0"


@pytest.mark.parametrize("name", list(ORIGIN))
def test_export_is_the_object_its_module_defines(name):
    module = importlib.import_module(f"qchar.{ORIGIN[name]}")
    assert getattr(qchar, name) is getattr(module, name)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_attribute(name):
    assert getattr(qchar, name) is sys.modules[f"qchar.{name}"]


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from qchar import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(qchar.__all__)
    assert all(namespace[name] is getattr(qchar, name) for name in namespace)


def test_dir_lists_every_export():
    assert set(qchar.__all__) <= set(dir(qchar))
    assert "__version__" in dir(qchar)


def test_unknown_attribute_raises_the_standard_error():
    with pytest.raises(AttributeError, match=r"^module 'qchar' has no attribute 'no_such_name'$"):
        qchar.no_such_name
    with pytest.raises(ImportError):
        exec("from qchar import no_such_name", {})


def test_import_loads_only_what_is_asked_for():
    script = (
        "import json, sys, qchar\n"
        "bare = sorted(m for m in sys.modules if m.startswith('qchar'))\n"
        "from qchar import restrict\n"
        "print(json.dumps([bare, sorted(m for m in sys.modules if m.startswith('qchar'))]))"
    )
    proc = run_fresh("-c", script, timeout=60)
    assert proc.returncode == 0, proc.stderr
    bare, after = json.loads(proc.stdout)
    assert bare == ["qchar"]
    assert after == ["qchar", "qchar.characters", "qchar.combinatorics", "qchar.schur"]


def test_blocks_loads_no_float_math_for_the_flow():
    # the real-time flow is exact coefficients; no block entry is a complex float
    script = (
        "import json, sys\n"
        "bare = set(sys.modules)\n"
        "import qchar.blocks\n"
        "print(json.dumps('cmath' in set(sys.modules) - bare))"
    )
    proc = run_fresh("-c", script, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) is False
