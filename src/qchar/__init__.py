"""Exact finite-level calculus of quantized characters on the
Gelfand-Tsetlin graph: interlacing combinatorics, Schur evaluation,
q-weighted cotransition kernels, character fusion, extreme-character
approximants and a block-matrix model with its modular flow.

The public names below are resolved on first access (PEP 562), so
`import qchar` loads no layer and `from qchar import restrict` loads only
the modules `restrict` needs.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "combinatorics": (
        "EMPTY",
        "BoundaryParam",
        "GTPattern",
        "Signature",
        "dimension",
        "enumerate_down",
        "enumerate_gt_patterns",
        "shift",
        "weight",
    ),
    "schur": (
        "check_q",
        "lr_coefficients",
        "qdim",
        "schur_eval",
    ),
    "characters": (
        "CoherenceReport",
        "CoherentFamily",
        "LevelCharacter",
        "cotransition",
        "first_discrepancy",
        "indecomposable",
        "is_coherent",
        "restrict",
        "sgf_eval",
        "sgf_eval_torus",
        "tensor",
        "total_variation",
    ),
    "boundary": (
        "CorollaryReport",
        "ExtremeApproximant",
        "ak_on_measure",
        "ak_on_theta",
        "cauchy_gap",
        "extreme_character",
        "verify_corollary",
    ),
    "blocks": (
        "BlockElement",
        "DecomposeReport",
        "FCompatReport",
        "char_state_eval",
        "check_f_compatibility",
        "decompose_state",
        "embed",
        "f_spectrum",
        "flow_coefficients",
        "kms_check",
        "random_block_element",
        "scaling",
        "state_of_product",
    ),
}

# public name -> the submodule that defines it
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_ORIGIN, *_EXPORTS]


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
