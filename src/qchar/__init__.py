"""Exact finite-level calculus of quantized characters on the
Gelfand-Tsetlin graph: interlacing combinatorics, Schur evaluation,
q-weighted cotransition kernels, character fusion, extreme-character
approximants and a block-matrix model with its modular flow.
"""

from .combinatorics import (
    EMPTY,
    BoundaryParam,
    GTPattern,
    Signature,
    dimension,
    enumerate_down,
    enumerate_gt_patterns,
    interlaces,
    iter_signatures,
    shift,
    weight,
)
from .schur import (
    check_q,
    lr_coefficients,
    principal_specialization,
    qbracket,
    qdim,
    schur_eval,
)
from .characters import (
    CoherenceReport,
    CoherentFamily,
    LevelCharacter,
    cotransition,
    first_discrepancy,
    indecomposable,
    is_coherent,
    restrict,
    sgf_eval,
    sgf_eval_torus,
    tensor,
    total_variation,
    wq,
)
from .boundary import (
    CorollaryReport,
    ExtremeApproximant,
    ak_on_measure,
    ak_on_theta,
    cauchy_gap,
    extreme_character,
    verify_corollary,
)
from .blocks import (
    BlockElement,
    DecomposeReport,
    FCompatReport,
    FSpectrum,
    char_state_eval,
    check_f_compatibility,
    decompose_state,
    embed,
    f_spectrum,
    kms_check,
    random_block_element,
    scaling,
    scaling_unitary,
    state_of_product,
)

__version__ = "0.1.0"
