"""Duality for segment data on p-adic classical groups.

The core objects are half-integer segments grouped on lines, symmetric
multisegments with signs, and Langlands-style parameter data; the core
operation is the extraction-chain duality together with its derivative
operators and verification oracles.
"""

from .segments import (
    BAD,
    GOOD,
    GRID_HALF,
    GRID_INT,
    UGLY,
    DomainError,
    HalfInt,
    InvariantError,
    Line,
    Segment,
    half,
    line,
    seg,
    seg_dual,
)
from .langdata import (
    LanglandsData,
    Multisegment,
    PhiComponent,
    SignedSymMultisegment,
    line_project,
    plus_product,
    require_valid,
    sign_product,
    transfer,
    untransfer,
    validate,
)
from .mw_gl import (
    containment_count,
    kz_capacity,
    kz_capacity_labeled,
    mw_step,
    mw_transpose,
)
from .ad_core import ad_data, ad_initial_sequence, ad_step, ad_symm
from .derivatives import (
    DerivativeResult,
    best_matching,
    derivative,
    derivative_L,
    reduced_report,
)
from .verify import (
    closed_form_dual,
    closed_form_instances,
    enumerate_data,
    enumerate_symm,
    first_start_prediction,
    inverse_derivative_search,
    run_properties,
    standard_sweep,
)

__all__ = [
    "BAD",
    "GOOD",
    "GRID_HALF",
    "GRID_INT",
    "UGLY",
    "DomainError",
    "HalfInt",
    "InvariantError",
    "Line",
    "Segment",
    "half",
    "line",
    "seg",
    "seg_dual",
    "LanglandsData",
    "Multisegment",
    "PhiComponent",
    "SignedSymMultisegment",
    "line_project",
    "plus_product",
    "require_valid",
    "sign_product",
    "transfer",
    "untransfer",
    "validate",
    "containment_count",
    "kz_capacity",
    "kz_capacity_labeled",
    "mw_step",
    "mw_transpose",
    "ad_data",
    "ad_initial_sequence",
    "ad_step",
    "ad_symm",
    "DerivativeResult",
    "best_matching",
    "derivative",
    "derivative_L",
    "reduced_report",
    "closed_form_dual",
    "closed_form_instances",
    "enumerate_data",
    "enumerate_symm",
    "first_start_prediction",
    "inverse_derivative_search",
    "run_properties",
    "standard_sweep",
]

__version__ = "0.1.0"
