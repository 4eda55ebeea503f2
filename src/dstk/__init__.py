"""dstk: a descriptor-system toolkit.

Rational transfer-function matrices are represented by generalized
state-space (descriptor) realizations ``(A - lambda*E, B, C, D)`` and
manipulated exclusively through dense numerical linear algebra: realization
arithmetic, orthogonal staircase (Kronecker-like) pencil reductions,
structural analysis, coprime and inner-outer factorizations, rational
nullspace bases, linear rational equations, and L2 model matching.  Every
construction is verifiable against the frequency-response oracle
``G(lambda) = C (A - lambda E)^{-1} B + D``.
"""

from .exceptions import *  # noqa: F401,F403
from . import exceptions
from .kernels import (
    GschurResult,
    glyap,
    gschur_ordered,
    gsylv_separation,
    null_basis,
    rank_tol,
)
from .system import (
    DescriptorSystem,
    TimeDomain,
    apply_similarity,
    eval_tfm,
    make_system,
    random_system,
)
from .ops import (
    RationalMatrixData,
    concat_col,
    concat_row,
    conjugate,
    diag_stack,
    inverse,
    parallel,
    realize_rational,
    series,
    transpose_dual,
)
from .pencil import (
    KroneckerStructure,
    WeierstrassStructure,
    klf,
    pencil_normal_rank,
    weierstrass_structure,
)
from .analysis import (
    MinimalityReport,
    PoleZeroInfo,
    StabilityRegion,
    h2_norm,
    is_minimum_phase,
    is_stable,
    mcmillan_degree,
    minimality_report,
    minreal,
    normal_rank,
    poles,
    stability_region,
    zeros,
)
from .factor import (
    FactorPair,
    additive_decompose,
    co_outer_co_inner,
    inner_outer,
    lcf,
    rcf,
)
from .solve import (
    LdpParts,
    SolveResult,
    l2_model_match,
    left_nullspace,
    right_nullspace,
    solve_left,
    solve_right,
)

__version__ = "0.1.0"

__all__ = [
    "DescriptorSystem",
    "TimeDomain",
    "GschurResult",
    "KroneckerStructure",
    "WeierstrassStructure",
    "PoleZeroInfo",
    "MinimalityReport",
    "StabilityRegion",
    "FactorPair",
    "SolveResult",
    "LdpParts",
    "RationalMatrixData",
    "make_system",
    "eval_tfm",
    "apply_similarity",
    "random_system",
    "rank_tol",
    "null_basis",
    "gschur_ordered",
    "gsylv_separation",
    "glyap",
    "transpose_dual",
    "inverse",
    "conjugate",
    "series",
    "parallel",
    "concat_col",
    "concat_row",
    "diag_stack",
    "realize_rational",
    "klf",
    "weierstrass_structure",
    "pencil_normal_rank",
    "normal_rank",
    "poles",
    "zeros",
    "mcmillan_degree",
    "is_stable",
    "is_minimum_phase",
    "minimality_report",
    "minreal",
    "h2_norm",
    "stability_region",
    "additive_decompose",
    "rcf",
    "lcf",
    "inner_outer",
    "co_outer_co_inner",
    "left_nullspace",
    "right_nullspace",
    "solve_right",
    "solve_left",
    "l2_model_match",
    "exceptions",
]
