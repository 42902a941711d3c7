"""Weighted simplicial complexes and their random-walk spectral certificates."""

from .complex_core import (
    ComplexError,
    PureComplex,
    build_complex,
    canonical_face,
    link_of,
    skeleton_of,
)
from .cochain_ops import (
    Cochain,
    LinOp,
    adjoint_diff,
    diff,
    down_up,
    inner_product,
    localize,
    multi_down,
    multi_up,
    nonlazy,
    norm_sq,
    up_down,
    weight_vector,
)
from .spectral import (
    GammaProfile,
    HypothesisError,
    Spectrum,
    gamma_profile,
    is_connected,
    is_local_spectral_expander,
    lambda2_skeleton,
    selfadjoint_spectrum,
)
from .level_decomp import (
    LOCALIZATION,
    RESTRICTION,
    LevelBasis,
    LevelDecomposition,
    level_space,
    proper_decompose,
    proper_level_basis,
    view,
)
from .theorem_verify import (
    BlockReport,
    BoundReport,
    LambdaTable,
    advantage_check,
    alev_lau_check,
    bootstrap_certificate,
    check_block,
    fine_grained_check,
    lambda_table,
    trickling_down_check,
    updown_corollary_check,
)
from .oriented_topology import (
    BalanceReport,
    OrientedCochain,
    balanced_check,
    coboundary,
    local_minimality_residuals,
    minimal_representative,
)
from .cli_io import ParseError, generate, parse_cochain, parse_complex, write_cochain, write_complex

__version__ = "0.1.0"
