"""Exact arithmetic for finite dimensional superalgebras with graded involution:
classified simple families, block triangular constructions, alternating identity
thresholds, codimension sequences, and block exponents."""

from .analysis import (
    DEFAULT_CONFIG,
    CodimReport,
    GeneratorSetReport,
    RunConfig,
    ThresholdOffsetReport,
    ThresholdReport,
    Witness,
    WitnessReport,
    admissible_exponent,
    barred_rank_is_identity,
    capelli_threshold,
    codim_graded,
    codim_graded_bruteforce,
    codim_ordinary,
    codim_table,
    is_graded_identity,
    is_reduced,
    kind_basis,
    ordinary_capelli_threshold,
    satisfies_generator_set,
    threshold_offsets,
)
from .checks import (
    CheckRow,
    parse_algebra_spec,
    parse_family_token,
    parse_ut_spec,
    run_suite,
)
from .core import (
    HomComponents,
    PeirceDecomposition,
    StarSuperAlgebra,
    WedderburnBlock,
    WedderburnData,
    block_unit,
    central_primitive_idempotents,
    direct_sum,
    from_interchange,
    hom_components,
    hom_dims,
    is_star_graded_simple,
    jacobson_radical,
    load_algebra,
    peirce_decompose,
    radical_centralizer,
    save_algebra,
    semisimple_unit,
    to_interchange,
    validate,
)
from .errors import CenterNotSplitError, InternalInconsistencyError, SizeCapError
from .extensions import (
    commutative_nilpotent,
    noncommutative_nilpotent,
    one_sided_radical_extension,
    tensor_nilpotent_extension,
)
from .families import (
    MHH_S,
    MHL_EXC,
    MHL_T,
    MN_CMN_DAGGER,
    MN_CMN_EXC,
    MN_CMN_STAR,
    FamilyTag,
    build_family,
    classified_hom_dims,
    m_hh_symplectic,
    m_hl_exchange,
    m_hl_transpose,
    mn_cmn,
    mn_cmn_exchange,
)
from .polynomials import (
    ANY,
    KINDS,
    CapelliShape,
    barred_capelli_set,
    capelli_member,
    evaluate_sparse,
    generator_family,
)
from .triangular import UtLayout, UtSpec, ut_star

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
