"""Exact Ext computations in p-blocks with a normal abelian defect group.

The objects handled here are blocks B = O(D x| E) e_phi where D is a finite
abelian p-group acted on by a p'-group E, Z = C_E(D) is cyclic and central in
E, and phi is a faithful linear character of Z.  The package builds the
ordinary and Brauer characters of B, computes Ext groups between the
corresponding linear-source lattices both by a Kunneth assembly (closed
formulas on C_D(E), a cochain oracle on the rest) and by a cochain-complex
oracle over all of D, over a truncated valuation ring, and mechanically
verifies the classification of good subsets of Irr(B).
"""

from .cyclotomic import CycloNumber, cyclotomic_coeffs, zeta
from .errors import (
    BlockExtError,
    CrossCheckMismatch,
    EnumerationBoundExceeded,
    IdempotentNotSplit,
    OrderBoundExceeded,
    OrthogonalityFailure,
    PrecisionUnstable,
    SizeGuardExceeded,
    SpecValidationError,
)
from .omodule import (
    OModuleClass,
    kunneth_assemble,
    tensor_tor,
    val_one_minus_zeta,
    verify_cyclotomic_identity,
)
from .chainring import ChainRing, chain_ring
from .chainlinalg import (
    ChainComplex,
    homology_of_complex,
)
from .groups import (
    AbelianPGroup,
    ActionMap,
    BlockContext,
    FiniteGroup,
    LinearChar,
    SemidirectGroup,
    build_group,
    validate_block_spec,
)
from .chars import (
    BlockCharacter,
    ClassFunction,
    brauer_chars,
    build_irr_B,
    char_table,
    decomposition_matrix,
    irr_over_phi,
    lifts_of,
)
from .modrep import ModuleRep, build_module_rep
from .extengine import (
    abelian_context,
    block_ring,
    ext1_modp,
    ext1_modp_simples,
    ext_abelian_closed,
    ext_abelian_oracle,
    ext_block,
    ext_oracle,
    ext_shape_classify,
)
from .analysis import (
    CandidateSet,
    GoodnessReport,
    check_conjugacy_forcing,
    enumerate_good_sets,
    ext_quiver,
    is_good,
    predicted_good_sets,
    verify_classification,
)
from .specfile import (
    BlockSpec,
    load_spec,
    parse_spec,
    serialize_spec,
    to_context,
)
__version__ = "0.1.0"
