"""Exact character calculus for reductive groups in positive characteristic.

Weyl characters, Frobenius twists, decomposition numbers, composition
multiplicities over the finite groups of Lie type, and mechanical checks
of the Chastkofsky-Jantzen multiplicity identities.
"""

from .characters import (
    Character,
    formal_dual,
    frobenius_twist,
    steinberg_character,
    to_weyl_basis,
    weyl_character,
)
from .decomp import (
    DecompositionProvider,
    load_decomposition_data,
    to_simple_basis,
)
from .errors import (
    CoverageError,
    DataValidationError,
    DivisionFailure,
    LiecharError,
    NonDominantError,
    NonInvariantError,
    NotFiniteTypeError,
    RankMismatchError,
)
from .finite import (
    finite_composition_multiplicities,
    finite_simple_multiplicities,
    nu_bound,
    steinberg_multiplicity,
    steinberg_nu_sum,
)
from .pims import (
    MultiplicityTable,
    QrData,
    barq_multiplicities,
    character_divide,
    cj_lhs,
    cj_rhs,
    cj_table,
    induced_socle_multiplicity,
    jantzen_identity_check,
    theorem45a_socle_check,
)
from .rootdata import BUILTIN_CARTAN_MATRICES, CartanMatrix, RootSystem

__version__ = "0.1.0"
