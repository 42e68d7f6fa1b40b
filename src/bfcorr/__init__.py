"""Exact symbolic engine for the boson-fermion correspondences of types
A and B: fermionic and bosonic Fock spaces, vertex operators, vacuum
expectation values in arbitrary-precision rational arithmetic, and a
verification suite for the determinant, Pfaffian, Cauchy and Schur
identities, Heisenberg structures, and twisted-vertex-algebra axioms.
"""

from .boson import BosonStateA, BosonStateB, heis_apply_A, heis_apply_B, vertex_A, vertex_B
from .correspondence import (
    CHECK_NAMES,
    IdentityReport,
    VevSpec,
    analytic_continuation_check,
    check_identity,
    closed_form,
    vev,
    vev_boson,
    vev_fermion,
)
from .fields import (
    Field,
    act_hopf,
    heisenberg_field_A,
    mode_commutator,
    normal_ordered_quadratic,
    phi_A,
    phi_B,
    psi_A,
    twisted_heisenberg_field_B,
)
from .fock import (
    FermionStateA,
    FermionStateB,
    FockVector,
    character_A,
    character_B,
)
from .matrices import pfaffian
from .poly import MultiPoly, Rat
from .ratfun import RationalFn, residue_at, rf_equal
from .series import LaurentSeries, expand

__version__ = "0.1.0"

__all__ = [
    "BosonStateA", "BosonStateB", "CHECK_NAMES", "FermionStateA", "FermionStateB",
    "Field", "FockVector", "IdentityReport", "LaurentSeries",
    "MultiPoly", "Rat", "RationalFn", "VevSpec", "act_hopf",
    "analytic_continuation_check", "character_A", "character_B", "check_identity",
    "closed_form", "expand", "heis_apply_A", "heis_apply_B", "heisenberg_field_A",
    "mode_commutator", "normal_ordered_quadratic", "pfaffian", "phi_A", "phi_B", "psi_A",
    "residue_at", "rf_equal", "twisted_heisenberg_field_B",
    "vertex_A", "vertex_B", "vev", "vev_boson", "vev_fermion",
]
