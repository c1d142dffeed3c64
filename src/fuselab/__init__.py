"""fuselab: exact decategorified checks for fusion rings, modular data,
NIM-reps, gauge cochains, and modular invariant matrices."""

from .cyclo import CycloNumber, RationalPhase, sin_ratio, zeta
from .errors import (
    DegenerateScalar,
    FuselabError,
    GaugeInconsistent,
    MissingPair,
    MultiplicityNotOne,
    NonIntegralMultiplicity,
    NonIntegralVerlinde,
    NotANimRep,
    SchemaError,
    SearchBudgetExceeded,
    ShapeMismatch,
    ValidationFailed,
)
from .fusion import FusionElement, FusionRing, su2_fusion_ring, verify_axioms
from .gauge import (
    GaugeProblem,
    GaugeSolution,
    encircling_matrices,
    solve_gauge,
    validate_mu,
    verify_phi_isomorphism,
)
from .invariants import (
    CommutantBasis,
    InvariantMatrix,
    TMDimensionReport,
    commutant_basis,
    diagonal_profile_as_Z,
    enumerate_invariants,
    match_diagonal,
    rep_dimension,
    tm_dimension_report,
    verify_invariant,
)
from .io import data_to_json, parse_data, parse_data_file, write_data_file
from .modular import (
    ModularData,
    SpectrumPoint,
    catalog_names,
    fibonacci_modular_data,
    idempotent_family,
    inner_product,
    ising_modular_data,
    load_catalog,
    spectral_idempotent,
    spectrum,
    su2_modular_data,
    tube_idempotent,
    verify_modular_data,
    verlinde,
    zn_modular_data,
)
from .nimrep import (
    BoundaryGraph,
    NimRep,
    a_graph,
    ade_graph,
    character,
    d_eigenvector,
    d_graph,
    disjoint_union,
    e_graph,
    multiplicity_profile,
    nimrep_from_graph,
    regular_nimrep,
    su2_nimrep_from_graph,
    verify_nimrep,
)
from .verdict import Check, Verdict

__version__ = "0.1.0"
