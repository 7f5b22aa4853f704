"""Exact kernels for even-lattice geometry: vector enumeration, theta
series, discriminant-form Gauss sums, Clifford algebras, Kuga-Satake
torus certification, and trace-form transfer from totally real fields.

Everything computes over exact integers and rationals; floating point
appears only in explicitly numerical witnesses (theta evaluation, Gauss
sums) with stated tails.
"""

from .clifford import (
    CliffordElement,
    GradedParity,
    basis_element,
    format_element,
    invert,
    is_gspin,
    main_involution,
    multiply,
    parity,
    parse_element,
    scalar_element,
    spinor_norm,
    trace,
    vector_element,
)
from .enumeration import (
    enumerate_vectors,
    norm_histogram,
    rep_count,
    tuple_rep_count,
)
from .errors import K3CyclesError
from .gauss import GaussSumValue, MilgramResult, gauss_sum, milgram_invariant
from .kuga_satake import (
    KSReport,
    PeriodPlane,
    default_splitting,
    j_element,
    ks_report,
    orthogonalize_plane,
    period_plane,
    polarizer,
    special_endo_lattice,
    special_endo_test,
)
from .lattice import (
    BUILTIN_NAMES,
    DiscriminantGroup,
    Lattice,
    Signature,
    builtin_lattice,
    coset_norm,
    direct_sum,
    discriminant_group,
    e8_lattice,
    hyperbolic_plane,
    k3_lattice,
    nikulin_embeddable,
    rescale,
    root_a1,
    signature,
)
from .numberfield import FieldElement, TotallyRealField
from .theta import (
    QExpansion,
    ThetaValue,
    eisenstein_sigma_coeffs,
    siegel_theta_table,
    theta_coeffs,
    theta_transform_check,
    theta_value,
)
from .transfer import (
    FeasibilityRow,
    NumberFieldLattice,
    QuaternionAlgebra,
    diagonal_lattice,
    feasibility_csv,
    feasibility_table,
    ks_admissible,
    number_field_lattice,
    quaternion_trace_zero,
    signature_profile,
    trace_lattice,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
