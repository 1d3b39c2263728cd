"""Exact multiplicity, parity and torsion invariants of matrix curves.

The package computes, in exact rational arithmetic, the generalized
algebraic multiplicity of polynomial matrix curves at their singular
parameter values (by four mutually checking routes), the parity of
admissible operator paths and closed loops, and the heat-kernel weighted
global torsion invariant of bundle classes over the circle and flat tori.
"""

from .errors import (
    CurveInvError,
    DocumentError,
    InternalConsistencyError,
    PreconditionError,
)
from .exactnum import (
    InsufficientJetOrder,
    Jet,
    LaurentJet,
    LaurentMatrix,
    NotAUnit,
    OrdResult,
    SingularToKnownOrder,
    jet_det,
    jet_inverse,
    vanishing_order,
)
from .multiplicity import (
    AlgebraicOrderReport,
    ClassicalMultiplicityReport,
    InvalidProjectionPair,
    MatrixCurveJet,
    MultiplicityReport,
    NotTransversal,
    PhiNotNormalized,
    ProjectionPair,
    TransversalityCertificate,
    algebraic_order,
    classical_multiplicity,
    is_kappa_transversal,
    local_determinant,
    multiplicity_det,
    multiplicity_laurent,
    multiplicity_schur,
    multiplicity_transversal,
    nested_kernels,
    pointwise_product,
    projection_pair,
    schur_operator,
    shifted_eigen_curve,
    validate_projection_pair,
    verify_transversalization,
)
from .parity import (
    AnalyticSegment,
    Crossing,
    GlConnector,
    LoopPath,
    NonTransversalCrossing,
    NotAdmissible,
    ParityValue,
    PolynomialPath,
    RootLocation,
    crossing_parity,
    interval_parity,
    local_parity,
    loop_parity,
    multiplicity_sum_parity,
)
from .torsion import (
    CutoffTooSmall,
    DEFAULT_CUTOFF,
    DEFAULT_PERIOD,
    FlatTorus,
    NonpositiveTime,
    OrientabilityReport,
    ThetaSum,
    TorsionReport,
    WienerWeights,
    Z2Homomorphism,
    class_from_loops,
    direct_sum_torsion,
    heat_kernel_rn,
    intersection_sign,
    is_orientable,
    theta_sum,
    torsion_invariant,
    torsion_value_set,
    weight_table,
    wiener_weight,
)

__version__ = "0.1.0"
