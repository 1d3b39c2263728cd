"""Exact multiplicity, parity and torsion invariants of matrix curves.

The package computes, in exact rational arithmetic, the generalized
algebraic multiplicity of polynomial matrix curves at their singular
parameter values (by four mutually checking routes), the parity of
admissible operator paths and closed loops, and the heat-kernel weighted
global torsion invariant of bundle classes over the circle and flat tori.

``import curveinv`` loads no submodule: each name below is imported from
its submodule on first use (PEP 562), so ``curveinv.torsion_invariant``
loads ``torsion`` and not the exact-arithmetic stack behind the
multiplicity routes.
"""

import importlib

__version__ = "0.1.0"

# every exported name, by the submodule that defines it
_EXPORTS = {
    "errors": (
        "CurveInvError",
        "DocumentError",
        "InternalConsistencyError",
        "PreconditionError",
    ),
    "exactnum": (
        "InsufficientJetOrder",
        "Jet",
        "LaurentJet",
        "LaurentMatrix",
        "NotAUnit",
        "SingularToKnownOrder",
        "jet_det",
        "jet_inverse",
    ),
    "multiplicity": (
        "AlgebraicOrderReport",
        "ClassicalMultiplicityReport",
        "InvalidProjectionPair",
        "MatrixCurveJet",
        "MultiplicityReport",
        "NotTransversal",
        "PhiNotNormalized",
        "ProjectionPair",
        "TransversalityCertificate",
        "algebraic_order",
        "classical_multiplicity",
        "is_kappa_transversal",
        "local_determinant",
        "multiplicity_det",
        "multiplicity_laurent",
        "multiplicity_schur",
        "multiplicity_transversal",
        "nested_kernels",
        "pointwise_product",
        "projection_pair",
        "schur_operator",
        "shifted_eigen_curve",
        "validate_projection_pair",
        "verify_transversalization",
    ),
    "parity": (
        "AnalyticSegment",
        "Crossing",
        "GlConnector",
        "LoopPath",
        "NonTransversalCrossing",
        "NotAdmissible",
        "ParityValue",
        "PolynomialPath",
        "RootLocation",
        "crossing_parity",
        "interval_parity",
        "local_parity",
        "loop_parity",
        "multiplicity_sum_parity",
    ),
    "torsion": (
        "CutoffTooSmall",
        "DEFAULT_CUTOFF",
        "DEFAULT_PERIOD",
        "FlatTorus",
        "NonpositiveTime",
        "OrientabilityReport",
        "ThetaSum",
        "TorsionReport",
        "WienerWeights",
        "Z2Homomorphism",
        "class_from_loops",
        "direct_sum_torsion",
        "heat_kernel_rn",
        "intersection_sign",
        "is_orientable",
        "theta_sum",
        "torsion_invariant",
        "torsion_value_set",
        "weight_table",
        "wiener_weight",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    # read from the submodule on every access, never copied here, so a
    # wrapper installed on ``torsion.torsion_invariant`` is what this returns
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
