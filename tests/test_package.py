"""The package surface resolved on first use, and the modules each CLI
command loads."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import curveinv

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

# every name ``curveinv`` exported when its ``__init__`` imported all five
# submodules, by the submodule that defines it
EXPORTED = {
    "errors": (
        "CurveInvError", "DocumentError", "InternalConsistencyError",
        "PreconditionError",
    ),
    "exactnum": (
        "InsufficientJetOrder", "Jet", "LaurentJet", "LaurentMatrix", "NotAUnit",
        "SingularToKnownOrder", "jet_det", "jet_inverse",
    ),
    "multiplicity": (
        "AlgebraicOrderReport", "ClassicalMultiplicityReport",
        "InvalidProjectionPair", "MatrixCurveJet", "MultiplicityReport",
        "NotTransversal", "PhiNotNormalized", "ProjectionPair",
        "TransversalityCertificate", "algebraic_order", "classical_multiplicity",
        "is_kappa_transversal", "local_determinant", "multiplicity_det",
        "multiplicity_laurent", "multiplicity_schur", "multiplicity_transversal",
        "nested_kernels", "pointwise_product", "projection_pair", "schur_operator",
        "shifted_eigen_curve", "validate_projection_pair",
        "verify_transversalization",
    ),
    "parity": (
        "AnalyticSegment", "Crossing", "GlConnector", "LoopPath",
        "NonTransversalCrossing", "NotAdmissible", "ParityValue", "PolynomialPath",
        "RootLocation", "crossing_parity", "interval_parity", "local_parity",
        "loop_parity", "multiplicity_sum_parity",
    ),
    "torsion": (
        "CutoffTooSmall", "DEFAULT_CUTOFF", "DEFAULT_PERIOD", "FlatTorus",
        "NonpositiveTime", "OrientabilityReport", "ThetaSum", "TorsionReport",
        "WienerWeights", "Z2Homomorphism", "class_from_loops", "direct_sum_torsion",
        "heat_kernel_rn", "intersection_sign", "is_orientable", "theta_sum",
        "torsion_invariant", "torsion_value_set", "weight_table", "wiener_weight",
    ),
}
NAMES = [name for names in EXPORTED.values() for name in names]


def test_every_exported_name_is_its_submodules_object():
    assert len(NAMES) == len(set(NAMES)) == 70
    for module, names in EXPORTED.items():
        owner = importlib.import_module(f"curveinv.{module}")
        for name in names:
            assert getattr(curveinv, name) is getattr(owner, name), name


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from curveinv import *", namespace)
    assert set(NAMES) <= namespace.keys()
    assert set(NAMES) <= set(dir(curveinv))
    assert set(NAMES) == set(curveinv.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        curveinv.no_such_name
    assert not hasattr(curveinv, "multiplicity_det_")
    with pytest.raises(ImportError):
        exec("from curveinv import no_such_name", {})


# -- import footprint -------------------------------------------------------------------

EXACT_STACK = {"exactnum", "_poly", "_linalg", "multiplicity", "parity"}

# (arguments, library modules the command must not load)
COMMANDS = [
    (["theta", "--kind", "alternating"], EXACT_STACK),
    (["torsion", "--n", "2", "--signs=1,-1"], EXACT_STACK),
    (["torsion", "table", "--n", "2"], EXACT_STACK),
    (["weights", "--n", "1"], EXACT_STACK),
    (["orientable", "--n", "2", "--signs=-1,1"], EXACT_STACK),
    (["chi", "--curve", "np_curve.json"], {"parity", "torsion"}),
    (["kappa", "--curve", "nilpotent_shift.json"], {"parity", "torsion"}),
    (["classical", "--matrix", "jordan_block.json", "--mu", "0"], {"parity", "torsion"}),
    (["parity", "interval", "--curve", "crossing_path.json"], {"torsion"}),
    (["parity", "loop", "--loop", "twisted_loop.json"], {"torsion"}),
]

# runs ``cli.main`` on its arguments and prints the exit code and the
# curveinv submodules loaded
_CHILD = """
import contextlib, io, json, sys
from curveinv import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("curveinv."))]))
"""


def _fresh(script, *args):
    """Exit code and loaded submodules reported by ``script`` in a fresh
    interpreter that finds the package where this process found it."""
    package_root = os.path.dirname(os.path.dirname(curveinv.__file__))
    path = [package_root] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_bare_import_loads_no_submodule():
    script = (
        "import json, sys, curveinv\n"
        "print(json.dumps([0, sorted(m for m in sys.modules"
        " if m.startswith('curveinv.'))]))"
    )
    assert _fresh(script) == [0, []]


def test_linalg_loads_no_polynomial_module():
    # constant matrices are multiplied and eliminated in _linalg alone
    script = (
        "import json, sys, curveinv._linalg\n"
        "print(json.dumps([0, sorted(m for m in sys.modules"
        " if m.startswith('curveinv.'))]))"
    )
    assert _fresh(script) == [0, ["curveinv._linalg"]]


@pytest.mark.parametrize(
    "argv, unused", COMMANDS, ids=[" ".join(argv[:2]) for argv, _ in COMMANDS]
)
def test_command_loads_only_its_modules(argv, unused):
    args = [os.path.join(FIXTURES, a) if a.endswith(".json") else a for a in argv]
    code, loaded = _fresh(_CHILD, *args)
    assert code == 0
    assert not {f"curveinv.{m}" for m in unused} & set(loaded)
