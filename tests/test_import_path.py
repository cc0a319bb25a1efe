"""A fresh process imports only what its subcommand needs.

The oracle module ``loopalg.kepler`` loads on first use: ``import
loopalg.cli`` and every subcommand but ``verify-kepler`` run without it, and
without ``dataclasses``, ``importlib.resources`` or ``typing``.  The checks run under
``python -S``, so that no site hook has loaded a module first.
"""

import json
import subprocess
import sys
from pathlib import Path

import loopalg

SRC = str(Path(loopalg.__file__).resolve().parent.parent)

HEAVY = ("loopalg.kepler", "dataclasses", "importlib.resources", "typing")

# the names `from loopalg import *` gives, as before the oracle was made lazy
STAR_NAMES = [
    "BoundaryTooClose", "BracketMismatch", "CLASS_LABELS", "ContractionUndefined",
    "DEFAULT_MAX_LEVEL", "EmbeddingReport", "GradeMismatch",
    "InexactPower", "InputError", "JacobiViolation", "KeplerParams", "LieAlgebra",
    "LinearlyDependent", "LoopElement", "LoopSpec", "NegativeExponent", "NotSymmetric",
    "OracleReport", "PhasePoint", "PuiseuxScalar", "Rejected", "SpecFormatError",
    "SymbolicAlgebra", "TowerSelection", "WrongDimension", "algebra_from_matrices",
    "bundled_spec", "center_dim", "check_selection", "classify3", "contract",
    "cross_check_loop_spec", "derived_subalgebra_dim", "embedding_check", "evaluate",
    "factor_algebra", "identity_suite", "is_classic_iw", "kepler", "killing_form",
    "liealg", "linalg", "loop", "loop_bracket", "poisson", "poisson_fn", "rescale_basis",
    "sample_points", "scalars", "selection_ok", "signature",
]

PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
heavy = {heavy!r}
loaded = lambda: [name for name in heavy if name in sys.modules]
out = {{}}
import loopalg
out["public"] = sorted(name for name in dir(loopalg) if not name.startswith("_"))
import loopalg.cli
out["import"] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    out["table1_code"] = loopalg.cli.main(["demo-table1"])
    out["table1"] = loaded()
    out["kepler_code"] = loopalg.cli.main(["verify-kepler", "--samples", "5"])
out["kepler"] = loaded()
out["same_class"] = loopalg.KeplerParams is loopalg.kepler.KeplerParams
namespace = {{}}
exec("from loopalg import *", namespace)
out["star"] = sorted(name for name in namespace if name != "__builtins__")
print(json.dumps(out))
"""


def test_only_verify_kepler_loads_the_oracle():
    code = PROBE.format(src=SRC, heavy=HEAVY)
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["import"] == [] and out["table1"] == []
    assert out["table1_code"] == 0 and out["kepler_code"] == 0
    assert "loopalg.kepler" in out["kepler"] and out["same_class"]
    assert out["public"] == STAR_NAMES
    assert out["star"] == STAR_NAMES
