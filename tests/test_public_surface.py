"""The package's public surface: the names ``superlie`` exports, the
functions the benchmark traces, and the README example.

A trim that deletes an exported or traced name fails here, in the default
test run, and not only under ``python -m pytest bench``.
"""

import doctest
import sys
from pathlib import Path
from types import ModuleType

import superlie

ROOT = Path(__file__).resolve().parent.parent

EXPORTED = [
    "BoundReport", "CentralExtension", "Cochain2", "DefiningPair", "Fingerprint",
    "InvariantReport", "LieSuperalgebra", "MultiplierResult", "NotCovered", "SignedPair",
    "Subspace", "SuperDim", "TableEntry", "abelian", "bound", "bracket_subspaces",
    "builtin", "center", "central_extension", "change_basis", "check_bounds",
    "classify_mr_le2", "coboundary_space", "cocycle_space", "cover_candidate",
    "derived_subalgebra", "direct_sum", "emit", "fingerprint", "free_two_step_cover",
    "heisenberg_even", "heisenberg_odd", "is_nilpotent", "kunneth_check", "lambda_mu",
    "lower_central_series", "model_l4", "multiplier", "parse", "quotient", "report",
    "sdr_report", "second_center", "tensor", "validate", "verify_theorem_table",
]


def test_exported_names():
    names = sorted(n for n in superlie.__all__
                   if not isinstance(getattr(superlie, n), ModuleType))
    assert len(EXPORTED) == 46
    assert names == EXPORTED


def test_every_traced_target_exists():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import tracing
    finally:
        sys.path.remove(str(ROOT / "bench"))
    import superlie.cli  # noqa: F401
    import superlie.corpus  # noqa: F401
    import superlie.verification  # noqa: F401
    assert tracing.Tracer().missing == []


def test_readme_example():
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
