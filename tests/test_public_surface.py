"""The package's public surface: the names ``superlie`` exports, the
names retired from it, the functions the benchmark traces, the README
example, and the one direction of the import between ``core`` and
``cohomology``.

A trim that deletes an exported or traced name fails here, in the default
test run, and not only under ``python -m pytest bench``; so does bringing
back a retired name.
"""

import ast
import doctest
import importlib
import sys
from pathlib import Path
from types import ModuleType

import pytest

import superlie

ROOT = Path(__file__).resolve().parent.parent

EXPORTED = [
    "BoundReport", "CentralExtension", "Cochain2", "DefiningPair", "Fingerprint",
    "InvariantReport", "LieSuperalgebra", "MultiplierResult", "NotCovered", "SignedPair",
    "Subspace", "SuperDim", "TableEntry", "abelian", "bound", "bracket_subspaces",
    "builtin", "center", "central_extension", "change_basis", "check_bounds",
    "classify_mr_le2", "cover_candidate", "derived_subalgebra", "direct_sum", "emit",
    "fingerprint", "free_two_step_cover", "heisenberg_even", "heisenberg_odd",
    "is_nilpotent", "kunneth_check", "lambda_mu", "lower_central_series", "model_l4",
    "multiplier", "parse", "quotient", "report", "sdr_report", "second_center", "tensor",
    "validate", "verify_theorem_table",
]


def test_exported_names():
    names = sorted(n for n in superlie.__all__
                   if not isinstance(getattr(superlie, n), ModuleType))
    assert len(EXPORTED) == 44
    assert names == EXPORTED


# (module, attribute path) of every name retired because no library path
# reached it; tests compare with ``tests/reference_core.py`` and
# ``tests/reference_linalg.py`` instead
RETIRED = [
    ("superlie", "cocycle_space"),
    ("superlie", "coboundary_space"),
    ("superlie.cohomology", "cocycle_space"),
    ("superlie.cohomology", "coboundary_space"),
    ("superlie.cohomology", "cochain_pairs"),
    ("superlie.cohomology", "Cochain2.as_vector"),
    ("superlie.cohomology", "Vec"),
    ("superlie.core", "LinearMap.__call__"),
    ("superlie.linalg", "mat_vec"),
    ("superlie.superdim", "SignedPair.pi_swap"),
    ("superlie.superdim", "SignedPair.lt"),
]


@pytest.mark.parametrize("module, path", RETIRED, ids=[f"{m}.{p}" for m, p in RETIRED])
def test_retired_name_is_absent(module, path):
    *attrs, name = path.split(".")
    obj = importlib.import_module(module)
    for attr in attrs:
        obj = getattr(obj, attr)
    # dir, not hasattr: every class reaches type.__call__ through its metaclass
    assert name not in dir(obj)


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


def test_core_imports_no_cohomology():
    """``cohomology`` builds on ``core``, never the other way round: no
    import of it anywhere in core.py, function bodies included."""
    tree = ast.parse((ROOT / "src" / "superlie" / "core.py").read_text(encoding="utf-8"))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules += [node.module or ""] + [f"{node.module or ''}.{a.name}" for a in node.names]
    assert modules and not [m for m in modules if "cohomology" in m.split(".")]


def test_readme_example():
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
