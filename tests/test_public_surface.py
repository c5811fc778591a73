"""Every name ``adjpod/__init__.py`` exports is used by the library itself.

A name counts as used when some package module other than ``__init__``
loads it, as a bare name or as an attribute.  The only exceptions are the
test oracles in ``ORACLES``: checks and readers the tests hold the pipeline
against, which the pipeline has no reason to call.  So an export that
nothing reaches is either deleted or named here with its reason.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "adjpod"

ORACLES = (
    "gradient_of_J",        # frozen acceptance oracle: stationarity of the GD minimizer
    "verify_pod_bound",     # frozen acceptance oracle: the projection-error bound
    "spectral_solution",    # spectral oracle: exact final-time modal coefficients
    "read_json",            # artifact reader: metrics.json and provenance files
    "read_matrix_csv",      # artifact reader: basis and reduced-operator CSVs
)


def _exported() -> set:
    """Names ``__init__`` re-exports from the package modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _loaded_by_library() -> set:
    """Names and attributes loaded anywhere in the modules besides ``__init__``."""
    loaded = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def test_the_public_surface_is_found():
    exported = _exported()
    assert {"run_experiment", "build_adjoint_pod", "tikhonov_direct_reduced"} <= exported


def test_every_export_is_used_by_the_library_or_is_a_named_oracle():
    unreached = _exported() - _loaded_by_library() - set(ORACLES)
    assert not unreached, f"exports no library code uses: {sorted(unreached)}"


def test_every_oracle_is_exported_and_unused_by_the_library():
    assert len(set(ORACLES)) == len(ORACLES)
    assert set(ORACLES) <= _exported(), "an oracle is no longer exported"
    stale = set(ORACLES) & _loaded_by_library()
    assert not stale, f"the library now uses these; drop them from ORACLES: {sorted(stale)}"
