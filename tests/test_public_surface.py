"""Every name ``adjpod/__init__.py`` exports, and every member of a package
class, is used by the library itself.

A name counts as used when some package module other than ``__init__``
loads it, as a bare name or as an attribute; a class member (method,
property or annotated field) counts as used when such a module reads an
attribute of that name.  The only exceptions are the test oracles in
``ORACLES`` and ``ORACLE_MEMBERS``: checks, readers and factors the tests
hold the pipeline against, which the pipeline has no reason to read.  So an
export or a member that nothing reaches is either deleted or named here
with its reason.
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
    "tikhonov_direct",      # recovery from a full field: README's library use, study 4.7's test
)

ORACLE_MEMBERS = (
    "Trajectory.n_states",              # frozen lean-loop reference (tests/test_lean_loops.py)
    "SpectralCoefficients.synthesize",  # spectral oracle: the modal sum as a nodal field
    "ReducedModel.m_r",                 # reduced mass; kept by ROADMAP's "Decided" list
    "TheoryMatrices.phi",               # tests/test_verify.py reads the factorization
    "TheoryMatrices.f",                 # tests/test_verify.py reads the factorization
)


def _exported() -> set:
    """Names ``__init__`` re-exports from the package modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _library_trees() -> list:
    """Parsed modules of the package besides ``__init__``."""
    return [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"]


def _loaded_by_library(attributes_only: bool = False) -> set:
    """Names and attributes loaded anywhere in the modules besides ``__init__``."""
    loaded = set()
    for tree in _library_trees():
        for node in ast.walk(tree):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Attribute):
                loaded.add(node.attr)
            elif isinstance(node, ast.Name) and not attributes_only:
                loaded.add(node.id)
    return loaded


def _class_members() -> dict:
    """``"Class.member"`` -> member name for every method, property and
    annotated field of the package's classes; dunder methods excluded."""
    members = {}
    for tree in _library_trees():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    name = node.target.id
                else:
                    continue
                if not (name.startswith("__") and name.endswith("__")):
                    members[f"{cls.name}.{name}"] = name
    return members


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


def test_the_class_members_are_found():
    members = _class_members()
    assert {"Grid2D.nx", "PodBasis.coefficients", "ReducedModel.spectrum",
            "ExperimentConfig.final_time"} <= set(members)


def test_every_class_member_is_read_by_the_library_or_is_a_named_oracle():
    read = _loaded_by_library(attributes_only=True)
    unread = {key for key, name in _class_members().items()
              if name not in read} - set(ORACLE_MEMBERS)
    assert not unread, f"class members no library code reads: {sorted(unread)}"


def test_every_oracle_member_exists_and_is_unread_by_the_library():
    members = _class_members()
    assert len(set(ORACLE_MEMBERS)) == len(ORACLE_MEMBERS)
    missing = set(ORACLE_MEMBERS) - set(members)
    assert not missing, f"no such class member: {sorted(missing)}"
    read = _loaded_by_library(attributes_only=True)
    stale = {key for key in ORACLE_MEMBERS if members[key] in read}
    assert not stale, f"the library now reads these; drop them from ORACLE_MEMBERS: {sorted(stale)}"
