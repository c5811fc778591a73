"""Every name a package module imports is used in that module.

``__init__.py`` is exempt (its imports are the public re-exports), and so
is an import line marked ``# noqa: F401``, but only for a binding that the
benchmark trace wraps: every name such a line binds must be a lookup site
listed in ``perfbench/spans.py``'s ``SPANS``, so the exemption cannot keep
a dead import alive.
"""

import ast
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "adjpod"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.AST, lines: list, exempt: bool = False) -> dict:
    """Bound name -> line of every import not marked ``noqa: F401`` (of
    every import so marked when ``exempt``)."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        marked = any("noqa: F401" in lines[i - 1]
                     for i in range(node.lineno, node.end_lineno + 1))
        if marked != exempt:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            names[bound] = node.lineno
    return names


def _traced_sites() -> set:
    """Every lookup site ("module.attr") in ``perfbench/spans.py``'s SPANS;
    the file is loaded, not changed."""
    spec = importlib.util.spec_from_file_location("perfbench_spans_sites",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {site for _, _, sites in spans.SPANS.values() for site in sites}


def _untraced_exemptions(module: str, source: str, sites: set) -> dict:
    """Names bound by ``noqa: F401`` imports of ``adjpod.<module>`` that no
    span of the trace looks up there -> their lines."""
    marked = _imported(ast.parse(source), source.splitlines(), exempt=True)
    return {name: line for name, line in marked.items()
            if f"adjpod.{module}.{name}" not in sites}


def _used(tree: ast.AST) -> set:
    """Names loaded anywhere, including inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return used


def test_the_package_modules_are_found():
    assert {"pod.py", "reduced.py", "spectral.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    source = path.read_text()
    tree = ast.parse(source)
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree, source.splitlines()).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_exempt_import_is_a_traced_lookup_site(path):
    untraced = _untraced_exemptions(path.stem, path.read_text(), _traced_sites())
    assert not untraced, f"{path.name}: noqa: F401 imports no span looks up {untraced}"


def test_a_decoy_exempt_import_is_caught():
    source = ("from .fem import solve_forward  # noqa: F401 - traced\n"
              "from .pod import snapshot_steps  # noqa: F401 - decoy\n")
    untraced = _untraced_exemptions("experiment", source, _traced_sites())
    assert untraced == {"snapshot_steps": 2}
