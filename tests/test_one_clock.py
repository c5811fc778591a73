"""One clock in the library: ``experiment._stage`` is the only code in
``src/adjpod`` that references ``perf_counter``, so every wall time a run
reports is a stage time taken the same way."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "adjpod"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _clock_sites(source: str) -> list:
    """(enclosing scope, line) of every reference to ``perf_counter`` (or
    ``perf_counter_ns``): an attribute, a bare name or an imported name."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            name = (child.attr if isinstance(child, ast.Attribute) else
                    child.id if isinstance(child, ast.Name) else
                    child.name if isinstance(child, ast.alias) else "")
            if name.startswith("perf_counter"):
                sites.append((".".join(scope), child.lineno))
            visit(child, scope + (child.name,) if isinstance(child, SCOPES) else scope)

    visit(ast.parse(source), ())
    return sites


def test_perf_counter_is_referenced_only_in_the_stage_guard():
    where = {f"{path.stem}.{scope}": line for path in sorted(PACKAGE.glob("*.py"))
             for scope, line in _clock_sites(path.read_text())}
    assert set(where) == {"experiment._stage"}, where


def test_a_decoy_clock_is_caught():
    source = ("import time\n"
              "from time import perf_counter as tick\n"
              "class Run:\n"
              "    def go(self):\n"
              "        return time.perf_counter_ns()\n")
    assert _clock_sites(source) == [("", 2), ("Run.go", 5)]
