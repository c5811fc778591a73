"""One sampling operator reads every field at the detectors.

``inversion.sampling(grid, points)`` snaps the points to grid nodes and
builds the 0/1 sampling matrix; ``Sampling.read`` gathers a field at those
nodes.  No other code of ``src/adjpod`` snaps points to nodes, builds a 0/1
sparse matrix or indexes an array by detector nodes, so a new reading of a
field at detectors (a finer grid's state, a recovered field, points read
from a file) goes through the one operator.  The AST checks below are shown
to fire on the sampling code itself, so a check that matches nothing cannot
pass by accident.
"""

import ast
import pathlib

import numpy as np
import pytest

import adjpod
from adjpod import build_grid, inversion, sampling

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "adjpod"
SPARSE_BUILDERS = {"coo_matrix", "csr_matrix", "csc_matrix", "coo_array", "csr_array",
                   "csc_array"}


def _name(node) -> str:
    """The trailing name of a call target or subscript base: ``sp.coo_matrix``
    gives ``coo_matrix``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _mentions(node, names=(), attrs=(), calls=()) -> bool:
    """Whether ``node`` loads one of ``names``, reads one of ``attrs`` or
    calls one of ``calls``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in names:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in attrs:
            return True
        if isinstance(sub, ast.Call) and _name(sub.func) in calls:
            return True
    return False


def _detector_node_names(tree) -> set:
    """Names bound directly to ``detector_nodes(...)``."""
    return {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call) and _name(node.value.func) == "detector_nodes"
            for target in node.targets if isinstance(target, ast.Name)}


def _violations(tree) -> list:
    """(line, what) of every detector sampling step found in ``tree``."""
    found = []
    node_names = _detector_node_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node.func) in SPARSE_BUILDERS:
            if node.args and _mentions(node.args[0], calls=("ones",)):
                found.append((node.lineno, "builds a 0/1 sampling matrix"))
        elif isinstance(node, ast.Call) and _name(node.func) == "rint":
            if _mentions(node, attrs=("hx", "hy", "h")):
                found.append((node.lineno, "snaps points to grid nodes"))
        elif isinstance(node, ast.Name) and node.id == "_SNAP_TOL" \
                and isinstance(node.ctx, ast.Load):
            found.append((node.lineno, "reads the snapping tolerance"))
        elif isinstance(node, ast.Subscript) and _mentions(
                node.slice, names=node_names, attrs=("nodes",), calls=("detector_nodes",)):
            found.append((node.lineno, "indexes an array by detector nodes"))
    return found


def _is_sampling_code(node) -> bool:
    return (isinstance(node, ast.ClassDef) and node.name == "Sampling") or \
        (isinstance(node, ast.FunctionDef) and node.name == "sampling")


def _modules() -> dict:
    return {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_only_the_sampling_operator_samples_fields_at_detectors():
    outside = []
    for name, tree in _modules().items():
        for top in tree.body:
            if not _is_sampling_code(top):
                outside += [f"{name}:{line}: {what}" for line, what in _violations(top)]
    assert not outside, outside


def test_the_checks_fire_on_the_sampling_operator():
    tree = _modules()["inversion.py"]
    inside = [top for top in tree.body if _is_sampling_code(top)]
    assert len(inside) == 2
    found = {what for top in inside for _, what in _violations(top)}
    assert found == {"builds a 0/1 sampling matrix", "snaps points to grid nodes",
                     "reads the snapping tolerance", "indexes an array by detector nodes"}


def test_the_checks_fire_on_an_index_by_layout_nodes():
    tree = ast.parse("nodes = detector_nodes(grid, spec)\nclean = u[nodes]\n"
                     "again = u[layout.nodes]\nsp.csr_matrix((np.ones(n), (rows, nodes)))\n")
    assert sorted(line for line, _ in _violations(tree)) == [2, 3, 4]


def test_snap_detectors_to_nodes_is_gone():
    assert not hasattr(adjpod, "snap_detectors_to_nodes")
    assert not hasattr(inversion, "snap_detectors_to_nodes")
    for name, tree in _modules().items():
        assert not _mentions(tree, names=("snap_detectors_to_nodes",),
                             attrs=("snap_detectors_to_nodes",)), name


def test_a_reading_is_the_sampling_matrix_product_and_keeps_signed_zeros():
    grid = build_grid(9, 7)
    nodes = np.array([10, 11, 30, 10, 52])
    layout = sampling(grid, grid.coords[nodes])
    assert np.array_equal(layout.nodes, nodes)
    u = np.random.default_rng(0).standard_normal(grid.n_nodes)
    u[30] = -0.0
    read = layout.read(u)
    assert np.array_equal(read, layout.P @ u)
    assert np.signbit(read[2])
    assert layout.P.shape == (5, grid.n_nodes) and set(layout.P.data) == {1.0}
    assert not layout.points.flags.writeable and not layout.nodes.flags.writeable


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_point_is_rejected_not_snapped(bad):
    grid = build_grid(9, 9)
    with pytest.raises(ValueError, match=f"detector coordinates must be finite, got {bad}"):
        sampling(grid, [[1.0, 2.0], [bad, 0.0]])


def test_denoise_reads_only_readings_on_its_sampling_points():
    grid = build_grid(9, 9)
    layout = sampling(grid, grid.coords[grid.interior])
    other = adjpod.add_noise(grid.coords[grid.interior[::-1]], np.ones(49), 0.0)
    with pytest.raises(ValueError, match="not the sampling's points"):
        adjpod.denoise(other, layout, 1e-6)
