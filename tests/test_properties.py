"""Property tests: POD modes of random snapshot sets are mass-orthonormal,
and field, matrix and measurement CSVs round-trip bit for bit.

The snapshot sets span several decades of energy and may be rank deficient,
so the rank cutoff and the re-orthonormalization pass are both exercised.
The CSV values are any finite doubles, subnormals and -0.0 included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjpod import (CoefficientSet, MeasurementSet, assemble_operators, build_grid,
                    compute_pod_basis, read_field_csv, read_matrix_csv,
                    read_measurements_csv, write_field_csv, write_matrix_csv,
                    write_measurements_csv)

FINITE = st.floats(allow_nan=False, allow_infinity=False)


@pytest.fixture(scope="module")
def ops():
    return assemble_operators(build_grid(9, 7), CoefficientSet(q=1.0, c=0.0))


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("roundtrip") / "data.csv"


def _bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=float).tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       count=st.integers(1, 15),
       rank=st.integers(1, 15),
       decades=st.floats(0.0, 10.0),
       n_modes=st.integers(1, 20))
def test_pod_modes_of_random_snapshots_are_mass_orthonormal(ops, seed, count, rank,
                                                            decades, n_modes):
    rng = np.random.default_rng(seed)
    rank = min(rank, count)
    # count snapshots spanning a rank-dimensional space whose directions
    # carry energies spread over `decades` decades
    scales = np.logspace(0.0, -decades, rank)
    Y = rng.standard_normal((count, rank)) @ (scales[:, None]
                                              * rng.standard_normal((rank, ops.grid.n_nodes)))
    basis = compute_pod_basis(Y, n_modes=n_modes, ops=ops)
    assert basis.n_pod == min(n_modes, basis.retained_rank)
    assert 1 <= basis.retained_rank <= rank
    assert basis.psi.shape == (ops.grid.n_nodes, basis.n_pod)
    gram = basis.psi.T @ (ops.mass @ basis.psi)
    assert np.max(np.abs(gram - np.eye(basis.n_pod))) <= 1e-10
    assert np.all(np.diff(basis.eigenvalues) <= 0) and basis.eigenvalues[-1] >= 0
    assert 0.0 <= basis.rho <= 1.0


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(3, 8), ny=st.integers(3, 8), data=st.data())
def test_a_field_csv_round_trips_bit_for_bit(csv_path, nx, ny, data):
    grid = build_grid(nx, ny)
    values = np.array(data.draw(st.lists(FINITE, min_size=grid.n_nodes,
                                         max_size=grid.n_nodes)))
    write_field_csv(csv_path, grid, values)
    read_grid, read_values = read_field_csv(csv_path)
    assert (read_grid.nx, read_grid.ny) == (nx, ny)
    assert _bits(read_values) == _bits(values)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 6), cols=st.integers(1, 6), data=st.data())
def test_a_matrix_csv_round_trips_bit_for_bit(csv_path, rows, cols, data):
    matrix = np.array(data.draw(st.lists(FINITE, min_size=rows * cols,
                                         max_size=rows * cols))).reshape(rows, cols)
    write_matrix_csv(csv_path, matrix)
    read = read_matrix_csv(csv_path)
    assert read.shape == (rows, cols)
    assert _bits(read) == _bits(matrix)


@settings(max_examples=60, deadline=None)
@given(table=st.lists(st.tuples(FINITE, FINITE, FINITE), max_size=8))
def test_a_measurements_csv_round_trips_bit_for_bit(csv_path, table):
    data = np.array(table, dtype=float).reshape(-1, 3)
    ms = MeasurementSet(detectors=data[:, :2], readings=data[:, 2], sigma=0.0)
    write_measurements_csv(csv_path, ms)
    detectors, readings = read_measurements_csv(csv_path)
    assert detectors.shape == (len(table), 2) and readings.shape == (len(table),)
    assert _bits(detectors) == _bits(ms.detectors)
    assert _bits(readings) == _bits(ms.readings)
