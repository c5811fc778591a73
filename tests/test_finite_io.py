"""Non-finite readings and noise levels, and non-finite values in the CSV
readers, are rejected with a message that names the value or the file
and line."""

import math

import numpy as np
import pytest

from adjpod import (MeasurementSet, add_noise, build_grid, read_field_csv,
                    read_matrix_csv, read_measurements_csv, write_field_csv,
                    write_matrix_csv, write_measurements_csv)

BAD = (math.nan, math.inf, -math.inf)


def _detectors(n=4):
    return np.column_stack([np.linspace(0.5, 2.5, n), np.full(n, 1.0)])


@pytest.mark.parametrize("bad", BAD)
def test_add_noise_rejects_a_non_finite_reading(bad):
    clean = np.array([0.1, 0.2, bad, 0.4])
    with pytest.raises(ValueError, match=f"clean readings must be finite, got {bad} at index 2"):
        add_noise(_detectors(), clean, 0.1, seed=0)


@pytest.mark.parametrize("bad", BAD)
def test_add_noise_rejects_a_non_finite_noise_level(bad):
    with pytest.raises(ValueError, match=f"noise level must be finite and >= 0, got {bad}"):
        add_noise(_detectors(), np.ones(4), bad, seed=0)


def test_add_noise_rejects_a_non_finite_detector():
    detectors = _detectors()
    detectors[1, 1] = math.nan
    with pytest.raises(ValueError, match="detector coordinates must be finite, got nan"):
        add_noise(detectors, np.ones(4), 0.1, seed=0)


@pytest.mark.parametrize("bad", BAD)
def test_read_field_csv_names_the_file_and_line(tmp_path, bad):
    grid = build_grid(5, 4)
    values = np.zeros(grid.n_nodes)
    values[2 * grid.nx + 1] = bad        # third table row: line 5 of the file
    path = tmp_path / "field.csv"
    write_field_csv(path, grid, values)
    with pytest.raises(ValueError, match=f"field.csv:5: non-finite value {bad}"):
        read_field_csv(path)


@pytest.mark.parametrize("bad", BAD)
def test_read_matrix_csv_names_the_file_and_line(tmp_path, bad):
    path = tmp_path / "matrix.csv"
    write_matrix_csv(path, np.array([[1.0, 2.0], [3.0, bad]]))
    with pytest.raises(ValueError, match=f"matrix.csv:2: non-finite value {bad}"):
        read_matrix_csv(path)


def test_read_matrix_csv_counts_blank_lines(tmp_path):
    path = tmp_path / "matrix.csv"
    path.write_text("1,2\n\n3,nan\n")
    with pytest.raises(ValueError, match="matrix.csv:3: non-finite value nan"):
        read_matrix_csv(path)


@pytest.mark.parametrize("bad", BAD)
def test_read_measurements_csv_names_the_file_and_line(tmp_path, bad):
    readings = np.array([0.1, bad, 0.3, 0.4])
    ms = MeasurementSet(detectors=_detectors(), readings=readings, sigma=0.0,
                        p=0.0, seed=None)
    path = tmp_path / "meas.csv"
    write_measurements_csv(path, ms)
    with pytest.raises(ValueError, match=f"meas.csv:3: non-finite value {bad}"):
        read_measurements_csv(path)
