"""Data-driven model reduction for parabolic inverse problems.

The package recovers a time-independent source term (or an initial state)
of a heat-type equation from final-time point measurements.  Instead of
projecting onto a basis built from the unknown truth, it drives an
auxiliary parabolic solve with the measured data itself and extracts the
reduction basis from those snapshots, then performs Tikhonov-regularized
inversion in the reduced space.
"""

from .fem import (CoefficientSet, DiscreteOperators, TimeGrid, Trajectory,
                  assemble_operators, solve_forward)
from .grid import DOMAIN_SIDE, Grid2D, build_grid
from .inversion import (InverseConfig, MeasurementSet, Sampling, add_noise,
                        denoise, descent_step_bound, gradient_of_J,
                        h2_norm_estimate, laplacian_stencil, sampling,
                        select_alpha, tikhonov_direct,
                        tikhonov_direct_reduced,
                        tikhonov_gradient_descent_reduced, tikhonov_objective)
from .pod import (PodBasis, SnapshotSet, collect_snapshots, compute_pod_basis,
                  correlation_matrix, principal_angles, projection_error_ratio,
                  snapshot_steps)
from .reduced import (ReducedModel, build_adjoint_pod, build_reduced_model,
                      build_traditional_pod, drive, reduced_solve,
                      snapshot_set, spod_matrix)
from .experiment import (ExperimentConfig, StageError, auto_lambda,
                         build_problem, detector_nodes,
                         hminus1_surrogate_error, load_config,
                         parse_coefficient, parse_detector_spec,
                         relative_l2_error, run_experiment)
from .serialize import (read_field_csv, read_json, read_matrix_csv,
                        read_measurements_csv, write_field_csv, write_json,
                        write_matrix_csv, write_measurements_csv,
                        write_pod_basis, write_reduced_model)
from .shapes import list_shapes, make_shape
from .spectral import (ProblemKind, SpectralCoefficients,
                       adjoint_response_factor, distinct_mu_subset,
                       eigenvalue, laplace_eigenpair, mode_table,
                       project_onto_modes, spectral_solution)
from .verify import (TheoryMatrices, build_theory_matrices, verify_pod_bound,
                     verify_span_equality)

__version__ = "0.1.0"
