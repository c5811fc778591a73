"""The benchmark's workloads: which configs each batch runs, and how its
outputs are checked.

A *batch* is one fresh worker process that runs a workload's configs one
after the other through ``adjpod.run_experiment`` (a closed loop: a run
starts only after the previous one finished).  The workload seed only
offsets the measurement-noise seeds; the program receives the resulting
configs and nothing else.

Why these three workloads
-------------------------
``noise_study``
    Acceptance criterion 8 at desk scale (33x33 nodes, M=100): source
    ``sin2exp`` and backward ``sin2``, noise 10/25/50 %, five noise seeds
    each, direct Tikhonov with automatic alpha and lambda.  Thirty short
    runs share the grid, the operators and the truth trajectory, so per-run
    fixed costs dominate: POD (a fifth of it the inverse-crime basis),
    ``solve_forward``, the H^-1 surrogate, CSV writes and ``denoise``.  It
    is the only workload where a cross-run memo or multi-RHS batching can
    show.
``stretch_source``
    One source recovery of ``sin2exp`` at 101x101, M=400, 10 % noise,
    direct mode, in its own process.  Nothing repeats inside a batch, so a
    memo must show no gain here, only its memory and set-up cost.  The two
    ``solve_forward`` calls take about 70 % of the run: this is where the
    time-stepping kernel shows.
``gradient_backward``
    Noise-free backward recovery by gradient descent at desk scale, once
    for each of the five catalog shapes.  Gradient descent (tens of
    thousands of ``spod_matrix`` calls; both glyphs and ``sin2exp`` hit
    ``max_iters``) dominates, so a faster spectral filter shows here,
    while the stepping kernel and a memo barely matter.

Checks
------
Every run's ``rel_l2_error`` must be finite and lie within a relative
tolerance of the reference recorded in ``references.json`` for its case
(see ``record_references.py``).  Noise-free cases are deterministic and get
a tight tolerance; noisy cases get a band wide enough for any noise seed.
``noise_study`` also applies the acceptance-8 predicates per problem kind:
the medians over seeds are finite, the median at 50 % noise is at most 1,
and the median at 10 % is at most the median at 50 %.  A run that raises
or fails a check counts as failed; the batch goes on.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES_PATH = os.path.join(HERE, "references.json")

NOISE_LEVELS = (0.10, 0.25, 0.50)
NOISE_SEEDS_PER_LEVEL = 5
NOISE_STUDY_CASES = (("source", "sin2exp"), ("backward", "sin2"))
CATALOG_SHAPES = ("glyphA", "glyphZ", "sin1", "sin2", "sin2exp")

# Relative tolerance on rel_l2_error against the recorded reference.
# Noise-free runs are deterministic; 1e-3 leaves room for floating-point
# reordering in a faster kernel but not for a changed result.  Noisy runs
# depend on the noise seed; the band is set in record_references.py from
# the spread over many seeds, with a wide margin.
NOISE_FREE_RTOL = 1e-3


def case_key(cfg: dict) -> str:
    """Reference lookup key: every config field except the noise seed."""
    return "{kind}/{truth}/{nx}x{ny}/M{M}/p{noise:.2f}/{mode}".format(**cfg)


@dataclass(frozen=True)
class Workload:
    name: str
    make_configs: Callable[[int], List[dict]]
    # spans of the trace that this workload never enters; every other span
    # must record at least one call in a traced batch
    idle_spans: FrozenSet[str]
    # predicate over the whole batch: (configs, errors) -> per-run verdicts
    batch_check: Optional[Callable[[Sequence[dict], Sequence[float]], List[bool]]] = None


def _noise_study_configs(seed: int) -> List[dict]:
    configs = []
    for kind, truth in NOISE_STUDY_CASES:
        for p in NOISE_LEVELS:
            for i in range(NOISE_SEEDS_PER_LEVEL):
                configs.append(dict(kind=kind, truth=truth, nx=33, ny=33, M=100,
                                    noise=p, seed=seed * NOISE_SEEDS_PER_LEVEL + i,
                                    basis="adjoint", alpha="auto", lam="auto",
                                    n_pod=9, mode="direct"))
    return configs


def _stretch_source_configs(seed: int) -> List[dict]:
    return [dict(kind="source", truth="sin2exp", nx=101, ny=101, M=400,
                 noise=0.10, seed=seed, basis="adjoint", alpha="auto",
                 lam="auto", n_pod=9, mode="direct")]


def _gradient_backward_configs(seed: int) -> List[dict]:
    return [dict(kind="backward", truth=shape, nx=33, ny=33, M=100, noise=0.0,
                 seed=seed, basis="adjoint", alpha="auto", lam="auto", n_pod=9,
                 mode="gradient")
            for shape in CATALOG_SHAPES]


def acceptance8_check(configs: Sequence[dict], errors: Sequence[float]) -> List[bool]:
    """Acceptance-8 predicates per problem kind; returns, per run, whether
    the predicate of its kind holds.  A NaN error (failed run) makes the
    medians of its kind non-finite."""
    verdict = {}
    for kind, _ in NOISE_STUDY_CASES:
        medians = {}
        for p in NOISE_LEVELS:
            errs = [e for c, e in zip(configs, errors)
                    if c["kind"] == kind and c["noise"] == p]
            medians[p] = (statistics.median(errs)
                          if errs and all(map(math.isfinite, errs)) else math.nan)
        verdict[kind] = (all(math.isfinite(m) for m in medians.values())
                         and medians[0.50] <= 1.0
                         and medians[0.10] <= medians[0.50])
    return [verdict[c["kind"]] for c in configs]


_GRADIENT_IDLE = frozenset({"inversion.h2_norm_estimate", "inversion.denoise",
                            "inversion.tikhonov_direct_reduced"})
_DIRECT_IDLE = frozenset({"inversion.tikhonov_gradient_descent_reduced"})

WORKLOADS: Dict[str, Workload] = {
    "noise_study": Workload("noise_study", _noise_study_configs, _DIRECT_IDLE,
                            acceptance8_check),
    "stretch_source": Workload("stretch_source", _stretch_source_configs,
                               _DIRECT_IDLE),
    "gradient_backward": Workload("gradient_backward", _gradient_backward_configs,
                                  _GRADIENT_IDLE),
}


def load_references() -> Dict[str, Tuple[float, float]]:
    """case key -> (reference rel_l2_error, relative tolerance)."""
    with open(REFERENCES_PATH) as fh:
        raw = json.load(fh)
    return {key: (entry["rel_l2_error"], entry["rtol"]) for key, entry in raw.items()}


def error_within_reference(cfg: dict, error: float,
                           references: Dict[str, Tuple[float, float]]) -> bool:
    key = case_key(cfg)
    if key not in references:
        raise KeyError(f"no reference rel_l2_error recorded for case {key}")
    ref, rtol = references[key]
    return math.isfinite(error) and abs(error - ref) <= rtol * abs(ref)
