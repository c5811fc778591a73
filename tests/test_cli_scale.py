"""The CLI takes its study scale and its shared defaults from the config.

``--full-scale`` resolves to ``STUDY_SCALE`` on every command that has it,
an explicit size (``--nx`` or ``--set grid.nx=...``) wins over the scale,
and each flag that sets a run setting defaults to the config's value.  The
commands stop at the call that would build the problem or start the run,
which records the sizes it was given.
"""

import pytest

from adjpod import cli
from adjpod.experiment import STUDY_SCALE, ExperimentConfig


class _Stop(Exception):
    pass


@pytest.fixture
def sizes(monkeypatch):
    """(nx, ny, M) of the problem or run each command was about to start."""
    seen = []

    def problem(kind, nx, ny, T, M, q, c):
        seen.append((nx, ny, M))
        raise _Stop

    def run(cfg, out_dir=None):
        seen.append((cfg.nx, cfg.ny, cfg.M))
        raise _Stop

    monkeypatch.setattr(cli, "build_problem", problem)
    monkeypatch.setattr(cli, "run_experiment", run)
    return seen


def _sizes_of(sizes, argv) -> tuple:
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(_Stop):
        args.handler(args)
    return sizes.pop()


COMMANDS = {
    "forward": ["forward", "--input", "sin1"],
    "adjoint-pod": ["adjoint-pod", "--data", "sin1"],
    "invert": ["invert"],
}
STUDY = (STUDY_SCALE["nx"], STUDY_SCALE["ny"], STUDY_SCALE["M"])
DESK = (ExperimentConfig.nx, ExperimentConfig.ny, ExperimentConfig.M)


@pytest.mark.parametrize("command", COMMANDS)
def test_full_scale_is_the_study_scale(sizes, command):
    assert _sizes_of(sizes, COMMANDS[command] + ["--full-scale"]) == STUDY
    assert _sizes_of(sizes, COMMANDS[command]) == DESK


@pytest.mark.parametrize("argv", [COMMANDS["forward"] + ["--nx", "25"],
                                  COMMANDS["adjoint-pod"] + ["--nx", "25"],
                                  COMMANDS["invert"] + ["--set", "grid.nx=25"]])
def test_an_explicit_size_wins_over_the_scale(sizes, argv):
    assert _sizes_of(sizes, argv + ["--full-scale"]) == (25,) + STUDY[1:]


@pytest.mark.parametrize("argv,flags", [
    (COMMANDS["forward"], ("kind", "q", "c")),
    (COMMANDS["adjoint-pod"], ("kind", "n_pod", "max_snapshots", "energy", "q", "c")),
    (["denoise", "--measurements", "m.csv"], ("nx", "ny", "q", "c", "alpha")),
    (["verify-theory"], ("nx", "ny")),
])
def test_flag_defaults_are_the_config_defaults(argv, flags):
    args = cli.build_parser().parse_args(argv)
    for name in flags:
        assert getattr(args, name) == getattr(ExperimentConfig(), name), name


def test_verify_theory_has_no_profile_flag(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["verify-theory", "--profile", "flat"])
    assert "--profile" in capsys.readouterr().err
