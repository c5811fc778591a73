"""The CLI takes its sizes and its shared defaults from the config.

A command given no size runs at the config's desk scale, there is no
``--full-scale`` (``--nx``/``--ny``/``--M`` or ``--set grid.nx=...`` set
any scale), and each flag that sets a run setting defaults to the config's
value.  The commands stop at the call that would build the problem or
start the run, which records the sizes it was given.
"""

import pytest

from adjpod import cli
from adjpod.experiment import ExperimentConfig


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
DESK = (ExperimentConfig.nx, ExperimentConfig.ny, ExperimentConfig.M)


@pytest.mark.parametrize("command", COMMANDS)
def test_full_scale_is_the_study_scale(sizes, command):
    """A command given no size runs at the desk scale, the only scale the
    CLI names; the test keeps the id it had when a flag named a second."""
    assert _sizes_of(sizes, COMMANDS[command]) == DESK


@pytest.mark.parametrize("command", COMMANDS)
def test_no_command_takes_a_full_scale_flag(capsys, command):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(COMMANDS[command] + ["--full-scale"])
    assert "--full-scale" in capsys.readouterr().err


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
