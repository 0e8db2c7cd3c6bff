import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from xml.etree import ElementTree

import numpy as np
import pytest

from diskdyn import cli, conjugation, dynamics, maps


def run(tmp_path, command, cfg=None, extra=()):
    argv = [command]
    if cfg is not None:
        path = os.path.join(tmp_path, "config.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        argv += ["--config", path]
    argv += ["--out", str(tmp_path)] + list(extra)
    return cli.main(argv)


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().strip().split("\n")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


PARABOLIC = {"map": {"family": "HalfplaneAffine", "lam": 1.0, "b": [0.0, 1.0]},
             "start": [1.0, 0.0], "n_max": 5000}


def test_classify_command(tmp_path):
    code = run(tmp_path, "classify", PARABOLIC)
    assert code == 0
    with open(tmp_path / "classify.json") as fh:
        out = json.load(fh)
    assert out["type"] == "parabolic"
    assert abs(out["multiplier_c"] - 1.0) < 1e-3
    assert out["dw_location"] == "boundary"


def test_classify_hyperbolic_exit_zero(tmp_path):
    cfg = {"map": {"family": "HalfplaneAffine", "lam": 2.0, "b": [0.0, 0.0]}}
    assert run(tmp_path, "classify", cfg) == 0
    with open(tmp_path / "classify.json") as fh:
        assert json.load(fh)["type"] == "hyperbolic"


def test_orbit_command_csv(tmp_path):
    code = run(tmp_path, "orbit", dict(PARABOLIC, n_max=20))
    assert code == 0
    header, rows = read_csv(tmp_path / "orbit.csv")
    assert header == ["n", "re", "im"]
    assert len(rows) == 21
    # z + i from 1: row n is 1 + n i, printed with 17 significant digits
    assert rows[5][1] == "1" and float(rows[5][2]) == 5.0


def test_steps_command(tmp_path):
    code = run(tmp_path, "steps", dict(PARABOLIC, n_max=2000))
    assert code == 0
    header, rows = read_csv(tmp_path / "steps.csv")
    assert header[-1] == "s_n"
    assert float(rows[0][-1]) == pytest.approx(1.0 / np.sqrt(5.0), abs=1e-12)
    assert rows[-1][-1] == ""  # no step out of the final point


def test_steps_inconclusive_exit_code(tmp_path):
    cfg = dict(PARABOLIC, n_max=2000, tolerances={"tol_step": 0.1})
    assert run(tmp_path, "steps", cfg) == cli.EXIT_INCONCLUSIVE


def test_approach_command(tmp_path):
    cfg = {"map": {"family": "SiegelTranslation", "b": [1.0, 0.0]},
           "start": [[1.0, 0.0], [0.3, 0.0]], "n_max": 5000}
    assert run(tmp_path, "approach", cfg) == 0
    header, rows = read_csv(tmp_path / "approach.csv")
    assert header[-4:] == ["koranyi_q", "special_ratio", "nt_q", "radial_q"]
    assert float(rows[10][-3]) < 1e-2  # special ratio decays


def test_approach_command_on_a_half_plane_config(tmp_path, capsys):
    # z -> z + 1 from 1 runs along the real axis: read at infinity, it is restricted
    cfg = {"map": {"family": "HalfplaneAffine", "lam": 1.0, "b": [1.0, 0.0]},
           "start": [1.0, 0.0], "n_max": 2000}
    assert run(tmp_path, "approach", cfg) == 0
    assert "special=True restricted=True" in capsys.readouterr().out
    header, rows = read_csv(tmp_path / "approach.csv")
    assert header == ["n", "re", "im", "koranyi_q", "special_ratio", "nt_q", "radial_q"]
    assert len(rows) == 2001 and {r[4] for r in rows} == {"0"}


_APPROACH = {"map": {"family": "SiegelTranslation", "b": [1.0, 0.0]},
             "start": [[1.0, 0.0], [0.3, 0.0]], "n_max": 2000}


def test_approach_reads_every_budgets_threshold(tmp_path, capsys):
    assert run(tmp_path, "approach", _APPROACH) == 0
    default = capsys.readouterr().out
    assert "special=True restricted=True in_koranyi=True" in default
    # the Koranyi quotient is at least 1 and the special ratio is positive off w = 0
    tight = dict(_APPROACH, tolerances={"m_cap": 0.5, "tol_ratio": 1e-30})
    assert run(tmp_path, "approach", tight) == 0
    flags = capsys.readouterr().out
    assert "special=False restricted=False in_koranyi=False nontangential=False" in flags
    assert "koranyi_M=inf" in flags
    every = {f.name: getattr(dynamics.Budgets(), f.name)
             for f in dataclasses.fields(dynamics.Budgets) if f.name != "n_max"}
    assert run(tmp_path, "approach", dict(_APPROACH, tolerances=every)) == 0
    assert capsys.readouterr().out == default


@pytest.mark.parametrize("tolerances", [{"bogus": 1}, {"tol_step": 1e-3, "n_max": 10}])
def test_an_unknown_tolerance_is_a_config_error(tmp_path, capsys, tolerances):
    assert run(tmp_path, "approach", dict(_APPROACH, tolerances=tolerances)) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "config error: unknown tolerances" in err
    assert "tol_ratio" in err and "m_cap" in err  # the message lists the thresholds
    assert not (tmp_path / "approach.csv").exists()


def test_conjugate_command(tmp_path):
    cfg = {"map": {"family": "HalfplaneAffine", "lam": 1.0, "b": [0.0, 1.0]},
           "checkpoints": [100, 1000]}
    assert run(tmp_path, "conjugate", cfg) == 0
    assert (tmp_path / "conjugation_n100.csv").exists()
    assert (tmp_path / "conjugation_n1000.csv").exists()
    text = (tmp_path / "conjugation_summary.txt").read_text()
    assert "pommerenke" in text


def test_conjugate_rejects_hyperbolic(tmp_path):
    cfg = {"map": {"family": "HalfplaneAffine", "lam": 2.0, "b": [0.0, 0.0]},
           "checkpoints": [100]}
    assert run(tmp_path, "conjugate", cfg) == cli.EXIT_INCONCLUSIVE


_CONJUGATE = {"map": {"family": "HalfplaneAffine", "lam": 1.0, "b": [0.0, 1.0]},
              "checkpoints": [100]}


@pytest.mark.parametrize("extra, message", [
    ({"kind": "pommerenkee"}, "unknown kind 'pommerenkee'"),
    ({"tolerances": {"bogus": 1}}, "unknown tolerances ['bogus']"),
    ({"n_max": -5}, "n_max must be >= 0"),
], ids=["kind", "tolerances", "n_max"])
def test_conjugate_checks_its_config(tmp_path, capsys, extra, message):
    assert run(tmp_path, "conjugate", dict(_CONJUGATE, **extra)) == cli.EXIT_USAGE
    assert f"config error: {message}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]


def test_harness_command_custom_suite(tmp_path):
    cfg = {
        "n_max": 20000,
        "suite": [
            {"map": {"family": "SiegelTranslation", "b": [1.0, 0.0]},
             "start": [[1.0, 0.0], [0.0, 0.0]]},
            {"map": {"family": "HeisenbergTranslation", "a": [[1.0, 0.0]], "b": 0.0},
             "start": [[2.0, 0.0], [0.0, 0.0]]},
        ],
    }
    assert run(tmp_path, "harness", cfg) == 0
    header, rows = read_csv(tmp_path / "harness.csv")
    assert len(rows) == 2
    assert {r[header.index("step_verdict")] for r in rows} == {"zero_step", "nonzero_step"}
    summary = (tmp_path / "harness_summary.txt").read_text()
    assert "failed: 0" in summary


def test_harness_skips_a_planar_row(tmp_path):
    # the half-plane row is read at infinity and passes; the disk row names no vertex
    cfg = {
        "n_max": 2000,
        "suite": [
            {"map": {"family": "HalfplaneAffine", "lam": 1.0, "b": [1.0, 0.0]},
             "start": [1.0, 0.0]},
            {"map": {"family": "Conjugated",
                     "inner": {"family": "HalfplaneAffine", "lam": 1.0, "b": [1.0, 0.0]}},
             "start": [0.2, 0.1]},
            {"map": {"family": "SiegelTranslation", "b": [1.0, 0.0]},
             "start": [[1.5, 0.0], [0.2, 0.0]]},
        ],
    }
    assert run(tmp_path, "harness", cfg) == 0
    header, rows = read_csv(tmp_path / "harness.csv")
    rec = [dict(zip(header, r)) for r in rows]
    assert [(r["skipped"], r["passed"]) for r in rec] == [
        ("False", "True"), ("True", "False"), ("False", "True")]
    assert rec[0]["step_verdict"] == "zero_step" and rec[0]["restricted"] == "True"
    assert rec[1]["notes"] == "disk and ball orbits need an explicit vertex X"
    summary = (tmp_path / "harness_summary.txt").read_text()
    assert "passed: 2 failed: 0 skipped: 1" in summary


def test_harness_csv_holds_the_deciding_statistics(tmp_path):
    cfg = {
        "n_max": 20000,
        "suite": [
            {"map": {"family": "SiegelTranslation", "b": [1.0, 0.0]},
             "start": [[1.0, 0.0], [0.3, 0.0]]},
            {"map": {"family": "HeisenbergTranslation", "a": [[1.0, 0.0]], "b": 0.0},
             "start": [[2.0, 0.0], [0.0, 0.0]]},
            {"map": {"family": "HalfplaneAffine", "lam": 2.0, "b": [0.0, 0.0]},
             "start": [1.0, 0.0]},
        ],
    }
    assert run(tmp_path, "harness", cfg) == 0
    header, rows = read_csv(tmp_path / "harness.csv")
    stats = ["special_ratio_tail_mean", "nt_tail_max", "koranyi_sup_tail",
             "euclid_nt_tail_max", "tangency_tail_max"]
    assert header[-5:] == stats
    rec = [dict(zip(header, r)) for r in rows]
    assert [r["restricted"] for r in rec] == ["True", "False", "None"]
    # the default thresholds: tol_ratio 1e-2 and m_cap 1e3
    for r in rec[:2]:
        restricted = float(r["special_ratio_tail_mean"]) < 1e-2 and float(r["nt_tail_max"]) < 1e3
        assert r["restricted"] == str(restricted)
    assert [rec[2][s] for s in stats] == [""] * 5


def test_probe_command(tmp_path):
    cfg = {"map": {"family": "HalfplaneAffine", "lam": 1.0, "b": [1.0, 0.0]},
           "n_max": 20000}
    assert run(tmp_path, "probe", cfg) == 0
    header, rows = read_csv(tmp_path / "probe.csv")
    assert header == ["start", "verdict", "d_inf_estimate"]
    assert all(r[1] == "zero_step" for r in rows)


def test_probe_precheck_agrees_with_classify(tmp_path, capsys):
    # z -> 2z has multiplier 0.5, in the parabolic band of tol_c 0.6: the
    # probe's precheck reads the config's tolerances as classify does
    cfg = {"map": {"family": "HalfplaneAffine", "lam": 2.0, "b": [0.0, 0.0]},
           "n_max": 2000, "tolerances": {"tol_c": 0.6}}
    assert run(tmp_path, "classify", cfg) == 0
    with open(tmp_path / "classify.json") as fh:
        assert json.load(fh)["type"] == "parabolic"
    assert run(tmp_path, "probe", cfg) == 0
    assert "need parabolic" not in capsys.readouterr().err
    _, rows = read_csv(tmp_path / "probe.csv")
    assert [r[1] for r in rows] == ["nonzero_step"] * 5


def test_n_max_zero_on_the_command_line(tmp_path):
    # 0 is a budget, not a missing option: the orbit is its start alone
    assert run(tmp_path, "orbit", dict(PARABOLIC, n_max=50), ["--n-max", "0"]) == 0
    _, rows = read_csv(tmp_path / "orbit.csv")
    assert len(rows) == 1


@pytest.mark.parametrize("cfg_n_max, extra", [(-1, ()), (50, ("--n-max", "-2"))])
def test_negative_n_max_is_a_config_error(tmp_path, capsys, cfg_n_max, extra):
    assert run(tmp_path, "orbit", dict(PARABOLIC, n_max=cfg_n_max), extra) == cli.EXIT_USAGE
    assert "config error: n_max" in capsys.readouterr().err
    assert not (tmp_path / "orbit.csv").exists()


_SIEGEL = {"family": "SiegelTranslation", "b": [1.0, 0.0]}
_OUTSIDE = [[0.1, 0.0], [1.0, 0.0]]  # Re z = 0.1 < ||w||^2 = 1


@pytest.mark.parametrize("command, cfg, output", [
    ("orbit", {"map": _SIEGEL, "start": _OUTSIDE, "n_max": 50}, "orbit.csv"),
    ("harness", {"n_max": 2000, "suite": [{"map": _SIEGEL, "start": [[1.5, 0.0], [0.2, 0.0]]},
                                          {"map": _SIEGEL, "start": _OUTSIDE}]}, "harness.csv"),
    ("conjugate", {"map": {"family": "HalfplaneAffine", "lam": 1.0, "b": [0.0, 1.0]},
                   "basepoint": [-1.0, 0.0], "checkpoints": [100]}, "conjugation_n100.csv"),
])
def test_a_start_outside_the_domain_is_a_config_error(tmp_path, capsys, command, cfg, output):
    assert run(tmp_path, command, cfg) == cli.EXIT_USAGE
    model = "halfplane" if command == "conjugate" else "siegel"
    key = {"orbit": "start", "harness": "suite[1].start", "conjugate": "basepoint"}[command]
    assert f"config error: {key} lies outside the {model} domain" in capsys.readouterr().err
    assert not (tmp_path / output).exists()


def test_an_outside_point_of_a_starts_list_is_named_by_its_index(tmp_path, capsys):
    cfg = {"map": _SIEGEL, "starts": [[[1.5, 0.0], [0.2, 0.0]], _OUTSIDE], "n_max": 50}
    assert run(tmp_path, "orbit", cfg) == cli.EXIT_USAGE
    assert "config error: starts[1] lies outside the siegel domain" in capsys.readouterr().err
    assert not (tmp_path / "orbit.csv").exists()


def test_plot_command_byte_stable(tmp_path):
    cfg = dict(PARABOLIC, n_max=200)
    assert run(tmp_path, "plot", cfg) == 0
    first = (tmp_path / "plot.svg").read_bytes()
    assert run(tmp_path, "plot", cfg) == 0
    assert (tmp_path / "plot.svg").read_bytes() == first
    assert first.startswith(b"<svg ")


def test_missing_map_is_usage_error(tmp_path):
    assert run(tmp_path, "classify", {"start": [1.0, 0.0]}) == cli.EXIT_USAGE


def test_bad_config_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = cli.main(["classify", "--config", str(path), "--out", str(tmp_path)])
    assert code == cli.EXIT_USAGE


def test_unknown_family_is_usage_error(tmp_path):
    cfg = {"map": {"family": "NoSuchFamily"}}
    assert run(tmp_path, "classify", cfg) == cli.EXIT_USAGE


def test_a_misspelled_map_parameter_is_a_config_error(tmp_path, capsys):
    cfg = dict(PARABOLIC, map={"family": "HalfplaneAffine", "lam": 1.0, "bb": [1.0, 0.0]})
    assert run(tmp_path, "orbit", cfg) == cli.EXIT_USAGE
    assert "config error: HalfplaneAffine has no parameter ['bb']" in capsys.readouterr().err
    assert not (tmp_path / "orbit.csv").exists()


def test_budgets_default_to_dynamics_budgets(monkeypatch):
    assert cli.parse_config({}).budgets == dynamics.Budgets()

    @dataclass(frozen=True)
    class Other(dynamics.Budgets):
        n_max: int = 7
        tol_c: float = 0.25
        tol_dw: float = 0.5
        tol_step: float = 0.125

    monkeypatch.setattr(dynamics, "Budgets", Other)
    assert cli.parse_config({}).budgets == Other()


def test_classify_command_three_dimensional_map(tmp_path):
    # no starts in the config: the default starts take N = 3 from the map
    cfg = {"map": {"family": "HeisenbergTranslation", "a": [[0.5, 0.0], [0.0, 0.3]]},
           "n_max": 20_000}
    assert run(tmp_path, "classify", cfg) == 0
    with open(tmp_path / "classify.json") as fh:
        assert json.load(fh)["type"] == "parabolic"
    assert run(tmp_path, "orbit", dict(cfg, n_max=10)) == 0
    header, rows = read_csv(tmp_path / "orbit.csv")
    assert header == ["n", "re0", "im0", "re1", "im1", "re2", "im2"]
    assert len(rows) == 11


@pytest.mark.parametrize("argv", [
    ["classify"],  # no --config
    ["nope"],  # no such command
    ["orbit", "--config", "config.json", "--n-max", "many"],
    ["harness", "--no-such-option"],
])
def test_argparse_usage_errors_exit_one(argv, capsys):
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "usage:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == cli.EXIT_OK
    assert cli.main(["orbit", "--help"]) == cli.EXIT_OK
    assert "usage:" in capsys.readouterr().out


def test_format_option_is_gone(tmp_path):
    # it was parsed and never read: --format structured wrote CSV
    cfg = dict(PARABOLIC, n_max=10)
    assert run(tmp_path, "orbit", cfg, ["--format", "structured"]) == cli.EXIT_USAGE
    assert not (tmp_path / "orbit.csv").exists()


def test_seed_is_a_harness_option(tmp_path, capsys):
    # the other commands registered --seed and never read it
    assert run(tmp_path, "classify", PARABOLIC, ["--seed", "3"]) == cli.EXIT_USAGE
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]
    for command in set(cli.COMMANDS) - {"harness"}:
        assert cli.main([command, "--config", "config.json", "--seed", "7"]) == cli.EXIT_USAGE
    assert cli.build_parser().parse_args(["harness", "--seed", "7"]).seed == 7


# ---------------------------------------------------------------------------
# one checked config: main parses it before any command runs

# a config every command reads without error; each key is read by some command
_EVERY = {
    "map": {"family": "HalfplaneAffine", "lam": 1.0, "b": [1.0, 0.0]},
    "start": [1.0, 0.0],
    "n_max": 2000,
    "tolerances": {"tol_step": 1e-3},
    "checkpoints": [10, 100],
    "basepoint": [1.0, 0.0],
    "kind": "baker_pommerenke",
    "plot": {"marker_size": 1.5, "tail_highlight": 3, "title": "z + 1"},
    "suite": [{"map": {"family": "HalfplaneAffine", "lam": 1.0, "b": [1.0, 0.0]},
               "start": [1.0, 0.0]}],
}


def _misspell(level):
    cfg = json.loads(json.dumps(_EVERY))
    target = {"top": cfg, "tolerances": cfg["tolerances"], "plot": cfg["plot"],
              "suite": cfg["suite"][0], "map": cfg["map"], "suite map": cfg["suite"][0]["map"]}
    key = {"top": "n_maxx", "tolerances": "tol_stepp", "plot": "colour", "suite": "strat"}
    target[level][key.get(level, "bb")] = 1.0
    return cfg


_NAMED = {
    "top": "unknown config keys ['n_maxx']",
    "tolerances": "unknown tolerances ['tol_stepp']",
    "plot": "unknown keys ['plot.colour']",
    "suite": "unknown keys ['suite[0].strat']",
    "map": "HalfplaneAffine has no parameter ['bb']",
    "suite map": "HalfplaneAffine has no parameter ['bb']",
}


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_a_key_that_another_command_reads_is_allowed(tmp_path, command):
    assert run(tmp_path, command, _EVERY) == cli.EXIT_OK
    assert len(os.listdir(tmp_path)) > 1


@pytest.mark.parametrize("level", sorted(_NAMED))
@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_a_misspelled_key_is_a_config_error_at_every_level(tmp_path, capsys, command, level):
    assert run(tmp_path, command, _misspell(level)) == cli.EXIT_USAGE
    assert f"config error: {_NAMED[level]}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]


def test_a_misspelled_budget_no_longer_runs_the_default_one(tmp_path, capsys):
    # it ran 1e5 steps with the default thresholds and exited 0
    cfg = {"map": _SIEGEL, "start": [[1.0, 0.0], [0.3, 0.0]], "n_maxx": 5,
           "tolerance": {"tol_step": 1.0}}
    assert run(tmp_path, "steps", cfg) == cli.EXIT_USAGE
    assert "config error: unknown config keys ['n_maxx', 'tolerance']" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("cfg, named", [
    ([1, 2], "config keys"),
    (dict(PARABOLIC, tolerances=[]), "tolerances"),  # it was read as no tolerances
    (dict(PARABOLIC, plot=5), "plot"),
    ({"suite": [["map", "start"]]}, "suite[0]"),
], ids=["config", "tolerances", "plot", "suite"])
def test_a_section_that_is_not_an_object_is_a_config_error(tmp_path, capsys, cfg, named):
    assert run(tmp_path, "harness", cfg) == cli.EXIT_USAGE
    assert f"config error: expected an object for {named}, got" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("checkpoints", [[0, 10], [10.7, 100]], ids=["zero", "fraction"])
def test_checkpoints_must_be_positive_integers(tmp_path, capsys, checkpoints):
    # [0, 10] exited 2 from the conjugation; [10.7, 100] wrote conjugation_n10.csv
    assert run(tmp_path, "conjugate", dict(_CONJUGATE, checkpoints=checkpoints)) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"config error: checkpoints must be integers >= 1, got {checkpoints}" in err
    assert os.listdir(tmp_path) == ["config.json"]


def test_the_parsed_config_fills_in_the_defaults():
    cfg = cli.parse_config({"map": _SIEGEL, "n_max": 10, "plot": {"title": 3}}, n_max=4)
    assert cfg.budgets == dynamics.Budgets(n_max=4)
    assert cfg.plot == {"marker_size": 2.0, "tail_highlight": 0, "title": "3"}
    assert cfg.conjugate["checkpoints"] == (100, 1_000, 10_000, 100_000)
    assert cfg.kind == "pommerenke" and cfg.suite is None and cfg.probe_starts is None
    assert len(cfg.starts) == len(dynamics.default_starts("siegel"))


# a value of the wrong type, shape or N is a config error that names its key

_HEISENBERG_N2 = {"family": "HeisenbergTranslation", "a": [[1, 0]]}
_THREE_PAIRS = [[2.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
_AFFINE = {"family": "HalfplaneAffine", "lam": 1.0, "b": [1.0, 0.0]}
_N2_START = [[2.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize("command, extra, message", [
    ("orbit", {"start": [1.0]},
     "start must be a number, an [re, im] pair or a list of them, got [1.0]"),
    ("orbit", {"start": []}, "start must be a number, an [re, im] pair or a list of them, got []"),
    ("orbit", {"start": [[1.0, 0.0], 2.0]},
     "start must be a number, an [re, im] pair or a list of them, got [[1.0, 0.0], 2.0]"),
    ("orbit", {"start": True},
     "start must be a number, an [re, im] pair or a list of them, got True"),
    ("orbit", {"map": _HEISENBERG_N2, "start": _THREE_PAIRS}, "start has 3 coordinates, not N = 2"),
    ("harness", {"suite": [{"map": _HEISENBERG_N2, "start": _THREE_PAIRS}]},
     "suite[0].start has 3 coordinates, not N = 2"),
    ("orbit", {"start": [[1.0, 0.0], [2.0, 0.0]]}, "start has 2 coordinates, not N = 1"),
    ("conjugate", {"basepoint": [[1.0, 0.0], [2.0, 0.0]]}, "basepoint has 2 coordinates, not N = 1"),
    ("orbit", {"starts": 3}, "starts must be a non-empty list, got 3"),
    ("orbit", {"starts": []}, "starts must be a non-empty list, got []"),
    ("conjugate", {"checkpoints": 5}, "checkpoints must be integers >= 1, got 5"),
    ("harness", {"suite": 5}, "suite must be a list, got 5"),
    ("orbit", {"n_max": "abc"}, "n_max must be an integer, got 'abc'"),
    ("orbit", {"n_max": 100.7}, "n_max must be an integer, got 100.7"),
    ("orbit", {"n_max": True}, "n_max must be an integer, got True"),
    ("orbit", {"tolerances": {"tol_step": "abc"}},
     "tolerances.tol_step must be a number, got 'abc'"),
    ("plot", {"plot": {"marker_size": "big"}}, "plot.marker_size must be a number, got 'big'"),
    ("plot", {"plot": {"tail_highlight": 2.7}},
     "plot.tail_highlight must be an integer >= 0, got 2.7"),
    ("plot", {"plot": {"tail_highlight": -1}},
     "plot.tail_highlight must be an integer >= 0, got -1"),
    ("plot", {"plot": {"title": [1]}}, "plot.title must be a string or a number, got [1]"),
    # map parameters: these ran on a converted or cut value ("lam": true ran lam = 1, the
    # 5 of "a" was dropped), stopped with a traceback ("inner": 5, "map": 5), or with a
    # message that named no key ("list index out of range", "'b'")
    ("orbit", {"map": {**_AFFINE, "lam": True}}, "map.lam must be a number, got True"),
    ("orbit", {"map": {**_AFFINE, "lam": "2"}}, "map.lam must be a number, got '2'"),
    ("orbit", {"map": {**_AFFINE, "lam": "x"}}, "map.lam must be a number, got 'x'"),
    ("orbit", {"map": {**_HEISENBERG_N2, "b": "1"}, "start": _N2_START},
     "map.b must be a number, got '1'"),
    ("orbit", {"map": {**_HEISENBERG_N2, "a": [[1, 0, 5]]}, "start": _N2_START},
     "map.a[0] must be an [re, im] pair of numbers, got [1, 0, 5]"),
    ("orbit", {"map": {"family": "Conjugated", "inner": 5}}, "map.inner must be an object, got 5"),
    ("orbit", {"map": 5}, "map must be an object, got 5"),
    ("orbit", {"map": {**_AFFINE, "b": [1.0]}},
     "map.b must be an [re, im] pair of numbers, got [1.0]"),
    ("orbit", {"map": {**_AFFINE, "b": True}}, "map.b must be an [re, im] pair of numbers, got True"),
    ("orbit", {"map": {**_AFFINE, "b": 1.0}}, "map.b must be an [re, im] pair of numbers, got 1.0"),
    ("orbit", {"map": {"family": "Composition", "parts": 5}},
     "map.parts must be a non-empty list of objects, got 5"),
    ("orbit", {"map": {"family": "Composition", "parts": []}},
     "map.parts must be a non-empty list of objects, got []"),
    ("orbit", {"map": {"family": "DiskMoebius", "a": [0.0, 0.0], "theta": [1.0]}},
     "map.theta must be a number, got [1.0]"),
    ("orbit", {"map": {"family": "SiegelTranslation"}}, "'map.b is missing'"),
    ("orbit", {"map": {"family": "Composition", "parts": [_AFFINE, {**_AFFINE, "b": "x"}]}},
     "map.parts[1].b must be an [re, im] pair of numbers, got 'x'"),
    ("orbit", {"map": {"family": "Conjugated", "inner": {"family": "Composition", "parts": [
        _SIEGEL, {"family": "Conjugated", "inner": {"family": "DiskMoebius", "a": "0"}}]}}},
     "map.inner.parts[1].inner.a must be an [re, im] pair of numbers, got '0'"),
    ("harness", {"suite": [{"map": {"family": "Conjugated", "inner": 5}, "start": [0.5, 0.0]}]},
     "suite[0].map.inner must be an object, got 5"),
    ("harness", {"suite": [{"map": _AFFINE, "start": [1.0, 0.0]},
                           {"map": {"family": "SiegelTranslation"}, "start": [1.0, 0.0]}]},
     "'suite[1].map.b is missing'"),
    # a suite row without a map or a start said "'map'"; a family's own refusal of its
    # parameters named no path
    ("harness", {"suite": [{"start": [1.0, 0.0]}]}, "'suite[0].map is missing'"),
    ("harness", {"suite": [{"map": _AFFINE, "start": [1.0, 0.0]}, {"map": _AFFINE}]},
     "'suite[1].start is missing'"),
    ("orbit", {"map": {"family": "Identity", "model": "torus"}}, "map: unknown model 'torus'"),
    ("orbit", {"map": {"family": "Composition", "parts": [_AFFINE, _SIEGEL]}},
     "map: mixed models in composition: ['halfplane', 'siegel']"),
    ("harness", {"suite": [{"map": {"family": "Conjugated", "inner": {
        "family": "Identity", "model": "torus"}}, "start": [1.0, 0.0]}]},
     "suite[0].map.inner: unknown model 'torus'"),
], ids=["start-short", "start-empty", "start-bare-number-pair", "start-bool", "start-N",
        "suite-start-N", "start-planar-pairs", "basepoint-pairs", "starts-int", "starts-empty",
        "checkpoints-int", "suite-int", "n_max-string", "n_max-fraction", "n_max-bool",
        "tolerances-string", "marker_size-string", "tail_highlight-fraction",
        "tail_highlight-negative", "title-list",
        "lam-true", "lam-string-number", "lam-string", "heisenberg-b-string", "heisenberg-a-triple",
        "inner-int", "map-int", "b-short", "b-true", "b-number", "parts-int", "parts-empty",
        "theta-list", "b-missing", "parts-nested", "deeply-nested", "suite-inner",
        "suite-missing", "suite-map-missing", "suite-start-missing", "identity-model",
        "mixed-composition", "suite-identity-model"])
def test_a_value_of_the_wrong_type_shape_or_n_is_a_config_error(tmp_path, capsys, command,
                                                                 extra, message):
    # these ran on a truncated or converted value, or stopped with a message
    # that named no key ("list index out of range", "'int' object is not iterable")
    cfg = {**PARABOLIC, "n_max": 10, "checkpoints": [10], **extra}
    assert run(tmp_path, command, cfg) == cli.EXIT_USAGE
    assert f"config error: {message}\n" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("model, forms", [
    ("halfplane", [2, 2.0, [2, 0], [2.0, 0.0], [[2.0, 0.0]]]),
    ("siegel", [2.0, [2.0, 0.0], [[2.0, 0.0]]]),
])
def test_the_point_forms_that_parse(model, forms):
    spec = {"halfplane": PARABOLIC["map"], "siegel": _SIEGEL}[model]
    got = [cli.parse_config({"map": spec, "start": v}).starts[0] for v in forms]
    for p in got:
        assert type(p) is type(got[0]) and np.array_equal(p, got[0])
    assert np.array_equal(got[0], 2.0 if model == "halfplane" else [2.0])


def test_a_map_that_fixes_n_takes_n_pairs():
    cfg = cli.parse_config({"map": _HEISENBERG_N2, "starts": [[[2.0, 0.0], [0.1, 0.0]]] * 5,
                            "suite": [{"map": _HEISENBERG_N2, "start": [[2.0, 0.0], [0.0, 0.0]]}]})
    assert [p.shape for p in cfg.starts] == [(2,)] * 5 and cfg.suite[0][1].shape == (2,)


def test_a_plot_title_is_escaped(tmp_path):
    # it was written raw, and the SVG was not well-formed XML
    from xml.etree import ElementTree

    title = "f & g <1>"
    assert run(tmp_path, "plot", dict(PARABOLIC, n_max=10, plot={"title": title})) == cli.EXIT_OK
    root = ElementTree.parse(tmp_path / "plot.svg").getroot()
    assert [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")] == [title]


# a JSON value of each field kind; "tuple[k, ...]" is a list of kind k
_KIND_VALUES = {"complex": [0.5, 0.0], "float": 1.0, "str": "siegel", "object": _SIEGEL,
                "tuple[complex, ...]": [[0.5, 0.0]], "tuple[object, ...]": [_SIEGEL]}
_PARAMETERS = [(family, f.name) for family, cls in maps.FAMILIES.items()
               for f in dataclasses.fields(cls) if f.init]


@pytest.mark.parametrize("family, name", _PARAMETERS, ids=[".".join(p) for p in _PARAMETERS])
def test_every_map_parameter_takes_only_its_own_kind(tmp_path, capsys, family, name):
    # a family added later is covered too; a kind missing above fails here
    kinds = {f.name: f.type for f in dataclasses.fields(maps.FAMILIES[family]) if f.init}
    valid = {"family": family, **{k: _KIND_VALUES[kind] for k, kind in kinds.items()}}
    maps.spec_from_dict(valid)
    others = [v for kind, v in _KIND_VALUES.items() if kind != kinds[name]] + [True, None]
    for wrong in others:
        cfg = {**PARABOLIC, "n_max": 10, "map": {**valid, name: wrong}}
        assert run(tmp_path, "orbit", cfg) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert re.fullmatch(rf"config error: map\.{name}(\[0\])? must be .*, got .*\n", err), err
        assert os.listdir(tmp_path) == ["config.json"]


def test_classify_command_tops_up_duplicate_starts(tmp_path, capsys):
    # two equal starts of a rotation read as parabolic, a boundary point
    cfg = {"map": {"family": "DiskMoebius", "a": [0.0, 0.0], "theta": 1.0},
           "starts": [[0.3, 0.0], [0.3, 0.0]], "n_max": 2000}
    assert run(tmp_path, "classify", cfg) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "elliptic"


def test_classify_command_tops_up_a_start_of_another_n(tmp_path, capsys):
    # the N = 2 defaults beside an N = 3 start raised numpy's "inhomogeneous shape"
    cfg = {"map": _SIEGEL, "start": [[1.0, 0.0], [0.1, 0.0], [0.1, 0.0]], "n_max": 20_000}
    assert run(tmp_path, "classify", cfg) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("parabolic")


def test_probe_command_needs_five_distinct_starts(tmp_path, capsys):
    # five equal starts reported CONSISTENT
    cfg = dict(PARABOLIC, starts=[[1.0, 0.0]] * 5, n_max=2000)
    assert run(tmp_path, "probe", cfg) == cli.EXIT_INCONCLUSIVE
    assert "inconclusive: the probe wants at least 5 distinct starts" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]


# ---------------------------------------------------------------------------
# the column-wise CSV writer against the cell-by-cell loop it replaced


def _fmt_reference(x) -> str:
    return format(float(x), ".17g")


def reference_orbit_csv(orbit, named_series) -> bytes:
    """The orbit CSV, one cell at a time, as before the column-wise writer.

    named_series holds (name, values, cell) triples; cell(values, n) is the
    text of row n, asked only for n < len(values).
    """
    pts = orbit.points.reshape(orbit.length, -1)
    dim = pts.shape[1]
    if dim == 1:
        header = ["n", "re", "im"]
    else:
        header = ["n"] + [c for j in range(dim) for c in (f"re{j}", f"im{j}")]
    rows = []
    for n in range(pts.shape[0]):
        row = [str(n)]
        for j in range(dim):
            row += [_fmt_reference(pts[n, j].real), _fmt_reference(pts[n, j].imag)]
        rows.append(row)
    for name, values, cell in named_series:
        header.append(name)
        for n, row in enumerate(rows):
            row.append(cell(values, n) if n < len(values) else "")
    lines = [",".join(header)] + [",".join(r) for r in rows]
    return ("\n".join(lines) + "\n").encode()


def _real_cell(values, n):
    return _fmt_reference(values[n])


def _abs_cell(values, n):
    return _fmt_reference(abs(values[n]))  # the scalar abs of a complex quotient


_SPECIAL = np.array([-0.0, 0.0, 1e12 + 0.375, -1e12 / 3.0, 5e-324, -2.5e-310, 1.0 / 3.0,
                     np.nan, np.inf, -np.inf, 1e-300, 123456789.123456789])


def _sprinkled(rng, shape):
    """Random values of many scales with the special values written in."""
    v = rng.normal(size=shape) * np.exp(rng.uniform(-40.0, 30.0, shape))
    flat = v.reshape(-1)
    idx = rng.choice(flat.size, min(flat.size, _SPECIAL.size), replace=False)
    flat[idx] = _SPECIAL[: idx.size]
    return v


def _complex(re, im):
    z = np.empty(re.shape, np.complex128)
    z.real, z.imag = re, im  # re + 1j * im would turn an infinite im into a NaN re
    return z


def _writer_orbits():
    rng = np.random.default_rng(11)
    orbits = []
    for model, shape in [("halfplane", (300,)), ("disk", (40,)), ("siegel", (257, 2)),
                         ("ball", (64, 2)), ("siegel", (120, 3)), ("halfplane", (1,)),
                         ("siegel", (1, 2))]:
        pts = _complex(_sprinkled(rng, shape), _sprinkled(rng, shape))
        orbits.append(dynamics.Orbit(None, model, None, pts, "max_iter"))
    orbits.append(dynamics.iterate(maps.HalfplaneAffine(1.0, 0.3 - 0.7j), complex(1.0, -0.0), 500))
    # past two chunks of lines, with a w no step moves: three of its columns are one value
    orbits.append(dynamics.iterate(maps.SiegelTranslation(0.375), np.array([1.25, 0.5 - 0.25j]),
                                   16_500))
    return orbits


WRITER_ORBITS = _writer_orbits()


@pytest.mark.parametrize("case", range(len(WRITER_ORBITS)))
def test_orbit_csv_matches_the_cell_loop(tmp_path, case):
    orbit = WRITER_ORBITS[case]
    rng = np.random.default_rng(case)
    n = orbit.length
    steps = _sprinkled(rng, max(n - 1, 0))
    full = [_sprinkled(rng, n) for _ in range(3)]
    radial = _complex(_sprinkled(rng, max(n - 1, 0)), _sprinkled(rng, max(n - 1, 0)))
    radial[: min(radial.size, 3)] = [complex(np.nan, 1.0), complex(1.0, np.inf), 1e-310j][
        : min(radial.size, 3)]
    path = str(tmp_path / "out.csv")
    cases = [
        # orbit.csv
        ([], []),
        # steps.csv: s_n has one cell fewer than the orbit
        ([("s_n", steps, _real_cell)], [steps]),
        # approach.csv: three full series, then the shorter radial quotient
        ([(name, s, _real_cell) for name, s in zip(["koranyi_q", "special_ratio", "nt_q"], full)]
         + [("radial_q", radial, _abs_cell)],
         full + [np.hypot(radial.real, radial.imag)]),
        # a short series before a full one leaves empty cells inside the line
        ([("a", steps[: n // 2], _real_cell), ("b", full[0], _real_cell)],
         [steps[: n // 2], full[0]]),
    ]
    for named, series in cases:
        header, cols = cli._orbit_columns(orbit, *series)
        cli._write_columns(path, header + [name for name, _, _ in named], cols)
        with open(path, "rb") as fh:
            assert fh.read() == reference_orbit_csv(orbit, named)


@pytest.mark.parametrize("kind", ["pommerenke", "baker_pommerenke"])
def test_conjugation_csv_matches_the_cell_loop(tmp_path, kind):
    spec = maps.HalfplanePerturbed(0.5 + 1.0j, 1.0)
    checkpoints = (10, 100, 1000)
    cfg = {"map": maps.spec_to_dict(spec), "kind": kind, "checkpoints": list(checkpoints)}
    assert run(tmp_path, "conjugate", cfg) == cli.EXIT_OK
    res = getattr(conjugation, f"{kind}_normalized")(spec, checkpoints=checkpoints)
    for n in checkpoints:
        lines = ["re_g,im_g,re_psi,im_psi"] + [
            ",".join(_fmt_reference(v) for v in (g.real, g.imag, p.real, p.imag))
            for g, p in zip(res.grid, res.psi_n[n])]
        want = ("\n".join(lines) + "\n").encode()
        assert (tmp_path / f"conjugation_n{n}.csv").read_bytes() == want


def test_config_and_outputs_are_utf8_in_the_c_locale(tmp_path):
    # with ASCII as the locale's encoding, this config was refused at read, and the
    # escaped title raised "'ascii' codec can't encode" and left an empty --out
    cfg = {"map": {"family": "HalfplaneAffine", "lam": 1.0, "b": [1.0, 0.0]},
           "start": [1.0, 0.0], "n_max": 200, "plot": {"title": "fé <1>"}}
    path = tmp_path / "config.json"
    path.write_bytes(json.dumps(cfg, ensure_ascii=False).encode("utf-8"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for command in ("plot", "orbit"):
        proc = subprocess.run(
            [sys.executable, "-m", "diskdyn.cli", command, "--config", str(path),
             "--out", str(tmp_path / "out")], env=env, capture_output=True, timeout=120)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
    svg = (tmp_path / "out" / "plot.svg").read_bytes()
    assert '<text x="10" y="20" font-size="14">fé &lt;1&gt;</text>'.encode() in svg
    ElementTree.fromstring(svg)
    assert b"\r" not in svg and b"\r" not in (tmp_path / "out" / "orbit.csv").read_bytes()


DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def test_export_outputs_match_the_recorded_hashes(tmp_path):
    # export.sha256 holds the outputs of the per-value format writer that the
    # column writer replaced; CI checks the installed console script against it too
    siegel, halfplane = (os.path.join(DATA, f"export_{m}.json") for m in ("siegel", "halfplane"))
    runs = [(c, siegel) for c in ("orbit", "steps", "approach", "plot")]
    runs.append(("conjugate", halfplane))
    for command, config in runs:
        assert cli.main([command, "--config", config, "--out", str(tmp_path)]) == cli.EXIT_OK
    with open(os.path.join(DATA, "export.sha256")) as fh:
        recorded = [line.split() for line in fh]
    assert sorted(name for _, name in recorded) == sorted(os.listdir(tmp_path))
    for digest, name in recorded:
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def _console(command, config, out, **env):
    """(exit code, stdout bytes, stderr bytes) of the console script run in a subprocess."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               **env)
    proc = subprocess.run([sys.executable, "-m", "diskdyn.cli", command, "--config", config,
                           "--out", str(out)], env=env, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("command, config", [
    ("steps", "export_siegel.json"),
    ("classify", "export_siegel.json"),  # inconclusive at n_max 3000 on any stdout: exit 2
    ("classify", "export_perturbed.json"),
])
def test_console_text_prints_on_an_ascii_stdout(tmp_path, command, config):
    # "≈" on an ASCII stdout raised UnicodeEncodeError after the files were written, and
    # main reported it as a config error, exit 1
    config = os.path.join(DATA, config)
    code, text, _ = _console(command, config, tmp_path / "utf8", PYTHONUTF8="1")
    ascii_code, ascii_text, err = _console(command, config, tmp_path / "ascii", LC_ALL="C",
                                           PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    assert "≈".encode() in text and code in (cli.EXIT_OK, cli.EXIT_INCONCLUSIVE)
    assert ascii_code == code, err
    assert ascii_text == text.decode().encode("ascii", "backslashreplace")
    assert b"config error" not in err
    assert sorted(os.listdir(tmp_path / "ascii")) == sorted(os.listdir(tmp_path / "utf8"))


def test_text_an_output_cannot_hold_is_no_config_error(tmp_path, monkeypatch):
    # a lone surrogate, which JSON can escape, is refused with the title's path
    cfg = {**_AFFINE_CONFIG, "plot": {"title": "\ud800"}}
    assert run(tmp_path, "plot", cfg) == cli.EXIT_USAGE
    assert not (tmp_path / "plot.svg").exists()

    def unencodable(path, text):
        raise UnicodeEncodeError("ascii", text, 0, 1, "ordinal not in range(128)")

    monkeypatch.setattr(cli, "write_atomic", unencodable)
    with pytest.raises(UnicodeEncodeError):
        run(tmp_path, "plot", _AFFINE_CONFIG)


_AFFINE_CONFIG = {"map": {"family": "HalfplaneAffine", "lam": 1.0, "b": [1.0, 0.0]},
                  "start": [1.0, 0.0], "n_max": 200}


@pytest.mark.parametrize("config, commands", [
    ("export_perturbed", ("orbit", "steps", "plot", "conjugate")),
    ("export_disk", ("orbit",)),
])
def test_orbits_stepped_by_calls_match_the_recorded_hashes(tmp_path, config, commands):
    # recorded with the console script before orbits and grids outside the translation group
    # took one bound call per step and HalfplanePerturbed grids stepped in place
    for command in commands:
        assert cli.main([command, "--config", os.path.join(DATA, f"{config}.json"),
                         "--out", str(tmp_path)]) == cli.EXIT_OK
    with open(os.path.join(DATA, f"{config}.sha256")) as fh:
        recorded = [line.split() for line in fh]
    assert sorted(name for _, name in recorded) == sorted(os.listdir(tmp_path))
    for digest, name in recorded:
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_long_exports_match_the_recorded_hashes(tmp_path):
    # recorded with the console script before constant columns were formatted once, SVG lines
    # joined in chunks and files encoded in slices; 20,000 steps cross the chunk edges
    for command in ("orbit", "steps", "approach", "plot"):
        assert cli.main([command, "--config", os.path.join(DATA, "export_long.json"),
                         "--out", str(tmp_path)]) == cli.EXIT_OK
    with open(os.path.join(DATA, "export_long.sha256")) as fh:
        recorded = [line.split() for line in fh]
    assert sorted(name for _, name in recorded) == sorted(os.listdir(tmp_path))
    for digest, name in recorded:
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def _spread_text(length):
    """length characters with two- to four-byte UTF-8 characters at both ends and on every
    slice edge."""
    text = list("0123456789abcdef" * (length // 16 + 1))[:length]
    for edge in [*range(0, length, cli._SLICE), length]:
        for i, c in zip((edge - 2, edge - 1, edge, edge + 1), "é≈𝔻é"):
            if 0 <= i < length:
                text[i] = c
    return "".join(text)


@pytest.mark.parametrize("length", [0, 2**20 - 1, 2**20, 2**20 + 1, 3 * 2**20 + 7])
def test_write_atomic_writes_the_text_as_utf8_in_slices(tmp_path, length):
    assert cli._SLICE == 2**20
    text = _spread_text(length)
    path = tmp_path / "out.txt"
    cli.write_atomic(str(path), text)
    assert path.read_bytes() == text.encode("utf-8")
    assert os.listdir(tmp_path) == ["out.txt"]


@pytest.mark.parametrize("at", [0, 2**20 + 5])
def test_text_utf8_cannot_hold_leaves_no_file(tmp_path, at):
    text = _spread_text(2 * 2**20)
    text = text[:at] + "\ud800" + text[at + 1:]  # a lone surrogate, in the first or second slice
    with pytest.raises(UnicodeEncodeError):
        cli.write_atomic(str(tmp_path / "out.txt"), text)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_outputs_get_the_mode_open_gives_a_new_file(tmp_path, umask):
    # the temp file's 0o600 went with it through the rename, whatever the umask
    old = os.umask(umask)
    try:
        with open(tmp_path / "by_open.txt", "w"):
            pass
        assert run(tmp_path, "orbit", _AFFINE_CONFIG) == cli.EXIT_OK
        cli.write_atomic(str(tmp_path / "nested" / "new.txt"), "x\n")
        with pytest.raises(UnicodeEncodeError):
            cli.write_atomic(str(tmp_path / "nested" / "bad.txt"), "\ud800")
        assert os.umask(umask) == umask  # write_atomic left the umask as it found it
    finally:
        os.umask(old)
    want = 0o666 & ~umask
    for name in ("by_open.txt", "orbit.csv", "nested/new.txt"):
        assert (tmp_path / name).stat().st_mode & 0o777 == want, name
    assert os.listdir(tmp_path / "nested") == ["new.txt"]
