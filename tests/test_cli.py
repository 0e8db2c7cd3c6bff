import json
import os
from dataclasses import dataclass

import numpy as np
import pytest

from diskdyn import cli, dynamics


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


def test_budgets_default_to_dynamics_budgets(monkeypatch):
    args = cli.build_parser().parse_args(["classify", "--config", "config.json"])
    assert cli._budgets({}, args) == dynamics.Budgets()

    @dataclass(frozen=True)
    class Other(dynamics.Budgets):
        n_max: int = 7
        tol_c: float = 0.25
        tol_dw: float = 0.5
        tol_step: float = 0.125

    monkeypatch.setattr(dynamics, "Budgets", Other)
    assert cli._budgets({}, args) == Other()


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
