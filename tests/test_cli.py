import dataclasses
import json
import os
from dataclasses import dataclass

import numpy as np
import pytest

from diskdyn import cli, dynamics, maps


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
        header, lines = cli._orbit_rows(orbit, *series)
        cli._write_csv(path, header + [name for name, _, _ in named], lines)
        with open(path, "rb") as fh:
            assert fh.read() == reference_orbit_csv(orbit, named)
