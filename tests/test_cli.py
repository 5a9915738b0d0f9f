import csv
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import galns
from galns import cli
from galns.cli import main
from galns.dynamics import StiffnessError
from galns.spectral import RectGeometry, SpectralField


def write_cfg(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def read_json(outdir, name):
    with open(os.path.join(outdir, name)) as fh:
        return json.load(fh)


SIM_CFG = {
    "geometry": {"a": 1.0, "b": 2.0}, "nu": 1.0, "level": 3,
    "controlled_level": 1, "u0": {"1,1": 0.5, "2,2": -0.3},
    "T": 0.3, "tol": 1e-8,
}


def test_simulate_decay_monotone_and_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, "sim.json", SIM_CFG)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["--out", out1, "simulate", "--config", cfg]) == 0
    assert main(["--out", out2, "simulate", "--config", cfg]) == 0
    with open(os.path.join(out1, "trajectory.csv")) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "t"
    hs = []
    for r in rows[1:]:
        y = np.array([float(x) for x in r[1:]])
        hs.append(y)
    rep = read_json(out1, "report.json")
    assert rep["verdict"] == "pass"
    assert rep["h_norm_monotone"] is True
    assert rep["h_norm_final"] < rep["h_norm_initial"]
    # identical config -> identical CSV bytes
    b1 = open(os.path.join(out1, "trajectory.csv"), "rb").read()
    b2 = open(os.path.join(out2, "trajectory.csv"), "rb").read()
    assert b1 == b2
    man = read_json(out1, "manifest.json")
    assert man["command"] == "simulate"
    assert sorted(man["outputs"]) == ["report.json", "trajectory.csv"]
    assert man["config_hash"] == read_json(out2, "manifest.json")["config_hash"]


def test_simulate_report_integrator_block(tmp_path):
    cfg = write_cfg(tmp_path, "sim.json", SIM_CFG)
    out = str(tmp_path / "o")
    assert main(["--out", out, "simulate", "--config", cfg]) == 0
    rep = read_json(out, "report.json")
    st = rep["integrator"]
    assert st["accepted_steps"] == rep["steps"] - 1
    assert st["rhs_calls"] == 1 + 6 * (st["accepted_steps"]
                                       + st["rejected_steps"])
    assert 0 < st["smallest_step"] <= st["largest_step"] <= SIM_CFG["T"]
    # K^3 evaluates the quadratic term with the dense pair operator
    assert rep["quadratic"] == "pair"


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(galns.__file__)))
    code = ("import sys, galns.cli; print(' '.join(m for m in ("
            "'scipy.interpolate', 'scipy.optimize', 'scipy.special') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == ""


# what the run does after "import galns.cli", then the optional modules
# loaded by the end of it
LOADED = ("import sys\n{}\nprint('loaded:', *(m for m in ("
          "'scipy.sparse', 'multiprocessing', 'numpy.polynomial', 'numpy.ma'"
          ") if m in sys.modules))")
K3_RUN = """
from galns.dynamics import GalerkinSystem, integrate
from galns.saturation import mode_set_K
from galns.spectral import RectGeometry, SpectralField
g = RectGeometry(1.0, 2.0)
s = GalerkinSystem(g, 1.0, SpectralField(g, {}), mode_set_K(3), mode_set_K(1))
integrate(s, SpectralField(g, {(1, 1): 0.5}), None, 0.1)
"""
LIERANK_6 = """
assert galns.cli.main(["--out", OUT, "lierank", "--config", CFG]) == 0
"""
SIMULATE_8 = """
import json, os
assert galns.cli.main(["--out", OUT, "simulate", "--config", SIM]) == 0
with open(os.path.join(OUT, "report.json")) as fh:
    assert json.load(fh)["quadratic"] == "transform"
"""

IMITATE_2 = """
assert galns.cli.main(["--out", OUT, "imitate", "--config", IMI]) == 0
"""
IMITATE_DIRECT = """
assert galns.cli.main(["--out", OUT, "imitate", "--config", IMD]) == 0
"""


@pytest.mark.parametrize("run", ["", K3_RUN, LIERANK_6, SIMULATE_8, IMITATE_2,
                                 IMITATE_DIRECT],
                         ids=["import", "integrate_K3", "lierank_6",
                              "simulate_8", "imitate_2", "imitate_direct"])
def test_serial_runs_load_no_sparse_or_multiprocessing(tmp_path, run):
    src = os.path.dirname(os.path.dirname(os.path.abspath(galns.__file__)))
    cfg = write_cfg(tmp_path, "l.json",
                    {"geometry": {"a": 1.0, "b": 2.0}, "nu": 1.0, "level": 6,
                     "controlled_level": 1, "n_points": 1})
    sim = write_cfg(tmp_path, "s.json", dict(SIM_CFG, level=8, T=0.01))
    # one interaction interval on K^2, tracked and replayed at one frequency
    imi_cfg = {
        "geometry": {"a": 1.0, "b": 2.0}, "nu": 0.03, "level": 2,
        "controlled_level": 1, "u0": {"1,1": 0.05, "2,2": -0.025},
        "xi": 0.2, "breakpoints": [0.0, 0.3],
        "labels": [["delta", [[1, 1], [1, 3]], 1]], "ws": [12],
        "tol": 1e-8}
    imi = write_cfg(tmp_path, "i.json", imi_cfg)
    # the same after a direct interval, whose value is checked against span(J)
    imd = write_cfg(tmp_path, "d.json", dict(
        imi_cfg, breakpoints=[0.0, 0.1, 0.3],
        labels=[["e", [1, 1], 1], ["delta", [[1, 1], [1, 3]], 1]]))
    paths = "OUT, CFG, SIM, IMI, IMD = %r, %r, %r, %r, %r\n" % (
        str(tmp_path / "o"), cfg, sim, imi, imd)
    code = LOADED.format(paths + "import galns.cli\n" + run)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.splitlines()[-1] == "loaded:"


def test_simulate_config_error_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, "bad.json", {"geometry": {"a": 1, "b": 2}})
    assert main(["--out", str(tmp_path / "o"), "simulate",
                 "--config", cfg]) == 2


def test_simulate_invalid_json_reports_line(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{\n  \"nu\": ,\n}")
    assert main(["--out", str(tmp_path / "o"), "simulate",
                 "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


NAN = float("nan")


@pytest.mark.parametrize("field, value, message", [
    ("u0", {"1,1": NAN}, "u0 must be finite"),
    ("forcing", {"1,1": NAN}, "forcing must be finite"),
    ("control", {"breakpoints": [0.0, NAN, 0.3], "values": [[0.0] * 8] * 2},
     "breakpoints must be strictly increasing")],
    ids=["u0", "forcing", "breakpoints"])
def test_simulate_non_finite_input_exit_2(tmp_path, capsys, field, value,
                                          message):
    # json reads NaN; it is bad input, not a numerical failure
    cfg = write_cfg(tmp_path, "nan.json", dict(SIM_CFG, **{field: value}))
    assert main(["--out", str(tmp_path / "o"), "simulate",
                 "--config", cfg]) == 2
    assert message in capsys.readouterr().err


def test_simulate_control_short_of_horizon_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "short.json", dict(
        SIM_CFG, control={"breakpoints": [0.0, 0.1], "values": [[0.0] * 8]}))
    assert main(["--out", str(tmp_path / "o"), "simulate",
                 "--config", cfg]) == 2
    assert "does not cover [0, 0.3]" in capsys.readouterr().err


def test_numerical_failure_exit_3_with_report(tmp_path, monkeypatch, capsys):
    def stiff(cfg, outdir, jobs, plot):
        raise StiffnessError("step underflow at t=0.25")
    monkeypatch.setattr(cli, "cmd_simulate", stiff)
    cfg = write_cfg(tmp_path, "sim.json", SIM_CFG)
    out = str(tmp_path / "o")
    assert main(["--out", out, "simulate", "--config", cfg]) == 3
    assert read_json(out, "report.json") == {
        "verdict": "numerical_failure", "error": "step underflow at t=0.25"}
    man = read_json(out, "manifest.json")
    assert man["command"] == "simulate"
    assert man["outputs"] == ["report.json"]
    assert "numerical failure: step underflow" in capsys.readouterr().err


def test_internal_error_exit_4_with_traceback(tmp_path, monkeypatch, capsys):
    # a bug inside a command is neither a config error nor a verdict
    def broken(cfg, outdir, jobs, plot):
        return {}["missing"]
    monkeypatch.setattr(cli, "cmd_simulate", broken)
    cfg = write_cfg(tmp_path, "sim.json", SIM_CFG)
    assert main(["--out", str(tmp_path / "o"), "simulate",
                 "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "KeyError: 'missing'" in err
    assert "internal error" in err and "config error" not in err


def test_missing_config_or_bad_side_is_config_error(tmp_path, capsys):
    out = str(tmp_path / "o")
    assert main(["--out", out, "simulate",
                 "--config", str(tmp_path / "absent.json")]) == 2
    assert main(["--out", out, "saturate", "--a", "1/0", "--b", "1",
                 "--target-modes", "2,2"]) == 2
    err = capsys.readouterr().err
    assert "cannot read config" in err and "--a/--b" in err


def test_saturate_rectangle_chain(tmp_path):
    out = str(tmp_path / "o")
    assert main(["--out", out, "saturate", "--a", "1", "--b", "2",
                 "--target-modes", "5,5"]) == 0
    rep = read_json(out, "certificate.json")
    assert rep["verdict"] == "pass"
    assert rep["levels"] == [1, 2, 3]


def test_saturate_certificate_bytes_are_pinned(tmp_path):
    # sha256 of the certificate written before the exact rank became an
    # incremental echelon; report.json is the same text
    out = str(tmp_path / "o")
    assert main(["--out", out, "saturate", "--a", "1", "--b", "2",
                 "--target-modes", "18,1"]) == 0
    with open(os.path.join(out, "certificate.json"), "rb") as fh:
        cert = fh.read()
    with open(os.path.join(out, "report.json"), "rb") as fh:
        assert fh.read() == cert
    assert hashlib.sha256(cert).hexdigest() == (
        "131722cf476d4a448e1c7e6ea52f96f44811c0f6c33f8e94a28e42bace743ddf")


def test_saturate_square_needs_repair(tmp_path):
    out_fail = str(tmp_path / "f")
    assert main(["--out", out_fail, "saturate", "--a", "1", "--b", "1",
                 "--target-modes", "4,4"]) == 1
    rep = read_json(out_fail, "certificate.json")
    assert rep["verdict"] == "fail"
    out_ok = str(tmp_path / "k")
    assert main(["--out", out_ok, "saturate", "--a", "1", "--b", "1",
                 "--target-modes", "4,4", "--square"]) == 0


def test_saturate_target_in_K1_empty_chain(tmp_path):
    out = str(tmp_path / "o")
    assert main(["--out", out, "saturate", "--a", "1", "--b", "2",
                 "--target-modes", "1,1;2,2"]) == 0
    rep = read_json(out, "certificate.json")
    assert rep["levels"] == [] and rep["certificates"] == []


def test_oracle_no_failures(tmp_path):
    cfg = write_cfg(tmp_path, "o.json",
                    {"max_index": 2, "geometries": [[1.0, 2.0], ["pi", "pi"]]})
    out = str(tmp_path / "o")
    assert main(["--out", out, "oracle", "--config", cfg]) == 0
    rep = read_json(out, "oracle_report.json")
    assert rep["failures"] == 0 and rep["comparisons"] > 0
    with open(os.path.join(out, "oracle_comparisons.csv")) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == rep["comparisons"] + 1


def test_norms_match_library(tmp_path):
    coeffs = {"1,1": 1.0, "2,1": 0.5}
    cfg = write_cfg(tmp_path, "n.json",
                    {"geometry": {"a": 1.0, "b": 2.0}, "coeffs": coeffs})
    out = str(tmp_path / "o")
    assert main(["--out", out, "norms", "--config", cfg]) == 0
    rep = read_json(out, "norms.json")
    u = SpectralField(RectGeometry(1.0, 2.0),
                      {(1, 1): 1.0, (2, 1): 0.5})
    for kind in ("H", "V", "DA"):
        assert rep[kind] == pytest.approx(u.norm(kind), rel=1e-12)
    assert rep["dual"] == pytest.approx(u.dual_norm(), rel=1e-12)


def test_project_solenoidal_output(tmp_path):
    cfg = write_cfg(tmp_path, "p.json",
                    {"geometry": {"a": 1.0, "b": 2.0},
                     "v1": {"1,1": 1.0}, "v2": {"1,1": 0.4}})
    out = str(tmp_path / "o")
    assert main(["--out", out, "project", "--config", cfg]) == 0
    rep = read_json(out, "projection.json")
    assert "1,1" in rep["solenoidal"]
    assert rep["verdict"] == "pass"


def test_lierank_level1(tmp_path):
    cfg = write_cfg(tmp_path, "l.json",
                    {"geometry": {"a": 1.0, "b": 2.0}, "nu": 1.0,
                     "level": 1, "controlled_level": 1,
                     "n_points": 2, "seed": 3})
    out = str(tmp_path / "o")
    assert main(["--out", out, "lierank", "--config", cfg]) == 0
    rep = read_json(out, "lierank_report.json")
    assert rep["kappa_N"] == 8
    assert all(p["rank"] == 8 for p in rep["points"])


IMI_CFG = {
    "geometry": {"a": 1.0, "b": 2.0}, "nu": 0.03, "level": 2,
    "controlled_level": 1, "u0": {"1,1": 0.05, "2,2": -0.025},
    "xi": 0.2, "breakpoints": [0.0, math.pi / 3],
    "labels": [["delta", [[1, 1], [1, 3]], 1]],
    "ws": [3, 6, 12], "slope_threshold": -0.6, "tol": 1e-8,
}


def test_imitate_sweep_and_jobs_env(tmp_path):
    cfg = write_cfg(tmp_path, "i.json", IMI_CFG)
    out = str(tmp_path / "o")
    assert main(["--out", out, "--jobs", "2", "imitate",
                 "--config", cfg]) == 0
    rep = read_json(out, "imitation_report.json")
    assert rep["slope"] <= -0.6
    assert rep["gaps"][2] < rep["gaps"][0]
    with open(os.path.join(out, "imitation_gaps.csv")) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 4


def test_imitate_failing_threshold_exit_1(tmp_path):
    cfg = dict(IMI_CFG, slope_threshold=-5.0)
    out = str(tmp_path / "o")
    assert main(["--out", out, "imitate", "--config",
                 write_cfg(tmp_path, "i.json", cfg)]) == 1


def test_write_csv_matches_csv_writer(tmp_path):
    # zeros of every kind, bools, numpy scalars, extreme exponents and
    # seventeen digits, strings that need quoting and repeated floats; a
    # text cache keyed on value would print 0.0 as "0" or 1 as "1.0"
    rows = [[0, 0.0, -0.0, False, 1, 1.0, True, 0.1],
            [np.float64(0.1), np.float64(-0.0), np.int64(7), 1e-300, 1e16,
             123456789012345678.0, -2.5e-7, 0.1],
            ["a,b", 'say "hi"', "line\nend", "", "plain", 1.0, 1, 0.0],
            [1e-300, 1e16, 0.1, -0.0, 0.0, 0, True, "0.1"]]
    header = ["x%d" % i for i in range(8)]
    cli._write_csv(str(tmp_path), "new.csv", header, rows)
    with open(tmp_path / "old.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    assert b"\r\n0,0.0,-0.0,False,1,1.0,True,0.1\r\n" in new


def test_steer_small_grid(tmp_path):
    cfg = write_cfg(tmp_path, "s.json", {
        "geometry": {"a": 1.0, "b": 2.0}, "nu": 1.0, "level": 3,
        "controlled_level": 1, "u0": {"1,1": 0.1, "2,2": -0.05},
        "radius": 0.1, "gamma_infl": 1.5, "horizon": 2.0,
        "grid_per_dim": 2, "fit_horizons": [0.1, 0.05, 0.025], "seed": 1,
    })
    out = str(tmp_path / "o")
    assert main(["--out", out, "steer", "--config", cfg]) == 0
    rep = read_json(out, "steer_report.json")
    assert rep["verdict"] == "pass"
    assert rep["experiments"][0]["max_residual"] < 1e-6
    with open(os.path.join(out, "steer_residuals.csv")) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2 ** 8 + 1


def test_steer_parallel_experiments_write_serial_bytes(tmp_path):
    # the per-target arrays come back from the worker processes pickled
    exp = {"geometry": {"a": 1.0, "b": 2.0}, "nu": 1.0, "level": 3,
           "controlled_level": 1, "u0": {"1,1": 0.1, "2,2": -0.05},
           "radius": 0.1, "gamma_infl": 1.5, "horizon": 2.0,
           "grid_per_dim": 2, "fit_horizons": [0.1, 0.05, 0.025]}
    cfg = write_cfg(tmp_path, "s.json", {"experiments": [
        dict(exp, seed=1), dict(exp, seed=2, radius=0.05)]})
    outs = [str(tmp_path / name) for name in ("serial", "parallel")]
    for out, jobs in zip(outs, ("1", "2")):
        assert main(["--out", out, "--jobs", jobs, "steer",
                     "--config", cfg]) == 0
    for name in ("steer_residuals.csv", "steer_report.json"):
        with open(os.path.join(outs[0], name), "rb") as a, \
                open(os.path.join(outs[1], name), "rb") as b:
            assert a.read() == b.read()
    with open(os.path.join(outs[0], "steer_residuals.csv")) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2 * 2 ** 8 + 1
    assert [r[0] for r in rows[1:]] == ["0"] * 2 ** 8 + ["1"] * 2 ** 8


def test_plot_flag_writes_png_when_matplotlib_present(tmp_path):
    pytest.importorskip("matplotlib")
    cfg = write_cfg(tmp_path, "sim.json", SIM_CFG)
    out = str(tmp_path / "o")
    assert main(["--out", out, "--plot", "simulate", "--config", cfg]) == 0
    assert os.path.exists(os.path.join(out, "h_norm.png"))


LIERANK_CFG = {"geometry": {"a": 1.0, "b": 2.0}, "nu": 1.0, "level": 1,
               "controlled_level": 1, "n_points": 1}
STEER_CFG = {"geometry": {"a": 1.0, "b": 2.0}, "nu": 1.0, "level": 1,
             "radius": 0.1, "gamma_infl": 1.5, "horizon": 0.1}


@pytest.mark.parametrize("command, cfg", [
    ("simulate", dict(SIM_CFG, tol=[1e-8])),
    ("simulate", dict(SIM_CFG, u0={"1,1": [0.5]})),
    ("simulate", dict(SIM_CFG, controlled_level="1")),
    ("simulate", dict(SIM_CFG, control=[0.0, 0.3])),
    ("simulate", dict(SIM_CFG, control={"breakpoints": [0.0, 0.3],
                                        "values": [{"1,1": 1.0}]})),
    ("simulate", dict(SIM_CFG, control={"breakpoints": [0.0, 0.3],
                                        "values": [0.0] * 8})),
    ("imitate", dict(IMI_CFG, labels=[["delta", 5, 1]])),
    ("imitate", dict(IMI_CFG, labels=[["delta", [[1, 1], [3, 3]], 1]])),
    ("imitate", dict(IMI_CFG, labels=[["e", [6, 6], 1]])),
    ("imitate", dict(IMI_CFG, ws=[[3.0]])),
    ("steer", {"experiments": [3]}),
    ("steer", dict(STEER_CFG, fit_horizons=[[0.1]])),
    ("steer", dict(STEER_CFG, seed=[1])),
    ("lierank", dict(LIERANK_CFG, n_points=[2])),
    ("simulate", dict(SIM_CFG, level=True)),
    ("simulate", dict(SIM_CFG, nu=True)),
    ("lierank", dict(LIERANK_CFG, n_points=True)),
    ("lierank", dict(LIERANK_CFG, seed=False)),
    ("lierank", dict(LIERANK_CFG, square_repair=1)),
    ("simulate", dict(SIM_CFG, geometry={"a": True, "b": 2.0})),
    ("simulate", dict(SIM_CFG, u0={"1,1": True})),
    ("steer", dict(STEER_CFG, grid_per_dim=1)),
    ("lierank", dict(LIERANK_CFG, n_points=0)),
    ("imitate", dict(IMI_CFG, ws=[])),
    ("oracle", {"geometries": [1.0]}),
    ("project", {"geometry": {"a": 1.0, "b": 1.0}, "v1": [1.0]}),
], ids=["tol", "u0_value", "controlled_level", "control", "control_values",
        "control_values_flat", "label", "label_outside_J", "label_outside",
        "ws", "experiment", "fit_horizons", "seed", "n_points",
        "level_bool", "nu_bool", "n_points_bool", "seed_bool",
        "square_repair_int", "side_bool", "u0_value_bool", "grid_per_dim_1",
        "n_points_0", "ws_empty",
        "geometries", "v1"])
def test_mistyped_fields_are_config_errors(tmp_path, capsys, command, cfg):
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["--out", str(tmp_path / "o"), command,
                 "--config", path]) == 2
    assert "config error" in capsys.readouterr().err
