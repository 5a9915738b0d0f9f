import csv
import json
import math
import os

import numpy as np
import pytest

from galns.cli import main
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


def test_simulate_control_short_of_horizon_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "short.json", dict(
        SIM_CFG, control={"breakpoints": [0.0, 0.1], "values": [[0.0] * 8]}))
    assert main(["--out", str(tmp_path / "o"), "simulate",
                 "--config", cfg]) == 2
    assert "does not cover [0, 0.3]" in capsys.readouterr().err


def test_saturate_rectangle_chain(tmp_path):
    out = str(tmp_path / "o")
    assert main(["--out", out, "saturate", "--a", "1", "--b", "2",
                 "--target-modes", "5,5"]) == 0
    rep = read_json(out, "certificate.json")
    assert rep["verdict"] == "pass"
    assert rep["levels"] == [1, 2, 3]


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


def test_imitate_sweep_and_jobs_env(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, "i.json", IMI_CFG)
    out = str(tmp_path / "o")
    monkeypatch.setenv("GALERKIN_STEER_JOBS", "2")
    assert main(["--out", out, "--jobs", "1", "imitate",
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


def test_jobs_env_must_be_integer(tmp_path, monkeypatch):
    monkeypatch.setenv("GALERKIN_STEER_JOBS", "lots")
    cfg = write_cfg(tmp_path, "i.json", IMI_CFG)
    assert main(["--out", str(tmp_path / "o"), "imitate",
                 "--config", cfg]) == 2


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


def test_plot_flag_writes_png_when_matplotlib_present(tmp_path):
    pytest.importorskip("matplotlib")
    cfg = write_cfg(tmp_path, "sim.json", SIM_CFG)
    out = str(tmp_path / "o")
    assert main(["--out", out, "--plot", "simulate", "--config", cfg]) == 0
    assert os.path.exists(os.path.join(out, "h_norm.png"))
