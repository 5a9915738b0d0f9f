import csv
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import galns
from galns import cli, dynamics
from galns.cli import main
from galns.dynamics import StiffnessError


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
    b1 = Path(out1, "trajectory.csv").read_bytes()
    b2 = Path(out2, "trajectory.csv").read_bytes()
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
from galns.spectral import RectGeometry, SpectralField, mode_set_K
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
ORACLE_3 = """
assert galns.cli.main(["--out", OUT, "oracle", "--config", ORA]) == 0
"""


@pytest.mark.parametrize("run", ["", K3_RUN, LIERANK_6, SIMULATE_8, IMITATE_2,
                                 IMITATE_DIRECT, ORACLE_3],
                         ids=["import", "integrate_K3", "lierank_6",
                              "simulate_8", "imitate_2", "imitate_direct",
                              "oracle_3"])
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
    # the same after a direct interval, whose reference run is its replay
    imd = write_cfg(tmp_path, "d.json", dict(
        imi_cfg, breakpoints=[0.0, 0.1, 0.3],
        labels=[["e", [1, 1], 1], ["delta", [[1, 1], [1, 3]], 1]]))
    # the Gauss-Legendre rule of the quadrature oracle
    ora = write_cfg(tmp_path, "q.json",
                    {"max_index": 3, "geometries": [[1.0, 2.0]]})
    paths = "OUT, CFG, SIM, IMI, IMD, ORA = %r, %r, %r, %r, %r, %r\n" % (
        str(tmp_path / "o"), cfg, sim, imi, imd, ora)
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
    def stiff(cfg, outdir):
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


def test_step_underflow_mid_run_leaves_no_partial_table(tmp_path, monkeypatch,
                                                       capsys):
    # a control of 1e150 on [3.9, 4] underflows the step at t = 3.9, after
    # the rows of [0, 3.9] have been written
    written = []
    write_row = dynamics.CsvSink.__call__

    def counted(self, t, y):
        write_row(self, t, y)
        written.append(self.fh.tell())
    monkeypatch.setattr(dynamics.CsvSink, "__call__", counted)
    out = str(tmp_path / "o")
    ok = write_cfg(tmp_path, "ok.json", SIM_CFG)
    assert main(["--out", out, "simulate", "--config", ok]) == 0
    earlier = Path(out, "trajectory.csv").read_bytes()
    stiff = write_cfg(tmp_path, "stiff.json", dict(
        SIM_CFG, T=4.0, tol=1e-10, forcing={"1,1": 5.0},
        control={"breakpoints": [0.0, 3.9, 4.0],
                 "values": [[0.0] * 8, [1e150] + [0.0] * 7]}))
    written.clear()
    assert main(["--out", out, "simulate", "--config", stiff]) == 3
    assert len(written) > 64 and written[-1] > len(earlier)
    assert "numerical failure: step underflow at t=3.9" \
        in capsys.readouterr().err
    assert read_json(out, "report.json")["verdict"] == "numerical_failure"
    assert read_json(out, "manifest.json")["outputs"] == ["report.json"]
    assert sorted(os.listdir(out)) == ["manifest.json", "report.json",
                                       "trajectory.csv"]
    assert Path(out, "trajectory.csv").read_bytes() == earlier


def test_simulate_memory_does_not_grow_with_the_horizon(tmp_path):
    # rows are written as they are accepted, so a run 8 times as long
    # peaks higher only by the accepted times and the H norms it keeps,
    # about 47 bytes a step (allowed: 96, and one 64-row block of states);
    # holding the states takes 2 x 504 bytes a step at level 6
    cfg = {"geometry": {"a": 1.0, "b": 2.0}, "nu": 0.05, "level": 6,
           "controlled_level": 1, "forcing": {"1,1": 5.0, "2,1": -2.5},
           "u0": {"1,1": 0.5, "2,2": -0.3}, "T": 0.8}
    out = str(tmp_path / "o")

    def run(T):
        path = write_cfg(tmp_path, "sim.json", dict(cfg, T=T))
        tracemalloc.start()
        try:
            assert main(["--out", out, "simulate", "--config", path]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, read_json(out, "report.json")["steps"]
    run(0.05)  # imports and caches
    (short, n_short), (long, n_long) = run(0.8), run(6.4)
    # the short run is longer than a 64-row block too
    assert n_short > 65 and n_long > 7 * n_short
    block = 64 * 63 * 8
    assert long - short < block + 96 * (n_long - n_short)


def test_internal_error_exit_4_with_traceback(tmp_path, monkeypatch, capsys):
    # a bug inside a command is neither a config error nor a verdict
    def broken(cfg, outdir):
        return {}["missing"]
    monkeypatch.setattr(cli, "cmd_simulate", broken)
    cfg = write_cfg(tmp_path, "sim.json", SIM_CFG)
    assert main(["--out", str(tmp_path / "o"), "simulate",
                 "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "KeyError: 'missing'" in err
    assert "internal error" in err and "config error" not in err


def test_value_error_inside_a_run_is_internal_exit_4(tmp_path, monkeypatch,
                                                   capsys):
    # only a ConfigError is a config error: a ValueError that the solve
    # raises on a valid config is a bug, reported with its traceback
    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast")
    monkeypatch.setattr(dynamics, "integrate", broken)
    cfg = write_cfg(tmp_path, "sim.json", SIM_CFG)
    assert main(["--out", str(tmp_path / "o"), "simulate",
                 "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "config error" not in err
    assert "internal error: ValueError: operands could not be broadcast" in err


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
    """The square is detected from the exact squares and takes the
    repaired selections; the plain family, which fails there, is only
    reachable through verify_step(..., square_mode=False)."""
    out = str(tmp_path / "k")
    assert main(["--out", out, "saturate", "--a", "1", "--b", "1",
                 "--target-modes", "4,4"]) == 0
    rep = read_json(out, "certificate.json")
    assert rep["square"] is True and rep["verdict"] == "pass"
    # sha256 of the certificate the square run wrote when it still took a
    # flag to choose the repaired selections
    with open(os.path.join(out, "certificate.json"), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == (
            "52f6f014c28a01806af51ca76c32033d324866b214039919405609c66233abe5")


def test_saturate_target_below_one_exit_2(tmp_path, capsys):
    # no K^j holds a mode with a component below 1
    assert main(["--out", str(tmp_path / "o"), "saturate", "--a", "1",
                 "--b", "2", "--target-modes", "0,1"]) == 2
    assert "components must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("side", ["0", "-1", "-3/2"])
def test_saturate_nonpositive_side_exit_2(tmp_path, capsys, side):
    assert main(["--out", str(tmp_path / "o"), "saturate", "--a=" + side,
                 "--b", "2", "--target-modes", "3,3"]) == 2
    assert "must be positive" in capsys.readouterr().err


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


def test_lierank_pi_rectangle_level10(tmp_path):
    """(pi, 1) at level 10 is ranked exactly at the binary value of pi and
    passes; the floating-point SVD that ran before read rank 142."""
    cfg = write_cfg(tmp_path, "l.json",
                    {"geometry": {"a": "pi", "b": 1}, "nu": 1.0,
                     "level": 10, "controlled_level": 1, "n_points": 2})
    out = str(tmp_path / "o")
    assert main(["--out", out, "lierank", "--config", cfg]) == 0
    rep = read_json(out, "lierank_report.json")
    assert rep["verdict"] == "pass" and rep["kappa_N"] == 143
    assert all(p["rank"] == 143 and p["exact"] for p in rep["points"])


def test_lierank_ranks_once_per_run(tmp_path, monkeypatch):
    """The rank reads no point: five sampled points share one
    full_rank_check and differ only in their hashes."""
    from galns import lie_rank
    rank, calls = lie_rank.full_rank_check, []

    def counted(*args, **kwargs):
        calls.append(args)
        return rank(*args, **kwargs)
    monkeypatch.setattr(lie_rank, "full_rank_check", counted)
    cfg = write_cfg(tmp_path, "l.json", dict(LIERANK_CFG, n_points=5))
    out = str(tmp_path / "o")
    assert main(["--out", out, "lierank", "--config", cfg]) == 0
    assert len(calls) == 1
    points = read_json(out, "lierank_report.json")["points"]
    assert len({p["point_hash"] for p in points}) == 5
    assert all(dict(p, point_hash=None) == dict(points[0], point_hash=None)
               for p in points)


def test_lierank_report_bytes_are_pinned(tmp_path):
    # sha256 of the report written when each point was ranked on its own
    cfg = write_cfg(tmp_path, "l.json",
                    {"geometry": {"a": 1.0, "b": 2.0}, "nu": 1.0,
                     "level": 6, "controlled_level": 1, "n_points": 2,
                     "seed": 1})
    out = str(tmp_path / "o")
    assert main(["--out", out, "lierank", "--config", cfg]) == 0
    with open(os.path.join(out, "lierank_report.json"), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == (
            "11f1fc75a20f779a2067d756955d94747937087f8757352791eb10a2b2f4b178")


IMI_CFG = {
    "geometry": {"a": 1.0, "b": 2.0}, "nu": 0.03, "level": 2,
    "controlled_level": 1, "u0": {"1,1": 0.05, "2,2": -0.025},
    "xi": 0.2, "breakpoints": [0.0, math.pi / 3],
    "labels": [["delta", [[1, 1], [1, 3]], 1]],
    "ws": [3, 6, 12], "slope_threshold": -0.6, "tol": 1e-8,
}


def test_imitate_sweep(tmp_path):
    cfg = write_cfg(tmp_path, "i.json", IMI_CFG)
    out = str(tmp_path / "o")
    assert main(["--out", out, "imitate", "--config", cfg]) == 0
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


# the CI imitate system with two direct intervals: the K^1 control applies
# both labels exactly, so the imitation has no gap at any frequency
EXACT_IMI_CFG = {
    "geometry": {"a": 1, "b": 2}, "nu": 0.03, "level": 2,
    "controlled_level": 1, "u0": {"1,1": 0.05}, "xi": 0.2,
    "breakpoints": [0, 0.1, 0.3],
    "labels": [["e", [1, 1], 1], ["e", [1, 3], -1]], "ws": [6, 12]}


def test_exact_imitation_passes_with_null_slope(tmp_path, recwarn):
    # zero gaps have no logarithm: the slope was NaN (not JSON), numpy
    # warned of a log of zero, and the exact imitation failed
    out = str(tmp_path / "o")
    assert main(["--out", out, "imitate", "--config",
                 write_cfg(tmp_path, "i.json", EXACT_IMI_CFG)]) == 0
    with open(os.path.join(out, "imitation_report.json")) as fh:
        rep = json.loads(fh.read(), parse_constant=pytest.fail)
    assert rep["gaps"] == [0.0, 0.0] and rep["slope"] is None
    assert rep["verdict"] == "pass"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_zero_gap_beside_nonzero_gap_fails_without_nan(tmp_path, monkeypatch,
                                                       recwarn):
    # a zero gap beside a nonzero one fits no power law: the run fails, and
    # its report holds no NaN
    from dataclasses import replace

    from galns import control
    imitate = control.imitate

    def one_exact(sys, z, w, **kwargs):
        res = imitate(sys, z, w, **kwargs)
        return replace(res, gap=0.0) if w == 6 else res
    monkeypatch.setattr(control, "imitate", one_exact)
    out = str(tmp_path / "o")
    assert main(["--out", out, "imitate", "--config",
                 write_cfg(tmp_path, "i.json", dict(IMI_CFG, ws=[6, 12]))]) == 1
    with open(os.path.join(out, "imitation_report.json")) as fh:
        rep = json.loads(fh.read(), parse_constant=pytest.fail)
    assert rep["gaps"][0] == 0.0 < rep["gaps"][1] and rep["slope"] is None
    assert rep["verdict"] == "fail"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_single_frequency_slope_is_null(tmp_path):
    # one frequency determines no slope: it was written as NaN, not JSON
    out = str(tmp_path / "o")
    assert main(["--out", out, "imitate", "--config",
                 write_cfg(tmp_path, "i.json", dict(IMI_CFG, ws=[12]))]) == 0
    for name in ("imitation_report.json", "report.json"):
        with open(os.path.join(out, name)) as fh:
            rep = json.loads(fh.read(), parse_constant=pytest.fail)
        assert rep["slope"] is None and rep["verdict"] == "pass"


def test_pinning_measures_the_delivered_control(tmp_path, monkeypatch):
    # the pinning gap is read after the replay of each tracked piece's
    # control: a control 1e-6 off its tracking fit shows, and fails the run
    from dataclasses import replace

    from galns import control
    track = control.tracking_control

    def perturbed(*args, **kwargs):
        v, stats = track(*args, **kwargs)
        coefficients = v.coefficients.copy()
        coefficients[:, 0] += 1e-6
        return replace(v, coefficients=coefficients), stats
    monkeypatch.setattr(control, "tracking_control", perturbed)
    out = str(tmp_path / "o")
    assert main(["--out", out, "imitate", "--config",
                 write_cfg(tmp_path, "i.json", dict(IMI_CFG, ws=[12]))]) == 1
    rep = read_json(out, "imitation_report.json")
    assert rep["pinning_ok"] is False and rep["verdict"] == "fail"
    with open(os.path.join(out, "imitation_gaps.csv")) as fh:
        (row,) = list(csv.DictReader(fh))
    assert float(row["max_pinning"]) > 10 * IMI_CFG["tol"]


BELOW_LEVEL = "field 'controlled_level' must be below 'level'"


@pytest.mark.parametrize("cfg, message", [
    (dict(IMI_CFG, controlled_level=2), BELOW_LEVEL),
    (dict(IMI_CFG, controlled_level=3), BELOW_LEVEL),
    ({k: v for k, v in IMI_CFG.items() if k != "controlled_level"},
     BELOW_LEVEL),
    (dict(IMI_CFG, level=3, ws=[12], labels=[["e", [1, 4], 1]]),
     "schedule label ('e', (1, 4), 1) names a mode outside J")],
    ids=["equal", "above", "absent", "label_outside_K1"])
def test_imitate_acts_on_controlled_level(tmp_path, capsys, cfg, message):
    # J is K^controlled_level, below the level: e_(1,4) lies in K^2 but not
    # in K^1, and at level 3 with controlled_level 1 it was once applied by
    # a K^2 control, with no error
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["--out", str(tmp_path / "o"), "imitate",
                 "--config", path]) == 2
    assert "config error: " + message in capsys.readouterr().err


def csv_writer_bytes(path, header, rows):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)
    return path.read_bytes()


def test_write_csv_matches_csv_writer(tmp_path):
    # zeros of every kind, bools, numpy scalars, extreme exponents and
    # seventeen digits, strings that need quoting and repeated floats
    rows = [[0, 0.0, -0.0, False, 1, 1.0, True, 0.1],
            [np.float64(0.1), np.float64(-0.0), np.int64(7), 1e-300, 1e16,
             123456789012345678.0, -2.5e-7, 0.1],
            ["a,b", 'say "hi"', "line\nend", "", "plain", 1.0, 1, 0.0],
            [1e-300, 1e16, 0.1, -0.0, 0.0, 0, True, "0.1"]]
    header = ["x%d" % i for i in range(8)]
    cli._write_csv(str(tmp_path), "mixed.csv", header, rows)
    new = (tmp_path / "mixed.csv").read_bytes()
    assert new == csv_writer_bytes(tmp_path / "mixed_ref.csv", header, rows)
    assert b"\r\n0,0.0,-0.0,False,1,1.0,True,0.1\r\n" in new

    # the steer table's rows as cmd_steer makes them from TargetRows
    # arrays, streamed from a generator: the same floats, repeated over
    # more than 2,048 rows, in experiments of 2, 4 and 3 observed
    # coordinates, so the first and last experiments' rows are padded
    from galns.control import TargetRows
    values = np.array([0.0, -0.0, 1e-300, -1e-300, 1e16, -2.5e-7, 0.1,
                       123456789012345678.0, 0.30000000000000004,
                       -0.12345678901234568])
    rng = np.random.default_rng(3)
    tables = [TargetRows(values[rng.integers(len(values), size=(n, d))],
                         values[rng.integers(len(values), size=n)],
                         rng.integers(1, 60, size=n))
              for n, d in ((40, 2), (2100, 4), (300, 3))]
    header = (["experiment"] + ["target_%d" % i for i in range(4)]
              + ["residual", "iterations"])

    def steer_rows():
        return ([i] + target.tolist() + [""] * (4 - len(target)) + [res, its]
                for i, t in enumerate(tables)
                for target, res, its in zip(t.targets, t.residuals.tolist(),
                                            t.iterations.tolist()))
    cli._write_csv(str(tmp_path), "steer.csv", header, steer_rows())
    new = (tmp_path / "steer.csv").read_bytes()
    ref = list(steer_rows())
    assert new == csv_writer_bytes(tmp_path / "steer_ref.csv", header, ref)
    assert len(ref) > 2048
    assert {b"-0.0", b"1e-300", b"1e+16"} <= set(new.replace(b"\r\n",
                                                             b",").split(b","))
    lines = new.split(b"\r\n")
    assert lines[1].split(b",")[3:5] == [b"", b""]  # padding
    assert lines[-2].split(b",")[4] == b""


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


def test_steer_experiments_rows_in_config_order(tmp_path):
    exp = {"geometry": {"a": 1.0, "b": 2.0}, "nu": 1.0, "level": 3,
           "controlled_level": 1, "u0": {"1,1": 0.1, "2,2": -0.05},
           "radius": 0.1, "gamma_infl": 1.5, "horizon": 2.0,
           "grid_per_dim": 2, "fit_horizons": [0.1, 0.05, 0.025]}
    cfg = write_cfg(tmp_path, "s.json", {"experiments": [
        dict(exp, seed=1), dict(exp, seed=2, radius=0.05)]})
    out = str(tmp_path / "o")
    assert main(["--out", out, "steer", "--config", cfg]) == 0
    assert len(read_json(out, "steer_report.json")["experiments"]) == 2
    with open(os.path.join(out, "steer_residuals.csv")) as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2 * 2 ** 8 + 1
    assert [r[0] for r in rows[1:]] == ["0"] * 2 ** 8 + ["1"] * 2 ** 8


def test_steer_rows_of_a_lower_observed_dim_are_padded(tmp_path):
    # experiments observed on K^1 (d = 8) and K^2 (d = 15): the d = 8 rows
    # wrote their residual under target_8, so csv.DictReader read their
    # residual and iterations as None
    exp = dict(STEER_GRID_CFG, level=2, controlled_level=2)
    cfg = write_cfg(tmp_path, "s.json", {"experiments": [
        dict(exp, observed_level=1), dict(exp, observed_level=2)]})
    out = str(tmp_path / "o")
    assert main(["--out", out, "steer", "--config", cfg]) == 0
    reps = read_json(out, "steer_report.json")["experiments"]
    with open(os.path.join(out, "steer_residuals.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 ** 8 + 2 ** 15
    assert {r["target_%d" % i] for r in rows[:2 ** 8]
            for i in range(8, 15)} == {""}
    for rep, part in zip(reps, (rows[:2 ** 8], rows[2 ** 8:])):
        assert max(float(r["residual"]) for r in part) == rep["max_residual"]
        assert all(int(r["iterations"]) >= 1 for r in part)


@pytest.mark.parametrize("fit_horizons", [[0.1], [0.1, 0.1]],
                         ids=["one", "repeated"])
def test_steer_single_fit_horizon_slope_is_null(tmp_path, fit_horizons):
    # one fit horizon determines no slope: it was written as NaN, not JSON
    out = str(tmp_path / "o")
    cfg = write_cfg(tmp_path, "s.json",
                    dict(STEER_GRID_CFG, fit_horizons=fit_horizons))
    assert main(["--out", out, "steer", "--config", cfg]) == 0
    for name in ("steer_report.json", "report.json"):
        with open(os.path.join(out, name)) as fh:
            rep = json.loads(fh.read(), parse_constant=pytest.fail)
        assert rep["experiments"][0]["deviation_slope"] is None


@pytest.mark.parametrize("jobs", ["0", "2"])
def test_jobs_other_than_1_exit_2(tmp_path, capsys, jobs):
    # every command runs in one process; --jobs stays only as "1"
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path / "o"), "--jobs", jobs, "saturate",
              "--a", "1", "--b", "2", "--target-modes", "3,3"])
    assert exc.value.code == 2
    assert "parallel runs were removed" in capsys.readouterr().err


def test_jobs_1_runs(tmp_path):
    assert main(["--out", str(tmp_path / "o"), "--jobs", "1", "saturate",
                 "--a", "1", "--b", "2", "--target-modes", "3,3"]) == 0


NOTHING_COMPARED = ("field 'max_index' must be at least 2 and field "
                    "'geometries' non-empty: nothing is compared")
TOLERANCES = "fields 'rel_tol' and 'abs_floor' must be positive and finite"


@pytest.mark.parametrize("field, value, message", [
    ("rel_tol", 0, TOLERANCES + ", got 0.0 and 1e-12"),
    ("abs_floor", 0, TOLERANCES + ", got 1e-08 and 0.0"),
    ("rel_tol", math.inf, TOLERANCES + ", got inf and 1e-12"),
    ("rel_tol", math.nan, TOLERANCES + ", got nan and 1e-12"),
    ("max_index", 1, NOTHING_COMPARED),
    ("max_index", 0, NOTHING_COMPARED),
    ("geometries", [], NOTHING_COMPARED),
], ids=["rel_tol_0", "abs_floor_0", "rel_tol_inf", "rel_tol_nan",
        "max_index_1", "max_index_0", "geometries_empty"])
def test_oracle_rejects_configs_that_compare_nothing(tmp_path, capsys, field,
                                                     value, message):
    # a zero or infinite tolerance would divide by zero in oracle_sweep,
    # and a sweep with no pair or no geometry would pass on no comparison
    cfg = write_cfg(tmp_path, "o.json",
                    {"max_index": 2, "geometries": [[1.0, 2.0]],
                     field: value})
    assert main(["--out", str(tmp_path / "o"), "oracle", "--config", cfg]) == 2
    assert "config error: " + message in capsys.readouterr().err


def test_plot_option_is_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "sim.json", SIM_CFG)
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path / "o"), "--plot", "simulate",
              "--config", cfg])
    assert exc.value.code == 2
    assert "unrecognized arguments: --plot" in capsys.readouterr().err


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
    ("imitate", dict(IMI_CFG, labels=[["e", [1, 1], 0.5]])),
    ("imitate", dict(IMI_CFG, labels=[["delta", [[1, 1], [1, 3]], 2]])),
    ("imitate", dict(IMI_CFG, labels=[["e", [1, 1], True]])),
    ("imitate", dict(IMI_CFG, ws=[[3.0]])),
    ("steer", {"experiments": [3]}),
    ("steer", dict(STEER_CFG, fit_horizons=[[0.1]])),
    ("steer", dict(STEER_CFG, seed=[1])),
    ("lierank", dict(LIERANK_CFG, n_points=[2])),
    ("simulate", dict(SIM_CFG, level=True)),
    ("simulate", dict(SIM_CFG, nu=True)),
    ("lierank", dict(LIERANK_CFG, n_points=True)),
    ("lierank", dict(LIERANK_CFG, seed=False)),
    ("simulate", dict(SIM_CFG, geometry={"a": True, "b": 2.0})),
    ("simulate", dict(SIM_CFG, u0={"1,1": True})),
    ("steer", dict(STEER_CFG, grid_per_dim=1)),
    ("lierank", dict(LIERANK_CFG, n_points=0)),
    ("imitate", dict(IMI_CFG, ws=[])),
    ("imitate", dict(IMI_CFG, ws=[True, 6.0])),
    ("simulate", dict(SIM_CFG, control={"breakpoints": [False, 0.3],
                                        "values": [[0.0] * 8]})),
    ("simulate", dict(SIM_CFG, control={"breakpoints": [0.0, 0.3],
                                        "values": [[True] + [0.0] * 7]})),
    ("oracle", {"geometries": [1.0]}),
], ids=["tol", "u0_value", "controlled_level", "control", "control_values",
        "control_values_flat", "label", "label_outside_J", "label_outside",
        "label_sign_half", "label_sign_2", "label_sign_bool",
        "ws", "experiment", "fit_horizons", "seed", "n_points",
        "level_bool", "nu_bool", "n_points_bool", "seed_bool",
        "side_bool", "u0_value_bool", "grid_per_dim_1",
        "n_points_0", "ws_empty", "ws_bool_entry", "breakpoints_bool_entry",
        "values_bool_entry",
        "geometries"])
def test_mistyped_fields_are_config_errors(tmp_path, capsys, command, cfg):
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["--out", str(tmp_path / "o"), command,
                 "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


STEER_GRID_CFG = {
    "geometry": {"a": 1.0, "b": 2.0}, "nu": 1.0, "level": 3,
    "controlled_level": 1, "u0": {"1,1": 0.1, "2,2": -0.05},
    "radius": 0.1, "gamma_infl": 1.5, "horizon": 2.0,
    "grid_per_dim": 2, "fit_horizons": [0.1, 0.05, 0.025], "seed": 1,
}


@pytest.mark.parametrize("command, cfg, message", [
    ("steer", dict(STEER_GRID_CFG, tol=NAN), "tol must be positive"),
    ("steer", dict(STEER_GRID_CFG, residual_tol=NAN),
     "residual_tol must be positive"),
    ("steer", dict(STEER_GRID_CFG, radius=NAN), "radius must exceed 0"),
    ("steer", dict(STEER_GRID_CFG, gamma_infl=NAN),
     "gamma_infl must exceed 1"),
    ("steer", dict(STEER_GRID_CFG, horizon=math.inf),
     "horizon must exceed 0"),
    ("imitate", dict(IMI_CFG, xi=NAN), "xi must be positive"),
    ("imitate", dict(IMI_CFG, ws=[NAN]), "w must be at least 3"),
    ("imitate", dict(IMI_CFG, slope_threshold=NAN),
     "field 'slope_threshold' must be finite"),
    ("imitate", dict(IMI_CFG, ws=[6, 3], slope_threshold=1e999),
     "field 'slope_threshold' must be finite"),
    ("imitate", dict(IMI_CFG, ws=[12, 12], slope_threshold=-0.5),
     "field 'ws' lists a frequency twice: [12.0, 12.0]"),
    ("steer", dict(STEER_GRID_CFG, seed=-1),
     "field 'seed' must be at least 0, got -1"),
    ("lierank", dict(LIERANK_CFG, seed=-1),
     "field 'seed' must be at least 0, got -1"),
    ("steer", dict(STEER_GRID_CFG, u0={"1,1": NAN}), "u0 must be finite"),
    ("imitate", dict(IMI_CFG, u0={"1,1": NAN}), "u0 must be finite"),
], ids=["tol", "residual_tol", "radius", "gamma_infl", "horizon", "xi", "w",
        "slope_threshold_nan", "slope_threshold_inf", "ws_repeated",
        "seed_steer",
        "seed_lierank", "u0_steer", "u0_imitate"])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, command, cfg,
                                               message):
    # every comparison with NaN is false: a NaN residual_tol let every
    # target pass, and a NaN tol, radius or u0 ran into a step underflow;
    # a negative seed once reached numpy, whose message names no field
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["--out", str(tmp_path / "o"), command,
                 "--config", path]) == 2
    assert "config error: " + message in capsys.readouterr().err


HUGE = 10 ** 400
ORACLE_CFG = {"max_index": 2, "geometries": [[1.0, 2.0]]}


@pytest.mark.parametrize("command, cfg, field", [
    ("simulate", dict(SIM_CFG, u0={"1,1": HUGE}), "u0"),
    ("simulate", dict(SIM_CFG, forcing={"1,1": HUGE}), "forcing"),
    ("simulate", dict(SIM_CFG, nu=HUGE), "nu"),
    ("simulate", dict(SIM_CFG, T=HUGE), "T"),
    ("simulate", dict(SIM_CFG, tol=HUGE), "tol"),
    ("simulate", dict(SIM_CFG, geometry={"a": HUGE, "b": 2.0}), "a"),
    ("simulate", dict(SIM_CFG, control={"breakpoints": [0.0, HUGE],
                                        "values": [[0.0] * 8]}),
     "breakpoints"),
    ("steer", dict(STEER_GRID_CFG, radius=HUGE), "radius"),
    ("steer", dict(STEER_GRID_CFG, gamma_infl=HUGE), "gamma_infl"),
    ("steer", dict(STEER_GRID_CFG, horizon=HUGE), "horizon"),
    ("steer", dict(STEER_GRID_CFG, tol=HUGE), "tol"),
    ("steer", dict(STEER_GRID_CFG, residual_tol=HUGE), "residual_tol"),
    ("imitate", dict(IMI_CFG, ws=[HUGE]), "ws"),
    ("imitate", dict(IMI_CFG, xi=HUGE), "xi"),
    ("imitate", dict(IMI_CFG, tol=HUGE), "tol"),
    ("imitate", dict(IMI_CFG, slope_threshold=HUGE), "slope_threshold"),
    ("lierank", dict(LIERANK_CFG, nu=HUGE), "nu"),
    ("oracle", dict(ORACLE_CFG, geometries=[[HUGE, 2]]), "a"),
    ("oracle", dict(ORACLE_CFG, rel_tol=HUGE), "rel_tol"),
    ("oracle", dict(ORACLE_CFG, abs_floor=HUGE), "abs_floor"),
], ids=["u0", "forcing", "nu", "T", "tol", "side", "breakpoints",
        "radius", "gamma_infl", "horizon", "steer_tol", "residual_tol", "ws",
        "xi", "imitate_tol", "slope_threshold", "lierank_nu", "oracle_side",
        "rel_tol", "abs_floor"])
def test_integers_past_the_float_range_are_config_errors(tmp_path, capsys,
                                                         command, cfg, field):
    # json reads 1 followed by 400 zeros as an int; float() of it raised
    # OverflowError, an internal error (exit 4) that named no field
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["--out", str(tmp_path / "o"), command,
                 "--config", path]) == 2
    err = capsys.readouterr().err
    assert "config error: field %r" % field in err
    assert "int too large to convert to float" in err


@pytest.mark.parametrize("command, cfg", [
    ("simulate", dict(SIM_CFG, geometry={"a": math.inf, "b": 2.0})),
    ("simulate", dict(SIM_CFG, geometry={"a": 1e-320, "b": 2.0})),
    ("simulate", dict(SIM_CFG, geometry={"a": 1.0, "b": 1e300})),
    ("lierank", dict(LIERANK_CFG, geometry={"a": 1e-320, "b": 2.0})),
    ("oracle", dict(ORACLE_CFG, geometries=[[1e300, 2.0]])),
], ids=["inf", "square_underflows", "square_overflows", "lierank_tiny",
        "oracle_huge"])
def test_sides_without_finite_nonzero_squares_are_config_errors(
        tmp_path, capsys, command, cfg):
    # an infinite side ran into a step underflow (exit 3); a square of 0
    # divided by zero and a square past the float range overflowed in the
    # wavenumbers (exit 4); the exact rank of lierank read neither
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["--out", str(tmp_path / "o"), command,
                 "--config", path]) == 2
    assert "config error: side lengths must have finite nonzero squares" \
        in capsys.readouterr().err


@pytest.mark.parametrize("cfg, message", [
    (dict(LIERANK_CFG, nu=0), "viscosity must be positive and finite"),
    (dict(LIERANK_CFG, nu=-1), "viscosity must be positive and finite"),
    (dict(LIERANK_CFG, nu=NAN), "viscosity must be positive and finite"),
    (dict(LIERANK_CFG, forcing={"1,1": NAN}), "forcing must be finite"),
    (dict(LIERANK_CFG, forcing={"3,4": 1.0}),
     "forcing must be supported in mode_set"),
    (dict(LIERANK_CFG, controlled_level=2),
     "controlled_set must be a subset of mode_set"),
], ids=["nu_0", "nu_negative", "nu_nan", "forcing_nan", "forcing_outside",
        "controlled_above_level"])
def test_lierank_system_checks_are_config_errors(tmp_path, capsys, cfg,
                                                 message):
    # nu and forcing do not enter the rank, but a config that names no
    # valid system is an error, as for every command that integrates one
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["--out", str(tmp_path / "o"), "lierank",
                 "--config", path]) == 2
    assert "config error: " + message in capsys.readouterr().err


def test_lierank_controlled_level_other_than_1_names_the_field(tmp_path,
                                                               capsys):
    # the rank brackets from the K^1 modes; the message once named only the
    # library's controlled_set
    path = write_cfg(tmp_path, "c.json", dict(LIERANK_CFG, level=2,
                                              controlled_level=2))
    assert main(["--out", str(tmp_path / "o"), "lierank",
                 "--config", path]) == 2
    assert "config error: field 'controlled_level' must be 1" \
        in capsys.readouterr().err


@pytest.mark.parametrize("cfg, field", [
    (dict(STEER_GRID_CFG, fit_horizons=[]), "fit_horizons"),
    ({"experiments": []}, "experiments")], ids=["fit_horizons", "experiments"])
def test_steer_empty_lists_are_config_errors(tmp_path, capsys, cfg, field):
    # each once met max() of an empty sequence, whose message names no field
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["--out", str(tmp_path / "o"), "steer", "--config", path]) == 2
    assert "config error: field %r must not be empty" % field \
        in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg, unknown", [
    ("lierank", dict(LIERANK_CFG, n_point=1, square_repair=1),
     "unknown fields 'n_point', 'square_repair'"),
    ("oracle", SIM_CFG, "unknown fields 'T', 'controlled_level', 'geometry'"),
    ("oracle", dict(ORACLE_CFG, geometry={"a": 1.0, "b": 2.0}),
     "unknown field 'geometry'"),
    ("simulate", dict(SIM_CFG, horizon=0.3), "unknown field 'horizon'"),
    ("simulate", dict(SIM_CFG, control={"breakpoints": [0.0, 0.3],
                                        "values": [[0.0] * 8], "kind": 0}),
     "unknown field 'kind' in control"),
    ("simulate", dict(SIM_CFG, geometry={"a": 1.0, "b": 2.0, "c": 3.0}),
     "unknown field 'c' in geometry"),
    ("steer", dict(STEER_GRID_CFG, grid=3), "unknown field 'grid' in experiment"),
    ("steer", {"experiments": [dict(STEER_GRID_CFG, n_points=2)]},
     "unknown field 'n_points' in experiment"),
    ("steer", {"experiments": [STEER_GRID_CFG], "seed": 3},
     "unknown field 'seed'"),
    ("imitate", dict(IMI_CFG, w=[3]), "unknown field 'w'"),
    ("lierank", dict(LIERANK_CFG, scale=2.0), "unknown field 'scale'"),
], ids=["lierank", "oracle_given_simulate", "oracle_geometry", "simulate",
        "control", "geometry", "steer", "steer_experiment", "steer_top_level",
        "imitate", "lierank_scale"])
def test_unknown_fields_are_config_errors(tmp_path, capsys, command, cfg,
                                          unknown):
    # a field that the command does not read is named, not ignored
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["--out", str(tmp_path / "o"), command,
                 "--config", path]) == 2
    assert "config error: " + unknown in capsys.readouterr().err


def test_imitate_e_label_outside_J_exit_2(tmp_path, capsys):
    # the J control cannot apply e_(3,3) of K^2; after an interaction
    # interval it was once tracked anyway, with no error
    path = write_cfg(tmp_path, "c.json", dict(
        IMI_CFG, breakpoints=[0.0, 0.3, 0.6], ws=[12],
        labels=[["delta", [[1, 1], [1, 3]], 1], ["e", [3, 3], 1]]))
    assert main(["--out", str(tmp_path / "o"), "imitate",
                 "--config", path]) == 2
    assert "config error: schedule label ('e', (3, 3), 1) names a mode " \
        "outside J" in capsys.readouterr().err


def test_imitate_bad_tol_reported_as_given(tmp_path, capsys):
    # imitate integrates at tol / 10; the error names the tol of the config
    path = write_cfg(tmp_path, "c.json", dict(IMI_CFG, tol=-1))
    assert main(["--out", str(tmp_path / "o"), "imitate",
                 "--config", path]) == 2
    assert "tol must be positive and finite, got -1.0" \
        in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg, message", [
    ("simulate", dict(SIM_CFG, T=-0.3), "horizon must be positive and finite"),
    ("simulate", dict(SIM_CFG, tol=0), "tol must be positive and finite"),
    ("simulate", dict(SIM_CFG, control={"breakpoints": [0.0, 0.3],
                                        "values": [[0.0] * 3]}),
     "control dimension != |controlled_set|"),
    ("simulate", dict(SIM_CFG, u0={"9,9": 1.0}),
     "field not supported in mode_set"),
    ("simulate", dict(SIM_CFG, level=0), "level must be >= 1"),
    ("steer", dict(STEER_GRID_CFG, fit_horizons=[0.1, -0.05]),
     "field 'fit_horizons' must hold positive finite horizons"),
    ("steer", dict(STEER_GRID_CFG, observed_level=2),
     "observed_set must be controlled"),
    ("imitate", dict(IMI_CFG, labels=[["delta", [[1, 3], [1, 1]], 1]]),
     "a delta pair (m, n) needs m < n"),
    ("imitate", dict(IMI_CFG, breakpoints=[0.0, 0.0]),
     "breakpoints must be strictly increasing"),
    ("imitate", dict(IMI_CFG, u0={"9,9": 1.0}),
     "field not supported in mode_set"),
    # an infinite last breakpoint once exited 4 (IndexError) after a delta
    # label, and 0 with a zero gap, having integrated nothing, after an e one
    ("imitate", dict(IMI_CFG, breakpoints=[0.0, 0.1, math.inf],
                     labels=[["e", [1, 1], 1], ["delta", [[1, 1], [1, 3]], 1]]),
     "breakpoints must be finite"),
    ("imitate", dict(IMI_CFG, breakpoints=[0.0, math.inf],
                     labels=[["e", [1, 1], 1]]),
     "breakpoints must be finite"),
    ("oracle", dict(ORACLE_CFG, geometries=[[0, 2.0]]),
     "side lengths must be positive"),
], ids=["T", "tol", "control_width", "u0_outside", "level_0",
        "fit_horizon_negative", "observed_above_controlled",
        "delta_pair_reversed", "breakpoints_repeated", "imitate_u0_outside",
        "breakpoint_inf_after_delta", "breakpoint_inf_after_e",
        "oracle_side_0"])
def test_library_checks_of_the_config_are_config_errors(tmp_path, capsys,
                                                        command, cfg,
                                                        message):
    # each is met by a library check before any run, and re-raised as a
    # config error; a ValueError from inside the run is an internal error
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["--out", str(tmp_path / "o"), command,
                 "--config", path]) == 2
    err = capsys.readouterr().err
    assert "config error: " in err and message in err


@pytest.mark.parametrize("command, cfg, module, runner", [
    ("steer", {"experiments": [STEER_GRID_CFG,
                               dict(STEER_GRID_CFG, radius=-0.1)]},
     "control", "covering_check"),
    ("oracle", dict(ORACLE_CFG, geometries=[[1.0, 2.0], [0, 2.0]]),
     "nonlinearity", "oracle_sweep"),
], ids=["steer", "oracle"])
def test_a_bad_later_entry_exits_2_before_the_first_run(
        tmp_path, monkeypatch, command, cfg, module, runner):
    # the second experiment or geometry is read, and rejected, before the
    # first one's covering or sweep runs
    module = importlib.import_module("galns." + module)
    calls = []
    run = getattr(module, runner)
    monkeypatch.setattr(module, runner,
                        lambda *a, **kw: calls.append(a) or run(*a, **kw))
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["--out", str(tmp_path / "o"), command,
                 "--config", path]) == 2
    assert calls == []


@pytest.mark.parametrize("ndim, value", [
    (1, [True, 6.0]), (1, [0.0, False]), (2, [[True, 0.5]]),
    (2, [[0.5, 1.0], [0.0, False]])])
def test_floats_reject_bool_entries(ndim, value):
    # np.asarray reads true as 1.0; a bool inside a number list is no number
    with pytest.raises(cli.ConfigError, match="true/false"):
        cli._floats({"ws": value}, "ws", ndim)
