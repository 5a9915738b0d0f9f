"""Batch command line front end.

Every experiment is a subcommand driven by a JSON config file; all outputs
land in a --out directory together with a run manifest (command, config
hash, tool version, wall time, produced files).  The process exits 0
exactly when every verdict in the emitted report is "pass", 1 on a failing
verdict, 2 on a config error and 3 on a numerical failure (the integrator
gave up; report.json then has verdict "numerical_failure" and the message).
"""

import argparse
import csv
import hashlib
import json
import math
import os
import sys as _sys
import time
from dataclasses import asdict
from fractions import Fraction

import numpy as np

from .control import (EndpointExperiment, VertexSchedule, covering_check,
                      imitate, loglog_slope)
from .dynamics import (GalerkinSystem, PiecewiseConstant, StiffnessError,
                       integrate, run_manifest)
from .lie_rank import rank_verdict
from .nonlinearity import oracle_sweep
from .saturation import build_chain, mode_set_K
from .spectral import RectGeometry, SpectralField, leray_project

VERSION = "0.1.0"


# ---------------------------------------------------------------------------
# Config plumbing


class ConfigError(ValueError):
    pass


def _num(x, what):
    """Numbers in configs; the string "pi" is accepted for irrational sides."""
    if isinstance(x, (int, float)):
        return float(x)
    if isinstance(x, str) and x.strip().lower() == "pi":
        return math.pi
    raise ConfigError("field %r: expected a number or \"pi\", got %r" % (what, x))


def _require(cfg, field, types, where=""):
    if field not in cfg:
        raise ConfigError("missing required field %r%s" % (field, where))
    if types is not None and not isinstance(cfg[field], types):
        raise ConfigError("field %r%s has wrong type %s"
                          % (field, where, type(cfg[field]).__name__))
    return cfg[field]


def _geom(cfg):
    g = _require(cfg, "geometry", dict)
    return RectGeometry(_num(_require(g, "a", None, " in geometry"), "a"),
                        _num(_require(g, "b", None, " in geometry"), "b"))


def _mode_key(s):
    try:
        k1, k2 = (int(p) for p in s.split(","))
    except Exception:
        raise ConfigError("mode key %r is not of the form \"k1,k2\"" % (s,))
    return (k1, k2)


def _field(cfg, name, geom):
    table = cfg.get(name, {})
    if not isinstance(table, dict):
        raise ConfigError("field %r must be an object of \"k1,k2\": value" % name)
    return SpectralField(geom, {_mode_key(k): float(v) for k, v in table.items()})


def _system(cfg):
    geom = _geom(cfg)
    nu = float(_require(cfg, "nu", (int, float)))
    level = int(_require(cfg, "level", int))
    controlled = int(cfg.get("controlled_level", level))
    return GalerkinSystem(geom, nu, _field(cfg, "forcing", geom),
                          tuple(sorted(mode_set_K(level))),
                          tuple(sorted(mode_set_K(controlled))))


def _load_config(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError("%s: invalid JSON at line %d column %d: %s"
                          % (path, e.lineno, e.colno, e.msg))
    except OSError as e:
        raise ConfigError("cannot read config %s: %s" % (path, e))


def _pmap(worker, items, jobs):
    if jobs <= 1 or len(items) <= 1:
        return [worker(it) for it in items]
    # imported here, so that a serial run does not load it
    from multiprocessing import get_context
    with get_context("fork").Pool(min(jobs, len(items))) as pool:
        return pool.map(worker, items)


def _write_json(outdir, obj, *names):
    """Write obj as indented JSON under each of names, encoded once."""
    text = json.dumps(obj, indent=2, sort_keys=True, default=str) + "\n"
    for name in names:
        with open(os.path.join(outdir, name), "w") as fh:
            fh.write(text)
    return list(names)


def _write_csv(outdir, name, header, rows):
    path = os.path.join(outdir, name)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)
    return name


def _plot_series(outdir, name, xs, ys, xlabel, ylabel, loglog=False):
    """Optional plotting; quietly skipped when matplotlib is unavailable."""
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("warning: --plot requested but matplotlib is not installed",
              file=_sys.stderr)
        return None
    fig, ax = plt.subplots()
    (ax.loglog if loglog else ax.plot)(xs, ys, marker="o")
    ax.set_xlabel(xlabel)
    ax.set_ylabel(ylabel)
    fig.savefig(os.path.join(outdir, name), dpi=120)
    plt.close(fig)
    return name


# ---------------------------------------------------------------------------
# Subcommands; each returns (report dict with "verdict", list of outputs)
# and writes a report it names also as report.json, from the same text


def cmd_simulate(cfg, outdir, jobs, plot):
    sys = _system(cfg)
    geom = sys.geom
    u0 = _field(cfg, "u0", geom)
    T = float(_require(cfg, "T", (int, float)))
    tol = float(cfg.get("tol", 1e-8))
    control = None
    if "control" in cfg:
        c = cfg["control"]
        control = PiecewiseConstant(
            np.asarray(_require(c, "breakpoints", list, " in control"), float),
            np.asarray(_require(c, "values", list, " in control"), float))
    tr = integrate(sys, u0, control, T, tol)
    outputs = []
    tr.write_csv(os.path.join(outdir, "trajectory.csv"))
    outputs.append("trajectory.csv")
    hn = tr.h_norms()
    report = {
        "verdict": "pass",
        "run": run_manifest(sys, u0, control, T, tol),
        "steps": len(tr.times),
        "integrator": asdict(tr.stats),
        "quadratic": sys.quadratic_path,
        "h_norm_initial": float(hn[0]),
        "h_norm_final": float(hn[-1]),
        "h_norm_monotone": bool(np.all(np.diff(hn) <= 1e-12 * max(1, hn[0]))),
    }
    if plot:
        p = _plot_series(outdir, "h_norm.png", tr.times, hn, "t", "|u(t)|_H")
        if p:
            outputs.append(p)
    return report, outputs


def cmd_saturate(args, outdir, jobs, plot):
    a2 = Fraction(args.a) ** 2
    b2 = Fraction(args.b) ** 2
    targets = []
    for part in args.target_modes.split(";"):
        targets.append(_mode_key(part))
    chain = build_chain(targets, a2, b2,
                        use_square_repair=args.square if a2 == b2 else None)
    report = {
        "a2": str(a2), "b2": str(b2),
        "square": bool(chain.square_mode),
        "target_modes": [list(k) for k in targets],
        "levels": chain.levels,
        "certificates": [c.to_jsonable() for c in chain.certificates],
        "verdict": "pass" if chain.ok else "fail",
    }
    return report, _write_json(outdir, report, "certificate.json",
                               "report.json")


def _steer_worker(exp_cfg):
    sys = _system(exp_cfg)
    obs = tuple(sorted(mode_set_K(int(exp_cfg.get("observed_level", 1)))))
    exp = EndpointExperiment(
        sys, obs, _field(exp_cfg, "u0", sys.geom),
        radius=float(_require(exp_cfg, "radius", (int, float))),
        gamma_infl=float(_require(exp_cfg, "gamma_infl", (int, float))),
        horizon=float(_require(exp_cfg, "horizon", (int, float))),
        tol=float(exp_cfg.get("tol", 1e-8)))
    return covering_check(
        exp,
        grid_per_dim=int(exp_cfg.get("grid_per_dim", 3)),
        fit_horizons=exp_cfg.get("fit_horizons"),
        residual_tol=float(exp_cfg.get("residual_tol", 1e-6)),
        seed=int(exp_cfg.get("seed", 0)))


def cmd_steer(cfg, outdir, jobs, plot):
    exps = cfg["experiments"] if "experiments" in cfg else [cfg]
    reports = _pmap(_steer_worker, exps, jobs)
    rows = []
    for i, rep in enumerate(reports):
        for row in rep.pop("per_target"):
            rows.append([i] + row["target"]
                        + [row["residual"], row["iterations"]])
    d = max(len(r) - 3 for r in rows)
    outputs = [_write_csv(outdir, "steer_residuals.csv",
                          ["experiment"] + ["target_%d" % i for i in range(d)]
                          + ["residual", "iterations"], rows)]
    verdict = "pass" if all(r["verdict"] == "pass" for r in reports) else "fail"
    report = {"experiments": reports, "verdict": verdict}
    outputs += _write_json(outdir, report, "steer_report.json", "report.json")
    return report, outputs


def _parse_label(lab):
    kind = lab[0]
    if kind == "zero":
        return ("zero",)
    if kind == "e":
        return ("e", tuple(lab[1]), int(lab[2]))
    if kind == "delta":
        return ("delta", (tuple(lab[1][0]), tuple(lab[1][1])), int(lab[2]))
    raise ConfigError("unknown schedule label kind %r" % (kind,))


def _imitate_worker(arg):
    cfg, w = arg
    sys = _system(cfg)
    z = VertexSchedule(np.asarray(_require(cfg, "breakpoints", list), float),
                       [_parse_label(l) for l in _require(cfg, "labels", list)],
                       float(_require(cfg, "xi", (int, float))))
    res = imitate(sys, z, float(w), tol=float(cfg.get("tol", 1e-8)),
                  u0=_field(cfg, "u0", sys.geom))
    return {"w": float(w), "gap": res.gap,
            "max_pinning": float(max(res.pinning))}


def cmd_imitate(cfg, outdir, jobs, plot):
    ws = [float(w) for w in _require(cfg, "ws", list)]
    tol = float(cfg.get("tol", 1e-8))
    rows = _pmap(_imitate_worker, [(cfg, w) for w in ws], jobs)
    gaps = [r["gap"] for r in rows]
    slope = loglog_slope(ws, gaps)
    threshold = float(cfg.get("slope_threshold", -0.8))
    pin_ok = all(r["max_pinning"] <= 10 * tol for r in rows)
    verdict = "pass" if (len(ws) < 2 or slope <= threshold) and pin_ok \
        else "fail"
    outputs = [_write_csv(outdir, "imitation_gaps.csv",
                          ["w", "gap", "max_pinning"],
                          [[r["w"], r["gap"], r["max_pinning"]] for r in rows])]
    report = {"w": ws, "gaps": gaps, "slope": slope,
              "slope_threshold": threshold, "pinning_ok": pin_ok,
              "verdict": verdict}
    outputs += _write_json(outdir, report, "imitation_report.json",
                           "report.json")
    if plot:
        p = _plot_series(outdir, "imitation_gaps.png", ws, gaps, "w",
                         "end-state gap", loglog=True)
        if p:
            outputs.append(p)
    return report, outputs


def cmd_lierank(cfg, outdir, jobs, plot):
    sys = _system(cfg)
    rng = np.random.default_rng(int(cfg.get("seed", 0)))
    n_points = int(cfg.get("n_points", 5))
    scale = float(cfg.get("scale", 1.0))
    repair = bool(cfg.get("square_repair", True))
    verdicts = []
    for _ in range(n_points):
        u = SpectralField(sys.geom, {k: scale * rng.normal()
                                     for k in sys.mode_set})
        verdicts.append(rank_verdict(sys, u, use_square_repair=repair))
    ok = all(v["full_rank"] for v in verdicts)
    report = {"points": verdicts, "kappa_N": len(sys.mode_set),
              "verdict": "pass" if ok else "fail"}
    return report, _write_json(outdir, report, "lierank_report.json",
                               "report.json")


def _oracle_worker(arg):
    cfg, ab = arg
    geom = RectGeometry(_num(ab[0], "a"), _num(ab[1], "b"))
    recs = oracle_sweep(int(cfg.get("max_index", 5)), geom,
                        rel_tol=float(cfg.get("rel_tol", 1e-8)),
                        abs_floor=float(cfg.get("abs_floor", 1e-12)))
    return (ab, recs)


def cmd_oracle(cfg, outdir, jobs, plot):
    geoms = cfg.get("geometries", [[1.0, 1.0]])
    results = _pmap(_oracle_worker, [(cfg, ab) for ab in geoms], jobs)
    rows = []
    n_fail = 0
    for ab, recs in results:
        for r in recs:
            rows.append([ab[0], ab[1], "%d,%d" % r["m"], "%d,%d" % r["n"],
                         "%d,%d" % r["target"], repr(r["closed_form"]),
                         repr(r["quadrature"]), r["rel_err"], r["ok"]])
            n_fail += 0 if r["ok"] else 1
    outputs = [_write_csv(outdir, "oracle_comparisons.csv",
                          ["a", "b", "m", "n", "target", "closed_form",
                           "quadrature", "rel_err", "ok"], rows)]
    report = {"comparisons": len(rows), "failures": n_fail,
              "verdict": "pass" if n_fail == 0 else "fail"}
    outputs += _write_json(outdir, report, "oracle_report.json", "report.json")
    return report, outputs


def cmd_project(cfg, outdir, jobs, plot):
    geom = _geom(cfg)
    v1 = {_mode_key(k): float(v) for k, v in cfg.get("v1", {}).items()}
    v2 = {_mode_key(k): float(v) for k, v in cfg.get("v2", {}).items()}
    u, grad = leray_project(v1, v2, geom)
    report = {
        "solenoidal": {"%d,%d" % k: c for k, c in sorted(u.coeffs.items())},
        "gradient_axis_x1": {str(k): c
                             for k, c in sorted(grad.axis_coeffs_x1.items())},
        "gradient_axis_x2": {str(k): c
                             for k, c in sorted(grad.axis_coeffs_x2.items())},
        "gradient_interior": {"%d,%d" % k: c
                              for k, c in sorted(grad.interior_coeffs.items())},
        "solenoidal_H_norm": u.norm("H"),
        "verdict": "pass",
    }
    return report, _write_json(outdir, report, "projection.json", "report.json")


def cmd_norms(cfg, outdir, jobs, plot):
    geom = _geom(cfg)
    u = _field(cfg, "coeffs", geom)
    report = {"H": u.norm("H"), "V": u.norm("V"), "DA": u.norm("DA"),
              "dual": u.dual_norm(), "n_modes": len(u.coeffs),
              "verdict": "pass"}
    return report, _write_json(outdir, report, "norms.json", "report.json")


# ---------------------------------------------------------------------------
# Entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="galns",
        description="Spectral-Galerkin Navier-Stokes experiments")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel jobs")
    parser.add_argument("--plot", action="store_true",
                        help="also write PNG plots (requires matplotlib)")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("simulate", "steer", "imitate", "lierank", "oracle",
                 "project", "norms"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")

    p_sat = sub.add_parser("saturate")
    p_sat.add_argument("--a", required=True)
    p_sat.add_argument("--b", required=True)
    p_sat.add_argument("--target-modes", required=True,
                       help="semicolon-separated k1,k2 pairs")
    p_sat.add_argument("--square", action="store_true",
                       help="use the square-domain repair selections")

    args = parser.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    handlers = {
        "simulate": cmd_simulate, "steer": cmd_steer, "imitate": cmd_imitate,
        "lierank": cmd_lierank, "oracle": cmd_oracle, "project": cmd_project,
        "norms": cmd_norms,
    }
    t0 = time.time()
    try:
        if args.command == "saturate":
            blob = json.dumps({"a": args.a, "b": args.b,
                               "target_modes": args.target_modes,
                               "square": args.square},
                              sort_keys=True).encode()
            report, outputs = cmd_saturate(args, args.out, args.jobs,
                                           args.plot)
        else:
            blob = open(args.config, "rb").read()
            cfg = _load_config(args.config)
            if not isinstance(cfg, dict):
                raise ConfigError("top-level config must be a JSON object")
            report, outputs = handlers[args.command](cfg, args.out,
                                                     args.jobs, args.plot)
    except (KeyError, TypeError, ValueError) as e:
        print("config error: %s" % e, file=_sys.stderr)
        return 2
    except StiffnessError as e:
        print("numerical failure: %s" % e, file=_sys.stderr)
        report = {"verdict": "numerical_failure", "error": str(e)}
        outputs = []

    if "report.json" not in outputs:
        outputs += _write_json(args.out, report, "report.json")
    manifest = {
        "command": args.command,
        "config_hash": hashlib.sha256(blob).hexdigest(),
        "tool_version": VERSION,
        "wall_time_s": time.time() - t0,
        "outputs": sorted(outputs),
    }
    _write_json(args.out, manifest, "manifest.json")
    verdict = report.get("verdict")
    print("%s: %s" % (args.command, verdict))
    return {"pass": 0, "numerical_failure": 3}.get(verdict, 1)


if __name__ == "__main__":
    raise SystemExit(main())
