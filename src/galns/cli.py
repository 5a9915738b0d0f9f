"""Batch command line front end.

Every experiment is a subcommand driven by a JSON config file; all outputs
land in a --out directory together with a run manifest (command, config
hash, tool version, wall time, produced files).  A command runs in one
process and takes its experiments, frequencies or geometries in config
order.  The process exits 0 exactly when every verdict in the emitted
report is "pass", 1 on a failing verdict, 2 on a config error (any
ValueError: a missing, mistyped, invalid or unknown field), 3 on a
numerical failure (the integrator gave up; report.json then has verdict
"numerical_failure" and the message) and 4 on an internal error (any
other exception; its traceback goes to stderr).
"""

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import sys as _sys
import time
from dataclasses import asdict
from fractions import Fraction

import numpy as np

# Each command imports the other galns modules it runs in its own body, so
# a run loads (and, without bytecode, compiles) only those; the import
# reads the module attribute at call time.
from .spectral import RectGeometry, SpectralField, check_system, mode_set_K

VERSION = "0.1.0"


# ---------------------------------------------------------------------------
# Config plumbing


class ConfigError(ValueError):
    pass


def _is_a(x, types):
    """isinstance, except that a bool is only a bool: JSON true is no
    number."""
    return isinstance(x, types) and (type(x) is not bool or types is bool)


def _float(x, what):
    try:
        return float(x)
    except OverflowError as e:  # an integer past the float range
        raise ConfigError("field %r: %s" % (what, e))


def _num(x, what):
    """Numbers in configs; the string "pi" is accepted for irrational sides."""
    if _is_a(x, (int, float)):
        return _float(x, what)
    if isinstance(x, str) and x.strip().lower() == "pi":
        return math.pi
    raise ConfigError("field %r: expected a number or \"pi\", got %r" % (what, x))


def _require(cfg, field, types, where=""):
    if field not in cfg:
        raise ConfigError("missing required field %r%s" % (field, where))
    if types is not None and not _is_a(cfg[field], types):
        raise ConfigError("field %r%s has wrong type %s"
                          % (field, where, type(cfg[field]).__name__))
    return cfg[field]


def _optional(cfg, field, types, default, where="", low=None):
    """A field that may be absent (default), else checked as _require does
    and, given low, to be at least low."""
    value = _require(cfg, field, types, where) if field in cfg else default
    if low is not None and value < low:
        raise ConfigError("field %r must be at least %r, got %r"
                          % (field, low, value))
    return value


def _real(cfg, field, default=None):
    """A number field as a float; required unless a default is given."""
    if default is None:
        return _float(_require(cfg, field, (int, float)), field)
    return _float(_optional(cfg, field, (int, float), default), field)


def _known(cfg, fields, where=""):
    """Reject the fields of cfg that no reader takes: a misspelt or stale
    setting is an error, not a default."""
    unknown = sorted(set(cfg) - set(fields))
    if unknown:
        raise ConfigError("unknown field%s %s%s; known: %s"
                          % ("s" * (len(unknown) > 1),
                             ", ".join(map(repr, unknown)), where,
                             ", ".join(sorted(fields))))


def _floats(cfg, field, ndim, where=""):
    """A required list (ndim 1) or list of lists (ndim 2) of numbers, as a
    float array."""
    value = _require(cfg, field, list, where)
    if any(type(x) is bool for row in value
           for x in (row if isinstance(row, list) else [row])):
        raise ConfigError("field %r%s: true/false is no number"
                          % (field, where))
    try:
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError("field %r%s: %s" % (field, where, e))
    if out.ndim != ndim:
        raise ConfigError("field %r%s must be a list%s of numbers"
                          % (field, where, " of lists" * (ndim - 1)))
    return out


def _geom(cfg):
    g = _require(cfg, "geometry", dict)
    _known(g, ("a", "b"), " in geometry")
    return RectGeometry(_num(_require(g, "a", None, " in geometry"), "a"),
                        _num(_require(g, "b", None, " in geometry"), "b"))


def _mode_key(s):
    try:
        k1, k2 = (int(p) for p in s.split(","))
    except Exception:
        raise ConfigError("mode key %r is not of the form \"k1,k2\"" % (s,))
    return (k1, k2)


def _field(cfg, name, geom):
    """An optional object of "k1,k2": number entries, as a SpectralField."""
    table = _optional(cfg, name, dict, {})
    for v in table.values():
        if not _is_a(v, (int, float)):
            raise ConfigError("field %r: value %r is not a number" % (name, v))
        if not math.isfinite(_float(v, name)):
            raise ConfigError("%s must be finite" % name)
    return SpectralField(geom, {_mode_key(k): float(v)
                                for k, v in table.items()})


# the fields _system_fields reads
_SYSTEM = ("geometry", "nu", "level", "controlled_level", "forcing")


def _system_fields(cfg):
    """GalerkinSystem's fields from cfg, unchecked: geometry, nu, forcing,
    K^level and K^controlled_level."""
    geom = _geom(cfg)
    nu = _real(cfg, "nu")
    level = int(_require(cfg, "level", int))
    controlled = _optional(cfg, "controlled_level", int, level)
    return (geom, nu, _field(cfg, "forcing", geom),
            tuple(sorted(mode_set_K(level))),
            tuple(sorted(mode_set_K(controlled))))


def _system(cfg):
    from .dynamics import GalerkinSystem
    return GalerkinSystem(*_system_fields(cfg))


def _load_config(path):
    """The file's bytes and the JSON object they hold."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
        cfg = json.loads(blob)
    except json.JSONDecodeError as e:
        raise ConfigError("%s: invalid JSON at line %d column %d: %s"
                          % (path, e.lineno, e.colno, e.msg))
    except OSError as e:
        raise ConfigError("cannot read config %s: %s" % (path, e))
    if not isinstance(cfg, dict):
        raise ConfigError("top-level config must be a JSON object")
    return blob, cfg


def _write_json(outdir, obj, *names):
    """Write obj as indented JSON under each of names: encoded once, into
    the first file as it is made (the whole text is never held), and
    copied to the others."""
    first = os.path.join(outdir, names[0])
    with open(first, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    for name in names[1:]:
        shutil.copyfile(first, os.path.join(outdir, name))
    return list(names)


def _write_csv(outdir, name, header, rows):
    """Write the table with csv.writer (CRLF line ends), one row at a time."""
    with open(os.path.join(outdir, name), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return name


# ---------------------------------------------------------------------------
# Subcommands; each returns (report dict with "verdict", list of outputs)
# and writes a report it names also as report.json, from the same text


def cmd_simulate(cfg, outdir):
    from .dynamics import PiecewiseConstant, integrate, run_manifest
    _known(cfg, _SYSTEM + ("u0", "T", "tol", "control"))
    sys = _system(cfg)
    geom = sys.geom
    u0 = _field(cfg, "u0", geom)
    T = _real(cfg, "T")
    tol = _real(cfg, "tol", 1e-8)
    control = None
    if "control" in cfg:
        c = _require(cfg, "control", dict)
        _known(c, ("breakpoints", "values"), " in control")
        control = PiecewiseConstant(_floats(c, "breakpoints", 1, " in control"),
                                    _floats(c, "values", 2, " in control"))
    tr = integrate(sys, u0, control, T, tol)
    tr.write_csv(os.path.join(outdir, "trajectory.csv"))
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
    return report, ["trajectory.csv"]


def cmd_saturate(args, outdir):
    from .saturation import build_chain
    try:
        a, b = Fraction(args.a), Fraction(args.b)
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError("--a/--b: %s" % e)
    if not (a > 0 and b > 0):
        raise ConfigError("--a/--b: side lengths must be positive")
    a2, b2 = a ** 2, b ** 2
    targets = []
    for part in args.target_modes.split(";"):
        targets.append(_mode_key(part))
    chain = build_chain(targets, a2, b2)
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


# the fields of one steer experiment
_STEER = _SYSTEM + ("observed_level", "u0", "radius", "gamma_infl",
                    "horizon", "tol", "grid_per_dim", "fit_horizons",
                    "residual_tol", "seed")


def _covering(exp_cfg):
    """covering_check's report on one steer experiment."""
    from .control import EndpointExperiment, covering_check
    if not isinstance(exp_cfg, dict):
        raise ConfigError("each experiment must be a JSON object")
    _known(exp_cfg, _STEER, " in experiment")
    sys = _system(exp_cfg)
    obs = tuple(sorted(mode_set_K(_optional(exp_cfg, "observed_level", int,
                                            1))))
    exp = EndpointExperiment(
        sys, obs, _field(exp_cfg, "u0", sys.geom),
        radius=_real(exp_cfg, "radius"),
        gamma_infl=_real(exp_cfg, "gamma_infl"),
        horizon=_real(exp_cfg, "horizon"), tol=_real(exp_cfg, "tol", 1e-8))
    fit_horizons = (_floats(exp_cfg, "fit_horizons", 1).tolist()
                    if "fit_horizons" in exp_cfg else None)
    if fit_horizons == []:
        raise ConfigError("field 'fit_horizons' must not be empty")
    return covering_check(
        exp,
        grid_per_dim=_optional(exp_cfg, "grid_per_dim", int, 3),
        fit_horizons=fit_horizons,
        residual_tol=_real(exp_cfg, "residual_tol", 1e-6),
        seed=_optional(exp_cfg, "seed", int, 0, low=0))


def cmd_steer(cfg, outdir):
    if "experiments" in cfg:
        _known(cfg, ("experiments",))
    experiments = _optional(cfg, "experiments", list, [cfg])
    if not experiments:
        raise ConfigError("field 'experiments' must not be empty")
    reports = [_covering(exp_cfg) for exp_cfg in experiments]
    d = max(rep["observed_dim"] for rep in reports)
    tables = [rep.pop("per_target") for rep in reports]
    # each row is made from the arrays as it is written, padded to d targets
    rows = ([i] + target.tolist() + [""] * (d - len(target)) + [res, its]
            for i, t in enumerate(tables)
            for target, res, its in zip(t.targets, t.residuals.tolist(),
                                        t.iterations.tolist()))
    outputs = [_write_csv(outdir, "steer_residuals.csv",
                          ["experiment"] + ["target_%d" % i for i in range(d)]
                          + ["residual", "iterations"], rows)]
    verdict = "pass" if all(r["verdict"] == "pass" for r in reports) else "fail"
    report = {"experiments": reports, "verdict": verdict}
    outputs += _write_json(outdir, report, "steer_report.json", "report.json")
    return report, outputs


def _parse_label(lab):
    try:
        kind = lab[0]
        if kind == "zero":
            return ("zero",)
        if kind in ("e", "delta"):
            sign = lab[2]
            # true == 1 and 1.0 == 1: only the JSON integers 1, -1 are signs
            if type(sign) is not int or sign not in (1, -1):
                raise ConfigError("schedule label %r: the sign must be 1 or -1"
                                  % (lab,))
            if kind == "e":
                return ("e", tuple(lab[1]), sign)
            return ("delta", (tuple(lab[1][0]), tuple(lab[1][1])), sign)
    except (IndexError, KeyError, TypeError):
        raise ConfigError("schedule label %r is malformed" % (lab,))
    raise ConfigError("unknown schedule label kind %r" % (kind,))


def cmd_imitate(cfg, outdir):
    from .control import VertexSchedule, imitate, loglog_slope
    _known(cfg, _SYSTEM + ("u0", "breakpoints", "labels", "xi", "ws", "tol",
                           "slope_threshold"))
    ws = _floats(cfg, "ws", 1).tolist()
    if not ws:
        raise ConfigError("field 'ws' must list at least one frequency")
    if len(set(ws)) < len(ws):
        raise ConfigError("field 'ws' lists a frequency twice: %r" % ws)
    tol = _real(cfg, "tol", 1e-8)
    threshold = _real(cfg, "slope_threshold", -0.8)
    # a NaN threshold fails every slope, an infinite one passes every slope
    if not math.isfinite(threshold):
        raise ConfigError("field 'slope_threshold' must be finite, got %r"
                          % threshold)
    level = _require(cfg, "level", int)
    if _optional(cfg, "controlled_level", int, level) >= level:
        raise ConfigError("field 'controlled_level' must be below 'level' "
                          "(%d): the imitation acts on its modes" % level)
    sys = _system(cfg)
    z = VertexSchedule(_floats(cfg, "breakpoints", 1),
                       [_parse_label(l) for l in _require(cfg, "labels", list)],
                       _real(cfg, "xi"))
    u0 = _field(cfg, "u0", sys.geom)
    rows = []
    for w in ws:
        res = imitate(sys, z, w, tol=tol, u0=u0)
        rows.append({"w": w, "gap": res.gap,
                     "max_pinning": float(max(res.pinning))})
    gaps = [r["gap"] for r in rows]
    # one frequency has no slope and a zero gap no logarithm: all-zero gaps
    # are an exact imitation, which passes; a zero beside a nonzero fails
    slope = loglog_slope(ws, gaps)
    slope_ok = not any(gaps) if slope is None else slope <= threshold
    pin_ok = all(r["max_pinning"] <= 10 * tol for r in rows)
    verdict = "pass" if (len(ws) < 2 or slope_ok) and pin_ok else "fail"
    outputs = [_write_csv(outdir, "imitation_gaps.csv",
                          ["w", "gap", "max_pinning"],
                          [[r["w"], r["gap"], r["max_pinning"]] for r in rows])]
    report = {"w": ws, "gaps": gaps, "slope": slope,
              "slope_threshold": threshold, "pinning_ok": pin_ok,
              "verdict": verdict}
    outputs += _write_json(outdir, report, "imitation_report.json",
                           "report.json")
    return report, outputs


def cmd_lierank(cfg, outdir):
    from .lie_rank import point_hash, rank_verdict
    _known(cfg, _SYSTEM + ("seed", "n_points"))
    # nu and the forcing do not enter the rank, so no system is built; they
    # are checked as GalerkinSystem checks them
    geom, nu, forcing, modes, controlled = _system_fields(cfg)
    modes, controlled = check_system(nu, forcing, modes, controlled)
    if controlled != tuple(mode_set_K(1)):
        raise ConfigError("field 'controlled_level' must be 1: the rank "
                          "brackets from the K^1 modes")
    rng = np.random.default_rng(_optional(cfg, "seed", int, 0, low=0))
    n_points = _optional(cfg, "n_points", int, 5, low=1)
    # the rank reads no point: each sampled point labels a copy of one verdict
    verdict = rank_verdict(geom, modes, controlled)
    verdicts = []
    for _ in range(n_points):
        u = SpectralField(geom, {k: rng.normal() for k in modes})
        verdicts.append(dict(verdict, point_hash=point_hash(u)))
    ok = verdict["full_rank"]
    report = {"points": verdicts, "kappa_N": len(modes),
              "verdict": "pass" if ok else "fail"}
    return report, _write_json(outdir, report, "lierank_report.json",
                               "report.json")


def cmd_oracle(cfg, outdir):
    from .nonlinearity import oracle_sweep
    _known(cfg, ("geometries", "max_index", "rel_tol", "abs_floor"))
    geoms = _optional(cfg, "geometries", list, [[1.0, 1.0]])
    max_index = _optional(cfg, "max_index", int, 5)
    rel_tol = _real(cfg, "rel_tol", 1e-8)
    abs_floor = _real(cfg, "abs_floor", 1e-12)
    if max_index < 2 or not geoms:
        raise ConfigError("field 'max_index' must be at least 2 and field "
                          "'geometries' non-empty: nothing is compared")
    if not (0 < rel_tol < math.inf and 0 < abs_floor < math.inf):
        raise ConfigError("fields 'rel_tol' and 'abs_floor' must be positive"
                          " and finite, got %r and %r" % (rel_tol, abs_floor))
    rows = []
    n_fail = 0
    for ab in geoms:
        if not (isinstance(ab, list) and len(ab) == 2):
            raise ConfigError("each geometry must be a list [a, b], got %r"
                              % (ab,))
        geom = RectGeometry(_num(ab[0], "a"), _num(ab[1], "b"))
        for r in oracle_sweep(max_index, geom, rel_tol=rel_tol,
                              abs_floor=abs_floor):
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


# ---------------------------------------------------------------------------
# Entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="galns",
        description="Spectral-Galerkin Navier-Stokes experiments")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--jobs", type=int, default=1,
                        help="accepted for old command lines; only 1")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("simulate", "steer", "imitate", "lierank", "oracle"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")

    p_sat = sub.add_parser("saturate")
    p_sat.add_argument("--a", required=True)
    p_sat.add_argument("--b", required=True)
    p_sat.add_argument("--target-modes", required=True,
                       help="semicolon-separated k1,k2 pairs")

    args = parser.parse_args(argv)
    if args.jobs != 1:
        parser.error("--jobs %d: parallel runs were removed; every command "
                     "runs in one process (--jobs 1)" % args.jobs)

    os.makedirs(args.out, exist_ok=True)
    handlers = {
        "simulate": cmd_simulate, "steer": cmd_steer, "imitate": cmd_imitate,
        "lierank": cmd_lierank, "oracle": cmd_oracle,
    }
    t0 = time.time()
    try:
        if args.command == "saturate":
            blob = json.dumps({"a": args.a, "b": args.b,
                               "target_modes": args.target_modes},
                              sort_keys=True).encode()
            report, outputs = cmd_saturate(args, args.out)
        else:
            blob, cfg = _load_config(args.config)
            report, outputs = handlers[args.command](cfg, args.out)
    except ValueError as e:
        print("config error: %s" % e, file=_sys.stderr)
        return 2
    except Exception as e:
        # imported here: no run that succeeds needs them
        from .dynamics import StiffnessError
        if not isinstance(e, StiffnessError):
            import traceback
            traceback.print_exc()
            print("internal error: %s: %s" % (type(e).__name__, e),
                  file=_sys.stderr)
            return 4
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
