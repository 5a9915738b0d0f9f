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
import hashlib
import json
import math
import os
import sys as _sys
import time
from dataclasses import asdict
from fractions import Fraction

import numpy as np

# Each command imports the other galns modules it runs in its own body, so
# a run loads (and, without bytecode, compiles) only those; the import
# reads the module attribute at call time.
from .spectral import RectGeometry, SpectralField, mode_set_K

VERSION = "0.1.0"


# ---------------------------------------------------------------------------
# Config plumbing


class ConfigError(ValueError):
    pass


def _is_a(x, types):
    """isinstance, except that a bool is only a bool: JSON true is no
    number."""
    return isinstance(x, types) and (type(x) is not bool or types is bool)


def _num(x, what):
    """Numbers in configs; the string "pi" is accepted for irrational sides."""
    if _is_a(x, (int, float)):
        return float(x)
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


def _optional(cfg, field, types, default, where=""):
    """A field that may be absent (default), else checked as _require does."""
    return _require(cfg, field, types, where) if field in cfg else default


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
    except (TypeError, ValueError) as e:
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
    return SpectralField(geom, {_mode_key(k): float(v)
                                for k, v in table.items()})


# the fields _system reads
_SYSTEM = ("geometry", "nu", "level", "controlled_level", "forcing")


def _system(cfg):
    from .dynamics import GalerkinSystem
    geom = _geom(cfg)
    nu = float(_require(cfg, "nu", (int, float)))
    level = int(_require(cfg, "level", int))
    controlled = _optional(cfg, "controlled_level", int, level)
    return GalerkinSystem(geom, nu, _field(cfg, "forcing", geom),
                          tuple(sorted(mode_set_K(level))),
                          tuple(sorted(mode_set_K(controlled))))


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
    """Write obj as indented JSON under each of names, encoded once."""
    text = json.dumps(obj, indent=2, sort_keys=True, default=str) + "\n"
    for name in names:
        with open(os.path.join(outdir, name), "w") as fh:
            fh.write(text)
    return list(names)


def _csv_field(x, floats):
    """One field as csv.writer writes it: str(x), quoted (inner quotes
    doubled) where the text holds a comma, a quote or a line end.  A
    nonzero float's text is kept in floats, keyed by value: only for a
    nonzero float does the value fix the text (0, 0.0, -0.0 and False are
    one key, as are 1, 1.0 and True)."""
    if type(x) is float and x:
        s = floats.get(x)
        if s is None:
            s = floats[x] = repr(x)
        return s
    s = str(x)
    if "," in s or '"' in s or "\r" in s or "\n" in s:
        return '"%s"' % s.replace('"', '""')
    return s


def _write_csv(outdir, name, header, rows):
    """Write the table as csv.writer does, byte for byte, for fields that
    are not None and rows that are not one empty string, with CRLF line
    ends; rows are written one at a time, and each distinct nonzero float
    is formatted once per table."""
    floats = {}
    with open(os.path.join(outdir, name), "w", newline="") as fh:
        fh.write(",".join([_csv_field(x, floats) for x in header]) + "\r\n")
        for row in rows:
            fh.write(",".join([_csv_field(x, floats) for x in row]) + "\r\n")
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
    T = float(_require(cfg, "T", (int, float)))
    tol = float(_optional(cfg, "tol", (int, float), 1e-8))
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
        radius=float(_require(exp_cfg, "radius", (int, float))),
        gamma_infl=float(_require(exp_cfg, "gamma_infl", (int, float))),
        horizon=float(_require(exp_cfg, "horizon", (int, float))),
        tol=float(_optional(exp_cfg, "tol", (int, float), 1e-8)))
    fit_horizons = (_floats(exp_cfg, "fit_horizons", 1).tolist()
                    if "fit_horizons" in exp_cfg else None)
    if fit_horizons == []:
        raise ConfigError("field 'fit_horizons' must not be empty")
    return covering_check(
        exp,
        grid_per_dim=_optional(exp_cfg, "grid_per_dim", int, 3),
        fit_horizons=fit_horizons,
        residual_tol=float(_optional(exp_cfg, "residual_tol", (int, float),
                                     1e-6)),
        seed=_optional(exp_cfg, "seed", int, 0))


def cmd_steer(cfg, outdir):
    if "experiments" in cfg:
        _known(cfg, ("experiments",))
    experiments = _optional(cfg, "experiments", list, [cfg])
    if not experiments:
        raise ConfigError("field 'experiments' must not be empty")
    reports = [_covering(exp_cfg) for exp_cfg in experiments]
    d = max(rep["observed_dim"] for rep in reports)
    tables = [rep.pop("per_target") for rep in reports]
    # each row is made from the arrays as it is written
    rows = ([i] + target.tolist() + [res, its]
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
    tol = float(_optional(cfg, "tol", (int, float), 1e-8))
    threshold = float(_optional(cfg, "slope_threshold", (int, float), -0.8))
    # a NaN threshold fails every slope, an infinite one passes every slope
    if not math.isfinite(threshold):
        raise ConfigError("field 'slope_threshold' must be finite, got %r"
                          % threshold)
    sys = _system(cfg)
    z = VertexSchedule(_floats(cfg, "breakpoints", 1),
                       [_parse_label(l) for l in _require(cfg, "labels", list)],
                       float(_require(cfg, "xi", (int, float))))
    u0 = _field(cfg, "u0", sys.geom)
    rows = []
    for w in ws:
        res = imitate(sys, z, w, tol=tol, u0=u0)
        rows.append({"w": w, "gap": res.gap,
                     "max_pinning": float(max(res.pinning))})
    gaps = [r["gap"] for r in rows]
    slope = loglog_slope(ws, gaps)
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
    return report, outputs


def cmd_lierank(cfg, outdir):
    from .lie_rank import point_hash, rank_verdict
    _known(cfg, _SYSTEM + ("seed", "n_points"))
    sys = _system(cfg)
    rng = np.random.default_rng(_optional(cfg, "seed", int, 0))
    n_points = _optional(cfg, "n_points", int, 5)
    if n_points < 1:
        raise ConfigError("field 'n_points' must be positive, got %d"
                          % n_points)
    # the rank reads no point: each sampled point labels a copy of one verdict
    verdict = rank_verdict(sys)
    verdicts = []
    for _ in range(n_points):
        u = SpectralField(sys.geom, {k: rng.normal() for k in sys.mode_set})
        verdicts.append(dict(verdict, point_hash=point_hash(u)))
    ok = verdict["full_rank"]
    report = {"points": verdicts, "kappa_N": len(sys.mode_set),
              "verdict": "pass" if ok else "fail"}
    return report, _write_json(outdir, report, "lierank_report.json",
                               "report.json")


def cmd_oracle(cfg, outdir):
    from .nonlinearity import oracle_sweep
    _known(cfg, ("geometries", "max_index", "rel_tol", "abs_floor"))
    geoms = _optional(cfg, "geometries", list, [[1.0, 1.0]])
    max_index = _optional(cfg, "max_index", int, 5)
    rel_tol = float(_optional(cfg, "rel_tol", (int, float), 1e-8))
    abs_floor = float(_optional(cfg, "abs_floor", (int, float), 1e-12))
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
