"""The four benchmark workloads: how each input is made from the seed, how
it is run, and how its outputs are checked.

A workload is a list of jobs.  A job runs one command (or library call),
and later checks what it produced.  An operation is the unit counted in
``attempted`` and ``failed``: one covering target, one cascade, one
trajectory, one certificate, rank point or oracle comparison.  A job that
raises counts all of its nominal operations as failed; the other jobs of
the workload still run.
"""

import csv
import hashlib
import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "highdim_reference.json")

# highdim draws u0 from one of this many seed classes (seed mod N_VARIANTS),
# so that its end state can be checked against a stored reference.
N_VARIANTS = 8
# H-norm distance allowed between the end state and the stored reference,
# relative to the reference's H norm.  Integrating at a tenth of the
# tolerance moves the end state by at most about 1e-9 of it
# (make_reference.py records the figure for each seed class).
HIGHDIM_REL_TOL = 1e-6


def _digest_files(outdir, skip=("manifest.json",)):
    """Digest of every output file except those carrying wall times."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        if name in skip:
            continue
        h.update(name.encode())
        with open(os.path.join(outdir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _write_config(outdir, name, cfg):
    path = os.path.join(outdir, name)
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=1, sort_keys=True)
    return path


def _cli(argv):
    from galns import cli
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError("galns %s exited %d" % (" ".join(argv), code))


class Job:
    """One command of a workload with its nominal operation count."""

    def __init__(self, name, nominal, run, check):
        self.name = name
        self.nominal = nominal
        self.run = run        # () -> handle
        self.check = check    # handle -> (attempted, failed, digest, notes)


# ---------------------------------------------------------------------------
# covering: galns steer, the criterion-6 configuration


def covering_config(seed):
    return {"geometry": {"a": 1.0, "b": 2.0}, "nu": 1.0,
            "level": 3, "controlled_level": 1, "observed_level": 1,
            "u0": {"1,1": 0.1, "2,2": -0.05},
            "radius": 0.1, "gamma_infl": 1.5, "horizon": 2.0,
            "grid_per_dim": 3, "fit_horizons": [0.1, 0.05, 0.025],
            "seed": seed}


def covering_jobs(seed, outdir):
    cfg = _write_config(outdir, "steer.json", covering_config(seed))
    out = os.path.join(outdir, "steer")
    n_targets = 3 ** 8

    def run():
        _cli(["--out", out, "--jobs", "1", "steer", "--config", cfg])
        return out

    def check(out):
        with open(os.path.join(out, "steer_report.json")) as fh:
            rep = json.load(fh)["experiments"][0]
        with open(os.path.join(out, "steer_residuals.csv")) as fh:
            rows = list(csv.DictReader(fh))
        bad = sum(1 for r in rows if not float(r["residual"]) < 1e-6)
        notes = []
        if len(rows) != n_targets or rep["n_targets"] != n_targets:
            notes.append("expected %d targets, got %d rows / n_targets %s"
                         % (n_targets, len(rows), rep["n_targets"]))
            bad = n_targets
        if not rep["max_residual"] < 1e-6:
            notes.append("max residual %.3g" % rep["max_residual"])
        if not 0.0 < rep["T_used"] <= rep["T0"]:
            notes.append("T_used %r outside (0, T0=%r]"
                         % (rep["T_used"], rep["T0"]))
            bad = n_targets
        return n_targets, bad, _digest_files(out), notes

    return [Job("steer", n_targets, run, check)]


# ---------------------------------------------------------------------------
# cascade: cascade_to_K1 on the criterion-11 system, M = 2 target


CASCADE_TARGET = {(1, 1): 0.05, (2, 2): 0.02, (1, 4): 0.01}
CASCADE_EPS = 0.05
CASCADE_M = 2


def cascade_jobs(seed, outdir):
    """Deterministic: the seed is not used."""

    def run():
        from galns import control, dynamics, saturation, spectral
        g = spectral.RectGeometry(1.0, 2.0)
        sys = dynamics.GalerkinSystem(
            g, 0.2, spectral.SpectralField(g, {}),
            tuple(sorted(saturation.mode_set_K(3))),
            tuple(sorted(saturation.mode_set_K(1))))
        return control.cascade_to_K1(
            sys, spectral.SpectralField(g, CASCADE_TARGET), CASCADE_EPS)

    def check(out):
        notes = []
        if out["M"] != CASCADE_M:
            notes.append("M = %r, expected %d" % (out["M"], CASCADE_M))
        if len(out["steps"]) != CASCADE_M - 1:
            notes.append("%d steps, expected %d"
                         % (len(out["steps"]), CASCADE_M - 1))
        for s in out["steps"]:
            if not s.step_deviation <= s.budget:
                notes.append("level %d deviation %.3g over budget %.3g"
                             % (s.level, s.step_deviation, s.budget))
        if not out["covering_residual"] < 1e-5:
            notes.append("covering residual %.3g" % out["covering_residual"])
        if not out["achieved_distance"] <= CASCADE_EPS:
            notes.append("achieved distance %.3g > eps"
                         % out["achieved_distance"])
        numbers = [out["M"], out["covering_residual"],
                   out["achieved_distance"]]
        for s in out["steps"]:
            numbers += [s.level, s.xi, s.w, s.solver_residual,
                        s.step_deviation, s.intervals]
        digest = hashlib.sha256(repr(numbers).encode()).hexdigest()
        return 1, 1 if notes else 0, digest, notes

    return [Job("cascade_to_K1", 1, run, check)]


# ---------------------------------------------------------------------------
# highdim: galns simulate at level 20


HIGHDIM_A, HIGHDIM_B, HIGHDIM_NU, HIGHDIM_T = 1.0, 2.0, 0.02, 2.0
HIGHDIM_FORCING = {"1,1": 5.0, "2,1": -2.5}


def _k3_modes():
    return sorted([(i, j) for i in range(1, 6) for j in range(1, 6)
                   if (i, j) != (5, 5)])


def highdim_u0(seed):
    """u0 on K^3 with coefficients 0.1 N(0,1)/|k|^2 drawn from the seed
    class.  The forcing dominates such a small u0, so the step count (and
    the run time) varies little from seed to seed."""
    rng = np.random.default_rng(seed % N_VARIANTS)
    return {"%d,%d" % k: float(0.1 * rng.normal() / (k[0] ** 2 + k[1] ** 2))
            for k in _k3_modes()}


def highdim_config(seed):
    return {"geometry": {"a": HIGHDIM_A, "b": HIGHDIM_B}, "nu": HIGHDIM_NU,
            "level": 20, "controlled_level": 1,
            "forcing": HIGHDIM_FORCING, "u0": highdim_u0(seed),
            "T": HIGHDIM_T, "tol": 1e-8}


def _h_weights(modes):
    """|u|_H^2 = sum w_k u_k^2 with w_k = (ab/4) pi^2 (k1^2/a^2 + k2^2/b^2)."""
    a, b = HIGHDIM_A, HIGHDIM_B
    return np.array([a * b / 4 * math.pi ** 2 * (k1 ** 2 / a ** 2
                                                 + k2 ** 2 / b ** 2)
                     for k1, k2 in modes])


def load_trajectory(out):
    with open(os.path.join(out, "trajectory.csv")) as fh:
        header = fh.readline().strip().split(",")
    modes = [tuple(int(p) for p in c.split(".")) for c in header[1:]]
    data = np.loadtxt(os.path.join(out, "trajectory.csv"), delimiter=",",
                      skiprows=1, ndmin=2)
    return modes, data[:, 0], data[:, 1:]


def load_reference(seed):
    """The stored end state of this seed class, by mode."""
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    return dict(zip((tuple(k) for k in ref["modes"]),
                    ref["end_states"][str(seed % N_VARIANTS)]))


def _modes_of(table):
    return [tuple(int(p) for p in key.split(",")) for key in table]


def highdim_jobs(seed, outdir):
    u0 = highdim_u0(seed)
    cfg = _write_config(outdir, "simulate.json", highdim_config(seed))
    out = os.path.join(outdir, "simulate")

    def run():
        _cli(["--out", out, "--jobs", "1", "simulate", "--config", cfg])
        return out

    def check(out):
        notes = []
        modes, times, states = load_trajectory(out)
        w = _h_weights(modes)
        if not np.all(np.isfinite(states)):
            notes.append("non-finite state")
        # criterion 4, the energy inequality:
        #   |u(s)|_H^2 <= |u0|_H^2 + (s/nu) ||F||_{V'}^2.
        # Under the H pairing (ab/4) sum (-kbar_k) f_k u_k the dual of the
        # V norm is ||F||_{V'}^2 = (ab/4) sum f_k^2.  (SpectralField.dual_norm
        # also divides by -kbar_k; that smaller bound fails on this run.)
        u0_h2 = float(_h_weights(_modes_of(u0)) @ np.square(list(u0.values())))
        f2 = HIGHDIM_A * HIGHDIM_B / 4 * sum(c * c for c in
                                             HIGHDIM_FORCING.values())
        h2 = states ** 2 @ w
        bound = u0_h2 + times * f2 / HIGHDIM_NU + 1e-8
        if not np.all(h2 <= bound):
            notes.append("energy inequality fails at %d samples"
                         % int(np.sum(~(h2 <= bound))))
        if not (times[0] == 0.0 and abs(times[-1] - HIGHDIM_T) < 1e-12):
            notes.append("trajectory spans [%r, %r]" % (times[0], times[-1]))
        ref = load_reference(seed)
        if set(ref) != set(modes):
            notes.append("trajectory modes differ from the reference's")
        else:
            ref = np.array([ref[k] for k in modes])
            dist = math.sqrt(float((states[-1] - ref) ** 2 @ w))
            allowed = HIGHDIM_REL_TOL * math.sqrt(float(ref ** 2 @ w))
            if not dist <= allowed:
                notes.append("end state %.3g from the reference (allowed %.3g)"
                             % (dist, allowed))
        return 1, 1 if notes else 0, _digest_files(out), notes

    return [Job("simulate", 1, run, check)]


# ---------------------------------------------------------------------------
# certify: saturate, lierank and oracle


SATURATE_TARGET = "18,1"
SATURATE_CERTS = 15
LIERANK_POINTS = 2
LIERANK_KAPPA = 63
ORACLE_MAX_INDEX = 4
ORACLE_GEOMETRIES = [[2, 1], ["pi", "pi"]]
ORACLE_COMPARISONS = 768  # nominal count, used only if the job raises


def certify_jobs(seed, outdir):
    sat_out = os.path.join(outdir, "saturate")
    rank_out = os.path.join(outdir, "lierank")
    orc_out = os.path.join(outdir, "oracle")
    rank_cfg = _write_config(outdir, "lierank.json", {
        "geometry": {"a": 1.0, "b": 2.0}, "nu": 1.0, "level": 6,
        "controlled_level": 1, "n_points": LIERANK_POINTS, "seed": seed})
    orc_cfg = _write_config(outdir, "oracle.json", {
        "max_index": ORACLE_MAX_INDEX, "geometries": ORACLE_GEOMETRIES,
        "rel_tol": 1e-8, "abs_floor": 1e-12})

    def run_sat():
        _cli(["--out", sat_out, "--jobs", "1", "saturate", "--a", "1",
              "--b", "2", "--target-modes", SATURATE_TARGET])
        return sat_out

    def check_sat(out):
        with open(os.path.join(out, "certificate.json")) as fh:
            rep = json.load(fh)
        certs = rep["certificates"]
        bad = sum(1 for c in certs if not c["verdict"])
        notes = []
        if len(certs) != SATURATE_CERTS:
            notes.append("%d certificates, expected %d"
                         % (len(certs), SATURATE_CERTS))
            bad = SATURATE_CERTS
        if rep["verdict"] != "pass":
            notes.append("chain verdict %r" % rep["verdict"])
        return SATURATE_CERTS, bad, _digest_files(out), notes

    def run_rank():
        _cli(["--out", rank_out, "--jobs", "1", "lierank", "--config",
              rank_cfg])
        return rank_out

    def check_rank(out):
        with open(os.path.join(out, "lierank_report.json")) as fh:
            rep = json.load(fh)
        pts = rep["points"]
        bad = sum(1 for p in pts
                  if not (p["rank"] == LIERANK_KAPPA and p["full_rank"]))
        notes = []
        if len(pts) != LIERANK_POINTS:
            notes.append("%d rank points, expected %d"
                         % (len(pts), LIERANK_POINTS))
            bad = LIERANK_POINTS
        if bad:
            notes.append("%d points below rank %d" % (bad, LIERANK_KAPPA))
        return LIERANK_POINTS, bad, _digest_files(out), notes

    def run_oracle():
        _cli(["--out", orc_out, "--jobs", "1", "oracle", "--config", orc_cfg])
        return orc_out

    def check_oracle(out):
        with open(os.path.join(out, "oracle_comparisons.csv")) as fh:
            rows = list(csv.DictReader(fh))
        with open(os.path.join(out, "oracle_report.json")) as fh:
            rep = json.load(fh)
        bad = sum(1 for r in rows if r["ok"] != "True")
        notes = []
        if not rows or rep["comparisons"] != len(rows):
            notes.append("report counts %r comparisons, csv has %d"
                         % (rep["comparisons"], len(rows)))
            bad = max(len(rows), 1)
        if bad:
            notes.append("%d oracle mismatches" % bad)
        return max(len(rows), 1), bad, _digest_files(out), notes

    return [Job("saturate", SATURATE_CERTS, run_sat, check_sat),
            Job("lierank", LIERANK_POINTS, run_rank, check_rank),
            Job("oracle", ORACLE_COMPARISONS, run_oracle, check_oracle)]


# operations a workload attempts, counted as failed if its worker dies
NOMINAL_OPS = {"covering": 3 ** 8, "cascade": 1, "highdim": 1,
               "certify": SATURATE_CERTS + LIERANK_POINTS + ORACLE_COMPARISONS}

# name -> (jobs factory, (module, function) of the solve entry point,
#          whether the seed changes the inputs)
WORKLOADS = {
    "covering": (covering_jobs, ("galns.control", "covering_check"), True),
    "cascade": (cascade_jobs, ("galns.control", "cascade_to_K1"), False),
    "highdim": (highdim_jobs, ("galns.dynamics", "integrate"), True),
    "certify": (certify_jobs, ("galns.saturation", "build_chain"), True),
}
