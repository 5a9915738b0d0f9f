"""End-to-end acceptance suite: one test, and one printed PASS/FAIL line,
per criterion.  Run with -v (or -s) for the per-criterion lines."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from galns.control import (EndpointExperiment, RelaxedFamily, VertexSchedule,
                           approximate_relaxed, cascade_to_K1, covering_check,
                           deviation_sweep, fit_deviation_slope, imitate,
                           loglog_slope, push_to_interior, tracking_control)
from galns.dynamics import (GalerkinSystem, PiecewiseConstant, Smooth,
                            integrate)
from galns.lie_rank import full_rank_check
from galns.nonlinearity import interaction_rows, oracle_sweep, trilinear_b
from galns.saturation import (SQUARE_REPAIR_PAIRS, SQUARE_REPAIR_TARGETS,
                              det3, selection_S, verify_step)
from galns.spectral import RectGeometry, SpectralField, mode_set_K
from test_dynamics import both_paths
from test_saturation import direction

G = RectGeometry(1.0, 2.0)
K1 = tuple(sorted(mode_set_K(1)))
K2 = tuple(sorted(mode_set_K(2)))
K3 = tuple(sorted(mode_set_K(3)))


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapped(*a, **kw):
            try:
                fn(*a, **kw)
            except BaseException:
                print("CRITERION %2d: FAIL  %s" % (num, title))
                raise
            print("CRITERION %2d: PASS  %s" % (num, title))
        return wrapped
    return deco


def make_sys(nu=1.0, mode_set=K3, controlled=K1, forcing=None):
    f = forcing if forcing is not None else SpectralField(G, {})
    return GalerkinSystem(G, nu, f, mode_set, controlled)


# ---------------------------------------------------------------------------


@criterion(1, "coefficient oracle, all pairs <= 5, four geometries")
def test_criterion_01_coefficient_oracle():
    geoms = [RectGeometry(1.0, 1.0), RectGeometry(2.0, 1.0),
             RectGeometry(1.0, 1.41421356),
             RectGeometry(math.pi, math.pi)]
    total = 0
    for g in geoms:
        recs = oracle_sweep(5, g, rel_tol=1e-8, abs_floor=1e-12)
        assert recs, "oracle sweep returned no comparisons"
        bad = [r for r in recs if not r["ok"]]
        assert not bad, "mismatches at a=%g b=%g: %r" % (g.a, g.b, bad[:3])
        total += len(recs)
    assert total > 0


@criterion(2, "exact printed direction vectors and square determinant")
def test_criterion_02_exact_algebra():
    a2, b2 = Fraction(1), Fraction(4)   # a = 1, b = 2
    assert direction((1, 2), (2, 1), a2, b2) == {
        (1, 1): 9 * (b2 - a2) / (a2 + b2),
        (1, 3): 15 * (a2 - b2) / (9 * a2 + b2),
        (3, 1): 15 * (a2 - b2) / (a2 + 9 * b2),
        (3, 3): (b2 - a2) / (a2 + b2),
    }
    assert direction((1, 1), (1, 3), a2, b2) == {
        (2, 2): 8 * a2 / (a2 + b2), (2, 4): -4 * a2 / (b2 + 4 * a2)}
    assert direction((1, 1), (3, 1), a2, b2) == {
        (2, 2): -8 * b2 / (a2 + b2), (4, 2): 4 * b2 / (a2 + 4 * b2)}
    assert direction((1, 2), (2, 2), a2, b2) == {
        (1, 4): -18 * b2 / (16 * a2 + b2), (3, 4): 6 * b2 / (16 * a2 + 9 * b2)}
    # square-domain 3x3 determinant, exact: -45/442 once a = 1 and the
    # common pi^2/(4ab) factor is pulled out of every row
    one = Fraction(1)
    rows = interaction_rows(SQUARE_REPAIR_PAIRS, SQUARE_REPAIR_TARGETS,
                            one, one).tolist()
    assert det3(rows) / 4 ** 3 == Fraction(-45, 442)
    cert = verify_step(1, one, one, square_mode=True)
    assert cert.determinant_witnesses["square_repair_det_pi2_scaled"] \
        == Fraction(-45, 442)


@criterion(3, "saturation chain certificates, rectangle and square")
def test_criterion_03_saturation_chain():
    a2, b2 = Fraction(1), Fraction(4)
    for j in range(1, 5):
        assert len(mode_set_K(j)) == (j + 2) ** 2 - 1
        cert = verify_step(j, a2, b2)
        assert cert.verdict and cert.rank == len(cert.new_modes)
    # level 1: 8 controlled directions + 7 extracted = 15 independent vectors
    c1 = verify_step(1, a2, b2)
    assert c1.rank + len(mode_set_K(1)) == 15
    one = Fraction(1)
    assert not verify_step(1, one, one, square_mode=False).verdict
    assert verify_step(1, one, one, square_mode=True).verdict


@criterion(4, "energy conservation, skew symmetry, dissipation, bound")
def test_criterion_04_energy_and_skew():
    rng = np.random.default_rng(0)
    # the pair path at K^3, the transform at K^5, and each level's system
    # with the transform forced
    systems = [s for level in (3, 5) for s in both_paths(G.a, G.b, level)]
    assert [s.quadratic_path for s in systems] == ["pair"] + ["transform"] * 3
    for _ in range(100):
        u = SpectralField(G, {k: rng.normal() for k in K2})
        v = SpectralField(G, {k: rng.normal() for k in K2})
        for s in systems:
            y = s.to_vector(u)
            h_inner = np.sum(s.h_weights * s.quadratic_vec(y) * y)
            assert abs(h_inner) <= 1e-10 * max(1.0, u.norm("H") ** 3)
        assert abs(trilinear_b(u, v, v)) <= \
            1e-10 * max(1.0, u.norm("V") * v.norm("V") ** 2)
    # unforced, uncontrolled trajectories dissipate the H norm
    sys = make_sys(nu=1.0)
    for _ in range(3):
        u0 = SpectralField(G, {k: rng.normal() for k in K1})
        hn = sys.h_norm(integrate(sys, u0, None, 0.3, tol=1e-10).states)
        assert np.all(np.diff(hn) <= 1e-8)
    # forced runs obey |u(s)|^2 <= |u0|^2 + (1/nu) int ||F+v||_{V'}^2
    nu = 1.0
    for _ in range(10):
        F = SpectralField(G, {k: 0.5 * rng.normal() for k in K1})
        sysF = make_sys(nu=nu, forcing=F)
        u0 = SpectralField(G, {k: rng.normal() for k in K1})
        bps = np.array([0.0, 0.1, 0.25, 0.4])
        vals = rng.normal(size=(3, len(K1)))
        tr = integrate(sysF, u0, PiecewiseConstant(bps, vals), 0.4, tol=1e-10)
        fv2 = [sysF.to_field(sysF.forcing_vec
                             + sysF.control_vec(vals[i])).norm("V'") ** 2
               for i in range(3)]
        hn = sysF.h_norm(tr.states)
        for i, s in enumerate(tr.times):
            acc = sum(fv2[seg] * max(0.0, min(s, bps[seg + 1]) - bps[seg])
                      for seg in range(3) if s > bps[seg])
            assert hn[i] ** 2 <= u0.norm("H") ** 2 + acc / nu + 1e-8


def pinned_experiment():
    return EndpointExperiment(
        make_sys(), K1, SpectralField(G, {(1, 1): 0.1, (2, 2): -0.05}),
        radius=0.1, gamma_infl=1.5, horizon=2.0, tol=1e-8)


@criterion(5, "endpoint deviation scales like [T exp T]^(1/2)")
def test_criterion_05_deviation_scaling():
    exp = pinned_experiment()
    T0 = 0.1
    rows = deviation_sweep(exp, [T0, T0 / 2, T0 / 4, T0 / 8],
                           n_samples=6, seed=1)
    devs = [r["sup_deviation"] for r in rows]
    assert devs[0] > devs[1] > devs[2] > devs[3]
    fit = fit_deviation_slope(rows)
    assert 0.35 <= fit["slope"] <= 0.65, "slope %.3f" % fit["slope"]
    for r in rows:
        assert r["sup_deviation"] <= fit["C"] * math.sqrt(r["x_axis"]) + 1e-12


@criterion(6, "covering of the target ball by endpoint-map inversion")
def test_criterion_06_covering():
    exp = pinned_experiment()
    rep = covering_check(exp, grid_per_dim=3,
                         fit_horizons=[0.1, 0.05, 0.025], seed=1)
    assert rep["n_targets"] == 3 ** 8
    assert rep["max_residual"] < 1e-6, "residual %.2e" % rep["max_residual"]
    assert 0.0 < rep["T_used"] <= rep["T0"]
    assert rep["verdict"] == "pass"


@criterion(7, "tracking control reproduces smooth observed targets")
def test_criterion_07_tracking():
    rng = np.random.default_rng(5)
    sys = make_sys()
    tol = 1e-8
    for _ in range(5):
        c0 = rng.normal(size=8) * 0.2
        amp = rng.normal(size=8) * 0.1
        freq = rng.integers(1, 4, size=8).astype(float)
        q = Smooth(value=lambda t, c0=c0, amp=amp, freq=freq:
                   c0 + amp * np.sin(freq * t),
                   derivative=lambda t, amp=amp, freq=freq:
                   amp * freq * np.cos(freq * t),
                   max_step=0.05)
        u0 = SpectralField(G, dict(zip(K1, c0)))
        v, _ = tracking_control(sys, q, u0, t0=0.0, t1=0.4, tol=tol)
        tr = integrate(sys, u0, v, 0.4, tol)
        idx = [sys.index[k] for k in K1]
        err = max(np.max(np.abs(y[idx] - q.value(t)))
                  for t, y in zip(tr.times, tr.states))
        assert err <= 10 * tol, "tracking error %.2e" % err


@criterion(8, "imitation gap decays with slope <= -0.8 and pins breakpoints")
def test_criterion_08_imitation():
    sys = make_sys(nu=0.03, mode_set=K2)
    u0 = SpectralField(G, {(1, 1): 0.05, (2, 2): -0.025})
    z = VertexSchedule(np.array([0.0, math.pi / 3]),
                       [("delta", ((1, 1), (1, 3)), 1)], 0.2)
    tol = 1e-8
    ws = [3.0, 6.0, 12.0, 24.0, 48.0]
    gaps = []
    for w in ws:
        res = imitate(sys, z, w, tol, u0=u0)
        gaps.append(res.gap)
        assert max(res.pinning) <= 10 * tol, \
            "pinning %.2e at w=%g" % (max(res.pinning), w)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    # the fit galns imitate reports
    slope = loglog_slope(ws, gaps)
    assert slope <= -0.8, "slope %.3f" % slope


@criterion(9, "relaxed controls approximated by vertex-valued schedules")
def test_criterion_09_relaxed_approximation():
    rng = np.random.default_rng(3)
    verts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    w = rng.random((4, 5, 3))
    w /= w.sum(axis=2, keepdims=True)
    bp = np.concatenate([[0.0], np.sort(rng.random(4)), [1.0]])
    fam = RelaxedFamily(verts, bp, w)
    eps = 0.5
    out = approximate_relaxed(fam, eps)
    assert len({len(s.values) for s in out.schedules}) == 1

    def off_vertex(values):
        """Rows of values that np.allclose puts on no vertex."""
        on = np.all(np.isclose(values[:, None], verts), axis=2).any(axis=1)
        return np.flatnonzero(~on).tolist()
    for sched, rx in zip(out.schedules, out.rx_distances):
        assert np.min(np.diff(sched.breakpoints)) >= out.theta_eps * (1 - 1e-9)
        assert rx < eps
        assert off_vertex(sched.values) == []
        # the reported rx distance is a genuine rx-metric evaluation
        assert rx >= 0.0
    # one value moved off its vertex is the one the check flags
    moved = out.schedules[0].values.copy()
    moved[len(moved) // 2, 0] += 1e-4
    assert off_vertex(moved) == [len(moved) // 2]
    # interior push preserves the total mass K exactly and enforces the floor
    for _ in range(30):
        L = int(rng.integers(2, 8))
        n = int(rng.integers(2, 40))
        K = float(rng.uniform(0.5, 3.0))
        x = rng.random(L)
        x *= K / x.sum()
        y = push_to_interior(x, n, K=K)
        assert y.sum() == pytest.approx(K, abs=1e-12)
        assert np.all(y >= K / (n * L) - 1e-14)


@criterion(10, "Lie rank kappa_N at random points; brackets match algebra")
def test_criterion_10_lie_rank():
    # the rank reads no point, so one check covers every random point
    for n, kappa in ((1, 8), (2, 15)):
        rank, _ = full_rank_check(G, mode_set_K(n), K1)
        assert rank == kappa
    # second-order bracket directions, bilinear_vec(e_m, e_n), agree
    # entrywise with the exact algebra, the pair's interaction_rows row
    sys3 = make_sys()
    scale = math.pi ** 2 / (4 * G.a * G.b)
    for m, n in selection_S(1) + selection_S(2):
        e_m, e_n = (sys3.to_vector(SpectralField(G, {k: 1.0})) for k in (m, n))
        g = sys3.bilinear_vec(e_m, e_n)
        d = interaction_rows([(m, n)], sys3.mode_set, Fraction(1), Fraction(4))
        for gk, c in zip(g, d[0].tolist()):
            if c != 0:
                assert gk == pytest.approx(scale * float(c), rel=1e-12)


@criterion(11, "cascade steers to a third-level target with low modes only")
def test_criterion_11_cascade():
    sys = GalerkinSystem(G, 0.2, SpectralField(G, {}), K3, K1)
    target = SpectralField(G, {(1, 1): 0.05, (2, 2): 0.02, (1, 5): 0.01})
    eps = 0.05
    out = cascade_to_K1(sys, target, eps)
    assert out["M"] == 3
    assert out["budget_per_step"] == pytest.approx(eps / (2 * out["M"]))
    for step in out["steps"]:
        assert step.step_deviation <= step.budget, \
            "level %d deviation %.2e over budget %.2e" \
            % (step.level, step.step_deviation, step.budget)
        print("  cascade level %d: budget %.3e, deviation %.3e, w %g"
              % (step.level, step.budget, step.step_deviation, step.w))
    assert out["covering_residual"] < 1e-5
    assert out["achieved_distance"] <= eps, \
        "distance %.3e" % out["achieved_distance"]
    assert out["verdict"] == "pass"
    print("  cascade achieved H-distance %.3e (eps %.2g)"
          % (out["achieved_distance"], eps))
