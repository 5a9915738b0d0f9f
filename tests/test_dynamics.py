import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galns.dynamics import (GalerkinSystem, PiecewiseConstant, Smooth,
                            Trajectory, data_continuity_probe, integrate,
                            rhs, run_manifest)
from galns.nonlinearity import interaction_coeffs, quadratic
from galns.saturation import mode_set_K
from galns.spectral import RectGeometry, SpectralField, kbar

G = RectGeometry(1.0, 2.0)
K1 = tuple((i, j) for i in range(1, 4) for j in range(1, 4) if (i, j) != (3, 3))
K3 = tuple((i, j) for i in range(1, 6) for j in range(1, 6) if (i, j) != (5, 5))


def make_sys(nu=1.0, forcing=None, mode_set=K3, controlled=K1):
    f = forcing if forcing is not None else SpectralField(G, {})
    return GalerkinSystem(G, nu, f, mode_set, controlled)


def random_field(rng, modes, scale=1.0):
    return SpectralField(G, {k: scale * rng.normal() for k in modes})


def test_system_invariants():
    with pytest.raises(ValueError):
        make_sys(nu=-1.0)
    with pytest.raises(ValueError):
        GalerkinSystem(G, 1.0, SpectralField(G, {}), K1, K3)
    with pytest.raises(ValueError):
        GalerkinSystem(G, 1.0, SpectralField(G, {(5, 5): 1.0}), K1, K1)


@pytest.mark.parametrize("nu", [math.nan, math.inf])
def test_system_rejects_non_finite_viscosity(nu):
    with pytest.raises(ValueError, match="viscosity"):
        make_sys(nu=nu)


# ---------------------------------------------------------------------------
# The pair-reduced interaction operator, over random geometries and levels


def random_system(a, b, level):
    geom = RectGeometry(a, b)
    return GalerkinSystem(geom, 1.0, SpectralField(geom, {}),
                          mode_set_K(level), ())


operator_cases = dict(a=st.floats(0.25, 4.0), b=st.floats(0.25, 4.0),
                      level=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=20, deadline=None)
@given(**operator_cases)
def test_quadratic_vec_energy_skew_symmetry(a, b, level, seed):
    sys = random_system(a, b, level)
    y = np.random.default_rng(seed).normal(size=sys.dim)
    w = (a * b / 4) * np.array([-kbar(k, sys.geom) for k in sys.mode_set])
    q = sys.quadratic_vec(y)
    scale = math.sqrt(np.sum(w * q**2) * np.sum(w * y**2))
    assert abs(np.sum(w * q * y)) <= 1e-12 * scale


@settings(max_examples=20, deadline=None)
@given(**operator_cases)
def test_quadratic_vec_stack_matches_columns(a, b, level, seed):
    sys = random_system(a, b, level)
    ys = np.random.default_rng(seed).normal(size=(sys.dim, 5))
    out = sys.quadratic_vec(ys)
    assert out.shape == ys.shape
    for c in range(ys.shape[1]):
        col = sys.quadratic_vec(ys[:, c])
        np.testing.assert_allclose(out[:, c], col, rtol=0,
                                   atol=1e-13 * np.max(np.abs(col)))


@settings(max_examples=20, deadline=None)
@given(**operator_cases)
def test_quadratic_vec_matches_entrywise_oracle(a, b, level, seed):
    sys = random_system(a, b, level)
    y = np.random.default_rng(seed).normal(size=sys.dim)
    idx = sys._index
    expect = np.zeros(sys.dim)
    size = np.zeros(sys.dim)
    for p, m in enumerate(sys.mode_set):
        for n in sys.mode_set[p + 1:]:
            for k, c in interaction_coeffs(m, n, sys.geom).items():
                if k in idx:
                    term = c * y[idx[m]] * y[idx[n]]
                    expect[idx[k]] += term
                    size[idx[k]] += abs(term)
    got = sys.quadratic_vec(y)
    assert np.all(np.abs(got - expect) <= 1e-12 * np.max(size))


def test_rhs_zero_state():
    sys = make_sys()
    out = rhs(sys, SpectralField(G, {}), None)
    assert out.coeffs == {}


def test_rhs_single_mode_pure_decay():
    sys = make_sys(nu=0.7)
    out = rhs(sys, SpectralField(G, {(2, 1): 1.5}), None)
    assert set(out.coeffs) == {(2, 1)}
    assert out[(2, 1)] == pytest.approx(0.7 * kbar((2, 1), G) * 1.5, rel=1e-14)


def test_rhs_matches_quadratic_plus_linear():
    rng = np.random.default_rng(0)
    sys = make_sys(nu=0.3, forcing=SpectralField(G, {(1, 1): 0.2}))
    u = random_field(rng, K1)
    v = {(1, 2): 0.5}
    out = rhs(sys, u, v)
    q = quadratic(u, mode_set=K3)
    for k in K3:
        expect = q[k] + 0.3 * kbar(k, G) * u[k] + (0.2 if k == (1, 1) else 0.0) \
            + (0.5 if k == (1, 2) else 0.0)
        assert out[k] == pytest.approx(expect, rel=1e-12, abs=1e-14)


def test_rhs_control_dimension_error():
    sys = make_sys()
    with pytest.raises(ValueError):
        rhs(sys, SpectralField(G, {}), np.zeros(3))
    with pytest.raises(ValueError):
        rhs(sys, SpectralField(G, {}), {(5, 4): 1.0})


def test_rhs_matches_finite_difference_of_flow():
    # oracle: Richardson extrapolation of (S_h(u0) - u0)/h as h -> 0
    rng = np.random.default_rng(1)
    sys = make_sys(nu=0.5)
    u0 = random_field(rng, K1, scale=0.4)
    y0 = sys.to_vector(u0)
    want = sys.to_vector(rhs(sys, u0, None))

    def one_step(h):
        tr = integrate(sys, u0, None, h, tol=1e-13)
        return (tr.states[-1] - y0) / h

    h = 2e-5
    d = 2 * one_step(h / 2) - one_step(h)
    assert np.max(np.abs(d - want)) < 1e-6 * max(1.0, np.max(np.abs(want)))


def test_linearized_decay_bound():
    rng = np.random.default_rng(2)
    sys = make_sys(nu=5.0)
    u0 = random_field(rng, K1, scale=1e-6)
    tol = 1e-12
    tr = integrate(sys, u0, None, 0.05, tol=tol)
    kbar_max = max(kbar(k, G) for k in u0.coeffs)
    bound = u0.norm("H") * math.exp(5.0 * kbar_max * 0.05) * (1 + 1e-6)
    assert tr.end_state.norm("H") <= bound


def test_h_norm_nonincreasing_unforced():
    rng = np.random.default_rng(3)
    sys = make_sys(nu=1.0)
    for _ in range(5):
        u0 = random_field(rng, K1)
        tr = integrate(sys, u0, None, 0.3, tol=1e-10)
        hn = tr.h_norms()
        assert np.all(np.diff(hn) <= 1e-8)


def test_energy_estimate_forced_runs():
    # |u(s)|^2 <= |u0|^2 + (1/nu) int_0^s ||F+v||_{V'}^2 dt, rowwise
    rng = np.random.default_rng(4)
    nu = 1.0
    for run in range(10):
        F = random_field(rng, K1, scale=0.5)
        sys = make_sys(nu=nu, forcing=F)
        u0 = random_field(rng, K1)
        bps = np.array([0.0, 0.1, 0.25, 0.4])
        vals = rng.normal(size=(3, len(K1)))
        ctl = PiecewiseConstant(bps, vals)
        tr = integrate(sys, u0, ctl, 0.4, tol=1e-10)
        hn = tr.h_norms()
        # the integrand is piecewise constant in time: accumulate exactly
        fv2 = []
        for i in range(3):
            fv = F.plus(SpectralField(G, dict(zip(K1, vals[i]))))
            fv2.append(fv.dual_norm() ** 2)
        for i, s in enumerate(tr.times):
            acc = 0.0
            for seg in range(3):
                lo, hi = bps[seg], bps[seg + 1]
                acc += fv2[seg] * max(0.0, min(s, hi) - lo) if s > lo else 0.0
            assert hn[i] ** 2 <= u0.norm("H") ** 2 + acc / nu + 1e-8


def test_tolerance_self_convergence():
    rng = np.random.default_rng(5)
    sys = make_sys(nu=0.2)
    u0 = random_field(rng, K1)
    ref = integrate(sys, u0, None, 0.5, tol=1e-12).states[-1]

    def err(tol):
        return np.max(np.abs(integrate(sys, u0, None, 0.5, tol=tol).states[-1] - ref))

    e1, e2 = err(1e-6), err(5e-7)
    assert e2 <= e1 / 1.5


def test_breakpoints_are_knots():
    sys = make_sys()
    bps = np.array([0.0, 0.13, 0.2, 0.5])
    ctl = PiecewiseConstant(bps, np.zeros((3, len(K1))))
    tr = integrate(sys, SpectralField(G, {(1, 1): 1.0}), ctl, 0.5, tol=1e-8)
    for t in bps:
        assert np.min(np.abs(tr.times - t)) < 1e-12


def test_piecewise_constant_validation():
    with pytest.raises(ValueError):
        PiecewiseConstant([0.0, 0.0, 1.0], np.zeros((2, 3)))
    with pytest.raises(ValueError):
        PiecewiseConstant([0.0, 1.0], np.zeros((2, 3)))


@pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf])
def test_integrate_rejects_non_finite_horizon(T):
    with pytest.raises(ValueError, match="horizon"):
        integrate(make_sys(), SpectralField(G, {(1, 1): 1.0}), None, T)


@pytest.mark.parametrize("bps", [[0.0, 0.1], [0.2, 0.3], [0.1, 0.2, 0.3]])
def test_integrate_rejects_control_not_covering_horizon(bps):
    sys = make_sys()
    u0 = SpectralField(G, {(1, 1): 1.0})
    ctl = PiecewiseConstant(bps, np.ones((len(bps) - 1, len(K1))))
    with pytest.raises(ValueError, match="does not cover"):
        integrate(sys, u0, ctl, 0.3)
    # a control that runs past the horizon is cut at T
    wide = PiecewiseConstant([0.0, 0.1, 1.0], np.ones((2, len(K1))))
    assert integrate(sys, u0, wide, 0.3).times[-1] == 0.3


def test_smooth_control_sine_forcing():
    # single controlled mode with sinusoidal input at tiny amplitude:
    # compare against the exact linear response
    sys = GalerkinSystem(G, 1.0, SpectralField(G, {}), K1, ((1, 1),))
    lam = kbar((1, 1), G)
    w = 5.0
    eps = 1e-8
    ctl = Smooth(value=lambda t: np.array([eps * math.sin(w * t)]),
                 derivative=lambda t: np.array([eps * w * math.cos(w * t)]),
                 max_step=0.02)
    tr = integrate(sys, SpectralField(G, {}), ctl, 1.0, tol=1e-14)
    T = 1.0
    exact = eps * (w * math.exp(lam * T) - w * math.cos(w * T)
                   - lam * math.sin(w * T)) / (lam**2 + w**2)
    got = tr.states[-1][sys._index[(1, 1)]]
    assert got == pytest.approx(exact, rel=1e-6, abs=1e-18)


def test_continuity_probe_zero_delta():
    sys = make_sys()
    u0 = SpectralField(G, {(1, 1): 0.5})
    rows = data_continuity_probe(sys, u0, None, 0.2, [0.0])
    assert rows[0]["u0_dev"] == 0.0 and rows[0]["nu_plus_dev"] == 0.0


def test_continuity_probe_halving_and_nu_flip():
    rng = np.random.default_rng(6)
    sys = make_sys(nu=1.0, forcing=SpectralField(G, {(1, 2): 0.3}))
    u0 = random_field(rng, K1, scale=0.5)
    rows = data_continuity_probe(sys, u0, None, 0.2, [1e-3, 5e-4])
    for key in ("u0_dev", "forcing_dev", "nu_plus_dev"):
        ratio = rows[1][key] / rows[0][key]
        assert 0.3 <= ratio <= 0.7
    for r in rows:
        assert r["nu_plus_dev"] < 2 * r["nu_minus_dev"]
        assert r["nu_minus_dev"] < 2 * r["nu_plus_dev"]


def test_control_perturbation_deviation_decreases():
    # two piecewise-constant controls differing on one interval: end-state
    # deviation shrinks with the perturbation size
    sys = make_sys()
    u0 = SpectralField(G, {(1, 1): 0.4, (2, 2): -0.3})
    bps = np.array([0.0, 0.1, 0.3])
    base = np.ones((2, len(K1)))
    devs = []
    for eps in (0.1, 0.01, 0.001):
        vals = base.copy()
        vals[1, 0] += eps
        t_ref = integrate(sys, u0, PiecewiseConstant(bps, base), 0.3, 1e-10)
        t_pert = integrate(sys, u0, PiecewiseConstant(bps, vals), 0.3, 1e-10)
        d = sys.to_field(t_pert.states[-1] - t_ref.states[-1]).norm("H")
        devs.append(d)
    assert devs[0] > devs[1] > devs[2]


def test_csv_and_manifest(tmp_path):
    sys = make_sys()
    u0 = SpectralField(G, {(1, 1): 1.0})
    tr = integrate(sys, u0, None, 0.1, tol=1e-8)
    path = tmp_path / "traj.csv"
    tr.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "t"
    assert lines[0].split(",")[1] == "1.1"
    assert len(lines) == len(tr.times) + 1

    man = run_manifest(sys, u0, None, 0.1, 1e-8)
    man2 = run_manifest(sys, u0, None, 0.1, 1e-8)
    assert man["content_hash"] == man2["content_hash"]
    json.dumps(man)  # must be serializable
    man3 = run_manifest(sys, u0, None, 0.2, 1e-8)
    assert man3["content_hash"] != man["content_hash"]


def test_trajectory_spline_matches_samples():
    sys = make_sys()
    u0 = SpectralField(G, {(1, 1): 1.0, (2, 1): 0.5})
    tr = integrate(sys, u0, None, 0.2, tol=1e-10)
    i = len(tr.times) // 2
    assert np.allclose(tr.state_at(tr.times[i]), tr.states[i], atol=1e-12)
