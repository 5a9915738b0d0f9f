import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galns.control import (ApproxResult, EndpointExperiment, RelaxedFamily,
                           VertexSchedule, approximate_relaxed, cascade_to_K1,
                           covering_check, delta_metric, deviation_sweep,
                           endpoint_map, fit_deviation_slope, hull_scale,
                           imitate, imitation_sweep, make_phi_w,
                           push_to_interior, reference_map, rx_norm,
                           tracking_control)
from galns.dynamics import (GalerkinSystem, PiecewiseConstant, Smooth,
                            integrate)
from galns.saturation import mode_set_K
from galns.spectral import RectGeometry, SpectralField, kbar

G = RectGeometry(1.0, 2.0)
K1 = tuple(sorted(mode_set_K(1)))
K3 = tuple(sorted(mode_set_K(3)))


def make_sys(nu=1.0, controlled=K1, mode_set=K3):
    return GalerkinSystem(G, nu, SpectralField(G, {}), mode_set, controlled)


def h_dist(sys, x, y):
    return sys.to_field(x - y).norm("H")


# ---------------------------------------------------------------------------
# Endpoint map and deviation


def make_exp(**kw):
    args = dict(sys=make_sys(), observed_set=K1,
                u0=SpectralField(G, {(1, 1): 0.1, (2, 2): -0.05}),
                radius=0.1, gamma_infl=1.5, horizon=2.0, tol=1e-8)
    args.update(kw)
    return EndpointExperiment(**args)


def test_experiment_validation():
    with pytest.raises(ValueError):
        make_exp(gamma_infl=1.0)
    with pytest.raises(ValueError):
        make_exp(horizon=-1.0)
    with pytest.raises(ValueError):
        make_exp(observed_set=[(5, 5)])


def test_endpoint_map_ball_constraint():
    exp = make_exp()
    with pytest.raises(ValueError):
        endpoint_map(exp, np.full(8, 1.0))
    # one row outside the ball rejects the whole stack
    stack = np.zeros((3, 8))
    stack[1] = 1.0
    with pytest.raises(ValueError, match="inflated ball"):
        endpoint_map(exp, stack)


def test_endpoint_map_stack_matches_rows():
    exp = make_exp()
    rng = np.random.default_rng(2)
    # wider than one block, so the stack is split
    stack = rng.normal(size=(exp.sys.block_rows + 6, 8))
    stack *= 0.14 * rng.random((len(stack), 1)) \
        / np.sum(np.abs(stack), axis=1, keepdims=True)
    got = endpoint_map(exp, stack, 0.5)
    assert got.shape == stack.shape
    for row, p in zip(got, stack):
        assert np.max(np.abs(row - endpoint_map(exp, p, 0.5))) <= exp.tol


def test_endpoint_map_small_horizon_near_reference():
    # as T -> 0 the endpoint map approaches u0_observed + p
    exp = make_exp()
    p = np.full(8, 0.01)
    for T, bound in ((0.1, 0.2), (0.001, 0.01)):
        dev = np.sum(np.abs(endpoint_map(exp, p, T) - reference_map(exp, p)))
        assert dev < bound


def test_deviation_sweep_decreases_and_slope():
    exp = make_exp()
    rows = deviation_sweep(exp, [0.1, 0.05, 0.025, 0.0125], n_samples=6,
                           seed=1)
    devs = [r["sup_deviation"] for r in rows]
    assert devs[0] > devs[1] > devs[2] > devs[3]
    fit = fit_deviation_slope(rows)
    # root-scaling regime: slope 0.5 within the stated tolerance band
    assert 0.35 <= fit["slope"] <= 0.65
    for r in rows:
        assert r["sup_deviation"] <= fit["C"] * math.sqrt(r["x_axis"]) + 1e-12


def test_covering_small_grid():
    exp = make_exp()
    rep = covering_check(exp, grid_per_dim=2,
                         fit_horizons=[0.1, 0.05, 0.025], seed=1)
    assert rep["verdict"] == "pass"
    assert rep["n_targets"] == 2 ** 8
    assert rep["max_residual"] < 1e-6
    assert rep["T_used"] <= rep["T0"]


def test_covering_matches_sequential_reference():
    """The stacked covering loop takes, per target, the iterations of the
    one-target-at-a-time damped fixed-point loop."""
    exp = make_exp()
    rep = covering_check(exp, grid_per_dim=2,
                         fit_horizons=[0.1, 0.05, 0.025], seed=1)
    center = exp.observed(exp.sys.to_vector(exp.u0))
    for row in rep["per_target"]:
        target = np.array(row["target"])
        p = target - center
        for it in range(60):
            r = target - endpoint_map(exp, p, rep["T_used"])
            res = float(np.sum(np.abs(r)))
            if res < 1e-6:
                break
            p = p + r
        assert row["iterations"] == it + 1
        assert abs(row["residual"] - res) <= exp.tol


# ---------------------------------------------------------------------------
# Oscillator profile


def test_phi_w_requires_w_at_least_3():
    with pytest.raises(ValueError):
        make_phi_w([0.0, 1.0], 2.9)
    with pytest.raises(ValueError):
        make_phi_w([0.0, 0.0, 1.0], 5.0)


def test_phi_vanishes_at_breakpoints():
    bps = [0.0, 0.3, 0.45, 1.2]
    for w in (3.0, 7.0, 40.0):
        phi = make_phi_w(bps, w)
        for t in bps:
            assert abs(phi.value(t)) < 1e-14


def test_phi_bounded_and_equals_sine_in_interior():
    bps = [0.0, 0.5, 1.0]
    phi = make_phi_w(bps, 12.0)
    ts = np.linspace(0, 1, 2001)
    vals = np.array([phi.value(t) for t in ts])
    assert np.max(np.abs(vals)) <= 1.0 + 1e-12
    # midpoint of each interval lies beyond both ramps
    for mid in (0.25, 0.75):
        assert phi.value(mid) == pytest.approx(math.sin(12.0 * mid), abs=1e-14)


def test_phi_mismatch_measure_bound():
    bps = [0.0, 0.2, 0.9, 1.7]
    T = bps[-1]
    for w in (3.0, 9.0, 33.0):
        phi = make_phi_w(bps, w)
        assert phi.sine_mismatch_measure() <= 2 * T / w + 1e-14
        # the reported measure is exactly where phi differs from sin(wt)
        ts = np.linspace(0, T, 20001)
        frac_diff = np.mean([abs(phi.value(t) - math.sin(w * t)) > 1e-12
                             for t in ts])
        assert frac_diff * T <= phi.sine_mismatch_measure() + 1e-3


def test_phi_single_interval_midpoint():
    T = 1.0
    phi = make_phi_w([0.0, T], 3.0)
    assert phi.value(T / 2) == pytest.approx(math.sin(3 * T / 2), abs=1e-14)


def test_phi_derivative_is_consistent():
    phi = make_phi_w([0.0, 0.4, 1.0], 11.0)
    for t in (0.01, 0.2, 0.39, 0.6, 0.95):
        h = 1e-7
        fd = (phi.value(t + h) - phi.value(t - h)) / (2 * h)
        assert phi.derivative(t) == pytest.approx(fd, rel=1e-5, abs=1e-5)


# ---------------------------------------------------------------------------
# Relaxation metric


def test_rx_norm_constant():
    T = 1.7
    c = np.array([0.3, -1.1])
    assert rx_norm(([0.0, T], [c])) == pytest.approx(
        T * np.sum(np.abs(c)), rel=1e-12)


def test_rx_norm_alternating_scalar():
    # oracle: brute force over a fine grid of interval pairs
    T = 2.0
    bp = [0.0, T / 2, T]
    vals = [[1.0], [-1.0]]
    assert rx_norm((bp, vals)) == pytest.approx(T / 2, rel=1e-12)
    ts = np.linspace(0, T, 401)
    pre = np.where(ts <= T / 2, ts, T - ts)
    brute = max(abs(pre[i] - pre[j]) for i in range(0, 401, 8)
                for j in range(0, 401, 8))
    assert rx_norm((bp, vals)) == pytest.approx(brute, rel=1e-9)


def random_pwc(rng, d=3, m=4):
    bp = np.concatenate([[0.0], np.sort(rng.random(m - 1)), [1.0]])
    return bp, rng.normal(size=(m, d))


def test_rx_norm_triangle_and_homogeneity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        bp, v1 = random_pwc(rng)
        _, v2 = random_pwc(rng)
        # share breakpoints so the sum is piecewise constant on them
        assert rx_norm((bp, v1 + v2)) <= rx_norm((bp, v1)) + rx_norm((bp, v2)) + 1e-12
        c = rng.normal()
        assert rx_norm((bp, c * v1)) == pytest.approx(abs(c) * rx_norm((bp, v1)),
                                                      rel=1e-12, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=2, max_size=6))
def test_rx_norm_nonnegative_and_zero_iff_zero_signal(vals):
    bp = np.linspace(0.0, 1.0, len(vals) + 1)
    v = np.array(vals)[:, None]
    n = rx_norm((bp, v))
    assert n >= 0.0
    if np.all(v == 0.0):
        assert n == 0.0


def test_delta_metric_identity_and_overlap():
    bp = [0.0, 0.5, 1.0]
    vals = np.array([[1.0], [2.0]])
    g = (bp, vals)
    assert delta_metric(g, g) == 0.0
    h = ([0.0, 0.25, 1.0], np.array([[1.0], [2.0]]))
    # signals differ exactly on [0.25, 0.5]
    assert delta_metric(g, h) == pytest.approx(0.25, abs=1e-12)


# ---------------------------------------------------------------------------
# Relaxed-control approximation


def test_push_to_interior_floor_and_mass():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.random(5)
        x /= x.sum()
        n = rng.integers(2, 30)
        y = push_to_interior(x, int(n))
        assert np.all(y >= 1.0 / (n * 5) - 1e-15)
        assert y.sum() == pytest.approx(1.0, abs=1e-12)


def test_approximate_vertex_input_unchanged():
    verts = np.array([[1.0, 0.0], [0.0, 1.0]])
    w = np.zeros((1, 3, 2))
    w[0, :, 0] = [1.0, 0.0, 1.0]
    w[0, :, 1] = [0.0, 1.0, 0.0]
    fam = RelaxedFamily(verts, [0.0, 0.4, 0.7, 1.0], w)
    out = approximate_relaxed(fam, 0.1)
    assert out.unchanged
    assert len(out.schedules) == 1
    assert np.allclose(out.schedules[0].values, verts[[0, 1, 0]])


def test_approximate_barycenter_two_vertices():
    verts = np.array([[1.0], [-1.0]])
    w = np.full((1, 1, 2), 0.5)
    fam = RelaxedFamily(verts, [0.0, 1.0], w)
    out = approximate_relaxed(fam, 0.1)
    sched = out.schedules[0]
    # equal-length alternation of the two vertices
    durs = np.diff(sched.breakpoints)
    assert np.allclose(durs, durs[0])
    assert out.rx_distances[0] < 0.1
    # oracle: direct rx computation of the difference signal
    knots = sched.breakpoints
    diff = sched.values - np.zeros_like(sched.values)
    assert out.rx_distances[0] == pytest.approx(rx_norm((knots, diff)),
                                                rel=1e-9)


def test_approximate_properties_across_parameters():
    rng = np.random.default_rng(3)
    verts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    w = rng.random((4, 5, 3))
    w /= w.sum(axis=2, keepdims=True)
    bp = np.concatenate([[0.0], np.sort(rng.random(4)), [1.0]])
    fam = RelaxedFamily(verts, bp, w)
    eps = 0.5
    out = approximate_relaxed(fam, eps)
    counts = {len(s.values) for s in out.schedules}
    assert len(counts) == 1  # same interval count for every parameter
    for sched, rx in zip(out.schedules, out.rx_distances):
        assert np.min(np.diff(sched.breakpoints)) >= out.theta_eps * (1 - 1e-9)
        assert rx < eps
        # vertex-valued everywhere
        for v in sched.values:
            assert any(np.allclose(v, vert) for vert in verts)


def test_approximate_capacity_error():
    verts = np.array([[1.0], [-1.0]])
    fam = RelaxedFamily(verts, [0.0, 1.0], np.full((1, 1, 2), 0.5))
    with pytest.raises(ValueError):
        approximate_relaxed(fam, 1e-9, n_cap=50)


def test_hull_scale_examples():
    dirs = np.eye(2)
    xi, coeffs = hull_scale([[0.3, -0.4]], dirs)
    assert xi == pytest.approx(0.7, rel=1e-9)
    assert np.allclose(coeffs, [[0.3, -0.4]])
    with pytest.raises(ValueError):
        hull_scale([[1.0, 0.0, 1.0]], np.array([[1.0, 0.0, 0.0]]))


# ---------------------------------------------------------------------------
# Tracking


def test_tracking_reproduces_random_targets():
    rng = np.random.default_rng(5)
    sys = make_sys()
    tol = 1e-8
    for run in range(5):
        c0 = rng.normal(size=8) * 0.2
        amp = rng.normal(size=8) * 0.1
        freq = rng.integers(1, 4, size=8).astype(float)
        q = Smooth(value=lambda t, c0=c0, amp=amp, freq=freq:
                   c0 + amp * np.sin(freq * t),
                   derivative=lambda t, amp=amp, freq=freq:
                   amp * freq * np.cos(freq * t),
                   max_step=0.05)
        u0 = SpectralField(G, dict(zip(K1, c0)))
        v = tracking_control(sys, K1, q, u0, t0=0.0, t1=0.4, tol=tol)
        tr = integrate(sys, u0, Smooth(value=v.value, derivative=None,
                                       max_step=v.max_step), 0.4, tol)
        idx = [sys._index[k] for k in K1]
        errs = [np.max(np.abs(y[idx] - q.value(t)))
                for t, y in zip(tr.times, tr.states)]
        assert max(errs) <= 10 * tol


def test_tracking_zero_target_is_equilibrium():
    sys = make_sys()
    q = Smooth(value=lambda t: np.zeros(8),
               derivative=lambda t: np.zeros(8), max_step=0.1)
    v = tracking_control(sys, K1, q, SpectralField(G, {}), t1=0.3)
    for t in (0.0, 0.1, 0.25):
        assert np.max(np.abs(v.value(t))) < 1e-12


def test_tracking_rejects_modes_outside_system():
    sys = make_sys()
    q = Smooth(value=lambda t: np.zeros(1), derivative=lambda t: np.zeros(1),
               max_step=0.1)
    with pytest.raises(ValueError):
        tracking_control(sys, [(9, 9)], q, SpectralField(G, {}))


# ---------------------------------------------------------------------------
# Imitation


def test_vertex_schedule_validation():
    with pytest.raises(ValueError):
        VertexSchedule(np.array([0.0, 1.0]), [("e", (1, 1), 1), ("zero",)], 1.0)


def test_imitate_first_kind_only_gap_zero():
    sys = make_sys(nu=1.0)
    z = VertexSchedule(np.array([0.0, 0.2, 0.4]),
                       [("e", (1, 1), 1), ("e", (2, 1), -1)], 0.3)
    res = imitate(sys, z, 16.0, tol=1e-8)
    assert res.gap < 1e-6
    assert max(res.pinning) < 1e-6


def imitation_case():
    sys = make_sys(nu=0.03, mode_set=tuple(sorted(mode_set_K(2))))
    u0 = SpectralField(G, {(1, 1): 0.05, (2, 2): -0.025})
    z = VertexSchedule(np.array([0.0, math.pi / 3]),
                       [("delta", ((1, 1), (1, 3)), 1)], 0.2)
    return sys, z, u0


def test_imitate_monotone_in_w_and_pinning():
    sys, z, u0 = imitation_case()
    tol = 1e-8
    g1 = imitate(sys, z, 6.0, tol, u0=u0)
    g2 = imitate(sys, z, 12.0, tol, u0=u0)
    assert g2.gap < g1.gap
    for res in (g1, g2):
        assert max(res.pinning) <= 10 * tol


def test_imitation_sweep_slope():
    sys, z, u0 = imitation_case()
    out = imitation_sweep(sys, z, [3.0, 6.0, 12.0, 24.0, 48.0], tol=1e-8,
                          u0=u0)
    assert out["slope"] <= -0.8
    assert all(b < a for a, b in zip(out["gap"], out["gap"][1:]))


# ---------------------------------------------------------------------------
# Cascade


def cascade_sys(nu=0.2):
    return GalerkinSystem(G, nu, SpectralField(G, {}), K3, mode_set_K(1))


def test_cascade_hold_initial_state():
    sys = cascade_sys()
    u0 = SpectralField(G, {(1, 1): 0.04, (2, 1): -0.02})
    out = cascade_to_K1(sys, u0, 0.05, u0=u0)
    assert out["M"] == 1
    assert out["steps"] == []
    assert out["achieved_distance"] <= 2e-5
    assert out["verdict"] == "pass"


def test_cascade_target_in_K1_single_covering():
    sys = cascade_sys()
    tgt = SpectralField(G, {(1, 2): 0.06, (3, 1): 0.03})
    out = cascade_to_K1(sys, tgt, 0.05)
    assert out["M"] == 1
    assert out["steps"] == []
    assert out["achieved_distance"] < 0.05
    assert out["covering_residual"] < 1e-5
    # the single covering control lives on the eight lowest modes
    (t_lo, t_hi, vec), = out["final_control"]
    assert (t_lo, t_hi) == (0.0, 0.5)
    assert vec.shape == (8,)


def test_cascade_tail_beyond_levels_rejected():
    sys = cascade_sys()
    tgt = SpectralField(G, {(9, 9): 10.0})
    with pytest.raises(ValueError):
        cascade_to_K1(sys, tgt, 0.05)
