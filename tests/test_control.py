import json
import math
import os
import pickle
import subprocess
import tracemalloc
from sys import executable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galns.control import (EndpointExperiment, RelaxedFamily, VertexSchedule,
                           approximate_relaxed, cascade_to_K1, covering_check,
                           delta_metric, deviation_sweep, endpoint_map,
                           endpoint_tangent, fit_deviation_slope,
                           horizon_ceiling, imitate, make_phi_w,
                           push_to_interior, reference_map, rx_norm,
                           tracking_control)
from galns import control, dynamics
from galns.control import (_build_schedule, _direction_matrix,
                           _schedule_endpoint, _schedule_jacobian,
                           invert_endpoint, loglog_slope)
from galns.dynamics import (GalerkinSystem, PiecewiseConstant,
                            PiecewisePolynomial, Smooth, integrate)
from galns.lie_rank import full_rank_check
from galns.spectral import RectGeometry, SpectralField, mode_set_K

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
    stack = rng.normal(size=(exp.sys.block_rows + 6, 8))
    stack *= 0.14 * rng.random((len(stack), 1)) \
        / np.sum(np.abs(stack), axis=1, keepdims=True)
    got = endpoint_map(exp, stack, 0.5)
    assert got.shape == stack.shape
    for row, p in zip(got, stack):
        assert np.max(np.abs(row - endpoint_map(exp, p, 0.5))) <= exp.tol


@pytest.mark.parametrize("u0", [{}, {(1, 1): 0.1, (2, 2): -0.05}],
                         ids=["zero", "nonzero"])
def test_end_states_match_integrate_bitwise(u0):
    """One row of the stacked constant-control run ends, to the last bit,
    where integrate ends under the same control on a zero-forcing K^3
    system, so the cascade's coverings map through it unchanged."""
    sys = make_sys(controlled=K3)
    u0 = SpectralField(G, u0)
    idx = [sys.index[k] for k in sorted(mode_set_K(2))]
    T, tol = 0.5, 1e-8
    rng = np.random.default_rng(5)
    for _ in range(3):
        p = 0.1 * rng.normal(size=len(idx))
        got = control._end_states(sys, sys.to_vector(u0), idx, p[None], T,
                                  tol)
        full = np.zeros(sys.dim)
        full[idx] = p / T
        want = integrate(sys, u0, PiecewiseConstant([0.0, T], [full]), T,
                         tol).states[-1]
        assert got.shape == (sys.dim, 1)
        assert got[:, 0].tobytes() == want.tobytes()


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


def test_horizon_ceiling_matches_lambert_w():
    from scipy.special import lambertw
    exp = make_exp()
    d = len(exp.observed_set)
    for x in np.logspace(-12, 3, 61):
        C = (exp.gamma_infl - 1) * exp.radius / (2 * d * math.sqrt(x))
        # the argument as horizon_ceiling forms it from C
        x_c = ((exp.gamma_infl - 1) * exp.radius / (2 * d * C)) ** 2
        assert horizon_ceiling(exp, C) == pytest.approx(
            lambertw(x_c).real, rel=1e-14, abs=0)


def criterion_6_horizon(exp):
    """T_used of criterion 6's covering: the horizon ceiling of its fit."""
    fit = fit_deviation_slope(deviation_sweep(exp, [0.1, 0.05, 0.025],
                                              seed=1))
    return min(exp.horizon, horizon_ceiling(exp, fit["C"]))


@pytest.mark.parametrize("T", [None, 0.025])
def test_endpoint_tangent_matches_central_differences(T):
    exp = make_exp()
    T = criterion_6_horizon(exp) if T is None else T
    F0, DF, stats = endpoint_tangent(exp.sys, exp.u0, exp.observed_set, T,
                                     exp.tol)
    assert DF.shape == (8, 8) and stats.accepted_steps >= 1
    assert np.max(np.abs(F0 - endpoint_map(exp, np.zeros(8), T))) <= exp.tol
    # the 16 shifted impulses share one block, so one step sequence
    h = 1e-4
    shifted = endpoint_map(exp, np.vstack([h * np.eye(8), -h * np.eye(8)]), T)
    fd = (shifted[:8] - shifted[8:]).T / (2 * h)
    assert np.max(np.abs(DF - fd)) <= 1e-6


@pytest.mark.parametrize("seed", [1, 7])
def test_covering_lands_in_one_chord_step(seed):
    """Criterion 6's covering: the chord prediction from the tangent run
    leaves every target within residual_tol after one endpoint map."""
    exp = make_exp()
    rep = covering_check(exp, grid_per_dim=3,
                         fit_horizons=[0.1, 0.05, 0.025], seed=seed)
    assert {row["iterations"] for row in rep["per_target"]} == {1}
    assert rep["max_residual"] < 1e-6
    assert rep["rows_mapped"] == 3 ** 8 + 1 + 8
    assert rep["tangent_integrator"]["accepted_steps"] >= 1
    assert rep["tangent_integrator"]["largest_step"] <= rep["T_used"]


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
    one-target-at-a-time chord Newton loop on the same Jacobian."""
    exp = make_exp()
    rep = covering_check(exp, grid_per_dim=2,
                         fit_horizons=[0.1, 0.05, 0.025], seed=1)
    F0, DF, _ = endpoint_tangent(exp.sys, exp.u0, exp.observed_set,
                                 rep["T_used"], exp.tol)
    for row in rep["per_target"]:
        target = np.array(row["target"])
        p = np.linalg.solve(DF, target - F0)
        for it in range(60):
            r = target - endpoint_map(exp, p, rep["T_used"])
            res = float(np.sum(np.abs(r)))
            if res < 1e-6:
                break
            p = p + np.linalg.solve(DF, r)
        assert row["iterations"] == it + 1
        assert abs(row["residual"] - res) <= exp.tol


@pytest.mark.parametrize("grid_per_dim", [0, 1])
def test_covering_needs_two_points_per_dim(grid_per_dim):
    # one point per dimension is a single corner target, which covers
    # nothing; zero points are no grid at all
    with pytest.raises(ValueError, match="grid_per_dim must be at least 2"):
        covering_check(make_exp(), grid_per_dim=grid_per_dim)


def test_covering_heap_is_per_target_arrays():
    """Criterion 6's covering keeps its per-target results as arrays, 8
    (d + 2) bytes a target: 0.5 MiB for 6,561 targets at d = 8.  It inverts
    one endpoint block at a time, so no other grid-sized array is made: the
    peak read 1.08 MiB, and 1.94 MiB with the whole grid as one stack."""
    exp = make_exp()
    kw = dict(fit_horizons=[0.1, 0.05, 0.025], seed=1)
    covering_check(exp, grid_per_dim=2, **kw)  # first-call caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rep = covering_check(exp, grid_per_dim=3, **kw)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep["n_targets"] == 3 ** 8
    assert (peak - base) / 2 ** 20 <= 1.25
    assert (held - base) / 2 ** 20 <= 0.6


def test_covering_blocks_match_whole_stack_inversion():
    """Where every target lands after one map, as on criterion 6's grid,
    inverting one block at a time gives the bits of one whole-stack
    inversion whose map integrates the same blocks."""
    exp = make_exp()
    rep = covering_check(exp, grid_per_dim=3,
                         fit_horizons=[0.1, 0.05, 0.025], seed=1)
    rows, T, b = rep["per_target"], rep["T_used"], exp.sys.block_rows
    assert len(rows) > b
    F0, DF, _ = endpoint_tangent(exp.sys, exp.u0, exp.observed_set, T,
                                 exp.tol)

    def F(P):
        return np.vstack([endpoint_map(exp, P[lo:lo + b], T)
                          for lo in range(0, len(P), b)])
    _, residuals, iterations = invert_endpoint(
        F, rows.targets, F0, np.linalg.inv(DF), 1e-6)
    assert rows.residuals.tobytes() == residuals.tobytes()
    assert rows.iterations.tobytes() == iterations.tobytes()


def test_one_inversion_per_covering(monkeypatch):
    """covering_check inverts DF(0) once for all its target blocks (once
    per block before), and a cascade covering once for its chord steps."""
    calls, inv = [], np.linalg.inv

    def counted(a):
        calls.append(1)
        return inv(a)
    monkeypatch.setattr(np.linalg, "inv", counted)
    exp = make_exp()
    rep = covering_check(exp, grid_per_dim=2,
                         fit_horizons=[0.1, 0.05, 0.025], seed=1)
    assert rep["n_targets"] > 3 * exp.sys.block_rows
    assert len(calls) == 1
    full_sys = make_sys(controlled=K3)
    goal = np.zeros(full_sys.dim)
    goal[full_sys.index[(1, 1)]] = 0.05
    calls.clear()
    _, res, _ = control._cover(full_sys, SpectralField(G, {}), goal, 2,
                               1e-8)
    assert len(calls) == 1 and res < 1e-6


def test_covering_rows_hold_python_scalars():
    exp = make_exp()
    rep = covering_check(exp, grid_per_dim=2,
                         fit_horizons=[0.1, 0.05, 0.025], seed=1)
    rows = list(rep["per_target"])
    assert len(rows) == len(rep["per_target"]) == rep["n_targets"] == 2 ** 8
    for row in rows:
        assert type(row["residual"]) is float
        assert type(row["iterations"]) is int
        assert len(row["target"]) == 8
        assert all(type(x) is float for x in row["target"])
    # the view is read again from the start, and its totals encode as JSON
    total = sum(row["iterations"] for row in rep["per_target"])
    assert json.loads(json.dumps(total)) == rep["rows_mapped"] - 9
    assert list(pickle.loads(pickle.dumps(rep))["per_target"]) == rows


# ---------------------------------------------------------------------------
# Oscillator profile


def test_phi_w_requires_w_at_least_3():
    with pytest.raises(ValueError):
        make_phi_w([0.0, 1.0], 2.9)
    with pytest.raises(ValueError):
        make_phi_w([0.0, 0.0, 1.0], 5.0)
    with pytest.raises(ValueError, match="increasing"):
        make_phi_w([0.0, math.nan, 1.0], 5.0)


def phi_samples(phi, n):
    """(i, k, lo, hi, ts) for each piece k of each interval i, with n
    evenly spaced times from lo to hi."""
    return [(i, k, lo, hi, np.linspace(lo, hi, n))
            for i in range(len(phi.rho))
            for k, (lo, hi) in enumerate(phi.pieces(i))]


def test_phi_vanishes_at_breakpoints():
    bps = [0.0, 0.3, 0.45, 1.2]
    for w in (3.0, 7.0, 40.0):
        phi = make_phi_w(bps, w)
        for i in range(len(bps) - 1):
            # the ramp up starts and the ramp down ends at a breakpoint
            assert phi.pieces(i)[0][0] == bps[i]
            assert phi.pieces(i)[2][1] == bps[i + 1]
            assert abs(phi.piece_value(i, 0, bps[i])) < 1e-14
            assert abs(phi.piece_value(i, 2, bps[i + 1])) < 1e-14


def test_phi_bounded_and_equals_sine_in_interior():
    bps = [0.0, 0.5, 1.0]
    phi = make_phi_w(bps, 12.0)
    for i, k, lo, hi, ts in phi_samples(phi, 1001):
        assert np.max(np.abs(phi.piece_value(i, k, ts))) <= 1.0 + 1e-12
    # midpoint of each interval lies beyond both ramps
    for i, mid in enumerate((0.25, 0.75)):
        lo, hi = phi.pieces(i)[1]
        assert lo < mid < hi
        assert phi.piece_value(i, 1, mid) == pytest.approx(
            math.sin(12.0 * mid), abs=1e-14)


def test_phi_mismatch_measure_bound():
    bps = [0.0, 0.2, 0.9, 1.7]
    T = bps[-1]
    for w in (3.0, 9.0, 33.0):
        phi = make_phi_w(bps, w)
        # phi differs from sin(wt) on its ramps, two of length rho each
        mismatch = 2 * np.sum(phi.rho)
        assert mismatch <= 2 * T / w + 1e-14
        measure = 0.0
        for i, k, lo, hi, ts in phi_samples(phi, 2001):
            differs = np.abs(phi.piece_value(i, k, ts) - np.sin(w * ts)) \
                > 1e-12
            if k == 1:
                assert not np.any(differs)
            measure += (hi - lo) * np.mean(differs)
        assert measure <= mismatch + 1e-3


def test_phi_single_interval_midpoint():
    T = 1.0
    phi = make_phi_w([0.0, T], 3.0)
    lo, hi = phi.pieces(0)[1]
    assert lo < T / 2 < hi
    assert phi.piece_value(0, 1, T / 2) == pytest.approx(math.sin(3 * T / 2),
                                                         abs=1e-14)


def test_phi_derivative_is_consistent():
    phi = make_phi_w([0.0, 0.4, 1.0], 11.0)
    h = 1e-7
    checked = []
    for i, k, lo, hi in ((i, k, lo, hi) for i in range(2)
                         for k, (lo, hi) in enumerate(phi.pieces(i))):
        for t in (0.01, 0.2, 0.39, 0.6, 0.95):
            if lo + h < t < hi - h:
                fd = (phi.piece_value(i, k, t + h)
                      - phi.piece_value(i, k, t - h)) / (2 * h)
                assert phi.piece_value(i, k, t, 1) == pytest.approx(
                    fd, rel=1e-5, abs=1e-5)
                checked.append((t, k))
    # every time lies inside one piece; ramps and sines are both checked
    assert sorted(t for t, _ in checked) == [0.01, 0.2, 0.39, 0.6, 0.95]
    assert {k for _, k in checked} == {0, 1, 2}


@pytest.mark.parametrize("nu", [0, 1])
def test_phi_piece_value_scalar_equals_array(nu):
    # one time (float, np.float64 or int) and a column of times read each
    # piece by the same formula, to the last bit
    phi = make_phi_w([0.0, 0.3, 0.35, 1.0], 400.0)
    rng = np.random.default_rng(nu)
    for i in range(3):
        for k, (lo, hi) in enumerate(phi.pieces(i)):
            ts = np.concatenate([rng.uniform(lo - 1e-3, hi + 1e-3, 40),
                                 [lo, hi]])
            col = phi.piece_value(i, k, ts[:, None], nu)
            assert np.shape(col) in ((len(ts), 1), ())
            col = np.broadcast_to(col, (len(ts), 1))[:, 0]
            for t, want in zip(ts, col):
                for form in (float(t), np.float64(t)):
                    assert phi.piece_value(i, k, form, nu) == want
            n = int(round(hi))
            assert phi.piece_value(i, k, n, nu) \
                == phi.piece_value(i, k, float(n), nu)


# ---------------------------------------------------------------------------
# Relaxation metric


def test_rx_norm_constant():
    T = 1.7
    c = np.array([0.3, -1.1])
    assert rx_norm(PiecewiseConstant([0.0, T], [c])) == pytest.approx(
        T * np.sum(np.abs(c)), rel=1e-12)


def test_rx_norm_alternating_scalar():
    # oracle: brute force over a fine grid of interval pairs
    T = 2.0
    bp = [0.0, T / 2, T]
    vals = [[1.0], [-1.0]]
    assert rx_norm(PiecewiseConstant(bp, vals)) == pytest.approx(T / 2,
                                                              rel=1e-12)
    ts = np.linspace(0, T, 401)
    pre = np.where(ts <= T / 2, ts, T - ts)
    brute = max(abs(pre[i] - pre[j]) for i in range(0, 401, 8)
                for j in range(0, 401, 8))
    assert rx_norm(PiecewiseConstant(bp, vals)) == pytest.approx(brute,
                                                              rel=1e-9)


def random_pwc(rng, d=3, m=4):
    bp = np.concatenate([[0.0], np.sort(rng.random(m - 1)), [1.0]])
    return bp, rng.normal(size=(m, d))


def test_rx_norm_triangle_and_homogeneity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        bp, v1 = random_pwc(rng)
        _, v2 = random_pwc(rng)
        # share breakpoints so the sum is piecewise constant on them
        assert rx_norm(PiecewiseConstant(bp, v1 + v2)) \
            <= rx_norm(PiecewiseConstant(bp, v1)) \
            + rx_norm(PiecewiseConstant(bp, v2)) + 1e-12
        c = rng.normal()
        assert rx_norm(PiecewiseConstant(bp, c * v1)) == pytest.approx(
            abs(c) * rx_norm(PiecewiseConstant(bp, v1)), rel=1e-12, abs=1e-15)


def rx_norm_by_knot_pairs(bp, vals):
    """The largest l1 distance between the signal's integrals from bp[0]
    to two knots, over every pair of knots."""
    prefix = np.vstack([np.zeros(vals.shape[1]),
                        np.cumsum(vals * np.diff(bp)[:, None], axis=0)])
    return max(float(np.max(np.sum(np.abs(prefix[i + 1:] - prefix[i]), axis=1),
                            initial=0.0))
               for i in range(len(prefix)))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_rx_norm_matches_knot_pair_maximum(d):
    # the integral is piecewise linear and the l1 norm convex, so the
    # supremum over t1 < t2 sits on a pair of knots
    rng = np.random.default_rng(d)
    for m in (1, 2, 7, 30):
        bp, vals = random_pwc(rng, d=d, m=m)
        assert rx_norm(PiecewiseConstant(bp, vals)) == pytest.approx(
            rx_norm_by_knot_pairs(bp, vals), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-3, 3), min_size=2, max_size=6))
def test_rx_norm_nonnegative_and_zero_iff_zero_signal(vals):
    bp = np.linspace(0.0, 1.0, len(vals) + 1)
    v = np.array(vals)[:, None]
    n = rx_norm(PiecewiseConstant(bp, v))
    assert n >= 0.0
    if np.all(v == 0.0):
        assert n == 0.0


def test_delta_metric_identity_and_overlap():
    bp = [0.0, 0.5, 1.0]
    vals = np.array([[1.0], [2.0]])
    g = PiecewiseConstant(bp, vals)
    assert delta_metric(g, g) == 0.0
    h = PiecewiseConstant([0.0, 0.25, 1.0], np.array([[1.0], [2.0]]))
    # signals differ exactly on [0.25, 0.5]
    assert delta_metric(g, h) == pytest.approx(0.25, abs=1e-12)


def test_knot_merges_leave_numpy_ma_unloaded():
    # np.unique imports numpy.ma on its first call; the merged knots of
    # delta_metric and approximate_relaxed come without it
    src = os.path.dirname(os.path.dirname(os.path.abspath(control.__file__)))
    code = ("import sys, numpy as np\n"
            "from galns.control import (RelaxedFamily, approximate_relaxed,\n"
            "                           delta_metric)\n"
            "from galns.dynamics import PiecewiseConstant as P\n"
            "g = P([0.0, 0.5, 1.0], [[1.0], [2.0]])\n"
            "h = P([0.0, 0.25, 0.5, 1.0], [[1.0], [3.0], [2.0]])\n"
            "assert abs(delta_metric(g, h) - 0.25) < 1e-12\n"
            "fam = RelaxedFamily([[1.0], [-1.0]], [0.0, 1.0],\n"
            "                    np.full((1, 1, 2), 0.5))\n"
            "approximate_relaxed(fam, 0.1)\n"
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


def test_sorted_unique_equals_np_unique():
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.choice(np.round(rng.uniform(-1, 1, 12), 2), 30)
        assert np.unique(x).tobytes() == control._sorted_unique(x).tobytes()


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
    assert out.rx_distances[0] == pytest.approx(
        rx_norm(PiecewiseConstant(knots, diff)), rel=1e-9)


def hull_family():
    """Criterion 9's family: four parameters of random weights on three
    vertices of the plane, over five shared intervals."""
    rng = np.random.default_rng(3)
    verts = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    w = rng.random((4, 5, 3))
    w /= w.sum(axis=2, keepdims=True)
    bp = np.concatenate([[0.0], np.sort(rng.random(4)), [1.0]])
    return RelaxedFamily(verts, bp, w)


def on_vertices(values, verts):
    """Per row of values: whether np.allclose puts it on some vertex."""
    return np.any(np.all(np.isclose(values[:, None], verts), axis=2), axis=1)


def test_approximate_properties_across_parameters():
    fam = hull_family()
    eps = 0.5
    out = approximate_relaxed(fam, eps)
    counts = {len(s.values) for s in out.schedules}
    assert len(counts) == 1  # same interval count for every parameter
    for sched, rx in zip(out.schedules, out.rx_distances):
        assert np.min(np.diff(sched.breakpoints)) >= out.theta_eps * (1 - 1e-9)
        assert rx < eps
        # vertex-valued everywhere
        assert np.all(on_vertices(sched.values, fam.vertices))
    # the membership test sees one value off the vertices
    off = out.schedules[0].values.copy()
    off[7] = 0.5 * (fam.vertices[0] + fam.vertices[1])
    assert on_vertices(off, fam.vertices).tolist().count(False) == 1


def looped_approximate_relaxed(family, eps):
    """approximate_relaxed's grid as a loop over cells, each vertex's time
    integrated segment by segment, and its rx distance read one knot
    interval at a time through PiecewiseConstant.value: (breakpoints, rx
    distance) per parameter."""
    verts = family.vertices
    r = verts.shape[0]
    T = family.breakpoints[-1] - family.breakpoints[0]
    D = float(np.max(np.sum(np.abs(verts), axis=1)))
    gamma = eps / (2 * T * max(D, 1e-300) * r) / 2
    n = int(math.ceil((r + 1) / (r * gamma))) + 1
    cell = T / n**2
    cells = family.breakpoints[0] + cell * np.arange(n**2 + 1)

    def integrate_weights(pw, lo, hi):
        """Exact integral of the pushed weight signal over [lo, hi]."""
        acc = np.zeros(r)
        i = max(int(np.searchsorted(family.breakpoints, lo, side="right")) - 1, 0)
        t = lo
        while t < hi - 1e-15 * T and i < len(pw):
            seg_hi = min(hi, family.breakpoints[i + 1])
            acc += push_to_interior(pw[i], n) * (seg_hi - t)
            t = seg_hi
            i += 1
        return acc

    out = []
    for pw in family.weights:
        bps = [family.breakpoints[0]]
        for c in range(n**2):
            durations = integrate_weights(pw, cells[c], cells[c + 1])
            t = bps[-1]
            for j in range(r):
                t += durations[j]
                bps.append(t)
        bps = np.array(bps)
        bps[-1] = family.breakpoints[-1]
        sched = PiecewiseConstant(bps, np.tile(verts, (n**2, 1)))
        orig = PiecewiseConstant(family.breakpoints, pw @ verts)
        knots = np.unique(np.concatenate([bps, orig.breakpoints]))
        diff = np.array([sched.value(0.5 * (a + b)) - orig.value(0.5 * (a + b))
                         for a, b in zip(knots[:-1], knots[1:])])
        out.append((bps, rx_norm(PiecewiseConstant(knots, diff))))
    return out


@pytest.mark.parametrize("eps", [0.5, 0.25])
def test_approximate_matches_cell_loop(eps):
    # the cumulative integral read at the cell edges gives the loop's
    # breakpoints; midpoint lookups on the merged knots its rx distances
    fam = hull_family()
    out = approximate_relaxed(fam, eps)
    want = looped_approximate_relaxed(fam, eps)
    assert len(out.schedules) == len(want) == 4
    for sched, rx, (bps, rx_loop) in zip(out.schedules, out.rx_distances,
                                         want):
        assert len(sched.breakpoints) == len(bps)
        assert np.max(np.abs(sched.breakpoints - bps)) <= 1e-12
        assert rx == pytest.approx(rx_loop, rel=1e-9)


def test_approximate_capacity_error():
    verts = np.array([[1.0], [-1.0]])
    fam = RelaxedFamily(verts, [0.0, 1.0], np.full((1, 1, 2), 0.5))
    with pytest.raises(ValueError, match="exceeds cap %d" % control.N_CAP):
        approximate_relaxed(fam, 1e-9)


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
        v, _ = tracking_control(sys, q, u0, t0=0.0, t1=0.4, tol=tol)
        tr = integrate(sys, u0, v, 0.4, tol)
        idx = [sys.index[k] for k in K1]
        errs = [np.max(np.abs(y[idx] - q.value(t)))
                for t, y in zip(tr.times, tr.states)]
        assert max(errs) <= 10 * tol


def test_tracking_zero_target_is_equilibrium():
    sys = make_sys()
    q = Smooth(value=lambda t: np.zeros(8),
               derivative=lambda t: np.zeros(8), max_step=0.1)
    v, _ = tracking_control(sys, q, SpectralField(G, {}), 0.0, 0.3)
    for t in (0.0, 0.1, 0.25):
        assert np.max(np.abs(v.value(t))) < 1e-12


def test_tracking_rejects_empty_interval():
    sys = make_sys()
    q = Smooth(value=lambda t: np.zeros(8), derivative=lambda t: np.zeros(8),
               max_step=0.1)
    with pytest.raises(ValueError, match="t1 > t0"):
        tracking_control(sys, q, SpectralField(G, {}), t0=0.5, t1=0.5)


def test_tracking_control_replays_in_its_own_time():
    # tracked on [0.3, 0.7], the control runs on [0, 0.7 - 0.3] (0.4 less
    # an ulp): integrate replays it as returned from the state at 0.3, and
    # the J modes follow q(0.3 + s)
    sys = make_sys()
    tol = 1e-8
    c0 = np.linspace(-0.2, 0.2, 8)
    q = Smooth(value=lambda t: c0 * np.cos(2 * t),
               derivative=lambda t: -2 * c0 * np.sin(2 * t), max_step=0.05)
    u_start = SpectralField(G, {**dict(zip(K1, q.value(0.3))),
                                (3, 3): 0.03, (1, 4): -0.02})
    v, stats = tracking_control(sys, q, u_start, t0=0.3, t1=0.7, tol=tol)
    T = 0.7 - 0.3
    assert v.knots[0] == 0.0 and v.knots[-1] == T
    assert stats.accepted_steps == len(v.knots) - 1
    tr = integrate(sys, u_start, v, T, tol)
    errs = [np.max(np.abs(y[sys.ctrl_idx] - q.value(0.3 + s)))
            for s, y in zip(tr.times, tr.states)]
    assert max(errs) <= 10 * tol


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


@pytest.mark.parametrize("level, nu", [(2, 0.03), (3, 1.0)],
                         ids=["K2", "K3"])
def test_imitate_direct_intervals_take_the_reference_run(level, nu):
    # before any interaction interval the J control applies the schedule's
    # value itself, so the controlled run is the reference run, not a
    # second integration of the same ODE that ends a few ulps away
    sys = GalerkinSystem(G, nu, SpectralField(G, {(1, 1): 0.3}),
                         tuple(sorted(mode_set_K(level))), K1)
    z = VertexSchedule(np.array([0.0, 0.3, 0.7, 1.1, 1.9]),
                       [("e", (1, 1), 1), ("e", (2, 1), -1), ("zero",),
                        ("e", (1, 2), 1)], 0.4)
    res = imitate(sys, z, 16.0, 1e-8, u0=SpectralField(G, {(2, 2): 0.05}))
    assert res.gap == 0.0
    assert res.pinning == [0.0] * 4
    assert res.stats.accepted_steps > 0


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


def test_imitate_reference_derivative_is_one_sided():
    # after an interaction interval every interval is tracked along the
    # reference; at a breakpoint the tracked control must follow the
    # interval's own reference derivative, not its neighbour's, so it stays
    # near the interval's value and far from the 0.2 jump to the next one
    sys, _, u0 = imitation_case()
    xi = 0.2
    labels = [("delta", ((1, 1), (1, 3)), 1), ("e", (1, 1), 1),
              ("e", (2, 1), -1)]
    bps = np.array([0.0, math.pi / 3, math.pi / 2, 2 * math.pi / 3])
    res = imitate(sys, VertexSchedule(bps, labels, xi), 12.0, 1e-8, u0=u0)
    J = sys.controlled_set
    controls = {t_lo: (t_hi, v) for t_lo, t_hi, v in res.controls}
    for i in (1, 2):
        # the interval after the interaction interval is tracked as one piece
        t_hi, v = controls[bps[i]]
        assert t_hi == bps[i + 1]
        want = np.zeros(len(J))
        want[J.index(labels[i][1])] = labels[i][2] * xi
        # a control's time starts at its piece's start
        for t in (0.0, t_hi - bps[i]):
            assert np.max(np.abs(v.value(t) - want)) < 0.1 * xi


def test_imitate_short_delta_interval_replays_without_hunting():
    # the oscillation's slope jumps at the ramp corners, rho = length / w
    # inside the interval's ends; a replay across the whole interval hunts
    # each corner down by step rejection (25 rejected steps here), while
    # piece by piece every corner is a segment end
    sys, _, u0 = imitation_case()
    z = VertexSchedule(np.array([0.0, 3e-4]),
                       [("delta", ((1, 1), (1, 3)), 1)], 0.2)
    res = imitate(sys, z, 4000.0, 1e-8, u0=u0)
    assert res.stats.rejected_steps <= 5
    assert res.stats.accepted_steps > 0
    # the interval delivers its ramp, sine and ramp pieces, each the control
    # of its replay: replayed in turn at tol / 10, they end at the end state
    rho = 3e-4 / 4000.0
    assert [(a, b) for a, b, _ in res.controls] == [
        (0.0, rho), (rho, 3e-4 - rho), (3e-4 - rho, 3e-4)]
    y = u0
    for t_lo, t_hi, v in res.controls:
        y = sys.to_field(integrate(sys, y, v, t_hi - t_lo, 1e-9).states[-1])
    assert np.array_equal(sys.to_vector(y), res.end_state)


def test_imitate_tracked_intervals_are_polynomial_artifacts():
    sys, _, u0 = imitation_case()
    labels = [("e", (1, 1), 1), ("delta", ((1, 1), (1, 3)), 1),
              ("e", (2, 1), -1), ("zero",)]
    bps = np.array([0.0, 0.2, 0.2 + math.pi / 3, 1.3, 1.5])
    res = imitate(sys, VertexSchedule(bps, labels, 0.2), 12.0, 1e-8, u0=u0)
    (_, _, direct), *tracked = res.controls
    assert isinstance(direct, PiecewiseConstant)
    assert direct.breakpoints.tolist() == [0.0, 0.2]
    rng = np.random.default_rng(8)
    for t_lo, t_hi, v in tracked:
        assert isinstance(v, PiecewisePolynomial)
        assert v.knots[0] == 0.0 and v.knots[-1] == t_hi - t_lo
        assert v.coefficients.shape[2] == len(sys.controlled_set)
        desc = json.loads(json.dumps(v.describe()))
        del desc["kind"]
        again = PiecewisePolynomial(**desc)
        for t in rng.uniform(0.0, t_hi - t_lo, 100):
            assert np.array_equal(again.value(t), v.value(t))
    # the interaction interval delivers its ramp, sine and ramp pieces, and
    # the intervals after it one piece each
    rho = (math.pi / 3) / 12.0
    ends = [0.2, 0.2 + rho, 0.2 + math.pi / 3 - rho] + bps[2:].tolist()
    assert np.max(np.abs(np.array([(a, b) for a, b, _ in tracked])
                         - np.column_stack([ends[:-1], ends[1:]]))) <= 1e-15


@pytest.mark.parametrize("labels, breakpoints", [
    ([("delta", ((1, 1), (1, 3)), 1)], [0.0, math.pi / 3]),
    ([("e", (1, 1), 1), ("delta", ((1, 1), (1, 3)), 1), ("e", (1, 3), -1),
      ("zero",)], [0.0, 0.1, 0.3, 0.4, 0.5])], ids=["tracked", "mixed"])
def test_imitation_stats_count_every_run(monkeypatch, labels, breakpoints):
    # the reference runs of tracked intervals and of the direct intervals
    # after them were once left out of the stats
    calls = []
    run = dynamics.adaptive_lawson

    def counted(lam, nonlin, *args, **kwargs):
        def rhs(z, t):
            calls.append(1)
            return nonlin(z, t)
        return run(lam, rhs, *args, **kwargs)
    monkeypatch.setattr(control, "adaptive_lawson", counted)
    monkeypatch.setattr(dynamics, "adaptive_lawson", counted)
    sys, z, u0 = imitation_case()
    z = VertexSchedule(np.array(breakpoints), labels, z.xi)
    res = imitate(sys, z, 12.0, 1e-8, u0=u0)
    assert res.stats.rhs_calls == len(calls)


def test_imitation_sweep_slope():
    sys, z, u0 = imitation_case()
    ws = [3.0, 6.0, 12.0, 24.0, 48.0]
    gaps = [imitate(sys, z, w, 1e-8, u0=u0).gap for w in ws]
    assert loglog_slope(ws, gaps) <= -0.8
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_imitation_sweep_single_frequency_has_no_slope():
    """One point determines no line: the slope is None, not a
    least-squares value through one point."""
    sys, z, u0 = imitation_case()
    gaps = [imitate(sys, z, 6.0, 1e-8, u0=u0).gap]
    assert len(gaps) == 1
    assert loglog_slope([6.0], gaps) is None


def test_loglog_slope_of_power_laws():
    x = [1.0, 2.0, 4.0, 8.0]
    assert loglog_slope(x, [3 * t ** -1.5 for t in x]) == \
        pytest.approx(-1.5, abs=1e-12)
    assert loglog_slope([2.0], [5.0]) is None
    assert loglog_slope([], []) is None
    # two points at one x determine no line either; polyfit only warned
    assert loglog_slope([12.0, 12.0], [0.3, 0.2]) is None
    # nor does a zero y, which has no logarithm
    assert loglog_slope([6.0, 12.0], [0.0, 0.2]) is None


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
    (t_lo, t_hi, v), = out["final_control"]
    assert (t_lo, t_hi) == (0.0, 0.5)
    assert isinstance(v, PiecewiseConstant)
    assert v.breakpoints.tolist() == [0.0, 0.5] and v.values.shape == (1, 8)
    # replayed on sys from u0, it ends where the covering did
    y = integrate(sys, SpectralField(G, {}), v, t_hi - t_lo).states[-1]
    assert abs(h_dist(sys, y, sys.to_vector(tgt))
               - out["achieved_distance"]) <= 1e-12


def test_cascade_tail_beyond_levels_rejected():
    sys = cascade_sys()
    tgt = SpectralField(G, {(9, 9): 10.0})
    with pytest.raises(ValueError):
        cascade_to_K1(sys, tgt, 0.05)


@pytest.mark.parametrize("eps", [float("nan"), 0.0, -1.0, float("inf")],
                         ids=["nan", "zero", "negative", "inf"])
def test_cascade_rejects_eps_outside_positive_finite(eps):
    # NaN ran to a NaN budget, 0 and -1 blamed the target's tail, and inf
    # passed vacuously
    tgt = SpectralField(G, {(1, 2): 0.06, (3, 1): 0.03})
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        cascade_to_K1(cascade_sys(), tgt, eps)


def test_cascade_needs_a_system_controlled_on_K1():
    # its control acts on K^1: on a system controlled on K^3 no entry of
    # final_control could be replayed by integrate
    sys = GalerkinSystem(G, 0.2, SpectralField(G, {}), K3, K3)
    tgt = SpectralField(G, {(1, 1): 0.05, (2, 2): 0.02, (1, 5): 0.01})
    with pytest.raises(ValueError, match="controlled_set"):
        cascade_to_K1(sys, tgt, 0.05)


@pytest.mark.parametrize("a, b", [
    (1.0, 1.0), (math.pi, math.pi), (1.0, float(np.nextafter(1.0, 2.0))),
    (1.0, 2.0)], ids=["square", "pi_square", "ulp", "rectangle"])
def test_direction_matrix_pairs_match_rank_generations(a, b):
    """The cascade's direction family at level j + 1 takes the interaction
    pairs of generation j of the Lie rank check: both decide the square
    from the exact squares of the sides."""
    g = RectGeometry(a, b)
    sys = GalerkinSystem(g, 0.2, SpectralField(g, {}), K3, K1)
    _, generations = full_rank_check(g, K3, K1)
    assert len(generations) == 3
    for gen in generations[1:]:
        labels, _ = _direction_matrix(sys, gen["generation"] + 1)
        assert [[list(m), list(n)] for kind, (m, n), _ in labels
                if kind == "delta"] == gen["pairs"]


def schedule_case(level, seed=0):
    """The criterion-11 system, fully actuated, with the direction family of
    one level and random signed masses on the cascade's three cycles."""
    sys = GalerkinSystem(G, 0.2, SpectralField(G, {}), K3, K3)
    labels, cols = _direction_matrix(sys, level)
    masses = 0.01 * np.random.default_rng(seed).normal(size=(3, len(labels)))
    cycle = 0.5 / 3
    xi = 3 * float(np.max(np.sum(np.abs(masses), axis=1))) / cycle
    return sys, labels, cols, masses, xi, cycle


def shifted_endpoint(case, p, h, tol):
    """End state of the schedule replay with flattened mass p moved by h."""
    sys, labels, cols, masses, xi, cycle = case
    m = masses.ravel().copy()
    m[p] += h
    return _schedule_endpoint(sys, labels, cols, m.reshape(masses.shape), xi,
                              SpectralField(G, {}), tol)


@pytest.mark.parametrize("level", [3, 2])
def test_schedule_jacobian_matches_central_differences(level):
    case = schedule_case(level)
    sys, labels, cols, masses, xi, cycle = case
    assert np.any(masses < 0) and np.any(masses > 0)
    tol, h = 1e-11, 1e-5
    jac = _schedule_jacobian(sys, labels, cols, masses, xi,
                             SpectralField(G, {}), tol)
    nd = len(labels)
    assert jac.shape == (sys.dim, masses.size)
    # the first and last direction of every cycle and one in between
    for p in (0, nd // 2, nd - 1, nd, 2 * nd - 1, 2 * nd + nd // 3,
              3 * nd - 1):
        fd = (shifted_endpoint(case, p, h, tol)
              - shifted_endpoint(case, p, -h, tol)) / (2 * h)
        assert np.max(np.abs(jac[:, p] - fd)) <= 1e-6 * np.max(np.abs(fd))


def test_schedule_jacobian_floored_mass_is_one_sided():
    # a zero mass is no interval; its derivative is that of a zero-width
    # interval of sign +, which a forward difference opens
    case = schedule_case(2, seed=1)
    sys, labels, cols, masses, xi, cycle = case
    nd = len(labels)
    masses[1, 2] = 0.0       # between two intervals of cycle 1
    masses[1, nd - 1] = 0.0  # first in cycle 1, which runs in reverse
    tol, h = 1e-11, 1e-5
    jac = _schedule_jacobian(sys, labels, cols, masses, xi,
                             SpectralField(G, {}), tol)
    base = shifted_endpoint(case, 0, 0.0, tol)
    for p in (nd + 2, 2 * nd - 1):
        fd = (shifted_endpoint(case, p, h, tol) - base) / h
        assert np.max(np.abs(jac[:, p] - fd)) <= 1e-4 * np.max(np.abs(fd))


def test_schedule_jacobian_rejects_overfull_cycle():
    sys, labels, cols, masses, xi, cycle = schedule_case(2)
    with pytest.raises(ValueError, match="overfull"):
        _build_schedule(labels, cols, masses, xi / 4)
    with pytest.raises(ValueError, match="overfull"):
        _schedule_jacobian(sys, labels, cols, masses, xi / 4,
                           SpectralField(G, {}), 1e-8)


def test_solve_schedule_replays_only_for_residuals(monkeypatch):
    # the cascade workload's inputs: the Gauss-Newton Jacobian comes from
    # one tangent run, so schedules are replayed only to check residuals
    # and trial steps (a finite-difference Jacobian made 93 replays)
    calls = []

    def counted(*args):
        calls.append(1)
        return _schedule_endpoint(*args)
    monkeypatch.setattr(control, "_schedule_endpoint", counted)
    tgt = SpectralField(G, {(1, 1): 0.05, (2, 2): 0.02, (1, 4): 0.01})
    out = cascade_to_K1(cascade_sys(), tgt, 0.05)
    assert out["M"] == 2
    assert out["verdict"] == "pass"
    assert 1 <= len(calls) <= 5


def test_cascade_covers_level_m_with_one_tangent_run(monkeypatch):
    # the level-M covering makes the one integrate_tangent run and the one
    # endpoint inversion of a covering (the first schedule starts from its
    # impulse); every other tangent run is a Gauss-Newton Jacobian
    tangents, jacobians, inversions = [], [], []

    def counted(calls, f):
        def run(*args, **kwargs):
            calls.append(1)
            return f(*args, **kwargs)
        return run
    monkeypatch.setattr(control, "integrate_tangent",
                        counted(tangents, control.integrate_tangent))
    monkeypatch.setattr(control, "_schedule_jacobian",
                        counted(jacobians, control._schedule_jacobian))
    monkeypatch.setattr(control, "invert_endpoint",
                        counted(inversions, control.invert_endpoint))
    tgt = SpectralField(G, {(1, 1): 0.05, (2, 2): 0.02, (1, 4): 0.01})
    out = cascade_to_K1(cascade_sys(), tgt, 0.05)
    assert out["M"] == 2
    assert len(jacobians) >= 1
    assert len(tangents) == len(jacobians) + 1
    assert len(inversions) == 1


def test_cascade_final_control_replays_to_the_reported_distance():
    # each final_control entry is the control that its piece was replayed
    # under, so plain integrate runs of them in turn from u0 end where the
    # cascade did; a replay of whole intervals, each piece's control joined
    # into one, missed the distance by 3.2e-9
    sys = cascade_sys()
    tgt = SpectralField(G, {(1, 1): 0.05, (2, 2): 0.02, (1, 4): 0.01})
    tol = 1e-8
    out = cascade_to_K1(sys, tgt, 0.05, tol=tol)
    assert out["M"] == 2
    y = SpectralField(G, {})
    for t_lo, t_hi, v in out["final_control"]:
        y = sys.to_field(integrate(sys, y, v, t_hi - t_lo, tol / 10).states[-1])
    assert abs(h_dist(sys, sys.to_vector(y), sys.to_vector(tgt))
               - out["achieved_distance"]) <= 1e-12


# ---------------------------------------------------------------------------
# Endpoint inversion


def linear_map(g, c, sizes):
    """F(P) = P diag(g) + c on the rows still iterating, recording the stack
    size of every call."""
    def F(P):
        sizes.append(len(P))
        return P * g + c
    return F


def test_invert_endpoint_exact_gain_two_calls():
    # the exact Jacobian diag(g) with a wrong F0 (0, not F(0) = c): the
    # start misses by c, and one chord step lands every row
    rng = np.random.default_rng(0)
    g = np.array([0.5, 2.0, -1.5])
    c = rng.normal(size=3)
    targets = rng.normal(size=(4, 3))
    sizes = []
    p, res, calls = invert_endpoint(linear_map(g, c, sizes), targets,
                                    np.zeros(3), np.linalg.inv(np.diag(g)),
                                    1e-12)
    assert calls.tolist() == [2, 2, 2, 2]
    assert sizes == [4, 4]
    assert np.all(res < 1e-12)
    np.testing.assert_allclose(p, (targets - c) / g, rtol=1e-14)


def test_invert_endpoint_jacobian_gain_two_calls():
    # on an affine map the chord start from the true F(0) and DF(0) lands,
    # so the first call certifies every row; from a wrong F0 the first
    # chord step lands and the second call certifies them
    rng = np.random.default_rng(1)
    A = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
    c = rng.normal(size=3)
    targets = rng.normal(size=(4, 3))
    want = np.linalg.solve(A, (targets - c).T).T
    for F0, n in ((c, 1), (np.zeros(3), 2)):
        sizes = []

        def F(P):
            sizes.append(len(P))
            return P @ A.T + c
        p, res, calls = invert_endpoint(F, targets, F0, np.linalg.inv(A),
                                        1e-12)
        assert calls.tolist() == [n] * 4
        assert sizes == [4] * n
        assert np.all(res < 1e-12)
        np.testing.assert_allclose(p, want, rtol=1e-12)


def test_invert_endpoint_rows_stop_on_their_own():
    # the identity as a wrong Jacobian of F(p) = p / 2: the start p = target
    # leaves half the target, and the residual halves with every call
    g = np.full(2, 0.5)
    targets = np.array([[1e-3, 0.0], [1.0, 0.0], [0.0, 0.0]])
    sizes = []
    p, res, calls = invert_endpoint(linear_map(g, 0.0, sizes), targets,
                                    np.zeros(2), np.eye(2), 1e-6)
    # residual r0 / 2^k after k calls; the zero target needs one
    want = [math.ceil(math.log2(r0 / 1e-6)) for r0 in (1e-3, 1.0)] + [1]
    assert calls.tolist() == want
    assert want[0] < want[1]
    assert sizes[0] == 3 and sizes[-1] == 1 and len(sizes) == max(want)
    assert np.all(res < 1e-6)


def test_invert_endpoint_returns_unconverged_row(monkeypatch):
    # on F(p) = -p with the identity as Jacobian the iteration p <- 2 p + t
    # diverges from the start p = t unless the target is zero
    monkeypatch.setattr(control, "INVERT_MAX_ITER", 12)
    targets = np.array([[0.0], [1.0]])
    p, res, calls = invert_endpoint(lambda P: -P, targets, np.zeros(1),
                                    np.eye(1), 1e-8)
    assert calls.tolist() == [1, 12]
    assert res[0] == 0.0
    assert res[1] == 2.0 ** 12
    # the residual belongs to the returned impulse
    assert res[1] == abs(1.0 + p[1, 0])


def indexed_invert_endpoint(F, targets, F0, DF, tol, max_iter):
    """The inversion loop with every stack read through an index array
    (so copied), also when every row is still active."""
    inverse = np.linalg.inv(DF).T
    p = (targets - F0) @ inverse
    residuals = np.zeros(len(p))
    calls = np.zeros(len(p), dtype=int)
    active = np.arange(len(p))
    while len(active):
        r = targets[active] - F(p[active])
        res = np.sum(np.abs(r), axis=1)
        residuals[active] = res
        calls[active] += 1
        going = (res >= tol) & (calls[active] < max_iter)
        active = active[going]
        p[active] += r[going] @ inverse
    return p, residuals, calls


@pytest.mark.parametrize("jacobian", [True, False])
def test_invert_endpoint_matches_indexed_loop_bitwise(jacobian):
    rng = np.random.default_rng(2)
    A = np.eye(3) + 0.2 * rng.normal(size=(3, 3))
    # DF(0) = A, or the identity as a deliberately wrong Jacobian
    DF = A if jacobian else np.eye(3)
    # rows of growing size take more chord steps on the quadratic part
    targets = rng.normal(size=(6, 3)) * np.logspace(-4, -0.5, 6)[:, None]
    F0 = np.zeros(3)
    targets_in, DF_in = targets.copy(), DF.copy()
    results = []

    def F(P):
        out = P @ A.T + 0.3 * P ** 2
        results.append((out, out.copy()))
        return out
    got = invert_endpoint(F, targets, F0, np.linalg.inv(DF), 1e-12)
    want = indexed_invert_endpoint(lambda P: P @ A.T + 0.3 * P ** 2,
                                   targets, F0, DF, 1e-12,
                                   control.INVERT_MAX_ITER)
    assert len(set(want[2].tolist())) >= 3 and min(want[2]) >= 2
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    assert targets.tobytes() == targets_in.tobytes()
    assert DF.tobytes() == DF_in.tobytes() and not np.any(F0)
    assert all(out.tobytes() == kept.tobytes() for out, kept in results)
