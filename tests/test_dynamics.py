import csv
import json
import math
import os
import pickle
import subprocess
import sys as _sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galns import dynamics
from galns.dynamics import (POLY_THETA, GalerkinSystem, IntegratorStats,
                            PiecewiseConstant, PiecewisePolynomial,
                            Trajectory, adaptive_lawson, integrate,
                            run_manifest)
from galns.nonlinearity import (float_params, interaction_coeffs,
                                interaction_kernel, mode_array,
                                mode_positions)
from galns.spectral import RectGeometry, SpectralField, kbar, mode_set_K

G = RectGeometry(1.0, 2.0)
K1 = tuple((i, j) for i in range(1, 4) for j in range(1, 4) if (i, j) != (3, 3))
K3 = tuple((i, j) for i in range(1, 6) for j in range(1, 6) if (i, j) != (5, 5))


def make_sys(nu=1.0, forcing=None, mode_set=K3, controlled=K1):
    f = forcing if forcing is not None else SpectralField(G, {})
    return GalerkinSystem(G, nu, f, mode_set, controlled)


def random_field(rng, modes, scale=1.0):
    return SpectralField(G, {k: scale * rng.normal() for k in modes})


def rhs(sys, y, v):
    """The right-hand side of the Galerkin ODE at the state y (mode_set
    order) and the control value v."""
    return sys.quadratic_vec(y) + sys.lam * y + sys.forcing_vec \
        + sys.control_vec(v)


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


@pytest.mark.parametrize("nu", [0.0, -0.5])
def test_system_rejects_nonpositive_viscosity(nu):
    with pytest.raises(ValueError, match="viscosity"):
        make_sys(nu=nu)


# ---------------------------------------------------------------------------
# The quadratic term on both paths, over random geometries and levels


def random_system(a, b, level):
    geom = RectGeometry(a, b)
    return GalerkinSystem(geom, 1.0, SpectralField(geom, {}),
                          mode_set_K(level), ())


def forced_transform(sys):
    """sys, sent down the transform path whatever its mode set."""
    # a zero budget sends any mode set to the transform
    with mock.patch.object(dynamics, "BLOCK_BYTES", 0):
        assert sys.quadratic_path == "transform"
    return sys


def both_paths(a, b, level):
    """The level's system on the path its mode set selects (pair up to K^3,
    transform from K^4 on), and one with the transform forced."""
    return (random_system(a, b, level),
            forced_transform(random_system(a, b, level)))


def scalar_sums(sys, y):
    """Q(y) summed term by term from the scalar interaction_coeffs, the sum
    of the terms' magnitudes on each mode, and the largest such sum over
    every target, in mode_set or not."""
    idx = sys.index
    expect = np.zeros(sys.dim)
    size = np.zeros(sys.dim)
    whole = {}
    for p, m in enumerate(sys.mode_set):
        for n in sys.mode_set[p + 1:]:
            for k, c in interaction_coeffs(m, n, sys.geom).items():
                term = c * y[idx[m]] * y[idx[n]]
                whole[k] = whole.get(k, 0.0) + abs(term)
                if k in idx:
                    expect[idx[k]] += term
                    size[idx[k]] += abs(term)
    return expect, size, max(whole.values(), default=0.0)


operator_cases = dict(a=st.floats(0.25, 4.0), b=st.floats(0.25, 4.0),
                      level=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))


@settings(max_examples=20, deadline=None)
@given(**operator_cases)
def test_quadratic_vec_energy_skew_symmetry(a, b, level, seed):
    y = np.random.default_rng(seed).normal(size=len(mode_set_K(level)))
    for sys in both_paths(a, b, level):
        w = (a * b / 4) * np.array([-kbar(k, sys.geom) for k in sys.mode_set])
        q = sys.quadratic_vec(y)
        scale = math.sqrt(np.sum(w * q**2) * np.sum(w * y**2))
        assert abs(np.sum(w * q * y)) <= 1e-12 * scale


@settings(max_examples=20, deadline=None)
@given(**operator_cases)
def test_quadratic_vec_stack_matches_columns(a, b, level, seed):
    ys = np.random.default_rng(seed).normal(size=(len(mode_set_K(level)), 5))
    for sys in both_paths(a, b, level):
        out = sys.quadratic_vec(ys)
        assert out.shape == ys.shape
        for c in range(ys.shape[1]):
            col = sys.quadratic_vec(ys[:, c])
            np.testing.assert_allclose(out[:, c], col, rtol=0,
                                       atol=1e-13 * np.max(np.abs(col)))


@settings(max_examples=20, deadline=None)
@given(**operator_cases)
def test_quadratic_vec_matches_entrywise_oracle(a, b, level, seed):
    y = np.random.default_rng(seed).normal(size=len(mode_set_K(level)))
    expect, size, _ = scalar_sums(random_system(a, b, level), y)
    for sys in both_paths(a, b, level):
        got = sys.quadratic_vec(y)
        assert np.all(np.abs(got - expect) <= 1e-12 * np.max(size))


# K^3 keeps the dense pair operator, K^5 (8 dim pairs > BLOCK_BYTES) takes
# the transform; each is also checked with the transform forced
@pytest.mark.parametrize("level, path", [(3, "pair"), (5, "transform")])
@settings(max_examples=20, deadline=None)
@given(a=st.floats(0.25, 4.0), b=st.floats(0.25, 4.0),
       seed=st.integers(0, 2**32 - 1))
def test_bilinear_vec_polarizes_quadratic_vec(level, path, a, b, seed):
    rng = np.random.default_rng(seed)
    y, z = rng.normal(size=(2, len(mode_set_K(level))))
    Z = rng.normal(size=(len(y), 4))
    selected, forced = both_paths(a, b, level)
    assert selected.quadratic_path == path
    for sys in (selected, forced):
        want = sys.quadratic_vec(y + z) - sys.quadratic_vec(y) \
            - sys.quadratic_vec(z)
        got = sys.bilinear_vec(y, z)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        stack = sys.bilinear_vec(y, Z)
        assert stack.shape == Z.shape
        for c in range(Z.shape[1]):
            col = sys.bilinear_vec(y, Z[:, c])
            np.testing.assert_allclose(stack[:, c], col, rtol=0,
                                       atol=1e-13 * np.max(np.abs(col)))


# an arbitrary mode set, not of the form K^N: some targets fall outside
arbitrary_modes = st.sets(st.tuples(st.integers(1, 6), st.integers(1, 6)),
                          min_size=2, max_size=24)


@settings(max_examples=25, deadline=None)
@given(a=st.floats(0.25, 4.0), b=st.floats(0.25, 4.0),
       modes=st.one_of(st.integers(1, 3).map(mode_set_K), arbitrary_modes),
       seed=st.integers(0, 2**32 - 1))
def test_jacobian_bilinear_vec_matches_pair_form(a, b, modes, seed):
    # on the pair path bilinear_vec is one product with the Jacobian tensor
    # _D; it agrees with the pair form of the bilinear term, and _D is built
    # by bilinear_vec alone
    geom = RectGeometry(a, b)
    sys = GalerkinSystem(geom, 1.0, SpectralField(geom, {}), modes, ())
    assert sys.quadratic_path == "pair"
    rng = np.random.default_rng(seed)
    y, z = rng.normal(size=(2, sys.dim))
    Z = rng.normal(size=(sys.dim, 5))
    q = sys.quadratic_vec(y)
    sys.quadratic_vec(Z)
    assert "_D" not in vars(sys)
    pi, pj, Q = sys._pi, sys._pj, sys._Q
    for d in (z, Z):
        y_ = y.reshape((-1,) + (1,) * (d.ndim - 1))
        want = Q @ (y_[pi] * d[pj] + d[pi] * y_[pj])
        # the sum of the terms' magnitudes, the scale of their roundoff
        size = np.abs(Q) @ (np.abs(y_[pi] * d[pj]) + np.abs(d[pi] * y_[pj]))
        got = sys.bilinear_vec(y, d)
        assert got.shape == d.shape
        assert np.all(np.abs(got - want) <= 1e-13 * np.max(size, initial=0.0))
    assert "_D" in vars(sys)
    size = np.abs(Q) @ np.abs(y[pi] * y[pj])
    assert np.all(np.abs(sys.bilinear_vec(y, y) - 2 * q)
                  <= 1e-13 * np.max(size, initial=0.0))


def test_transform_path_builds_no_jacobian():
    sys = random_system(1.0, 2.0, 5)
    assert sys.quadratic_path == "transform"
    y = np.random.default_rng(0).normal(size=sys.dim)
    sys.bilinear_vec(y, np.ones((sys.dim, 3)))
    assert "_D" not in vars(sys)


@settings(max_examples=25, deadline=None)
@given(a=st.floats(0.25, 4.0), b=st.floats(0.25, 4.0), modes=arbitrary_modes)
def test_operator_entries_equal_scalar_coefficients(a, b, modes):
    geom = RectGeometry(a, b)
    sys = GalerkinSystem(geom, 1.0, SpectralField(geom, {}), modes, ())
    idx = sys.index
    pi, pj, cols = [], [], []
    for p, m in enumerate(sys.mode_set):
        for n in sys.mode_set[p + 1:]:
            col = np.zeros(sys.dim)
            for k, c in interaction_coeffs(m, n, geom).items():
                if k in idx:
                    col[idx[k]] = c
            if np.any(col != 0.0):
                pi.append(idx[m])
                pj.append(idx[n])
                cols.append(col)
    assert sys._pi.tolist() == pi and sys._pj.tolist() == pj
    assert np.array_equal(sys._Q, np.array(cols).reshape(-1, sys.dim).T)


def scattered_quadratic_table(sys):
    """(_pi, _pj, _Q) as a hand scatter of the kernel values builds them: a
    pair's entries go to the rows of its targets in mode_set, in the column
    of its rank among the pairs with a nonzero entry there."""
    modes = mode_array(sys.mode_set)
    ii, jj = np.triu_indices(sys.dim, 1)
    targets, c = interaction_kernel(modes[:, ii], modes[:, jj],
                                    *float_params(sys.geom))
    t = mode_positions(modes, targets)
    hit = (t >= 0) & (c != 0.0)
    pair = np.broadcast_to(np.arange(len(ii)), hit.shape)[hit]
    has = np.zeros(len(ii), dtype=bool)
    has[pair] = True
    col = (np.cumsum(has) - 1)[pair]
    Q = np.zeros((sys.dim, int(has.sum())))
    Q[t[hit], col] = c[hit]
    return ii[has], jj[has], Q


@pytest.mark.parametrize("a, b", [(1.0, 2.0), (1.0, 1.0), (math.pi, 1.0),
                                  (0.7, 1.3)])
@pytest.mark.parametrize("level", [1, 2, 3])
def test_pair_table_matches_hand_scatter(a, b, level):
    # the bytes and the C order of the operator: quadratic_vec's and _D's
    # products give the same bits only on the same layout
    geom = RectGeometry(a, b)
    sys = GalerkinSystem(geom, 1.0, SpectralField(geom, {}),
                         mode_set_K(level), ())
    for got, want in zip((sys._pi, sys._pj, sys._Q),
                         scattered_quadratic_table(sys)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


@settings(max_examples=25, deadline=None)
@given(a=st.floats(0.25, 4.0), b=st.floats(0.25, 4.0), modes=arbitrary_modes,
       seed=st.integers(0, 2**32 - 1))
def test_transform_matches_scalar_coefficient_sums(a, b, modes, seed):
    geom = RectGeometry(a, b)
    sys = forced_transform(GalerkinSystem(geom, 1.0, SpectralField(geom, {}),
                                          modes, ()))
    y = np.random.default_rng(seed).normal(size=sys.dim)
    expect, _, whole = scalar_sums(sys, y)
    # the transform forms every target before it keeps those in mode_set,
    # so its rounding follows the whole term, not only the part on
    # mode_set; where the whole term vanishes (a == b and every pair on one
    # eigenvalue shell) it follows the size of u (x) u, (sum |y_k| |k|)^2
    # with |k|^2 = -kbar
    velocity = np.sum(np.abs(y) * np.sqrt(-sys.lam / sys.nu))
    got = sys.quadratic_vec(y)
    assert np.all(np.abs(got - expect) <= 1e-12 * max(whole, velocity**2))


def test_operator_is_built_on_first_use():
    sys = random_system(1.0, 2.0, 4)
    operator = {"_pi", "_pj", "_Q", "_transform"}
    assert not operator & set(vars(sys))
    # K^4 (dim 35) is the first level whose dense operator over all pairs
    # exceeds BLOCK_BYTES
    sys.quadratic_vec(np.ones(sys.dim))
    assert isinstance(vars(sys)["_transform"], dynamics.SineTransform)
    # the choice builds no pair table
    assert operator & set(vars(sys)) == {"_transform"}


def test_unbuilt_system_pickles_and_evaluates():
    sys = make_sys()
    copy = pickle.loads(pickle.dumps(sys))
    assert "_Q" not in vars(copy)
    y = np.random.default_rng(5).normal(size=sys.dim)
    assert copy.quadratic_vec(y).tobytes() == sys.quadratic_vec(y).tobytes()
    assert copy == sys


def test_rhs_zero_state():
    sys = make_sys()
    out = rhs(sys, np.zeros(sys.dim), None)
    assert not np.any(out)


def test_rhs_single_mode_pure_decay():
    sys = make_sys(nu=0.7)
    out = rhs(sys, sys.to_vector(SpectralField(G, {(2, 1): 1.5})), None)
    assert np.flatnonzero(out).tolist() == [sys.index[(2, 1)]]
    assert out[sys.index[(2, 1)]] == pytest.approx(0.7 * kbar((2, 1), G) * 1.5,
                                                   rel=1e-14)


def test_rhs_matches_quadratic_plus_linear():
    rng = np.random.default_rng(0)
    sys = make_sys(nu=0.3, forcing=SpectralField(G, {(1, 1): 0.2}))
    u = random_field(rng, K1)
    y = sys.to_vector(u)
    v = np.zeros(len(sys.controlled_set))
    v[sys.controlled_set.index((1, 2))] = 0.5
    out = rhs(sys, y, v)
    # the quadratic term summed term by term from the scalar coefficients
    q, _, _ = scalar_sums(sys, y)
    for k, i in sys.index.items():
        expect = q[i] + 0.3 * kbar(k, G) * u[k] \
            + (0.2 if k == (1, 1) else 0.0) + (0.5 if k == (1, 2) else 0.0)
        assert out[i] == pytest.approx(expect, rel=1e-12, abs=1e-14)


def test_rhs_control_dimension_error():
    sys = make_sys()
    with pytest.raises(ValueError):
        rhs(sys, np.zeros(sys.dim), np.zeros(3))


def test_rhs_matches_finite_difference_of_flow():
    # oracle: Richardson extrapolation of (S_h(u0) - u0)/h as h -> 0
    rng = np.random.default_rng(1)
    sys = make_sys(nu=0.5)
    u0 = random_field(rng, K1, scale=0.4)
    y0 = sys.to_vector(u0)
    want = rhs(sys, y0, None)

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
    assert sys.to_field(tr.states[-1]).norm("H") <= bound


def test_h_norm_nonincreasing_unforced():
    rng = np.random.default_rng(3)
    sys = make_sys(nu=1.0)
    for _ in range(5):
        u0 = random_field(rng, K1)
        tr = integrate(sys, u0, None, 0.3, tol=1e-10)
        hn = tr.h_norms()
        assert np.all(np.diff(hn) <= 1e-8)


def test_h_norms_in_blocks_match_one_product():
    # blocks of 64 rows, a lone last row joined to the block before it
    rng = np.random.default_rng(5)
    sys = make_sys()
    w = dynamics.h_weights(sys)
    for n in (1, 2, 63, 64, 65, 128, 129, 200):
        states = rng.normal(size=(n, sys.dim)) * 10.0 ** rng.uniform(-3, 3)
        tr = Trajectory(sys, np.arange(n, dtype=float), states,
                        IntegratorStats())
        assert np.array_equal(tr.h_norms(), np.sqrt(states ** 2 @ w)), n


# the H norms of 4,097 random K^20 states, as the hex of their bytes
H_NORMS_K20 = """
import numpy as np
from galns.dynamics import GalerkinSystem, IntegratorStats, Trajectory
from galns.spectral import RectGeometry, SpectralField, mode_set_K
g = RectGeometry(1.0, 2.0)
s = GalerkinSystem(g, 1.0, SpectralField(g, {}), mode_set_K(20), ())
states = np.random.default_rng(3).normal(size=(4097, s.dim))
print(Trajectory(s, np.arange(4097.0), states, IntegratorStats())
      .h_norms().tobytes().hex())
"""


def test_h_norms_independent_of_blas_threads():
    # one states**2 @ w product over these rows differs in the last bit
    # between one and two OpenBLAS threads; the 64-row blocks do not
    src = os.path.dirname(os.path.dirname(os.path.abspath(dynamics.__file__)))
    norms = [subprocess.run([_sys.executable, "-c", H_NORMS_K20],
                            capture_output=True, text=True, check=True,
                            env=dict(os.environ, PYTHONPATH=src,
                                     OPENBLAS_NUM_THREADS=n)).stdout
             for n in ("1", "2")]
    assert norms[0] and norms[0] == norms[1]


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
            fv = sys.to_field(sys.forcing_vec + sys.control_vec(vals[i]))
            fv2.append(fv.norm("V'") ** 2)
        for i, s in enumerate(tr.times):
            acc = 0.0
            for seg in range(3):
                lo, hi = bps[seg], bps[seg + 1]
                acc += fv2[seg] * max(0.0, min(s, hi) - lo) if s > lo else 0.0
            assert hn[i] ** 2 <= u0.norm("H") ** 2 + acc / nu + 1e-8


def test_energy_estimate_single_forced_mode():
    # One mode, u0 = 0, constant forcing f: u(t) = f (1 - e^{-x}) / (-nu kbar)
    # with x = -nu kbar t, so |u|_H^2 / ((t/nu)(ab/4) f^2) = (1 - e^{-x})^2 / x
    # <= 0.41.  The bound with (ab/4) f^2 / (-kbar) in place of the V' norm
    # is -kbar = 12.3 times smaller here and fails near x = 1.3.
    nu, f = 1.0, 3.0
    F = SpectralField(G, {(1, 1): f})
    sys = GalerkinSystem(G, nu, F, [(1, 1)], [])
    tr = integrate(sys, SpectralField(G, {}), None, 0.2, tol=1e-10)
    h2 = tr.h_norms() ** 2
    assert np.all(h2 <= tr.times / nu * F.norm("V'") ** 2 + 1e-12)
    too_small = G.a * G.b / 4 * f**2 / -kbar((1, 1), G)
    assert np.any(h2 > tr.times / nu * too_small)


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


def test_piecewise_constant_reads_an_array_of_times():
    # one row per time, each the row of the one-time read: at breakpoints
    # the interval starting there, outside the span the end rows
    ctl = PiecewiseConstant([0.0, 0.1, 0.3, 0.5],
                            np.arange(12.0).reshape(3, 4))
    ts = np.array([-1.0, 0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7])
    rows = ctl.value(ts)
    assert rows.shape == (len(ts), 4)
    assert np.array_equal(rows, [ctl.value(t) for t in ts.tolist()])
    assert np.array_equal(rows[:, 0], [0.0, 0.0, 0.0, 4.0, 4.0, 8.0, 8.0, 8.0])


@pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf])
def test_integrate_rejects_non_finite_horizon(T):
    with pytest.raises(ValueError, match="horizon"):
        integrate(make_sys(), SpectralField(G, {(1, 1): 1.0}), None, T)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_are_rejected(bad):
    # each names the input, rather than running until the step underflows
    with pytest.raises(ValueError, match="forcing must be finite"):
        make_sys(forcing=SpectralField(G, {(1, 2): bad}))
    with pytest.raises(ValueError, match="u0 must be finite"):
        integrate(make_sys(), SpectralField(G, {(1, 1): bad}), None, 0.1)
    values = np.zeros((2, len(K1)))
    values[1, 3] = bad
    with pytest.raises(ValueError, match="control values must be finite"):
        PiecewiseConstant([0.0, 0.1, 0.3], values)
    with pytest.raises(ValueError, match="increasing"):
        PiecewiseConstant([0.0, bad, 0.3], np.zeros((2, len(K1))))
    coefficients = np.zeros((1, 8, 1))
    coefficients[0, 5, 0] = bad
    with pytest.raises(ValueError, match="control coefficients must be finite"):
        PiecewisePolynomial([0.0, 0.3], coefficients)
    with pytest.raises(ValueError, match="increasing"):
        PiecewisePolynomial([0.0, bad], np.zeros((1, 8, 1)))


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


def test_integrate_accepts_control_ending_within_roundoff_of_horizon():
    """A control made on [0.3, 0.7] and replayed in its own time ends at
    0.7 - 0.3, an ulp short of 0.4; that covers the horizon 0.4, as it
    would in adaptive_lawson, and the run matches the control that ends at
    0.4 itself.  A control 1e-12 short is still refused."""
    sys = make_sys()
    u0 = SpectralField(G, {(1, 1): 1.0})
    T = 0.4
    assert 0.7 - 0.3 < T
    values = np.linspace(-1.0, 1.0, len(K1))[None, :]
    coefficients = np.zeros((1, 8, len(K1)))
    coefficients[0, 0] = values[0]
    for make, args in ((PiecewiseConstant, values),
                       (PiecewisePolynomial, coefficients)):
        exact = integrate(sys, u0, make([0.0, T], args), T)
        short = integrate(sys, u0, make([0.0, 0.7 - 0.3], args), T)
        assert short.times[-1] == T
        np.testing.assert_allclose(short.states[-1], exact.states[-1],
                                   rtol=0, atol=1e-14)
        with pytest.raises(ValueError, match="does not cover"):
            integrate(sys, u0, make([0.0, T - 1e-12], args), T)


def test_smooth_control_sine_forcing():
    # single controlled mode with sinusoidal input at tiny amplitude:
    # compare against the exact linear response
    sys = GalerkinSystem(G, 1.0, SpectralField(G, {}), K1, ((1, 1),))
    lam = kbar((1, 1), G)
    w = 5.0
    eps = 1e-8
    # the sine as one degree-7 polynomial per 0.02 long interval
    knots = np.linspace(0.0, 1.0, 51)
    nodes = knots[:-1, None] + 0.02 * POLY_THETA
    ctl = PiecewisePolynomial.fit(knots, eps * np.sin(w * nodes)[..., None],
                                  max_step=0.02)
    tr = integrate(sys, SpectralField(G, {}), ctl, 1.0, tol=1e-14)
    T = 1.0
    exact = eps * (w * math.exp(lam * T) - w * math.cos(w * T)
                   - lam * math.sin(w * T)) / (lam**2 + w**2)
    got = tr.states[-1][sys.index[(1, 1)]]
    assert got == pytest.approx(exact, rel=1e-6, abs=1e-18)


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


def test_write_csv_matches_csv_module(tmp_path):
    # the row-wise writer against the csv.writer one it replaced, on values
    # whose repr has a sign, an exponent or seventeen digits
    sys = make_sys(mode_set=K1)
    rng = np.random.default_rng(2)
    states = rng.normal(size=(6, sys.dim)) * 10.0 ** rng.integers(-5, 5, (6, 1))
    states[0, :5] = [-0.0, 1e-300, 1e16, 123456789012345678.0, -2.5e-7]
    times = np.array([0.0, 1e-300, 0.1, 1 / 3, 1e16, 123456789012345678.0])
    tr = Trajectory(sys, times, states, IntegratorStats())
    tr.write_csv(tmp_path / "new.csv")
    with open(tmp_path / "old.csv", "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t"] + ["%d.%d" % k for k in sys.mode_set])
        for t, row in zip(times, states):
            wr.writerow([repr(float(t))] + [repr(float(x)) for x in row])
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    assert b"-0.0," in new and b"1e-300," in new and b"1.2345678901234568e+17" in new


# ---------------------------------------------------------------------------
# The Lawson Dormand-Prince integrator, its statistics and dense output


def test_lawson_dp5_fixed_step_order():
    # tol = inf accepts every trial step, so max_step fixes the step
    sys = GalerkinSystem(G, 0.05, SpectralField(G, {(1, 2): 0.5}),
                         mode_set_K(2), ())
    y0 = sys.to_vector(random_field(np.random.default_rng(0), K1, 0.5))

    def nonlin(z, t):
        return sys.quadratic_vec(z) + sys.forcing_vec

    def end_state(n):
        run = adaptive_lawson(sys.lam, nonlin, y0, 0.0, 1.0, np.inf,
                              max_step=1.0 / n)
        assert len(run.times) == n + 1
        return run.states[-1]

    ref = end_state(1024)
    errs = [np.max(np.abs(end_state(n) - ref)) for n in (8, 16, 32)]
    orders = [math.log2(e / e_half) for e, e_half in zip(errs, errs[1:])]
    assert min(orders) >= 4.5


def test_integrator_statistics():
    sys = make_sys(nu=1.0)
    u0 = SpectralField(G, {(1, 1): 0.5, (2, 1): -0.3, (1, 2): 0.2})
    tr = integrate(sys, u0, None, 1.0, tol=1e-8)
    st = tr.stats
    assert st.accepted_steps == len(tr.times) - 1
    # one call at the start, then six per trial step: the seventh stage of
    # an accepted step is the first stage of the next
    assert st.rhs_calls == 1 + 6 * (st.accepted_steps + st.rejected_steps)
    assert st.rhs_calls <= 7 * st.accepted_steps
    steps = np.diff(tr.times)
    assert st.smallest_step == pytest.approx(np.min(steps), rel=1e-12)
    assert st.largest_step == pytest.approx(np.max(steps), rel=1e-12)
    # every control breakpoint starts a segment with one fresh call
    bps = np.array([0.0, 0.3, 0.7, 1.0])
    ctl = PiecewiseConstant(bps, np.zeros((3, len(K1))))
    st = integrate(sys, u0, ctl, 1.0, tol=1e-8).stats
    assert st.rhs_calls == 3 + 6 * (st.accepted_steps + st.rejected_steps)


def test_adaptive_lawson_result_starts_with_times():
    sys = make_sys()
    y0 = sys.to_vector(SpectralField(G, {(1, 1): 0.5}))
    run = adaptive_lawson(sys.lam, lambda z, t: sys.quadratic_vec(z), y0,
                          0.2, 0.5, 1e-8)
    assert run[0] is run.times and run.times[0] == 0.2
    assert len(run[0]) - 1 == run.stats.accepted_steps
    assert len(run.states) == len(run.times)


@pytest.mark.parametrize("span", [4e-5, 3e-4, 3e-3])
def test_short_late_span_takes_no_roundoff_step(span):
    # eight steps of span/8 from t0 ~ 0.2 can sum to an ulp of t1 short of
    # t1; that shortfall must not become a ninth step of ~1e-17
    sys = make_sys(mode_set=K1)
    y0 = sys.to_vector(SpectralField(G, {(1, 1): 0.5}))
    for t0 in np.linspace(0.17, 0.34, 18):
        run = adaptive_lawson(sys.lam, lambda z, t: sys.quadratic_vec(z),
                              y0, t0, t0 + span, np.inf, max_step=span / 8)
        assert run.stats.smallest_step >= span / 16
        assert run.stats.accepted_steps == 8
        assert run.times[-1] == pytest.approx(t0 + span, rel=1e-15)


@pytest.mark.parametrize("T", [1.0, 0.1, 0.01])
def test_non_finite_trial_step_shrinks_the_step(T):
    # a large state overflows the first trial steps; they are retried with
    # smaller steps, without aborting the run or printing overflow warnings
    sys = make_sys(nu=1.0)
    u0 = SpectralField(G, {(1, 1): 1e3, (2, 2): -1e3})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        tr = integrate(sys, u0, None, T, tol=1e-8)
    assert tr.times[-1] == pytest.approx(T, rel=1e-12)
    assert np.all(np.isfinite(tr.states))
    assert tr.stats.rejected_steps >= 1
    hn = tr.h_norms()
    assert hn[-1] < hn[0]


def lawson_run(tol, T=0.5, seed=0, nu=1.0, mode_set=K3, scale=0.5):
    """The run of u0 = scale N(0,1) on K^1, with its stages; by default
    on K^3 with nu = 1."""
    sys = make_sys(nu=nu, mode_set=mode_set)
    u0 = random_field(np.random.default_rng(seed), K1, scale=scale)
    run = adaptive_lawson(sys.lam,
                          lambda z, t: sys.quadratic_vec(z) + sys.forcing_vec,
                          sys.to_vector(u0), 0.0, T, tol, dense=True)
    return sys, u0, run


# stiff: the fast K^3 modes decay within one step (|lam| h up to 58), where
# a cubic Hermite interpolant of the step ends and their derivatives is
# 3.7e3 tol off at the midpoints; non-stiff: the steps resolve every mode
# (|lam| h <= 0.12)
@pytest.mark.parametrize("tol, T, seed, nu, mode_set, scale, stiff", [
    (1e-8, 0.5, 0, 1.0, K3, 0.5, True),
    (1e-6, 1.0, 1, 0.01, tuple(sorted(mode_set_K(2))), 0.2, False)],
    ids=["stiff_K3", "nonstiff_K2"])
def test_lawson_dense_output_at_step_midpoints(tol, T, seed, nu, mode_set,
                                               scale, stiff):
    # the reference is a tol = 1e-13 run that has the midpoints as knots
    sys, u0, run = lawson_run(tol, T, seed, nu, mode_set, scale)
    times = np.array(run.times)
    h_lam = np.max(np.diff(times)) * np.max(np.abs(sys.lam))
    assert h_lam > 10 if stiff else h_lam < 1
    mids = (times[1:] + times[:-1]) / 2
    knots = np.concatenate([[0.0], mids, [T]])
    ref = integrate(sys, u0, PiecewiseConstant(
        knots, np.zeros((len(knots) - 1, len(K1)))), T, 1e-13)
    dense = run.dense(sys.lam, np.arange(len(mids)), np.full(len(mids), 0.5))
    for t, y in zip(mids, dense):
        assert np.max(np.abs(y - ref.states[np.argmin(np.abs(ref.times - t))])) \
            <= 10 * tol


def test_lawson_dense_output_reproduces_step_ends():
    sys, _, run = lawson_run(1e-8)
    n = len(run.times) - 1
    states = np.array(run.states)
    steps = np.arange(n)
    assert np.array_equal(run.dense(sys.lam, steps, np.zeros(n)), states[:-1])
    assert np.max(np.abs(run.dense(sys.lam, steps, np.ones(n)) - states[1:])) \
        <= 1e-14 * np.max(np.abs(states))
    # a stack of states: each column's dense output is its own run's
    Y = np.stack([states[0], 2 * states[0]], axis=1)
    stack = adaptive_lawson(sys.lam[:, None],
                            lambda z, t: sys.quadratic_vec(z), Y, 0.0, 0.1,
                            1e-8, dense=True)
    m = len(stack.times) - 1
    got = stack.dense(sys.lam[:, None], np.arange(m), np.full(m, 0.3))
    for c in range(2):
        col = stack._replace(stages=stack.stages[..., c],
                             states=[y[:, c] for y in stack.states])
        assert np.array_equal(got[..., c],
                              col.dense(sys.lam, np.arange(m), np.full(m, 0.3)))


def test_integrate_keeps_no_stages():
    # dense output is kept only where a caller reads it: at level 20 the
    # stages of a simulate run would be 381 x 8 x 483 floats, 10 MB
    sys = make_sys(nu=1.0)
    u0 = SpectralField(G, {(1, 1): 0.5, (2, 1): -0.3})
    runs = []

    def spy(*args, **kwargs):
        runs.append(adaptive_lawson(*args, **kwargs))
        return runs[-1]

    ctl = PiecewiseConstant([0.0, 0.1, 0.3], np.zeros((2, len(K1))))
    with mock.patch.object(dynamics, "adaptive_lawson", spy):
        tr = integrate(sys, u0, ctl, 0.3, 1e-8)
    assert len(runs) == 2 and all(r.stages is None for r in runs)
    held = {k for k, v in vars(tr).items() if isinstance(v, np.ndarray)}
    assert held == {"times", "states"}


def test_piecewise_polynomial_fits_and_describes_exactly():
    # a degree-7 polynomial per interval reproduces one of degree 7
    knots = np.array([0.0, 0.3, 0.35, 1.0])
    coef = np.array([[1.0, -2.0], [0.5, 0.0], [0.0, 3.0], [0.25, 0.0],
                     [0.0, 0.0], [0.0, -1.0], [0.0, 0.0], [2.0, 0.5]])

    def poly(t):
        return np.polynomial.polynomial.polyval(t, coef).T

    def dpoly(t):
        return np.polynomial.polynomial.polyval(
            t, np.polynomial.polynomial.polyder(coef)).T

    nodes = knots[:-1, None] + np.diff(knots)[:, None] * POLY_THETA
    ctl = PiecewisePolynomial.fit(knots, poly(nodes.ravel()).reshape(
        nodes.shape + (2,)), max_step=0.05)
    rng = np.random.default_rng(4)
    for t in rng.uniform(0.0, 1.0, 50):
        assert np.max(np.abs(ctl.value(t) - poly(t))) <= 1e-12
    # outside the knots it holds the end values
    for out, end in ((-1.0, 0.0), (2.0, 1.0)):
        assert np.max(np.abs(ctl.value(out) - poly(end))) <= 1e-12
    # a column of times gives one row per time, as one time at a time does
    ts = rng.uniform(-0.2, 1.2, 200)
    rows = ctl.value(ts[:, None])
    assert rows.shape == (200, 2)
    assert np.max(np.abs(rows - [ctl.value(t) for t in ts])) <= 1e-15
    assert np.array_equal(ctl.value(ts), rows)
    # the derivative, which holds the end derivatives outside the knots
    slope = ctl.derivative()
    assert np.max(np.abs(slope.value(ts[:, None])
                         - dpoly(np.clip(ts, 0.0, 1.0)))) <= 1e-11
    for out, end in ((-1.0, 0.0), (2.0, 1.0)):
        assert np.max(np.abs(slope.value(out) - dpoly(end))) <= 1e-11
    desc = json.loads(json.dumps(ctl.describe()))
    assert desc.pop("kind") == "piecewise_polynomial"
    again = PiecewisePolynomial(**desc)
    assert again.max_step == 0.05
    for t in rng.uniform(-0.1, 1.1, 100):
        assert np.array_equal(again.value(t), ctl.value(t))
    with pytest.raises(ValueError, match="increasing"):
        PiecewisePolynomial([0.0, 0.0, 1.0], np.zeros((2, 8, 1)))
    with pytest.raises(ValueError, match="coefficient"):
        PiecewisePolynomial([0.0, 1.0], np.zeros((1, 6, 1)))


def test_piecewise_polynomial_value_is_one_function_of_time():
    # every form of one time gives the float's value bit for bit, and a
    # column gives it row by row
    rng = np.random.default_rng(8)
    knots = np.array([0.0, 1.0, 1.5, 3.0, 4.0])
    ctl = PiecewisePolynomial(knots, rng.normal(size=(4, 8, 3)))
    ts = np.concatenate([rng.uniform(-0.5, 4.5, 60), knots, [0.0, 2.0]])
    one = np.array([ctl.value(float(t)) for t in ts])
    assert one.shape == (len(ts), 3)
    for t, row in zip(ts, one):
        for form in (np.float64(t), np.array(t)):
            got = ctl.value(form)
            assert got.shape == (3,) and np.array_equal(got, row)
    assert np.array_equal(ctl.value(ts[:, None]), one)
    for n in (-1, 0, 1, 2, 3, 4, 5):
        got = ctl.value(n)
        assert got.shape == (3,) and np.array_equal(got, ctl.value(float(n)))


def test_integrate_polynomial_control_adds_its_control_vec():
    # the replay right-hand side adds the value at the controlled modes;
    # the run equals, bit for bit, the one that adds the whole control_vec
    sys = make_sys()
    rng = np.random.default_rng(9)
    knots = np.linspace(0.0, 0.2, 6)
    ctl = PiecewisePolynomial(knots, rng.normal(size=(5, 8, len(K1))))
    u0 = random_field(rng, K3, 0.3)
    tr = integrate(sys, u0, ctl, 0.2, tol=1e-9)
    run = adaptive_lawson(
        sys.lam, lambda z, t: (sys.quadratic_vec(z) + sys.forcing_vec
                               + sys.control_vec(ctl.value(t))),
        sys.to_vector(u0), 0.0, 0.2, 1e-9, h_min=1e-13 * 0.2)
    assert tr.times.tobytes() == np.array(run.times).tobytes()
    assert tr.states.tobytes() == np.array(run.states).tobytes()
    narrow = PiecewisePolynomial(knots, np.zeros((5, 8, 1)))
    with pytest.raises(ValueError, match="control dimension"):
        integrate(sys, u0, narrow, 0.2)


def test_integrate_polynomial_control_must_cover_horizon():
    sys = make_sys(mode_set=K1, controlled=((1, 1),))
    ctl = PiecewisePolynomial([0.0, 0.2], np.zeros((1, 8, 1)))
    with pytest.raises(ValueError, match="does not cover"):
        integrate(sys, SpectralField(G, {}), ctl, 0.3)
    # a constant polynomial is the constant control
    const = np.zeros((1, 8, 1))
    const[0, 0, 0] = 0.7
    tr = integrate(sys, SpectralField(G, {}),
                   PiecewisePolynomial([0.0, 0.3], const), 0.3, 1e-10)
    ref = integrate(sys, SpectralField(G, {}),
                    PiecewiseConstant([0.0, 0.3], [[0.7]]), 0.3, 1e-10)
    assert np.max(np.abs(tr.states[-1] - ref.states[-1])) <= 1e-14
