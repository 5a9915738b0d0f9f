import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galns.spectral import (RectGeometry, SpectralField, eval_components,
                            gauss_legendre_grid, kbar, legendre_rule)


def velocity(u):
    """The velocity of u at points that broadcast together, by the
    evaluator the quadrature oracle runs."""
    return lambda x1, x2: eval_components(u, *np.broadcast_arrays(x1, x2))[0]


def quad_dot(u_eval, v_eval, geom, npts=40):
    X1, X2, W = gauss_legendre_grid(geom, npts)
    u1, u2 = u_eval(X1, X2)
    v1, v2 = v_eval(X1, X2)
    return float(np.sum(W * (u1 * v1 + u2 * v2)))


@pytest.mark.parametrize("a, b", [(math.inf, 1.0), (1e-320, 1.0),
                                  (1.0, 1e300)])
def test_geometry_rejects_sides_without_finite_nonzero_squares(a, b):
    # kbar divides by the squares: 1e-320 squared is 0, 1e300 squared
    # overflows
    with pytest.raises(ValueError, match="side lengths must"):
        RectGeometry(a, b)


def test_geometry_accepts_sides_with_normal_squares():
    g = RectGeometry(1e-150, 1e150)
    assert math.isfinite(kbar((1, 1), g))


def test_kbar_square_symmetric():
    assert kbar((1, 1), RectGeometry(math.pi, math.pi)) == pytest.approx(-2.0, abs=1e-14)


def test_kbar_unit_square():
    assert kbar((2, 3), RectGeometry(1, 1)) == pytest.approx(-13 * math.pi**2, rel=1e-15)


def test_kbar_rational_geometry():
    # oracle: exact rational evaluation of the defining formula
    assert kbar((1, 2), RectGeometry(2, 3)) == pytest.approx(-25 * math.pi**2 / 36, rel=1e-15)


def test_eval_velocity_boundary_normal_vanishes():
    g = RectGeometry(1.5, 2.5)
    u = SpectralField(g, {(1, 1): 1.0})
    x2 = np.linspace(0, g.b, 7)
    v1, v2 = velocity(u)(np.zeros_like(x2), x2)
    assert np.allclose(v1, 0.0)
    assert np.allclose(v2, (math.pi / g.a) * np.sin(math.pi * x2 / g.b))


def test_eval_velocity_empty_field():
    u = SpectralField(RectGeometry(1, 1), {})
    v1, v2 = velocity(u)(0.3, 0.7)
    assert v1 == 0.0 and v2 == 0.0


def test_eval_velocity_two_mode_sum():
    g = RectGeometry(2.0, 1.0)
    u = SpectralField(g, {(1, 2): 1.0, (2, 1): -0.5})
    x = (g.a / 2, g.b / 2)
    v1, v2 = velocity(u)(*x)
    # oracle: independent per-term evaluation
    p1 = velocity(SpectralField(g, {(1, 2): 1.0}))(*x)
    p2 = velocity(SpectralField(g, {(2, 1): -0.5}))(*x)
    assert v1 == pytest.approx(p1[0] + p2[0], abs=1e-14)
    assert v2 == pytest.approx(p1[1] + p2[1], abs=1e-14)


def test_eval_velocity_broadcasts_mixed_shapes():
    g = RectGeometry(1.0, 2.0)
    u = SpectralField(g, {(1, 2): 1.0, (3, 1): -0.4})
    x1 = np.linspace(0.1, 0.9, 3)[:, None]
    x2 = np.linspace(0.2, 1.8, 4)[None, :]
    v1, v2 = velocity(u)(x1, x2)
    assert v1.shape == v2.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            p1, p2 = velocity(u)(x1[i, 0], x2[0, j])
            assert v1[i, j] == p1 and v2[i, j] == p2


def test_norm_H_matches_quadrature():
    g = RectGeometry(math.pi, math.pi)
    u = SpectralField(g, {(1, 1): 1.0})
    # oracle: 2D quadrature of the L2 integral
    q = quad_dot(velocity(u), velocity(u), g)
    assert u.norm("H") == pytest.approx(math.sqrt(q), rel=1e-12)
    assert u.norm("H") == pytest.approx(math.pi / math.sqrt(2), rel=1e-12)


def test_norm_empty():
    u = SpectralField(RectGeometry(1, 2), {})
    for kind in ("H", "V", "DA"):
        assert u.norm(kind) == 0.0


@given(st.dictionaries(
    st.tuples(st.integers(1, 4), st.integers(1, 4)),
    st.floats(-2, 2, allow_nan=False), min_size=1, max_size=6))
def test_norm_ratio_bounded_below(coeffs):
    g = RectGeometry(1.0, 2.0)
    u = SpectralField(g, coeffs)
    # a zero or subnormal norm has too few bits to resolve the ratio; the
    # ratio is taken before squaring because |u|^2 underflows once |u| is
    # below ~1.5e-154
    if u.norm("H") < sys.float_info.min:
        return
    lam_min = min(-kbar(k, g) for k, v in u.coeffs.items() if v != 0)
    assert (u.norm("V") / u.norm("H")) ** 2 >= lam_min * (1 - 1e-12)


@pytest.mark.parametrize("scale", [6.034322169630261e-158, 1e-300, 1e200])
def test_norm_keeps_precision_at_extreme_scales(scale):
    # u_k^2 underflows (overflows) at these scales; the norm must not
    g = RectGeometry(1.0, 2.0)
    coeffs = {(1, 3): 1.0, (2, 1): -0.5}
    for kind in ("V'", "H", "V", "DA"):
        ref = SpectralField(g, coeffs).norm(kind)
        tiny = SpectralField(g, {k: scale * v for k, v in coeffs.items()})
        assert tiny.norm(kind) == pytest.approx(scale * ref, rel=1e-14, abs=0)


def h_pairing(f, u):
    g = f.geom
    return g.a * g.b / 4 * sum(-kbar(k, g) * f[k] * u[k] for k in f.coeffs)


@given(a=st.floats(0.25, 4.0), b=st.floats(0.25, 4.0),
       coeffs=st.dictionaries(st.tuples(st.integers(1, 5), st.integers(1, 5)),
                              st.integers(-200, 200).map(lambda i: i / 100),
                              min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_dual_norm_is_the_sup_of_the_h_pairing(a, b, coeffs, seed):
    # |f|_V' = max_u <f, u>_H / |u|_V, attained at u_k = f_k / (-kbar_k)
    g = RectGeometry(a, b)
    f = SpectralField(g, coeffs)
    if f.norm("V'") == 0:
        return
    best = SpectralField(g, {k: v / -kbar(k, g) for k, v in f.coeffs.items()})
    assert h_pairing(f, best) / best.norm("V") == \
        pytest.approx(f.norm("V'"), rel=1e-12)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        u = SpectralField(g, {k: rng.normal() for k in f.coeffs})
        assert h_pairing(f, u) <= f.norm("V'") * u.norm("V") * (1 + 1e-12)


def test_basis_orthogonality_quadrature():
    g = RectGeometry(1.0, 2.0)
    modes = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]
    for m in modes:
        for n in modes:
            em = SpectralField(g, {m: 1.0})
            en = SpectralField(g, {n: 1.0})
            q = quad_dot(velocity(em), velocity(en), g)
            if m == n:
                assert q == pytest.approx(-kbar(m, g) * g.a * g.b / 4, rel=1e-12)
            else:
                assert abs(q) < 1e-10


def test_cached_legendre_rule_is_exact_and_read_only():
    geom = RectGeometry(1.0, 2.0)
    for npts in (1, 8, 8, 33):
        x, w = legendre_rule.__wrapped__(npts)
        cx, cw = legendre_rule(npts)
        assert cx.tobytes() == x.tobytes() and cw.tobytes() == w.tobytes()
        X1, X2, W = gauss_legendre_grid(geom, npts)
        assert X1[:, 0].tobytes() == (geom.a * (x + 1) / 2).tobytes()
        assert X2[0].tobytes() == (geom.b * (x + 1) / 2).tobytes()
        assert W.tobytes() == np.outer(geom.a / 2 * w, geom.b / 2 * w).tobytes()
        with pytest.raises(ValueError):
            cx[0] = 0.0
        with pytest.raises(ValueError):
            cw *= 2
    assert legendre_rule(8)[0] is legendre_rule(8)[0]


def test_legendre_rule_integrates_monomials_to_roundoff():
    # the rule is exact on x^k, k <= 2n - 1; numpy's leggauss, an
    # eigenvalue solve, misses this bound by up to tenfold at 64 nodes
    for npts in range(1, 65):
        x, w = legendre_rule(npts)
        lx, lw = np.polynomial.legendre.leggauss(npts)
        assert np.max(np.abs(x - lx)) <= 1e-13
        assert np.max(np.abs(w - lw)) <= 1e-13
        for k in range(2 * npts):
            terms = w * x ** k
            exact = 0.0 if k % 2 else 2 / (k + 1)
            assert abs(np.sum(terms) - exact) <= 5e-14 * np.sum(np.abs(terms))
