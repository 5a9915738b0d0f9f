import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galns import nonlinearity
from galns.dynamics import GalerkinSystem, h_weights
from galns.nonlinearity import (LABELS, interaction_coeffs,
                                interaction_kernel, interaction_rows,
                                mode_array, oracle_sweep, quadrature_B,
                                target_mode, trilinear_b, vee, wedge)
from galns.spectral import RectGeometry, SpectralField, kbar, mode_set_K
from test_dynamics import both_paths


G12 = RectGeometry(1.0, 2.0)


def system(geom, modes):
    """The uncontrolled, unforced Galerkin system of geom on modes."""
    return GalerkinSystem(geom, 1.0, SpectralField(geom, {}), modes, ())


def unit(sys, k):
    return sys.to_vector(SpectralField(sys.geom, {k: 1.0}))


def test_wedge_vee_basics():
    assert wedge((1, 2), (2, 1)) == -3  # (1,2) wedge (2p,2p-1) = -1-2p at p=1
    assert wedge((1, 1), (2, 2)) == 0
    assert vee((1, 1), (2, 3)) == 5
    assert wedge((1, 1), (2, 3)) == 1


def test_parallel_indices_kill_wedge_coeffs():
    for g in (G12, RectGeometry(1, 1), RectGeometry(2, 3)):
        cs = interaction_coeffs((1, 1), (2, 2), g)
        assert (3, 3) not in cs or cs[(3, 3)] == 0.0  # C++ target
        assert (1, 1) not in cs or cs[(1, 1)] == 0.0  # C-- target


def test_pair_order_enforced():
    with pytest.raises(ValueError):
        interaction_coeffs((2, 1), (1, 2), G12)


def test_printed_delta_11_13():
    a, b = G12.a, G12.b
    cs = interaction_coeffs((1, 1), (1, 3), G12)
    assert set(cs) == {(2, 2), (2, 4)}
    assert cs[(2, 2)] == pytest.approx(2 * a * math.pi**2 / (b * (b**2 + a**2)), rel=1e-14)
    assert cs[(2, 4)] == pytest.approx(-a * math.pi**2 / (b * (b**2 + 4 * a**2)), rel=1e-14)


def test_coeffs_against_quadrature_12_22():
    g = RectGeometry(1.0, 1.0)
    a, b = g.a, g.b
    cs = interaction_coeffs((1, 2), (2, 2), g)
    # printed entries of delta_{(1,2),(2,2)}
    assert cs[(1, 4)] == pytest.approx(-9 * b * math.pi**2 / (2 * a * (16 * a**2 + b**2)), rel=1e-12)
    assert cs[(3, 4)] == pytest.approx(3 * b * math.pi**2 / (2 * a * (16 * a**2 + 9 * b**2)), rel=1e-12)
    em = SpectralField(g, {(1, 2): 1.0})
    en = SpectralField(g, {(2, 2): 1.0})
    for k, c in cs.items():
        assert quadrature_B(em, en, k) == pytest.approx(c, rel=1e-9)


def test_oracle_sweep_evaluates_no_field_on_a_grid():
    geom = RectGeometry(2.0, 1.0)
    counting = mock.Mock(wraps=nonlinearity.eval_components)
    with mock.patch.object(nonlinearity, "eval_components", counting):
        records = oracle_sweep(3, geom)
    assert counting.call_count == 0
    # the stacked evaluation gives the standalone oracle's values exactly
    for r in records:
        q = quadrature_B(SpectralField(geom, {r["m"]: 1.0}),
                         SpectralField(geom, {r["n"]: 1.0}), r["target"])
        assert r["quadrature"] == q


# The quadratic term is GalerkinSystem.quadratic_vec and its bilinear form
# bilinear_vec.  K^1 and K^2 take the pair path.


def test_quadratic_single_mode_vanishes():
    sys = system(G12, mode_set_K(1))
    for m in [(1, 1), (2, 3), (3, 1)]:
        assert not np.any(sys.quadratic_vec(1.3 * unit(sys, m)))


def test_quadratic_pair_is_delta():
    sys = system(G12, mode_set_K(2))
    out = sys.quadratic_vec(unit(sys, (1, 1)) + unit(sys, (1, 3)))
    expect = interaction_coeffs((1, 1), (1, 3), G12)
    assert {sys.mode_set[i] for i in np.flatnonzero(out)} == set(expect)
    for k in expect:
        assert out[sys.index[k]] == pytest.approx(expect[k], rel=1e-14)


def test_quadratic_matches_quadrature_on_random_field():
    # K^3 keeps the dense pair operator, K^5 takes the transform; each is
    # also checked with the transform forced
    rng = np.random.default_rng(3)
    g = RectGeometry(2.0, 1.0)
    for level, path in [(3, "pair"), (5, "transform")]:
        modes = mode_set_K(level)
        u = SpectralField(g, {k: rng.normal() for k in modes})
        ref = [-trilinear_b(u, u, SpectralField(g, {k: 1.0}))
               / (-kbar(k, g) * g.a * g.b / 4) for k in sorted(modes)]
        selected, forced = both_paths(g.a, g.b, level)
        assert selected.quadratic_path == path
        for sys in (selected, forced):
            q = sys.quadratic_vec(sys.to_vector(u))
            assert q == pytest.approx(ref, rel=1e-8, abs=1e-10)


def test_bilinear_diagonal_zero():
    sys = system(G12, mode_set_K(1))
    for m in [(1, 1), (2, 2)]:
        em = unit(sys, m)
        assert not np.any(sys.bilinear_vec(em, em))


def test_bilinear_pair_is_delta():
    sys = system(G12, mode_set_K(2))
    out = sys.bilinear_vec(unit(sys, (1, 1)), unit(sys, (1, 3)))
    expect = interaction_coeffs((1, 1), (1, 3), G12)
    for k in expect:
        assert out[sys.index[k]] == pytest.approx(expect[k], rel=1e-14)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_polarization_identity(seed):
    rng = np.random.default_rng(seed)
    sys = system(G12, mode_set_K(2))
    u, w = rng.normal(size=(2, sys.dim))
    lhs = sys.bilinear_vec(u, w)
    rhs = sys.quadratic_vec(u + w) - sys.quadratic_vec(u) \
        - sys.quadratic_vec(w)
    for left, right in zip(lhs, rhs):
        assert left == pytest.approx(right, abs=1e-12 * max(1, abs(right)))


def test_quadrature_diagonal_zero():
    em = SpectralField(G12, {(2, 1): 1.0})
    assert abs(quadrature_B(em, em, (1, 2))) < 1e-12
    assert abs(quadrature_B(em, em, (4, 2))) < 1e-12


def test_skew_b_uvv_zero():
    rng = np.random.default_rng(11)
    modes = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)]
    for _ in range(5):
        u = SpectralField(G12, {k: rng.normal() for k in modes})
        v = SpectralField(G12, {k: rng.normal() for k in modes})
        assert abs(trilinear_b(u, v, v)) < 1e-10


def test_quadrature_printed_value():
    em = SpectralField(G12, {(1, 1): 1.0})
    en = SpectralField(G12, {(1, 3): 1.0})
    a, b = G12.a, G12.b
    assert quadrature_B(em, en, (2, 2)) == pytest.approx(
        2 * a * math.pi**2 / (b * (b**2 + a**2)), rel=1e-9)


@pytest.mark.parametrize("a, b", [(1.0, 2.0), (2.0, 1.0), (math.pi, math.pi)])
def test_quadrature_B_matches_tensor_trilinear_b(a, b):
    # the separable kernel, summed over coefficient pairs, against the
    # plain 2-D tensor evaluation of b; an absolute floor of 1e-12 covers
    # the targets whose coefficient vanishes ((6, 5) here, (4, 4) on the
    # square), where only round-off is left
    g = RectGeometry(a, b)
    rng = np.random.default_rng(17)
    K1 = [(i, j) for i in range(1, 4) for j in range(1, 4) if (i, j) != (3, 3)]
    u = SpectralField(g, {k: rng.normal() for k in K1})
    v = SpectralField(g, {k: rng.normal() for k in K1[::2]})
    for k in [(1, 1), (1, 4), (2, 3), (3, 5), (4, 4), (5, 2), (6, 5)]:
        wk = SpectralField(g, {k: 1.0})
        nrm2 = -kbar(k, g) * g.a * g.b / 4
        ref = -(trilinear_b(u, v, wk) + trilinear_b(v, u, wk)) / nrm2
        assert quadrature_B(u, v, k) == pytest.approx(ref, rel=1e-12, abs=1e-12)
        ref = -trilinear_b(u, u, wk) / nrm2
        assert quadrature_B(u, u, k) == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_energy_conservation_of_quadratic():
    rng = np.random.default_rng(5)
    modes = [(i, j) for i in range(1, 4) for j in range(1, 4)]
    sys = system(G12, modes)
    for _ in range(10):
        u = SpectralField(G12, {k: rng.normal() for k in modes})
        y = sys.to_vector(u)
        h_inner = np.sum(h_weights(sys) * sys.quadratic_vec(y) * y)
        assert abs(h_inner) < 1e-10 * max(1.0, u.norm("H") ** 3)


def test_vanishing_law():
    # C++ = 0 iff wedge = 0 iff C-- = 0, under m < n and (m1 = n1 or n2 >= m2)
    modes = [(i, j) for i in range(1, 5) for j in range(1, 5)]
    for i, m in enumerate(modes):
        for n in modes[i + 1:]:
            if not (m[0] == n[0] or n[1] >= m[1]):
                continue
            tpp, tmm = target_mode(m, n, (1, 1)), target_mode(m, n, (-1, -1))
            # a target with a zero component is absent: compare present ones
            present = [t for t in (tpp, tmm) if min(t) > 0]
            row = interaction_rows([(m, n)], present, Fraction(1), Fraction(4))
            w = wedge(m, n)
            for c in row[0].tolist():
                assert (c == 0) == (w == 0)


def test_exact_matches_float():
    fl = interaction_coeffs((1, 2), (2, 1), G12)
    modes = mode_set_K(2)
    row = interaction_rows([((1, 2), (2, 1))], modes, Fraction(1), Fraction(4))
    ex = {k: v for k, v in zip(modes, row[0].tolist()) if v != 0}
    scale = math.pi**2 / (4 * G12.a * G12.b)
    assert set(ex) == set(fl)
    for k in ex:
        assert scale * float(ex[k]) == pytest.approx(fl[k], rel=1e-14)


# ---------------------------------------------------------------------------
# The array kernel against the one-pair formula it replaced


def reference_scaled(m, n, a2, b2):
    """The closed form one label at a time, as the pair loop computed it."""
    s1 = (n[0] > m[0]) - (n[0] < m[0])
    s2 = (n[1] > m[1]) - (n[1] < m[1])
    num = (n[0] ** 2 - m[0] ** 2) * b2 + (n[1] ** 2 - m[1] ** 2) * a2
    out = {}
    for label in LABELS:
        t = target_mode(m, n, label)
        if t[0] == 0 or t[1] == 0:
            continue
        ratio = num / (t[0] ** 2 * b2 + t[1] ** 2 * a2)
        if label == (1, 1):
            val = -wedge(m, n) * ratio
        elif label == (-1, -1):
            val = wedge(m, n) * ratio * s1 * s2
        elif label == (-1, 1):
            val = -vee(m, n) * ratio * s1
        else:
            val = vee(m, n) * ratio * s2
        out[t] = val
    return out


mode_pairs = st.lists(st.tuples(st.integers(1, 8), st.integers(1, 8)),
                      min_size=2, max_size=2, unique=True).map(sorted)


@settings(max_examples=50, deadline=None)
@given(a=st.floats(0.25, 4.0), b=st.floats(0.25, 4.0),
       pairs=st.lists(mode_pairs, min_size=1, max_size=30))
def test_float_coefficients_equal_the_pair_formula(a, b, pairs):
    geom = RectGeometry(a, b)
    scale = math.pi**2 / (4 * a * b)
    for m, n in pairs:
        ref = reference_scaled(m, n, a**2, b**2)
        got = interaction_coeffs(m, n, geom)
        assert set(got) == set(ref)
        assert all(got[k] == scale * ref[k] for k in ref)


@settings(max_examples=30, deadline=None)
@given(a2=st.fractions(Fraction(1, 16), 16, max_denominator=50),
       b2=st.fractions(Fraction(1, 16), 16, max_denominator=50),
       pairs=st.lists(mode_pairs, min_size=1, max_size=20))
def test_exact_kernel_equals_exact_coefficients(a2, b2, pairs):
    targets, values = interaction_kernel(mode_array([m for m, _ in pairs]),
                                         mode_array([n for _, n in pairs]),
                                         a2, b2)
    for p, (m, n) in enumerate(pairs):
        exact = reference_scaled(m, n, a2, b2)
        row = interaction_rows([(m, n)], list(exact), a2, b2)[0].tolist()
        assert dict(zip(exact, row)) == exact
        got = {(int(t1), int(t2)): v for t1, t2, v
               in zip(targets[0, :, p], targets[1, :, p], values[:, p])
               if t1 and t2}
        assert got == exact
        assert all(isinstance(v, Fraction) for v in got.values())


@pytest.mark.parametrize("m, n", [((1, 2), (1, 2)), ((1, 3), (1, 2)),
                                  ((3, 1), (2, 5))])
def test_pair_order_enforced_in_kernel(m, n):
    with pytest.raises(ValueError):
        interaction_coeffs(m, n, G12)
    with pytest.raises(ValueError):
        interaction_kernel(mode_array([(1, 1), m]), mode_array([(2, 2), n]),
                           1.0, 4.0)


@settings(max_examples=15, deadline=None)
@given(a=st.floats(0.25, 4.0), b=st.floats(0.25, 4.0),
       level=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_polarization_random_geometry(a, b, level, seed):
    # K^1 to K^3 take the pair path, K^4 to K^6 the transform
    sys = system(RectGeometry(a, b), mode_set_K(level))
    rng = np.random.default_rng(seed)
    u, w = rng.normal(size=(2, sys.dim))
    qs = [sys.quadratic_vec(u + w), sys.quadratic_vec(u), sys.quadratic_vec(w)]
    lhs = sys.bilinear_vec(u, w)
    rhs = qs[0] - qs[1] - qs[2]
    size = max(np.max(np.abs(q)) for q in qs)
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * size)
