import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galns import nonlinearity
from galns.nonlinearity import (LABELS, bilinear, interaction_coeffs,
                                interaction_coeffs_exact, interaction_kernel,
                                mode_array, oracle_sweep, quadratic,
                                quadrature_B, target_mode, trilinear_b, vee,
                                wedge)
from galns.spectral import RectGeometry, SpectralField, kbar


G12 = RectGeometry(1.0, 2.0)


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


def test_quadratic_single_mode_vanishes():
    for m in [(1, 1), (2, 3), (3, 1)]:
        u = SpectralField(G12, {m: 1.3})
        assert quadratic(u).coeffs == {}


def test_quadratic_pair_is_delta():
    u = SpectralField(G12, {(1, 1): 1.0, (1, 3): 1.0})
    out = quadratic(u)
    expect = interaction_coeffs((1, 1), (1, 3), G12)
    assert set(out.coeffs) == set(expect)
    for k in expect:
        assert out[k] == pytest.approx(expect[k], rel=1e-14)


def test_quadratic_matches_quadrature_on_random_field():
    rng = np.random.default_rng(3)
    g = RectGeometry(2.0, 1.0)
    K1 = [(i, j) for i in range(1, 4) for j in range(1, 4) if (i, j) != (3, 3)]
    u = SpectralField(g, {k: rng.normal() for k in K1})
    q = quadratic(u)
    K3 = [(i, j) for i in range(1, 6) for j in range(1, 6) if (i, j) != (5, 5)]
    wk_cache = {}
    for k in K3:
        wk = SpectralField(g, {k: 1.0})
        ref = -trilinear_b(u, u, wk) / (-kbar(k, g) * g.a * g.b / 4)
        assert q[k] == pytest.approx(ref, rel=1e-8, abs=1e-10)


def test_bilinear_diagonal_zero():
    for m in [(1, 1), (2, 2)]:
        em = SpectralField(G12, {m: 1.0})
        assert bilinear(em, em).coeffs == {}


def test_bilinear_pair_is_delta():
    em = SpectralField(G12, {(1, 1): 1.0})
    en = SpectralField(G12, {(1, 3): 1.0})
    out = bilinear(em, en)
    expect = interaction_coeffs((1, 1), (1, 3), G12)
    for k in expect:
        assert out[k] == pytest.approx(expect[k], rel=1e-14)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_polarization_identity(seed):
    rng = np.random.default_rng(seed)
    g = G12
    K2 = [(i, j) for i in range(1, 5) for j in range(1, 5) if (i, j) != (4, 4)]
    u = SpectralField(g, {k: rng.normal() for k in K2})
    w = SpectralField(g, {k: rng.normal() for k in K2})
    lhs = bilinear(u, w)
    rhs = quadratic(u.plus(w)).plus(quadratic(u).scaled(-1)).plus(quadratic(w).scaled(-1))
    for k in set(lhs.coeffs) | set(rhs.coeffs):
        assert lhs[k] == pytest.approx(rhs[k], abs=1e-12 * max(1, abs(rhs[k])))


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
    for _ in range(10):
        u = SpectralField(G12, {k: rng.normal() for k in modes})
        q = quadratic(u)
        h_inner = sum(-kbar(k, G12) * G12.a * G12.b / 4 * q[k] * u[k]
                      for k in set(q.coeffs) | set(u.coeffs))
        assert abs(h_inner) < 1e-10 * max(1.0, u.norm("H") ** 3)


def test_vanishing_law():
    # C++ = 0 iff wedge = 0 iff C-- = 0, under m < n and (m1 = n1 or n2 >= m2)
    modes = [(i, j) for i in range(1, 5) for j in range(1, 5)]
    for i, m in enumerate(modes):
        for n in modes[i + 1:]:
            if not (m[0] == n[0] or n[1] >= m[1]):
                continue
            cs = interaction_coeffs_exact(m, n, Fraction(1), Fraction(4))
            tpp, tmm = target_mode(m, n, (1, 1)), target_mode(m, n, (-1, -1))
            w = wedge(m, n)
            # absent targets can make one of the two undefined; only compare present ones
            if tpp in cs:
                assert (cs[tpp] == 0) == (w == 0)
            if tmm in cs:
                assert (cs[tmm] == 0) == (w == 0)


def test_exact_matches_float():
    ex = interaction_coeffs_exact((1, 2), (2, 1), Fraction(1), Fraction(4))
    fl = interaction_coeffs((1, 2), (2, 1), G12)
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
        exact = interaction_coeffs_exact(m, n, a2, b2)
        assert exact == reference_scaled(m, n, a2, b2)
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
    g = RectGeometry(a, b)
    modes = [(i, j) for i in range(1, level + 3) for j in range(1, level + 3)
             if (i, j) != (level + 2, level + 2)]
    rng = np.random.default_rng(seed)
    u = SpectralField(g, {k: rng.normal() for k in modes})
    w = SpectralField(g, {k: rng.normal() for k in modes})
    qs = [quadratic(u.plus(w)), quadratic(u), quadratic(w)]
    lhs = bilinear(u, w)
    rhs = qs[0].plus(qs[1].scaled(-1)).plus(qs[2].scaled(-1))
    size = max(abs(c) for q in qs for c in q.coeffs.values())
    for k in set(lhs.coeffs) | set(rhs.coeffs):
        assert abs(lhs[k] - rhs[k]) <= 1e-12 * size
