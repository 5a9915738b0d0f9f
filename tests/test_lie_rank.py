import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galns.dynamics import GalerkinSystem
from galns.lie_rank import full_rank_check, point_hash, rank_verdict
from galns.nonlinearity import interaction_coeffs, interaction_rows
from galns.saturation import RowEchelon, selection_S
from galns.spectral import RectGeometry, SpectralField, kbar, mode_set_K
from test_dynamics import rhs

G = RectGeometry(1.0, 2.0)


def make_sys(n, geom=G, nu=1.0):
    ms = tuple(sorted(mode_set_K(n)))
    return GalerkinSystem(geom, nu, SpectralField(geom, {}), ms, mode_set_K(1))


def rank_inputs(n, geom=G):
    """full_rank_check's inputs for K^n controlled from K^1."""
    return geom, mode_set_K(n), mode_set_K(1)


def random_field(rng, sys, scale=1.0):
    return SpectralField(sys.geom,
                         {k: scale * rng.normal() for k in sys.mode_set})


def unit(sys, i):
    e = np.zeros(sys.dim)
    e[sys.index[i]] = 1.0
    return e


def first_bracket(sys, y, i):
    """The derivative of the drift at the state y along e_i, affine in y:
    bilinear_vec(y, e_i) + lam_i e_i."""
    e_i = unit(sys, i)
    return sys.bilinear_vec(y, e_i) + sys.lam * e_i


def test_drift_is_uncontrolled_rhs():
    rng = np.random.default_rng(0)
    sys = make_sys(2)
    y = sys.to_vector(random_field(rng, sys))
    d = rhs(sys, y, None)
    assert np.array_equal(d, rhs(sys, y, np.zeros(len(sys.controlled_set))))
    q = sys.quadratic_vec(y)
    for k, i in sys.index.items():
        assert d[i] == pytest.approx(q[i] + sys.nu * kbar(k, G) * y[i],
                                     rel=1e-12, abs=1e-12)


def test_first_bracket_at_origin():
    sys = make_sys(2, nu=0.5)
    out = first_bracket(sys, np.zeros(sys.dim), (2, 1))
    assert np.flatnonzero(out).tolist() == [sys.index[(2, 1)]]
    assert out[sys.index[(2, 1)]] == pytest.approx(0.5 * kbar((2, 1), G),
                                                   rel=1e-14)


def test_first_bracket_printed_pair():
    sys = make_sys(2)
    out = first_bracket(sys, unit(sys, (1, 3)), (1, 1))
    expect = interaction_coeffs((1, 1), (1, 3), G)
    assert out[sys.index[(1, 1)]] == pytest.approx(kbar((1, 1), G), rel=1e-14)
    for k, c in expect.items():
        assert out[sys.index[k]] == pytest.approx(c, rel=1e-12)


def test_first_bracket_matches_finite_difference():
    # oracle: central differences of the drift rhs(sys, ., None) along e_i
    rng = np.random.default_rng(1)
    sys = make_sys(2)
    y = sys.to_vector(random_field(rng, sys, scale=0.5))
    eps = 1e-6
    for i in [(1, 1), (2, 2), (3, 4)]:
        e_i = eps * unit(sys, i)
        fd = (rhs(sys, y + e_i, None) - rhs(sys, y - e_i, None)) / (2 * eps)
        br = first_bracket(sys, y, i)
        for b, f in zip(br, fd):
            assert b == pytest.approx(f, abs=2e-6 * max(1.0, abs(f)))


def test_gamma_equals_saturation_delta():
    # the second bracket direction of the pair m < n is bilinear_vec(e_m, e_n);
    # its exact entries are the pair's interaction_rows row
    sys = make_sys(3)
    scale = math.pi**2 / (4 * G.a * G.b)
    for m, n in selection_S(1) + selection_S(2):
        g = sys.bilinear_vec(unit(sys, m), unit(sys, n))
        d = interaction_rows([(m, n)], sys.mode_set, Fraction(1), Fraction(4))
        for gk, c in zip(g, d[0].tolist()):
            if c != 0:
                assert gk == pytest.approx(scale * float(c), rel=1e-12)


def test_rank_level1():
    rank, gens = full_rank_check(*rank_inputs(1))
    assert rank == 8
    assert gens[-1]["rank"] == 8


def test_rank_level2_rectangle():
    rank, gens = full_rank_check(*rank_inputs(2))
    assert rank == 15 == len(mode_set_K(2))


def test_float_geometry_path():
    g = RectGeometry(math.pi, math.pi)
    rank, _ = full_rank_check(*rank_inputs(2, geom=g))
    assert rank == 15  # square handled through the repair selections


def test_verdict_json():
    import json
    v = rank_verdict(*rank_inputs(2))
    assert v["N"] == 2 and v["kappa_N"] == 15 and v["rank"] == 15
    assert v["full_rank"] is True
    json.dumps(v)
    u = SpectralField(G, {(1, 1): 0.3})
    assert point_hash(u) == point_hash(SpectralField(G, {(1, 1): 0.3}))
    assert point_hash(u) != point_hash(SpectralField(G, {(1, 1): 0.4}))


def test_mode_set_shape_errors():
    with pytest.raises(ValueError, match="not of the form K"):
        full_rank_check(G, [(1, 1), (1, 2)], [(1, 1)])


def test_verdict_records_rank_path():
    """Every rank is exact: a side with no short decimal form (pi) is
    ranked at the exact binary value of its float, not by an SVD."""
    exact = rank_verdict(*rank_inputs(2))
    assert exact["exact"] is True and exact["full_rank"] is True
    g = RectGeometry(math.pi, 2.0)
    binary = rank_verdict(*rank_inputs(2, geom=g))
    assert binary["exact"] is True
    assert binary["rank"] == 15 and binary["full_rank"] is True


ONE_ULP_ABOVE_1 = float(np.nextafter(1.0, 2.0))


@pytest.mark.parametrize("a, b, level, kappa", [
    (math.pi, 1.0, 11, 168), (math.pi, 1.0, 12, 195),
    (1.0, ONE_ULP_ABOVE_1, 2, 15), (1.0, ONE_ULP_ABOVE_1, 3, 24),
    (1.0, ONE_ULP_ABOVE_1, 4, 35)],
    ids=["pi_11", "pi_12", "ulp_2", "ulp_3", "ulp_4"])
def test_float_sides_reach_full_rank(a, b, level, kappa):
    """Neither rectangle is square over the exact squares, and the plain
    selections reach full rank (the SVD read 165 and 192 on (pi, 1), and
    14, 22 and 33 one ulp from square)."""
    g = RectGeometry(a, b)
    rank, gens = full_rank_check(*rank_inputs(level, geom=g))
    assert rank == kappa == gens[-1]["rank"]
    assert gens[1]["pairs"] == [[list(m), list(n)] for m, n in selection_S(1)]


def _long_binary(x):
    """True when x has no short decimal form, so it is ranked at its
    exact binary value."""
    return Fraction(str(x)).denominator > 1 << 16


@settings(max_examples=25, deadline=None)
@given(a=st.floats(0.25, 4.0).filter(_long_binary),
       b=st.floats(0.25, 4.0).filter(_long_binary),
       level=st.integers(2, 6))
def test_float_sides_rank_exactly_at_binary_values(a, b, level):
    """Float sides with no short decimal form reach kappa_N, and the rank
    after each generation is the RowEchelon rank of that generation's
    interaction_rows at Fraction(a)**2 and Fraction(b)**2."""
    g, modes, controlled = rank_inputs(level, geom=RectGeometry(a, b))
    rank, gens = full_rank_check(g, modes, controlled)
    assert rank == len(modes)
    echelon = RowEchelon()
    assert gens[0]["rank"] == echelon.extend(
        [[int(mode == k) for mode in modes] for k in controlled])
    a2, b2 = Fraction(a) ** 2, Fraction(b) ** 2
    for gen in gens[1:]:
        pairs = [tuple(map(tuple, pair)) for pair in gen["pairs"]]
        assert pairs == selection_S(gen["generation"], square_mode=a == b)
        rows = interaction_rows(pairs, modes, a2, b2).tolist()
        assert gen["rank"] == echelon.extend(rows)


def test_decimal_side_ranks_exactly():
    """A side of 0.1 is read as 1/10, its shortest decimal, as galns
    saturate reads it: the exact Bareiss rank runs."""
    g = RectGeometry(0.1, 2.0)
    verdict = rank_verdict(*rank_inputs(2, geom=g))
    assert verdict["exact"] is True
    assert verdict["rank"] == 15 and verdict["full_rank"] is True
