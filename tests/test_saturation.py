import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galns import saturation
from galns.dynamics import GalerkinSystem
from galns.nonlinearity import interaction_rows, target_mode, vee, wedge
from galns.saturation import (SQUARE_REPAIR_PAIRS, SQUARE_REPAIR_TARGETS,
                              RowEchelon, _ratio_conditions, bareiss_rank,
                              build_chain, det3, selection_S, verify_step)
from galns.spectral import RectGeometry, SpectralField, mode_set_K

A2, B2 = Fraction(1), Fraction(4)  # a=1, b=2

# every target of a pair with components at most 4 lies in K^6
# (8 x 8 less (8, 8), which no pair reaches)
WIDE = mode_set_K(6)


def direction(m, n, a2, b2):
    """The exact direction of the pair m < n as {target: entry} over its
    nonzero entries: its interaction_rows row on a mode set holding every
    target, with the factor pi^2/(4ab) taken out."""
    row = interaction_rows([(m, n)], WIDE, a2, b2)[0]
    return {k: v for k, v in zip(WIDE, row.tolist()) if v != 0}


def test_mode_set_counts():
    for j in range(1, 7):
        ks = mode_set_K(j)
        assert len(ks) == (j + 2) ** 2 - 1
        assert set(mode_set_K(j)) < set(mode_set_K(j + 1))


def test_selection_level1():
    assert selection_S(1) == [((1, 2), (2, 1)), ((1, 1), (2, 3)), ((1, 2), (2, 2)),
                              ((1, 1), (3, 2)), ((2, 1), (2, 2)), ((1, 1), (1, 3)),
                              ((1, 1), (3, 1))]


def test_selection_counts_match_new_modes():
    # oracle: cardinality arithmetic |K^{j+1}| - |K^j|
    for j in range(1, 7):
        assert len(selection_S(j)) == len(mode_set_K(j + 1)) - len(mode_set_K(j))


def test_selection_level_errors():
    with pytest.raises(ValueError):
        selection_S(0)


def test_delta_12_21_printed():
    d = direction((1, 2), (2, 1), A2, B2)
    a2, b2 = A2, B2
    # printed formulas with pi^2/(4ab) factored out
    expect = {
        (1, 1): 9 * (b2 - a2) / (a2 + b2),
        (1, 3): 15 * (a2 - b2) / (9 * a2 + b2),
        (3, 1): 15 * (a2 - b2) / (a2 + 9 * b2),
        (3, 3): (b2 - a2) / (a2 + b2),
    }
    assert d == expect


def test_delta_12_21_square_vanishes():
    d = direction((1, 2), (2, 1), Fraction(1), Fraction(1))
    assert d == {}


def test_delta_11_31_printed():
    d = direction((1, 1), (3, 1), A2, B2)
    # -2b pi^2/(a(b^2+a^2)) on (2,2) and b pi^2/(a(a^2+4b^2)) on (4,2);
    # after factoring pi^2/(4ab): -8 b^2/(a^2+b^2) and 4 b^2/(a^2+4 b^2)
    assert d == {(2, 2): -8 * B2 / (A2 + B2), (4, 2): 4 * B2 / (A2 + 4 * B2)}


def test_delta_11_13_printed():
    d = direction((1, 1), (1, 3), A2, B2)
    assert d == {(2, 2): 8 * A2 / (A2 + B2), (2, 4): -4 * A2 / (B2 + 4 * A2)}


def test_delta_12_22_printed():
    d = direction((1, 2), (2, 2), A2, B2)
    # -9b pi^2/(2a(16a^2+b^2)) and 3b pi^2/(2a(16a^2+9b^2)) after factoring
    assert d == {(1, 4): -18 * B2 / (16 * A2 + B2),
                 (3, 4): 6 * B2 / (16 * A2 + 9 * B2)}


def test_delta_cross_validates_bilinear():
    # every target of these pairs lies in K^3, whose system takes the pair
    # path: bilinear_vec(e_m, e_n) is the float direction
    g = RectGeometry(1.0, 2.0)
    modes = mode_set_K(3)
    sys = GalerkinSystem(g, 1.0, SpectralField(g, {}), modes, ())
    scale = math.pi**2 / (4 * g.a * g.b)
    for m, n in selection_S(1) + selection_S(2):
        assert set(direction(m, n, A2, B2)) <= set(modes)
        exact = interaction_rows([(m, n)], sys.mode_set, A2, B2)[0]
        e_m, e_n = (sys.to_vector(SpectralField(g, {k: 1.0})) for k in (m, n))
        fl = sys.bilinear_vec(e_m, e_n)
        for f, c in zip(fl, exact.tolist()):
            assert f == pytest.approx(scale * float(c), rel=1e-10, abs=1e-13)


def test_bareiss_rank_basics():
    f = Fraction
    assert bareiss_rank([]) == 0
    assert bareiss_rank([[f(0), f(0)]]) == 0
    assert bareiss_rank([[f(1), f(2)], [f(2), f(4)]]) == 1
    assert bareiss_rank([[f(1), f(2)], [f(3), f(4)]]) == 2
    assert bareiss_rank([[f(1, 3), f(2, 7), f(1)], [f(0), f(1), f(1)]]) == 2


def test_verify_steps_rectangle():
    for j in range(1, 5):
        c = verify_step(j, A2, B2)
        assert c.verdict and c.rank == len(c.new_modes)
        assert c.conditions["interaction_integers_nonzero"]
        assert c.conditions["ratio_inequalities_ok"]


def test_level1_is_15_independent_vectors():
    c = verify_step(1, A2, B2)
    assert c.rank + len(mode_set_K(1)) == 15


def test_square_without_repair_fails():
    c = verify_step(1, Fraction(1), Fraction(1), square_mode=False)
    assert not c.verdict
    # the dropped direction really is the degenerate one
    assert direction((1, 2), (2, 1), Fraction(1), Fraction(1)) == {}


def test_square_repair_passes_and_determinant():
    c = verify_step(1, Fraction(1), Fraction(1), square_mode=True)
    assert c.verdict
    assert c.determinant_witnesses["square_repair_det_pi2_scaled"] == Fraction(-45, 442)


def test_square_repair_det_exact_recomputation():
    rows = interaction_rows(SQUARE_REPAIR_PAIRS, SQUARE_REPAIR_TARGETS,
                            Fraction(1), Fraction(1)).tolist()
    assert det3(rows) / 4**3 == Fraction(-45, 442)


def test_generic_rectangles_step1():
    import random
    rng = random.Random(42)
    for _ in range(50):
        a2 = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        b2 = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        if a2 == b2:
            b2 += 1
        assert verify_step(1, a2, b2).verdict


def test_build_chain_rectangle():
    ch = build_chain([(5, 5)], A2, B2)
    assert ch.levels == [1, 2, 3]
    assert ch.ok
    # the chain ends at K^4, the first level holding (5, 5)
    assert (5, 5) in mode_set_K(4) and (5, 5) not in mode_set_K(3)


def test_build_chain_trivial():
    ch = build_chain([(1, 1), (3, 2)], A2, B2)
    assert ch.levels == [] and ch.ok and ch.certificates == []


def test_build_chain_square():
    ch = build_chain([(4, 4)], Fraction(1), Fraction(1))
    assert ch.ok
    assert ch.certificates[0].determinant_witnesses


def test_build_chain_square_deeper():
    one = Fraction(1)
    ch = build_chain([(6, 6)], one, one)
    assert ch.levels == [1, 2, 3, 4] and ch.ok
    # the substituted corner direction at level 2 actually reaches (4,4)
    assert (4, 4) in direction((1, 2), (3, 2), one, one)


def test_certificates_reproducible():
    c1 = verify_step(2, A2, B2).to_jsonable()
    c2 = verify_step(2, A2, B2).to_jsonable()
    assert c1 == c2


def reference_rank(rows):
    """Fraction-free Gaussian elimination carried out in Fraction
    arithmetic: the independent oracle for bareiss_rank and RowEchelon."""
    if not rows:
        return 0
    m = [[Fraction(x) for x in r] for r in rows]
    nrow, ncol = len(m), len(m[0])
    prev = Fraction(1)
    r = 0
    for c in range(ncol):
        piv = next((i for i in range(r, nrow) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrow):
            for j in range(c + 1, ncol):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) / prev
            m[i][c] = Fraction(0)
        prev = m[r][c]
        r += 1
        if r == nrow:
            break
    return r


small_fractions = st.fractions(-9, 9, max_denominator=12)


@st.composite
def rational_matrices(draw, entries, coefficients, max_rows=5, max_cols=6):
    """Matrices with some rows zero and some rows combinations of others,
    so that rank deficiency is common."""
    ncol = draw(st.integers(0, max_cols))
    rows = draw(st.lists(st.lists(entries, min_size=ncol, max_size=ncol),
                         max_size=max_rows))
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(rows)))
        if rows and draw(st.booleans()):
            coef = draw(st.lists(coefficients, min_size=len(rows),
                                 max_size=len(rows)))
            new = [sum(c * r[j] for c, r in zip(coef, rows))
                   for j in range(ncol)]
        else:
            new = [0] * ncol
        rows.insert(pos, new)
    return rows


@settings(max_examples=300, deadline=None)
@given(rational_matrices(st.one_of(st.integers(-9, 9), small_fractions),
                         small_fractions))
@example([])
@example([[], []])
@example([[0, Fraction(0)], [Fraction(1, 3), 2]])
def test_bareiss_rank_matches_fraction_elimination(rows):
    before = [list(r) for r in rows]
    assert bareiss_rank(rows) == reference_rank(rows)
    assert rows == before


@settings(max_examples=200, deadline=None)
@given(rational_matrices(st.integers(-3, 3), st.integers(-1, 1)))
def test_bareiss_rank_matches_float_rank_on_small_integers(rows):
    # the drawn rows (at most 5 x 6, |x| <= 3) have integer minors, so their
    # nonzero singular values exceed sigma_max^-4 > 1e-5; the added rows lie
    # in their span and only raise the singular values, while the SVD
    # round-off stays below 1e-12
    rank = bareiss_rank(rows)
    assert rank == reference_rank(rows)
    if rows and rows[0]:
        assert rank == np.linalg.matrix_rank(np.array(rows, dtype=float),
                                             tol=1e-10)


@settings(max_examples=200, deadline=None)
@given(rational_matrices(st.one_of(st.integers(-9, 9), small_fractions),
                         small_fractions, max_rows=8, max_cols=7),
       st.data())
def test_row_echelon_rank_after_each_block_matches_prefix(rows, data):
    cuts = sorted(data.draw(st.lists(st.integers(0, len(rows)), max_size=4)))
    echelon = RowEchelon()
    for lo, hi in zip([0] + cuts, cuts + [len(rows)]):
        assert echelon.extend(rows[lo:hi]) == reference_rank(rows[:hi])


def transposed(k):
    return (k[1], k[0])


@settings(max_examples=40, deadline=None)
@given(a=st.fractions(Fraction(1, 4), 4, max_denominator=20),
       b=st.fractions(Fraction(1, 4), 4, max_denominator=20),
       level=st.integers(1, 4), data=st.data())
def test_exact_rank_invariant_under_swap(a, b, level, data):
    modes = mode_set_K(level)
    all_pairs = [(m, n) for i, m in enumerate(modes) for n in modes[i + 1:]]
    pairs = data.draw(st.lists(st.sampled_from(all_pairs), min_size=1,
                               max_size=len(modes) + 4, unique=True))
    swapped = [tuple(sorted((transposed(m), transposed(n)))) for m, n in pairs]
    rows = interaction_rows(pairs, modes, a * a, b * b).tolist()
    swapped_rows = interaction_rows(swapped, [transposed(k) for k in modes],
                                    b * b, a * a).tolist()
    assert bareiss_rank(swapped_rows) == bareiss_rank(rows)
    for r, s in zip(rows, swapped_rows):
        assert s == r or s == [-x for x in r]


def pairwise_ratio_conditions(j, a2, b2, square_mode=False):
    """_ratio_conditions with each duo's coefficients read pair by pair,
    one interaction_rows call per pair on its two targets.  Also returns
    each duo's entries [[ca, da], [cb, db]]."""
    conds = {}
    pairs = selection_S(j, square_mode=square_mode)
    wedges = {f"{m}x{n}": wedge(m, n) if wedge(m, n) != 0 else vee(m, n)
              for m, n in pairs}
    conds["interaction_integers_nonzero"] = all(v != 0 for v in wedges.values())
    conds["interaction_integers"] = wedges

    def entries(pair, label):
        targets = [target_mode(pair[0], pair[1], lb) for lb in (label, (1, 1))]
        return interaction_rows([pair], targets, a2, b2)[0].tolist()

    ratios_ok = True
    checks = []
    blocks = []
    if j >= 2:
        if (j - 1) % 2 == 0:
            p = (j + 1) // 2
            duos = [
                (((1, 1), (2, 2 * p + 1)), ((1, p + 1), (2, p + 1)), (-1, 1)),
                (((1, 1), (2 * p + 1, 2)), ((p + 1, 1), (p + 1, 2)), (1, -1)),
            ]
        else:
            p = (j + 2) // 2
            duos = [
                (((1, 1), (3, 2 * p)), ((1, p), (3, p + 1)), (-1, 1)),
                (((1, 1), (2 * p, 3)), ((p, 1), (p + 1, 3)), (1, -1)),
                (((1, 1), (2, 2 * p)), ((1, p), (2, p + 1)), (-1, 1)),
                (((1, 1), (2 * p, 2)), ((p, 1), (p + 1, 2)), (1, -1)),
            ]
        for pa, pb, lab in duos:
            (ca, da), (cb, db) = entries(pa, lab), entries(pb, lab)
            blocks.append([[ca, da], [cb, db]])
            ok = cb != 0 and db != 0 and ca * db != cb * da
            checks.append({"pair_a": str(pa), "pair_b": str(pb), "ok": ok})
            ratios_ok = ratios_ok and ok
    conds["ratio_inequalities_ok"] = ratios_ok
    conds["ratio_checks"] = checks
    return conds, blocks


@pytest.mark.parametrize("r", [Fraction(1, 4), Fraction(1), Fraction(2, 3),
                               Fraction(7, 2)], ids=str)
def test_ratio_conditions_match_pairwise_reads(r):
    # each duo is a 2 x 2 diagonal block of one interaction_rows call; the
    # checks pass everywhere here, so the blocks themselves are compared
    for j in range(2, 13):
        for square in (False, True) if r == 1 else (False,):
            calls = []

            def spy(*args):
                calls.append(interaction_rows(*args))
                return calls[-1]
            with mock.patch.object(saturation, "interaction_rows", spy):
                got = _ratio_conditions(j, r, Fraction(1), square_mode=square)
            want, blocks = pairwise_ratio_conditions(j, r, Fraction(1),
                                                     square_mode=square)
            assert got == want
            assert len(calls) == 1 and len(blocks) == (2 if j % 2 else 4)
            assert [calls[0][2 * i:2 * i + 2, 2 * i:2 * i + 2].tolist()
                    for i in range(len(blocks))] == blocks
