"""Construction and certification of the saturating chain K^1 -> K^2 -> ...
in exact rational arithmetic, including the square-geometry repair.

Every direction is a row of nonlinearity.interaction_rows at the exact
squares a^2 and b^2, with the common factor pi^2/(4ab) divided out; that
factor never affects a rank, so certificates are exact statements over Q
once a^2 and b^2 are rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .nonlinearity import interaction_rows, target_mode, vee, wedge
from .spectral import ModeIndex, check_mode, mode_set_K

Pair = tuple[ModeIndex, ModeIndex]

# Pairs dropped / added at level 1 when a = b (the generic level-1 family
# degenerates on the square: every entry of delta_{(1,2),(2,1)} carries b^2-a^2).
SQUARE_DROPPED_PAIR: Pair = ((1, 2), (2, 1))
SQUARE_REPAIR_PAIRS: list[Pair] = [((1, 1), (2, 4)), ((1, 2), (2, 3)), ((1, 4), (2, 1))]
SQUARE_REPAIR_TARGETS: list[ModeIndex] = [(1, 5), (3, 3), (3, 5)]


def selection_S(j: int, square_mode: bool = False) -> list[Pair]:
    """The selected interaction pairs for the step K^j -> K^{j+1}."""
    if j < 1:
        raise ValueError("level must be >= 1")
    if j == 1:
        s1 = [((1, 2), (2, 1)), ((1, 1), (2, 3)), ((1, 2), (2, 2)),
              ((1, 1), (3, 2)), ((2, 1), (2, 2)), ((1, 1), (1, 3)),
              ((1, 1), (3, 1))]
        if square_mode:
            return [p for p in s1 if p != SQUARE_DROPPED_PAIR] + SQUARE_REPAIR_PAIRS
        return s1
    # Two parameterized families, indexed by the parity of j - 1.
    if (j - 1) % 2 == 1:  # "odd case": K^j has side 2p
        p = (j + 2) // 2
        # The head pair targets the new far corner (2p, 2p).  Its coefficient
        # there carries a (b^2 - a^2) factor, so on the square it degenerates;
        # ((1,2),(2p-1,2p-2)) reaches the same corner with coefficient
        # proportional to p(2p-3), nonzero for every geometry.
        head = ((1, 2), (2 * p - 1, 2 * p - 2)) if square_mode \
            else ((1, 2 * p - 1), (2 * p - 1, 1))
        pairs = [head]
        pairs += [((1, 1), (2 * z - 1, 2 * p)) for z in range(2, p + 1)]
        pairs += [((1, p), (3, p + 1))]
        pairs += [((1, 1), (2 * p, 2 * z - 1)) for z in range(2, p + 1)]
        pairs += [((p, 1), (p + 1, 3))]
        pairs += [((1, 1), (2 * s, 2 * p)) for s in range(1, p)]
        pairs += [((1, p), (2, p + 1))]
        pairs += [((1, 1), (2 * p, 2 * s)) for s in range(1, p)]
        pairs += [((p, 1), (p + 1, 2))]
    else:  # "even case": K^j has side 2p + 1
        p = (j + 1) // 2
        pairs = [((1, 2), (2 * p, 2 * p - 1))]
        pairs += [((1, 1), (2 * z, 2 * p + 1)) for z in range(1, p + 1)]
        pairs += [((1, p + 1), (2, p + 1))]
        pairs += [((1, 1), (2 * p + 1, 2 * z)) for z in range(1, p + 1)]
        pairs += [((p + 1, 1), (p + 1, 2))]
        pairs += [((s, 1), (s, 2 * p + 1)) for s in range(1, p + 1)]
        pairs += [((1, s), (2 * p + 1, s)) for s in range(1, p + 1)]
    return pairs


# ---------------------------------------------------------------------------
# Exact rank via an incremental fraction-free row echelon


class RowEchelon:
    """Exact row echelon form of rational rows (int or Fraction entries),
    grown one row at a time; the rank is the number of pivots.

    A new row is cleared of denominators and reduced against the pivots
    in the order they were found: r <- p_c r - r_c p (both factors divided
    by their gcd) clears column c, and no column an earlier step cleared,
    since each pivot is zero at the columns of the pivots before it.  The
    row is then divided by the gcd of its entries and, if not zero, kept
    as the pivot of its leading column.  It is a rational multiple of the
    row fraction-free (Bareiss) elimination reaches, whose entries are
    minors of the input, and its primitive part divides that row: entries
    stay as small as Bareiss's."""

    def __init__(self):
        self.pivots: dict[int, list[int]] = {}  # column -> row, as found

    def extend(self, rows) -> int:
        """Insert the rows in order; return the rank after them."""
        for row in rows:
            den = math.lcm(*(x.denominator for x in row))
            row = [x.numerator * (den // x.denominator) for x in row]
            for c, p in self.pivots.items():
                if row[c]:
                    g = math.gcd(p[c], row[c])
                    s, t = p[c] // g, row[c] // g
                    row = [s * x - t * y for x, y in zip(row, p)]
            g = math.gcd(*row)
            if g:
                row = [x // g for x in row]
                self.pivots[next(i for i, x in enumerate(row) if x)] = row
        return len(self.pivots)


def bareiss_rank(rows: list[list[Fraction]]) -> int:
    """Exact rank of a rational matrix (int or Fraction entries): the
    pivot count of its RowEchelon, whose entries Bareiss's bound keeps."""
    return RowEchelon().extend(rows)


def det3(mat: list[list[Fraction]]) -> Fraction:
    (a, b, c), (d, e, f), (g, h, i) = mat
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


# ---------------------------------------------------------------------------
# Step certificates and chains


@dataclass
class SaturationStepCertificate:
    level: int
    pairs: list[Pair]
    new_modes: list[ModeIndex]
    matrix: list[list[Fraction]]
    rank: int
    verdict: bool
    conditions: dict = field(default_factory=dict)
    determinant_witnesses: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "level": self.level,
            "pairs": [[list(m), list(n)] for m, n in self.pairs],
            "new_modes": [list(k) for k in self.new_modes],
            "matrix": [[str(x) for x in row] for row in self.matrix],
            "rank": self.rank,
            "required_rank": len(self.new_modes),
            "verdict": "pass" if self.verdict else "fail",
            "conditions": self.conditions,
            "determinant_witnesses": {k: str(v) for k, v in self.determinant_witnesses.items()},
        }


def _ratio_conditions(j: int, a2: Fraction, b2: Fraction,
                      square_mode: bool = False) -> dict:
    """Nonvanishing checks backing each step: every selected pair has a
    nonzero interaction integer (wedge or vee, whichever drives its surviving
    coefficients), plus the two-vector ratio inequalities of the generic step."""
    conds: dict = {}
    pairs = selection_S(j, square_mode=square_mode)
    wedges = {f"{m}x{n}": wedge(m, n) if wedge(m, n) != 0 else vee(m, n)
              for m, n in pairs}
    conds["interaction_integers_nonzero"] = all(v != 0 for v in wedges.values())
    conds["interaction_integers"] = wedges

    ratios_ok = True
    checks = []
    if j >= 2:
        if (j - 1) % 2 == 0:  # even case
            p = (j + 1) // 2
            duos = [
                (((1, 1), (2, 2 * p + 1)), ((1, p + 1), (2, p + 1)), (-1, 1)),
                (((1, 1), (2 * p + 1, 2)), ((p + 1, 1), (p + 1, 2)), (1, -1)),
            ]
        else:  # odd case
            p = (j + 2) // 2
            duos = [
                (((1, 1), (3, 2 * p)), ((1, p), (3, p + 1)), (-1, 1)),
                (((1, 1), (2 * p, 3)), ((p, 1), (p + 1, 3)), (1, -1)),
                (((1, 1), (2, 2 * p)), ((1, p), (2, p + 1)), (-1, 1)),
                (((1, 1), (2 * p, 2)), ((p, 1), (p + 1, 2)), (1, -1)),
            ]
        # a duo's two pairs reach its label's target and its (1, 1) target,
        # and no two duos share one: duo i is the i-th 2 x 2 diagonal block
        rows = interaction_rows(
            [pair for pa, pb, _ in duos for pair in (pa, pb)],
            [target_mode(*pa, lb) for pa, _, lab in duos
             for lb in (lab, (1, 1))], a2, b2)
        for i, (pa, pb, _) in enumerate(duos):
            (ca, da), (cb, db) = rows[2 * i:2 * i + 2, 2 * i:2 * i + 2].tolist()
            ok = cb != 0 and db != 0 and ca * db != cb * da
            checks.append({"pair_a": str(pa), "pair_b": str(pb), "ok": ok})
            ratios_ok = ratios_ok and ok
    conds["ratio_inequalities_ok"] = ratios_ok
    conds["ratio_checks"] = checks
    return conds


def verify_step(j: int, a2: Fraction, b2: Fraction,
                square_mode: bool = False) -> SaturationStepCertificate:
    """Certify that the selected interaction directions at level j, projected
    onto the new modes of K^{j+1}, have full exact rank."""
    a2, b2 = Fraction(a2), Fraction(b2)
    pairs = selection_S(j, square_mode=square_mode)
    prev = set(mode_set_K(j))
    new_modes = [k for k in mode_set_K(j + 1) if k not in prev]
    if j == 1 and square_mode:
        # the repair also claims three K^3 targets beyond K^2 \ {(3,3)}
        new_modes = [k for k in new_modes if k != (3, 3)]
        targets = new_modes + SQUARE_REPAIR_TARGETS
    else:
        targets = new_modes
    matrix = interaction_rows(pairs, targets, a2, b2).tolist()
    rank = bareiss_rank(matrix)
    required = len(targets)
    witnesses = {}
    if j == 1 and square_mode:
        # the repair pairs and targets are the matrix's last rows and columns
        rep = [row[-3:] for row in matrix[-3:]]
        # determinant of the pi^2-scaled entries: divide one factor 4ab out
        d = det3(rep) / (4 * a2) ** 3 if a2 == b2 else det3(rep)
        witnesses["square_repair_det_pi2_scaled"] = d
    cert = SaturationStepCertificate(
        level=j, pairs=pairs, new_modes=targets, matrix=matrix,
        rank=rank, verdict=rank == required,
        conditions=_ratio_conditions(j, a2, b2, square_mode=square_mode),
        determinant_witnesses=witnesses)
    return cert


@dataclass
class SaturationChain:
    a2: Fraction
    b2: Fraction
    square_mode: bool
    levels: list[int]
    certificates: list[SaturationStepCertificate]

    @property
    def ok(self) -> bool:
        return all(c.verdict for c in self.certificates)


def exact_squares(geom) -> tuple[Fraction, Fraction]:
    """The exact squared side lengths (a^2, b^2) of a RectGeometry.  A side
    whose shortest decimal form is a short rational is read as that
    rational (0.1 is 1/10, as galns saturate reads it); any other side is
    read as the exact binary value of its float.  The rectangle is square
    exactly when a^2 == b^2."""
    sides = []
    for side in (float(geom.a), float(geom.b)):
        short = Fraction(str(side))
        sides.append(short if short.denominator <= 1 << 16 else Fraction(side))
    return tuple(side * side for side in sides)


def build_chain(target_modes, a2, b2) -> SaturationChain:
    """Minimal chain K^1 subset ... subset K^{p+1} covering target_modes,
    with all step certificates; the square (a2 == b2) takes the repaired
    selections."""
    a2, b2 = Fraction(a2), Fraction(b2)
    square = a2 == b2
    target_modes = [check_mode(tuple(k)) for k in target_modes]
    need = 1
    while not set(target_modes) <= set(mode_set_K(need)):
        need += 1
    certs = []
    levels = list(range(1, need))
    for j in levels:
        certs.append(verify_step(j, a2, b2, square_mode=square))
    return SaturationChain(a2, b2, square, levels, certs)
