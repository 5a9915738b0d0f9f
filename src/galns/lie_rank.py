"""Bracket-generation rank checks for the controlled Galerkin system.

The drift is the uncontrolled right-hand side; brackets with the constant
controlled directions produce affine fields whose constant parts are the
interaction directions gamma_{m,n}.  Iterating the saturation selections
generates constant vector fields whose span is checked against the full
state dimension kappa_N = |K^N|.
"""

import hashlib
import json
from fractions import Fraction

from .dynamics import GalerkinSystem
from .nonlinearity import bilinear, interaction_rows
from .saturation import RowEchelon, selection_S
from .spectral import ModeIndex, SpectralField, infer_level, kbar, mode_set_K


def first_bracket(sys: GalerkinSystem, u: SpectralField, i: ModeIndex) -> SpectralField:
    """Directional derivative of the drift along e_i: affine in u."""
    i = tuple(i)
    if i not in sys.index:
        raise ValueError("bracket direction %s not in mode_set" % (i,))
    e_i = SpectralField(sys.geom, {i: 1.0})
    lin = bilinear(e_i, u, mode_set=sys.mode_set)
    return lin.plus(SpectralField(sys.geom, {i: sys.nu * kbar(i, sys.geom)}))


def gamma_vector(sys: GalerkinSystem, m: ModeIndex, n: ModeIndex) -> SpectralField:
    """The constant second bracket direction for the pair m < n, restricted
    to the system's mode set."""
    em = SpectralField(sys.geom, {tuple(m): 1.0})
    en = SpectralField(sys.geom, {tuple(n): 1.0})
    return bilinear(em, en, mode_set=sys.mode_set)


def _exact_geometry(geom):
    """Exact squared side lengths (a^2, b^2).  A side whose shortest decimal
    form is a short rational is read as that rational (0.1 is 1/10, as
    galns saturate reads it); any other side is read as the exact binary
    value of its float."""
    sides = []
    for side in (float(geom.a), float(geom.b)):
        short = Fraction(str(side))
        sides.append(short if short.denominator <= 1 << 16 else Fraction(side))
    return tuple(side * side for side in sides)


def full_rank_check(sys: GalerkinSystem, u: SpectralField,
                    use_square_repair: bool = True):
    """Generate constant bracket directions by the saturation selections and
    report the reached span dimension.

    Returns (rank, generation log).  The generated family is {e_k: k in K^1}
    plus the gamma_{m,n} of each selection level, so the rank does not depend
    on the evaluation point: u is not read here, and rank_verdict records
    only its hash.  The rank is exact: one RowEchelon over the exact squares
    of _exact_geometry grows generation by generation, so no row is
    eliminated twice."""
    n_level = infer_level(sys.mode_set)
    if tuple(sorted(mode_set_K(1))) != sys.controlled_set:
        raise ValueError("controlled_set must be K^1")
    a2, b2 = _exact_geometry(sys.geom)
    square = a2 == b2
    modes = sys.mode_set

    echelon = RowEchelon()
    rank = echelon.extend([[int(mode == k) for mode in modes]
                           for k in sys.controlled_set])
    generations = [{"generation": 0, "pairs": [],
                    "added": [list(k) for k in sys.controlled_set],
                    "rank": rank}]
    for j in range(1, n_level):
        pairs = selection_S(j, square_mode=square and use_square_repair)
        rank = echelon.extend(interaction_rows(pairs, modes, a2, b2).tolist())
        generations.append({"generation": j,
                            "pairs": [[list(m), list(n)] for m, n in pairs],
                            "rank": rank})
        if rank == len(modes):
            break
    return rank, generations


def point_hash(u: SpectralField) -> str:
    blob = json.dumps(sorted([list(k) + [float(c)] for k, c in u.coeffs.items()]))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def rank_verdict(sys: GalerkinSystem, u: SpectralField,
                 use_square_repair: bool = True) -> dict:
    """JSON-ready verdict for one evaluation point; "exact" is always true:
    every rank comes from exact elimination."""
    rank, generations = full_rank_check(sys, u, use_square_repair=use_square_repair)
    return {
        "N": infer_level(sys.mode_set),
        "exact": True,
        "point_hash": point_hash(u),
        "rank": rank,
        "kappa_N": len(sys.mode_set),
        "full_rank": rank == len(sys.mode_set),
        "generations": generations,
    }
