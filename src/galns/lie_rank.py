"""Bracket-generation rank checks for the controlled Galerkin system.

The drift is the uncontrolled right-hand side; brackets with the constant
controlled directions produce affine fields whose constant parts are the
interaction directions gamma_{m,n}, the rows of
nonlinearity.interaction_rows.  Iterating the saturation selections
generates constant vector fields whose span is checked, in exact
arithmetic, against the full state dimension kappa_N = |K^N|.  The span
reads only the rectangle and the two mode sets: the viscosity and the
forcing do not enter it, so no system is built.
"""

import hashlib
import json

from .nonlinearity import interaction_rows
from .saturation import RowEchelon, exact_squares, selection_S
from .spectral import RectGeometry, SpectralField, infer_level, mode_set_K


def full_rank_check(geom: RectGeometry, mode_set, controlled_set):
    """Generate constant bracket directions by the saturation selections and
    report the reached span dimension.

    Returns (rank, generation log).  The generated family is {e_k: k in K^1}
    plus the gamma_{m,n} of each selection level, so the rank does not depend
    on an evaluation point.  The rank is exact: one RowEchelon over the
    exact squares of the sides grows generation by generation, so no row
    is eliminated twice.  Modes are (k1, k2) tuples, in any order."""
    n_level = infer_level(mode_set)
    k1 = mode_set_K(1)
    if sorted(controlled_set) != k1:
        raise ValueError("controlled_set must be K^1")
    a2, b2 = exact_squares(geom)
    square = a2 == b2

    echelon = RowEchelon()
    rank = echelon.extend([[int(mode == k) for mode in mode_set] for k in k1])
    generations = [{"generation": 0, "pairs": [],
                    "added": [list(k) for k in k1], "rank": rank}]
    for j in range(1, n_level):
        pairs = selection_S(j, square_mode=square)
        rank = echelon.extend(
            interaction_rows(pairs, mode_set, a2, b2).tolist())
        generations.append({"generation": j,
                            "pairs": [[list(m), list(n)] for m, n in pairs],
                            "rank": rank})
        if rank == len(mode_set):
            break
    return rank, generations


def point_hash(u: SpectralField) -> str:
    blob = json.dumps(sorted([list(k) + [float(c)] for k, c in u.coeffs.items()]))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def rank_verdict(geom: RectGeometry, mode_set, controlled_set) -> dict:
    """JSON-ready rank verdict, the same at every evaluation point; "exact"
    is always true: every rank comes from exact elimination."""
    rank, generations = full_rank_check(geom, mode_set, controlled_set)
    return {
        "N": infer_level(mode_set),
        "exact": True,
        "rank": rank,
        "kappa_N": len(mode_set),
        "full_rank": rank == len(mode_set),
        "generations": generations,
    }
