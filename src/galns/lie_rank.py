"""Bracket-generation rank checks for the controlled Galerkin system.

The drift is the uncontrolled right-hand side; brackets with the constant
controlled directions produce affine fields whose constant parts are the
interaction directions gamma_{m,n}, the rows of
nonlinearity.interaction_rows.  Iterating the saturation selections
generates constant vector fields whose span is checked, in exact
arithmetic, against the full state dimension kappa_N = |K^N|.
"""

import hashlib
import json

from .dynamics import GalerkinSystem
from .nonlinearity import interaction_rows
from .saturation import RowEchelon, exact_squares, selection_S
from .spectral import SpectralField, infer_level, mode_set_K


def full_rank_check(sys: GalerkinSystem):
    """Generate constant bracket directions by the saturation selections and
    report the reached span dimension.

    Returns (rank, generation log).  The generated family is {e_k: k in K^1}
    plus the gamma_{m,n} of each selection level, so the rank does not depend
    on an evaluation point.  The rank is exact: one RowEchelon over the
    exact squares of the sides grows generation by generation, so no row
    is eliminated twice."""
    n_level = infer_level(sys.mode_set)
    if tuple(sorted(mode_set_K(1))) != sys.controlled_set:
        raise ValueError("controlled_set must be K^1")
    a2, b2 = exact_squares(sys.geom)
    square = a2 == b2
    modes = sys.mode_set

    echelon = RowEchelon()
    rank = echelon.extend([[int(mode == k) for mode in modes]
                           for k in sys.controlled_set])
    generations = [{"generation": 0, "pairs": [],
                    "added": [list(k) for k in sys.controlled_set],
                    "rank": rank}]
    for j in range(1, n_level):
        pairs = selection_S(j, square_mode=square)
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


def rank_verdict(sys: GalerkinSystem) -> dict:
    """JSON-ready rank verdict, the same at every evaluation point; "exact"
    is always true: every rank comes from exact elimination."""
    rank, generations = full_rank_check(sys)
    return {
        "N": infer_level(sys.mode_set),
        "exact": True,
        "rank": rank,
        "kappa_N": len(sys.mode_set),
        "full_rank": rank == len(sys.mode_set),
        "generations": generations,
    }
