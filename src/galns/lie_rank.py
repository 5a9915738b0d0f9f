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

import numpy as np

from .dynamics import GalerkinSystem
from .nonlinearity import bilinear, float_params, interaction_rows
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
    """Exact squared side lengths when each side's shortest decimal form
    is a short rational (0.1 is 1/10, as galns saturate reads it), None
    otherwise (falls back to floating rank)."""
    fa, fb = (Fraction(str(float(side))) for side in (geom.a, geom.b))
    if fa.denominator <= 1 << 16 and fb.denominator <= 1 << 16:
        return fa * fa, fb * fb
    return None


def _float_rank(rows) -> int:
    m = np.array(rows, dtype=float)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > 1e-10 * np.max(np.abs(m))))


def full_rank_check(sys: GalerkinSystem, u: SpectralField,
                    use_square_repair: bool = True):
    """Generate constant bracket directions by the saturation selections and
    report the reached span dimension.

    Returns (rank, generation log).  The generated family is {e_k: k in K^1}
    plus the gamma_{m,n} of each selection level, so the rank does not depend
    on the evaluation point: u is not read here, and rank_verdict records
    only its hash.  Exact ranks grow one RowEchelon generation by
    generation, so no row is eliminated twice."""
    n_level = infer_level(sys.mode_set)
    if tuple(sorted(mode_set_K(1))) != sys.controlled_set:
        raise ValueError("controlled_set must be K^1")
    exact = _exact_geometry(sys.geom)
    square = sys.geom.a == sys.geom.b
    modes = sys.mode_set

    if exact:
        add_rows = RowEchelon().extend
    else:
        rows = []

        def add_rows(block):
            rows.extend(block)
            return _float_rank(rows)
    rank = add_rows([[int(mode == k) for mode in modes]
                     for k in sys.controlled_set])
    generations = [{"generation": 0, "pairs": [],
                    "added": [list(k) for k in sys.controlled_set],
                    "rank": rank}]
    for j in range(1, n_level):
        pairs = selection_S(j, square_mode=square and use_square_repair)
        rank = add_rows(interaction_rows(
            pairs, modes, *(exact or float_params(sys.geom))).tolist())
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
    """JSON-ready verdict for one evaluation point; "exact" says whether the
    rank came from exact elimination or the floating-point SVD."""
    rank, generations = full_rank_check(sys, u, use_square_repair=use_square_repair)
    return {
        "N": infer_level(sys.mode_set),
        "exact": _exact_geometry(sys.geom) is not None,
        "point_hash": point_hash(u),
        "rank": rank,
        "kappa_N": len(sys.mode_set),
        "full_rank": rank == len(sys.mode_set),
        "generations": generations,
    }
