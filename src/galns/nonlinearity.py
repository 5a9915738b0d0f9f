"""Closed-form coefficients of the projected convective term and the
independent quadrature oracle.

Conventions.  Pairs are enumerated in strict lexicographic order m < n; each
unordered pair contributes once.  The four coefficients C[(pm1,pm2)] multiply
u_m u_n on the target mode (n (pm1 pm2) m)^+ in the *drift* (the sign
convention of the ODE system u'_k = Q(u)_k + nu*kbar*u_k + ..., i.e.
Q(u) = -P[(u.grad)u] with P the Leray projection; the Galerkin system
evaluates Q as GalerkinSystem.quadratic_vec).  Targets with a zero
component are dropped: their basis factor vanishes identically.
Every coefficient comes from one array kernel, interaction_kernel, over
many pairs and all four labels at once; other modules read it only through
interaction_rows, and interaction_coeffs reads the one pair (m, n).

The quadrature oracle never calls that kernel.  Each term of the trilinear
form b(W_m, W_n, W_k) on basis fields is an x1 product times an x2 product
of sines and cosines, so its tensor Gauss-Legendre sum is a product of two
1-D sums; quadrature_B and oracle_sweep share that separable evaluation,
and trilinear_b keeps the plain 2-D tensor sum for general fields.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .spectral import (ModeIndex, RectGeometry, SpectralField, check_mode,
                       eval_components, gauss_legendre_grid, kbar,
                       legendre_rule)


def vee(m: ModeIndex, n: ModeIndex) -> int:
    return m[0] * n[1] + n[0] * m[1]


def wedge(m: ModeIndex, n: ModeIndex) -> int:
    return m[0] * n[1] - n[0] * m[1]


# The four interaction labels: (s1, s2) meaning target (n1 s1 m1, n2 s2 m2)^+.
LABELS = ((-1, -1), (-1, 1), (1, -1), (1, 1))


def target_mode(m: ModeIndex, n: ModeIndex, label: tuple[int, int]) -> ModeIndex:
    s1, s2 = label
    return (abs(n[0] + s1 * m[0]), abs(n[1] + s2 * m[1]))


def mode_array(modes) -> np.ndarray:
    """Modes (k1, k2) as an int array of shape (2, len(modes)), component first."""
    return np.asarray(modes, dtype=np.int64).reshape(-1, 2).T


def interaction_kernel(m, n, a2, b2, scale=None):
    """Closed-form coefficients of the pairs (m[:, p], n[:, p]), all four
    labels at once.

    m, n are mode_arrays (2, P) with m[:, p] < n[:, p] lexicographically.
    Returns targets (2, 4, P), the target of label LABELS[l] of pair p in
    targets[:, l, p], and values (4, P): the coefficients with the factor
    pi^2/(4ab) taken out, times scale if given; exact Fractions (an object
    array) when a2 or b2 is a Fraction.  A target with a zero component is
    in no mode set, so callers drop it with its value."""
    m, n = np.asarray(m, dtype=np.int64), np.asarray(n, dtype=np.int64)
    if np.any((m[0] > n[0]) | ((m[0] == n[0]) & (m[1] >= n[1]))):
        raise ValueError("pairs must be strictly lexicographic m < n")
    targets = np.stack([target_mode(m, n, lab) for lab in LABELS], axis=1)
    s1, s2 = np.sign(n - m)
    w, v = wedge(m, n), vee(m, n)
    # integer factor of each label, in LABELS order
    mult = np.array([w * s1 * s2, -v * s1, v * s2, -w])
    d1, d2 = n * n - m * m
    t1sq, t2sq = targets * targets
    # (nbar - mbar) / kbar(t) with the -pi^2/(a^2 b^2) factor cancelled
    if isinstance(a2, Fraction) or isinstance(b2, Fraction):
        # a^2 and b^2 over one denominator: Python ints, one Fraction each
        p, q = a2.numerator * b2.denominator, b2.numerator * a2.denominator
        mult, d1, d2, t1sq, t2sq = (x.astype(object)
                                    for x in (mult, d1, d2, t1sq, t2sq))
        values = np.frompyfunc(Fraction, 2, 1)(mult * (d1 * q + d2 * p),
                                               t1sq * q + t2sq * p)
    else:
        values = mult * ((d1 * b2 + d2 * a2) / (t1sq * b2 + t2sq * a2))
    if scale is not None:
        values = scale * values
    return targets, values


def float_params(geom: RectGeometry):
    """(a^2, b^2, pi^2/(4ab)): the kernel arguments of float coefficients."""
    return geom.a**2, geom.b**2, math.pi**2 / (4 * geom.a * geom.b)


def mode_positions(modes, targets) -> np.ndarray:
    """Position in modes (a mode_array) of each target (2, ...), -1 if absent."""
    size = 1 + max(int(modes.max(initial=0)), int(targets.max(initial=0)))
    table = np.full((size, size), -1, dtype=np.intp)
    table[modes[0], modes[1]] = np.arange(modes.shape[1])
    return table[targets[0], targets[1]]


def interaction_rows(pairs, modes, a2, b2, scale=None) -> np.ndarray:
    """Coefficient rows of the pairs restricted to modes: row p holds the
    kernel values of pairs[p] on its targets in modes, zero elsewhere."""
    m, n = np.asarray(pairs, dtype=np.int64).reshape(-1, 2, 2).transpose(1, 2, 0)
    targets, values = interaction_kernel(m, n, a2, b2, scale)
    rows = np.zeros((len(pairs), len(modes) + 1), dtype=values.dtype)
    # position -1 (target not in modes) addresses the extra last column
    rows[np.arange(len(pairs)), mode_positions(mode_array(modes), targets)] = values
    return rows[:, :-1]


def interaction_coeffs(m: ModeIndex, n: ModeIndex, geom: RectGeometry) -> dict:
    """Floating coefficients {target mode: C} of the one pair (m, n),
    including the pi^2/(4ab) factor, over the targets with no zero
    component."""
    a2, b2, scale = float_params(geom)
    targets, values = interaction_kernel(mode_array([check_mode(m)]),
                                         mode_array([check_mode(n)]), a2, b2)
    return {tuple(t): scale * float(v)
            for t, v in zip(targets[:, :, 0].T.tolist(), values[:, 0]) if all(t)}


# ---------------------------------------------------------------------------
# Quadrature oracle


def _max_index(*fields) -> int:
    return max([1] + [max(k) for f in fields for k in f.coeffs])


def trilinear_b(u: SpectralField, v: SpectralField, w: SpectralField) -> float:
    """b(u, v, w) = sum_ij int u_i (d_i v_j) w_j dx by tensor quadrature."""
    X1, X2, W = gauss_legendre_grid(u.geom, 6 * _max_index(u, v, w) + 8)
    (u1, u2), _ = eval_components(u, X1, X2)
    _, ((d1v1, d2v1), (d1v2, d2v2)) = eval_components(v, X1, X2)
    (w1, w2), _ = eval_components(w, X1, X2)
    integrand = (u1 * d1v1 + u2 * d2v1) * w1 + (u1 * d1v2 + u2 * d2v2) * w2
    return float(np.sum(W * integrand))


def _axis_sums(ku, kv, kw, side, npts):
    """Gauss-Legendre sums over [0, side], one row per index triple, of
    the products S C S, C S S, S S C and C C C, whose factors are sin or
    cos of k pi x / side for k = ku, kv, kw.  Rows are reduced one by one,
    so a triple gets the same bits in any stack."""
    x, w = legendre_rule(npts)
    x, w = side * (x + 1) / 2, side / 2 * w
    (su, cu), (sv, cv), (sw, cw) = (
        (np.sin(t), np.cos(t))
        for t in (np.multiply.outer(k * np.pi / side, x) for k in (ku, kv, kw)))
    return [(f * g * h * w).sum(axis=-1)
            for f, g, h in ((su, cv, sw), (cu, sv, sw), (su, sv, cw), (cu, cv, cw))]


def _b_basis(geom: RectGeometry, npts: int, u, v, w) -> np.ndarray:
    """b(W_u, W_v, W_w) for the columns of the mode_arrays u, v, w.  Each
    basis component and first derivative is a constant times sin or cos of
    x1 times sin or cos of x2 (eval_components), so each term u_i d_i v_j w_j
    sums over the tensor grid as a product of two 1-D sums; the x2
    patterns of the four terms are the x1 patterns reversed."""
    s1 = _axis_sums(u[0], v[0], w[0], geom.a, npts)
    s2 = _axis_sums(u[1], v[1], w[1], geom.b, npts)
    au, av, aw = (f[0] * np.pi / geom.a for f in (u, v, w))
    bu, bv, bw = (f[1] * np.pi / geom.b for f in (u, v, w))
    # u1 d1v1 w1, u2 d2v1 w1, u1 d1v2 w2, u2 d2v2 w2
    return (-(bu * av * bv * bw) * s1[0] * s2[3]
            - (au * bv * bv * bw) * s1[1] * s2[2]
            + (bu * av * av * aw) * s1[2] * s2[1]
            + (au * av * bv * aw) * s1[3] * s2[0])


def _oracle_values(geom: RectGeometry, npts: int, m, n, k) -> np.ndarray:
    """-[b(W_m, W_n, W_k) + b(W_n, W_m, W_k)] / |W_k|^2, column by column."""
    nrm2 = -kbar(k, geom) * geom.a * geom.b / 4
    return -(_b_basis(geom, npts, m, n, k) + _b_basis(geom, npts, n, m, k)) / nrm2


def quadrature_B(u: SpectralField, v: SpectralField, k: ModeIndex) -> float:
    """Oracle for the k-th drift coefficient of the projected convective
    interaction of u and v: -[b(u,v,W_k) + b(v,u,W_k)] / (-kbar |W_k|^2)
    for u != v, and the plain quadratic coefficient when u is v.

    For u = e_m, v = e_n this is the full entry of delta_{m,n} on mode k
    (both orderings of the pair contribute to the same projected term),
    bit for bit oracle_sweep's value.  General fields are summed by
    trilinearity over their coefficient pairs.
    """
    k = check_mode(k)
    i, j = np.indices((len(u.coeffs), len(v.coeffs))).reshape(2, -1)
    vals = _oracle_values(u.geom, 6 * max(_max_index(u, v), *k) + 8,
                          mode_array(list(u.coeffs))[:, i],
                          mode_array(list(v.coeffs))[:, j], mode_array([k] * len(i)))
    cu, cv = (np.array(list(f.coeffs.values())) for f in (u, v))
    total = float(np.sum(cu[i] * cv[j] * vals))
    return 0.5 * total if u is v or u.coeffs == v.coeffs else total


def oracle_sweep(max_index: int, geom: RectGeometry,
                 rel_tol: float = 1e-8, abs_floor: float = 1e-12) -> list[dict]:
    """Compare every closed-form coefficient against the quadrature oracle
    for all pairs m < n with components <= max_index.  Returns one record
    per (pair, target) with the relative error and a pass flag.  The
    comparisons of one grid (6 * largest index + 8 nodes) run at once."""
    modes = [(i, j) for i in range(1, max_index + 1) for j in range(1, max_index + 1)]
    first, second = np.triu_indices(len(modes), 1)
    ma = mode_array(modes)
    # every closed-form value from one kernel call; the oracle stays quadrature
    targets, closed = interaction_kernel(ma[:, first], ma[:, second],
                                         *float_params(geom))
    # the comparisons in pair order, labels in LABELS order within a pair
    pair, label = np.nonzero(targets.min(axis=0).T > 0)
    m, n = ma[:, first[pair]], ma[:, second[pair]]
    k = targets[:, label, pair]
    npts = 6 * np.concatenate([m, n, k]).max(axis=0) + 8
    quad = np.empty(len(pair))
    for size in sorted(set(npts.tolist())):
        on = npts == size
        quad[on] = _oracle_values(geom, size, m[:, on], n[:, on], k[:, on])
    records = []
    for mi, ni, ki, c, q in zip(m.T.tolist(), n.T.tolist(), k.T.tolist(),
                                closed[label, pair].tolist(), quad.tolist()):
        records.append({"m": tuple(mi), "n": tuple(ni), "target": tuple(ki),
                        "closed_form": c, "quadrature": q,
                        "rel_err": abs(c - q) / max(abs(q), abs_floor / rel_tol),
                        "ok": abs(c - q) <= max(rel_tol * abs(q), abs_floor)})
    return records
