"""Control synthesis for the truncated system: endpoint maps and covering
experiments, feedforward tracking of low-mode targets, the vanishing-ramp
oscillator, relaxed-control (chattering) approximation, imitation of
interaction-direction controls by fast oscillation, and the cascade that
reduces everything to controls on the eight lowest modes.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .dynamics import (GalerkinSystem, IntegratorStats, PiecewiseConstant,
                       POLY_THETA, PiecewisePolynomial, Smooth,
                       adaptive_lawson, integrate, integrate_tangent)
from .nonlinearity import float_params, interaction_rows
from .saturation import exact_squares, selection_S
from .spectral import SpectralField, infer_level, mode_set_K


# ---------------------------------------------------------------------------
# Endpoint map and covering


@dataclass
class EndpointExperiment:
    """Constant-control endpoint study on an observed mode set."""

    sys: GalerkinSystem
    observed_set: tuple
    u0: SpectralField
    radius: float
    gamma_infl: float
    horizon: float
    tol: float = 1e-8

    def __post_init__(self):
        self.observed_set = tuple(sorted(tuple(k) for k in self.observed_set))
        if not set(self.observed_set) <= set(self.sys.controlled_set):
            raise ValueError("observed_set must be controlled")
        # NaN compares false, so these tests reject it too
        for name, low in (("radius", 0), ("gamma_infl", 1), ("horizon", 0)):
            if not low < getattr(self, name) < np.inf:
                raise ValueError("%s must exceed %d and be finite, got %r"
                                 % (name, low, getattr(self, name)))
        self._obs_idx = [self.sys.index[k] for k in self.observed_set]
        self._y0 = self.sys.to_vector(self.u0)  # every map starts here

    def observed(self, y: np.ndarray) -> np.ndarray:
        return y[self._obs_idx]


def _end_states(sys: GalerkinSystem, y0, idx, P, T: float, tol: float):
    """End states, shape (dim, B), of the runs from the vector y0 under the
    constant controls P / T on the modes idx, one per row of P, as one
    stack on one step sequence whose error control holds for every row."""
    drift = np.repeat(sys.forcing_vec[:, None], len(P), axis=1)
    drift[idx] += P.T / T
    return adaptive_lawson(
        sys.lam[:, None], lambda z, t: sys.quadratic_vec(z) + drift,
        np.repeat(y0[:, None], len(P), axis=1), 0.0, T, tol).end


def endpoint_map(exp: EndpointExperiment, p: np.ndarray,
                 T: float = None) -> np.ndarray:
    """End-state observation under the constant control p/T on the observed
    modes.

    p is one impulse of shape (d,) or a stack of impulses of shape (B, d),
    giving one observation per row; the stack is integrated as one
    (_end_states)."""
    p = np.asarray(p, dtype=float)
    T = exp.horizon if T is None else T
    if not 0 < T < np.inf:
        raise ValueError("horizon must be positive and finite, got %r" % (T,))
    if np.any(np.sum(np.abs(p), axis=-1)
              >= exp.gamma_infl * exp.radius * (1 + 1e-12)):
        raise ValueError("control impulse leaves the inflated ball")
    out = exp.observed(_end_states(exp.sys, exp._y0, exp._obs_idx,
                                   np.atleast_2d(p), T, exp.tol)).T
    return out if p.ndim == 2 else out[0]


def reference_map(exp: EndpointExperiment, p: np.ndarray) -> np.ndarray:
    """Zero-horizon idealization: observed initial state plus the impulse."""
    return exp.observed(exp._y0) + np.asarray(p, dtype=float)


def _ball_samples(rng, dim, radius, count):
    """Random points of the closed l1 ball of the given radius."""
    out = []
    for _ in range(count):
        x = rng.normal(size=dim)
        x *= radius * rng.random() ** (1 / dim) / np.sum(np.abs(x))
        out.append(x)
    return out


def deviation_sweep(exp: EndpointExperiment, horizons, n_samples: int = 8,
                    seed: int = 0) -> list:
    """sup_p l1 deviation between the endpoint map and its zero-horizon
    reference, per horizon, over sampled admissible impulses."""
    rng = np.random.default_rng(seed)
    samples = _ball_samples(rng, len(exp.observed_set),
                            0.95 * exp.gamma_infl * exp.radius, n_samples)
    ref = reference_map(exp, samples)
    rows = []
    for T in horizons:
        dev = float(np.max(np.sum(np.abs(endpoint_map(exp, samples, T) - ref),
                                  axis=1)))
        rows.append({"T": float(T), "sup_deviation": dev,
                     "x_axis": float(T * math.exp(T))})
    return rows


def loglog_slope(x, y):
    """Least-squares slope sum(dx dy) / sum(dx^2) of log y against log x
    (d: deviation from the mean); None unless x holds two distinct values
    and no y is zero, for otherwise no line is determined."""
    if len(set(x)) < 2 or 0.0 in y:
        return None
    dx = np.log(x) - np.mean(np.log(x))
    dy = np.log(y) - np.mean(np.log(y))
    return float(dx @ dy / (dx @ dx))


def fit_deviation_slope(rows) -> dict:
    """Least-squares slope of log deviation against log(T e^T), and the
    prefactor C with deviation <= C [T e^T]^(1/2) over the sweep."""
    slope = loglog_slope([r["x_axis"] for r in rows],
                         [r["sup_deviation"] for r in rows])
    C = max(r["sup_deviation"] / math.sqrt(r["x_axis"]) for r in rows)
    return {"slope": slope, "C": float(C)}


def horizon_ceiling(exp: EndpointExperiment, C: float) -> float:
    """The largest admissible horizon: solves T e^T = ((gamma-1) R / (2 d C))^2."""
    d = len(exp.observed_set)
    x = ((exp.gamma_infl - 1) * exp.radius / (2 * d * C)) ** 2
    # Lambert W of x by Halley's iteration on T e^T - x, from log(1 + x)
    T = math.log1p(x)
    for _ in range(64):
        eT = math.exp(T)
        f = T * eT - x
        step = f / (eT * (T + 1) - (T + 2) * f / (2 * T + 2))
        T -= step
        if abs(step) <= 1e-15 * T:
            break
    return T


def endpoint_tangent(sys: GalerkinSystem, u0: SpectralField, modes,
                     T: float, tol: float):
    """F(0) and the d x d Jacobian DF(0) of the endpoint map on the d
    controlled modes, from u0 at horizon T, from one integrate_tangent
    run: parameter j is the impulse on modes[j], held constant over
    [0, T], which moves the control value by 1/T there.  Also returns the
    run's IntegratorStats."""
    d = len(modes)
    directions = np.zeros((len(sys.controlled_set), d))
    directions[[sys.controlled_set.index(k) for k in modes],
               np.arange(d)] = 1.0 / T
    y, Z, stats = integrate_tangent(sys, u0, None, T, directions, tol=tol)
    idx = [sys.index[k] for k in modes]
    return y[idx], Z[idx], stats


INVERT_MAX_ITER = 60  # the map calls after which a row is given up


def invert_endpoint(F, targets, F0, inverse, tol: float):
    """Solve F(p) = target for each row of a (B, d) stack by the chord
    Newton step from F0 = F(0) and the inverse of the Jacobian DF(0): p
    starts at DF^-1 (target - F0) and moves by DF^-1 (target - F(p)).  The
    rows still iterating are mapped together as one stack (a view of the
    impulses while every row iterates, so F must not write into it); each
    stops once its l1 residual is below tol or after INVERT_MAX_ITER map
    calls.  Returns the impulses, each row's last residual and each row's
    number of map calls."""
    p = (targets - F0) @ inverse.T
    residuals = np.zeros(len(p))
    calls = np.zeros(len(p), dtype=int)
    active = np.arange(len(p))
    while len(active):
        # with every row active, a slice reads the stacks as views
        rows = slice(None) if len(active) == len(p) else active
        r = targets[rows] - F(p[rows])
        res = np.sum(np.abs(r), axis=1)
        residuals[rows] = res
        calls[rows] += 1
        going = (res >= tol) & (calls[rows] < INVERT_MAX_ITER)
        active = active[going]
        p[active] += r[going] @ inverse.T
    return p, residuals, calls


def _ball_grid(radius: float, d: int, grid_per_dim: int) -> np.ndarray:
    """The points of a cube grid of side 2 radius in d dimensions, those
    outside the closed l1 ball of that radius pulled onto its boundary, as
    one (grid_per_dim^d, d) array that no other array shares."""
    axes = np.linspace(-radius, radius, grid_per_dim)
    points = np.stack(np.meshgrid(*([axes] * d), indexing="ij", copy=False),
                      axis=-1).reshape(-1, d)
    norms = np.sum(np.abs(points), axis=1)
    scale = np.minimum(1.0, radius / np.where(norms == 0, 1.0, norms))
    points *= scale[:, None]
    return points


@dataclass(eq=False)
class TargetRows:
    """covering_check's per-target results, kept as three arrays.  Row i
    reads as the dict {"target": list, "residual": float, "iterations":
    int} of Python scalars, built when it is read; iterating reads the
    rows in order."""

    targets: np.ndarray     # (N, d)
    residuals: np.ndarray   # (N,)
    iterations: np.ndarray  # (N,) int

    def __len__(self):
        return len(self.residuals)

    def __getitem__(self, i):
        return {"target": self.targets[i].tolist(),
                "residual": float(self.residuals[i]),
                "iterations": int(self.iterations[i])}


def covering_check(exp: EndpointExperiment, grid_per_dim: int = 3,
                   fit_horizons=None, residual_tol: float = 1e-6,
                   seed: int = 0) -> dict:
    """Constructive covering of the R-ball around the observed initial state:
    every grid target is solved for by invert_endpoint's chord Newton step
    from F(0) and DF(0) of one tangent run (endpoint_tangent), DF(0)
    inverted once, and the residuals are certified directly.  The targets
    are inverted, and so mapped as one stack, one block of sys.block_rows
    at a time: a target that needs a second map shares its step sequence
    only with targets of its own block.  rows_mapped counts the
    endpoint-map rows of the inversion plus the tangent run's 1 + d
    columns."""
    if grid_per_dim < 2:
        raise ValueError("grid_per_dim must be at least 2, got %r"
                         % (grid_per_dim,))
    if not 0 < residual_tol < np.inf:
        raise ValueError("residual_tol must be positive and finite, got %r"
                         % (residual_tol,))
    d = len(exp.observed_set)
    if fit_horizons is None:
        fit_horizons = [exp.horizon, exp.horizon / 2, exp.horizon / 4]
    fit = fit_deviation_slope(deviation_sweep(exp, fit_horizons, seed=seed))
    T0 = horizon_ceiling(exp, fit["C"])
    T = min(exp.horizon, T0)

    targets = _ball_grid(exp.radius, d, grid_per_dim)
    targets += exp.observed(exp._y0)
    F0, DF, tangent_stats = endpoint_tangent(exp.sys, exp.u0,
                                             exp.observed_set, T, exp.tol)
    inverse = np.linalg.inv(DF)
    # block-sized stacks; the impulses are not reported, so not kept
    residuals = np.empty(len(targets))
    iterations = np.empty(len(targets), dtype=int)
    for lo in range(0, len(targets), exp.sys.block_rows):
        rows = slice(lo, lo + exp.sys.block_rows)
        residuals[rows], iterations[rows] = invert_endpoint(
            lambda P: endpoint_map(exp, P, T), targets[rows], F0, inverse,
            residual_tol)[1:]

    failures = [{"target": targets[i].tolist(),
                 "residual": float(residuals[i])}
                for i in np.flatnonzero(residuals >= residual_tol)]
    return {
        "per_target": TargetRows(targets, residuals, iterations),
        "observed_dim": d,
        "C_fit": fit["C"],
        "deviation_slope": fit["slope"],
        "T0": T0,
        "T_used": T,
        "n_targets": len(targets),
        "max_residual": float(np.max(residuals)),
        "rows_mapped": int(np.sum(iterations)) + 1 + d,
        "tangent_integrator": asdict(tangent_stats),
        "failures": failures,
        "verdict": "pass" if not failures else "fail",
    }


# ---------------------------------------------------------------------------
# Vanishing-ramp oscillator


@dataclass
class OscillatorProfile:
    """Sine profile with linear ramps to zero at every breakpoint.  Each
    interval is three pieces: a ramp up from zero at its start, the sine,
    and a ramp down to zero at its end, each ramp rho long; the slope jumps
    where a ramp meets the sine."""

    breakpoints: np.ndarray
    w: float
    rho: np.ndarray  # ramp width per interval

    def pieces(self, i: int) -> list:
        """Interval i's ramp, sine and ramp pieces as (lo, hi) pairs."""
        a0, a1 = self.breakpoints[i], self.breakpoints[i + 1]
        r = self.rho[i]
        return [(a0, a0 + r), (a0 + r, a1 - r), (a1 - r, a1)]

    def piece_value(self, i: int, k: int, t, nu: int = 0):
        """Value (nu=0) or derivative (nu=1) of piece k of interval i at a
        time or an array of times, with t clamped into the piece: each piece
        keeps its own formula up to its ends, so roundoff at a corner never
        selects a neighbour's slope."""
        lo, hi = self.pieces(i)[k]
        one = isinstance(t, (int, float))
        t = min(max(t, lo), hi) if one else np.minimum(np.maximum(t, lo), hi)
        w = self.w
        if k == 1:
            # math.sin and math.cos for one time and for each of an array's,
            # so that both agree to the last bit
            f = math.sin if nu == 0 else math.cos
            s = f(w * t) if one else np.reshape(
                list(map(f, (w * t).ravel().tolist())), np.shape(t))
            return s if nu == 0 else w * s
        # a ramp is the line from zero at the interval's end to the sine at
        # its corner with the sine piece
        r = self.rho[i]
        slope, end = ((math.sin(w * hi) / r, lo) if k == 0
                      else (math.sin(w * lo) / (-r), hi))
        return slope * (t - end) if nu == 0 else slope


def make_phi_w(breakpoints, w: float) -> OscillatorProfile:
    if not 3 <= w < np.inf:
        raise ValueError("w must be at least 3 and finite, got %r" % (w,))
    bp = np.asarray(breakpoints, dtype=float)
    # NaN compares false, so a NaN breakpoint fails this test too
    if bp.ndim != 1 or len(bp) < 2 or not np.all(np.diff(bp) > 0):
        raise ValueError("breakpoints must be strictly increasing")
    if not np.all(np.isfinite(bp)):
        raise ValueError("breakpoints must be finite, got %r" % (bp.tolist(),))
    lengths = np.diff(bp)
    return OscillatorProfile(bp, float(w), lengths / w)


# ---------------------------------------------------------------------------
# Relaxation metric and delta metric


def rx_norm(g: PiecewiseConstant) -> float:
    """max over t1 < t2 of the l1 norm of the integral of g over [t1, t2].

    The l1 norm of a difference is its largest signed sum over sign vectors
    sigma, and sigma and -sigma spread the prefix integrals alike, so the
    2^(d-1) sign vectors with last entry -1 suffice."""
    d = g.values.shape[1]
    prefix = np.vstack([np.zeros(d), np.cumsum(
        g.values * np.diff(g.breakpoints)[:, None], axis=0)])
    bits = np.arange(1 << (d - 1))[:, None] >> np.arange(d) & 1
    signs = np.where(bits == 1, 1.0, -1.0)
    return max(float(np.ptp(prefix @ sigma)) for sigma in signs)


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    """np.unique(x) for a 1-D float array, without loading numpy.ma, which
    np.unique imports on its first call."""
    x = np.sort(x)
    return x[np.concatenate([[True], x[1:] != x[:-1]])]


def delta_metric(g: PiecewiseConstant, h: PiecewiseConstant) -> float:
    """Measure of the time set where the two signals differ."""
    knots = _sorted_unique(np.concatenate([g.breakpoints, h.breakpoints]))
    mid = 0.5 * (knots[:-1] + knots[1:])
    differ = np.any(g.value(mid) != h.value(mid), axis=1)
    return float(np.sum(np.diff(knots)[differ]))


# ---------------------------------------------------------------------------
# Relaxed-control approximation (chattering)


@dataclass
class RelaxedFamily:
    """Family of controls valued in the convex hull of a finite vertex set:
    shared piecewise-constant barycentric weights per parameter."""

    vertices: np.ndarray     # (r, control_dim)
    breakpoints: np.ndarray  # shared, length m+1
    weights: np.ndarray      # (n_params, m, r), rows sum to 1, nonnegative

    def __post_init__(self):
        self.vertices = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        self.breakpoints = np.asarray(self.breakpoints, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim == 2:
            self.weights = self.weights[None]
        if np.any(self.weights < -1e-12):
            raise ValueError("weights must be nonnegative")
        if not np.allclose(np.sum(self.weights, axis=2), 1.0, atol=1e-9):
            raise ValueError("weights must sum to one")


def push_to_interior(x: np.ndarray, n: int, K: float = 1.0) -> np.ndarray:
    """Shrink a weight vector toward the barycenter so every entry is at
    least theta = K/(n L); mass K is preserved exactly."""
    L = x.shape[-1]
    return (1 - 1 / n) * (x - K / L) + K / L


@dataclass
class ApproxResult:
    schedules: list          # per parameter: PiecewiseConstant vertex-valued
    n: int
    theta_eps: float
    rx_distances: list
    unchanged: bool = False


# Largest grid count n of approximate_relaxed: its schedules have n^2 r
# segments
N_CAP = 400


def approximate_relaxed(family: RelaxedFamily, eps: float) -> ApproxResult:
    """Replace hull-valued controls by vertex-valued chattering schedules.

    Weights are pushed to the interior simplex (mass preserved), the horizon
    is cut into n^2 cells, and inside each cell every vertex is held for
    exactly the time its weight integrates to; every interval then has length
    at least theta_eps = (T/n^2) * theta."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    verts = family.vertices
    bp = family.breakpoints
    r = verts.shape[0]
    T = bp[-1] - bp[0]
    if np.all((family.weights == 0.0) | (family.weights == 1.0)):
        scheds = [PiecewiseConstant(bp, verts[np.argmax(pw, axis=1)])
                  for pw in family.weights]
        return ApproxResult(scheds, 1, float(np.min(np.diff(bp))),
                            [0.0] * len(family.weights), unchanged=True)

    D = float(np.max(np.sum(np.abs(verts), axis=1)))
    gamma = eps / (2 * T * max(D, 1e-300) * r) / 2
    n = int(math.ceil((r + 1) / (r * gamma))) + 1
    if n > N_CAP:
        raise ValueError("required grid count n=%d exceeds cap %d; "
                         "increase eps" % (n, N_CAP))
    theta = 1.0 / (n * r)
    cell = T / n**2
    cells = bp[0] + cell * np.arange(n**2 + 1)
    # each cell holds the vertices in order
    chatter = np.tile(verts, (n**2, 1))
    scheds, rxs = [], []
    for pw in family.weights:
        # the pushed weights' integral from bp[0]: exact at the breakpoints
        # and linear between them, so read exactly at the cell edges
        acc = np.vstack([np.zeros(r), np.cumsum(
            push_to_interior(pw, n) * np.diff(bp)[:, None], axis=0)])
        durations = np.diff([np.interp(cells, bp, a) for a in acc.T], axis=1)
        bps = np.cumsum(np.concatenate([bp[:1], durations.T.ravel()]))
        bps[-1] = bp[-1]
        sched = PiecewiseConstant(bps, chatter)
        scheds.append(sched)
        orig = PiecewiseConstant(bp, pw @ verts)
        knots = _sorted_unique(np.concatenate([bps, bp]))
        mid = 0.5 * (knots[:-1] + knots[1:])
        rxs.append(rx_norm(PiecewiseConstant(
            knots, sched.value(mid) - orig.value(mid))))
    return ApproxResult(scheds, n, cell * theta, rxs)


# ---------------------------------------------------------------------------
# Tracking control


def tracking_control(sys: GalerkinSystem, q: Smooth, Q_init: SpectralField,
                     t0: float, t1: float, tol: float = 1e-8):
    """Feedforward control on the modes J = sys.controlled_set that makes
    the J-projection of the trajectory follow q exactly, by co-integrating
    the complement dynamics and cancelling the J-projected drift.  The
    control is one polynomial per step of that integration on [t0, t1],
    fitted at its nodes, where the complement comes from the integrator's
    dense output and q is read at a column of node times, one block of
    sys.block_rows nodes at a time as the dense output is.  Returns the
    control on [0, t1 - t0], which integrate replays from Q_init as it is,
    and the run's IntegratorStats."""
    idx_j = sys.ctrl_idx
    lam_c = sys.lam.copy()
    lam_c[idx_j] = 0.0

    def nonlin(z, t):
        full = z.copy()
        full[idx_j] = q.value(t)
        out = sys.quadratic_vec(full) + sys.forcing_vec
        out[idx_j] = 0.0
        return out

    if not t1 > t0:
        raise ValueError("tracking needs t1 > t0, got [%r, %r]" % (t0, t1))
    y0 = sys.to_vector(Q_init)
    y0[idx_j] = 0.0
    run = adaptive_lawson(lam_c, nonlin, y0, t0, t1, tol / 100,
                          max_step=q.max_step, dense=True)
    knots, steps, theta, nodes = run.fit_nodes(t1)
    values = np.empty((len(nodes), len(idx_j)))
    for lo in range(0, len(nodes), sys.block_rows):
        cols = slice(lo, lo + sys.block_rows)
        at = nodes[cols, None]
        full = run.dense(lam_c, steps[cols], theta[cols]).T
        full[idx_j] = np.broadcast_to(q.value(at), (len(at), len(idx_j))).T
        drift = (sys.quadratic_vec(full) + sys.lam[:, None] * full
                 + sys.forcing_vec[:, None])
        values[cols] = q.derivative(at) - drift[idx_j].T
    return PiecewisePolynomial.fit(
        knots - t0, values.reshape(len(knots) - 1, len(POLY_THETA), -1),
        max_step=q.max_step), run.stats


# ---------------------------------------------------------------------------
# Imitation


@dataclass
class VertexSchedule:
    """Piecewise-constant control taking values on the scaled direction
    vertices: each interval applies sign * xi * (a low-mode e_k or an
    interaction direction delta_{m,n}), or idles at zero."""

    breakpoints: np.ndarray
    labels: list  # ("e", mode, sign) | ("delta", (m, n), sign) | ("zero",)
    xi: float

    def __post_init__(self):
        self.breakpoints = np.asarray(self.breakpoints, dtype=float)
        if len(self.labels) != len(self.breakpoints) - 1:
            raise ValueError("one label per interval required")
        if not 0 < self.xi < np.inf:
            raise ValueError("xi must be positive and finite, got %r"
                             % (self.xi,))


def _label_rows(sys: GalerkinSystem, labels, xi: float) -> np.ndarray:
    """The literal control vector over sys.mode_set of each label, one row
    per label: sign * xi times e_k or the interaction direction
    delta_(m,n), zeros for ("zero",)."""
    rows = np.zeros((len(labels), sys.dim))
    deltas = [i for i, lab in enumerate(labels) if lab[0] == "delta"]
    if deltas:
        rows[deltas] = interaction_rows([labels[i][1] for i in deltas],
                                        sys.mode_set, *float_params(sys.geom))
    for row, lab in zip(rows, labels):
        if lab[0] == "e":
            row[sys.index[tuple(lab[1])]] = lab[2] * xi
        elif lab[0] == "delta":
            row *= lab[2] * xi
    return rows


@dataclass
class ImitationResult:
    """imitate's controls and end state, compared with the reference: the
    literal schedule on every mode from the same u0."""

    # per replayed piece: (t_lo, t_hi, the control over sys.controlled_set
    # that integrate replays over [0, t_hi - t_lo] as it is)
    controls: list
    gap: float             # H distance of the end state from the reference's
    pinning: list          # l1 gap of the J projection at each breakpoint
    end_state: np.ndarray
    stats: IntegratorStats  # every reference, tracking and replay run


def check_imitation(sys: GalerkinSystem, z: VertexSchedule, w: float,
                    tol: float):
    """imitate's checks of its arguments, made before any run: tol
    positive and finite, w and z's breakpoints as make_phi_w takes them, and
    every label on modes of J = sys.controlled_set, a delta on a pair m < n
    as interaction_rows takes it."""
    # checked as given: imitate's integrator runs receive tol / 10
    if not 0 < tol < np.inf:
        raise ValueError("tol must be positive and finite, got %r" % (tol,))
    make_phi_w(z.breakpoints, w)
    # the J control applies e_k, or oscillates e_m and e_n, on modes of J:
    # check (k,) of an e, (m, n) of a delta and () of a zero label
    for lab in z.labels:
        modes = lab[1] if lab[0] == "delta" else lab[1:2]
        if not {tuple(m) for m in modes} <= set(sys.controlled_set):
            raise ValueError("schedule label %r names a mode outside J"
                             % (lab,))
        if lab[0] == "delta" and not tuple(modes[0]) < tuple(modes[1]):
            raise ValueError("schedule label %r: a delta pair (m, n) needs "
                             "m < n" % (lab,))


def imitate(sys: GalerkinSystem, z: VertexSchedule, w: float,
            tol: float = 1e-8, u0: SpectralField = None) -> ImitationResult:
    """Synthesize a control on the modes J = sys.controlled_set whose
    trajectory imitates the schedule z: direct values are copied, and
    replayed by the reference run, while the trajectories still coincide;
    interaction-direction intervals are replaced by tracking the reference
    low-mode path plus the oscillation sqrt(2 xi) phi_w (e_m +- e_n), which
    self-interacts to the required direction on average, and each tracked
    piece is replayed once on sys.  The reference is carried interval by
    interval; a tracked interval's reference J-path is a PiecewisePolynomial
    fitted from its dense output."""
    check_imitation(sys, z, w, tol)
    J, idx_j = sys.controlled_set, sys.ctrl_idx
    j_pos = {k: i for i, k in enumerate(J)}
    values = _label_rows(sys, z.labels, z.xi)
    T = float(z.breakpoints[-1])
    if u0 is None:
        u0 = SpectralField(sys.geom, {})
    # integrate a notch tighter than the stated tolerance so the breakpoint
    # pinning bound has headroom over the accumulated replay error
    tol_in = tol / 10

    phi = make_phi_w(z.breakpoints, w)
    sqrt2xi = math.sqrt(2 * z.xi)

    state = sys.to_vector(u0)
    ref = state
    switched = False
    controls = []
    pinning = []
    stats = IntegratorStats()
    for i, lab in enumerate(z.labels):
        t_lo, t_hi = float(z.breakpoints[i]), float(z.breakpoints[i + 1])
        switched = switched or lab[0] == "delta"
        # the reference on this interval, stepped as integrate steps [0, T]
        run = adaptive_lawson(
            sys.lam, lambda y, t, _v=values[i]: (sys.quadratic_vec(y)
                                                 + sys.forcing_vec + _v),
            ref, t_lo, t_hi, tol_in, h_min=1e-13 * T, dense=switched)
        stats.add(run.stats)
        if not switched:
            # the J control applies the value itself (it lies in span(J)),
            # so the reference run is the controlled run and its replay
            state = run.end
            controls.append((t_lo, t_hi, PiecewiseConstant(
                [0.0, t_hi - t_lo], values[i][None, idx_j])))
        else:
            # the dense output is taken mode by mode: read the J modes only
            ref_knots, steps, theta, _ = run.fit_nodes(t_hi)
            path = run._replace(stages=run.stages[..., idx_j]).dense(
                sys.lam[idx_j], steps, theta)
            window = PiecewisePolynomial.fit(ref_knots, path.reshape(
                len(ref_knots) - 1, len(POLY_THETA), len(J)))
            slope = window.derivative()
            if lab[0] == "delta":
                (m, n), sign = lab[1], lab[2]
                osc = np.zeros(len(J))
                osc[j_pos[tuple(m)]] = sqrt2xi
                osc[j_pos[tuple(n)]] = sign * sqrt2xi
                max_step = min((t_hi - t_lo) / 8, 2 * math.pi / w / 12)
                # the profile's slope jumps at the ramp corners: tracking and
                # replaying each piece on its own puts every corner on a
                # segment end instead of inside a step the integrator rejects
                pieces = [(a, b, lambda t, nu, _k=k, _i=i, _o=osc:
                           phi.piece_value(_i, _k, t, nu) * _o)
                          for k, (a, b) in enumerate(phi.pieces(i))]
            else:
                max_step = (t_hi - t_lo) / 8
                pieces = [(t_lo, t_hi, lambda t, nu: 0.0)]
            for a, b, wave in pieces:
                q = Smooth(lambda t, _w=wave: window.value(t) + _w(t, 0),
                           lambda t, _w=wave: slope.value(t) + _w(t, 1),
                           max_step)
                v, track_stats = tracking_control(
                    sys, q, sys.to_field(state), t0=a, t1=b, tol=tol_in)
                # each piece is replayed on its own, in its own time, and
                # delivered as it was replayed
                tr = integrate(sys, sys.to_field(state), v, b - a, tol_in)
                state = tr.states[-1]
                stats.add(track_stats)
                stats.add(tr.stats)
                controls.append((float(a), float(b), v))
        ref = run.end
        pinning.append(float(np.sum(np.abs(state[idx_j] - ref[idx_j]))))

    gap = float(sys.h_norm(state - ref))
    return ImitationResult(controls, gap, pinning, state, stats)


# ---------------------------------------------------------------------------
# Cascade to K^1


# The cascade's horizon, the cycles each level's vertex schedule is split
# into, and the first and largest oscillation frequency of its imitation.
CASCADE_HORIZON, CASCADE_CYCLES, CASCADE_W0, CASCADE_W_CAP = \
    0.5, 3, 4000.0, 64000.0


def _direction_matrix(sys: GalerkinSystem, level: int):
    """Columns: e_k for k in K^(level-1) plus the interaction directions of
    the selection at level-1, as vectors over sys.mode_set."""
    a2, b2 = exact_squares(sys.geom)
    e_modes = [k for k in mode_set_K(level - 1)]
    pairs = selection_S(level - 1, square_mode=a2 == b2)
    labels = [("e", k, 1) for k in e_modes] + [("delta", p, 1) for p in pairs]
    return labels, _label_rows(sys, labels, 1.0)


def _cover(full_sys, u0, goal, level, tol):
    """First-order covering: the impulse on the modes of K^level, held
    constant over [0, CASCADE_HORIZON], whose end state matches goal on
    them, by invert_endpoint from F(0) and DF(0) of one endpoint_tangent
    run, each map one _end_states run.  Returns (impulse, l1 residual, end
    state)."""
    horizon = CASCADE_HORIZON
    modes = sorted(mode_set_K(level))
    idx = [full_sys.index[k] for k in modes]
    F0, DF, _ = endpoint_tangent(full_sys, u0, modes, horizon, tol)
    y0, ends = full_sys.to_vector(u0), []

    def F(P):
        ends.append(_end_states(full_sys, y0, idx, P, horizon, tol)[:, 0])
        return ends[-1][idx][None]
    p, res, _ = invert_endpoint(F, goal[idx][None], F0, np.linalg.inv(DF),
                                100 * tol)
    return p[0], float(res[0]), ends[-1]


def _build_schedule(labels, cols, masses, xi, width_floor=0.0):
    """Vertex schedule from per-cycle signed impulse masses, each cycle
    CASCADE_HORIZON / CASCADE_CYCLES long, over the directions cols[j] of
    labels[j].

    Cycle c applies each direction j for |masses[c, j]| / xi at value
    sign * xi * cols[j], then idles at zero for the rest of the cycle;
    the direction order alternates between cycles so the leading-order
    splitting error cancels in pairs.  Raises ValueError when a cycle
    cannot hold its requested durations.  Returns the VertexSchedule, the
    same schedule as a PiecewiseConstant control over the modes of cols,
    and its jumps.

    jumps, shape (len(bps), directions, masses.size), holds the
    derivative in each flattened mass of the state's jump at each
    breakpoint, as coefficients of the direction vectors.  Mass (c, j)
    moves the end of its interval and every later breakpoint of cycle c,
    but not the cycle end, by sign / xi, and a breakpoint moved by d
    changes the state by d times the control jump there, so xi cancels.  A
    mass at or under the width floor counts as a zero-width interval of
    sign +, the one-sided derivative."""
    masses = np.atleast_2d(masses)
    ncyc, nd = masses.shape
    cycle = CASCADE_HORIZON / CASCADE_CYCLES
    bps = [0.0]
    labs, values = [], []
    jumps = [np.zeros((nd, masses.size))]
    for c in range(ncyc):
        order = range(nd) if c % 2 == 0 else range(nd - 1, -1, -1)
        used = 0.0
        # the current interval's value over the directions (zero while
        # idle) and the signs of the masses that move its end
        u, movers = np.zeros(nd), np.zeros(masses.size)
        for j in order:
            width = abs(masses[c, j]) / xi
            floored = width <= max(width_floor, 1e-12)
            sign = 1 if floored or masses[c, j] >= 0 else -1
            v = np.zeros(nd)
            v[j] = sign
            jumps[-1] += np.outer(u - v, movers)
            u = v
            movers[c * nd + j] = sign
            if floored:
                continue
            kind, key, _ = labels[j]
            labs.append((kind, key, sign))
            values.append(sign * xi * cols[j])
            used += width
            bps.append(c * cycle + used)
            jumps.append(np.zeros((nd, masses.size)))
        if used > cycle * (1 - 1e-9):
            raise ValueError("overfull cycle: %g > %g" % (used, cycle))
        jumps[-1] += np.outer(u, movers)
        labs.append(("zero",))
        values.append(np.zeros(cols.shape[1]))
        bps.append((c + 1) * cycle)
        jumps.append(np.zeros((nd, masses.size)))
    bps = np.array(bps)
    return (VertexSchedule(bps, labs, xi), PiecewiseConstant(bps, values),
            np.array(jumps))


def _schedule_endpoint(full_sys, labels, cols, masses, xi, u0, tol):
    _, ctl, _ = _build_schedule(labels, cols, masses, xi)
    T = float(ctl.breakpoints[-1])
    return integrate(full_sys, u0, ctl, T, tol).states[-1]


def _schedule_jacobian(full_sys, labels, cols, masses, xi, u0, tol):
    """Derivative of the schedule's end state in the flattened masses,
    shape (dim, masses.size), from one integrate_tangent run: the masses
    move no control value, only breakpoints, so the tangent starts at zero
    and jumps at each breakpoint by the control jump times the
    breakpoint's shift per unit mass.  Raises ValueError where
    _build_schedule does."""
    _, ctl, jumps = _build_schedule(labels, cols, masses, xi)
    _, Z, _ = integrate_tangent(
        full_sys, u0, ctl, float(ctl.breakpoints[-1]),
        np.zeros((len(full_sys.controlled_set), jumps.shape[2])),
        [cols.T @ j for j in jumps], tol)
    return Z


def _solve_schedule(full_sys, level, y_goal, u0, tol, res_target, p):
    """Coarse vertex schedule over the level's direction family whose literal
    replay ends at y_goal, and its residual, from the impulse p of a
    first-order covering of y_goal on K^level (_cover); the schedule drops
    intervals at or under 1e-4 of a cycle, for the imitation.

    The family spans exactly the modes of K^level, so the K^level components
    respond at first order; the remaining components respond through the
    quadratic term and are reached by a damped Gauss-Newton iteration on the
    per-cycle masses, weighted so the residual is the H distance.  Its
    Jacobian is one tangent run (_schedule_jacobian); residuals and trial
    steps are checked on plain replays of the schedule.  The scale
    xi grows adaptively whenever a cycle overflows; the endpoint impulse
    masses are invariant under that rescaling."""
    span = tuple(sorted(mode_set_K(level)))
    idx = np.array([full_sys.index[k] for k in span], dtype=int)
    horizon, n_cycles = CASCADE_HORIZON, CASCADE_CYCLES
    cycle = horizon / n_cycles
    labels, cols = _direction_matrix(full_sys, level)

    # initial guess: the covering impulse decomposed exactly over the
    # direction family (a square system)
    alpha = np.linalg.solve(cols.T[idx], p / horizon)

    masses = np.tile(alpha * cycle, (n_cycles, 1)).ravel()
    # when the goal has components outside the family's span the masses must
    # grow well past the first-order decomposition to reach them through the
    # quadratic term, so leave generous headroom in the vertex scale
    first_order = set(span) >= set(full_sys.mode_set)
    xi = max((4.0 if first_order else 30.0) * float(np.sum(np.abs(alpha))),
             1e-6)
    max_iter = 30 if first_order else 120
    sw = np.sqrt(full_sys.h_weights)

    def endpoint(m, x):
        return _schedule_endpoint(full_sys, labels, cols,
                                  m.reshape(n_cycles, -1), x, u0, tol)

    ep = endpoint(masses, xi)
    r = sw * (ep - y_goal)
    mu = 1e-4
    for _ in range(max_iter):
        if np.linalg.norm(r) < res_target:
            break
        J = sw[:, None] * _schedule_jacobian(
            full_sys, labels, cols, masses.reshape(n_cycles, -1), xi, u0, tol)
        improved = False
        for _ in range(25):
            step = np.linalg.solve(J.T @ J + mu * np.eye(len(masses)),
                                   J.T @ (-r))
            cap = np.max(np.abs(step))
            if cap > 0.05:
                step *= 0.05 / cap
            try:
                epn = endpoint(masses + step, xi)
            except ValueError:
                xi *= 1.5
                ep = endpoint(masses, xi)
                r = sw * (ep - y_goal)
                continue
            rn = sw * (epn - y_goal)
            if rn @ rn < r @ r:
                masses, r, ep = masses + step, rn, epn
                mu = max(mu / 3, 1e-10)
                improved = True
                break
            mu *= 4
        if not improved:
            break
    z = _build_schedule(labels, cols, masses.reshape(n_cycles, -1), xi,
                        width_floor=1e-4 * cycle)[0]
    return z, float(np.linalg.norm(r))


@dataclass
class CascadeStep:
    level: int
    xi: float
    n_cycles: int
    w: float
    solver_residual: float
    step_deviation: float
    budget: float
    intervals: int


def cascade_to_K1(sys: GalerkinSystem, target: SpectralField, eps: float,
                  u0: SpectralField = None, tol: float = 1e-8) -> dict:
    """Reach the target approximately with a control on K^1 only, which
    must be sys.controlled_set.

    A fully actuated covering step matches the projection of the target onto
    the smallest K^M carrying all but eps/2 of it.  Then, level by level,
    a coarse vertex schedule over the next-lower direction family is solved
    to reproduce the previous end state, and its interaction directions are
    imitated by fast oscillation of the lower modes; each level's end-state
    drift must stay within eps/(2M), doubling the oscillation frequency from
    CASCADE_W0 up to CASCADE_W_CAP before reporting failure."""
    if set(sys.controlled_set) != set(mode_set_K(1)):
        raise ValueError("controlled_set must be K^1: the cascade acts on it")
    # NaN compares false, so this test rejects it too
    if not 0 < eps < np.inf:
        raise ValueError("eps must be positive and finite, got %r" % (eps,))
    if u0 is None:
        u0 = SpectralField(sys.geom, {})
    n_level = infer_level(sys.mode_set)

    def tail_norm(modes):
        """H norm of the target outside modes."""
        return SpectralField(sys.geom, {k: v for k, v in target.coeffs.items()
                                        if k not in modes}).norm("H")

    m_level = 1
    while tail_norm(set(mode_set_K(m_level))) >= eps / 2:
        m_level += 1
        if m_level > n_level:
            raise ValueError("target tail beyond the system's levels "
                             "exceeds eps/2")
    budget = eps / (2 * m_level)

    # covering at level M, actuated on the K^M modes
    full_sys = GalerkinSystem(sys.geom, sys.nu, sys.forcing, sys.mode_set,
                              sys.mode_set)
    # the target on mode_set: _cover reads its K^M part
    inside = sys.to_vector(SpectralField(
        sys.geom, {k: target[k] for k in target.coeffs if k in sys.index}))
    p, covering_residual, y_prev = _cover(full_sys, u0, inside, m_level, tol)

    steps = []
    final_control = None
    for level in range(m_level, 1, -1):
        # level M's covering already ends at y_prev: start from its impulse
        z, solver_res = _solve_schedule(
            full_sys, level, y_prev, u0, tol, budget / 8,
            p if level == m_level else _cover(full_sys, u0, y_prev, level,
                                              tol)[0])
        # the last level imitates on sys itself, whose controlled set is K^1
        level_sys = sys if level == 2 else GalerkinSystem(
            sys.geom, sys.nu, sys.forcing, sys.mode_set, mode_set_K(level - 1))
        w = CASCADE_W0
        while True:
            res = imitate(level_sys, z, w, tol, u0=u0)
            dev = float(sys.h_norm(res.end_state - y_prev))
            if dev <= budget or w >= CASCADE_W_CAP:
                break
            w *= 2
        step_index = m_level - level + 1
        steps.append(CascadeStep(level, z.xi, CASCADE_CYCLES, w, solver_res,
                                 dev, budget, len(z.labels)))
        if dev > budget:
            raise RuntimeError(
                "cascade step %d (level %d -> %d) exceeded its budget at the "
                "w cap: deviation %.3g > %.3g at w = %g"
                % (step_index, level, level - 1, dev, budget, w))
        y_prev = res.end_state
        final_control = res.controls

    if final_control is None:
        # target already supported in K^1 = K^M: the covering control suffices
        final_control = [(0.0, CASCADE_HORIZON, PiecewiseConstant(
            [0.0, CASCADE_HORIZON], [p / CASCADE_HORIZON]))]

    distance = math.sqrt(sys.h_norm(y_prev - inside) ** 2
                         + tail_norm(sys.index) ** 2)
    return {
        "M": m_level,
        "budget_per_step": budget,
        "covering_residual": covering_residual,
        "steps": steps,
        "final_control": final_control,
        "achieved_distance": distance,
        "verdict": "pass" if distance < eps else "fail",
    }
