"""Control synthesis for the truncated system: endpoint maps and covering
experiments, feedforward tracking of low-mode targets, the vanishing-ramp
oscillator, relaxed-control (chattering) approximation, imitation of
interaction-direction controls by fast oscillation, and the cascade that
reduces everything to controls on the eight lowest modes.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import linprog
from scipy.special import lambertw

from .dynamics import (GalerkinSystem, PiecewiseConstant, Smooth,
                       adaptive_lawson, integrate)
from .nonlinearity import interaction_coeffs
from .saturation import mode_set_K, selection_S
from .spectral import SpectralField, kbar


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
        if self.gamma_infl <= 1:
            raise ValueError("inflation factor must exceed 1")
        if self.horizon <= 0 or self.radius <= 0:
            raise ValueError("horizon and radius must be positive")
        self._obs_idx = [self.sys._index[k] for k in self.observed_set]

    def observed(self, y: np.ndarray) -> np.ndarray:
        return y[self._obs_idx]


def endpoint_map(exp: EndpointExperiment, p: np.ndarray,
                 T: float = None) -> np.ndarray:
    """End-state observation under the constant control p/T on the observed
    modes.

    p is one impulse of shape (d,) or a stack of impulses of shape (B, d),
    giving one observation per row.  A stack is integrated in blocks of
    sys.block_rows rows; each block shares one step sequence whose error
    control holds for every row."""
    p = np.asarray(p, dtype=float)
    T = exp.horizon if T is None else T
    if not 0 < T < np.inf:
        raise ValueError("horizon must be positive and finite, got %r" % (T,))
    if np.any(np.sum(np.abs(p), axis=-1)
              >= exp.gamma_infl * exp.radius * (1 + 1e-12)):
        raise ValueError("control impulse leaves the inflated ball")
    sys = exp.sys
    stack = np.atleast_2d(p)
    y0 = sys.to_vector(exp.u0)
    out = np.empty_like(stack)
    for lo in range(0, len(stack), sys.block_rows):
        block = stack[lo:lo + sys.block_rows]
        drift = np.repeat(sys._f[:, None], len(block), axis=1)
        drift[exp._obs_idx] += block.T / T

        def nonlin(z, t):
            return sys.quadratic_vec(z) + drift
        _, states = adaptive_lawson(
            sys._lam[:, None], nonlin,
            np.repeat(y0[:, None], len(block), axis=1), 0.0, T, exp.tol)
        out[lo:lo + len(block)] = exp.observed(states[-1]).T
    return out if p.ndim == 2 else out[0]


def reference_map(exp: EndpointExperiment, p: np.ndarray) -> np.ndarray:
    """Zero-horizon idealization: observed initial state plus the impulse."""
    return exp.observed(exp.sys.to_vector(exp.u0)) + np.asarray(p, dtype=float)


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


def fit_deviation_slope(rows) -> dict:
    """Least-squares slope of log deviation against log(T e^T), and the
    prefactor C with deviation <= C [T e^T]^(1/2) over the sweep."""
    x = np.log([r["x_axis"] for r in rows])
    y = np.log([r["sup_deviation"] for r in rows])
    slope, intercept = np.polyfit(x, y, 1)
    C = max(r["sup_deviation"] / math.sqrt(r["x_axis"]) for r in rows)
    return {"slope": float(slope), "intercept": float(intercept), "C": float(C)}


def horizon_ceiling(exp: EndpointExperiment, C: float) -> float:
    """The largest admissible horizon: solves T e^T = ((gamma-1) R / (2 d C))^2."""
    d = len(exp.observed_set)
    x = ((exp.gamma_infl - 1) * exp.radius / (2 * d * C)) ** 2
    return float(lambertw(x).real)


def covering_check(exp: EndpointExperiment, grid_per_dim: int = 3,
                   fit_horizons=None, max_iter: int = 60,
                   residual_tol: float = 1e-6, seed: int = 0) -> dict:
    """Constructive covering of the R-ball around the observed initial state:
    every grid target is solved for by damped fixed-point inversion of the
    endpoint map, and the residuals are certified directly."""
    d = len(exp.observed_set)
    if fit_horizons is None:
        fit_horizons = [exp.horizon, exp.horizon / 2, exp.horizon / 4]
    fit = fit_deviation_slope(deviation_sweep(exp, fit_horizons, seed=seed))
    T0 = horizon_ceiling(exp, fit["C"])
    T = min(exp.horizon, T0)
    center = exp.observed(exp.sys.to_vector(exp.u0))

    axes = np.linspace(-exp.radius, exp.radius, grid_per_dim)
    grids = np.meshgrid(*([axes] * d), indexing="ij")
    offsets = np.stack([g.ravel() for g in grids], axis=-1)
    # pull cube corners into the closed l1 ball
    norms = np.sum(np.abs(offsets), axis=1)
    scale = np.minimum(1.0, exp.radius / np.where(norms == 0, 1.0, norms))
    offsets = offsets * scale[:, None]

    # every target runs its own damped fixed-point iteration p <- p + r;
    # the targets still iterating are mapped as one stack per sweep
    targets = center + offsets
    p = offsets.copy()
    residuals = np.zeros(len(offsets))
    iterations = np.zeros(len(offsets), dtype=int)
    active = np.arange(len(offsets))
    for it in range(max_iter):
        r = targets[active] - endpoint_map(exp, p[active], T)
        res = np.sum(np.abs(r), axis=1)
        residuals[active] = res
        iterations[active] = it + 1
        going = res >= residual_tol
        active = active[going]
        if not len(active):
            break
        p[active] += r[going]

    rows = []
    failures = []
    for target, res, its in zip(targets.tolist(), residuals.tolist(),
                                iterations.tolist()):
        rows.append({"target": target, "residual": res, "iterations": its})
        if res >= residual_tol:
            failures.append({"target": target, "residual": res})
    return {
        "per_target": rows,
        "observed_dim": d,
        "C_fit": fit["C"],
        "deviation_slope": fit["slope"],
        "T0": T0,
        "T_used": T,
        "n_targets": len(offsets),
        "max_residual": float(np.max(residuals)),
        "failures": failures,
        "verdict": "pass" if not failures else "fail",
    }


# ---------------------------------------------------------------------------
# Vanishing-ramp oscillator


@dataclass
class OscillatorProfile:
    """Sine profile with linear ramps to zero at every breakpoint."""

    breakpoints: np.ndarray
    w: float
    rho: np.ndarray  # ramp width per interval

    def _locate(self, t: float) -> int:
        i = int(np.searchsorted(self.breakpoints, t, side="right")) - 1
        return min(max(i, 0), len(self.rho) - 1)

    def value_in(self, i: int, t: float) -> float:
        """Value using interval i's ramp, with t clamped into the interval;
        at a shared breakpoint the two intervals agree (both vanish), but
        their ramp slopes differ, so boundary evaluations must name the
        interval explicitly."""
        a0, a1 = self.breakpoints[i], self.breakpoints[i + 1]
        t = min(max(t, a0), a1)
        r, w = self.rho[i], self.w
        if t <= a0 + r:
            return math.sin(w * (a0 + r)) / r * (t - a0)
        if t >= a1 - r:
            return math.sin(w * (a1 - r)) / (-r) * (t - a1)
        return math.sin(w * t)

    def derivative_in(self, i: int, t: float) -> float:
        a0, a1 = self.breakpoints[i], self.breakpoints[i + 1]
        t = min(max(t, a0), a1)
        r, w = self.rho[i], self.w
        if t <= a0 + r:
            return math.sin(w * (a0 + r)) / r
        if t >= a1 - r:
            return -math.sin(w * (a1 - r)) / r
        return w * math.cos(w * t)

    def value(self, t: float) -> float:
        return self.value_in(self._locate(t), t)

    def derivative(self, t: float) -> float:
        return self.derivative_in(self._locate(t), t)

    def sine_mismatch_measure(self) -> float:
        return float(2 * np.sum(self.rho))


def make_phi_w(breakpoints, w: float) -> OscillatorProfile:
    if w < 3:
        raise ValueError("oscillator frequency must be >= 3")
    bp = np.asarray(breakpoints, dtype=float)
    if bp.ndim != 1 or len(bp) < 2 or np.any(np.diff(bp) <= 0):
        raise ValueError("breakpoints must be strictly increasing")
    lengths = np.diff(bp)
    return OscillatorProfile(bp, float(w), lengths / w)


# ---------------------------------------------------------------------------
# Relaxation metric and delta metric


def _as_pwc(g):
    if isinstance(g, PiecewiseConstant):
        return g.breakpoints, np.atleast_2d(g.values)
    bp, vals = g
    return np.asarray(bp, dtype=float), np.atleast_2d(np.asarray(vals, dtype=float))


def rx_norm(g) -> float:
    """max over t1 < t2 of the l1 norm of the integral of g over [t1, t2]."""
    bp, vals = _as_pwc(g)
    dt = np.diff(bp)
    prefix = np.vstack([np.zeros(vals.shape[1]),
                        np.cumsum(vals * dt[:, None], axis=0)])
    d = vals.shape[1]
    if d <= 12:
        # l1 of a difference = max over sign patterns of the signed difference
        best = 0.0
        for mask in range(1 << d):
            sig = np.array([1.0 if mask >> i & 1 else -1.0 for i in range(d)])
            proj = prefix @ sig
            best = max(best, float(np.max(proj) - np.min(proj)))
        return best
    best = 0.0
    for i in range(len(prefix)):
        best = max(best, float(np.max(
            np.sum(np.abs(prefix[i + 1:] - prefix[i]), axis=1), initial=0.0)))
    return best


def delta_metric(g, h) -> float:
    """Measure of the time set where the two signals differ."""
    bp_g, vg = _as_pwc(g)
    bp_h, vh = _as_pwc(h)
    knots = np.unique(np.concatenate([bp_g, bp_h]))
    total = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        mid = 0.5 * (lo + hi)
        ig = min(max(int(np.searchsorted(bp_g, mid) - 1), 0), len(vg) - 1)
        ih = min(max(int(np.searchsorted(bp_h, mid) - 1), 0), len(vh) - 1)
        if not np.array_equal(vg[ig], vh[ih]):
            total += hi - lo
    return float(total)


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

    def control(self, param: int = 0) -> PiecewiseConstant:
        return PiecewiseConstant(self.breakpoints,
                                 self.weights[param] @ self.vertices)


def push_to_interior(x: np.ndarray, n: int, K: float = 1.0) -> np.ndarray:
    """Shrink a weight vector toward the barycenter so every entry is at
    least theta = K/(n L); mass K is preserved exactly."""
    L = x.shape[-1]
    return (1 - 1 / n) * (x - K / L) + K / L


@dataclass
class ApproxResult:
    schedules: list          # per parameter: PiecewiseConstant vertex-valued
    vertex_indices: list     # per parameter: vertex index per interval
    n: int
    theta: float
    theta_eps: float
    rx_distances: list
    unchanged: bool = False


def approximate_relaxed(family: RelaxedFamily, eps: float,
                        n_override: int = None, n_cap: int = 400,
                        measure_rx: bool = True) -> ApproxResult:
    """Replace hull-valued controls by vertex-valued chattering schedules.

    Weights are pushed to the interior simplex (mass preserved), the horizon
    is cut into n^2 cells, and inside each cell every vertex is held for
    exactly the time its weight integrates to; every interval then has length
    at least theta_eps = (T/n^2) * theta."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    verts = family.vertices
    r = verts.shape[0]
    T = family.breakpoints[-1] - family.breakpoints[0]
    if np.all((family.weights == 0.0) | (family.weights == 1.0)):
        scheds, idxs = [], []
        for pw in family.weights:
            idx = [int(np.argmax(row)) for row in pw]
            scheds.append(PiecewiseConstant(family.breakpoints, verts[idx]))
            idxs.append(idx)
        return ApproxResult(scheds, idxs, 1, 1.0,
                            float(np.min(np.diff(family.breakpoints))),
                            [0.0] * len(family.weights), unchanged=True)

    D = float(np.max(np.sum(np.abs(verts), axis=1)))
    if n_override is not None:
        n = n_override
    else:
        gamma = eps / (2 * T * max(D, 1e-300) * r) / 2
        n = int(math.ceil((r + 1) / (r * gamma))) + 1
    if n > n_cap:
        raise ValueError("required grid count n=%d exceeds cap %d; "
                         "increase eps or the cap" % (n, n_cap))
    theta = 1.0 / (n * r)
    cell = T / n**2
    theta_eps = cell * theta
    cells = family.breakpoints[0] + cell * np.arange(n**2 + 1)

    def integrate_weights(pw, lo, hi):
        """Exact integral of the pushed weight signal over [lo, hi]."""
        acc = np.zeros(r)
        i0 = max(int(np.searchsorted(family.breakpoints, lo, side="right")) - 1, 0)
        i = i0
        t = lo
        while t < hi - 1e-15 * T and i < len(pw):
            seg_hi = min(hi, family.breakpoints[i + 1])
            acc += push_to_interior(pw[i], n) * (seg_hi - t)
            t = seg_hi
            i += 1
        return acc

    scheds, idxs, rxs = [], [], []
    for p, pw in enumerate(family.weights):
        bps = [family.breakpoints[0]]
        vidx = []
        for c in range(n**2):
            durations = integrate_weights(pw, cells[c], cells[c + 1])
            t = bps[-1]
            for j in range(r):
                t += durations[j]
                bps.append(t)
                vidx.append(j)
        bps = np.array(bps)
        bps[-1] = family.breakpoints[-1]
        sched = PiecewiseConstant(bps, verts[vidx])
        scheds.append(sched)
        idxs.append(vidx)
        if measure_rx:
            orig = family.control(p)
            knots = np.unique(np.concatenate([bps, orig.breakpoints]))
            diff = np.array([sched.value(0.5 * (a + b)) - orig.value(0.5 * (a + b))
                             for a, b in zip(knots[:-1], knots[1:])])
            rxs.append(rx_norm((knots, diff)))
        else:
            rxs.append(float("nan"))
    return ApproxResult(scheds, idxs, n, theta, theta_eps, rxs)


def hull_scale(values, directions) -> tuple:
    """Smallest Xi with every value in Conv{+-Xi d_i}: per value, linear
    program minimizing the total absolute decomposition weight."""
    directions = np.asarray(directions, dtype=float)
    nd = directions.shape[0]
    coeffs = []
    xi = 0.0
    for v in np.atleast_2d(np.asarray(values, dtype=float)):
        a_eq = np.hstack([directions.T, -directions.T])
        res = linprog(np.ones(2 * nd), A_eq=a_eq, b_eq=v,
                      bounds=[(0, None)] * (2 * nd), method="highs")
        if not res.success:
            raise ValueError("value outside the span of the directions")
        alpha = res.x[:nd] - res.x[nd:]
        coeffs.append(alpha)
        xi = max(xi, float(np.sum(np.abs(alpha))))
    return xi, np.array(coeffs)


# ---------------------------------------------------------------------------
# Tracking control


class TrackedControl(Smooth):
    """Smooth feedforward control with the co-integrated complement attached."""

    def __init__(self, value, derivative, max_step, times, states):
        super().__init__(value=value, derivative=derivative, max_step=max_step)
        self.times = times
        self.states = states


def tracking_control(sys: GalerkinSystem, J, q: Smooth,
                     Q_init: SpectralField, t0: float = 0.0, t1: float = None,
                     tol: float = 1e-8) -> TrackedControl:
    """Feedforward control on the modes J that makes the J-projection of the
    trajectory follow q exactly, by co-integrating the complement dynamics
    and cancelling the J-projected drift."""
    J = tuple(sorted(tuple(k) for k in J))
    if not set(J) <= set(sys.mode_set):
        raise ValueError("J must lie in mode_set")
    if t1 is None:
        t1 = t0 + 1.0
    idx_j = np.array([sys._index[k] for k in J], dtype=int)
    lam_c = sys._lam.copy()
    lam_c[idx_j] = 0.0

    def embed(qv):
        full = np.zeros(sys.dim)
        full[idx_j] = qv
        return full

    def nonlin(z, t):
        full = z + embed(q.value(t))
        out = sys.quadratic_vec(full) + sys._f
        out[idx_j] = 0.0
        return out

    y0 = sys.to_vector(Q_init)
    y0[idx_j] = 0.0
    # the returned control reads the complement through a cubic interpolant,
    # whose O(h^4) error must stay below tol; cap the knot spacing accordingly
    lmax = float(np.max(np.abs(lam_c))) if sys.dim else 1.0
    step_cap = (384.0 * tol / max(lmax, 1.0) ** 4) ** 0.25
    times, states = adaptive_lawson(lam_c, nonlin, y0, t0, t1, tol / 100,
                                    max_step=min(getattr(q, "max_step", np.inf),
                                                 step_cap))
    times = np.array(times)
    states = np.array(states)
    if len(times) >= 2:
        spline = CubicSpline(times, states, axis=0)
    else:
        spline = lambda t: states[0]

    def value(t):
        full = np.asarray(spline(min(max(t, t0), t1)), dtype=float).copy()
        full[idx_j] = q.value(t)
        drift = sys.quadratic_vec(full) + sys._lam * full + sys._f
        return q.derivative(t) - drift[idx_j]

    return TrackedControl(value=value, derivative=None,
                          max_step=getattr(q, "max_step", np.inf),
                          times=times, states=states)


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

    def full_values(self, sys: GalerkinSystem) -> np.ndarray:
        """The literal control vectors over sys.mode_set."""
        out = np.zeros((len(self.labels), sys.dim))
        for i, lab in enumerate(self.labels):
            out[i] = _label_vector(sys, lab, self.xi)
        return out

    def has_second_kind(self) -> bool:
        return any(lab[0] == "delta" for lab in self.labels)


def _label_vector(sys: GalerkinSystem, lab, xi: float) -> np.ndarray:
    out = np.zeros(sys.dim)
    if lab[0] == "zero":
        return out
    if lab[0] == "e":
        out[sys._index[tuple(lab[1])]] = lab[2] * xi
        return out
    m, n = lab[1]
    for k, c in interaction_coeffs(tuple(m), tuple(n), sys.geom).items():
        if k in sys._index:
            out[sys._index[k]] += lab[2] * xi * c
    return out


def _infer_levels(sys: GalerkinSystem):
    size = len(sys.mode_set)
    n = int(round(math.sqrt(size + 1))) - 2
    if tuple(sorted(mode_set_K(n))) != sys.mode_set:
        raise ValueError("mode_set is not of the form K^N")
    return n


@dataclass
class ImitationResult:
    controls: list         # per interval: (t_lo, t_hi, Smooth over J or const vector)
    gap: float             # H distance of end states
    pinning: list          # l1 gap of the J projection at each breakpoint
    end_state: np.ndarray
    reference_end: np.ndarray
    J: tuple


def imitate(sys: GalerkinSystem, z: VertexSchedule, w: float,
            tol: float = 1e-8, J=None, u0: SpectralField = None) -> ImitationResult:
    """Synthesize a control on the modes J = K^(N-1) whose trajectory imitates
    the schedule z: direct values are copied while the trajectories still
    coincide; interaction-direction intervals are replaced by tracking the
    reference low-mode path plus the oscillation sqrt(2 xi) phi_w (e_m +- e_n),
    which self-interacts to the required direction on average."""
    n_level = _infer_levels(sys)
    if J is None:
        J = tuple(sorted(mode_set_K(n_level - 1))) if n_level > 1 \
            else sys.controlled_set
    else:
        J = tuple(sorted(tuple(k) for k in J))
    idx_j = np.array([sys._index[k] for k in J], dtype=int)
    j_pos = {k: i for i, k in enumerate(J)}

    ref_sys = GalerkinSystem(sys.geom, sys.nu, sys.forcing, sys.mode_set,
                             sys.mode_set)
    ref_ctl = PiecewiseConstant(z.breakpoints, z.full_values(sys))
    T = float(z.breakpoints[-1])
    if u0 is None:
        u0 = SpectralField(sys.geom, {})
    # integrate a notch tighter than the stated tolerance so the breakpoint
    # pinning bound has headroom over the accumulated replay error
    tol_in = tol / 10
    ref = integrate(ref_sys, u0, ref_ctl, T, tol_in)
    ctl_sys = GalerkinSystem(sys.geom, sys.nu, sys.forcing, sys.mode_set, J)

    phi = make_phi_w(z.breakpoints, w)
    sqrt2xi = math.sqrt(2 * z.xi)

    state = sys.to_vector(u0)
    switched = False
    controls = []
    pinning = []
    for i, lab in enumerate(z.labels):
        t_lo, t_hi = float(z.breakpoints[i]), float(z.breakpoints[i + 1])
        if lab[0] != "delta" and not switched:
            vec = _label_vector(sys, lab, z.xi)
            if np.any(vec[np.setdiff1d(np.arange(sys.dim), idx_j)] != 0.0):
                raise ValueError("direct interval value leaves span(J)")
            ctl = PiecewiseConstant([0.0, t_hi - t_lo], [vec[idx_j]])
            tr = integrate(ctl_sys, sys.to_field(state), ctl, t_hi - t_lo,
                           tol_in)
            state = tr.states[-1]
            controls.append((t_lo, t_hi, vec[idx_j]))
        else:
            switched = True
            lo = int(np.searchsorted(ref.times, t_lo - 1e-12, side="left"))
            hi = int(np.searchsorted(ref.times, t_hi + 1e-12, side="right"))
            qspl = CubicSpline(ref.times[lo:hi], ref.states[lo:hi, idx_j],
                               axis=0)
            if lab[0] == "delta":
                (m, n), sign = lab[1], lab[2]
                osc = np.zeros(len(J))
                osc[j_pos[tuple(m)]] = 1.0
                osc[j_pos[tuple(n)]] = sign
                # evaluate the profile on this interval's ramp only, so
                # roundoff past an endpoint never samples the (possibly much
                # thinner) ramp of a neighbouring interval
                def qval(t, _s=qspl, _o=osc, _i=i, _lo=t_lo, _hi=t_hi):
                    return _s(min(max(t, _lo), _hi)) \
                        + sqrt2xi * phi.value_in(_i, t) * _o
                def qder(t, _s=qspl, _o=osc, _i=i, _lo=t_lo, _hi=t_hi):
                    return _s(min(max(t, _lo), _hi), 1) \
                        + sqrt2xi * phi.derivative_in(_i, t) * _o
                max_step = min((t_hi - t_lo) / 8, 2 * math.pi / w / 12)
            else:
                def qval(t, _s=qspl):
                    return _s(t)
                def qder(t, _s=qspl):
                    return _s(t, 1)
                max_step = (t_hi - t_lo) / 8
            q = Smooth(value=qval, derivative=qder, max_step=max_step)
            v = tracking_control(sys, J, q, sys.to_field(state),
                                 t0=t_lo, t1=t_hi, tol=tol_in)
            shifted = Smooth(value=lambda s, _v=v, _t0=t_lo: _v.value(_t0 + s),
                             derivative=None, max_step=max_step)
            tr = integrate(ctl_sys, sys.to_field(state), shifted,
                           t_hi - t_lo, tol_in)
            state = tr.states[-1]
            controls.append((t_lo, t_hi, v))
        ref_here = ref._spline()(t_hi)
        pinning.append(float(np.sum(np.abs(state[idx_j] - ref_here[idx_j]))))

    w_h = (sys.geom.a * sys.geom.b / 4) * np.array(
        [-kbar(k, sys.geom) for k in sys.mode_set])
    gap = float(np.sqrt(np.sum(w_h * (state - ref.states[-1]) ** 2)))
    return ImitationResult(controls, gap, pinning, state, ref.states[-1], J)


def imitation_sweep(sys: GalerkinSystem, z: VertexSchedule, ws,
                    tol: float = 1e-8, u0: SpectralField = None) -> dict:
    """Gap versus oscillation frequency, with the fitted log-log slope."""
    gaps = []
    for w in ws:
        gaps.append(imitate(sys, z, w, tol, u0=u0).gap)
    slope = float(np.polyfit(np.log(ws), np.log(gaps), 1)[0])
    return {"w": list(ws), "gap": gaps, "slope": slope}


# ---------------------------------------------------------------------------
# Cascade to K^1


def _direction_matrix(sys: GalerkinSystem, level: int):
    """Columns: e_k for k in K^(level-1) plus the interaction directions of
    the selection at level-1, as vectors over sys.mode_set."""
    square = sys.geom.a == sys.geom.b
    e_modes = [k for k in mode_set_K(level - 1)]
    pairs = selection_S(level - 1, square_mode=square)
    labels = [("e", k, 1) for k in e_modes] + [("delta", p, 1) for p in pairs]
    cols = np.stack([_label_vector(sys, lab, 1.0) for lab in labels])
    return labels, cols




def _build_schedule(labels, masses, xi, cycle, width_floor=0.0):
    """Vertex schedule from per-cycle signed impulse masses.

    Cycle c applies each direction j for |masses[c, j]| / xi at value
    sign * xi * direction, then idles at zero for the rest of the cycle;
    the direction order alternates between cycles so the leading-order
    splitting error cancels in pairs.  Raises ValueError when a cycle
    cannot hold its requested durations."""
    masses = np.atleast_2d(masses)
    ncyc, nd = masses.shape
    bps = [0.0]
    labs = []
    for c in range(ncyc):
        order = range(nd) if c % 2 == 0 else range(nd - 1, -1, -1)
        used = 0.0
        for j in order:
            width = abs(masses[c, j]) / xi
            if width <= max(width_floor, 1e-12):
                continue
            kind, key, _ = labels[j]
            labs.append((kind, key, 1 if masses[c, j] >= 0 else -1))
            used += width
            bps.append(c * cycle + used)
        if used > cycle * (1 - 1e-9):
            raise ValueError("overfull cycle: %g > %g" % (used, cycle))
        labs.append(("zero",))
        bps.append((c + 1) * cycle)
    return np.array(bps), labs


def _schedule_endpoint(full_sys, labels, masses, xi, cycle, u0, tol,
                       width_floor=0.0):
    bps, labs = _build_schedule(labels, masses, xi, cycle, width_floor)
    vals = np.array([_label_vector(full_sys, lab, xi) for lab in labs])
    tr = integrate(full_sys, u0, PiecewiseConstant(bps, vals),
                   float(bps[-1]), tol)
    return tr.states[-1]


def _solve_schedule(sys, full_sys, labels, cols, level, y_goal, horizon, u0,
                    n_cycles, tol, res_target):
    """Coarse vertex schedule over the level's direction family whose literal
    replay ends at y_goal.

    The family spans exactly the modes of K^level, so the K^level components
    respond at first order; the remaining components respond through the
    quadratic term and are reached by a damped Gauss-Newton iteration on the
    per-cycle masses, weighted so the residual is the H distance.  The scale
    xi grows adaptively whenever a cycle overflows; the endpoint impulse
    masses are invariant under that rescaling."""
    span = tuple(sorted(mode_set_K(level)))
    idx = np.array([sys._index[k] for k in span], dtype=int)
    y0 = sys.to_vector(u0)
    cycle = horizon / n_cycles

    # initial guess: first-order covering on the K^level components, then an
    # exact decomposition over the direction family (a square system)
    lam = full_sys._lam[idx] * horizon
    gain = np.where(np.abs(lam) < 1e-12, 1.0, np.expm1(lam) / lam)
    p = (y_goal - y0)[idx]
    for _ in range(40):
        full = np.zeros(sys.dim)
        full[idx] = p / horizon
        tr = integrate(full_sys, u0, PiecewiseConstant([0.0, horizon], [full]),
                       horizon, tol)
        r_cov = (y_goal - tr.states[-1])[idx]
        if np.sum(np.abs(r_cov)) < 100 * tol:
            break
        p = p + r_cov / gain
    alpha = np.linalg.solve(cols.T[idx], p / horizon)

    masses = np.tile(alpha * cycle, (n_cycles, 1)).ravel()
    # when the goal has components outside the family's span the masses must
    # grow well past the first-order decomposition to reach them through the
    # quadratic term, so leave generous headroom in the vertex scale
    first_order = set(span) >= set(sys.mode_set)
    xi = max((4.0 if first_order else 30.0) * float(np.sum(np.abs(alpha))),
             1e-6)
    max_iter = 30 if first_order else 120
    sw = np.sqrt((sys.geom.a * sys.geom.b / 4) * np.array(
        [-kbar(k, sys.geom) for k in sys.mode_set]))

    def endpoint(m, x):
        return _schedule_endpoint(full_sys, labels, m.reshape(n_cycles, -1),
                                  x, cycle, u0, tol)

    ep = endpoint(masses, xi)
    r = sw * (ep - y_goal)
    mu = 1e-4
    for _ in range(max_iter):
        if np.linalg.norm(r) < res_target:
            break
        J = np.zeros((sys.dim, len(masses)))
        h = 3e-5
        for j in range(len(masses)):
            mp = masses.copy()
            mp[j] += h
            J[:, j] = sw * (endpoint(mp, xi) - ep) / h
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
    return masses.reshape(n_cycles, -1), xi, float(np.linalg.norm(r))


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
                  u0: SpectralField = None, horizon: float = 0.5,
                  tol: float = 1e-8, n_cycles: int = 3, w0: float = 4000.0,
                  w_cap: float = 64000.0) -> dict:
    """Reach the target approximately with a control on K^1 only.

    A fully actuated covering step matches the projection of the target onto
    the smallest K^M carrying all but eps/2 of it.  Then, level by level,
    a coarse vertex schedule over the next-lower direction family is solved
    to reproduce the previous end state, and its interaction directions are
    imitated by fast oscillation of the lower modes; each level's end-state
    drift must stay within eps/(2M), escalating the oscillation frequency up
    to w_cap before reporting failure."""
    if u0 is None:
        u0 = SpectralField(sys.geom, {})
    n_level = _infer_levels(sys)
    w_h = {k: (sys.geom.a * sys.geom.b / 4) * (-kbar(k, sys.geom))
           for k in target.coeffs if k not in sys._index}

    def tail_norm(m):
        inside = set(mode_set_K(m))
        t2 = sum(w * target[k] ** 2 for k, w in w_h.items())
        t2 += sum((sys.geom.a * sys.geom.b / 4) * (-kbar(k, sys.geom))
                  * target[k] ** 2 for k in target.coeffs
                  if k in sys._index and k not in inside)
        return math.sqrt(t2)

    m_level = 1
    while tail_norm(m_level) >= eps / 2:
        m_level += 1
        if m_level > n_level:
            raise ValueError("target tail beyond the system's levels "
                             "exceeds eps/2")
    budget = eps / (2 * m_level)

    sw = np.sqrt((sys.geom.a * sys.geom.b / 4) * np.array(
        [-kbar(k, sys.geom) for k in sys.mode_set]))

    def h_dist(x, y):
        return float(np.linalg.norm(sw * (x - y)))

    # covering at level M, actuated on the K^M modes
    full_sys = GalerkinSystem(sys.geom, sys.nu, sys.forcing, sys.mode_set,
                              sys.mode_set)
    proj = SpectralField(sys.geom, {k: target[k] for k in target.coeffs
                                    if k in set(mode_set_K(m_level))})
    tgt = sys.to_vector(proj)
    idx_m = np.array([sys._index[k] for k in sorted(mode_set_K(m_level))],
                     dtype=int)
    y0 = sys.to_vector(u0)
    lam = full_sys._lam[idx_m] * horizon
    gain = np.where(np.abs(lam) < 1e-12, 1.0, np.expm1(lam) / lam)
    p = (tgt - y0)[idx_m]
    for _ in range(60):
        full = np.zeros(sys.dim)
        full[idx_m] = p / horizon
        tr = integrate(full_sys, u0, PiecewiseConstant([0.0, horizon], [full]),
                       horizon, tol)
        r = (tgt - tr.states[-1])[idx_m]
        if np.sum(np.abs(r)) < 100 * tol:
            break
        p = p + r / gain
    covering_residual = float(np.sum(np.abs(r)))
    y_prev = tr.states[-1]

    full_tail2 = sum(w * target[k] ** 2 for k, w in w_h.items())

    def distance_to_target(y):
        inside = sys.to_vector(SpectralField(
            sys.geom, {k: target[k] for k in target.coeffs
                       if k in sys._index}))
        return math.sqrt(h_dist(y, inside) ** 2 + full_tail2)

    steps = []
    final_control = None
    for level in range(m_level, 1, -1):
        labels, cols = _direction_matrix(sys, level)
        masses, xi, solver_res = _solve_schedule(
            sys, full_sys, labels, cols, level, y_prev, horizon, u0,
            n_cycles, tol, res_target=budget / 8)
        cycle = horizon / n_cycles
        bps, labs = _build_schedule(labels, masses, xi, cycle,
                                    width_floor=1e-4 * cycle)
        z = VertexSchedule(bps, labs, xi)
        J = tuple(sorted(mode_set_K(level - 1)))
        w = w0
        while True:
            res = imitate(sys, z, w, tol, J=J, u0=u0)
            dev = h_dist(res.end_state, y_prev)
            if dev <= budget or w >= w_cap:
                break
            w *= 2
        step_index = m_level - level + 1
        steps.append(CascadeStep(level, xi, n_cycles, w, solver_res, dev,
                                 budget, len(labs)))
        if dev > budget:
            raise RuntimeError(
                "cascade step %d (level %d -> %d) exceeded its budget at the "
                "w cap: deviation %.3g > %.3g at w = %g"
                % (step_index, level, level - 1, dev, budget, w))
        y_prev = res.end_state
        final_control = res.controls

    if final_control is None:
        # target already supported in K^1: the covering control suffices
        idx1 = np.array([sys._index[k] for k in sorted(mode_set_K(1))],
                        dtype=int)
        full = np.zeros(sys.dim)
        full[idx_m] = p / horizon
        final_control = [(0.0, horizon, full[idx1])]

    distance = distance_to_target(y_prev)
    return {
        "M": m_level,
        "budget_per_step": budget,
        "covering_residual": covering_residual,
        "steps": steps,
        "final_control": final_control,
        "achieved_distance": distance,
        "verdict": "pass" if distance < eps else "fail",
    }
