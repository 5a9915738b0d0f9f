"""Truncated controlled Galerkin dynamics and time integration.

State lives on a finite mode set; the right-hand side is the quadratic
interaction restricted to that set, a diagonal viscous term, a fixed
solenoidal forcing, and a control acting on a subset of modes.  The
quadratic term is one sparse operator over the unique interacting pairs
(m, n), Q(y) = C @ (y_m * y_n), so it evaluates one state of shape (dim,)
or a stack of states of shape (dim, B) alike.  The integrator is an
integrating-factor (Lawson) RK4 on the exponentially transformed variable
with step-doubling error control, restarted at every control breakpoint;
it steps a stack of states on one shared step sequence, with the error
norm taken over the whole stack.
"""

import csv
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.sparse import csr_array

from .nonlinearity import interaction_coeffs
from .spectral import ModeIndex, RectGeometry, SpectralField, check_mode, kbar


class StiffnessError(RuntimeError):
    """Raised when the adaptive step size underflows."""


# Cache-sized working set: stacks of states are evaluated in blocks whose
# largest temporary, the (pairs, rows) product array of quadratic_vec,
# stays within it, and an interaction matrix that fits in it is stored dense.
BLOCK_BYTES = 128 * 1024


@dataclass
class GalerkinSystem:
    """The controlled ODE u_k' = Q_k(u) + nu*kbar_k*u_k + F_k + v_k.

    Control components v_k act only on controlled_set (zero elsewhere)."""

    geom: RectGeometry
    nu: float
    forcing: SpectralField
    mode_set: tuple
    controlled_set: tuple

    def __post_init__(self):
        if not 0 < self.nu < np.inf:
            raise ValueError("viscosity must be positive and finite, got %r"
                             % (self.nu,))
        self.mode_set = tuple(sorted(tuple(k) for k in self.mode_set))
        self.controlled_set = tuple(sorted(tuple(k) for k in self.controlled_set))
        for k in self.mode_set:
            check_mode(k)
        if not set(self.controlled_set) <= set(self.mode_set):
            raise ValueError("controlled_set must be a subset of mode_set")
        if not set(self.forcing.coeffs) <= set(self.mode_set):
            raise ValueError("forcing must be supported in mode_set")
        self._index = {k: i for i, k in enumerate(self.mode_set)}
        self._lam = np.array([self.nu * kbar(k, self.geom) for k in self.mode_set])
        self._f = np.array([self.forcing[k] for k in self.mode_set])
        self._ctrl_idx = np.array([self._index[k] for k in self.controlled_set],
                                  dtype=int)
        self._build_quadratic_table()

    def _build_quadratic_table(self):
        """Build the pair-reduced interaction operator on mode_set: the
        unique interacting pairs (_pi[p], _pj[p]) and the matrix _Q
        (dim x pairs) of their coefficients on each target mode.  _Q is a
        CSR matrix, or a dense array when that fits in BLOCK_BYTES: for a
        small system a dense product is faster than one sparse dispatch."""
        ii, jj, tt, cc = [], [], [], []
        modes = self.mode_set
        for p, m in enumerate(modes):
            for n in modes[p + 1:]:
                for tgt, c in interaction_coeffs(m, n, self.geom).items():
                    if tgt in self._index and c != 0.0:
                        ii.append(self._index[m])
                        jj.append(self._index[n])
                        tt.append(self._index[tgt])
                        cc.append(c)
        qi = np.array(ii, dtype=np.int32)
        qj = np.array(jj, dtype=np.int32)
        qt = np.array(tt, dtype=np.int32)
        qc = np.array(cc)
        del ii, jj, tt, cc
        # the entries of one pair are consecutive, so a pair starts wherever
        # (i, j) changes
        first = np.ones(len(qc), dtype=bool)
        first[1:] = (qi[1:] != qi[:-1]) | (qj[1:] != qj[:-1])
        pair = np.cumsum(first, dtype=np.int32) - 1
        self._pi = qi[first].astype(np.intp)
        self._pj = qj[first].astype(np.intp)
        self._Q = csr_array((qc, (qt, pair)), shape=(self.dim, len(self._pi)))
        if 8 * self.dim * len(self._pi) <= BLOCK_BYTES:
            self._Q = self._Q.toarray()

    @property
    def dim(self) -> int:
        return len(self.mode_set)

    def to_vector(self, u: SpectralField) -> np.ndarray:
        if not set(u.coeffs) <= set(self.mode_set):
            raise ValueError("field not supported in mode_set")
        y = np.zeros(self.dim)
        for k, c in u.coeffs.items():
            y[self._index[k]] = c
        return y

    def to_field(self, y: np.ndarray) -> SpectralField:
        return SpectralField(self.geom, {k: float(y[i])
                                         for i, k in enumerate(self.mode_set)
                                         if y[i] != 0.0})

    @property
    def block_rows(self) -> int:
        """Widest stack whose pair-product temporary in quadratic_vec stays
        within BLOCK_BYTES."""
        return max(1, BLOCK_BYTES // (8 * max(1, len(self._pi))))

    def quadratic_vec(self, y: np.ndarray) -> np.ndarray:
        """Quadratic term Q(y) for one state of shape (dim,) or a stack of
        states of shape (dim, B), column by column."""
        return self._Q @ (y[self._pi] * y[self._pj])

    def control_vec(self, v) -> np.ndarray:
        """Embed a control value (array over controlled_set, or mode dict)
        into the full state ordering."""
        out = np.zeros(self.dim)
        if v is None:
            return out
        if isinstance(v, dict):
            if not set(v) <= set(self.controlled_set):
                raise ValueError("control value hits uncontrolled modes")
            for k, c in v.items():
                out[self._index[k]] = c
            return out
        v = np.asarray(v, dtype=float)
        if v.shape != (len(self.controlled_set),):
            raise ValueError("control dimension %s != |controlled_set| = %d"
                             % (v.shape, len(self.controlled_set)))
        out[self._ctrl_idx] = v
        return out


def rhs(sys: GalerkinSystem, u: SpectralField, v, t: float = 0.0) -> SpectralField:
    """Full right-hand side at state u and control value v."""
    y = sys.to_vector(u)
    dy = sys.quadratic_vec(y) + sys._lam * y + sys._f + sys.control_vec(v)
    return sys.to_field(dy)


# ---------------------------------------------------------------------------
# Control signals


@dataclass
class PiecewiseConstant:
    """Piecewise-constant control: values[i] holds on [breakpoints[i],
    breakpoints[i+1])."""

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.breakpoints = np.asarray(self.breakpoints, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.breakpoints.ndim != 1 or len(self.breakpoints) < 2:
            raise ValueError("need at least two breakpoints")
        if np.any(np.diff(self.breakpoints) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if self.values.shape[0] != len(self.breakpoints) - 1:
            raise ValueError("one value vector per interval required")

    def value(self, t: float) -> np.ndarray:
        i = int(np.searchsorted(self.breakpoints, t, side="right")) - 1
        i = min(max(i, 0), self.values.shape[0] - 1)
        return self.values[i]

    def describe(self) -> dict:
        return {"kind": "piecewise_constant",
                "breakpoints": self.breakpoints.tolist(),
                "values": self.values.tolist()}


@dataclass
class Smooth:
    """Smooth control given by value/derivative evaluators over the
    controlled modes; max_step caps the integrator step so the signal is
    resolved."""

    value: callable
    derivative: callable = None
    max_step: float = np.inf

    def describe(self) -> dict:
        return {"kind": "smooth", "max_step": self.max_step}


def _segments(control, T: float):
    """Breakpoint-delimited integration segments covering [0, T]."""
    if isinstance(control, PiecewiseConstant):
        ts = [t for t in control.breakpoints if 0.0 < t < T]
        knots = [0.0] + ts + [T]
        return [(knots[i], knots[i + 1]) for i in range(len(knots) - 1)]
    return [(0.0, T)]


# ---------------------------------------------------------------------------
# Integration


@dataclass
class Trajectory:
    """Dense samples of one integration run."""

    sys: GalerkinSystem
    times: np.ndarray
    states: np.ndarray  # shape (len(times), sys.dim)
    tol: float
    _splines: object = field(default=None, repr=False)

    @property
    def end_state(self) -> SpectralField:
        return self.sys.to_field(self.states[-1])

    def field_at(self, i: int) -> SpectralField:
        return self.sys.to_field(self.states[i])

    def _spline(self):
        if self._splines is None:
            self._splines = CubicSpline(self.times, self.states, axis=0)
        return self._splines

    def state_at(self, t: float) -> np.ndarray:
        return self._spline()(t)

    def h_norms(self) -> np.ndarray:
        w = (self.sys.geom.a * self.sys.geom.b / 4) * (-self.sys._lam / self.sys.nu)
        return np.sqrt(np.clip(self.states**2 @ w, 0.0, None))

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["t"] + ["%d.%d" % k for k in self.sys.mode_set])
            for t, row in zip(self.times, self.states):
                wr.writerow([repr(float(t))] + [repr(float(x)) for x in row])


def _lawson_step(lam, y, t, h, nonlin):
    """One integrating-factor RK4 step of size h."""
    e1 = np.exp(lam * (h / 2))
    e2 = e1 * e1
    k1 = nonlin(y, t)
    k2 = nonlin(e1 * (y + (h / 2) * k1), t + h / 2)
    k3 = nonlin(e1 * y + (h / 2) * k2, t + h / 2)
    k4 = nonlin(e2 * y + h * e1 * k3, t + h)
    return e2 * y + (h / 6) * (e2 * k1 + 2 * e1 * k2 + 2 * e1 * k3 + k4)


def adaptive_lawson(lam, nonlin, y0, t0, t1, tol, max_step=np.inf,
                    h_min=None):
    """Integrate y' = lam*y + nonlin(y, t) over [t0, t1] with step-doubling
    error control at absolute tolerance tol.  Returns (times, states) lists
    including the initial point.

    y0 may be one state of shape (dim,) or a stack of shape (dim, B) with
    lam of shape (dim, 1); the stack shares one step sequence and the error
    is the largest over all its entries, so each member meets tol."""
    span = t1 - t0
    if h_min is None:
        h_min = 1e-13 * span
    y = np.array(y0, dtype=float)
    times, states = [t0], [y.copy()]
    t = t0
    h = min(span / 4, max_step)
    while t < t1 - 1e-15 * span:
        h = min(h, t1 - t)
        y_big = _lawson_step(lam, y, t, h, nonlin)
        y_half = _lawson_step(lam, y, t, h / 2, nonlin)
        y_half = _lawson_step(lam, y_half, t + h / 2, h / 2, nonlin)
        err = float(np.max(np.abs(y_big - y_half))) / 15.0
        if not np.isfinite(err):
            raise StiffnessError(
                "non-finite step at t=%.6g (h=%.3g, |y|=%.3g)"
                % (t, h, float(np.max(np.abs(y)))))
        if err <= tol:
            t += h
            y = y_half + (y_half - y_big) / 15.0
            times.append(t)
            states.append(y.copy())
            if err < tol / 32:
                h = min(2 * h, max_step)
        else:
            if h <= 2 * h_min:
                raise StiffnessError(
                    "step underflow at t=%.6g (h=%.3g, tol=%.3g, err=%.3g)"
                    % (t, h, tol, err))
            h = h / 2
    return times, states


def integrate(sys: GalerkinSystem, u0: SpectralField, control, T: float,
              tol: float = 1e-8) -> Trajectory:
    """Integrate the controlled system over [0, T] with absolute local error
    control at tol on the coefficients.  Control breakpoints are exact knots."""
    if not 0 < T < np.inf:
        raise ValueError("horizon must be positive and finite, got %r" % (T,))
    y = sys.to_vector(u0)
    times = [0.0]
    states = [y.copy()]

    if isinstance(control, PiecewiseConstant):
        if control.values.shape[1] != len(sys.controlled_set):
            raise ValueError("control dimension != |controlled_set|")
        bp = control.breakpoints
        if bp[0] > 0 or bp[-1] < T:
            raise ValueError("control breakpoints span [%r, %r], which does "
                             "not cover [0, %r]"
                             % (float(bp[0]), float(bp[-1]), T))
        max_step = np.inf
    elif isinstance(control, Smooth):
        max_step = control.max_step
    elif control is None:
        max_step = np.inf
    else:
        raise TypeError("unsupported control signal")

    h_min = 1e-13 * T
    for t0, t1 in _segments(control, T):
        if isinstance(control, Smooth):
            def nonlin(z, t):
                return (sys.quadratic_vec(z) + sys._f
                        + sys.control_vec(control.value(t)))
        else:
            vfull = (sys.control_vec(control.value(0.5 * (t0 + t1)))
                     if control is not None else np.zeros(sys.dim))
            def nonlin(z, t, _v=vfull):
                return sys.quadratic_vec(z) + sys._f + _v
        seg_t, seg_y = adaptive_lawson(sys._lam, nonlin, y, t0, t1, tol,
                                       max_step=max_step, h_min=h_min)
        times.extend(seg_t[1:])
        states.extend(seg_y[1:])
        y = seg_y[-1]
    return Trajectory(sys, np.array(times), np.array(states), tol)


# ---------------------------------------------------------------------------
# Continuity probe and run manifests


def data_continuity_probe(sys: GalerkinSystem, u0: SpectralField, control,
                          T: float, deltas, tol: float = 1e-9) -> list:
    """Deviation of perturbed trajectories from the baseline in C([0,T], H).

    Each row reports the sup-over-time H-norm deviation for a perturbation of
    size delta applied to the data u0, to the forcing F, and to nu (both
    signs)."""
    base = integrate(sys, u0, control, T, tol)
    probe_mode = sys.mode_set[0]

    def deviation(pert_sys, pert_u0):
        tr = integrate(pert_sys, pert_u0, control, T, tol)
        w = (sys.geom.a * sys.geom.b / 4) * (-sys._lam / sys.nu)
        diff = tr._spline()(base.times) - base.states
        return float(np.max(np.sqrt(np.clip(diff**2 @ w, 0.0, None))))

    rows = []
    for d in deltas:
        if d == 0.0:
            rows.append({"delta": 0.0, "u0_dev": 0.0, "forcing_dev": 0.0,
                         "nu_plus_dev": 0.0, "nu_minus_dev": 0.0})
            continue
        u0_d = u0.plus(SpectralField(sys.geom, {probe_mode: d}))
        f_d = sys.forcing.plus(SpectralField(sys.geom, {probe_mode: d}))
        sys_f = GalerkinSystem(sys.geom, sys.nu, f_d, sys.mode_set,
                               sys.controlled_set)
        sys_np = GalerkinSystem(sys.geom, sys.nu + d, sys.forcing,
                                sys.mode_set, sys.controlled_set)
        sys_nm = GalerkinSystem(sys.geom, sys.nu - d, sys.forcing,
                                sys.mode_set, sys.controlled_set)
        rows.append({
            "delta": float(d),
            "u0_dev": deviation(sys, u0_d),
            "forcing_dev": deviation(sys_f, u0),
            "nu_plus_dev": deviation(sys_np, u0),
            "nu_minus_dev": deviation(sys_nm, u0),
        })
    return rows


def run_manifest(sys: GalerkinSystem, u0: SpectralField, control, T: float,
                 tol: float) -> dict:
    """JSON-ready description of one integration run, with a content hash of
    all inputs."""
    desc = {
        "geometry": {"a": sys.geom.a, "b": sys.geom.b},
        "nu": sys.nu,
        "mode_set": [list(k) for k in sys.mode_set],
        "controlled_set": [list(k) for k in sys.controlled_set],
        "forcing": sorted([list(k) + [c] for k, c in sys.forcing.coeffs.items()]),
        "initial_state": sorted([list(k) + [c] for k, c in u0.coeffs.items()]),
        "control": control.describe() if control is not None else {"kind": "zero"},
        "horizon": T,
        "tol": tol,
    }
    blob = json.dumps(desc, sort_keys=True).encode()
    desc["content_hash"] = hashlib.sha256(blob).hexdigest()
    return desc
