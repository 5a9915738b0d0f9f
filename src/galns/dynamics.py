"""Truncated controlled Galerkin dynamics and time integration.

State lives on a finite mode set; the right-hand side is the quadratic
interaction restricted to that set, a diagonal viscous term, a fixed
solenoidal forcing, and a control acting on a subset of modes.  The
quadratic term evaluates one state of shape (dim,) or a stack of states of
shape (dim, B) alike, on one of two paths chosen from the mode set alone.
A small mode set uses one dense operator over the unique interacting pairs
(m, n), Q(y) = C @ (y_m * y_n), whose columns are the coefficient rows
of nonlinearity.interaction_rows; its bilinear form, the tangent right-hand
side, is one product with the Jacobian tensor D[k, i, j] = D[k, j, i] =
C[k, (i, j)], formed from C the first time it is used.  A larger one
evaluates the velocity and vorticity gradient on a 3/2-rule dealiased grid
by small sine and cosine matrix transforms and projects their product back
by the trapezoid rule (the transform method: Orszag, J. Atmos. Sci. 28,
1971; Canuto, Hussaini, Quarteroni & Zang, Spectral Methods in Fluid
Dynamics, section 7.2), which is exact for this product.  Either is built the first time it is used, so
a system that is only inspected builds neither.  The integrator is the
integrating-factor (Lawson) form of the embedded Dormand-Prince 5(4)
pair, which treats the viscous term exactly;
it reuses its last stage as the next step's first (FSAL), sizes steps
with a PI controller and restarts at every control breakpoint.  It steps
a stack of states on one shared step sequence, with the error norm taken
over the whole stack, which integrate_tangent uses to carry a state and
its sensitivities to P parameters as one (dim, 1 + P) stack.  Its one
dense output is the Lawson form of the
pair's fourth-order continuous extension, kept by a run that asks for it;
tracked controls and the reference paths they follow are fitted from it
as one polynomial per step.  A run keeps its accepted times and end state,
not its states: a caller that reads every accepted state takes it from a
sink as it is accepted, which is how integrate collects a Trajectory and
how simulate writes its table in memory that does not grow with the
horizon (CsvSink).
"""

import bisect
import hashlib
import json
import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .nonlinearity import float_params, interaction_rows, mode_array
from .spectral import RectGeometry, SpectralField, check_system, kbar


class StiffnessError(RuntimeError):
    """Raised when the adaptive step size underflows."""


# Cache-sized working set: stacks of states are evaluated in blocks whose
# largest temporary in quadratic_vec stays within it, and a mode set whose
# dense operator over all its pairs fits in it uses that operator.
BLOCK_BYTES = 128 * 1024


def _sine_cosine(n, m):
    """sin and cos of k pi j / m at the interior nodes j = 1 .. m - 1 of m
    equal intervals, for k = 1 .. n: two arrays of shape (m - 1, n)."""
    phase = np.pi * np.outer(np.arange(1, m), np.arange(1, n + 1)) / m
    return np.sin(phase), np.cos(phase)


class SineTransform:
    """The quadratic term of a mode set by dealiased grid transforms.

    With a state scattered into the n1 x n2 coefficient grid Y (n_i the
    largest index on axis i), alpha = pi k1/a, beta = pi k2/b and
    kappa = alpha^2 + beta^2 = -kbar, the velocity and the vorticity
    gradient of the field are

        u1 = -S_x (Y beta) C_y^T,             u2 = C_x (Y alpha) S_y^T,
        omega_x = -C_x (Y kappa alpha) S_y^T,  omega_y = -S_x (Y kappa beta) C_y^T

    at the interior nodes of m_i = 3 n_i // 2 + 1 equal intervals per side,
    where S and C hold the sine and cosine of each index at the nodes.  The
    trapezoid rule, (2/m1)(2/m2) S_x^T J S_y, gives the sine coefficients f
    of J = u1 omega_x + u2 omega_y, and Q_k = f_k / kappa_k on the mode set.
    Every term of J has a sine factor on each axis, so the rule's end terms
    vanish, and it is exact: the integrand's frequencies are at most
    3 n_i < 2 m_i (the 3/2 rule)."""

    def __init__(self, mode_set, geom: RectGeometry):
        k1, k2 = mode_array(mode_set)
        n1, n2 = self.shape = int(k1.max()), int(k2.max())
        self.pos = (k1 - 1) * n2 + (k2 - 1)
        alpha = np.pi / geom.a * np.arange(1, n1 + 1)[:, None]
        beta = np.pi / geom.b * np.arange(1, n2 + 1)
        kappa = alpha**2 + beta**2
        # grid weights of u1, u2, omega_x and omega_y
        self.weights = np.stack([np.broadcast_to(-beta, kappa.shape),
                                 np.broadcast_to(alpha, kappa.shape),
                                 -kappa * alpha, -kappa * beta])
        (sx, cx), (sy, cy) = (_sine_cosine(n, 3 * n // 2 + 1)
                              for n in self.shape)
        self.nodes = len(sx) * len(sy)
        # the x-axis matrices act on the first grid axis, the y-axis ones
        # on the second; a stack's columns follow it as a third
        self.left = np.stack([sx, cx, cx, sx])
        self.right = np.stack([cy, sy, sy, cy])
        self.proj_x = (2 / (len(sx) + 1)) * sx.T
        self.proj_y = (2 / (len(sy) + 1)) * sy.T
        self.inv_kappa = 1 / kappa.ravel()[self.pos]

    def fields(self, y):
        """u1, u2, omega_x and omega_y of one state (dim,) or a stack
        (dim, B) at the nodes, shape (4, nodes_x, nodes_y) + y.shape[1:]."""
        n1, n2 = self.shape
        grid = np.zeros((n1 * n2,) + y.shape[1:])
        grid[self.pos] = y
        w = self.weights if y.ndim == 1 else self.weights[..., None]
        grid = w * grid.reshape((n1, n2) + y.shape[1:])
        x = self.left @ grid.reshape(4, n1, -1)
        if y.ndim == 1:
            return x @ self.right.transpose(0, 2, 1)
        return self.right[:, None] @ x.reshape(4, -1, n2, y.shape[1])

    def project(self, J):
        """The quadratic term on the mode set whose grid product is J, of
        shape (nodes_x, nodes_y) or (nodes_x, nodes_y, B)."""
        n1, n2 = self.shape
        g = self.proj_x @ J.reshape(len(J), -1)
        if J.ndim == 2:
            return (g @ self.proj_y.T).ravel()[self.pos] * self.inv_kappa
        f = (self.proj_y @ g.reshape(n1, J.shape[1], -1)).reshape(n1 * n2, -1)
        return f[self.pos] * self.inv_kappa[:, None]


@dataclass
class GalerkinSystem:
    """The controlled ODE u_k' = Q_k(u) + nu*kbar_k*u_k + F_k + v_k.

    Control components v_k act only on controlled_set (zero elsewhere).
    Public fields: index maps each mode to its position in mode_set; lam
    (nu*kbar_k), forcing_vec (F_k), h_weights ((ab/4)(-kbar_k), so that
    |u|_H^2 = sum_k h_weights_k u_k^2) and ctrl_idx (the positions of
    controlled_set) are arrays in mode_set order.  The interaction
    operator (_pi, _pj, _Q) is built the first time one of them is read,
    and its Jacobian tensor _D the first time bilinear_vec needs it."""

    geom: RectGeometry
    nu: float
    forcing: SpectralField
    mode_set: tuple
    controlled_set: tuple

    def __post_init__(self):
        self.mode_set, self.controlled_set = check_system(
            self.nu, self.forcing, self.mode_set, self.controlled_set)
        self.index = {k: i for i, k in enumerate(self.mode_set)}
        self.lam = np.array([self.nu * kbar(k, self.geom) for k in self.mode_set])
        self.forcing_vec = np.array([self.forcing[k] for k in self.mode_set])
        self.h_weights = (self.geom.a * self.geom.b / 4) * np.array(
            [-kbar(k, self.geom) for k in self.mode_set])
        self.ctrl_idx = np.array([self.index[k] for k in self.controlled_set],
                                 dtype=int)

    # The first read of any part runs the build, which stores all three on
    # the instance.  A __getattr__ hook would do the same, but it makes
    # every attribute read of the class several times slower.
    _pi = cached_property(lambda self: self._build_quadratic_table()[0])
    _pj = cached_property(lambda self: self._build_quadratic_table()[1])
    _Q = cached_property(lambda self: self._build_quadratic_table()[2])

    @cached_property
    def _transform(self):
        """The SineTransform of quadratic_vec, or None when the dense
        operator over all dim (dim - 1) / 2 pairs of mode_set fits in
        BLOCK_BYTES (K^3 and below): there one small product beats the
        transforms.  This is the one choice between the two paths."""
        dim = self.dim
        if 8 * dim * (dim * (dim - 1) // 2) <= BLOCK_BYTES:
            return None
        return SineTransform(self.mode_set, self.geom)

    @property
    def quadratic_path(self) -> str:
        """The path of quadratic_vec: "pair" or "transform"."""
        return "pair" if self._transform is None else "transform"

    def _build_quadratic_table(self):
        """Build the pair-reduced interaction operator of the "pair" path:
        the unique interacting pairs (_pi[p], _pj[p]) and the dense matrix
        _Q (dim x pairs) of their coefficients on each target mode, from one
        interaction_rows call over the pairs m < n, keeping the pairs with
        a nonzero entry.  Returns (_pi, _pj, _Q)."""
        ii, jj = np.triu_indices(self.dim, 1)
        modes = np.array(self.mode_set)
        rows = interaction_rows(np.stack([modes[ii], modes[jj]], axis=1),
                                self.mode_set, *float_params(self.geom))
        has = (rows != 0.0).any(axis=1)
        self._pi, self._pj = ii[has], jj[has]
        # C order, which the products of quadratic_vec and _D read
        self._Q = np.ascontiguousarray(rows[has].T)
        return self._pi, self._pj, self._Q

    @cached_property
    def _D(self):
        """The Jacobian tensor of the "pair" path, shape (dim * dim, dim):
        row k * dim + i, column j holds the coefficient D[k, i, j] =
        D[k, j, i] of the pair (i, j) on mode k, so that the derivative of
        quadratic_vec at y is (_D @ y).reshape(dim, dim)."""
        dim = self.dim
        D = np.zeros((dim, dim, dim))
        D[:, self._pi, self._pj] = self._Q
        D[:, self._pj, self._pi] = self._Q
        return D.reshape(dim * dim, dim)

    @property
    def dim(self) -> int:
        return len(self.mode_set)

    def to_vector(self, u: SpectralField) -> np.ndarray:
        if not set(u.coeffs) <= set(self.mode_set):
            raise ValueError("field not supported in mode_set")
        y = np.zeros(self.dim)
        for k, c in u.coeffs.items():
            y[self.index[k]] = c
        return y

    def to_field(self, y: np.ndarray) -> SpectralField:
        return SpectralField(self.geom, {k: float(y[i])
                                         for i, k in enumerate(self.mode_set)
                                         if y[i] != 0.0})

    @property
    def block_rows(self) -> int:
        """Widest stack whose largest temporary in quadratic_vec stays within
        BLOCK_BYTES: the (pairs, rows) pair products of the "pair" path, or
        the four (nodes, rows) grid fields of the transform."""
        t = self._transform
        width = len(self._pi) if t is None else 4 * t.nodes
        return max(1, BLOCK_BYTES // (8 * max(1, width)))

    def quadratic_vec(self, y: np.ndarray) -> np.ndarray:
        """Quadratic term Q(y) for one state of shape (dim,) or a stack of
        states of shape (dim, B), column by column."""
        t = self._transform
        if t is None:
            return self._Q @ (y[self._pi] * y[self._pj])
        u1, u2, wx, wy = t.fields(y)
        return t.project(u1 * wx + u2 * wy)

    def bilinear_vec(self, y: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """The symmetric bilinear form of the quadratic term,
        B(y, Z) = Q(y + Z) - Q(y) - Q(Z), which is the derivative of
        quadratic_vec at the state y (shape (dim,)) applied to Z, one
        direction of shape (dim,) or a stack of shape (dim, B) column by
        column; B(y, y) = 2 Q(y).  On the "pair" path it is the Jacobian
        at y, (_D @ y).reshape(dim, dim), applied to Z: one small product
        for the whole stack, where the pair form gathers the stack four
        times."""
        t = self._transform
        if t is None:
            return (self._D @ y).reshape(self.dim, self.dim) @ Z
        y = np.reshape(y, (-1,) + (1,) * (np.ndim(Z) - 1))
        u1, u2, wx, wy = t.fields(y)
        v1, v2, zx, zy = t.fields(Z)
        return t.project(u1 * zx + v1 * wx + u2 * zy + v2 * wy)

    def h_norm(self, y: np.ndarray) -> np.ndarray:
        """The H norm of one state (dim,), or of each row of a stack
        (rows, dim).  numpy sums each row on its own, pairwise and without
        BLAS, so a row's norm has the same bits alone as in any stack."""
        return np.sqrt(np.sum(y**2 * self.h_weights, axis=-1))

    def control_vec(self, v) -> np.ndarray:
        """Embed a control value (None, or an array over controlled_set)
        into the full state ordering."""
        out = np.zeros(self.dim)
        if v is None:
            return out
        v = np.asarray(v, dtype=float)
        if v.shape != (len(self.controlled_set),):
            raise ValueError("control dimension %s != |controlled_set| = %d"
                             % (v.shape, len(self.controlled_set)))
        out[self.ctrl_idx] = v
        return out


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
        # NaN compares false, so a NaN breakpoint fails this test too
        if not np.all(np.diff(self.breakpoints) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if self.values.shape[0] != len(self.breakpoints) - 1:
            raise ValueError("one value vector per interval required")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("control values must be finite")

    def value(self, t) -> np.ndarray:
        """The row at time t, or one row per time of an array t; times
        outside the breakpoints read the end rows."""
        # the row index is the count of interior breakpoints up to t
        return self.values[np.searchsorted(self.breakpoints[1:-1], t,
                                           side="right")]

    def describe(self) -> dict:
        return {"kind": "piecewise_constant",
                "breakpoints": self.breakpoints.tolist(),
                "values": self.values.tolist()}


@dataclass
class Smooth:
    """Tracking target given by value/derivative evaluators over the
    tracked modes, each read at a time or at a column of times (n, 1),
    giving one row per time or one row for all; max_step caps the tracking
    integrator's step so the target is resolved."""

    value: callable
    derivative: callable
    max_step: float = np.inf


# A PiecewisePolynomial's degree, the Chebyshev-Lobatto points
# x_j = cos(pi j / degree) of [-1, 1] at which each polynomial is fitted,
# and the same points as fractions of a knot interval
POLY_DEGREE = 7
_CHEB_K = np.arange(POLY_DEGREE + 1)
_CHEB_X = np.cos(np.pi * _CHEB_K / POLY_DEGREE)
POLY_THETA = (1 + _CHEB_X) / 2
# Chebyshev coefficients from the values at the points: the discrete
# cosine transform of the first kind, with the end points and the end
# coefficients halved (no matrix inverse, which would load LAPACK at import)
_CHEB_HALF = np.where(_CHEB_K % POLY_DEGREE == 0, 0.5, 1.0)
_CHEB_FIT = (2 / POLY_DEGREE) * np.outer(_CHEB_HALF, _CHEB_HALF) * np.cos(
    np.pi * np.outer(_CHEB_K, _CHEB_K) / POLY_DEGREE)
# Chebyshev coefficients of the x-derivative from those of the values:
# T_k' = 2k (T_(k-1) + T_(k-3) + ...), with the T_0 term halved.  Built
# from Python integers, as value() below takes math.acos: the first call of
# a numpy function that galns does not otherwise use maps 0.1-0.3 MB more
# of numpy's machine code into memory (measured for arccos, > and &)
_CHEB_DIFF = np.array([[(k if j == 0 else 2 * k) if k > j and (k - j) % 2
                        else 0 for k in _CHEB_K.tolist()]
                       for j in _CHEB_K.tolist()], dtype=float)


@dataclass
class PiecewisePolynomial:
    """Control given by one polynomial of degree POLY_DEGREE per knot
    interval, one column per controlled mode: on [knots[i], knots[i+1]]
    the value is sum_k coefficients[i, k] T_k(x), with T_k the Chebyshev
    polynomials and x = (2 t - knots[i] - knots[i+1]) / (knots[i+1] -
    knots[i]); outside the knots it holds the end values.  describe()
    holds its kind and every field, and PiecewisePolynomial of those
    fields rebuilds the same control."""

    knots: np.ndarray         # (n + 1,)
    coefficients: np.ndarray  # (n, POLY_DEGREE + 1, controlled modes)
    max_step: float = np.inf

    def __post_init__(self):
        self.knots = np.asarray(self.knots, dtype=float)
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if (self.knots.ndim != 1 or not np.all(np.isfinite(self.knots))
                or not np.all(np.diff(self.knots) > 0)):
            raise ValueError("knots must be finite and strictly increasing")
        if (self.coefficients.ndim != 3 or self.coefficients.shape[:2]
                != (len(self.knots) - 1, POLY_DEGREE + 1)):
            raise ValueError("one (%d, modes) coefficient block per knot "
                             "interval required" % (POLY_DEGREE + 1))
        if not np.all(np.isfinite(self.coefficients)):
            raise ValueError("control coefficients must be finite")
        self._bounds = self.knots.tolist()

    @classmethod
    def fit(cls, knots, values, **fields) -> "PiecewisePolynomial":
        """The control through values of shape (n, degree + 1, modes) at
        the times knots[i] + POLY_THETA (knots[i+1] - knots[i])."""
        return cls(knots, _CHEB_FIT @ values, **fields)

    def value(self, t) -> np.ndarray:
        """The value at a time, shape (modes,), or at an array of times
        (a column (n, 1) included), one row per time."""
        # a float (np.float64 included) is one time; np.ndim decides the rest
        if not isinstance(t, float) and np.ndim(t):
            t, k = np.ravel(t), self.knots
            i = np.minimum(np.maximum(k.searchsorted(t, "right") - 1, 0),
                           len(k) - 2)
            x = np.minimum(np.maximum(
                (2 * t - k[i] - k[i + 1]) / (k[i + 1] - k[i]), -1.0), 1.0)
            # math.acos, as for one time: numpy's arccos differs in the last bit
            angle = np.array([math.acos(a) for a in x.tolist()])
            return (np.cos(angle[:, None, None] * _CHEB_K)
                    @ self.coefficients[i])[:, 0]
        b = self._bounds
        i = min(max(bisect.bisect_right(b, t) - 1, 0), len(b) - 2)
        x = (2 * t - b[i] - b[i + 1]) / (b[i + 1] - b[i])
        return (np.cos(_CHEB_K * math.acos(min(max(x, -1.0), 1.0)))
                @ self.coefficients[i])

    def derivative(self) -> "PiecewisePolynomial":
        """The time derivative on the same knots; outside them it holds the
        end derivatives."""
        return PiecewisePolynomial(
            self.knots, (2 / np.diff(self.knots))[:, None, None]
            * (_CHEB_DIFF @ self.coefficients), self.max_step)

    def describe(self) -> dict:
        return {"kind": "piecewise_polynomial", "knots": self.knots.tolist(),
                "coefficients": self.coefficients.tolist(),
                "max_step": self.max_step}


# ---------------------------------------------------------------------------
# Integration


@dataclass
class IntegratorStats:
    """Work of one integration: right-hand-side calls, accepted and
    rejected steps, and the smallest and largest accepted step."""

    rhs_calls: int = 0
    accepted_steps: int = 0
    rejected_steps: int = 0
    smallest_step: float = np.inf
    largest_step: float = 0.0

    def add(self, other: "IntegratorStats"):
        self.rhs_calls += other.rhs_calls
        self.accepted_steps += other.accepted_steps
        self.rejected_steps += other.rejected_steps
        self.smallest_step = min(self.smallest_step, other.smallest_step)
        self.largest_step = max(self.largest_step, other.largest_step)


@dataclass
class Trajectory:
    """The accepted steps of one integration run (times, states) and the
    integrator statistics; states is None for a run that gave its states
    to a sink."""

    sys: GalerkinSystem
    times: np.ndarray
    states: np.ndarray  # shape (len(times), sys.dim)
    stats: IntegratorStats

    def write_csv(self, path):
        """Write the table to path through CsvSink, as simulate writes it
        while the run accepts its steps."""
        with open(path, "w", newline="") as fh:
            sink = CsvSink(self.sys, fh)
            for t, y in zip(self.times.tolist(), self.states):
                sink(t, y)


class CsvSink:
    """A sink(t, y) for integrate that writes a run's table to the open
    file fh: a header, then one row per accepted time as the run accepts
    it, t and the state in mode_set order, each number as its shortest
    round-trip repr, with CRLF line ends (the csv module's format; no
    field needs quoting).  It keeps each row's H norm
    (GalerkinSystem.h_norm) in norms, 8 bytes a row, and no state: the
    whole table as Python floats and strings takes about ten times the
    memory of the states."""

    def __init__(self, sys: GalerkinSystem, fh):
        self.sys, self.fh, self.norms = sys, fh, array("d")
        fh.write(",".join(["t"] + ["%d.%d" % k for k in sys.mode_set])
                 + "\r\n")

    def __call__(self, t, y):
        self.fh.write(repr(float(t)) + "," + ",".join(map(repr, y.tolist()))
                      + "\r\n")
        self.norms.append(self.sys.h_norm(y))


# Dormand-Prince 5(4) (J. Comput. Appl. Math. 6, 1980): nodes, the stage
# rows (the last is the fifth-order solution, so its stage is the first
# stage of the next step) and the fifth- minus fourth-order weights.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = ((1 / 5,),
         (3 / 40, 9 / 40),
         (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
         (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
         22 / 525, -1 / 40)


def _lawson_tables():
    """The Lawson form of the pair as one table over [y, N_1 .. N_7]: row
    r < 6 gives stage r + 2, Y = e^(c L h) y + h sum_j a_j e^((c - c_j) L h)
    N_j, and row 6 the error estimate h sum_j e_j e^((1 - c_j) L h) N_j.
    Returns the distinct exponents (c - c_j), each entry's index into them,
    and the entries' coefficients on h and on 1, all flattened row by row
    (entry j of row r at 8 r + j)."""
    expo, on_h, on_1 = np.zeros((7, 8)), np.zeros((7, 8)), np.zeros((7, 8))
    for r, row in enumerate(_DP_A):
        c = _DP_C[r + 1]
        expo[r, 0], on_1[r, 0] = c, 1.0
        for j, a in enumerate(row):
            expo[r, j + 1], on_h[r, j + 1] = c - _DP_C[j], a
    expo[6, 1:] = 1.0 - np.array(_DP_C)
    on_h[6, 1:] = _DP_E
    nodes, index = np.unique(expo, return_inverse=True)
    return nodes, index.ravel(), on_h.ravel(), on_1.ravel()


_LAWSON_NODES, _LAWSON_INDEX, _LAWSON_ON_H, _LAWSON_ON_1 = _lawson_tables()
# The pair's continuous extension (Hairer, Norsett & Wanner, vol. I, II.6;
# the P matrix of scipy's RK45): stage i's weight at the fraction theta of
# a step is sum_j P[i, j] theta^(j + 1), the fifth-order weight at theta =
# 1.  Only the stages of nonzero weight, N_1 and N_3 .. N_7, are kept here.
_DENSE_STAGES = (1, 3, 4, 5, 6, 7)
_DENSE_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])
# Steps are sized so the estimated local error is this fraction of tol.
# Sized for tol itself, the global error on unforced K^3 runs was 3 to 10
# times that of the step-doubling RK4 this integrator replaced, at the same
# tol; at a tenth it is no larger.
ERR_FRACTION = 0.1
# Step-size control (the settings of Hairer, Norsett and Wanner's DOPRI5):
# safety factor, PI exponents on the current and previous error ratio, and
# the smallest and largest factor by which one step may change h.
_SAFETY, _EXP_ERR, _EXP_PREV = 0.9, 0.17, 0.04
_SHRINK_MIN, _GROW_MAX = 0.2, 10.0
# A time within this fraction of the span short of a run's end is its end:
# the sum of the steps, or a difference such as 0.7 - 0.3, can fall a few
# ulps short of it.
_END_ROUNDOFF = 1e-15


class LawsonRun(NamedTuple):
    """Result of adaptive_lawson: the accepted times (t0 included), the
    end state and the work; with dense=True also stages, shape
    (steps, 8) + state shape, the start state and the seven nonlin stages
    N_1 .. N_7 of every accepted step, from which dense evaluates the
    solution between the accepted times."""

    times: list
    end: np.ndarray
    stats: IntegratorStats
    stages: np.ndarray = None

    def dense(self, lam, k, theta) -> np.ndarray:
        """The Lawson continuous extension at t_k + theta h_k for each
        accepted step k and fraction theta (two arrays of one shape (B,)):
        y = e^(theta h L) y_k + h sum_i b_i(theta) e^((theta - c_i) h L) N_i,
        shape (B,) + state shape.  Each exponent is taken whole: split as
        e^(theta h L) e^(-c_i h L) it overflows, or cancels, in a stiff mode.
        At theta = 0 it is y_k, at theta = 1 the next state to roundoff."""
        k, theta = np.asarray(k), np.asarray(theta, dtype=float)
        h = np.diff(self.times)[k]
        s = self.stages[k]
        col = (-1,) + (1,) * np.ndim(lam)
        hL, th = h.reshape(col) * lam, theta.reshape(col)
        weights = h[:, None] * (theta[:, None] ** np.arange(1, 5) @ _DENSE_P.T)
        out = np.exp(th * hL) * s[:, 0]
        for w, i in zip(weights.T, _DENSE_STAGES):
            out += w.reshape(col) * np.exp((th - _DP_C[i - 1]) * hL) * s[:, i]
        return out

    def fit_nodes(self, t1: float):
        """The knots of the accepted steps, the last set to t1 exactly, and
        the nodes at which PiecewisePolynomial.fit reads each step (its
        POLY_THETA fractions): each node's step, fraction and time."""
        knots = np.array(self.times)
        knots[-1] = t1
        steps = np.repeat(np.arange(len(knots) - 1), len(POLY_THETA))
        theta = np.tile(POLY_THETA, len(knots) - 1)
        return knots, steps, theta, knots[steps] + np.diff(knots)[steps] * theta


def adaptive_lawson(lam, nonlin, y0, t0, t1, tol, max_step=np.inf,
                    h_min=None, dense=False, sink=None) -> LawsonRun:
    """Integrate y' = lam*y + nonlin(y, t) over [t0, t1] at absolute local
    error tol with the Lawson (integrating-factor) form of the
    Dormand-Prince 5(4) pair: stage values are exact for the linear part,
    and the last stage of a step, nonlin at the new state, is the first
    stage of the next, so an accepted step costs six nonlin calls.  Steps
    are sized by a PI controller for a local error estimate of
    ERR_FRACTION * tol, starting from (ERR_FRACTION * tol / max|nonlin|)^(1/5)
    at y0 (the step at which a unit fifth-order error constant meets that
    target); a trial step that turns non-finite is retried with a smaller
    step, and StiffnessError is raised once a rejected step is no larger
    than 2 * h_min (default 1e-13 of the span).  t0 < t1 must hold at a
    finite distance, or it raises ValueError.  Returns a LawsonRun whose
    item 0 is the list of times including t0, with the end state but no
    other state: a caller that reads them passes sink, called as
    sink(t, y) with each accepted time and state (t0 and y0 not included).
    With dense=True it keeps the accepted steps' stages for
    LawsonRun.dense, 8 states' worth per step.

    y0 may be one state of shape (dim,) or a stack of shape (dim, B) with
    lam of shape (dim, 1); the stack shares one step sequence and the error
    is the largest over all its entries, so each member meets tol."""
    # tol = inf accepts every step, which fixes the step at a finite max_step
    if not (0 < tol < np.inf or tol == np.inf and max_step < np.inf):
        raise ValueError("tol must be positive, and finite unless max_step "
                         "is, got %r" % (tol,))
    span = t1 - t0
    # NaN compares false, so a NaN end fails this test too
    if not 0 < span < np.inf:
        raise ValueError("need t0 < t1 at a finite distance, got [%r, %r]"
                         % (t0, t1))
    if h_min is None:
        h_min = 1e-13 * span
    y = np.array(y0, dtype=float)
    # table columns broadcast against lam
    bcast = (-1,) + (1,) * np.ndim(lam)
    nodes = _LAWSON_NODES.reshape(bcast)
    on_h, on_1 = _LAWSON_ON_H.reshape(bcast), _LAWSON_ON_1.reshape(bcast)
    stats = IntegratorStats(rhs_calls=1)
    t = t0
    f = nonlin(y, t)
    times = [t0]
    kept = []
    # stage buffer [y, N_1 .. N_7]
    stages = np.empty((8,) + y.shape)
    fmax = float(np.max(np.abs(f)))
    h = min(span, max_step,
            (ERR_FRACTION * tol / fmax) ** 0.2 if fmax > 0 else np.inf)
    prev_ratio = 1e-4
    grow_max = _GROW_MAX
    # the run ends once t is within roundoff of t1, which must not cost one
    # more step
    t_end = t1 - _END_ROUNDOFF * max(span, abs(t1))
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t_end:
            h = min(h, t1 - t)
            # every stage weight from one exp over the distinct exponents
            w = np.exp(nodes * (h * lam)).take(_LAWSON_INDEX, axis=0) \
                * (h * on_h + on_1)
            stages[0], stages[1] = y, f
            for r in range(6):
                y_new = np.einsum("i...,i...->...", w[8 * r:9 * r + 2],
                                  stages[:r + 2])
                stages[r + 2] = nonlin(y_new, t + _DP_C[r + 1] * h)
            stats.rhs_calls += 6
            ratio = float(np.max(np.abs(np.einsum(
                "i...,i...->...", w[49:], stages[1:])))) / (ERR_FRACTION * tol)
            if ratio <= 1.0:
                if dense:
                    kept.append(stages.copy())
                t += h
                y, f = y_new, stages[7].copy()
                times.append(t)
                if sink is not None:
                    sink(t, y)
                stats.accepted_steps += 1
                stats.smallest_step = min(stats.smallest_step, h)
                stats.largest_step = max(stats.largest_step, h)
                grow = ratio ** _EXP_ERR / prev_ratio ** _EXP_PREV / _SAFETY
                h = min(h / max(1 / grow_max, min(1 / _SHRINK_MIN, grow)),
                        max_step)
                prev_ratio = max(ratio, 1e-4)
                grow_max = _GROW_MAX
            else:
                stats.rejected_steps += 1
                if h <= 2 * h_min:
                    raise StiffnessError(
                        "step underflow at t=%.6g (h=%.3g, tol=%.3g, err=%.3g)"
                        % (t, h, tol, ratio * ERR_FRACTION * tol))
                # a non-finite trial step (ratio nan or inf) shrinks the most
                shrink = _SAFETY * ratio ** -0.2 if ratio < np.inf else 0.0
                h = max(h * max(_SHRINK_MIN, shrink), h_min)
                grow_max = 1.0
    return LawsonRun(times, y, stats, np.array(kept) if dense else None)


def run_segments(sys: GalerkinSystem, u0: SpectralField, control, T: float):
    """u0 as a vector and the segments (t0, t1, v) of [0, T], split at the
    control's breakpoints, once the horizon, u0 and the control are checked:
    None or a piecewise one of width len(controlled_set) covering [0, T],
    where a breakpoint within _END_ROUNDOFF of T counts as T.  v is the
    segment's constant control as a full-state vector (zeros for no
    control), or None for a PiecewisePolynomial, read at each time.  The
    simulate command runs it alone as the check of its config's run."""
    if not 0 < T < np.inf:
        raise ValueError("horizon must be positive and finite, got %r" % (T,))
    y = sys.to_vector(u0)
    if not np.all(np.isfinite(y)):
        raise ValueError("u0 must be finite")
    if isinstance(control, PiecewiseConstant):
        span, width = control.breakpoints, control.values.shape[1]
    elif isinstance(control, PiecewisePolynomial):
        span, width = control.knots, control.coefficients.shape[2]
    elif control is None:
        return y, [(0.0, T, np.zeros(sys.dim))]
    else:
        raise TypeError("unsupported control signal")
    if width != len(sys.controlled_set):
        raise ValueError("control dimension != |controlled_set|")
    t_end = T - _END_ROUNDOFF * T
    if span[0] > 0 or span[-1] < t_end:
        raise ValueError("control breakpoints span [%r, %r], which does not "
                         "cover [0, %r]" % (float(span[0]), float(span[-1]), T))
    if isinstance(control, PiecewisePolynomial):
        return y, [(0.0, T, None)]
    knots = [0.0] + [t for t in control.breakpoints if 0.0 < t < t_end] + [T]
    return y, [(t0, t1, sys.control_vec(control.value(0.5 * (t0 + t1))))
               for t0, t1 in zip(knots[:-1], knots[1:])]


def integrate(sys: GalerkinSystem, u0: SpectralField, control, T: float,
              tol: float = 1e-8, sink=None) -> Trajectory:
    """Integrate the controlled system over [0, T] with adaptive_lawson at
    absolute local error tol on the coefficients, under no control (None),
    a PiecewiseConstant or a PiecewisePolynomial one.  Control breakpoints
    are exact knots: each starts a new segment, but one within roundoff of
    T counts as T.  The Trajectory keeps the accepted times and states, no
    stages, and its stats sum the work of all segments.  Given a sink, each
    accepted time and state, (0, u0) first, goes to sink(t, y) as it is
    accepted, and the Trajectory keeps no states (None)."""
    y, segments = run_segments(sys, u0, control, T)
    states = []
    collect = sink is None
    if collect:
        def sink(t, z):
            states.append(z)
    sink(0.0, y.copy())
    times = [0.0]
    max_step = getattr(control, "max_step", np.inf)
    stats = IntegratorStats()

    def nonlin(z, t):
        # v is the current segment's; a polynomial adds its value at the
        # controlled modes, the same sum as adding its control_vec
        out = sys.quadratic_vec(z) + sys.forcing_vec
        if v is None:
            out[sys.ctrl_idx] += control.value(t)
        else:
            out += v
        return out
    for t0, t1, v in segments:
        run = adaptive_lawson(sys.lam, nonlin, y, t0, t1, tol,
                              max_step=max_step, h_min=1e-13 * T, sink=sink)
        times.extend(run.times[1:])
        stats.add(run.stats)
        y = run.end
    return Trajectory(sys, np.array(times),
                      np.array(states) if collect else None, stats)


def integrate_tangent(sys: GalerkinSystem, u0: SpectralField, control,
                      T: float, directions, jumps=None, tol: float = 1e-8):
    """The end state of the run integrate makes under a constant-valued
    control (None or a PiecewiseConstant) and its derivative in P
    parameters, from one run of the state and its tangent columns as one
    (dim, 1 + P) stack on one step sequence.

    directions, shape (len(controlled_set), P), is the derivative of the
    control value in each parameter, the same on every segment: between
    breakpoints a tangent column Z follows the variational equation
    Z' = lam Z + B(y, Z) + control_vec(direction).  jumps, one (dim, P)
    array per control breakpoint, is added to the tangent at that
    breakpoint, before the segment that starts there: a parameter that
    moves a breakpoint by d moves the state by d times the control's jump
    there.  Returns the end state, the (dim, P) end tangent and the run's
    IntegratorStats; the state is stepped with its tangents, so it is not
    integrate's to the last bit."""
    if isinstance(control, PiecewisePolynomial):
        raise TypeError("integrate_tangent takes a piecewise-constant control")
    Y = np.zeros((sys.dim, 1 + np.shape(directions)[1]))
    Y[:, 0], segments = run_segments(sys, u0, control, T)
    forced = np.zeros_like(Y)
    forced[sys.ctrl_idx, 1:] = directions
    knots = control.breakpoints if jumps is not None else ()
    k = 0
    stats = IntegratorStats()

    def nonlin(Z, t):
        # B(y, y) = 2 Q(y): one product serves the state and its tangents
        out = sys.bilinear_vec(Z[:, 0], Z)
        out[:, 0] *= 0.5
        out += forced
        return out
    for t0, t1, v in segments:
        while k < len(knots) and knots[k] <= t0:
            Y[:, 1:] += jumps[k]
            k += 1
        forced[:, 0] = sys.forcing_vec + v
        run = adaptive_lawson(sys.lam[:, None], nonlin, Y, t0, t1, tol,
                              h_min=1e-13 * T)
        stats.add(run.stats)
        Y = run.end
    return Y[:, 0], Y[:, 1:], stats


# ---------------------------------------------------------------------------
# Run manifests


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
