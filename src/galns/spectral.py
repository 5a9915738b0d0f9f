"""Rectangle geometry, solenoidal eigenbasis bookkeeping, Fourier norms,
field evaluation and Gauss-Legendre quadrature grids.

The basis field indexed by k = (k1, k2), k1, k2 >= 1, on [0,a]x[0,b] is

    W_k = (-(k2*pi/b) sin(k1*pi*x1/a) cos(k2*pi*x2/b),
            (k1*pi/a) cos(k1*pi*x1/a) sin(k2*pi*x2/b)).

Each W_k is divergence-free, tangent to the boundary, and an eigenfunction
of the Stokes operator with eigenvalue -kbar(k) where
kbar(k) = -pi^2 (k1^2/a^2 + k2^2/b^2).  The square of its L2 norm is
-kbar(k) * a*b/4.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

ModeIndex = tuple[int, int]


@dataclass(frozen=True)
class RectGeometry:
    """Side lengths of the rectangle [0,a] x [0,b]."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError("side lengths must be positive")
        # the wavenumbers divide by the squares
        if not all(0 < s * s < math.inf for s in (self.a, self.b)):
            raise ValueError("side lengths must have finite nonzero squares, "
                             "got %r and %r" % (self.a, self.b))


def check_mode(k: ModeIndex) -> ModeIndex:
    k1, k2 = k
    if not (isinstance(k1, (int, np.integer)) and isinstance(k2, (int, np.integer))):
        raise ValueError(f"mode index must be integer pair, got {k!r}")
    if k1 < 1 or k2 < 1:
        raise ValueError(f"mode index components must be >= 1, got {k!r}")
    return (int(k1), int(k2))


def check_system(nu, forcing, mode_set, controlled_set):
    """The checks of a controlled system's inputs: nu positive and finite,
    valid modes, controlled_set inside mode_set and the forcing (a
    SpectralField) finite and supported in mode_set.  GalerkinSystem and
    the lierank command, which builds none, both read them.  Returns
    mode_set and controlled_set as sorted tuples."""
    if not 0 < nu < math.inf:
        raise ValueError("viscosity must be positive and finite, got %r"
                         % (nu,))
    mode_set = tuple(sorted(tuple(k) for k in mode_set))
    controlled_set = tuple(sorted(tuple(k) for k in controlled_set))
    for k in mode_set:
        check_mode(k)
    if not set(controlled_set) <= set(mode_set):
        raise ValueError("controlled_set must be a subset of mode_set")
    if not set(forcing.coeffs) <= set(mode_set):
        raise ValueError("forcing must be supported in mode_set")
    if not all(map(math.isfinite, forcing.coeffs.values())):
        raise ValueError("forcing must be finite")
    return mode_set, controlled_set


def mode_set_K(level: int) -> list[ModeIndex]:
    """K^j = {(n1,n2): 1 <= n1,n2 <= j+2} minus the far corner; |K^j| = (j+2)^2 - 1."""
    if level < 1:
        raise ValueError("level must be >= 1")
    top = level + 2
    return [(i, j) for i in range(1, top + 1) for j in range(1, top + 1)
            if (i, j) != (top, top)]


def infer_level(mode_set) -> int:
    """The level N with mode_set == K^N (in any order); ValueError when
    there is none."""
    n = int(round(math.sqrt(len(mode_set) + 1))) - 2
    if n < 1 or sorted(mode_set_K(n)) != sorted(tuple(k) for k in mode_set):
        raise ValueError("mode_set is not of the form K^N")
    return n


def kbar(k: ModeIndex, geom: RectGeometry) -> float:
    """-pi^2 (k1^2/a^2 + k2^2/b^2); strictly negative."""
    k1, k2 = k
    return -math.pi**2 * (k1**2 / geom.a**2 + k2**2 / geom.b**2)


@dataclass
class SpectralField:
    """Finite coefficient table of a truncated divergence-free velocity field."""

    geom: RectGeometry
    coeffs: dict[ModeIndex, float] = field(default_factory=dict)

    def __post_init__(self):
        self.coeffs = {check_mode(k): float(v) for k, v in self.coeffs.items()}

    def __getitem__(self, k: ModeIndex) -> float:
        return self.coeffs.get(k, 0.0)

    def norm(self, kind: str = "H") -> float:
        """sqrt((ab/4) sum (-kbar)^p u_k^2), p = 0, 1, 2, 3 for V', H, V, DA;
        V' is the dual of V under the H pairing (ab/4) sum (-kbar_k) f_k u_k.

        The coefficients are divided by the largest |u_k| before squaring, so
        u_k^2 neither underflows nor overflows: the result keeps full
        precision whenever it is itself a normal float."""
        p = {"V'": 0, "H": 1, "V": 2, "DA": 3}[kind]
        m = max((abs(v) for v in self.coeffs.values()), default=0.0)
        if m == 0 or math.isinf(m):
            return float(m)
        s = sum((-kbar(k, self.geom)) ** p * (v / m) ** 2
                for k, v in self.coeffs.items())
        return m * math.sqrt(self.geom.a * self.geom.b / 4 * s)


def eval_components(u: SpectralField, X1, X2):
    """Velocity components and their first derivatives at the points
    (X1, X2), two arrays of one shape."""
    a, b = u.geom.a, u.geom.b
    v1 = np.zeros_like(X1)
    v2 = np.zeros_like(X1)
    d1v1 = np.zeros_like(X1)
    d2v1 = np.zeros_like(X1)
    d1v2 = np.zeros_like(X1)
    d2v2 = np.zeros_like(X1)
    for (k1, k2), c in u.coeffs.items():
        a1 = k1 * np.pi / a
        a2 = k2 * np.pi / b
        s1, c1 = np.sin(a1 * X1), np.cos(a1 * X1)
        s2, c2 = np.sin(a2 * X2), np.cos(a2 * X2)
        v1 += c * (-a2) * s1 * c2
        v2 += c * a1 * c1 * s2
        d1v1 += c * (-a2 * a1) * c1 * c2
        d2v1 += c * (a2 * a2) * s1 * s2
        d1v2 += c * (-a1 * a1) * s1 * s2
        d2v2 += c * (a1 * a2) * c1 * c2
    return (v1, v2), ((d1v1, d2v1), (d1v2, d2v2))


@functools.lru_cache(maxsize=None)
def legendre_rule(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per npts
    (leggauss is an eigenvalue solve) and returned as read-only arrays, so
    no caller can alter the cached rule."""
    x, w = np.polynomial.legendre.leggauss(npts)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre_grid(geom: RectGeometry, npts: int):
    """Tensor-product Gauss-Legendre nodes/weights on the rectangle, from
    the cached legendre_rule(npts)."""
    x, w = legendre_rule(npts)
    x1 = geom.a * (x + 1) / 2
    w1 = geom.a / 2 * w
    x2 = geom.b * (x + 1) / 2
    w2 = geom.b / 2 * w
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    W = np.outer(w1, w2)
    return X1, X2, W
