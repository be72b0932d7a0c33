"""Upper half-plane model of the hyperbolic plane and its isometries.

Points are complex numbers z with Im z > 0 and the metric is |dz| / Im z
(constant curvature -1).  Orientation-preserving isometries are Moebius
maps

    z -> (a z + b) / (c z + d),        a d - b c = 1,

acting on tangent vectors through the derivative, v -> v / (c z + d)^2.
A matrix and its negative act identically, so elements live in PSL(2, R).
This module holds the one arithmetic of entries (a, b, c, d), floats or arrays
along a first axis: the 2x2 product _framed, _unit (times 1/sqrt(det)), _compose
(the two in turn; none fixes a sign), the action _act and cosh d(i, g.i).

The unit tangent bundle is PSL(2, R) through the orbit of the reference
tangent (i, i); ``frame_of`` inverts that map and returns entries.
``Moebius``, stored with a deterministic sign, is flow.flow_matrix's type.
The density grids, area average and preimage check walk one grid: _disk_blocks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

_GRID_CELLS = 1 << 14  # points in a block of _disk_blocks, in whole rows


class Moebius:
    """A real 2x2 unimodular matrix up to global sign: an element of PSL(2, R).

    The constructor accepts any matrix with positive determinant and
    renormalizes it by 1/sqrt(det); the stored sign makes the first nonzero
    entry of (a, b) positive so equal group elements have equal entries.
    Instances are immutable by convention.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: float, b: float, c: float, d: float):
        det = a * d - b * c
        if not (det > 0.0 and math.isfinite(det)):
            raise ValueError("matrix is not in PSL(2, R): need positive finite determinant")
        if det != 1.0:
            s = 1.0 / math.sqrt(det)
            a, b, c, d = a * s, b * s, c * s, d * s
        if a < 0.0 or (a == 0.0 and b < 0.0):
            a, b, c, d = -a, -b, -c, -d
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    @staticmethod
    def identity() -> "Moebius":
        return Moebius(1.0, 0.0, 0.0, 1.0)

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    @property
    def trace(self) -> float:
        return self.a + self.d

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __matmul__(self, other: "Moebius") -> "Moebius":
        return Moebius(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> "Moebius":
        return Moebius(self.d, -self.b, -self.c, self.a)

    def apply(self, z):
        """Moebius action on a point; works on scalars and numpy arrays."""
        return (self.a * z + self.b) / (self.c * z + self.d)

    def close_to(self, other: "Moebius", tol: float = 1e-9) -> bool:
        """Equality up to global sign within tolerance."""
        dp = max(
            abs(self.a - other.a), abs(self.b - other.b),
            abs(self.c - other.c), abs(self.d - other.d),
        )
        dm = max(
            abs(self.a + other.a), abs(self.b + other.b),
            abs(self.c + other.c), abs(self.d + other.d),
        )
        return min(dp, dm) <= tol

    def __eq__(self, other):
        if not isinstance(other, Moebius):
            return NotImplemented
        return self.entries() == other.entries()

    def __hash__(self):
        return hash(self.entries())

    def __repr__(self):
        return f"Moebius({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"


@dataclass(frozen=True)
class Tangent:
    """Tangent vector v at the half-plane point z (both complex)."""

    z: complex
    v: complex

    def __post_init__(self):
        if not self.z.imag > 0.0:
            raise ValueError("point must lie in the upper half-plane")


def hyp_norm(p: Tangent) -> float:
    """Hyperbolic length |v| / Im z of a tangent vector."""
    return abs(p.v) / p.z.imag


def hyp_dist(z: complex, w: complex) -> float:
    """Hyperbolic distance, 2 arcsinh(|z-w| / (2 sqrt(Im z Im w))).

    Equal to arccosh(1 + |z-w|^2 / (2 Im z Im w)), but keeps full relative
    accuracy for small distances, where 1 + x rounds x away.
    """
    return 2.0 * math.asinh(abs(z - w) / (2.0 * math.sqrt(z.imag * w.imag)))


def hyp_dist_vec(z, w):
    """Vectorized hyp_dist; z, w broadcastable complex arrays."""
    z = np.asarray(z)
    w = np.asarray(w)
    return 2.0 * np.arcsinh(np.abs(z - w) / (2.0 * np.sqrt(z.imag * w.imag)))


def _framed(frame, entries):
    """Entries of G @ M from those (a, b, c, d) of G and of M, broadcast: the one 2x2 product."""
    fa, fb, fc, fd = frame
    ea, eb, ec, ed = entries
    return fa * ea + fb * ec, fa * eb + fb * ed, fc * ea + fd * ec, fc * eb + fd * ed


def _unit(g):
    """Entries (a, b, c, d) along the first axis of g times 1/sqrt(a d - b c),
    a factor of exactly 1.0 where det is 1.0; the sign is kept."""
    a, b, c, d = g
    return g * (1.0 / np.sqrt(a * d - b * c))


def _compose(g, h):
    """Entries of g h along the first axes, by _framed then _unit: the one group product."""
    return _unit(np.array(_framed(g, h)))


def _act(g, z):
    """(g.z, c z + d) for entries (a, b, c, d) along g's first axis, broadcast against z."""
    w = g[2] * z + g[3]
    return (g[0] * z + g[1]) / w, w


def _cosh_displacement(g):
    """cosh d(i, g.i) for entries (a, b, c, d) along the first axis of g."""
    return 0.5 * (g[0] ** 2 + g[1] ** 2 + g[2] ** 2 + g[3] ** 2)


def frame_of(p: Tangent) -> tuple:
    """Entries (a, b, c, d) of a g with g.(i, i) = p, unique up to the sign that _compose
    keeps: the translate to p.z times the rotation about i by phase(p.v) - pi/2.  p must
    be a finite unit tangent (hyperbolic norm 1 within 1e-10)."""
    if abs(hyp_norm(p) - 1.0) > 1e-10:
        raise ValueError("non-unit tangent")
    h = 0.5 * (cmath.phase(p.v) - 0.5 * math.pi)
    ry = math.sqrt(p.z.imag)
    g = _compose(_unit(np.array([ry, p.z.real / ry, 0.0, 1.0 / ry])),
                 _unit(np.array([math.cos(h), math.sin(h), -math.sin(h), math.cos(h)])))
    if not np.isfinite(g).all():
        raise ValueError(f"tangent is not finite: {p!r}")
    return tuple(g.tolist())


def to_disk(z):
    """Cayley map to the unit disk sending i to 0; works on arrays."""
    return (z - 1j) / (z + 1j)


def from_disk(w):
    """Inverse Cayley map, unit disk to half-plane, 0 to i; works on arrays."""
    return 1j * (1.0 + w) / (1.0 - w)


def _disk_blocks(xs, radius: float = 0.999999):
    """The disk-model grid xs x xs (row iy holds y = xs[iy]) in blocks of whole rows, at least
    one and about _GRID_CELLS points a block: (lo, u, inside, z) for the rows from lo, inside =
    |u| < radius, z = from_disk(u) there and i elsewhere; each is the whole grid's, bit for bit."""
    rows = max(1, _GRID_CELLS // len(xs))
    for lo in range(0, len(xs), rows):
        u = xs[None, :] + 1j * xs[lo:lo + rows, None]
        inside = np.abs(u) < radius
        yield lo, u, inside, from_disk(np.where(inside, u, 0.0))
