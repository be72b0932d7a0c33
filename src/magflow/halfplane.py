"""Upper half-plane model of the hyperbolic plane and its isometries.

Points are complex numbers z with Im z > 0 and the metric is |dz| / Im z
(constant curvature -1).  Orientation-preserving isometries are Moebius
maps

    z -> (a z + b) / (c z + d),        a d - b c = 1,

acting on tangent vectors through the derivative, v -> v / (c z + d)^2.
A matrix and its negative act identically, so elements live in PSL(2, R):
every matrix is renormalized to determinant one and stored with a
deterministic global sign.

The unit tangent bundle is identified with PSL(2, R) through the orbit of
the reference tangent (i, i); ``frame_of`` inverts that identification.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Moebius",
    "Tangent",
    "mobius_apply",
    "hyp_dist",
    "hyp_dist_vec",
    "hyp_norm",
    "rotate_fiber",
    "rotation_about_i",
    "frame_of",
    "to_disk",
    "from_disk",
]


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

    def cosh_displacement(self) -> float:
        """cosh of the hyperbolic distance d(i, g.i)."""
        return 0.5 * (self.a * self.a + self.b * self.b + self.c * self.c + self.d * self.d)

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


def mobius_apply(g: Moebius, p: Tangent) -> Tangent:
    """Action of g on a tangent: ((az+b)/(cz+d), v/(cz+d)^2)."""
    w = g.c * p.z + g.d
    return Tangent((g.a * p.z + g.b) / w, p.v / (w * w))


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


def rotate_fiber(p: Tangent, angle: float) -> Tangent:
    """Rotate the tangent vector by angle in the conformal tangent plane."""
    return Tangent(p.z, p.v * cmath.exp(1j * angle))


def rotation_about_i(angle: float) -> Moebius:
    """The isometry fixing i whose derivative at i is multiplication by e^{i angle}."""
    h = 0.5 * angle
    return Moebius(math.cos(h), math.sin(h), -math.sin(h), math.cos(h))


def frame_of(p: Tangent) -> Moebius:
    """The element g with g.(i, i) = p, inverse of the orbit map.

    Unique up to sign; p must be a unit tangent (hyperbolic norm 1 within
    1e-10).
    """
    y = p.z.imag
    if abs(hyp_norm(p) - 1.0) > 1e-10:
        raise ValueError("non-unit tangent")
    psi = cmath.phase(p.v) - 0.5 * math.pi
    ry = math.sqrt(y)
    translate = Moebius(ry, p.z.real / ry, 0.0, 1.0 / ry)
    return translate @ rotation_about_i(psi)


def to_disk(z):
    """Cayley map to the unit disk sending i to 0; works on arrays."""
    return (z - 1j) / (z + 1j)


def from_disk(w):
    """Inverse Cayley map, unit disk to half-plane, 0 to i; works on arrays."""
    return 1j * (1.0 + w) / (1.0 - w)
