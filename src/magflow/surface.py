"""A concrete genus-2 hyperbolic surface: the Bolza quotient of the half-plane.

The surface is presented as the quotient by the Fuchsian group generated by
the side pairings of the regular hyperbolic octagon centered at i with
vertex angle pi/4 (all eight vertices identified, total angle 2 pi).  The
octagon is the Dirichlet domain of the center: inradius
rho = arccosh(cot(pi/8)), circumradius arccosh(cot^2(pi/8)), area 4 pi.

The eight side pairings are rotation conjugates of a single hyperbolic
translation of length 2 rho,

    g_k = r(k pi/4) diag(e^rho, e^-rho) r(-k pi/4),      k = 0..7,

so g_{k+4} = g_k^{-1} and all traces equal 2(1 + sqrt 2).  They satisfy the
single octagon relation g0 g3 g2^-1 g1 g0^-1 g3^-1 g2 g1^-1 = 1, encoded by
the index word (0, 3, 6, 1, 4, 7, 2, 5).

Operations: fold points into the fundamental domain (greedy distance
descent; a point is a local minimum of d(., i) over the generator orbit
exactly when it lies in the Dirichlet domain), enumerate the group elements
whose translated domain can meet a centered disk (breadth-first search over
the Cayley graph), fold the planar pushforward density onto the surface by
summing over those translates, and time-average observables along critical
energy trajectories, which equidistribute toward the area measure.

All magnetic configurations used with the surface must satisfy the
integrality constraint 2B(genus - 1) = 2B in Z.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .flow import MagneticConfig, flow_matrix, period
from .halfplane import (
    Moebius,
    Tangent,
    frame_of,
    from_disk,
    hyp_dist,
    hyp_norm,
    rotation_about_i,
)
from .torus import DensitySample, Flag, alpha_radial, preimages_cover, radius

__all__ = [
    "ENUM_CAP",
    "FuchsianGroup",
    "DomainReduction",
    "bolza_group",
    "relation_residual",
    "octagon_area",
    "require_chern",
    "word_element",
    "reduce_point",
    "in_domain_mask",
    "translates_meeting_disk",
    "density_surface",
    "birkhoff_average",
    "area_average",
]

ENUM_CAP = 6.0  # translate enumeration refuses disks at least this large
_DESCENT_EPS = 1e-12
_MAX_STEPS = 100_000


@dataclass(frozen=True)
class FuchsianGroup:
    """Side-pairing generators of a compact Fuchsian group with central
    Dirichlet domain; generators[k + 4] = generators[k]^{-1}."""

    generators: tuple
    relation_word: tuple
    inradius: float
    circumradius: float
    vertices: tuple
    genus: int = 2


@dataclass(frozen=True)
class DomainReduction:
    representative: complex
    word: tuple


def bolza_group() -> FuchsianGroup:
    """Construct the Bolza octagon group from its geometry."""
    cot8 = 1.0 / math.tan(math.pi / 8.0)
    rho = math.acosh(cot8)
    circ = math.acosh(cot8 * cot8)
    along = Moebius(math.exp(rho), 0.0, 0.0, math.exp(-rho))
    gens = []
    for k in range(8):
        r = rotation_about_i(k * math.pi / 4.0)
        gens.append(r @ along @ r.inv())
    vr = math.tanh(0.5 * circ)
    verts = tuple(
        complex(from_disk(vr * complex(math.cos(a), math.sin(a))))
        for a in ((2 * k + 1) * math.pi / 8.0 for k in range(8))
    )
    return FuchsianGroup(
        generators=tuple(gens),
        relation_word=(0, 3, 6, 1, 4, 7, 2, 5),
        inradius=rho,
        circumradius=circ,
        vertices=verts,
    )


def word_element(group: FuchsianGroup, word) -> Moebius:
    """Product of generators realizing a reduction word (word[0] acts first)."""
    m = Moebius.identity()
    for k in word:
        m = group.generators[k] @ m
    return m


def relation_residual(group: FuchsianGroup) -> float:
    """Sup-norm distance of the defining relation's product from +-identity."""
    p = Moebius.identity()
    for k in group.relation_word:
        p = p @ group.generators[k]
    ident = Moebius.identity()
    dp = max(abs(x - y) for x, y in zip(p.entries(), ident.entries()))
    dm = max(abs(x + y) for x, y in zip(p.entries(), ident.entries()))
    return min(dp, dm)


def octagon_area(group: FuchsianGroup) -> float:
    """Fundamental-domain area from the angle defect of the triangle fan."""
    total = 0.0
    verts = group.vertices
    for j in range(len(verts)):
        v1, v2 = verts[j], verts[(j + 1) % len(verts)]
        a = hyp_dist(1j, v1)
        b = hyp_dist(1j, v2)
        c = hyp_dist(v1, v2)
        ca, cb, cc = math.cosh(a), math.cosh(b), math.cosh(c)
        sa, sb, sc = math.sinh(a), math.sinh(b), math.sinh(c)
        alpha = math.acos((ca * cb - cc) / (sa * sb))
        beta = math.acos((cc * ca - cb) / (sc * sa))
        gamma = math.acos((cb * cc - ca) / (sb * sc))
        total += math.pi - alpha - beta - gamma
    return total


def require_chern(cfg: MagneticConfig, genus: int = 2) -> None:
    """Integrality of the field on a closed surface: 2B(genus-1) must be an integer."""
    q = 2.0 * cfg.B * (genus - 1)
    if abs(q - round(q)) > 1e-9:
        raise ValueError(
            "Chern constraint violated: 2B(genus-1) must be an integer on this surface"
        )


def _descend(generators, z: complex):
    """Greedy steepest descent of d(., i) over generator moves.

    Returns the local minimizer (a Dirichlet-domain representative) and the
    applied index word.
    """
    word = []
    d0 = hyp_dist(z, 1j)
    for _ in range(_MAX_STEPS):
        best = -1
        best_d = d0 - _DESCENT_EPS
        for idx, g in enumerate(generators):
            dd = hyp_dist(g.apply(z), 1j)
            if dd < best_d:
                best = idx
                best_d = dd
        if best < 0:
            return z, word
        z = generators[best].apply(z)
        d0 = hyp_dist(z, 1j)
        word.append(best)
    raise ValueError("reduction failed")


def reduce_point(group: FuchsianGroup, z: complex) -> DomainReduction:
    """Fold z into the fundamental domain, recording the generator word."""
    rep, word = _descend(group.generators, z)
    return DomainReduction(representative=rep, word=tuple(word))


def in_domain_mask(group: FuchsianGroup, z, slack: float = 1e-12):
    """Vectorized Dirichlet-domain membership test for an array of points."""
    z = np.asarray(z)
    ref = 1.0 + np.abs(z - 1j) ** 2 / (2.0 * z.imag)
    ok = np.ones(z.shape, dtype=bool)
    for g in group.generators:
        w = g.apply(z)
        ok &= ref <= 1.0 + np.abs(w - 1j) ** 2 / (2.0 * w.imag) + slack
    return ok


class _UpToSignSet:
    """Set of PSL(2, R) elements robust to float jitter: entries are
    quantized to cells, with neighbor-cell probing on lookup."""

    def __init__(self, cell: float = 1e-4):
        self.cell = cell
        self._cells = {}

    def _key(self, g: Moebius):
        q = self.cell
        return (round(g.a / q), round(g.b / q), round(g.c / q), round(g.d / q))

    def __contains__(self, g: Moebius) -> bool:
        ka, kb, kc, kd = self._key(g)
        for da in (0, -1, 1):
            for db in (0, -1, 1):
                for dc in (0, -1, 1):
                    for dd in (0, -1, 1):
                        bucket = self._cells.get((ka + da, kb + db, kc + dc, kd + dd))
                        if bucket and any(g.close_to(h, 1e-8) for h in bucket):
                            return True
        return False

    def add(self, g: Moebius) -> None:
        self._cells.setdefault(self._key(g), []).append(g)


@lru_cache(maxsize=16)
def translates_meeting_disk(group: FuchsianGroup, R: float):
    """All group elements whose translated domain can intersect the closed
    disk of radius R about the center.

    A translate gF meets the disk only if d(i, g.i) <= R + circumradius;
    breadth-first search over the Cayley graph with an exploration margin of
    two circumradii guarantees every such element is reached (the geodesic
    to g.i crosses a side-adjacent chain of translates, each within a
    circumradius of it).
    """
    if R >= ENUM_CAP:
        raise ValueError("disk too large for exact enumeration")
    if R < 0.0:
        raise ValueError("disk radius must be nonnegative")
    include = math.cosh(R + group.circumradius)
    explore = math.cosh(R + 2.0 * group.circumradius + 0.5)
    seen = _UpToSignSet()
    ident = Moebius.identity()
    seen.add(ident)
    queue = deque([ident])
    found = [ident]
    while queue:
        g = queue.popleft()
        for gen in group.generators:
            h = g @ gen
            if h in seen:
                continue
            seen.add(h)
            ch = h.cosh_displacement()
            if ch <= explore:
                queue.append(h)
                if ch <= include:
                    found.append(h)
    found.sort(key=lambda m: (m.cosh_displacement(), m.a, m.b, m.c, m.d))
    return tuple(found)


def density_surface(group: FuchsianGroup, cfg: MagneticConfig, y: complex,
                    center_band: float = 1e-3, boundary_band: float = 1e-3) -> DensitySample:
    """Surface pushforward density: the planar density alpha_radial summed
    over all lifts of y that land in the projected disk."""
    require_chern(cfg)
    y0 = reduce_point(group, y).representative
    R = radius(cfg)
    total = 0.0
    pre = []
    near_center = False
    near_boundary = False
    for g in translates_meeting_disk(group, R):
        w = g.apply(y0)
        d = hyp_dist(1j, w)
        if d >= R + 1e-9:
            continue
        near_center = near_center or d < center_band * R
        near_boundary = near_boundary or abs(d - R) < boundary_band * R
        total += alpha_radial(cfg, d)
        pre.extend(preimages_cover(cfg, w))
    if near_center:
        flag = Flag.NEAR_CENTER
    elif near_boundary:
        flag = Flag.NEAR_BOUNDARY
    elif pre:
        flag = Flag.REGULAR
    else:
        flag = Flag.OUTSIDE
    return DensitySample(
        point=y0,
        alpha_raw=total,
        alpha_normalized=total / (2.0 * math.pi * period(cfg)),
        preimages=tuple(pre),
        flag=flag,
    )


def birkhoff_average(group: FuchsianGroup, cfg: MagneticConfig, observable,
                     T: float, p0: Tangent, n_steps: int = 100_000) -> float:
    """Time average (1/T) int_0^T observable(folded trajectory) dt.

    Only defined at the critical energy, where the flow is uniquely ergodic
    and the average converges to the area average for every initial
    condition.  The observable must accept complex half-plane points as a
    numpy array.  Midpoint composite rule; trajectory frames are closed-form
    (no step-to-step error accumulation), and the fold into the fundamental
    domain is maintained incrementally.
    """
    require_chern(cfg)
    if abs(cfg.E - cfg.Ec) > 1e-9:
        raise ValueError("equidistribution test requires critical energy")
    if not T > 0.0:
        raise ValueError("averaging time must be positive")
    if n_steps < 1:
        raise ValueError(f"step count must be at least 1, got {n_steps}")
    if abs(hyp_norm(p0) - cfg.lam) > 1e-8:
        raise ValueError("off energy shell")
    unit = Tangent(p0.z, p0.v * (p0.z.imag / abs(p0.v)))
    g0 = frame_of(unit)
    gens = group.generators
    dt = T / n_steps
    fold = Moebius.identity()
    pts = np.empty(n_steps, dtype=complex)
    for j in range(n_steps):
        frame = fold @ (g0 @ flow_matrix(cfg, (j + 0.5) * dt))
        z = frame.apply(1j)
        z, moves = _descend(gens, z)
        for idx in moves:
            fold = gens[idx] @ fold
        pts[j] = z
    return float(np.mean(observable(pts)))


def area_average(group: FuchsianGroup, observable, resolution: int = 600) -> float:
    """Area average of an observable over the fundamental domain.

    Disk-model grid quadrature of the masked observable with the hyperbolic
    area element 4 dA_eucl / (1 - |u|^2)^2, normalized by the exact polygon
    area (angle defect).  Supports observables vanishing near the domain
    boundary best; the mask is the Dirichlet membership test.
    """
    if resolution < 2:
        raise ValueError(f"area-average resolution must be at least 2, got {resolution}")
    re = math.tanh(0.5 * group.circumradius)
    xs = np.linspace(-re, re, resolution)
    cell = (xs[1] - xs[0]) ** 2
    u = xs[None, :] + 1j * xs[:, None]
    inside_disk = np.abs(u) < re
    z = np.where(inside_disk, from_disk(np.where(inside_disk, u, 0.0)), 1j)
    mask = inside_disk & in_domain_mask(group, z)
    weight = 4.0 / (1.0 - np.abs(u) ** 2) ** 2
    vals = np.asarray(observable(z), dtype=float)
    integral = float(np.sum(np.where(mask, vals * weight, 0.0)) * cell)
    return integral / octagon_area(group)
