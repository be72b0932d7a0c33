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

Operations, each an array kernel: fold points into
the fundamental domain (greedy distance descent; a point is a local minimum
of d(., i) over the generator orbit exactly when it lies in the Dirichlet
domain), enumerate the group elements whose translated domain can meet a
centered disk (breadth-first search over the Cayley graph, keyed on orbit
points g.i), fold the planar pushforward density onto the surface by
summing over those translates, and time-average observables along critical
energy trajectories, which equidistribute toward the area measure; the
averages take their samples in blocks of closed-form frames, each block
folded as one array.  reduce_point and density_surface are the fold and the
density at one point.

All magnetic configurations used with the surface must satisfy the
integrality constraint 2B(genus - 1) = 2B in Z.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .flow import MagneticConfig, _exp_entries, _exp_scalars, _framed, _shell_frame
from .halfplane import (
    Moebius,
    Tangent,
    from_disk,
    hyp_dist,
    hyp_dist_vec,
    rotation_about_i,
    to_disk,
)
from .torus import _flags, alpha_radial, preimage_count, radius

ENUM_CAP = 6.0  # translate enumeration refuses disks at least this large
_DESCENT_EPS = 1e-12
_MAX_STEPS = 100_000
# a Birkhoff block holds at most _BLOCK_STEPS samples spanning flow time t
# with B t <= _BLOCK_BT, so its frames lie within cosh d = 1 + (B t)^2 / 2
# <= 33 of the block's start frame
_BLOCK_STEPS = 1024
_BLOCK_BT = 8.0
# a single step longer than _BLOCK_BT / B may reach this far, no further
_MAX_BLOCK_COSH = 1e8
# area_average evaluates this many grid rows at a time
_AREA_ROWS = 32


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


def require_chern(cfg: MagneticConfig) -> None:
    """Integrality of the field on the genus-2 surface: 2B(genus-1) = 2B must
    be a positive integer (B > 0 rules out 0, which a tiny B would round to)."""
    q = 2.0 * cfg.B
    if round(q) < 1 or abs(q - round(q)) > 1e-9:
        raise ValueError(
            "Chern constraint violated: 2B(genus-1) must be a positive integer on this surface"
        )


def _descend_many(generators, z):
    """Greedy steepest descent of d(., i) over generator moves, for an array
    of points at once: the one fold rule.

    A move must lower d(., i) by more than _DESCENT_EPS, the first minimum
    (lowest generator index) wins, and a point still moving after _MAX_STEPS
    passes raises "reduction failed".  Each point's candidates g.z are ranked
    by |g.z - i|^2 / Im g.z, which is monotone in d(g.z, i) and equals
    |(a - ic) z + b - id|^2 / Im z for g = (a, b; c, d): only the numerator
    varies, and it is linear in (Re z, Im z, 1).  The chosen move alone is
    applied and measured.  Returns the folded points and their words: row j
    holds the generator indices applied to z[j] in order, padded with -1.
    """
    z = np.array(z, dtype=complex).ravel()
    ga, gb, gc, gd = (np.array(col) for col in zip(*(g.entries() for g in generators)))
    rank = np.concatenate([np.stack([ga, gc, gb], 1), np.stack([-gc, ga, -gd], 1)])
    n = len(generators)
    d0 = hyp_dist_vec(z, 1j)
    live = np.arange(z.size)
    moves = []
    for _ in range(_MAX_STEPS):
        zl = z[live]
        r = rank @ np.array([zl.real, zl.imag, np.ones(zl.size)])
        r *= r
        best = np.argmin(r[:n] + r[n:], axis=0)  # first minimum: the lowest index
        w = (ga[best] * zl + gb[best]) / (gc[best] * zl + gd[best])
        best_d = hyp_dist_vec(w, 1j)
        go = best_d < d0[live] - _DESCENT_EPS
        if not go.any():
            words = np.full((z.size, len(moves)), -1, dtype=np.int8)
            for k, (at, idx) in enumerate(moves):
                words[at, k] = idx
            return z, words
        live = live[go]
        z[live] = w[go]
        d0[live] = best_d[go]
        moves.append((live, best[go]))
    raise ValueError("reduction failed")


def reduce_point(group: FuchsianGroup, z: complex) -> DomainReduction:
    """Fold z into the fundamental domain, recording the generator word."""
    folded, words = _descend_many(group.generators, z)
    word = words[0]
    return DomainReduction(representative=complex(folded[0]),
                           word=tuple(word[word >= 0].tolist()))


def in_domain_mask(group: FuchsianGroup, z):
    """Vectorized Dirichlet-domain membership test for an array of points."""
    z = np.asarray(z)
    ref = 1.0 + np.abs(z - 1j) ** 2 / (2.0 * z.imag)
    ok = np.ones(z.shape, dtype=bool)
    for g in group.generators:
        w = g.apply(z)
        # the slack keeps points on a side, which rounding puts either way
        ok &= ref <= 1.0 + np.abs(w - 1j) ** 2 / (2.0 * w.imag) + 1e-12
    return ok


class _OrbitPoints:
    """Group elements keyed by their orbit points w = g.i.

    The group is torsion-free and its Dirichlet domain about i holds the
    disk of radius rho (the inradius), so distinct elements have orbit
    points at least 2 rho apart: g is known when a stored point lies within
    rho of its own.  Cells are squares of side rho in the hyperboloid
    coordinates ((|w|^2 - 1) / (2 Im w), Re w / Im w), whose plane distance
    is at least the hyperbolic one, so a cell holds at most one orbit point;
    a jittered copy of a stored point lies in its cell or a neighbouring one.
    """

    def __init__(self, rho: float):
        self.rho = rho
        self._cells = {}

    def insert(self, g: Moebius) -> bool:
        """Store g unless it is known; return whether it was new."""
        w = g.apply(1j)
        kx = round((abs(w) ** 2 - 1.0) / (2.0 * w.imag * self.rho))
        ky = round(w.real / (w.imag * self.rho))
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for v in self._cells.get((kx + dx, ky + dy), ()):
                    if hyp_dist(w, v) < self.rho:
                        return False
        self._cells.setdefault((kx, ky), []).append(w)
        return True


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
    seen = _OrbitPoints(group.inradius)
    ident = Moebius.identity()
    seen.insert(ident)
    queue = deque([ident])
    found = [ident]
    while queue:
        g = queue.popleft()
        for gen in group.generators:
            h = g @ gen
            ch = h.cosh_displacement()
            # elements past the exploration radius are never queued, so they
            # need no place in the seen set
            if ch <= explore and seen.insert(h):
                queue.append(h)
                if ch <= include:
                    found.append(h)
    found.sort(key=lambda m: (m.cosh_displacement(), m.a, m.b, m.c, m.d))
    return tuple(found)


def density_surface_many(group: FuchsianGroup, cfg: MagneticConfig, y, band: float = 1e-3):
    """Surface pushforward density at an array of points y: alpha_radial
    summed over the lifts that land in the projected disk (within R_E + 1e-9
    of the center), one pass per translate in the order of
    translates_meeting_disk.  Flags, with band relative to R_E: NearCenter
    if a lift lies within band R_E of the center, else NearBoundary if one
    lies within band R_E of the boundary circle, else Regular if the point
    has a preimage, else Outside.  Returns the folded points,
    alpha_raw, the preimage counts and the flags, as flat arrays.
    """
    require_chern(cfg)
    R = radius(cfg)
    y0, _ = _descend_many(group.generators, y)
    alpha = np.zeros(y0.shape)
    count = np.zeros(y0.shape, dtype=np.int64)
    near_center = np.zeros(y0.shape, dtype=bool)
    near_boundary = np.zeros(y0.shape, dtype=bool)
    for g in translates_meeting_disk(group, R):
        d = hyp_dist_vec(1j, g.apply(y0))
        hit = d < R + 1e-9
        near_center |= hit & (d <= band * R)
        near_boundary |= hit & (np.abs(d - R) < band * R)
        alpha += np.where(hit, alpha_radial(cfg, d), 0.0)
        count += preimage_count(cfg, d)
    return y0, alpha, count, _flags(near_center, near_boundary, count == 0)


def density_surface(group: FuchsianGroup, cfg: MagneticConfig, y: complex,
                    band: float = 1e-3) -> tuple:
    """density_surface_many at one point: (folded point, alpha_raw,
    n_preimages, flag)."""
    y0, alpha, count, flags = density_surface_many(group, cfg, y, band)
    return complex(y0[0]), float(alpha[0]), int(count[0]), flags[0]


def birkhoff_average(group: FuchsianGroup, cfg: MagneticConfig, observable,
                     T: float, p0: Tangent, n_steps: int = 100_000) -> float:
    """Time average (1/T) int_0^T observable(folded trajectory) dt.

    Only defined at the critical energy, where the flow is uniquely ergodic
    and the average converges to the area average for every initial
    condition.  The observable must accept complex half-plane points as a
    numpy array.  Midpoint composite rule over n_steps samples, taken in
    blocks: a block's frames are F_s exp(tau F) in closed form, with F_s the
    folded frame of the previous block's last sample and tau the time since
    it (exp(aF) exp(bF) = exp((a+b)F)), so no error accumulates from step to
    step.  Each block's points are folded at once by _descend_many and the
    observable runs once per block, so memory is O(block).
    """
    require_chern(cfg)
    if abs(cfg.E - cfg.Ec) > 1e-9:
        raise ValueError("equidistribution test requires critical energy")
    if not (T > 0.0 and math.isfinite(T)):
        raise ValueError(f"averaging time must be positive and finite, got {T!r}")
    if n_steps < 1:
        raise ValueError(f"step count must be at least 1, got {n_steps}")
    start = _shell_frame(cfg, p0)
    dt = T / n_steps
    block = max(1, int(min(_BLOCK_STEPS, n_steps, _BLOCK_BT / cfg.B * (n_steps / T))))
    # cosh d(i, exp(tF) i) over a block; a frame point that far from the
    # block's start carries a rounding error of about 1e-16 cosh d (its Im is
    # a cancelling determinant)
    reach = _exp_entries(cfg, *_exp_scalars(cfg, block * dt))
    if not 0.5 * sum(x * x for x in map(float, reach)) <= _MAX_BLOCK_COSH:
        raise ValueError(f"time step T/n_steps = {dt!r} is too long: "
                         f"frames past cosh d = {_MAX_BLOCK_COSH:g} lose precision")
    total = 0.0
    done = 0
    while done < n_steps:
        m = min(block, n_steps - done)
        # the first block starts at t = 0, before the first midpoint
        fa, fb, fc, fd = _framed(start, _exp_entries(
            cfg, *_exp_scalars(cfg, (np.arange(1, m + 1) - (0.5 if done == 0 else 0.0)) * dt)))
        z, words = _descend_many(group.generators, (fa * 1j + fb) / (fc * 1j + fd))
        total += float(np.sum(observable(z)))
        last = words[-1]
        start = word_element(group, last[last >= 0]) @ Moebius(fa[-1], fb[-1], fc[-1], fd[-1])
        done += m
    return total / n_steps


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
    # the grid is evaluated _AREA_ROWS rows at a time into one term array,
    # whose single sum keeps the bits of a whole-grid evaluation
    terms = np.empty((resolution, resolution))
    hit = False
    for lo in range(0, resolution, _AREA_ROWS):
        u = xs[None, :] + 1j * xs[lo:lo + _AREA_ROWS, None]
        inside_disk = np.abs(u) < re
        z = np.where(inside_disk, from_disk(np.where(inside_disk, u, 0.0)), 1j)
        # the membership test only where the disk test passed: about a fifth
        # of the square grid lies outside the circumscribed disk
        mask = inside_disk.copy()
        mask[inside_disk] = in_domain_mask(group, z[inside_disk])
        hit = hit or bool(mask.any())
        weight = 4.0 / (1.0 - np.abs(u) ** 2) ** 2
        vals = np.asarray(observable(z), dtype=float)
        terms[lo:lo + _AREA_ROWS] = np.where(mask, vals * weight, 0.0)
    if not hit:
        raise ValueError(f"area-average resolution {resolution} puts no grid point "
                         "inside the domain")
    return float(np.sum(terms) * cell) / octagon_area(group)


def _bump(z):
    # smooth bump about the domain center; support radius 0.60 in disk
    # coordinates stays inside the octagon (in-disk inradius 0.6436), so the
    # area average needs no folding and the orbit average fluctuates little
    u = to_disk(np.asarray(z))
    s2 = (np.abs(u) / 0.60) ** 2
    safe = np.where(s2 < 1.0, s2, 0.0)
    return np.where(s2 < 1.0, np.exp(1.0 - 1.0 / (1.0 - safe)), 0.0)


def _equidist_starts(cfg: MagneticConfig, seed: int) -> list:
    """The three shell tangents the equidistribution runs start from.  Each
    draws, from default_rng(seed) in this order, its footpoint's distance
    from i (uniform below 0.5), that footpoint's angle about i and the
    tangent's direction."""
    rng = np.random.default_rng(seed)
    starts = []
    for _ in range(3):
        r = rng.uniform(0.0, 0.5)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        z = from_disk(math.tanh(0.5 * r) * complex(math.cos(ang), math.sin(ang)))
        psi_a = rng.uniform(0.0, 2.0 * math.pi)
        starts.append(Tangent(z, cfg.lam * z.imag * complex(math.cos(psi_a), math.sin(psi_a))))
    return starts
