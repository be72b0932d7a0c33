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
single octagon relation g0 g3 g2^-1 g1 g0^-1 g3^-1 g2 g1^-1 = +I, encoded by
the index word (0, 3, 6, 1, 4, 7, 2, 5): their entries, signs kept, lift the
group to SL(2, R), and the one product, halfplane._compose, flips no sign.

Operations, each an array kernel: fold points into the fundamental domain
(greedy distance descent; a point is a local minimum of d(., i) over the
generator orbit exactly when it lies in the Dirichlet domain), enumerate as
one (n, 4) entry array the group elements whose translated domain can meet a
centered disk (the Cayley graph layer by layer, deduplicated on orbit points
g.i, sorted by a key free of the sign), fold the cover's density onto the
surface by running its band, density and count rule (torus._cover_terms) on
each translate's hits, and time-average observables along critical energy
trajectories (which equidistribute toward the area measure) from several
starts at once, in blocks of closed-form frames, all starts' block folded as
one array.  reduce_point and density_surface act on one point.
_equidistribution is the one equidistribution run, which `magflow equidist`
reports and the verify check gates.

All magnetic configurations used with the surface must satisfy the
integrality constraint 2B(genus - 1) = 2B in Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .flow import MagneticConfig, _exp_entries, _exp_scalars, _shell_frame
from .halfplane import (Tangent, _act, _compose, _cosh_displacement, _disk_blocks, _framed,
                        _unit, from_disk, hyp_dist, hyp_dist_vec, to_disk)
from .torus import _cover_terms, _flags, radius

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


@dataclass(frozen=True, eq=False)
class FuchsianGroup:
    """Side-pairing generators of a compact Fuchsian group with central Dirichlet
    domain, a read-only (8, 4) array of entries (a, b, c, d) of an SL(2, R)
    lift, generators[k + 4] = generators[k]^{-1}; hashed by identity."""

    generators: np.ndarray
    relation_word: tuple
    inradius: float
    circumradius: float
    vertices: tuple
    genus: int = 2


@dataclass(frozen=True)
class DomainReduction:
    representative: complex
    word: tuple


@lru_cache(maxsize=None)
def bolza_group() -> FuchsianGroup:
    """The Bolza octagon group from its geometry, built once a process."""
    cot8 = 1.0 / math.tan(math.pi / 8.0)
    rho = math.acosh(cot8)
    circ = math.acosh(cot8 * cot8)
    along = _unit(np.array([[math.exp(rho)], [0.0], [0.0], [math.exp(-rho)]]))
    # r(k pi/4), columns k = 0..7; each determinant is exactly 1.0
    cos, sin = np.array([(math.cos(h), math.sin(h)) for h in np.arange(8) * (math.pi / 8.0)]).T
    gens = _compose(_compose([cos, sin, -sin, cos], along), [cos, -sin, sin, cos]).T.copy()
    gens.flags.writeable = False
    vr = math.tanh(0.5 * circ)
    verts = tuple(
        complex(from_disk(vr * complex(math.cos(a), math.sin(a))))
        for a in ((2 * k + 1) * math.pi / 8.0 for k in range(8))
    )
    return FuchsianGroup(
        generators=gens,
        relation_word=(0, 3, 6, 1, 4, 7, 2, 5),
        inradius=rho,
        circumradius=circ,
        vertices=verts,
    )


def word_element(group: FuchsianGroup, words):
    """Entries (n, 4), in the generators' lift, of the products realizing the
    rows of an (n, L) word array padded with -1 (word[0] acts first)."""
    words = np.atleast_2d(words)
    m = np.array([[1.0], [0.0], [0.0], [1.0]]).repeat(len(words), axis=1)
    for k in words.T[:(words >= 0).sum(axis=1).max(initial=0)]:
        m = np.where(k >= 0, _compose(group.generators.T[:, k], m), m)
    return m.T


def relation_residual(group: FuchsianGroup) -> float:
    """Sup-norm distance from +I of the relator's product in the generators' lift."""
    p = np.array([1.0, 0.0, 0.0, 1.0])
    for k in group.relation_word:
        p = _compose(p, group.generators[k])
    return float(np.abs(p - [1.0, 0.0, 0.0, 1.0]).max())


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


def _ranks(gens, z):
    """(8, n) ranks of the generator moves of a flat array z: |g.z - i|^2 Im z / Im g.z,
    monotone in d(g.z, i), which is |(a - ic) z + b - id|^2 for g = (a, b; c, d).
    The real and imaginary parts are two (8, n) products, so no (16, n) is held."""
    zs = np.array([z.real, z.imag, np.ones(z.size)])
    re = gens[:, [0, 2, 1]] @ zs
    im = (gens[:, [2, 0, 3]] * [-1.0, 1.0, -1.0]) @ zs
    re *= re
    im *= im
    re += im
    return re


def _half_plane(z):
    """z as a new flat complex array; raises ValueError naming its first
    point that is not finite or not in the upper half-plane."""
    z = np.array(z, dtype=complex).ravel()
    bad = ~(np.isfinite(z) & (z.imag > 0.0))
    if bad.any():
        raise ValueError(f"points must be finite and in the upper half-plane, "
                         f"got {complex(z[bad][0])!r}")
    return z


def _descend_many(generators, z):
    """Greedy steepest descent of d(., i) over generator moves, for an array
    of points at once: the one fold rule.

    The move of least rank by _ranks (the lowest generator index among
    equals) alone is applied and measured; it must lower d(., i) by more than
    _DESCENT_EPS, and a point still moving after _MAX_STEPS passes raises
    "reduction failed".  Returns the folded points and their words: row j
    holds the generator indices applied to z[j] in order, padded with -1.
    """
    z = _half_plane(z)
    d0 = hyp_dist_vec(z, 1j)
    live = np.arange(z.size)
    moves = []
    for _ in range(_MAX_STEPS):
        zl = z[live]
        best = np.argmin(_ranks(generators, zl), axis=0)  # first minimum: the lowest index
        w = _act(generators.T.take(best, axis=1), zl)[0]  # C order, unlike T[:, best]
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
    """Dirichlet-domain membership of an array of points: no generator move
    ranks below |z - i|^2 by more than 1e-12 in cosh d (points on a side)."""
    flat = _half_plane(z)
    ok = np.abs(flat - 1j) ** 2 <= _ranks(group.generators, flat).min(axis=0) + 2e-12 * flat.imag
    return ok.reshape(np.shape(z))


def _first_orbit_points(g, rho: float):
    """Mask of the rows of an (n, 4) entry array whose orbit point w = g.i no
    earlier row has.  Distinct orbit points are 2 rho (the inradius) apart or
    more, also in the plane of the hyperboloid coordinates ((|w|^2 - 1) / (2
    Im w), Re w / Im w) = ((a^2 + b^2 - c^2 - d^2) / 2, ac + bd), so a cell
    of side rho there holds at most one.  Rounded copies share a cell in one
    of four grids offset by half a cell: a row that follows another row in
    its cell of some grid is a copy."""
    a, b, c, d = g.T
    x = (a * a + b * b - c * c - d * d) / (2.0 * rho)
    y = (a * c + b * d) / rho
    first = np.zeros((4, len(g)), dtype=bool)
    for k, (sx, sy) in enumerate(((0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5))):
        first[k, np.unique(np.floor(x + sx) + 1j * np.floor(y + sy), return_index=True)[1]] = True
    return first.all(axis=0)


@lru_cache(maxsize=16)
def translates_meeting_disk(group: FuchsianGroup, R: float):
    """Entries (a, b, c, d) of the group elements whose translated domain
    can meet the closed disk of radius R about the center, in the
    generators' lift, as a read-only (n, 4) array sorted by cosh d(i, g.i),
    then by the entries signed so that a > 0 (or a = 0 < b).

    gF meets the disk only if d(i, g.i) <= R + circumradius, and the Cayley
    graph with an exploration margin of two circumradii reaches every such g
    (the geodesic to g.i crosses a side-adjacent chain of translates).  Layer n + 1 is layer
    n times the generators by _compose in (element, generator) order, kept
    within that radius and where the orbit point is new.  Every relator has
    even length, so a product is new or in layer n - 1, the one layer it is
    checked against."""
    if R >= ENUM_CAP:
        raise ValueError("disk too large for exact enumeration")
    if not R >= 0.0:
        raise ValueError(f"disk radius must be finite and nonnegative, got {R!r}")
    include = math.cosh(R + group.circumradius)
    explore = math.cosh(R + 2.0 * group.circumradius + 0.5)
    layers = [np.empty((0, 4)), np.array([[1.0, 0.0, 0.0, 1.0]])]
    while len(layers[-1]):
        h = _compose(layers[-1].T[:, :, None], group.generators.T[:, None, :]).reshape(4, -1).T
        h = h[_cosh_displacement(h.T) <= explore]
        new = _first_orbit_points(np.concatenate([layers[-2], h]), group.inradius)
        layers.append(h[new[len(layers[-2]):]])
    found = np.concatenate(layers)
    found = found[_cosh_displacement(found.T) <= include]
    key = found * np.copysign(1.0, np.where(found[:, 0] == 0.0, found[:, 1], found[:, 0]))[:, None]
    found = found[np.lexsort(np.vstack([key.T[::-1], _cosh_displacement(found.T)]))]
    found.flags.writeable = False
    return found


def density_surface_many(group: FuchsianGroup, cfg: MagneticConfig, y, band: float = 1e-3):
    """Surface pushforward density at an array of points y: the cover's rule
    torus._cover_terms, run per translate (in the order of
    translates_meeting_disk) on the lifts that land in the projected disk
    (within R_E + 1e-9 of the center), its alpha and counts summed.  Flags,
    with band relative to R_E: NearCenter if a lift lies within band R_E of
    the center, else NearBoundary if one lies within band R_E of the
    boundary circle, else Regular if the point has a preimage, else Outside.
    Returns the folded points, alpha_raw, the preimage counts and the flags,
    as flat arrays."""
    require_chern(cfg)
    R = radius(cfg)
    y0, _ = _descend_many(group.generators, y)
    alpha = np.zeros(y0.shape)
    count = np.zeros(y0.shape, dtype=np.int64)
    near_center = np.zeros(y0.shape, dtype=bool)
    near_boundary = np.zeros(y0.shape, dtype=bool)
    for g in translates_meeting_disk(group, R):
        dist = hyp_dist_vec(1j, _act(g, y0)[0])
        hit = np.flatnonzero(dist < R + 1e-9)
        totals = (alpha, count, near_center, near_boundary)  # + on the masks is or
        for total, term in zip(totals, _cover_terms(cfg, dist[hit], band)):
            total[hit] += term
    return y0, alpha, count, _flags(near_center, near_boundary, count == 0)


def density_surface(group: FuchsianGroup, cfg: MagneticConfig, y: complex,
                    band: float = 1e-3) -> tuple:
    """density_surface_many at one point: (folded point, alpha_raw,
    n_preimages, flag)."""
    y0, alpha, count, flags = density_surface_many(group, cfg, y, band)
    return complex(y0[0]), float(alpha[0]), int(count[0]), flags[0]


def birkhoff_average(group: FuchsianGroup, cfg: MagneticConfig, observable,
                     T: float, starts, n_steps: int = 100_000) -> list:
    """Time averages (1/T) int_0^T observable(folded trajectory) dt, one per start.

    Only defined at the critical energy, where the flow is uniquely ergodic
    and the average converges to the area average for every initial
    condition.  The observable must accept complex half-plane points as a
    numpy array.  Midpoint composite rule over n_steps samples, taken in
    blocks: a block's frames are F_s exp(tau F) in closed form, with F_s a
    start's folded frame at the previous block's last sample and tau the time
    since it (exp(aF) exp(bF) = exp((a+b)F)), so no error accumulates from
    step to step.  Each block's points are folded at once by _descend_many
    and the observable runs once per block, so memory is O(starts x block).
    """
    require_chern(cfg)
    if abs(cfg.E - cfg.Ec) > 1e-9:
        raise ValueError("equidistribution test requires critical energy")
    if not (T > 0.0 and math.isfinite(T)):
        raise ValueError(f"averaging time must be positive and finite, got {T!r}")
    if n_steps < 1:
        raise ValueError(f"step count must be at least 1, got {n_steps}")
    frames = np.array([_shell_frame(cfg, p) for p in starts]).T
    if not frames.size:
        raise ValueError("Birkhoff averages need at least one start, got none")
    dt = T / n_steps
    block = max(1, int(min(_BLOCK_STEPS, n_steps, _BLOCK_BT / cfg.B * (n_steps / T))))
    # exp(tau F) at the first block's midpoints (row 0) and at k dt (row 1)
    table = np.array(_exp_entries(cfg, *_exp_scalars(
        cfg, (np.arange(1, block + 1) - [[0.5], [0.0]]) * dt)))
    # cosh d(i, exp(tF) i) over a block; a frame point that far from the
    # block's start carries a rounding error of about 1e-16 cosh d (its Im is
    # a cancelling determinant)
    with np.errstate(over="ignore"):  # an infinite cosh d is refused as well
        if not _cosh_displacement(table[:, 1, -1]) <= _MAX_BLOCK_COSH:
            raise ValueError(f"time step T/n_steps = {dt!r} is too long: "
                             f"frames past cosh d = {_MAX_BLOCK_COSH:g} lose precision")
    totals = np.zeros(frames.shape[1])
    for done in range(0, n_steps, block):
        m = min(block, n_steps - done)
        framed = np.array(_framed(frames[:, :, None], table[:, 0 if done == 0 else 1, :m]))
        z, words = _descend_many(group.generators, _act(framed, 1j)[0])
        totals += np.reshape(observable(z), framed.shape[1:]).sum(axis=1)
        frames = _compose(word_element(group, words[m - 1::m]).T, _unit(framed[:, :, -1]))
    return (totals / n_steps).tolist()


def area_average(group: FuchsianGroup, observable, resolution: int = 600) -> float:
    """Area average of an observable over the fundamental domain.

    Disk-model grid quadrature of the masked observable with the hyperbolic area element
    4 dA_eucl / (1 - |u|^2)^2, normalized by the exact polygon area (angle defect).  Supports
    observables vanishing near the domain boundary best; the mask is the Dirichlet membership
    test.  The blocks of _disk_blocks fill one term array, whose one sum has a whole grid's bits.
    """
    if resolution < 2:
        raise ValueError(f"area-average resolution must be at least 2, got {resolution}")
    re = math.tanh(0.5 * group.circumradius)
    xs = np.linspace(-re, re, resolution)
    cell = (xs[1] - xs[0]) ** 2
    terms = np.empty((resolution, resolution))
    hit = False
    for lo, u, mask, z in _disk_blocks(xs, re):
        # the block's disk test, narrowed by the membership test where it passed:
        # about a fifth of the square grid lies outside the circumscribed disk
        mask[mask] = in_domain_mask(group, z[mask])
        hit = hit or bool(mask.any())
        weight = 4.0 / (1.0 - np.abs(u) ** 2) ** 2
        vals = np.asarray(observable(z), dtype=float)
        terms[lo:lo + len(u)] = np.where(mask, vals * weight, 0.0)
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


def _equidistribution(group: FuchsianGroup, cfg: MagneticConfig, T: float, n_steps: int,
                      resolution: int, seed: int) -> tuple:
    """The equidistribution run of _bump at the critical energy: (its area
    average at resolution, the three shell tangents drawn from seed, their
    birkhoff_average over time T in n_steps steps).  Each tangent draws,
    from default_rng(seed) in this order, its footpoint's distance from i
    (uniform below 0.5), that footpoint's angle about i and its direction."""
    target = area_average(group, _bump, resolution)
    rng = np.random.default_rng(seed)
    starts = []
    for _ in range(3):
        r = rng.uniform(0.0, 0.5)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        z = from_disk(math.tanh(0.5 * r) * complex(math.cos(ang), math.sin(ang)))
        psi_a = rng.uniform(0.0, 2.0 * math.pi)
        starts.append(Tangent(z, cfg.lam * z.imag * complex(math.cos(psi_a), math.sin(psi_a))))
    return target, starts, birkhoff_average(group, cfg, _bump, T, starts, n_steps)
