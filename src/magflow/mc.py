"""Monte Carlo verification of the pushforward density.

Samples the torus [0, 2pi) x [0, T_E) uniformly and histograms the
hyperbolic distance of the footpoints to the center in geodesic-polar
rings.  R(theta/2) fixes i, so that distance is 2 asinh(lam |S(t)| / 2)
whatever theta (the kernel of torus.psi_distance_many, without its input
checks), and the sampler draws and maps t alone.  Ring densities are
scaled to the raw normalization (total mass 2 pi T_E) so they compare
directly with the closed-form density, whose exact ring averages follow
from the analytic radial mass M(r) = 4 pi t1(r) (t1 = first passage time of
the distance profile).

The random stream is numpy's Philox counter-based generator.  Sampling is
chunked with a fixed chunk size of 10^6; chunk j of m samples draws from
Philox keyed by the 64-bit words (seed, j): the key's first m draws are the
chunk's theta block, which is skipped, not drawn, and its m t draws follow
them.  The chunks run in turn in the calling thread, each drawing and
binning its samples in cache-sized blocks of 2^13 into a single block
buffer that each block's draws overwrite.  The stream layout fixes every
draw, so histograms are bit-identical for a given (seed, n).

A draw's ring is a function of its uniform draw u alone, through
d(fl(u T)), and d rises on the first half of [0, 1) and falls on the
second.  So the sampler reads rings from an int16 table over _CELLS = 2^16
equal cells of u, built from the kernel at the cell edges j (T / _CELLS),
which are the times fl(u T) of the draws u = j / _CELLS (the scaling is by a
power of two); u = 1/2, the peak of d, is an edge.  A cell whose two edge
distances, widened by _MARGIN = 1e-6 rings (far above the kernel's rounding
error), floor and clip to one ring holds that ring, since fl(u T) is
monotone in u; the others, under 1% of cells, hold the sentinel _RINGS.
The draws in those, the edge draws, are binned by the kernel at their times
fl(u T), about _EDGES at a time, so every draw lands in the ring the kernel
gives it.  Beyond the block's arrays, sampling holds the 128 KiB table and
the edge buffer; no step holds a chunk-sized array, so sampling memory does
not grow with n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .flow import MagneticConfig, period
from .torus import _psi_distance, _require_torus, t_of_distance

_CHUNK = 1_000_000
# equal-width distance rings on [0, R_E]
_RINGS = 256
# samples drawn and binned at a time; the block's temporaries stay in cache,
# and at 64 KiB each they stay below glibc's 128 KiB mmap threshold, so they
# are reused from the heap, not mapped and unmapped (and faulted in) per block
_BLOCK = 1 << 13
# equal cells of the uniform draw in the ring table; a power of two, so
# u * _CELLS and the cell edges' times are exact
_CELLS = 1 << 16
# rings by which a cell's edge distances are widened before they must agree;
# against mpmath the kernel is off by 1e-12 rings at most (B = 1, E = 0.4999)
_MARGIN = 1e-6
# edge draws gathered before the kernel bins them, those of about 32
# blocks; its temporaries then stay near 16 KiB, a quarter of a block's
_EDGES = 1 << 11


@dataclass(frozen=True)
class PushforwardHistogram:
    B: float
    E: float
    n: int
    seed: int
    edges: np.ndarray
    counts: np.ndarray
    est_density: np.ndarray

    def __post_init__(self):
        self.edges.setflags(write=False)
        self.counts.setflags(write=False)
        self.est_density.setflags(write=False)


def _ring_areas(edges: np.ndarray) -> np.ndarray:
    # hyperbolic area of the ring r_lo < d < r_hi about a point
    return 2.0 * math.pi * (np.cosh(edges[1:]) - np.cosh(edges[:-1]))


def _bin_counts(d: np.ndarray, R: float) -> np.ndarray:
    idx = np.clip((d * (_RINGS / R)).astype(np.int64), 0, _RINGS - 1)
    return np.bincount(idx, minlength=_RINGS)


def _ring_table(cfg: MagneticConfig, R: float, T: float) -> np.ndarray:
    """int16 ring of each of the _CELLS cells of u, or _RINGS where the
    cell's edge distances, widened by _MARGIN, fall in different rings."""
    table = np.empty(_CELLS, dtype=np.int16)
    # built a block of cells at a time and in place, so its temporaries stay
    # at 64 KiB and fewer of them are alive than while the kernel runs
    for lo in range(0, _CELLS, _BLOCK):
        x = _psi_distance(cfg, np.arange(lo, lo + _BLOCK + 1) * (T / _CELLS))
        x *= _RINGS / R
        a, b = np.minimum(x[:-1], x[1:]), np.maximum(x[:-1], x[1:])
        a -= _MARGIN
        b += _MARGIN
        for r in (a, b):
            np.floor(r, out=r)
            np.clip(r, 0, _RINGS - 1, out=r)
        table[lo:lo + _BLOCK] = np.where(a == b, a, _RINGS)
        # freed before the next piece's kernel runs
        del x, a, b
    return table


def sample_pushforward(cfg: MagneticConfig, n: int, seed: int) -> PushforwardHistogram:
    """Histogram of distances of n pushed-forward torus samples.

    Deterministic for fixed (cfg, n, seed); see the module docstring for
    the stream layout.
    """
    if n < 10_000:
        raise ValueError(f"need at least 10^4 samples, got n={n}")
    # Philox keys are 64-bit words
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer from 0 to 2^64 - 1, got {seed}")
    R = _require_torus(cfg)
    T = period(cfg)
    edges = np.linspace(0.0, R, _RINGS + 1)
    table = _ring_table(cfg, R, T)
    buf = np.empty(_BLOCK)
    # edge draws wait here until _EDGES or more go through the kernel
    # together; one block's always fit behind the _EDGES - 1 that may wait
    edge = np.empty(_EDGES + _BLOCK)
    kept = 0
    # the last slot counts the edge draws, which the kernel then bins
    counts = np.zeros(_RINGS + 1, dtype=np.int64)

    def bin_edge_draws(t):
        # (u _CELLS)(T / _CELLS) rounds once, to the time fl(u T) of the draw;
        # it is finite, and the torus exists, so the unchecked kernel serves
        t *= T / _CELLS
        counts[:_RINGS] += _bin_counts(_psi_distance(cfg, t), R)

    for j in range((n + _CHUNK - 1) // _CHUNK):
        m = min(_CHUNK, n - j * _CHUNK)
        # A list key would pass through float64 from seed 2^63 on.
        key = np.array([seed, j], dtype=np.uint64)
        # the t stream starts m draws in, past the chunk's theta block, which
        # the distance ignores; Philox makes 4 draws a counter step
        bits = np.random.Philox(key=key)
        bits.advance(m // 4)
        bits.random_raw(m % 4)
        t_rng = np.random.Generator(bits)
        for lo in range(0, m, _BLOCK):
            u = buf[:min(_BLOCK, m - lo)]
            t_rng.random(out=u)
            u *= _CELLS
            ring = table[u.astype(np.intp)]
            counts += np.bincount(ring, minlength=_RINGS + 1)
            near = u[ring == _RINGS]
            edge[kept:kept + near.size] = near
            kept += near.size
            if kept >= _EDGES:
                bin_edge_draws(edge[:kept])
                kept = 0
    bin_edge_draws(edge[:kept])
    counts = counts[:_RINGS]
    est = counts / (n * _ring_areas(edges)) * (2.0 * math.pi * T)
    return PushforwardHistogram(
        B=cfg.B, E=cfg.E, n=n, seed=seed, edges=edges, counts=counts, est_density=est,
    )


def exact_ring_averages(cfg: MagneticConfig, edges: np.ndarray) -> np.ndarray:
    """Exact ring averages of the closed-form raw density.

    The mass inside radius r is 4 pi t1(r), so a ring's average density is
    4 pi (t1(r_hi) - t1(r_lo)) / ring area.
    """
    return _ring_averages(edges, np.diff(t_of_distance(cfg, edges)))


def _ring_averages(edges: np.ndarray, dt1: np.ndarray) -> np.ndarray:
    # each ring's closed-form mass 4 pi (t1(r_hi) - t1(r_lo)) over its area
    return 4.0 * math.pi * dt1 / _ring_areas(edges)


def compare_to_closed_form(hist: PushforwardHistogram, cfg: MagneticConfig) -> dict:
    """Machine-readable agreement report between a histogram and the
    closed-form density: per-ring relative errors, a chi-square statistic,
    and singularity-exponent fits from the histogram alone."""
    if abs(hist.B - cfg.B) > 1e-12 or abs(hist.E - cfg.E) > 1e-12:
        raise ValueError("histogram configuration does not match")
    edges = hist.edges
    R = float(edges[-1])
    dt1 = np.diff(t_of_distance(cfg, edges))
    exact = _ring_averages(edges, dt1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(exact > 0.0, hist.est_density / exact - 1.0, 0.0)

    expected = hist.n * 4.0 * math.pi * dt1 / (2.0 * math.pi * period(cfg))
    usable = expected >= 10.0
    chi2 = float(np.sum((hist.counts[usable] - expected[usable]) ** 2 / expected[usable]))

    def slope(window, sel, x):
        """Log-log slope of the density against x over the window's nonempty rings."""
        sel &= hist.counts > 0
        if np.count_nonzero(sel) < 2:
            raise ValueError(f"the {window} fit window holds {np.count_nonzero(sel)} nonempty "
                             f"ring(s) at B={cfg.B!r}, E={cfg.E!r}, n={hist.n}; a fit needs 2")
        return float(np.polyfit(np.log(x[sel]), np.log(hist.est_density[sel]), 1)[0])

    center_slope = slope("center", mid <= 0.2 * R, mid)
    boundary_slope = slope("boundary", (mid >= 0.8 * R) & (mid < R), R - mid)

    body = (mid >= 0.1 * R) & (mid <= 0.9 * R)
    return {
        "n": hist.n,
        "seed": hist.seed,
        "rings": int(len(hist.counts)),
        "chi2": chi2,
        "chi2_dof": int(np.sum(usable)),
        "center_slope": center_slope,
        "boundary_slope": boundary_slope,
        "max_rel_err_body": float(np.max(np.abs(rel[body]))),
        "r_lo": edges[:-1].tolist(),
        "r_hi": edges[1:].tolist(),
        "count": hist.counts.tolist(),
        "est_density": hist.est_density.tolist(),
        "exact_ring_avg": exact.tolist(),
        "rel_err": rel.tolist(),
    }
