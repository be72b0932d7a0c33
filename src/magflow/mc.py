"""Monte Carlo verification of the pushforward density.

Samples (theta, t) uniformly on the torus [0, 2pi) x [0, T_E) and histograms
the hyperbolic distance of their footpoints to the center in geodesic-polar
rings.  The distance comes from the real entries of the footpoint matrix
P = R(theta/2) exp(tF) (torus.psi_distance_many): det P = 1 makes
d(i, P.i) = 2 asinh(sqrt((p11 - p22)^2 + (p12 + p21)^2) / 2) exact, with no
complex division and no cancellation at small distances.  Ring densities
are scaled to the raw normalization (total mass 2 pi T_E) so they compare
directly with the closed-form density, whose exact ring averages follow
from the analytic radial mass M(r) = 4 pi t1(r) (t1 = first passage time of
the distance profile).

The random stream is numpy's Philox counter-based generator.  Sampling is
chunked with a fixed chunk size of 10^6; chunk j of m samples draws from
Philox keyed by the 64-bit words (seed, j), theta block first, then t: the
t stream is a second generator of the same key advanced by m draws.  Each
chunk draws, maps and bins its samples in cache-sized blocks of 2^14, one
block slice of each stream at a time, into buffers that the chunk owns and
that the block's theta and t overwrite, so no step holds a chunk-sized
array, no buffer is shared between workers, and sampling memory does not
grow with n.  Histograms are therefore bit-identical for a given (seed, n)
regardless of how many workers evaluate the chunks; by default there is one
worker per usable CPU.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .flow import MagneticConfig, period
from .torus import _require_torus, psi_distance_many, radius, t_of_distance

_CHUNK = 1_000_000
# equal-width distance rings on [0, R_E]
_RINGS = 256
# samples mapped and binned at a time; the block's temporaries stay in cache
_BLOCK = 1 << 14


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


def worker_count() -> int:
    """Sampling workers: the usable CPUs, capped by MAGFLOW_THREADS when set.

    Raises ValueError when MAGFLOW_THREADS is not an integer of at least 1;
    a value above the usable CPUs is clamped to them."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    raw = os.environ.get("MAGFLOW_THREADS")
    if raw is None:
        return cpus
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"MAGFLOW_THREADS must be an integer of at least 1, got {raw!r}")
    return min(cap, cpus)


def _ring_areas(edges: np.ndarray) -> np.ndarray:
    # hyperbolic area of the ring r_lo < d < r_hi about a point
    return 2.0 * math.pi * (np.cosh(edges[1:]) - np.cosh(edges[:-1]))


def _bin_counts(d: np.ndarray, R: float) -> np.ndarray:
    idx = np.clip((d * (_RINGS / R)).astype(np.int64), 0, _RINGS - 1)
    return np.bincount(idx, minlength=_RINGS)


def _histogram(cfg: MagneticConfig, n: int, seed: int, streams: int, radii, threads: int):
    """Ring counts of n samples: chunk j of m samples splits Philox keyed by
    (seed, j) into streams runs of m uniforms, and each block calls
    radii(*uniform_blocks) on one slice of every run, drawn into the chunk's
    buffers; radii may overwrite them."""
    R = radius(cfg)
    edges = np.linspace(0.0, R, _RINGS + 1)
    n_chunks = (n + _CHUNK - 1) // _CHUNK
    sizes = [(j, min(_CHUNK, n - j * _CHUNK)) for j in range(n_chunks)]

    def one(job):
        j, m = job
        rngs = []
        for s in range(streams):
            # stream s starts s m draws in; Philox makes 4 draws a counter step.
            # A list key would pass through float64 from seed 2^63 on.
            bits = np.random.Philox(key=np.array([seed, j], dtype=np.uint64))
            bits.advance(s * m // 4)
            bits.random_raw(s * m % 4)
            rngs.append(np.random.Generator(bits))
        # one row per stream, owned by this chunk: no two workers share one
        buf = np.empty((streams, _BLOCK))
        counts = np.zeros(_RINGS, dtype=np.int64)
        for lo in range(0, m, _BLOCK):
            block = buf[:, :min(_BLOCK, m - lo)]
            for rng, row in zip(rngs, block):
                rng.random(out=row)
            counts += _bin_counts(radii(*block), R)
        return counts

    if threads > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(one, sizes))
    else:
        parts = [one(job) for job in sizes]
    counts = np.sum(parts, axis=0)
    est = counts / (n * _ring_areas(edges)) * (2.0 * math.pi * period(cfg))
    return PushforwardHistogram(
        B=cfg.B, E=cfg.E, n=n, seed=seed, edges=edges, counts=counts, est_density=est,
    )


def sample_pushforward(cfg: MagneticConfig, n: int, seed: int,
                       threads: int | None = None) -> PushforwardHistogram:
    """Histogram of distances of n pushed-forward torus samples.

    Deterministic for fixed (cfg, n, seed); see the module docstring for the
    stream layout.
    """
    _check_sampling_pre(cfg, n, seed)
    T = period(cfg)

    def radii(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        # theta and t take the place of their draws
        u *= 2.0 * math.pi
        v *= T
        return psi_distance_many(cfg, u, v)

    return _histogram(cfg, n, seed, 2, radii, threads or worker_count())


def sample_radii_analytic(cfg: MagneticConfig, n: int, seed: int,
                          threads: int | None = None) -> PushforwardHistogram:
    """Self-consistency path: sample the distance law directly by inverting
    the time parametrization (t uniform, r = phi(t)), bypassing the Moebius
    arithmetic entirely."""
    _check_sampling_pre(cfg, n, seed)
    g = cfg.gamma
    E = cfg.E

    def radii(u: np.ndarray) -> np.ndarray:
        # t uniform on the rising branch [0, T/2]; phi covers [0, R_E] once
        u *= math.pi / g
        return np.arccosh(1.0 + (4.0 * E / (g * g)) * np.sin(0.5 * g * u) ** 2)

    return _histogram(cfg, n, seed, 1, radii, threads or worker_count())


def _check_sampling_pre(cfg: MagneticConfig, n: int, seed: int) -> None:
    if n < 10_000:
        raise ValueError("need at least 10^4 samples")
    # Philox keys are 64-bit words
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer from 0 to 2^64 - 1, got {seed}")
    _require_torus(cfg)


def exact_ring_averages(cfg: MagneticConfig, edges: np.ndarray) -> np.ndarray:
    """Exact ring averages of the closed-form raw density.

    The mass inside radius r is 4 pi t1(r), so a ring's average density is
    4 pi (t1(r_hi) - t1(r_lo)) / ring area.
    """
    t1 = t_of_distance(cfg, edges)
    mass = 4.0 * math.pi * np.diff(t1)
    return mass / _ring_areas(edges)


def compare_to_closed_form(hist: PushforwardHistogram, cfg: MagneticConfig) -> dict:
    """Machine-readable agreement report between a histogram and the
    closed-form density: per-ring relative errors, a chi-square statistic,
    and singularity-exponent fits from the histogram alone."""
    if abs(hist.B - cfg.B) > 1e-12 or abs(hist.E - cfg.E) > 1e-12:
        raise ValueError("histogram configuration does not match")
    edges = hist.edges
    R = float(edges[-1])
    exact = exact_ring_averages(cfg, edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(exact > 0.0, hist.est_density / exact - 1.0, 0.0)

    expected = hist.n * 4.0 * math.pi * np.diff(t_of_distance(cfg, edges)) / (
        2.0 * math.pi * period(cfg)
    )
    usable = expected >= 10.0
    chi2 = float(np.sum((hist.counts[usable] - expected[usable]) ** 2 / expected[usable]))

    c_sel = (mid <= 0.2 * R) & (hist.counts > 0)
    center_slope = float(
        np.polyfit(np.log(mid[c_sel]), np.log(hist.est_density[c_sel]), 1)[0]
    )
    b_sel = (mid >= 0.8 * R) & (mid < R) & (hist.counts > 0)
    boundary_slope = float(
        np.polyfit(np.log(R - mid[b_sel]), np.log(hist.est_density[b_sel]), 1)[0]
    )

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
