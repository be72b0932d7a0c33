"""Landau-level ladder of the magnetic Laplacian below the critical energy.

On a compact hyperbolic surface with constant magnetic field B, the bottom
of the spectrum of the k-th twisted Laplacian is an explicit finite ladder

    lambda_{k,m} = k B (m + 1/2) - m (m + 1) / 2,      m = 0 .. N_k - 1,

with N_k = floor(k B) rungs.  The scaled values lambda/k^2 accumulate on
[0, E_c]: the rung nearest k^2 E is the natural quantization of energy E,
and the top of the ladder approaches E_c = B^2/2 at rate O(1/k).
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import NamedTuple

import numpy as np

__all__ = [
    "SpectrumEntry",
    "CriticalGap",
    "ladder",
    "ladder_arrays",
    "rung",
    "select_level",
    "select_levels",
    "critical_gap",
    "critical_gaps",
]


# rungs per tolist() slice in ladder()
_CHUNK = 4096


class SpectrumEntry(NamedTuple):
    k: int
    m: int
    lam: float
    scaled: float


class CriticalGap(NamedTuple):
    """|lambda/k^2 - E_c| at the two competing top indices m = N_k - 1 and N_k."""

    k: int
    gap_top: float
    gap_beyond: float


def _n_k(k, B: float):
    # floor(kB) with a tiny nudge so dyadically-exact products stay exact
    return np.floor(k * B + 1e-9)


def rung(k, B: float, m):
    """lambda_{k,m}, evaluated as (2kB(2m+1) - 2m(m+1))/4 to limit cancellation;
    k and m may be arrays."""
    return (2.0 * k * B * (2 * m + 1) - 2.0 * m * (m + 1)) / 4.0


def _require_field(B: float) -> None:
    if not (B > 0.0 and math.isfinite(B)):
        raise ValueError(f"field strength B must be positive and finite, got {B}")


def ladder_arrays(k: int, B: float):
    """(m, lambda, scaled) as arrays for the full ladder."""
    if k < 1:
        raise ValueError("tensor power k must be at least 1")
    _require_field(B)
    m = np.arange(_n_k(k, B), dtype=float)
    lam = rung(k, B, m)
    return m.astype(int), lam, lam / (k * k)


def ladder(k: int, B: float) -> list:
    """All ladder entries for tensor power k, with builtin int and float fields.

    Entries are built from tolist() slices of _CHUNK rungs: a whole-array
    tolist() leaves its transient lists' memory in the heap, where it raises
    the peak RSS of long ladders by several MB."""
    m, lam, scaled = ladder_arrays(k, B)
    out = []
    for i in range(0, len(m), _CHUNK):
        j = i + _CHUNK
        rows = zip(repeat(k), m[i:j].tolist(), lam[i:j].tolist(), scaled[i:j].tolist())
        out.extend(map(SpectrumEntry._make, rows))
    return out


def select_levels(k, B: float, E):
    """(m, lambda, scaled) arrays of the rung whose scaled eigenvalue is
    closest to each energy of the 1-d array E, at the tensor power k (an int,
    or an array like E); ties break to smaller m.

    The scaled ladder is beta((m + 1/2)/k) - (corrections), beta(s) = Bs - s^2/2,
    so the minimizer sits near k(B - sqrt(B^2 - 2E)); only the seven
    candidates around that index need checking.
    """
    _require_field(B)
    k = np.asarray(k, dtype=float)
    E = np.asarray(E, dtype=float)
    bad = ~(np.isfinite(E) & (E >= 0.0))
    if bad.any():
        raise ValueError(f"energy E must be finite and nonnegative, got {E[bad][0]}")
    if np.any(E >= 0.5 * B * B):
        raise ValueError("ladder does not reach critical energy")
    n = _n_k(k, B)
    if np.any(n < 1.0):
        raise ValueError("empty ladder: kB < 1")
    # candidates m0 - 3 .. m0 + 3 on the ladder
    m = np.rint(k * (B - np.sqrt(B * B - 2.0 * E)) - 0.5)[:, None] + np.arange(-3.0, 4.0)
    k2 = k * k
    lam = rung(k[..., None], B, m)
    err = np.abs(lam / k2[..., None] - E[:, None])
    err[(m < 0.0) | (m >= n[..., None])] = np.inf
    rows = np.arange(len(E))
    pick = err.argmin(axis=1)  # the first minimum: the smaller m
    m_best, lam_best = m[rows, pick].astype(int), lam[rows, pick]
    for i in np.flatnonzero(np.isinf(err[rows, pick])):
        # candidate window missed the ladder: fall back to the full scan
        _, lam_all, scaled = ladder_arrays(int(np.broadcast_to(k, E.shape)[i]), B)
        m_best[i] = np.argmin(np.abs(scaled - E[i]))
        lam_best[i] = lam_all[m_best[i]]
    return m_best, lam_best, lam_best / k2


def select_level(k: int, B: float, E: float) -> SpectrumEntry:
    """The rung whose scaled eigenvalue is closest to E, as select_levels."""
    m, lam, scaled = select_levels(k, B, [E])
    return SpectrumEntry(k, int(m[0]), float(lam[0]), float(scaled[0]))


def critical_gaps(k, B: float):
    """(gap_top, gap_beyond) of critical_gap as arrays over the array k."""
    _require_field(B)
    k = np.asarray(k, dtype=float)
    n = _n_k(k, B)
    if np.any(n < 1.0):
        raise ValueError("empty ladder: kB < 1")
    ec = 0.5 * B * B
    k2 = k * k
    return np.abs(rung(k, B, n - 1.0) / k2 - ec), np.abs(rung(k, B, n) / k2 - ec)


def critical_gap(k: int, B: float) -> CriticalGap:
    """Distance of the scaled ladder top to E_c, reported at both candidate
    top indices (the in-range m = N_k - 1 and the formal m = N_k)."""
    top, beyond = critical_gaps(k, B)
    return CriticalGap(k, float(top), float(beyond))
