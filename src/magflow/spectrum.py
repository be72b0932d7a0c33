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
    "critical_gap",
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


def _n_k(k: int, B: float) -> int:
    # floor(kB) with a tiny nudge so dyadically-exact products stay exact
    return int(math.floor(k * B + 1e-9))


def rung(k: int, B: float, m: int) -> float:
    """lambda_{k,m}, evaluated as (2kB(2m+1) - 2m(m+1))/4 to limit cancellation."""
    return (2.0 * k * B * (2 * m + 1) - 2.0 * m * (m + 1)) / 4.0


def ladder_arrays(k: int, B: float):
    """(m, lambda, scaled) as arrays for the full ladder."""
    if k < 1:
        raise ValueError("tensor power k must be at least 1")
    if B <= 0.0:
        raise ValueError("field strength B must be positive")
    m = np.arange(_n_k(k, B), dtype=float)
    lam = (2.0 * k * B * (2.0 * m + 1.0) - 2.0 * m * (m + 1.0)) / 4.0
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


def select_level(k: int, B: float, E: float) -> SpectrumEntry:
    """The rung whose scaled eigenvalue is closest to E; ties break to smaller m.

    The scaled ladder is beta((m + 1/2)/k) - (corrections), beta(s) = Bs - s^2/2,
    so the minimizer sits near k(B - sqrt(B^2 - 2E)); only a few candidates
    around that index need checking.
    """
    if E < 0.0:
        raise ValueError("energy E must be nonnegative")
    if E >= 0.5 * B * B:
        raise ValueError("ladder does not reach critical energy")
    n = _n_k(k, B)
    if n == 0:
        raise ValueError("empty ladder: kB < 1")
    s_star = B - math.sqrt(B * B - 2.0 * E)
    m0 = int(round(k * s_star - 0.5))
    best = None
    for m in range(max(0, m0 - 3), min(n, m0 + 4)):
        lam = rung(k, B, m)
        err = abs(lam / (k * k) - E)
        if best is None or err < best[0]:
            best = (err, m, lam)
    if best is None:
        # candidate window missed the ladder: fall back to the full scan
        m_all, lam_all, scaled = ladder_arrays(k, B)
        idx = int(np.argmin(np.abs(scaled - E)))
        return SpectrumEntry(k, idx, float(lam_all[idx]), float(scaled[idx]))
    return SpectrumEntry(k, best[1], best[2], best[2] / (k * k))


def critical_gap(k: int, B: float) -> CriticalGap:
    """Distance of the scaled ladder top to E_c, reported at both candidate
    top indices (the in-range m = N_k - 1 and the formal m = N_k)."""
    ec = 0.5 * B * B
    n = _n_k(k, B)
    if n == 0:
        raise ValueError("empty ladder: kB < 1")
    k2 = float(k * k)
    return CriticalGap(
        k=k,
        gap_top=abs(rung(k, B, n - 1) / k2 - ec),
        gap_beyond=abs(rung(k, B, n) / k2 - ec),
    )
