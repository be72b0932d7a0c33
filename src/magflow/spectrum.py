"""Landau-level ladder of the magnetic Laplacian below the critical energy.

On a compact hyperbolic surface with constant magnetic field B, the bottom
of the spectrum of the k-th twisted Laplacian is an explicit finite ladder

    lambda_{k,m} = k B (m + 1/2) - m (m + 1) / 2,      m = 0 .. N_k - 1,

with N_k = floor(k B) rungs.  The scaled values lambda/k^2 accumulate on
[0, E_c]: the rung nearest k^2 E is the natural quantization of energy E.
The top rung m = N_k - 1 sits at or just below E_c = B^2/2: with f the
fractional part of kB, its scaled value is E_c - f (1 + f) / (2 k^2).  So
for integral kB it is E_c exactly, and otherwise it lies within O(1/k^2).

Level selection and the gap to E_c are array kernels over energies and
tensor powers (select_levels, critical_gaps).  Long ladders are built in
slices of _SLICE rungs (ladder_slices), so no step holds the whole ladder
and memory does not grow with k.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import NamedTuple

import numpy as np


# rungs per slice of ladder_slices
_SLICE = 4096


class SpectrumEntry(NamedTuple):
    k: int
    m: int
    lam: float
    scaled: float


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


def ladder_size(k: int, B: float) -> int:
    """N_k = floor(kB), the number of rungs at tensor power k."""
    if k < 1:
        raise ValueError("tensor power k must be at least 1")
    _require_field(B)
    return int(_n_k(k, B))


def ladder_arrays(k: int, B: float, start: int = 0, stop: int | None = None):
    """(m, lambda, scaled) as arrays for the rungs start <= m < stop of the
    ladder, by default all of it."""
    n = ladder_size(k, B)
    m = np.arange(start, n if stop is None else min(stop, n), dtype=float)
    lam = rung(k, B, m)
    return m.astype(int), lam, lam / (k * k)


def ladder_slices(k: int, B: float):
    """ladder_arrays over consecutive slices of _SLICE rungs, so no step
    holds the whole ladder."""
    for start in range(0, ladder_size(k, B), _SLICE):
        yield ladder_arrays(k, B, start, start + _SLICE)


def ladder(k: int, B: float) -> list:
    """All ladder entries for tensor power k, with builtin int and float fields.

    Entries are built from tolist() of ladder_slices: a whole-array tolist()
    leaves its transient lists' memory in the heap, where it raises the peak
    RSS of long ladders by several MB."""
    out = []
    for m, lam, scaled in ladder_slices(k, B):
        rows = zip(repeat(k), m.tolist(), lam.tolist(), scaled.tolist())
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
    # candidates m0 - 3 .. m0 + 3 on the ladder, of which m0 or m0 - 1 is a
    # rung: 0 <= E < E_c puts m0 = rint(k(B - gamma) - 1/2) in [0, kB], and
    # N_k > kB - 1, so m0 <= N_k
    m = np.rint(k * (B - np.sqrt(B * B - 2.0 * E)) - 0.5)[:, None] + np.arange(-3.0, 4.0)
    k2 = k * k
    lam = rung(k[..., None], B, m)
    err = np.abs(lam / k2[..., None] - E[:, None])
    err[(m < 0.0) | (m >= n[..., None])] = np.inf
    rows = np.arange(len(E))
    pick = err.argmin(axis=1)  # the first minimum: the smaller m
    lam_best = lam[rows, pick]
    return m[rows, pick].astype(int), lam_best, lam_best / k2


def critical_gaps(k, B: float):
    """Distance of the scaled ladder top to E_c at tensor power k (an int or
    an array), at both candidate top indices: (gap_top, gap_beyond) at the
    in-range m = N_k - 1 and the formal m = N_k."""
    _require_field(B)
    k = np.asarray(k, dtype=float)
    n = _n_k(k, B)
    if np.any(n < 1.0):
        raise ValueError("empty ladder: kB < 1")
    ec = 0.5 * B * B
    k2 = k * k
    return np.abs(rung(k, B, n - 1.0) / k2 - ec), np.abs(rung(k, B, n) / k2 - ec)
