"""Landau-level ladder, level selection, and the critical-gap decay."""

import math

import numpy as np
import pytest

from magflow import SpectrumEntry, ladder
from magflow import spectrum
from magflow.spectrum import (critical_gaps, ladder_arrays, ladder_size, ladder_slices, rung,
                              select_levels)


def select_level(k, B, E):
    """select_levels at one energy: (m, lambda, scaled) as builtin scalars."""
    return tuple(a.item() for a in select_levels(k, B, [E]))


def critical_gap(k, B):
    """critical_gaps at one tensor power: (gap_top, gap_beyond) as floats."""
    return tuple(g.item() for g in critical_gaps(k, B))


class TestLadder:
    def test_ground_level(self):
        entries = ladder(10, 1.0)
        assert entries[0] == SpectrumEntry(10, 0, 5.0, 0.05)

    def test_top_level_resonant(self):
        entries = ladder(10, 1.0)
        assert len(entries) == 10
        top = entries[-1]
        assert top.m == 9
        assert top.lam == 50.0
        assert top.scaled == 0.5

    def test_ground_level_general(self):
        for k, B in ((3, 0.5), (17, 1.5), (101, 2.0)):
            assert ladder(k, B)[0].lam == pytest.approx(0.5 * k * B, rel=1e-15)

    def test_count_is_floor_kB(self):
        assert len(ladder(10, 1.0)) == 10
        assert len(ladder(7, 1.5)) == 10
        assert len(ladder(3, 0.5)) == 1
        assert len(ladder(1, 0.5)) == 0

    def test_strictly_increasing_below_top(self):
        for k, B in ((10, 1.0), (7, 1.5), (400, 0.5), (123, 2.0)):
            _, lam, _ = ladder_arrays(k, B)
            m = np.arange(len(lam))
            below = m[:-1] < k * B - 0.5
            assert np.all(np.diff(lam)[below] > 0.0)

    def test_scaled_range(self):
        for k, B in ((10, 1.0), (7, 1.5), (997, 0.5)):
            _, _, scaled = ladder_arrays(k, B)
            assert np.all(scaled >= 0.0)
            assert np.all(scaled <= 0.5 * B * B + 0.5 * B / k + 1e-12)

    def test_entries_are_builtin_scalars_across_chunks(self):
        # longer than one tolist() chunk; numpy scalars would change JSON output
        k, B = 10000, 1.5
        got = ladder(k, B)
        m, lam, scaled = ladder_arrays(k, B)
        want = [SpectrumEntry(k, int(mi), float(li), float(si))
                for mi, li, si in zip(m, lam, scaled)]
        assert len(got) == len(want) == 15000
        assert got == want
        for e in got:
            assert type(e) is SpectrumEntry
            assert (type(e.k), type(e.m), type(e.lam), type(e.scaled)) == (int, int, float, float)

    # one rung short of, at and one past a slice boundary, a ragged last
    # slice, and a single rung
    @pytest.mark.parametrize("k, B", [
        (4095, 1.0), (4096, 1.0), (4097, 1.0), (10007, 1.0), (8192, 1.5), (3, 0.5)])
    def test_slices_concatenate_to_the_whole_ladder(self, k, B):
        parts = list(ladder_slices(k, B))
        assert len(parts) == -(-ladder_size(k, B) // spectrum._SLICE)
        assert all(len(m) == spectrum._SLICE for m, _, _ in parts[:-1])
        for got, want in zip(zip(*parts), ladder_arrays(k, B)):
            assert np.concatenate(got).tobytes() == want.tobytes()
        assert len(ladder_arrays(k, B)[0]) == ladder_size(k, B)

    def test_range_is_clipped_to_the_ladder(self):
        m, lam, scaled = ladder_arrays(10, 1.0, 8, 20)
        assert m.tolist() == [8, 9]
        assert lam.tolist() == [rung(10, 1.0, 8.0), rung(10, 1.0, 9.0)]
        assert len(ladder_arrays(10, 1.0, 10)[0]) == 0

    # kB at, just under and just over integers, where the nudge in floor(kB)
    # decides the top index
    @pytest.mark.parametrize("k, B", [
        (10, 1.0), (7, 1.5), (3, 0.5), (1, 1.0), (400, 0.5), (123, 2.0), (10007, 1.0),
        (3, 1.0 / 3.0), (10, 0.9999999999), (10, 1.0000000001), (1000, 1.7), (200000, 1.0)])
    def test_top_rung_is_the_last(self, k, B):
        # lambda(m + 1) - lambda(m) = kB - m - 1 >= 1 on the ladder
        m, lam, _ = ladder_arrays(k, B)
        assert int(np.argmax(lam)) == len(m) - 1
        assert np.all(np.diff(lam) > 0.0)

    def test_slices_check_arguments_before_the_first_slice(self):
        for k, B in ((0, 1.0), (10, 0.0), (10, math.nan)):
            with pytest.raises(ValueError):
                next(ladder_slices(k, B))
        assert list(ladder_slices(1, 0.5)) == []

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ladder(0, 1.0)
        with pytest.raises(ValueError):
            ladder(10, 0.0)
        with pytest.raises(ValueError):
            ladder(10, -1.0)

    @pytest.mark.parametrize("B", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_field(self, B):
        message = f"field strength B must be positive and finite, got {B}"
        for call in (lambda: ladder_arrays(10, B), lambda: select_level(10, B, 0.1),
                     lambda: critical_gap(10, B)):
            with pytest.raises(ValueError, match=message):
                call()


class TestSelectLevel:
    def test_zero_energy_selects_ground(self):
        for k in (1, 10, 500):
            assert select_level(k, 1.0, 0.0)[0] == 0

    def test_reference_selection(self):
        m, lam, scaled = select_level(100, 1.0, 0.25)
        assert m == 29
        assert lam == 2515.0
        assert scaled == pytest.approx(0.2515, abs=1e-12)

    def test_agrees_with_full_scan(self):
        # every energy in one call, and one per k in a call of its own;
        # lambda carries the bits of the scalar rung()
        energies = np.linspace(0.0, 1.0, 50, endpoint=False)
        for B in (0.5, 1.0, 1.5, 2.0):
            ec = 0.5 * B * B
            for k in range(1, 501):
                _, _, scaled = ladder_arrays(k, B)
                if len(scaled) == 0:
                    continue
                want = np.argmin(np.abs(scaled - (energies * ec)[:, None]), axis=1)
                m, lam, got_scaled = select_levels(k, B, energies * ec)
                assert np.array_equal(m, want)
                assert lam.tolist() == [rung(k, B, int(mi)) for mi in want]
                assert np.array_equal(got_scaled, lam / (k * k))
                i = k % len(energies)
                assert select_level(k, B, float(energies[i] * ec))[0] == want[i]

    def test_array_k_matches_one_call_per_k(self):
        ks = np.arange(1, 301)
        energies = np.linspace(0.0, 0.49, 7)
        m, lam, scaled = select_levels(np.repeat(ks, 7), 1.0, np.tile(energies, len(ks)))
        for i, k in enumerate(ks.tolist()):
            got = select_levels(k, 1.0, energies)
            assert np.array_equal(got[0], m[7 * i:7 * i + 7])
            assert np.array_equal(got[1], lam[7 * i:7 * i + 7])
            assert np.array_equal(got[2], scaled[7 * i:7 * i + 7])

    def test_ties_break_to_smaller_m(self):
        # k = 2, B = 1: scaled rungs 0.25 and 0.5, and 0.375 lies exactly between
        assert select_level(2, 1.0, 0.375)[0] == 0
        assert select_levels(2, 1.0, [0.375, 0.375])[0].tolist() == [0, 0]

    def test_pell_resonances_are_exact(self):
        # k^2/4 lies exactly on the ladder at these k, so the offset vanishes
        for k in (2, 12, 70, 408, 2378):
            _, _, scaled = select_level(k, 1.0, 0.25)
            assert abs(scaled - 0.25) < 1e-15

    def test_convergence_rate(self):
        # |scaled - E| decays like 1/k; resonant k make the raw sequence
        # non-monotone, so fit the octave-binned maxima
        ks = np.unique(np.logspace(2.0, 4.0, 300).astype(int))
        errs = np.array([abs(select_level(int(k), 1.0, 0.25)[2] - 0.25) for k in ks])
        edges = 100.0 * 2.0 ** np.arange(8)
        xs, ys = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            sel = (ks >= lo) & (ks < hi)
            if sel.any():
                xs.append(math.sqrt(lo * hi))
                ys.append(errs[sel].max())
        slope = np.polyfit(np.log(xs), np.log(ys), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.1)

    def test_candidate_window_always_meets_the_ladder(self):
        # m0 = rint(k(B - gamma) - 1/2) lies in [0, kB] and N_k > kB - 1, so m0
        # or m0 - 1 is a rung: the seven candidates need no full-scan fallback,
        # at E = 0, just below E_c, with kB just above an integer, and at huge k
        for B in (0.5, 1.0, 1.5, 2.0, 1.0 + 1e-12, 0.5 + 2.0 ** -40, 3.0 + 1e-10):
            ec = 0.5 * B * B
            energies = np.array([0.0, np.nextafter(ec, 0.0), 0.3 * ec])
            for k in (1, 2, 3, 7, 10, 64, 999, 4096, 10**6, 10**12, 10**15, 10**18):
                n = ladder_size(k, B)
                if n == 0:
                    continue
                m, lam, _ = select_levels(k, B, energies)
                assert np.all((m >= 0) & (m < n)) and np.all(np.isfinite(lam))
                assert m[0] == 0
                if n <= 5000:
                    _, _, scaled = ladder_arrays(k, B)
                    want = np.argmin(np.abs(scaled - energies[:, None]), axis=1)
                    assert m.tolist() == want.tolist()
                    assert m[1] == n - 1  # the top rung sits below E_c and nearest it

    def test_rejects_out_of_range_energy(self):
        with pytest.raises(ValueError, match="ladder does not reach critical energy"):
            select_level(10, 1.0, 0.5)
        with pytest.raises(ValueError):
            select_level(10, 1.0, -0.01)
        for E in (math.nan, math.inf, -math.inf):
            message = f"energy E must be finite and nonnegative, got {E}"
            with pytest.raises(ValueError, match=message):
                select_level(10, 1.0, E)
        with pytest.raises(ValueError, match="got nan"):
            select_levels(10, 1.0, [0.1, math.nan, 0.2])

    def test_rejects_empty_ladder(self):
        with pytest.raises(ValueError, match="empty ladder: kB < 1"):
            select_level(1, 0.5, 0.1)


class TestCriticalGap:
    def test_resonant_case_closes(self):
        assert critical_gap(10, 1.0) == (0.0, 0.0)

    def test_off_resonant_case(self):
        gap_top, gap_beyond = critical_gap(7, 1.5)
        _, lam, _ = ladder_arrays(7, 1.5)
        assert len(lam) == 10
        assert gap_top == pytest.approx(abs(rung(7, 1.5, 9) / 49.0 - 1.125), rel=1e-14)
        assert gap_top > 0.0
        assert gap_beyond > 0.0

    def test_top_gap_is_closed_form(self):
        # the top rung sits f (1 + f) / (2 k^2) below E_c, f the fractional
        # part of kB: 0 for integral kB, O(1/k^2) otherwise
        ks = np.arange(3, 2001)
        for B in (0.5, 1.0, 1.5, 2.0, 0.37, 1.05):
            f = ks * B - np.floor(ks * B + 1e-9)
            top, _ = critical_gaps(ks, B)
            assert np.max(np.abs(top - f * (1.0 + f) / (2.0 * ks * ks))) < 1e-15

    def test_k_gap_stays_bounded(self):
        worst = 0.0
        for k in range(1, 10001):
            worst = max(worst, k * min(critical_gap(k, 1.0)))
        assert worst <= 1.0

    def test_array_form_matches_scalar_formula(self):
        # the scalar rung() on builtin ints, as the gap was computed before
        # the array form, is the bitwise reference; an int k gives the same bits
        ks = np.arange(3, 2001)  # kB >= 1 at every B below
        for B in (0.5, 1.0, 1.5, 2.0, 0.37):
            top, beyond = critical_gaps(ks, B)
            ec = 0.5 * B * B
            for k, t, b in zip(ks.tolist(), top.tolist(), beyond.tolist()):
                n = math.floor(k * B + 1e-9)
                assert t == abs(rung(k, B, n - 1) / float(k * k) - ec)
                assert b == abs(rung(k, B, n) / float(k * k) - ec)
                assert critical_gap(k, B) == (t, b)

    def test_rejects_empty_ladder(self):
        with pytest.raises(ValueError, match="empty ladder: kB < 1"):
            critical_gap(1, 0.5)
        with pytest.raises(ValueError, match="empty ladder: kB < 1"):
            critical_gaps([3, 1], 0.5)
