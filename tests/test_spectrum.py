"""Landau-level ladder, level selection, and the critical-gap decay."""

import math

import numpy as np
import pytest

from magflow import CriticalGap, SpectrumEntry, critical_gap, ladder, select_level
from magflow.spectrum import ladder_arrays, rung


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

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ladder(0, 1.0)
        with pytest.raises(ValueError):
            ladder(10, 0.0)
        with pytest.raises(ValueError):
            ladder(10, -1.0)


class TestSelectLevel:
    def test_zero_energy_selects_ground(self):
        for k in (1, 10, 500):
            assert select_level(k, 1.0, 0.0).m == 0

    def test_reference_selection(self):
        got = select_level(100, 1.0, 0.25)
        assert got.m == 29
        assert got.lam == 2515.0
        assert got.scaled == pytest.approx(0.2515, abs=1e-12)

    def test_agrees_with_full_scan(self):
        energies = np.linspace(0.0, 1.0, 50, endpoint=False)
        for B in (0.5, 1.0, 1.5, 2.0):
            ec = 0.5 * B * B
            for k in range(1, 501):
                _, _, scaled = ladder_arrays(k, B)
                if len(scaled) == 0:
                    continue
                for E in energies * ec:
                    want = int(np.argmin(np.abs(scaled - E)))
                    assert select_level(k, B, float(E)).m == want

    def test_pell_resonances_are_exact(self):
        # k^2/4 lies exactly on the ladder at these k, so the offset vanishes
        for k in (2, 12, 70, 408, 2378):
            got = select_level(k, 1.0, 0.25)
            assert abs(got.scaled - 0.25) < 1e-15

    def test_convergence_rate(self):
        # |scaled - E| decays like 1/k; resonant k make the raw sequence
        # non-monotone, so fit the octave-binned maxima
        ks = np.unique(np.logspace(2.0, 4.0, 300).astype(int))
        errs = np.array([abs(select_level(int(k), 1.0, 0.25).scaled - 0.25) for k in ks])
        edges = 100.0 * 2.0 ** np.arange(8)
        xs, ys = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            sel = (ks >= lo) & (ks < hi)
            if sel.any():
                xs.append(math.sqrt(lo * hi))
                ys.append(errs[sel].max())
        slope = np.polyfit(np.log(xs), np.log(ys), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.1)

    def test_rejects_out_of_range_energy(self):
        with pytest.raises(ValueError, match="ladder does not reach critical energy"):
            select_level(10, 1.0, 0.5)
        with pytest.raises(ValueError):
            select_level(10, 1.0, -0.01)

    def test_rejects_empty_ladder(self):
        with pytest.raises(ValueError, match="empty ladder: kB < 1"):
            select_level(1, 0.5, 0.1)


class TestCriticalGap:
    def test_resonant_case_closes(self):
        got = critical_gap(10, 1.0)
        assert got == CriticalGap(10, 0.0, 0.0)

    def test_off_resonant_case(self):
        got = critical_gap(7, 1.5)
        _, lam, _ = ladder_arrays(7, 1.5)
        assert len(lam) == 10
        assert got.gap_top == pytest.approx(abs(rung(7, 1.5, 9) / 49.0 - 1.125), rel=1e-14)
        assert got.gap_top > 0.0
        assert got.gap_beyond > 0.0

    def test_k_gap_stays_bounded(self):
        worst = 0.0
        for k in range(1, 10001):
            g = critical_gap(k, 1.0)
            worst = max(worst, k * min(g.gap_top, g.gap_beyond))
        assert worst <= 1.0

    def test_rejects_empty_ladder(self):
        with pytest.raises(ValueError, match="empty ladder: kB < 1"):
            critical_gap(1, 0.5)
