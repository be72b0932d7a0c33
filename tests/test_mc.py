"""Monte Carlo oracle: determinism, containment, closed-form agreement."""

import dataclasses
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from magflow import (
    MagneticConfig,
    alpha_radial,
    compare_to_closed_form,
    exact_ring_averages,
    period,
    radius,
    sample_pushforward,
)
from magflow import mc
from magflow.torus import psi_distance_many, psi_many

STD = MagneticConfig(1.0, 0.25)


@pytest.fixture(scope="module")
def big_report():
    hist = sample_pushforward(STD, 10_000_000, 777)
    return compare_to_closed_form(hist, STD)


class TestSampling:
    def test_deterministic_for_fixed_seed(self):
        a = sample_pushforward(STD, 200_000, 42)
        b = sample_pushforward(STD, 200_000, 42)
        assert a.counts.tobytes() == b.counts.tobytes()
        assert a.est_density.tobytes() == b.est_density.tobytes()
        c = sample_pushforward(STD, 200_000, 43)
        assert a.counts.tobytes() != c.counts.tobytes()

    def test_counts_sum_to_n(self):
        hist = sample_pushforward(STD, 150_000, 3)
        assert int(hist.counts.sum()) == 150_000
        assert hist.counts.min() >= 0

    def test_edges_span_projected_disk(self):
        hist = sample_pushforward(STD, 20_000, 1)
        R = radius(STD)
        assert hist.edges[0] == 0.0
        assert hist.edges[-1] == pytest.approx(R, abs=1e-14)
        assert len(hist.edges) == len(hist.counts) + 1

    def test_pushforward_lands_in_disk(self):
        # footpoint containment, checked on a dense parameter grid
        T = period(STD)
        th, t = np.meshgrid(np.linspace(0.0, 2.0 * math.pi, 200),
                            np.linspace(0.0, T, 200, endpoint=False))
        d = psi_distance_many(STD, th.ravel(), t.ravel())
        assert float(d.max()) <= radius(STD) + 1e-9

    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="need at least 10\\^4 samples"):
            sample_pushforward(STD, 9_999, 1)

    def test_rejects_non_subcritical(self):
        with pytest.raises(ValueError):
            sample_pushforward(MagneticConfig(1.0, 0.5), 100_000, 1)
        with pytest.raises(ValueError):
            sample_pushforward(MagneticConfig(1.0, 0.0), 100_000, 1)
        # the disk radius rounds to 0, which the rings would divide by
        with pytest.raises(ValueError, match="torus radius rounds to 0 at B=1.0, E=1e-17"):
            sample_pushforward(MagneticConfig(1.0, 1e-17), 100_000, 1)

    # a Philox key given as a list passes through float64 from 2^63 on, which
    # rounds these pairs onto one key
    @pytest.mark.parametrize("seed,other", [(2**64 - 1, 0), (2**63 + 1, 2**63)])
    def test_high_seeds_keep_their_bits(self, seed, other):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            a = sample_pushforward(STD, 20_000, seed)
            b = sample_pushforward(STD, 20_000, other)
        assert a.counts.tobytes() != b.counts.tobytes()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seed_outside_philox_key(self, seed):
        with pytest.raises(ValueError, match=f"seed must be an integer from 0 to 2\\^64 - 1, "
                                             f"got {seed}"):
            sample_pushforward(STD, 10_000, seed)


def one_shot_counts(cfg, n, seed, radii_of_chunk, rings=256):
    # reference sampler: each Philox chunk of 10^6 mapped to radii in one
    # pass over the whole chunk, then binned
    R = radius(cfg)
    counts = np.zeros(rings, dtype=np.int64)
    for j in range((n + 999_999) // 1_000_000):
        rng = np.random.Generator(np.random.Philox(key=[seed, j]))
        d = radii_of_chunk(rng, min(1_000_000, n - j * 1_000_000))
        counts += np.bincount(np.clip((d * (rings / R)).astype(np.int64), 0, rings - 1),
                              minlength=rings)
    return counts


def pushforward_chunk(cfg):
    T = period(cfg)

    def radii(rng, m):
        theta = rng.random(m) * (2.0 * math.pi)
        t = rng.random(m) * T
        z = psi_many(cfg, theta, t)
        arg = 1.0 + np.abs(z - 1j) ** 2 / (2.0 * z.imag)
        return np.arccosh(np.maximum(arg, 1.0))
    return radii


class TestBlockedSampling:
    # 2,040,007 samples: two full chunks and a ragged one, each ending in a
    # ragged block
    N = 2_040_007

    @staticmethod
    def assert_matches_one_shot(monkeypatch, n, cfg=STD):
        want = one_shot_counts(cfg, n, 31, pushforward_chunk(cfg))

        # the sampler runs its chunks in the calling thread
        def start(thread):
            raise AssertionError("sample_pushforward started a thread")
        monkeypatch.setattr(threading.Thread, "start", start)
        assert np.array_equal(sample_pushforward(cfg, n, 31).counts, want)

    def test_pushforward_matches_one_shot_chunks(self, monkeypatch):
        self.assert_matches_one_shot(monkeypatch, self.N)

    # the sampler draws no theta and maps t alone; the reference draws theta
    # then t and maps both through psi_many, so every count pins the
    # theta-free distance, here at energies other than STD's too
    @pytest.mark.parametrize("B,E", [(1.3, 0.3), (2.0, 0.5), (1.0, 0.49)])
    def test_other_energies_match_one_shot_chunks(self, monkeypatch, B, E):
        self.assert_matches_one_shot(monkeypatch, 1_010_001, MagneticConfig(B, E))

    # The t stream starts m draws into its chunk's Philox stream, 4 draws a
    # counter step, so single ragged chunks of m = 0, 1, 2 and 3 mod 4 each
    # take a different skip; 1,005,001 ends in a ragged chunk shorter than
    # one block, and 1,010,001 in one of a full block and a ragged one.
    @pytest.mark.parametrize("n", [40_000, 40_001, 40_002, 40_003, 1_005_001, 1_010_001])
    def test_ragged_chunks_match_one_shot_chunks(self, monkeypatch, n):
        self.assert_matches_one_shot(monkeypatch, n)

    # the ring table against the kernel binning each draw, where the
    # one-shot reference's arccosh cancels (E = 1e-6, 1e-10) and next to E_c
    @pytest.mark.parametrize("n", [40_003, 1_010_001])
    @pytest.mark.parametrize("E", [1e-6, 1e-10, 0.4999])
    def test_table_matches_the_kernel_per_draw(self, E, n):
        cfg = MagneticConfig(1.0, E)
        assert np.array_equal(sample_pushforward(cfg, n, 31).counts, kernel_counts(cfg, n, 31))

    def test_block_is_shorter_than_the_short_chunk(self):
        # the 5,001-sample chunk above is shorter than one block, and the
        # 10,001-sample chunk longer
        assert 5_001 < mc._BLOCK < 10_001 < mc._CHUNK


def kernel_counts(cfg, n, seed):
    # the sampler without its ring table: every t draw of each chunk, past
    # its theta block, mapped through the distance kernel and binned
    R, T = radius(cfg), period(cfg)
    counts = np.zeros(mc._RINGS, dtype=np.int64)
    for j in range((n + 999_999) // 1_000_000):
        m = min(1_000_000, n - j * 1_000_000)
        rng = np.random.Generator(np.random.Philox(key=[seed, j]))
        rng.random(m)
        counts += mc._bin_counts(psi_distance_many(cfg, 0.0, rng.random(m) * T), R)
    return counts


# STD, a larger field, two tiny disks and an energy next to E_c
TABLE_CONFIGS = [(1.0, 0.25), (2.0, 0.5), (1.0, 1e-6), (1.0, 1e-10), (1.0, 0.4999)]


class TestRingTable:
    @pytest.mark.parametrize("B,E", TABLE_CONFIGS)
    def test_every_draw_in_a_cell_lands_in_its_ring(self, B, E):
        cfg = MagneticConfig(B, E)
        R, T = radius(cfg), period(cfg)
        table = mc._ring_table(cfg, R, T)
        assert table.dtype == np.int16 and table.shape == (mc._CELLS,)
        assert np.count_nonzero(table == mc._RINGS) <= 0.01 * mc._CELLS
        cell = np.flatnonzero(table != mc._RINGS)
        lo, hi = cell / mc._CELLS, (cell + 1) / mc._CELLS
        # each cell's left end, both its ends nudged inward, and a draw
        # inside it on the 2^-53 grid of Philox's doubles
        inside = (cell << 37) + np.random.default_rng(7).integers(0, 2**37, cell.size)
        u = np.concatenate([lo, np.nextafter(lo, 1.0), np.nextafter(hi, 0.0), inside * 2.0**-53])
        ring = np.tile(table[cell], 4)
        assert np.all(u * mc._CELLS // 1 == np.tile(cell, 4))
        d = psi_distance_many(cfg, 0.0, u * T)
        for k in np.unique(ring):
            sel = ring == k
            assert mc._bin_counts(d[sel], R)[k] == np.count_nonzero(sel), f"ring {k}"


class TestSamplingMemory:
    # numpy reports its buffers to tracemalloc; a chunk-sized draw would be
    # 8 MB per stream at any n past one chunk
    @pytest.mark.parametrize("n", [2_000_000, 4_000_000])
    def test_traced_peak_does_not_grow_with_n(self, n):
        sample_pushforward(STD, 10_000, 5)  # first-call allocations
        tracemalloc.start()
        try:
            hist = sample_pushforward(STD, n, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert int(hist.counts.sum()) == n
        assert peak < 8e6


class TestClosedFormAgreement:
    def test_body_rings_match(self, big_report):
        # 10^7 samples: ring-averaged density within 5% of the exact ring
        # average over the middle of the disk
        assert big_report["max_rel_err_body"] < 0.05

    def test_center_exponent(self, big_report):
        assert big_report["center_slope"] == pytest.approx(-1.0, abs=0.1)

    def test_boundary_exponent(self, big_report):
        assert big_report["boundary_slope"] == pytest.approx(-0.5, abs=0.1)

    def test_chi_square_is_sane(self, big_report):
        ratio = big_report["chi2"] / big_report["chi2_dof"]
        assert 0.5 < ratio < 1.5

    def test_error_halves_with_quadrupled_work(self):
        # rms body error should shrink by ~1/sqrt(2) when n doubles
        edges = None
        ratios = []
        for i in range(20):
            h1 = sample_pushforward(STD, 100_000, 3000 + i)
            h2 = sample_pushforward(STD, 200_000, 6000 + i)
            if edges is None:
                edges = h1.edges
                exact = exact_ring_averages(STD, edges)
                mid = 0.5 * (edges[:-1] + edges[1:])
                body = (mid >= 0.1 * edges[-1]) & (mid <= 0.9 * edges[-1])
            e1 = np.sqrt(np.mean((h1.est_density[body] / exact[body] - 1.0) ** 2))
            e2 = np.sqrt(np.mean((h2.est_density[body] / exact[body] - 1.0) ** 2))
            ratios.append(e2 / e1)
        assert 0.55 < float(np.mean(ratios)) < 0.85

    def test_refuses_a_fit_window_without_two_rings(self):
        # all but one ring of the boundary window emptied: one point fits no slope
        hist = sample_pushforward(STD, 50_000, 5)
        mid = 0.5 * (hist.edges[:-1] + hist.edges[1:])
        keep = ~((mid >= 0.8 * hist.edges[-1]) & (np.arange(mid.size) < mid.size - 1))
        thin = dataclasses.replace(hist, counts=hist.counts * keep,
                                   est_density=hist.est_density * keep)
        with pytest.raises(ValueError, match=r"^the boundary fit window holds 1 nonempty "
                                             r"ring\(s\) at B=1.0, E=0.25, n=50000; "
                                             r"a fit needs 2$"):
            compare_to_closed_form(thin, STD)

    def test_rejects_mismatched_config(self):
        hist = sample_pushforward(STD, 50_000, 5)
        with pytest.raises(ValueError, match="histogram configuration does not match"):
            compare_to_closed_form(hist, MagneticConfig(1.0, 0.3))


def quadrature_ring_averages(cfg, edges, nodes=32):
    # ring averages of alpha_radial by Gauss-Legendre in u = sqrt(R - r) on
    # each ring: the substitution turns alpha's 1/sqrt(R - r) blowup at the
    # boundary into a smooth integrand, and alpha sinh r stays smooth at the
    # center; the ring areas 4 pi sinh((a+b)/2) sinh((b-a)/2) do not cancel
    x, w = np.polynomial.legendre.leggauss(nodes)
    R = edges[-1]
    lo, hi = edges[:-1, None], edges[1:, None]
    ua, ub = np.sqrt(R - hi), np.sqrt(R - lo)
    u = 0.5 * (ub - ua) * x + 0.5 * (ua + ub)
    r = R - u * u
    mass = np.sum(0.5 * (ub - ua) * w * 2.0 * u * alpha_radial(cfg, r)
                  * 2.0 * math.pi * np.sinh(r), axis=1)
    area = 4.0 * math.pi * np.sinh(0.5 * (hi + lo)) * np.sinh(0.5 * (hi - lo))
    return mass / area[:, 0]


class TestExactRingAverages:
    @pytest.mark.parametrize("B, E", [(1.0, 0.25), (1.3, 0.3), (2.0, 0.5)])
    def test_match_quadrature_of_the_density(self, B, E):
        cfg = MagneticConfig(B, E)
        # the closed-form mass 4 pi t1(r) against alpha_radial integrated
        # over each of the sampler's 256 rings, the two singular ones
        # included; the rim ring agrees to about 2e-7, since t1 takes an
        # arcsin next to 1 there, and every other ring to 1e-8
        edges = np.linspace(0.0, radius(cfg), 257)
        got = exact_ring_averages(cfg, edges)
        want = quadrature_ring_averages(cfg, edges)
        assert np.max(np.abs(got / want - 1.0)) < 1e-6

    def test_ring_mass_adds_up(self):
        # total ring mass equals the raw density mass 2 pi T_E
        edges = np.linspace(0.0, radius(STD), 257)
        avg = exact_ring_averages(STD, edges)
        areas = 2.0 * math.pi * np.diff(np.cosh(edges))
        assert float(np.sum(avg * areas)) == pytest.approx(
            2.0 * math.pi * period(STD), rel=1e-10)

    def test_flat_near_zero_only_inside(self):
        edges = np.linspace(0.0, radius(STD), 65)
        avg = exact_ring_averages(STD, edges)
        assert np.all(avg > 0.0)
