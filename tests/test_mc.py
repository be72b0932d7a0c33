"""Monte Carlo oracle: determinism, containment, closed-form agreement."""

import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from magflow import (
    MagneticConfig,
    compare_to_closed_form,
    exact_ring_averages,
    period,
    radius,
    sample_pushforward,
    sample_radii_analytic,
)
from magflow import mc
from magflow.mc import worker_count
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

    def test_thread_count_does_not_change_result(self):
        a = sample_pushforward(STD, 3_500_000, 7, threads=1)
        b = sample_pushforward(STD, 3_500_000, 7, threads=4)
        assert np.array_equal(a.counts, b.counts)

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
            a = sample_pushforward(STD, 20_000, seed, threads=1)
            b = sample_pushforward(STD, 20_000, other, threads=1)
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


def analytic_chunk(cfg):
    g, E = cfg.gamma, cfg.E

    def radii(rng, m):
        t = rng.random(m) * (math.pi / g)
        return np.arccosh(1.0 + (4.0 * E / (g * g)) * np.sin(0.5 * g * t) ** 2)
    return radii


class TestBlockedSampling:
    # 2,040,007 samples: two full chunks and a ragged one, each ending in a
    # ragged block
    N = 2_040_007
    ANALYTIC = MagneticConfig(1.3, 0.3)

    @staticmethod
    def assert_matches_one_shot(sampler, cfg, n, seed, radii_of_chunk):
        want = one_shot_counts(cfg, n, seed, radii_of_chunk)
        for threads in (1, 2):
            assert np.array_equal(sampler(cfg, n, seed, threads=threads).counts, want)

    def test_pushforward_matches_one_shot_chunks(self):
        self.assert_matches_one_shot(sample_pushforward, STD, self.N, 31, pushforward_chunk(STD))

    def test_analytic_matches_one_shot_chunks(self):
        cfg = self.ANALYTIC
        self.assert_matches_one_shot(sample_radii_analytic, cfg, self.N, 32, analytic_chunk(cfg))

    # The t stream starts m draws into its chunk's Philox stream, 4 draws a
    # counter step, so single ragged chunks of m = 0, 1, 2 and 3 mod 4 each
    # take a different skip; 1,010,001 ends in a ragged chunk shorter than
    # one block.
    @pytest.mark.parametrize("n", [40_000, 40_001, 40_002, 40_003, 1_010_001])
    def test_ragged_chunks_match_one_shot_chunks(self, n):
        cfg = self.ANALYTIC
        self.assert_matches_one_shot(sample_pushforward, STD, n, 31, pushforward_chunk(STD))
        self.assert_matches_one_shot(sample_radii_analytic, cfg, n, 32, analytic_chunk(cfg))

    def test_block_is_shorter_than_the_short_chunk(self):
        # the 10,001-sample chunk above is shorter than one block
        assert 10_001 < mc._BLOCK < mc._CHUNK


class TestSamplingMemory:
    # numpy reports its buffers to tracemalloc; a chunk-sized draw would be
    # 8 MB per stream at any n past one chunk
    @pytest.mark.parametrize("n", [2_000_000, 4_000_000])
    def test_traced_peak_does_not_grow_with_n(self, n):
        sample_pushforward(STD, 10_000, 5, threads=1)  # first-call allocations
        tracemalloc.start()
        try:
            hist = sample_pushforward(STD, n, 5, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert int(hist.counts.sum()) == n
        assert peak < 8e6


class TestWorkerCount:
    # worker_count() only reads the environment; no pool is started here
    def usable(self):
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:
            return os.cpu_count() or 1

    def test_defaults_to_usable_cpus(self, monkeypatch):
        monkeypatch.delenv("MAGFLOW_THREADS", raising=False)
        assert worker_count() == self.usable()

    def test_env_caps_the_count(self, monkeypatch):
        monkeypatch.setenv("MAGFLOW_THREADS", "1")
        assert worker_count() == 1
        monkeypatch.setenv("MAGFLOW_THREADS", str(self.usable()))
        assert worker_count() == self.usable()

    def test_large_values_clamp_to_usable_cpus(self, monkeypatch):
        for raw in ("1000000", str(10 ** 30)):
            monkeypatch.setenv("MAGFLOW_THREADS", raw)
            assert worker_count() == self.usable()

    def test_bad_values_name_the_value(self, monkeypatch):
        for raw in ("abc", "0", "-2", "1.5", ""):
            monkeypatch.setenv("MAGFLOW_THREADS", raw)
            with pytest.raises(ValueError, match=f"MAGFLOW_THREADS must be an integer of at least 1, got {raw!r}"):
                worker_count()


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

    def test_analytic_path_self_consistency(self):
        # the inverse-CDF-in-t path bypasses all Moebius arithmetic; at 10^8
        # samples every ring off the two singular bands agrees below 1%
        hist = sample_radii_analytic(STD, 100_000_000, 4242)
        rel = np.abs(np.asarray(compare_to_closed_form(hist, STD)["rel_err"]))
        assert float(rel[2:255].max()) < 0.01

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

    def test_rejects_mismatched_config(self):
        hist = sample_pushforward(STD, 50_000, 5)
        with pytest.raises(ValueError, match="histogram configuration does not match"):
            compare_to_closed_form(hist, MagneticConfig(1.0, 0.3))


class TestExactRingAverages:
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
