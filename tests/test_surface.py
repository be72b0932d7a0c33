"""Bolza surface: group integrity, reduction, translate enumeration,
surface density, and the critical-energy time average."""

import math

import numpy as np
import pytest

from magflow import (
    Flag,
    MagneticConfig,
    Moebius,
    Tangent,
    alpha_radial,
    area_average,
    birkhoff_average,
    bolza_group,
    density_cover,
    density_surface,
    hyp_dist,
    octagon_area,
    period,
    radius,
    reduce_point,
    relation_residual,
    translates_meeting_disk,
)
from magflow.halfplane import from_disk, hyp_dist_vec
from magflow.surface import ENUM_CAP, in_domain_mask, require_chern, word_element

STD = MagneticConfig(1.0, 0.25)
GROUP = bolza_group()


class TestGroupConstruction:
    def test_relation_holds(self):
        assert relation_residual(GROUP) < 1e-9

    def test_generators_unimodular(self):
        for g in GROUP.generators:
            assert abs(g.det - 1.0) < 1e-12

    def test_traces_all_equal(self):
        want = 2.0 * (1.0 + math.sqrt(2.0))
        for g in GROUP.generators:
            assert abs(g.trace) == pytest.approx(want, abs=1e-12)

    def test_inverse_pairing(self):
        gens = GROUP.generators
        assert len(gens) == 8
        for k in range(8):
            assert gens[(k + 4) % 8].close_to(gens[k].inv(), 1e-12)

    def test_area_is_gauss_bonnet(self):
        assert octagon_area(GROUP) == pytest.approx(4.0 * math.pi, abs=1e-6)

    def test_radii(self):
        cot8 = 1.0 + math.sqrt(2.0)
        assert GROUP.inradius == pytest.approx(math.acosh(cot8), abs=1e-12)
        assert GROUP.circumradius == pytest.approx(math.acosh(cot8 * cot8), abs=1e-12)
        for v in GROUP.vertices:
            assert hyp_dist(1j, v) == pytest.approx(GROUP.circumradius, abs=1e-12)

    def test_generators_are_isometries(self):
        rng = np.random.default_rng(41)
        for g in GROUP.generators:
            for _ in range(20):
                z = complex(rng.uniform(-1, 1), math.exp(rng.uniform(-1, 1)))
                w = complex(rng.uniform(-1, 1), math.exp(rng.uniform(-1, 1)))
                assert abs(hyp_dist(g.apply(z), g.apply(w)) - hyp_dist(z, w)) < 1e-10

    def test_chern_constraint(self):
        for B in (0.5, 1.0, 1.5, 2.0):
            require_chern(MagneticConfig(B, 0.1))
        with pytest.raises(ValueError, match="Chern constraint violated"):
            require_chern(MagneticConfig(0.7, 0.1))


class TestReduce:
    def test_domain_point_is_fixed(self):
        z = from_disk(0.2 + 0.1j)
        red = reduce_point(GROUP, z)
        assert red.word == ()
        assert red.representative == z

    def test_idempotent(self):
        z = GROUP.generators[3].apply(from_disk(0.4 - 0.2j))
        red = reduce_point(GROUP, z)
        again = reduce_point(GROUP, red.representative)
        assert again.word == ()
        assert again.representative == red.representative

    def test_word_maps_input_to_representative(self):
        z = (GROUP.generators[1] @ GROUP.generators[6]).apply(from_disk(0.3 + 0.3j))
        red = reduce_point(GROUP, z)
        assert abs(word_element(GROUP, red.word).apply(z) - red.representative) < 1e-9

    def test_random_word_round_trips(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            w0 = from_disk(rng.uniform(0.05, 0.55) * np.exp(2j * math.pi * rng.uniform()))
            word = tuple(int(i) for i in rng.integers(0, 8, size=5))
            z = word_element(GROUP, word).apply(complex(w0))
            red = reduce_point(GROUP, z)
            assert abs(red.representative - w0) < 1e-8

    def test_representative_in_domain(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            z = complex(rng.uniform(-3, 3), math.exp(rng.uniform(-2, 2)))
            rep = reduce_point(GROUP, z).representative
            assert bool(in_domain_mask(GROUP, np.asarray(rep))) is True


class TestTranslates:
    def test_tiny_disk_needs_only_identity(self):
        got = translates_meeting_disk(GROUP, 0.1)
        assert len(got) == 1
        assert got[0].close_to(Moebius.identity(), 1e-14)

    def test_reference_energy_count(self):
        got = translates_meeting_disk(GROUP, radius(STD))
        assert len(got) == 9
        assert got == translates_meeting_disk(GROUP, radius(STD))

    def test_closed_under_inverses(self):
        got = translates_meeting_disk(GROUP, 2.0)
        for g in got:
            assert any(h.close_to(g.inv(), 1e-9) for h in got)

    def test_monotone_in_radius(self):
        small = translates_meeting_disk(GROUP, 1.0)
        large = translates_meeting_disk(GROUP, 2.2)
        assert len(small) <= len(large)
        for g in small:
            assert any(h.close_to(g, 1e-9) for h in large)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="disk too large for exact enumeration"):
            translates_meeting_disk(GROUP, ENUM_CAP)
        with pytest.raises(ValueError):
            translates_meeting_disk(GROUP, -0.5)


class TestDensitySurface:
    def test_far_point_vanishes(self):
        # small disk: in-domain points near a vertex sit outside every
        # translate of the projected disk
        cfg = MagneticConfig(1.0, 0.15)
        y = from_disk(0.75 * np.exp(1j * math.pi / 8.0))
        s = density_surface(GROUP, cfg, complex(y))
        assert s.alpha_raw == 0.0
        assert s.flag is Flag.OUTSIDE

    def test_single_translate_matches_cover(self):
        # R_E below the inradius: only the identity translate contributes at
        # domain points strictly inside the disk
        cfg = MagneticConfig(1.0, 0.15)
        R = radius(cfg)
        assert R < GROUP.inradius
        rng = np.random.default_rng(51)
        for _ in range(25):
            d = rng.uniform(0.05, 0.95) * R
            y = from_disk(math.tanh(0.5 * d) * np.exp(2j * math.pi * rng.uniform()))
            s = density_surface(GROUP, cfg, complex(y))
            c = density_cover(cfg, complex(y))
            assert s.alpha_raw == pytest.approx(c.alpha_raw, rel=1e-9)
            assert len(s.preimages) == len(c.preimages)

    def test_preimage_count_bounded(self):
        translates = translates_meeting_disk(GROUP, radius(STD))
        rng = np.random.default_rng(52)
        for _ in range(100):
            y = from_disk(rng.uniform(0.0, 0.8) * np.exp(2j * math.pi * rng.uniform()))
            s = density_surface(GROUP, STD, complex(y))
            assert len(s.preimages) <= 2 * len(translates)

    def test_chern_enforced(self):
        with pytest.raises(ValueError, match="Chern constraint violated"):
            density_surface(GROUP, MagneticConfig(0.7, 0.2), from_disk(0.1))

    def test_mass_preserved_by_folding(self):
        # integrating the translate-summed density over the fundamental
        # domain recovers the full cover mass 2 pi T_E
        res = 900
        re = math.tanh(0.5 * GROUP.circumradius)
        xs = np.linspace(-re, re, res)
        cell = (xs[1] - xs[0]) ** 2
        u = xs[None, :] + 1j * xs[:, None]
        ins = np.abs(u) < re
        z = np.where(ins, from_disk(np.where(ins, u, 0.0)), 1j)
        mask = ins & in_domain_mask(GROUP, z)
        weight = 4.0 / (1.0 - np.abs(u) ** 2) ** 2
        total = np.zeros(u.shape)
        for g in translates_meeting_disk(GROUP, radius(STD)):
            d = hyp_dist_vec(np.full_like(z, 1j), g.apply(z))
            a = np.asarray(alpha_radial(STD, d))
            total += np.where(np.isfinite(a), a, 0.0)
        mass = float(np.sum(np.where(mask, total * weight, 0.0)) * cell)
        assert mass == pytest.approx(2.0 * math.pi * period(STD), rel=0.02)


class TestBirkhoffAverage:
    def test_constant_observable_is_exact(self):
        cfg = MagneticConfig(1.0, 0.5)
        p0 = Tangent(1j, 1j * cfg.lam)
        got = birkhoff_average(GROUP, cfg, lambda z: np.full(np.shape(z), 2.5),
                               T=5.0, p0=p0, n_steps=2000)
        assert got == pytest.approx(2.5, rel=1e-14)

    def test_area_average_of_constant(self):
        got = area_average(GROUP, lambda z: np.ones(np.shape(z)), resolution=400)
        assert got == pytest.approx(1.0, rel=5e-3)

    def test_area_average_rejects_coarse_grid(self):
        for resolution in (0, 1):
            with pytest.raises(ValueError, match="resolution must be at least 2"):
                area_average(GROUP, lambda z: np.ones(np.shape(z)), resolution=resolution)

    def test_rejects_off_critical_energy(self):
        p0 = Tangent(1j, 1j * math.sqrt(0.6))
        with pytest.raises(ValueError, match="equidistribution test requires critical energy"):
            birkhoff_average(GROUP, MagneticConfig(1.0, 0.3), lambda z: np.ones(np.shape(z)),
                             T=1.0, p0=p0, n_steps=100)

    def test_rejects_bad_horizon_and_shell(self):
        cfg = MagneticConfig(1.0, 0.5)
        with pytest.raises(ValueError):
            birkhoff_average(GROUP, cfg, lambda z: np.ones(np.shape(z)),
                             T=0.0, p0=Tangent(1j, 1j * cfg.lam), n_steps=100)
        with pytest.raises(ValueError, match="off energy shell"):
            birkhoff_average(GROUP, cfg, lambda z: np.ones(np.shape(z)),
                             T=1.0, p0=Tangent(1j, 0.2j), n_steps=100)

    def test_rejects_empty_step_count(self):
        cfg = MagneticConfig(1.0, 0.5)
        for n in (0, -3):
            with pytest.raises(ValueError, match="step count must be at least 1"):
                birkhoff_average(GROUP, cfg, lambda z: np.ones(np.shape(z)),
                                 T=1.0, p0=Tangent(1j, 1j * cfg.lam), n_steps=n)
