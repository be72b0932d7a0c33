"""Zonal torus: parametrization, radius, profile, preimages, density, mass."""

import math
import warnings

import numpy as np
import pytest

from magflow import (
    Flag,
    MagneticConfig,
    TorusPoint,
    alpha_radial,
    density_cover_many,
    density_mass,
    flow_matrix,
    hyp_dist,
    jacobian,
    period,
    phi_profile,
    preimage_count,
    preimages_cover,
    preimages_many,
    psi,
    radius,
    rotation_about_i,
    singular_constants,
    singular_fits,
    t_of_distance,
    variation_coeffs,
)
from magflow import cli
from magflow.halfplane import from_disk
from magflow.halfplane import hyp_dist_vec
from magflow.torus import _half_turn, psi_distance_many, psi_many

STD = MagneticConfig(1.0, 0.25)
T_STD = period(STD)
R_STD = radius(STD)


def fd_jacobian_det(cfg, theta, t, h=1e-5):
    """Hyperbolic |det dPsi| by central differences in half-plane coordinates."""
    pts = {}
    for dth, dt_ in ((h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)):
        pts[(dth, dt_)] = psi(cfg, theta + dth, t + dt_)
    dth_vec = (pts[(h, 0.0)] - pts[(-h, 0.0)]) / (2.0 * h)
    dt_vec = (pts[(0.0, h)] - pts[(0.0, -h)]) / (2.0 * h)
    det = dth_vec.real * dt_vec.imag - dth_vec.imag * dt_vec.real
    y = psi(cfg, theta, t).imag
    return abs(det) / (y * y)


class TestPsi:
    def test_all_rays_start_at_center(self):
        for theta in (0.0, 1.0, 3.5, 6.0):
            assert abs(psi(STD, theta, 0.0) - 1j) < 1e-14

    def test_half_period_hits_boundary_point(self):
        got = psi(STD, 0.0, 0.5 * T_STD)
        assert abs(got - (math.sqrt(2.0) + 0.5j) / 1.5) < 1e-12
        assert abs(hyp_dist(1j, got) - R_STD) < 1e-12

    def test_distance_is_theta_independent(self):
        for t in (0.3, 1.7, 0.5 * T_STD, 5.0):
            ds = [hyp_dist(1j, psi(STD, th, t))
                  for th in np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)]
            assert max(ds) - min(ds) < 1e-12

    def test_vectorized_matches_scalar(self):
        # the Moebius product R(theta) exp(tF) . i is the independent reference
        rng = np.random.default_rng(14)
        th = rng.uniform(0.0, 2.0 * math.pi, 50)
        t = rng.uniform(0.0, T_STD, 50)
        z = psi_many(STD, th, t)
        for i in range(50):
            one = psi(STD, float(th[i]), float(t[i]))
            ref = (rotation_about_i(float(th[i])) @ flow_matrix(STD, float(t[i]))).apply(1j)
            assert abs(z[i] - one) < 1e-12
            assert abs(z[i] - ref) < 1e-12

    def test_rejects_non_subcritical_and_zero_energy(self):
        for E in (0.0, 0.5, 1.0):
            with pytest.raises(ValueError, match="torus undefined at this energy"):
                psi(MagneticConfig(1.0, E), 0.0, 1.0)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError, match=rf"needs a finite time at B=1.0, E=0.25, t={t!r}"):
            psi(STD, 0.0, t)
        with pytest.raises(ValueError, match=rf"needs a finite time at B=1.0, E=0.25, t={t!r}"):
            psi_many(STD, np.zeros(3), np.array([1.0, t, 2.0]))

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_angle(self, theta):
        # refused before numpy's tan would warn and return nan
        message = rf"^psi needs a finite angle at B=1.0, E=0.25, theta={abs(theta)!r}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                psi(STD, theta, 1.0)
            for f in (psi_many, psi_distance_many):
                with pytest.raises(ValueError, match=message):
                    f(STD, np.array([0.0, theta, 1.0]), 1.0)

    def test_half_turn_matches_mpmath(self):
        # R(theta/2) from x = tan(theta/4), whose pole sits at theta = 2 pi:
        # within two units in the last place of 1 of cos and sin of theta/2
        # (the largest error reads one; numpy's cos and sin read none)
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(3)
        two_pi = 2.0 * math.pi
        th = np.concatenate([rng.uniform(0.0, two_pi, 500), np.nextafter(two_pi, [0.0, 7.0]),
                             [0.0, two_pi, math.pi, 4.0 * math.pi, -two_pi, 1e3]])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            rc, rs = _half_turn(th)
        with mp.workdps(40):
            want_c = np.array([float(mp.cos(mp.mpf(x) / 2)) for x in th.tolist()])
            want_s = np.array([float(mp.sin(mp.mpf(x) / 2)) for x in th.tolist()])
        eps = np.finfo(float).eps
        assert np.max(np.abs(rc - want_c)) <= 2.0 * eps
        assert np.max(np.abs(rs - want_s)) <= 2.0 * eps

    def test_stays_on_energy_shell(self):
        # Lagrangian check, tangential part: the t-flow lines of the torus
        # keep hyperbolic speed lambda
        from magflow import flow_exact, hyp_norm, rotate_fiber, Tangent
        p0 = rotate_fiber(Tangent(1j, 1j * STD.lam), 0.9)
        for t in np.linspace(0.0, T_STD, 23):
            q = flow_exact(STD, p0, float(t))
            assert abs(hyp_norm(q) - STD.lam) < 1e-9
            assert abs(q.z - psi(STD, 0.9, float(t))) < 1e-9


def mp_psi_distance(cfg, theta, t):
    """d(i, P.i) for P = R(theta/2) exp(tF) in 60-digit arithmetic, from the
    exact B, E, theta and t."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        B, E = mp.mpf(cfg.B), mp.mpf(cfg.E)
        g, lam = mp.sqrt(B * B - 2 * E), mp.sqrt(2 * E)
        out = []
        for a, b in zip(theta.tolist(), t.tolist()):
            C, S = mp.cos(g * b / 2), 2 * mp.sin(g * b / 2) / g
            m11, m12, m21, m22 = C + S * lam / 2, -S * B / 2, S * B / 2, C - S * lam / 2
            rc, rs = mp.cos(mp.mpf(a) / 2), mp.sin(mp.mpf(a) / 2)
            p11, p12 = rc * m11 + rs * m21, rc * m12 + rs * m22
            p21, p22 = rc * m21 - rs * m11, rc * m22 - rs * m12
            out.append(float(mp.acosh((p11 ** 2 + p12 ** 2 + p21 ** 2 + p22 ** 2) / 2)))
    return np.array(out)


class TestPsiDistance:
    @staticmethod
    def draws(cfg, n=2000):
        rng = np.random.default_rng(0)
        return rng.random(n) * (2.0 * math.pi), rng.random(n) * period(cfg)

    @pytest.mark.parametrize("B,E", [(1.0, 0.25), (2.0, 0.5), (1.3, 0.3)])
    def test_matches_distance_of_psi(self, B, E):
        cfg = MagneticConfig(B, E)
        th, t = self.draws(cfg)
        want = hyp_dist_vec(psi_many(cfg, th, t), 1j)
        assert np.max(np.abs(psi_distance_many(cfg, th, t) / want - 1.0)) < 1e-12

    # largest relative error over the 2000 draws, against 60 digits: 2.9e-13,
    # 2.0e-13, 1.3e-13, 1.9e-11 and 3.0e-9; arccosh(1 + |z - i|^2 / (2 Im z))
    # after the complex division of psi_many gives 1.6e-11, 9.5e-11,
    # 3.8e-13, 2.2e-5 and 8.6e-2.  The error is a few ulps absolute, so it
    # grows like 1/d relative at small distances.
    @pytest.mark.parametrize("B,E,tol", [
        (1.0, 0.25, 1e-12), (2.0, 0.5, 1e-12), (1.0, 0.4999, 1e-12),
        (1.0, 1e-6, 1e-10), (1.0, 1e-10, 1e-8),
    ])
    def test_matches_high_precision_reference(self, B, E, tol):
        cfg = MagneticConfig(B, E)
        th, t = self.draws(cfg)
        want = mp_psi_distance(cfg, th, t)
        assert np.max(np.abs(psi_distance_many(cfg, th, t) / want - 1.0)) < tol

    def test_theta_independent(self):
        # R(theta/2) fixes i, so only rounding may separate the angles
        t = np.linspace(0.05, T_STD - 0.05, 101)
        at_zero = psi_distance_many(STD, 0.0, t)
        for th in np.linspace(0.0, 2.0 * math.pi, 33):
            assert np.max(np.abs(psi_distance_many(STD, th, t) / at_zero - 1.0)) < 2e-14

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_rejects_non_finite_time(self, t):
        message = rf"^exp\(tF\) needs a finite time at B=1.0, E=0.25, t={t!r}$"
        with pytest.raises(ValueError, match=message):
            psi_distance_many(STD, np.zeros(3), np.array([1.0, t, 2.0]))

    def test_is_the_profile_at_theta_zero(self):
        t = np.linspace(0.0, T_STD, 257)
        assert phi_profile(STD, t).tolist() == psi_distance_many(STD, 0.0, t).tolist()
        assert psi_distance_many(STD, 1.0, 0.0) == 0.0


class TestRadius:
    def test_zero_energy_collapses(self):
        assert radius(MagneticConfig(1.0, 0.0)) == 0.0

    def test_reference_value(self):
        assert R_STD == pytest.approx(math.acosh(3.0), abs=1e-14)

    def test_diverges_at_critical(self):
        assert radius(MagneticConfig(1.0, 0.49999)) > 10.0

    def test_is_max_of_profile(self):
        ts = np.linspace(0.0, T_STD, 801)
        prof = [phi_profile(STD, float(t)) for t in ts]
        assert max(prof) == pytest.approx(R_STD, abs=1e-6)

    def test_rejects_critical_and_above(self):
        for E in (0.5, 2.0):
            with pytest.raises(ValueError, match="torus undefined at this energy"):
                radius(MagneticConfig(1.0, E))


class TestPhiProfile:
    def test_vanishes_at_endpoints(self):
        assert phi_profile(STD, 0.0) == 0.0
        assert phi_profile(STD, T_STD) < 1e-7

    def test_stationary_at_half_period(self):
        h = 1e-5
        t0 = 0.5 * T_STD
        d1 = (phi_profile(STD, t0 + h) - phi_profile(STD, t0 - h)) / (2.0 * h)
        assert abs(d1) < 1e-6

    def test_second_derivative_at_half_period(self):
        # phi''(T/2) = (sqrt(2E)/2B)(2E - B^2) = -0.176777 at B=1, E=0.25
        h = 1e-4
        t0 = 0.5 * T_STD
        d2 = (phi_profile(STD, t0 + h) - 2.0 * phi_profile(STD, t0)
              + phi_profile(STD, t0 - h)) / (h * h)
        want = (STD.lam / 2.0) * (2.0 * STD.E - 1.0)
        assert d2 == pytest.approx(want, abs=1e-4)
        assert want == pytest.approx(-0.176777, abs=1e-6)

    def test_monotone_on_first_half(self):
        ts = np.linspace(0.01, 0.5 * T_STD, 200)
        prof = np.array([phi_profile(STD, float(t)) for t in ts])
        assert np.all(np.diff(prof) > 0.0)

    def test_array_matches_per_point_calls(self):
        ts = np.linspace(0.0, T_STD, 257)
        prof = phi_profile(STD, ts)
        assert prof.shape == ts.shape
        assert prof.tolist() == [float(phi_profile(STD, float(t))) for t in ts]

    def test_t_of_distance_inverts_profile(self):
        for t in (0.4, 1.3, 3.1):
            d = phi_profile(STD, t)
            assert float(t_of_distance(STD, d)) == pytest.approx(t, abs=1e-9)
        # beyond the rim clips to the boundary time
        assert float(t_of_distance(STD, R_STD + 1.0)) == 0.5 * T_STD


class TestJacobian:
    def test_vanishes_at_half_period(self):
        assert jacobian(STD, 0.0, 0.5 * T_STD) < 1e-14

    def test_quarter_period_value(self):
        got = jacobian(STD, 1.0, 0.25 * T_STD)
        assert got == pytest.approx(0.5 / math.sqrt(0.5), abs=1e-12)

    def test_theta_independent(self):
        vals = [jacobian(STD, th, 1.1) for th in np.linspace(0, 6.0, 7)]
        assert max(vals) - min(vals) == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            t = rng.uniform(0.05, 0.95) * T_STD
            if abs(t - 0.5 * T_STD) < 0.02 * T_STD:
                continue  # fd of |det| loses accuracy where it vanishes
            want = jacobian(STD, theta, t)
            assert fd_jacobian_det(STD, theta, t) == pytest.approx(want, rel=1e-4)

    def test_rank_two_off_singular_set(self):
        # Lagrangian check, dimensional part: dPsi has full rank 2 away from
        # t in {0, T/2, T} and degenerates on the singular set
        assert fd_jacobian_det(STD, 0.7, 0.3 * T_STD) > 0.1
        assert fd_jacobian_det(STD, 0.7, 0.5 * T_STD) < 1e-3


class TestPreimages:
    def test_boundary_point_has_one(self):
        y = psi(STD, 0.0, 0.5 * T_STD)
        pre = preimages_cover(STD, y)
        assert len(pre) == 1
        assert pre[0].t == pytest.approx(0.5 * T_STD, abs=1e-9)

    def test_interior_point_has_two(self):
        y = psi(STD, 0.3, T_STD / 5.0)
        pre = preimages_cover(STD, y)
        assert len(pre) == 2
        best = min(abs(q.theta - 0.3) + abs(q.t - T_STD / 5.0) for q in pre)
        assert best < 1e-9

    def test_outside_is_empty(self):
        y = 1j * math.exp(R_STD + 0.1)
        assert preimages_cover(STD, y) == []

    def test_center_rejected(self):
        with pytest.raises(ValueError, match="degenerate center: full circle fiber"):
            preimages_cover(STD, 1j)

    def test_round_trip_grid(self):
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 1000:
            th = rng.uniform(0.0, 2.0 * math.pi)
            t = rng.uniform(1e-3, T_STD - 1e-3)
            if abs(t - 0.5 * T_STD) < 1e-3:
                continue
            checked += 1
            y = psi(STD, th, t)
            pre = preimages_cover(STD, y)
            assert len(pre) == 2
            best = min(
                min(abs(q.theta - th), 2.0 * math.pi - abs(q.theta - th)) + abs(q.t - t)
                for q in pre
            )
            assert best < 1e-8

    def test_preimages_reproduce_point(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            y = psi(STD, rng.uniform(0, 2 * math.pi), rng.uniform(0.1, 0.9) * T_STD)
            for q in preimages_cover(STD, y):
                assert abs(psi(STD, q.theta, q.t) - y) < 1e-10

    def test_coordinates_reduced(self):
        y = psi(STD, 5.9, 0.83 * T_STD)
        for q in preimages_cover(STD, y):
            assert isinstance(q, TorusPoint)
            assert 0.0 <= q.theta < 2.0 * math.pi
            assert 0.0 <= q.t < T_STD


class TestPreimagesMany:
    # points of the per-point tests above: boundary, interior, outside and
    # reduced-coordinate probes, then the first probes of the round-trip grid
    @staticmethod
    def probe_points():
        ys = [psi(STD, 0.0, 0.5 * T_STD), psi(STD, 0.3, T_STD / 5.0),
              1j * math.exp(R_STD + 0.1), psi(STD, 5.9, 0.83 * T_STD)]
        rng = np.random.default_rng(9)
        for _ in range(100):
            ys.append(psi(STD, rng.uniform(0.0, 2.0 * math.pi), rng.uniform(1e-3, T_STD - 1e-3)))
        return ys

    def test_matches_preimages_cover(self):
        ys = self.probe_points()
        theta, t, n = preimages_many(STD, ys)
        assert theta.shape == t.shape == (len(ys), 2) and n.shape == (len(ys),)
        for j, y in enumerate(ys):
            want = preimages_cover(STD, y)
            assert n[j] == len(want)
            assert list(zip(theta[j, :n[j]].tolist(), t[j, :n[j]].tolist())) == want

    def test_nan_layout_by_count(self):
        interior = psi(STD, 1.0, 0.2 * T_STD)
        ys = np.array([[1j, 1j * math.exp(R_STD + 0.5)],
                       [psi(STD, 2.0, 0.5 * T_STD), interior]])
        theta, t, n = preimages_many(STD, ys)
        assert theta.shape == t.shape == (2, 2, 2)
        assert n.tolist() == [[0, 0], [1, 2]]
        assert np.isnan(t[0]).all() and np.isnan(theta[0]).all()
        assert t[1, 0, 0] == 0.5 * T_STD and np.isnan(t[1, 0, 1]) and np.isnan(theta[1, 0, 1])
        t1 = float(t_of_distance(STD, hyp_dist(1j, interior)))
        assert t[1, 1].tolist() == pytest.approx([t1, T_STD - t1], abs=1e-12)
        assert not np.isnan(theta[1, 1]).any() and not np.isnan(theta[1, 0, 0])
        # one point: the trailing axis alone
        theta, t, n = preimages_many(STD, interior)
        assert theta.shape == t.shape == (2,) and n == 2

    @pytest.mark.parametrize("B, E", [(1.0, 0.25), (2.0, 0.5), (1.5, 1.0), (0.7, 0.2),
                                      (1.0, 0.49)])
    def test_round_trip(self, B, E):
        cfg = MagneticConfig(B, E)
        T = period(cfg)
        rng = np.random.default_rng(5)
        th0 = rng.uniform(0.0, 2.0 * math.pi, 500)
        t0 = rng.uniform(0.01, 0.49, 500) * T
        t0[::2] = T - t0[::2]  # both branches of the profile
        y = psi_many(cfg, th0, t0)
        theta, t, n = preimages_many(cfg, y)
        assert np.all(n == 2)
        back = psi_many(cfg, theta, t)
        assert float(np.max(hyp_dist_vec(back, y[:, None]))) < 1e-12
        # the launch coordinates are one of the two listed preimages
        gap = np.abs((theta - th0[:, None] + math.pi) % (2.0 * math.pi) - math.pi)
        assert float(np.max(np.min(gap + np.abs(t - t0[:, None]), axis=1))) < 1e-8


class TestPreimageCount:
    def test_counts_by_distance(self):
        band = 1e-12 * R_STD
        d = np.array([0.0, 0.5e-9, 0.3, R_STD - 1e-6, R_STD - 0.3 * band, R_STD,
                      R_STD + 0.3 * band, R_STD + 1e-6, np.inf])
        assert preimage_count(STD, d).tolist() == [0, 0, 2, 2, 1, 1, 1, 0, 0]
        assert int(preimage_count(STD, 0.3)) == 2


class TestDensityCover:
    def test_value_is_the_radial_kernel(self):
        rng = np.random.default_rng(41)
        ys = [psi(STD, th, 0.5 * T_STD) for th in rng.uniform(0.0, 2.0 * math.pi, 20)]
        for _ in range(200):
            d = rng.uniform(1e-6, 1.2) * R_STD
            u = math.tanh(0.5 * d) * np.exp(2j * math.pi * rng.uniform())
            ys.append(complex(from_disk(u)))
        d = [hyp_dist(1j, y) for y in ys]
        alpha, n_pre, _ = density_cover_many(STD, d)
        assert alpha.tolist() == [alpha_radial(STD, dj) for dj in d]
        # the boundary circle is singular: one preimage, infinite density
        assert n_pre[:20].tolist() == [1] * 20 and np.all(alpha[:20] == math.inf)
        assert all(len(preimages_cover(STD, y)) == 1 for y in ys[:20])
        band = 1e-12 * R_STD
        assert np.all(alpha_radial(STD, R_STD + band * np.array([-0.3, 0.0, 0.3])) == np.inf)

    def test_singular_constants(self):
        c_center, c_bd = singular_constants(STD)
        assert c_center == pytest.approx(math.sqrt(8.0), rel=1e-15)
        assert c_bd == pytest.approx(1.189207, abs=1e-6)
        cfg = MagneticConfig(1.5, 0.6)
        c_center, c_bd = singular_constants(cfg)
        R = radius(cfg)
        assert float(alpha_radial(cfg, 1e-6)) * 1e-6 == pytest.approx(c_center, rel=1e-2)
        assert float(alpha_radial(cfg, R - 1e-6)) * 1e-3 == pytest.approx(c_bd, rel=1e-2)

    def test_outside_support(self):
        y = 1j * math.exp(R_STD + 0.2)
        alpha, n_pre, flags = density_cover_many(STD, [hyp_dist(1j, y)])
        assert alpha[0] == 0.0
        assert n_pre[0] == 0 and preimages_cover(STD, y) == []
        assert flags[0] is Flag.OUTSIDE

    def test_normalization_relation(self):
        # the density CSV's alpha_normalized column is alpha_raw over the
        # total mass 2 pi T_E
        xs = np.linspace(-0.7, 0.7, 9)
        lines = list(cli._density_csv(STD, xs, cli._cover_rows(STD, xs, 1e-3)))[1:]
        rows = [r.split(",") for r in "".join(lines).splitlines()]
        finite = [r for r in rows if math.isfinite(float(r[3])) and float(r[3]) > 0.0]
        assert len(finite) > 20
        for r in finite:
            assert float(r[4]) * (2.0 * math.pi * T_STD) == pytest.approx(float(r[3]), rel=1e-14)

    def test_sum_over_preimages(self):
        y = psi(STD, 2.0, 0.31 * T_STD)
        (alpha,), (n_pre,), _ = density_cover_many(STD, [hyp_dist(1j, y)])
        pre = preimages_cover(STD, y)
        assert n_pre == len(pre) == 2
        want = sum(1.0 / jacobian(STD, q.theta, q.t) for q in pre)
        assert alpha == pytest.approx(want, rel=1e-12)

    def test_center_asymptotic_constant(self):
        # alpha_raw * d -> sqrt(2/E) = sqrt(8) at B=1, E=0.25
        want = math.sqrt(8.0)
        for d in (1e-3, 1e-4, 1e-5):
            assert float(alpha_radial(STD, d)) * d == pytest.approx(want, rel=0.05)
        got = float(alpha_radial(STD, 1e-6)) * 1e-6
        assert got == pytest.approx(want, rel=1e-2)
        assert want == pytest.approx(2.828427, abs=1e-6)

    def test_boundary_asymptotic_constant(self):
        # alpha_raw * sqrt(R - d) -> (1/E) sqrt(sqrt(2E)(B^2-2E)/(4B)) = 1.189207
        want = (1.0 / STD.E) * math.sqrt(STD.lam * (1.0 - 2.0 * STD.E) / 4.0)
        for tau in (1e-3, 1e-4, 1e-5):
            got = float(alpha_radial(STD, R_STD - tau)) * math.sqrt(tau)
            assert got == pytest.approx(want, rel=0.05)
        got = float(alpha_radial(STD, R_STD - 1e-6)) * 1e-3
        assert got == pytest.approx(want, rel=1e-2)
        assert want == pytest.approx(1.189207, abs=1e-6)

    def test_singular_fits(self):
        fits = singular_fits(STD)
        assert (fits["center_constant_expected"], fits["boundary_constant_expected"]) == \
            singular_constants(STD)
        assert fits["center_slope"] == pytest.approx(-1.0, abs=0.05)
        assert fits["boundary_slope"] == pytest.approx(-0.5, abs=0.05)
        assert fits["center_constant"] == pytest.approx(fits["center_constant_expected"], rel=1e-2)
        assert fits["boundary_constant"] == pytest.approx(fits["boundary_constant_expected"],
                                                          rel=2e-2)
        assert fits["center_constant"] == float(alpha_radial(STD, 1e-6)) * 1e-6

    def test_singular_fits_of_a_small_disk(self):
        # R_E is 2.8e-3, below the top of the fixed window d <= 1e-2 of larger
        # disks: the windows shrink with the disk and the fits stay clean
        cfg = MagneticConfig(1.0, 1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fits = singular_fits(cfg)
        assert radius(cfg) < 0.02
        assert fits["center_slope"] == pytest.approx(-1.0, abs=0.02)
        assert fits["boundary_slope"] == pytest.approx(-0.5, abs=0.02)
        assert fits["center_constant"] == pytest.approx(fits["center_constant_expected"], rel=1e-2)

    def test_singularity_exponents(self):
        ds = np.logspace(-5.0, -2.0, 40)
        slope_c = np.polyfit(np.log(ds), np.log(alpha_radial(STD, ds)), 1)[0]
        assert slope_c == pytest.approx(-1.0, abs=0.05)
        taus = np.logspace(-6.0, -3.0, 40)
        slope_b = np.polyfit(np.log(taus), np.log(alpha_radial(STD, R_STD - taus)), 1)[0]
        assert slope_b == pytest.approx(-0.5, abs=0.05)

    def test_rotational_symmetry(self):
        rng = np.random.default_rng(31)
        for d in (0.2, 0.9, 1.5):
            t = float(t_of_distance(STD, d))
            ys = [psi(STD, th, t) for th in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)]
            vals, _, _ = density_cover_many(STD, [hyp_dist(1j, y) for y in ys])
            assert (vals.max() - vals.min()) / vals.mean() < 1e-8
        # and the closed-form radial evaluation agrees with the kernel at the point
        for _ in range(50):
            d = rng.uniform(0.05, 0.95) * R_STD
            (alpha,), _, _ = density_cover_many(STD, [hyp_dist(1j, 1j * math.exp(d))])
            assert float(alpha_radial(STD, d)) == pytest.approx(alpha, rel=1e-9)

    def test_flags(self):
        ys = 1j * np.exp([1e-4 * R_STD, R_STD * (1.0 - 1e-4), 0.5 * R_STD])
        _, _, flags = density_cover_many(STD, [hyp_dist(1j, y) for y in ys])
        assert flags.tolist() == [Flag.NEAR_CENTER, Flag.NEAR_BOUNDARY, Flag.REGULAR]


class TestDensityMass:
    def test_raw_mass(self):
        want = 2.0 * math.pi * T_STD
        got = density_mass(STD)
        assert want == pytest.approx(55.8309, abs=1e-3)
        assert got == pytest.approx(want, rel=0.01)

    def test_normalized_mass_is_one(self):
        got = density_mass(STD) / (2.0 * math.pi * T_STD)
        assert got == pytest.approx(1.0, rel=0.01)

    def test_other_config(self):
        cfg = MagneticConfig(1.5, 0.6)
        assert density_mass(cfg) == pytest.approx(2.0 * math.pi * period(cfg), rel=0.01)

    def test_outside_annulus_carries_no_mass(self):
        ds = np.linspace(R_STD + 1e-9, R_STD + 0.1, 200)
        assert np.all(alpha_radial(STD, ds) == 0.0)
