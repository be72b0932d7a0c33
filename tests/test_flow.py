"""Magnetic flow: exp(tF), exact/numeric flows, period, Lyapunov, variations."""

import cmath
import math
import re
import warnings

import numpy as np
import pytest

from magflow import (
    MagneticConfig,
    Regime,
    Tangent,
    flow_exact,
    flow_exact_many,
    flow_matrix,
    flow_numeric,
    flow_numeric_rows,
    frame_of,
    hyp_dist,
    hyp_norm,
    lyapunov_exponent,
    mobius_apply,
    period,
    variation_coeffs,
)

from magflow import flow
from magflow.flow import _exp_entries, _exp_scalars

STD = MagneticConfig(1.0, 0.25)


def shell_tangent(cfg, z=1j, angle=0.0):
    """Unit-speed-lambda tangent at z, rotated by angle from vertical."""
    return Tangent(z, 1j * z.imag * cfg.lam * cmath.exp(1j * angle))


class TestConfig:
    def test_lambda_squared_is_twice_energy(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            cfg = MagneticConfig(rng.uniform(0.1, 3.0), rng.uniform(0.0, 4.0))
            assert cfg.lam**2 == pytest.approx(2.0 * cfg.E, rel=1e-15)

    def test_regime_trichotomy(self):
        assert MagneticConfig(1.0, 0.25).regime is Regime.SUBCRITICAL
        assert MagneticConfig(1.0, 0.5).regime is Regime.CRITICAL
        assert MagneticConfig(1.0, 1.0).regime is Regime.SUPERCRITICAL

    def test_regime_window_around_critical(self):
        # |B^2 - 2E| within 1e-12 counts as critical
        assert MagneticConfig(1.0, 0.5 * (1.0 - 5e-13)).regime is Regime.CRITICAL
        assert MagneticConfig(1.0, 0.5 * (1.0 + 5e-13)).regime is Regime.CRITICAL
        assert MagneticConfig(1.0, 0.5 * (1.0 - 1e-11)).regime is Regime.SUBCRITICAL
        assert MagneticConfig(1.0, 0.5 * (1.0 + 1e-11)).regime is Regime.SUPERCRITICAL

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            MagneticConfig(0.0, 0.25)
        with pytest.raises(ValueError):
            MagneticConfig(1.0, -0.1)

    @pytest.mark.parametrize("B, E", [(1e160, 0.25), (1.4e154, 0.0), (1e-160, 0.0),
                                      (1.0, 9e307)])
    def test_squared_field_or_doubled_energy_out_of_range(self, B, E):
        message = f"B^2 underflows or B^2 + 2E overflows at B={B!r}, E={E!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            MagneticConfig(B, E)
        # the largest and smallest field strengths still taken
        MagneticConfig(1.3e154, 0.25), MagneticConfig(1.5e-154, 0.0)


class TestFlowExact:
    def test_time_zero_is_identity(self):
        p = shell_tangent(STD)
        q = flow_exact(STD, p, 0.0)
        assert q.z == p.z and abs(q.v - p.v) < 1e-15

    def test_period_returns_to_start(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            B = rng.uniform(0.3, 2.5)
            cfg = MagneticConfig(B, rng.uniform(0.01, 0.45) * B * B)
            T = period(cfg)
            for _ in range(20):
                z = complex(rng.uniform(-1, 1), math.exp(rng.uniform(-1, 1)))
                p = shell_tangent(cfg, z, rng.uniform(0, 2 * math.pi))
                q = flow_exact(cfg, p, T)
                assert abs(q.z - p.z) < 1e-9
                assert abs(q.v - p.v) < 1e-9

    def test_half_period_base_point(self):
        # B=1, lambda=sqrt(0.5): z(pi/gamma) = (2 lam B + i(B^2-lam^2))/(lam^2+B^2)
        cfg = STD
        lam = cfg.lam
        q = flow_exact(cfg, shell_tangent(cfg), 0.5 * period(cfg))
        want = (2.0 * lam + 1j * (1.0 - lam * lam)) / (lam * lam + 1.0)
        assert abs(q.z - want) < 1e-12
        assert abs(q.z - (math.sqrt(2.0) + 0.5j) / 1.5) < 1e-12

    def test_one_parameter_group_law(self):
        rng = np.random.default_rng(4)
        for cfg in (STD, MagneticConfig(1.0, 0.5), MagneticConfig(1.0, 1.5)):
            for _ in range(30):
                t, s = rng.uniform(-3, 3), rng.uniform(-3, 3)
                p = shell_tangent(cfg, 0.2 + 1.3j, 0.7)
                q1 = flow_exact(cfg, p, t + s)
                q2 = flow_exact(cfg, flow_exact(cfg, p, s), t)
                assert abs(q1.z - q2.z) < 1e-10
                assert abs(q1.v - q2.v) < 1e-10

    def test_speed_conserved(self):
        for cfg in (STD, MagneticConfig(1.0, 0.5), MagneticConfig(1.0, 1.5)):
            p = shell_tangent(cfg)
            for t in np.linspace(0.0, 8.0, 17):
                q = flow_exact(cfg, p, float(t))
                assert abs(hyp_norm(q) - cfg.lam) < 1e-8

    def test_zero_energy_is_fixed(self):
        cfg = MagneticConfig(1.0, 0.0)
        p = Tangent(0.4 + 2.0j, 0.0)
        q = flow_exact(cfg, p, 5.0)
        assert q.z == p.z and q.v == p.v

    def test_off_shell_rejected(self):
        with pytest.raises(ValueError, match="off energy shell"):
            flow_exact(STD, Tangent(1j, 1j), 1.0)

    def test_shell_tolerance_is_relative_to_the_speed(self):
        # at lam = sqrt(2e18) the rounding of |v| / Im z alone is about
        # 1e-16 lam = 1.4e-7, above an absolute 1e-8
        rng = np.random.default_rng(23)
        cfg = MagneticConfig(1.0, 1e18)
        for _ in range(20):
            z = complex(rng.uniform(-1.0, 1.0), math.exp(rng.uniform(-1.0, 1.0)))
            p = shell_tangent(cfg, z, rng.uniform(0.0, 2.0 * math.pi))
            q = flow_exact(cfg, p, 0.0)
            assert abs(q.z - p.z) < 1e-14 * abs(p.z) and abs(q.v - p.v) < 1e-14 * abs(p.v)
        off = Tangent(2j, 2j * cfg.lam * (1.0 + 1e-7))
        message = f"off energy shell at B=1.0, E=1e+18, |v|/Im z={cfg.lam * (1.0 + 1e-7)!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            flow_exact(cfg, off, 0.0)

    def test_many_matches_the_moebius_chain(self):
        # the array flow against the frame and flow_matrix Moebius products
        # acting on (i, i), within 1e-12 relative below and at E_c.  Above
        # it, a d - b c of entries of size cosh d rounds at eps cosh^2 d, and
        # the chain renormalizes exp(tF) by that determinant, which moves its
        # velocities by as much
        eps = np.finfo(float).eps
        rng = np.random.default_rng(24)
        for cfg in (STD, MagneticConfig(2.0, 2.0), MagneticConfig(1.0, 2.0)):
            p = shell_tangent(cfg, 0.3 + 1.7j, 2.1)
            t = rng.uniform(-10.0, 10.0, 50)
            z, v = flow_exact_many(cfg, p, t)
            assert z.shape == v.shape == t.shape
            unit = Tangent(p.z, p.v / cfg.lam)
            a, b, c, d = _exp_entries(cfg, *_exp_scalars(cfg, t))
            tol = np.full(t.shape, 1e-12)
            if cfg.regime is Regime.SUPERCRITICAL:
                tol = 8.0 * eps * (0.5 * (a * a + b * b + c * c + d * d)) ** 2
            for k, tk in enumerate(t.tolist()):
                q = mobius_apply(frame_of(unit) @ flow_matrix(cfg, tk), Tangent(1j, 1j))
                assert abs(z[k] - q.z) <= tol[k] * abs(q.z)
                assert abs(v[k] - cfg.lam * q.v) <= tol[k] * abs(v[k])

    def test_supercritical_velocity_matches_mpmath(self):
        # B = 1, E = 2, t = 10: the float d - b c of exp(tF) is 1 - 4.2e-9, so
        # a renormalized matrix would move the velocity by that much
        mp = pytest.importorskip("mpmath")
        cfg = MagneticConfig(1.0, 2.0)
        for p in (shell_tangent(cfg), shell_tangent(cfg, 0.3 + 1.7j, 2.1)):
            with mp.workdps(40):
                lam, B = mp.sqrt(2 * mp.mpf(cfg.E)), mp.mpf(cfg.B)
                g = mp.sqrt(lam * lam - B * B)
                C, S = mp.cosh(5 * g), 2 * mp.sinh(5 * g) / g
                e = mp.matrix([[C + S * lam / 2, -S * B / 2], [S * B / 2, C - S * lam / 2]])
                x, y = mp.mpf(p.z.real), mp.mpf(p.z.imag)
                psi = mp.atan2(mp.mpf(p.v.imag), mp.mpf(p.v.real)) - mp.pi / 2
                frame = (mp.matrix([[mp.sqrt(y), x / mp.sqrt(y)], [0, 1 / mp.sqrt(y)]])
                         * mp.matrix([[mp.cos(psi / 2), mp.sin(psi / 2)],
                                      [-mp.sin(psi / 2), mp.cos(psi / 2)]]) * e)
                w = frame[1, 0] * 1j + frame[1, 1]
                z_ref = complex((frame[0, 0] * 1j + frame[0, 1]) / w)
                v_ref = complex(lam * 1j / (w * w))
            q = flow_exact(cfg, p, 10.0)
            assert abs(q.z - z_ref) <= 1e-12 * abs(z_ref)
            assert abs(q.v - v_ref) <= 1e-12 * abs(v_ref)

    def test_float_time_is_one_point_of_many(self):
        # a float time takes numpy's scalar complex products, an array its
        # vector loops; the two may differ in the last place
        eps = np.finfo(float).eps
        for cfg in (STD, MagneticConfig(1.0, 0.5), MagneticConfig(1.0, 2.0)):
            p = shell_tangent(cfg, -0.4 + 0.6j, 1.1)
            t = np.linspace(-5.0, 5.0, 11)
            z, v = flow_exact_many(cfg, p, t)
            for k, tk in enumerate(t.tolist()):
                q = flow_exact(cfg, p, tk)
                assert (q.z, q.v) == flow_exact_many(cfg, p, tk)
                assert abs(q.z - z[k]) <= 4.0 * eps * abs(z[k])
                assert abs(q.v - v[k]) <= 4.0 * eps * abs(v[k])

    def test_many_at_zero_energy_is_fixed(self):
        cfg = MagneticConfig(1.0, 0.0)
        p = Tangent(0.4 + 2.0j, 0.0)
        z, v = flow_exact_many(cfg, p, np.array([-3.0, 0.0, 5.0, 1e300]))
        assert np.all(z == p.z) and np.all(v == p.v)

    def test_zero_energy_checks_the_time(self):
        cfg = MagneticConfig(1.0, 0.0)
        p = Tangent(2j, 0j)
        with pytest.raises(ValueError, match=r"needs a finite time at B=1.0, E=0.0, t=nan"):
            flow_exact(cfg, p, math.nan)
        with pytest.raises(ValueError, match=r"needs a finite time at B=1.0, E=0.0, t=inf"):
            flow_exact_many(cfg, p, np.array([0.0, 1.0, -math.inf]))

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_time_rejected(self, t):
        for cfg in (STD, MagneticConfig(1.0, 0.5), MagneticConfig(1.0, 2.0)):
            with pytest.raises(ValueError, match=rf"needs a finite time at B=1.0, E={cfg.E!r}, t={t!r}"):
                flow_exact(cfg, shell_tangent(cfg), t)


class TestFlowMatrix:
    def test_group_law_and_det(self):
        for cfg in (STD, MagneticConfig(2.0, 1.0), MagneticConfig(1.0, 3.0)):
            m = flow_matrix(cfg, 0.9) @ flow_matrix(cfg, 1.4)
            assert m.close_to(flow_matrix(cfg, 2.3), 1e-12)
            assert abs(flow_matrix(cfg, 5.0).det - 1.0) < 1e-12

    def test_lost_determinant_names_the_config(self):
        # supercritical entries stay accurate, but a d - b c cancels once
        # g t / 2 passes about 9
        # at E = 2, t = 10 the drift is about 4e-9, inside the tolerance;
        # renormalizing by it moves the entries by half that, relatively
        m = flow_matrix(MagneticConfig(1.0, 2.0), 10.0)
        assert m.trace == pytest.approx(2.0 * math.cosh(5.0 * math.sqrt(3.0)), rel=3e-9)
        for E, t in ((5.0, 10.0), (1e6, 0.03)):
            with pytest.raises(ValueError, match=rf"loses its determinant .* at B=1.0, E={E!r}, t={t!r}"):
                flow_matrix(MagneticConfig(1.0, E), t)

    def test_series_branch_continuous_at_critical(self):
        # exp(tF) is continuous in E across |B^2 - 2E| = 1e-8, on both sides
        # of E_c
        for s in (1.0, -1.0):
            Eout = 0.5 * (1.0 - s * 1.0001e-8)
            Ein = 0.5 * (1.0 - s * 0.9999e-8)
            mo = flow_matrix(MagneticConfig(1.0, Eout), 1.7)
            mi = flow_matrix(MagneticConfig(1.0, Ein), 1.7)
            assert mo.close_to(mi, 1e-9)


def reference_rk4(cfg, p, t, dt, j_sign=1.0):
    """The tuple-and-zip RK4 loop that flow_numeric unrolls: same step rule,
    same operation order, so the two must agree to the bit."""
    B = j_sign * cfg.B
    sign = 1.0 if t > 0.0 else -1.0
    total = abs(t)
    n = max(1, math.ceil(total / dt - 1e-12))
    h = sign * (total / n)

    def deriv(state):
        x, y, vx, vy = state
        return (vx, vy, 2.0 * vx * vy / y + B * vy, (vy * vy - vx * vx) / y - B * vx)

    s = (p.z.real, p.z.imag, p.v.real, p.v.imag)
    for _ in range(n):
        k1 = deriv(s)
        k2 = deriv(tuple(si + 0.5 * h * ki for si, ki in zip(s, k1)))
        k3 = deriv(tuple(si + 0.5 * h * ki for si, ki in zip(s, k2)))
        k4 = deriv(tuple(si + h * ki for si, ki in zip(s, k3)))
        s = tuple(
            si + (h / 6.0) * (a + 2.0 * b2 + 2.0 * c2 + d2)
            for si, a, b2, c2, d2 in zip(s, k1, k2, k3, k4)
        )
    return s


class TestFlowNumeric:
    def test_matches_reference_loop_bitwise(self):
        cases = (
            (STD, 1.0, 1e-3, 1.0),
            (STD, -2.5, 1e-3, 1.0),
            (STD, 1.2345, 1e-2, -1.0),  # t not a multiple of dt
            (MagneticConfig(1.0, 2.0), 3.0, 1e-3, 1.0),
            (MagneticConfig(2.0, 0.7), -0.77, 3e-3, 1.0),
        )
        for cfg, t, dt, j_sign in cases:
            p = shell_tangent(cfg, 0.3 + 1.7j, 0.4)
            got = flow_numeric(cfg, p, t, dt, j_sign=j_sign).p
            want = reference_rk4(cfg, p, t, dt, j_sign)
            assert (got.z.real, got.z.imag, got.v.real, got.v.imag) == want

    def test_matches_exact_flow(self):
        p = shell_tangent(STD)
        got = flow_numeric(STD, p, 1.0, 1e-4)
        want = flow_exact(STD, p, 1.0)
        assert not got.step_warning
        assert abs(got.p.z - want.z) < 1e-10
        assert abs(got.p.v - want.v) < 1e-10

    def test_tracks_exact_flow_over_two_periods(self):
        T = period(STD)
        p_num = shell_tangent(STD)
        checkpoints = np.linspace(0.0, 2.0 * T, 21)
        for t0, t1 in zip(checkpoints[:-1], checkpoints[1:]):
            p_num = flow_numeric(STD, p_num, float(t1 - t0), 1e-4).p
            want = flow_exact(STD, shell_tangent(STD), float(t1))
            assert hyp_dist(p_num.z, want.z) < 1e-8

    def test_conserves_speed_over_ten_periods(self):
        T = period(STD)
        p = shell_tangent(STD)
        for _ in range(100):
            p = flow_numeric(STD, p, 0.1 * T, 1e-3).p
            assert abs(hyp_norm(p) - STD.lam) < 1e-8

    def test_orientation_sign_matters(self):
        # flipping the magnetic term sends the trajectory the wrong way round
        p = shell_tangent(STD)
        flipped = flow_numeric(STD, p, 1.0, 1e-3, j_sign=-1.0).p
        want = flow_exact(STD, p, 1.0)
        assert hyp_dist(flipped.z, want.z) > 0.1

    def test_zero_energy_is_fixed(self):
        cfg = MagneticConfig(1.0, 0.0)
        p = Tangent(0.4 + 2.0j, 0.0)
        got = flow_numeric(cfg, p, 3.0, 1e-2)
        assert got.p.z == p.z and not got.step_warning

    def test_rows_chain_flow_numeric(self):
        # each row continues the previous one over the difference of times
        for cfg, j_sign in ((STD, 1.0), (MagneticConfig(1.0, 2.0), -1.0)):
            p = shell_tangent(cfg, 0.3 + 1.7j, 0.4)
            ts = np.array([0.0, 0.25, 0.5, 1.3, 1.3, 2.0])
            z, v, warned = flow_numeric_rows(cfg, p, ts, 1e-2, j_sign)
            cur = p
            assert (z[0], v[0]) == (p.z, p.v)
            for k in range(1, len(ts)):
                cur = flow_numeric(cfg, cur, float(ts[k] - ts[k - 1]), 1e-2, j_sign).p
                assert (z[k], v[k]) == (cur.z, cur.v)
            assert not warned
        T = period(STD)
        assert flow_numeric_rows(STD, shell_tangent(STD), [0.0, 1.0], 0.02 * T)[2]

    def test_step_warning(self):
        p = shell_tangent(STD)
        T = period(STD)
        assert flow_numeric(STD, p, 1.0, 0.02 * T).step_warning
        assert not flow_numeric(STD, p, 1.0, 0.005 * T).step_warning

    def test_rejects_bad_step_and_off_shell(self):
        with pytest.raises(ValueError):
            flow_numeric(STD, shell_tangent(STD), 1.0, 0.0)
        with pytest.raises(ValueError, match="off energy shell"):
            flow_numeric(STD, Tangent(1j, 3j), 1.0, 1e-3)

    def test_step_budget(self, monkeypatch):
        p = shell_tangent(STD)
        with pytest.raises(ValueError, match=r"^about 1e\+303 RK4 steps needed for t=1e\+300 "
                                             r"at dt=0.001; the limit is 10000000$"):
            flow_numeric(STD, p, 1e300, 1e-3)
        with pytest.raises(ValueError, match=r"^about 1e\+07 RK4 steps needed for t=-10.00001 "
                                             r"at dt=1e-06;"):
            flow_numeric(STD, p, -10.00001, 1e-6)
        # the limit itself is allowed: 100 steps run where 101 are refused
        monkeypatch.setattr(flow, "_MAX_STEPS", 100)
        assert flow_numeric(STD, p, 1.0, 0.01).p == flow_numeric(STD, p, 1.0, 0.01 + 1e-16).p
        with pytest.raises(ValueError, match=r"^about 101 RK4 steps needed for t=1.01 at dt=0.01; "
                                             r"the limit is 100$"):
            flow_numeric(STD, p, 1.01, 0.01)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_time_or_step_rejected(self, x):
        p = shell_tangent(STD)
        with pytest.raises(ValueError, match=rf"^flow time must be finite, got {x!r}$"):
            flow_numeric(STD, p, x, 1e-3)
        with pytest.raises(ValueError, match=rf"^step size must be positive and finite, got {x!r}$"):
            flow_numeric(STD, p, 1.0, x)


class TestPeriod:
    def test_known_values(self):
        assert period(MagneticConfig(1.0, 0.0)) == pytest.approx(2.0 * math.pi)
        assert period(STD) == pytest.approx(2.0 * math.pi * math.sqrt(2.0))
        assert period(MagneticConfig(2.0, 1.0)) == pytest.approx(math.pi * math.sqrt(2.0))

    def test_rejects_critical_and_above(self):
        for E in (0.5, 0.8):
            with pytest.raises(ValueError, match="no period at or above critical energy"):
                period(MagneticConfig(1.0, E))


class TestLyapunov:
    def test_subcritical_vanishes(self):
        assert abs(lyapunov_exponent(STD, 3e4)) < 1.0 / 3e4

    def test_critical_vanishes_polynomially(self):
        # nilpotent generator: growth is polynomial, rate O(log t / t)
        assert abs(lyapunov_exponent(MagneticConfig(1.0, 0.5), 3e4)) < 1e-3

    def test_supercritical_rate(self):
        got = lyapunov_exponent(MagneticConfig(1.0, 1.0), 1e4)
        assert abs(got - 0.5) < 1e-3

    def test_matches_eigenvalue_for_random_supercritical(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            B = rng.uniform(0.5, 2.0)
            cfg = MagneticConfig(B, rng.uniform(0.6, 3.0) * B * B)
            want = 0.5 * math.sqrt(2.0 * cfg.E - B * B)
            assert abs(lyapunov_exponent(cfg, 1e4) - want) < 1e-3 * max(1.0, want)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            lyapunov_exponent(STD, 0.0)

    @pytest.mark.parametrize("t_max", [math.inf, math.nan])
    def test_rejects_non_finite_horizon(self, t_max):
        with pytest.raises(ValueError, match=rf"^t_max must be positive and finite, got {t_max!r}$"):
            lyapunov_exponent(STD, t_max)

    def test_step_budget(self, monkeypatch):
        with pytest.raises(ValueError, match=r"^about 1e\+300 unit-time products needed for "
                                             r"t_max=1e\+300; the limit is 10000000$"):
            lyapunov_exponent(STD, 1e300)
        with pytest.raises(ValueError, match=r"^about 1e\+07 unit-time products needed for "
                                             r"t_max=10000001.0;"):
            lyapunov_exponent(STD, 1e7 + 1.0)
        # int(t_max) products: 100.9 takes the limit of 100, 101 is refused
        monkeypatch.setattr(flow, "_MAX_STEPS", 100)
        assert lyapunov_exponent(STD, 100.9) == lyapunov_exponent(STD, 100.0)
        with pytest.raises(ValueError, match=r"^about 101 unit-time products needed for "
                                             r"t_max=101.0; "):
            lyapunov_exponent(STD, 101.0)


class TestVariationCoeffs:
    def test_initial_conditions(self):
        for cfg in (STD, MagneticConfig(1.0, 0.5), MagneticConfig(1.0, 2.0)):
            a, b, c = variation_coeffs(cfg, 0.0)
            assert (a, b, c) == (0.0, 0.0, 1.0)

    def test_half_period_values(self):
        T = period(STD)
        a, b, _ = variation_coeffs(STD, 0.5 * T)
        assert abs(b) < 1e-12
        # a(T/2) = -2B/(B^2 - 2E) = -4 at B=1, E=0.25
        assert a == pytest.approx(-4.0, abs=1e-12)

    def test_quarter_period_b(self):
        T = period(STD)
        _, b, _ = variation_coeffs(STD, 0.25 * T)
        assert b == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_critical_b_is_linear(self):
        cfg = MagneticConfig(1.0, 0.5)
        for t in (0.3, 1.0, 4.7):
            a, b, c = variation_coeffs(cfg, t)
            assert b == pytest.approx(t, rel=1e-14)
            assert a == pytest.approx(-0.5 * t * t, rel=1e-13)
            assert c == pytest.approx(1.0 + 0.5 * t * t, rel=1e-13)

    def test_continuous_across_critical_energy(self):
        for s in (1.0, -1.0):
            Eout = 0.5 * (1.0 - s * 1.0001e-8)
            Ein = 0.5 * (1.0 - s * 0.9999e-8)
            out = variation_coeffs(MagneticConfig(1.0, Eout), 2.3)
            ins = variation_coeffs(MagneticConfig(1.0, Ein), 2.3)
            for x, y in zip(out, ins):
                assert x == pytest.approx(y, rel=1e-8, abs=1e-10)

    def test_ode_residual(self):
        # b'' = (2E - B^2) b via central differences, random configs
        rng = np.random.default_rng(8)
        for _ in range(30):
            cfg = MagneticConfig(rng.uniform(0.2, 2.0), rng.uniform(0.0, 3.0))
            t, h = rng.uniform(0.2, 3.0), 1e-4
            bm = variation_coeffs(cfg, t - h).b
            b0 = variation_coeffs(cfg, t).b
            bp = variation_coeffs(cfg, t + h).b
            dd = (bp - 2.0 * b0 + bm) / (h * h)
            assert dd == pytest.approx(-cfg.discriminant * b0, abs=1e-4)

    def test_overflow_at_critical_energy_is_refused(self):
        # S = t at E_c, so S^2 leaves float range once |t| passes 1.3e154
        cfg = MagneticConfig(1.0, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (1e200, np.array([1.0, -1e155])):
                with pytest.raises(ValueError, match=r"overflow at B=1.0, E=0.5, t=1e\+(200|155)"):
                    variation_coeffs(cfg, t)
            assert variation_coeffs(cfg, 1e150).a == -0.5 * 1e150 * 1e150

    def test_matches_regime_formulas(self):
        # the per-regime forms b = sin(gt)/g, int b = (1 - cos gt)/g^2 (and
        # sinh, cosh - 1 above E_c; t, t^2/2 at E_c) as an independent oracle
        rng = np.random.default_rng(21)
        for _ in range(40):
            B = rng.uniform(0.3, 2.0)
            cfgs = (
                MagneticConfig(B, rng.uniform(0.05, 0.45) * B * B),
                MagneticConfig(B, 0.5 * B * B),
                MagneticConfig(B, rng.uniform(0.55, 3.0) * B * B),
            )
            for cfg in cfgs:
                t = rng.uniform(0.5, 5.0)
                g = cfg.gamma
                if cfg.regime is Regime.SUBCRITICAL:
                    b, ib = math.sin(g * t) / g, (1.0 - math.cos(g * t)) / (g * g)
                elif cfg.regime is Regime.CRITICAL:
                    b, ib = t, 0.5 * t * t
                else:
                    b, ib = math.sinh(g * t) / g, (math.cosh(g * t) - 1.0) / (g * g)
                got = variation_coeffs(cfg, t)
                assert got.b == pytest.approx(b, rel=1e-12, abs=1e-15)
                assert got.a == pytest.approx(-cfg.B * ib, rel=1e-12)
                assert got.c == pytest.approx(1.0 + 2.0 * cfg.E * ib, rel=1e-12)


def mp_exp_scalars(w, t):
    """(C, S) of exp(tF) over an array of times t in 50-digit arithmetic,
    from the float discriminant w = B^2 - 2E != 0 taken as exact."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        w = mp.mpf(w)
        g = mp.sqrt(abs(w))
        cs, sn = (mp.cos, mp.sin) if w > 0 else (mp.cosh, mp.sinh)
        pairs = [(float(cs(g * x / 2)), float(2 * sn(g * x / 2) / g)) for x in t.tolist()]
    return np.array(pairs).T


class TestExpScalars:
    CONFIGS = (
        STD,
        MagneticConfig(1.0, 0.5),
        MagneticConfig(1.0, 2.0),
        # next to the critical point on both sides
        MagneticConfig(1.0, 0.5 * (1.0 - 4e-9)),
        MagneticConfig(1.0, 0.5 * (1.0 + 4e-9)),
    )
    # 28 configs next to E_c, from 3e-16 to 4e-9 of it on both sides
    NEAR_CRITICAL = [MagneticConfig(B, 0.5 * B * B * (1.0 + s))
                     for B in (1e-3, 0.7, 1.0, 2.5)
                     for s in (-4e-9, -3e-11, -3e-16, 3e-16, 2e-13, 3e-11, 4e-9)]

    def test_array_matches_float_calls(self):
        rng = np.random.default_rng(22)
        base = np.concatenate([rng.uniform(-20.0, 20.0, 60), [0.0, 1e-3]])
        for cfg in self.CONFIGS:
            t = base
            if 0.0 < abs(cfg.discriminant) < 1e-8:
                # long times next to E_c, and below it the times around the
                # zero of C near t = pi / gamma
                t_zero = math.pi / cfg.gamma
                t = np.concatenate([base, [3e4, -3.0 * t_zero],
                                    t_zero + rng.uniform(-1.0, 1.0, 40)])
            C, S = _exp_scalars(cfg, t)
            assert C.shape == S.shape == t.shape
            # one kernel: a float time, or a one-element array, runs the
            # array arithmetic to the bit
            for k, x in enumerate(t.tolist()):
                c, s = _exp_scalars(cfg, x)
                assert isinstance(c, float) and isinstance(s, float)
                assert (c, s) == (C[k], S[k]) == _exp_scalars(cfg, np.array([x]))

    def test_overflow_names_the_config(self):
        cfg = MagneticConfig(1.0, 1e6)
        for t in (10.0, np.array([0.0, -10.0])):
            with pytest.raises(ValueError, match=r"overflows at B=1.0, E=1000000.0, t=10.0"):
                _exp_scalars(cfg, t)
        C, S = _exp_scalars(cfg, 0.2)
        assert math.isfinite(C) and math.isfinite(S)

    def test_near_critical_cancellation(self):
        # q = (2E - B^2) t^2 / 4 = -490: a power series in q, summed until it
        # converges, misses cos(gamma t / 2) by 3.8e-8 relative through
        # cancellation
        cfg = MagneticConfig(1.0, 0.5 - 2e-9)
        t = 7e5
        h = 0.5 * cfg.gamma * t
        for C, S in (_exp_scalars(cfg, t), (float(v[0]) for v in _exp_scalars(cfg, np.array([t])))):
            assert abs(C / math.cos(h) - 1.0) < 1e-12
            assert abs(S / (2.0 * math.sin(h) / cfg.gamma) - 1.0) < 1e-12

    def test_long_near_critical_times_take_the_closed_form(self):
        # just off E_c, long times (|q| = 9000) read cos/sin below E_c and
        # cosh/sinh above it
        for E, c, s in ((0.5 - 2e-9, math.cos, math.sin), (0.5 + 2e-9, math.cosh, math.sinh)):
            cfg = MagneticConfig(1.0, E)
            g = cfg.gamma
            C, S = _exp_scalars(cfg, 3e6)
            assert abs(C / c(0.5 * g * 3e6) - 1.0) < 1e-12
            assert abs(S / (2.0 * s(0.5 * g * 3e6) / g) - 1.0) < 1e-12
            Ca, Sa = _exp_scalars(cfg, np.array([1.0, -3e6]))
            assert (Ca[0], Sa[0]) == _exp_scalars(cfg, 1.0)
            assert Ca[1] == pytest.approx(C, rel=1e-14)
            assert Sa[1] == pytest.approx(-S, rel=1e-14)

    def test_near_critical_overflow_names_the_config(self):
        # above E_c a long time overflows like any supercritical exp(tF);
        # below it the trig form stays bounded; an infinite time is refused,
        # at E_c too
        with pytest.raises(ValueError, match=r"exp\(tF\) overflows at B=1.0, E=0.500000002, t=1000000000.0"):
            _exp_scalars(MagneticConfig(1.0, 0.5 + 2e-9), 1e9)
        C, S = _exp_scalars(MagneticConfig(1.0, 0.5 - 2e-9), 1e9)
        assert abs(C) <= 1.0 and math.isfinite(S)
        with pytest.raises(ValueError, match=r"exp\(tF\) needs a finite time at B=1.0, E=0.5, t=inf"):
            _exp_scalars(MagneticConfig(1.0, 0.5), math.inf)

    def test_weak_field_next_to_critical_takes_short_times(self):
        # 1/gamma is near 1e158 here, so bounding the entries by
        # e^|h| (1 + lam) / gamma alone would refuse even t = 0
        cfg = MagneticConfig(1e-150, 0.5e-300 * (1.0 + 2.0**-50))
        assert 0.0 < -cfg.discriminant < 1e-314
        for t in (0.0, 1.0, -1e10, np.array([0.0, 1.0, -1e10])):
            C, S = _exp_scalars(cfg, t)
            np.testing.assert_allclose(C, 1.0, rtol=1e-15)
            np.testing.assert_allclose(S, t, rtol=1e-15)
        with pytest.raises(ValueError, match=r"exp\(tF\) overflows at B=1e-150, .* t=1e\+160"):
            _exp_scalars(cfg, 1e160)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_time_is_named(self, t):
        for cfg in self.CONFIGS:
            with pytest.raises(ValueError, match=rf"needs a finite time at B=1.0, E={cfg.E!r}, t={abs(t)!r}"):
                _exp_scalars(cfg, np.array([0.0, t, 1.0]))
            with pytest.raises(ValueError, match=rf"needs a finite time at B=1.0, E={cfg.E!r}, t={t!r}"):
                _exp_scalars(cfg, t)

    def test_near_critical_matches_mpmath(self):
        # times from 1e-3 to 30 / gamma, three times as far as |q| = 25
        # (gamma t / 2 = 15); C is scaled by max(1, |C|) and S by its bound
        # |t| max(1, |C|), in an array call and in float calls
        for cfg in self.NEAR_CRITICAL:
            t = np.concatenate([[0.0, 1e-3, 0.5, 1.0, 7.0], np.linspace(-30.0, 30.0, 41) / cfg.gamma])
            C_ref, S_ref = mp_exp_scalars(cfg.discriminant, t)
            amp = np.maximum(1.0, np.abs(C_ref))
            for C, S in (_exp_scalars(cfg, t), np.array([_exp_scalars(cfg, x) for x in t.tolist()]).T):
                assert np.all(np.abs(C - C_ref) <= 4e-15 * amp)
                assert np.all(np.abs(S - S_ref) <= 4e-15 * np.abs(t) * amp)

    @pytest.mark.parametrize("B,E", [(1.0, 0.25), (2.0, 0.5), (1.0, 0.49), (1.0, 1e-6), (0.7, 0.1)])
    def test_half_angle_form_matches_mpmath(self, B, E):
        # an array t below E_c takes (C, S) from u = tan(gamma t / 4), whose
        # poles sit at odd multiples of T_E.  With the float gamma and t taken
        # as exact, the error of C and of (gamma/2) S is the rounding of the
        # argument h = gamma t / 2 (2.8e-14 at B = 1, E = 0.25), as it is for
        # cos and sin of h; it may exceed theirs by one unit in the last
        # place of 1.  At the rounded h itself, it is at most two such units
        # (numpy's cos and sin read at most half of one).
        mp = pytest.importorskip("mpmath")
        cfg = MagneticConfig(B, E)
        g, T = cfg.gamma, period(cfg)
        rng = np.random.default_rng(17)
        t = np.concatenate([rng.uniform(0.0, 1000.0, 2000), np.arange(40) * T,
                            np.nextafter(T, [0.0, 2.0 * T]),
                            T * (1.0 + np.arange(-4, 5) * 2.0**-52)])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            C, S = _exp_scalars(cfg, t)
        assert np.isfinite(C).all() and np.isfinite(S).all()
        h = 0.5 * g * t
        eps = np.finfo(float).eps
        with mp.workdps(40):
            exact = [mp.mpf(g) * x / 2 for x in t.tolist()]
            rounded = [mp.mpf(x) for x in h.tolist()]
            cos_exact, sin_exact, cos_h, sin_h = (np.array([float(f(x)) for x in args])
                                                  for args in (exact, rounded)
                                                  for f in (mp.cos, mp.sin))
        for got, trig, ref, at_h in ((C, np.cos(h), cos_exact, cos_h),
                                     (0.5 * g * S, np.sin(h), sin_exact, sin_h)):
            err = np.max(np.abs(got - ref))
            assert err <= np.max(np.abs(trig - ref)) + eps
            assert err <= np.spacing(h.max())
            assert np.max(np.abs(got - at_h)) <= 2.0 * eps
