"""Half-plane geometry: Moebius action, distance, fiber rotation, frames."""

import cmath
import math

import numpy as np
import pytest

from magflow import (
    Moebius,
    Tangent,
    frame_of,
    from_disk,
    hyp_dist,
    hyp_norm,
    mobius_apply,
    rotate_fiber,
    rotation_about_i,
    to_disk,
)
from magflow.halfplane import hyp_dist_vec


def random_moebius(rng, scale=1.0):
    """Random group element via a rotation-stretch-rotation decomposition."""
    g = rotation_about_i(rng.uniform(0.0, 2.0 * math.pi))
    s = math.exp(rng.uniform(-scale, scale))
    g = g @ Moebius(s, 0.0, 0.0, 1.0 / s)
    return g @ rotation_about_i(rng.uniform(0.0, 2.0 * math.pi))


def random_point(rng, spread=1.0):
    return complex(rng.uniform(-spread, spread), math.exp(rng.uniform(-spread, spread)))


class TestMoebius:
    def test_identity_is_neutral(self):
        e = Moebius.identity()
        g = Moebius(2.0, 1.0, 1.0, 1.0)
        assert (e @ g).close_to(g, 1e-15)
        assert (g @ e).close_to(g, 1e-15)

    def test_constructor_renormalizes(self):
        g = Moebius(3.0, 0.0, 0.0, 3.0)
        assert abs(g.det - 1.0) < 1e-15
        assert g.a == pytest.approx(1.0)

    def test_nonpositive_det_rejected(self):
        with pytest.raises(ValueError):
            Moebius(1.0, 2.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            Moebius(0.0, 1.0, 1.0, 0.0)

    def test_sign_normalization(self):
        g = Moebius(-1.0, 0.5, -0.5, -1.25)
        assert g.a > 0.0
        h = Moebius(0.0, -2.0, 0.5, 0.0)
        assert h.a == 0.0 and h.b > 0.0

    def test_equality_up_to_sign(self):
        g = Moebius(2.0, 1.0, 1.0, 1.0)
        h = Moebius(-2.0, -1.0, -1.0, -1.0)
        assert g.close_to(h)
        assert g == h  # sign normalization makes stored entries equal

    def test_inverse(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            g = random_moebius(rng)
            assert (g @ g.inv()).close_to(Moebius.identity(), 1e-12)

    def test_det_stable_over_million_products(self):
        # two regimes share the 10^6-product budget: long chains of
        # near-identity factors, where drift would accumulate if the
        # renormalization policy failed, and short chains of moderate
        # factors, whose entries reach ~10^3 and stress the ad - bc
        # cancellation
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(3200):
            g = Moebius.identity()
            for _ in range(250):
                b = rng.uniform(-0.02, 0.02)
                c = rng.uniform(-0.02, 0.02)
                a = 1.0 + rng.uniform(-0.02, 0.02)
                g = g @ Moebius(a, b, c, (1.0 + b * c) / a)
            worst = max(worst, abs(g.det - 1.0))
        for _ in range(10000):
            g = Moebius.identity()
            for _ in range(20):
                b = rng.uniform(-1.0, 1.0)
                c = rng.uniform(-1.0, 1.0)
                a = math.exp(rng.uniform(-0.5, 0.5))
                g = g @ Moebius(a, b, c, (1.0 + b * c) / a)
            worst = max(worst, abs(g.det - 1.0))
        assert worst < 1e-9


class TestMobiusApply:
    def test_identity_fixes_base_tangent(self):
        p = mobius_apply(Moebius.identity(), Tangent(1j, 1j))
        assert p.z == 1j and p.v == 1j

    def test_diagonal_scaling(self):
        r = math.sqrt(2.0)
        g = Moebius(r, 0.0, 0.0, 1.0 / r)
        p = mobius_apply(g, Tangent(1j, 1j))
        assert p.z == pytest.approx(2j)
        assert p.v == pytest.approx(2j)

    def test_hyperbolic_norm_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            g = random_moebius(rng, scale=2.0)
            p = Tangent(random_point(rng), complex(rng.normal(), rng.normal()))
            q = mobius_apply(g, p)
            assert q.z.imag > 0.0
            assert abs(hyp_norm(q) - hyp_norm(p)) < 1e-10

    def test_composition_matches_sequential_action(self):
        rng = np.random.default_rng(13)
        p = Tangent(0.3 + 0.8j, 0.5 - 0.2j)
        for _ in range(100):
            g, h = random_moebius(rng), random_moebius(rng)
            q1 = mobius_apply(g @ h, p)
            q2 = mobius_apply(g, mobius_apply(h, p))
            assert abs(q1.z - q2.z) < 1e-12
            assert abs(q1.v - q2.v) < 1e-12


class TestHypDist:
    def test_coincident_points(self):
        assert hyp_dist(1j, 1j) == 0.0

    def test_small_distances_keep_relative_accuracy(self):
        # arccosh(1 + x) rounds x away below about 1e-8; both forms must not
        assert hyp_dist(1j, complex(1e-9, 1.0)) == pytest.approx(1e-9, rel=1e-12)
        assert hyp_dist(1j, 1j * (1.0 + 1e-9)) == pytest.approx(math.log1p(1e-9), rel=1e-12)
        assert hyp_dist(2j, complex(1e-6, 2.0)) == pytest.approx(
            2.0 * math.asinh(0.25e-6), rel=1e-12)
        got = hyp_dist_vec(np.array([complex(1e-9, 1.0), complex(1e-6, 2.0)]), np.array([1j, 2j]))
        np.testing.assert_allclose(got, [1e-9, 2.0 * math.asinh(0.25e-6)], rtol=1e-12)

    def test_imaginary_axis(self):
        # along the vertical geodesic the distance is the log of the ratio
        assert hyp_dist(1j, 2j) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_half_period_footpoint_distance(self):
        B = 1.0
        lam = math.sqrt(0.5)
        z = (2.0 * lam * B + 1j * (B * B - lam * lam)) / (lam * lam + B * B)
        assert hyp_dist(1j, z) == pytest.approx(math.acosh(3.0), abs=1e-12)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            z, w, u = (random_point(rng, 2.0) for _ in range(3))
            assert hyp_dist(z, w) == pytest.approx(hyp_dist(w, z), abs=1e-13)
            assert hyp_dist(z, u) <= hyp_dist(z, w) + hyp_dist(w, u) + 1e-12

    def test_invariant_under_mobius(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            g = random_moebius(rng, scale=2.0)
            z, w = random_point(rng, 2.0), random_point(rng, 2.0)
            assert abs(hyp_dist(g.apply(z), g.apply(w)) - hyp_dist(z, w)) < 1e-10


class TestRotateFiber:
    def test_zero_angle(self):
        p = Tangent(0.2 + 1.5j, 0.4 + 0.1j)
        q = rotate_fiber(p, 0.0)
        assert q.z == p.z and q.v == p.v

    def test_full_turn(self):
        p = Tangent(0.2 + 1.5j, 0.4 + 0.1j)
        q = rotate_fiber(p, 2.0 * math.pi)
        assert abs(q.v - p.v) < 1e-12

    def test_quarter_turn_at_base(self):
        q = rotate_fiber(Tangent(1j, 1j), 0.5 * math.pi)
        assert q.z == 1j
        assert q.v == pytest.approx(-1.0 + 0j, abs=1e-15)

    def test_preserves_norm(self):
        p = Tangent(0.7 + 0.4j, -0.3 + 0.9j)
        q = rotate_fiber(p, 1.234)
        assert hyp_norm(q) == pytest.approx(hyp_norm(p), abs=1e-14)


class TestFrameOf:
    def test_base_tangent_gives_identity(self):
        assert frame_of(Tangent(1j, 1j)).close_to(Moebius.identity(), 1e-12)

    def test_scaled_axis_point(self):
        g = frame_of(Tangent(2j, 2j))
        r = math.sqrt(2.0)
        assert g.close_to(Moebius(r, 0.0, 0.0, 1.0 / r), 1e-12)

    def test_round_trip_up_to_sign(self):
        rng = np.random.default_rng(23)
        base = Tangent(1j, 1j)
        for _ in range(1000):
            g = random_moebius(rng, scale=2.0)
            assert frame_of(mobius_apply(g, base)).close_to(g, 1e-9)

    def test_inverse_of_orbit_map(self):
        p = Tangent(1.5 + 0.25j, complex(0.25 * math.cos(2.0), 0.25 * math.sin(2.0)))
        q = mobius_apply(frame_of(p), Tangent(1j, 1j))
        assert abs(q.z - p.z) < 1e-12
        assert abs(q.v - p.v) < 1e-12

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="non-unit tangent"):
            frame_of(Tangent(1j, 2j))


class TestDiskMap:
    def test_center_and_round_trip(self):
        assert to_disk(1j) == 0.0
        rng = np.random.default_rng(3)
        z = np.array([random_point(rng, 2.0) for _ in range(100)])
        w = to_disk(z)
        assert np.all(np.abs(w) < 1.0)
        assert np.max(np.abs(from_disk(w) - z)) < 1e-12

    def test_rotation_about_i_spins_disk(self):
        g = rotation_about_i(0.7)
        z = 0.4 + 1.1j
        got = to_disk(g.apply(z))
        want = cmath.exp(0.7j) * to_disk(z)
        assert abs(got - want) < 1e-12
