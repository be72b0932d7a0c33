"""Half-plane geometry: Moebius action, distance, frames."""

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
    to_disk,
)
from magflow import halfplane
from magflow.halfplane import _disk_blocks, hyp_dist_vec


def mobius_apply(g, p):
    """The reference action of g on a tangent: ((az+b)/(cz+d), v/(cz+d)^2)."""
    w = g.c * p.z + g.d
    return Tangent((g.a * p.z + g.b) / w, p.v / (w * w))


def rotation(angle):
    """The isometry fixing i whose derivative at i is multiplication by
    e^{i angle}, as a Moebius element."""
    h = 0.5 * angle
    return Moebius(math.cos(h), math.sin(h), -math.sin(h), math.cos(h))


def random_moebius(rng, scale=1.0):
    """Random group element via a rotation-stretch-rotation decomposition."""
    g = rotation(rng.uniform(0.0, 2.0 * math.pi))
    s = math.exp(rng.uniform(-scale, scale))
    g = g @ Moebius(s, 0.0, 0.0, 1.0 / s)
    return g @ rotation(rng.uniform(0.0, 2.0 * math.pi))


def moebius_frame(p):
    """The frame as frame_of built it from Moebius objects: the translate
    times the rotation by phase(v) - pi/2, each factor and the product
    renormalized and stored with the Moebius sign (a > 0, or a = 0 < b)."""
    h = 0.5 * (cmath.phase(p.v) - 0.5 * math.pi)
    ry = math.sqrt(p.z.imag)
    translate = Moebius(ry, p.z.real / ry, 0.0, 1.0 / ry)
    return translate @ Moebius(math.cos(h), math.sin(h), -math.sin(h), math.cos(h))


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
        # cancellation.  Each regime draws its uniforms as one array, in the
        # order of one scalar draw per (b, c, a) of each factor; only the
        # products are scalar.
        rng = np.random.default_rng(2)
        worst = 0.0
        for chain in rng.uniform(-0.02, 0.02, size=(3200, 250, 3)).tolist():
            g = Moebius.identity()
            for b, c, u in chain:
                a = 1.0 + u
                g = g @ Moebius(a, b, c, (1.0 + b * c) / a)
            worst = max(worst, abs(g.det - 1.0))
        draws = rng.uniform([-1.0, -1.0, -0.5], [1.0, 1.0, 0.5], size=(10000, 20, 3))
        for chain in draws.tolist():
            g = Moebius.identity()
            for b, c, u in chain:
                a = math.exp(u)
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


def bits(x):
    """The bytes of x as complex128: equal only for the same bits, signed zeros included."""
    return np.asarray(x, dtype=complex).tobytes()


class TestAct:
    """halfplane._act, the one action on points, against Moebius.apply and the formula."""

    @staticmethod
    def formula(a, b, c, d, z):
        return (a * z + b) / (c * z + d)

    def test_scalars_match_moebius_apply_bitwise(self):
        rng = np.random.default_rng(41)
        for _ in range(500):
            g = random_moebius(rng, scale=2.0)
            # points in the upper half-plane, below it, and real ones as complex and as float
            x = float(rng.normal())
            for z in (random_point(rng), random_point(rng).conjugate(), complex(x, 0.0), x):
                got, w = halfplane._act(g.entries(), z)
                assert type(got) is type(g.apply(z)) and bits(got) == bits(g.apply(z))
                assert bits(w) == bits(g.c * z + g.d)

    def test_entry_array_against_points_matches_formula_bitwise(self):
        rng = np.random.default_rng(42)
        g = np.array([random_moebius(rng, scale=2.0).entries() for _ in range(300)]).T
        z = np.array([random_point(rng) for _ in range(300)])
        z[::3] = z[::3].conjugate()
        got, w = halfplane._act(g, z)
        assert got.shape == w.shape == (300,)
        assert bits(got) == bits([self.formula(*g[:, k], z[k]) for k in range(300)])
        assert bits(w) == bits(g[2] * z + g[3])

    def test_one_row_against_points_matches_formula_bitwise(self):
        rng = np.random.default_rng(43)
        row = np.array(random_moebius(rng, scale=2.0).entries())
        z = np.array([random_point(rng) for _ in range(35)]).reshape(5, 7)
        got, w = halfplane._act(row, z)
        assert got.shape == w.shape == (5, 7)
        assert bits(got) == bits([[self.formula(*row, zk) for zk in zr] for zr in z])
        assert bits(w) == bits(row[2] * z + row[3])

    def test_cosh_displacement_is_cosh_of_the_distance_moved(self):
        rng = np.random.default_rng(44)
        gs = [random_moebius(rng, scale=3.0) for _ in range(200)]
        want = [math.cosh(hyp_dist(1j, g.apply(1j))) for g in gs]
        got = halfplane._cosh_displacement(np.array([g.entries() for g in gs]).T)
        assert got.shape == (200,)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        assert halfplane._cosh_displacement(gs[0].entries()) == got[0]


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


class TestFrameOf:
    def test_base_tangent_gives_identity(self):
        assert Moebius(*frame_of(Tangent(1j, 1j))).close_to(Moebius.identity(), 1e-12)

    def test_scaled_axis_point(self):
        g = frame_of(Tangent(2j, 2j))
        r = math.sqrt(2.0)
        assert Moebius(*g).close_to(Moebius(r, 0.0, 0.0, 1.0 / r), 1e-12)

    def test_round_trip_up_to_sign(self):
        rng = np.random.default_rng(23)
        base = Tangent(1j, 1j)
        for _ in range(1000):
            g = random_moebius(rng, scale=2.0)
            assert Moebius(*frame_of(mobius_apply(g, base))).close_to(g, 1e-9)

    def test_inverse_of_orbit_map(self):
        p = Tangent(1.5 + 0.25j, complex(0.25 * math.cos(2.0), 0.25 * math.sin(2.0)))
        q = mobius_apply(Moebius(*frame_of(p)), Tangent(1j, 1j))
        assert abs(q.z - p.z) < 1e-12
        assert abs(q.v - p.v) < 1e-12

    def test_is_the_moebius_construction_up_to_one_sign(self):
        # the entries of the Moebius frame bit for bit, or all four negated,
        # and the Moebius sign rule applied to them gives the Moebius frame;
        # directions in the third quadrant have cos h < 0, where the Moebius
        # constructor flipped the rotation's sign before the product
        rng = np.random.default_rng(37)
        n = 12_000
        z = rng.uniform(-3.0, 3.0, n) + 1j * np.exp(rng.uniform(-3.0, 3.0, n))
        ang = np.concatenate([rng.uniform(-math.pi, math.pi, n - 2000),
                              rng.uniform(-math.pi, -0.5 * math.pi, 2000)])
        negated = flipped_rotations = 0
        for zk, ak in zip(z.tolist(), ang.tolist()):
            p = Tangent(zk, zk.imag * complex(math.cos(ak), math.sin(ak)))
            got, want = frame_of(p), moebius_frame(p).entries()
            a, b = got[:2]
            signed = tuple(-x for x in got) if a < 0.0 or (a == 0.0 and b < 0.0) else got
            assert signed == want, (p, got, want)
            negated += got != want
            flipped_rotations += math.cos(0.5 * (cmath.phase(p.v) - 0.5 * math.pi)) < 0.0
        assert 0 < negated < n and flipped_rotations >= 2000

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="non-unit tangent"):
            frame_of(Tangent(1j, 2j))

    # numpy may warn on the way to the refusal
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("z, v", [(complex(math.nan, 1.0), 1j), (complex(math.inf, 1.0), 1j),
                                      (1j, complex(math.nan, 1.0))])
    def test_rejects_non_finite(self, z, v):
        with pytest.raises(ValueError, match="tangent is not finite"):
            frame_of(Tangent(z, v))


class TestDiskMap:
    def test_center_and_round_trip(self):
        assert to_disk(1j) == 0.0
        rng = np.random.default_rng(3)
        z = np.array([random_point(rng, 2.0) for _ in range(100)])
        w = to_disk(z)
        assert np.all(np.abs(w) < 1.0)
        assert np.max(np.abs(from_disk(w) - z)) < 1e-12

    def test_frame_at_i_spins_disk(self):
        # the frame of the tangent at i turned by 0.7 from (i, i) is the
        # rotation about i by 0.7
        g = Moebius(*frame_of(Tangent(1j, 1j * cmath.exp(0.7j))))
        z = 0.4 + 1.1j
        got = to_disk(g.apply(z))
        want = cmath.exp(0.7j) * to_disk(z)
        assert abs(got - want) < 1e-12


class TestDiskBlocks:
    @pytest.mark.parametrize("cells, sizes", [
        (1 << 14, [61]), (61, [1] * 61), (3 * 61 + 5, [3] * 20 + [1]), (1, [1] * 61)])
    def test_blocks_tile_the_whole_grid_bit_for_bit(self, monkeypatch, cells, sizes):
        monkeypatch.setattr(halfplane, "_GRID_CELLS", cells)
        xs = np.linspace(-0.95, 0.95, 61)
        blocks = list(_disk_blocks(xs, 0.9))
        assert [lo for lo, *_ in blocks] == np.cumsum([0] + sizes[:-1]).tolist()
        assert [len(u) for _, u, _, _ in blocks] == sizes
        u = xs[None, :] + 1j * xs[:, None]
        inside = np.abs(u) < 0.9
        z = np.where(inside, from_disk(np.where(inside, u, 0.0)), 1j)
        got_u, got_inside, got_z = (np.concatenate([b[k] for b in blocks]) for k in (1, 2, 3))
        assert np.array_equal(got_inside, inside)
        for got, want in ((got_u, u), (got_z, z)):
            assert got.tobytes() == want.tobytes()  # signed zeros included
