"""Bolza surface: group integrity, reduction, translate enumeration,
surface density, and the critical-energy time average."""

import hashlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from magflow import (
    Flag,
    MagneticConfig,
    Tangent,
    alpha_radial,
    area_average,
    birkhoff_average,
    bolza_group,
    density_cover_many,
    density_surface,
    density_surface_many,
    hyp_dist,
    octagon_area,
    period,
    preimages_cover,
    radius,
    reduce_point,
    relation_residual,
    translates_meeting_disk,
)
from magflow import halfplane, surface
from magflow.flow import _exp_entries, _exp_scalars, _shell_frame
from magflow.halfplane import Moebius, _framed, frame_of, from_disk, hyp_dist_vec
from magflow.surface import (
    ENUM_CAP,
    _descend_many,
    in_domain_mask,
    require_chern,
    word_element,
)

STD = MagneticConfig(1.0, 0.25)
GROUP = bolza_group()
IDENTITY = [1.0, 0.0, 0.0, 1.0]


def _apply(g, z):
    """The action z -> (a z + b) / (c z + d) of an entry row (a, b, c, d),
    in Python floats, so on a complex scalar it rounds as Moebius.apply did."""
    a, b, c, d = np.asarray(g, dtype=float).tolist()
    return (a * z + b) / (c * z + d)


def _descend(generators, z):
    """The scalar fold the library used before _descend_many, kept as its
    oracle: greedy steepest descent of d(., i) over generator moves, each
    candidate measured with hyp_dist.  Returns the representative and the
    applied index word."""
    word = []
    d0 = hyp_dist(z, 1j)
    for _ in range(surface._MAX_STEPS):
        best = -1
        best_d = d0 - surface._DESCENT_EPS
        for idx, g in enumerate(generators):
            dd = hyp_dist(_apply(g, z), 1j)
            if dd < best_d:
                best = idx
                best_d = dd
        if best < 0:
            return z, word
        z = _apply(generators[best], z)
        d0 = hyp_dist(z, 1j)
        word.append(best)
    raise ValueError("reduction failed")


def _moebius_word(word):
    """The product word_element formed before the entry arrays, kept as its
    oracle: a Moebius chain from the identity, each product of a generator
    row and the chain renormalized and sign-flipped by the Moebius
    constructor (word[0] acts first)."""
    m = Moebius.identity()
    for k in word:
        ga, gb, gc, gd = GROUP.generators[k].tolist()
        m = Moebius(ga * m.a + gb * m.c, ga * m.b + gb * m.d,
                    gc * m.a + gd * m.c, gc * m.b + gd * m.d)
    return m


def _rotation(angle):
    """The Moebius element fixing i whose derivative at i is e^{i angle}."""
    h = 0.5 * angle
    return Moebius(math.cos(h), math.sin(h), -math.sin(h), math.cos(h))


def _old_sign(rows):
    """Entry rows with the sign the Moebius constructor chose: a > 0, or
    a = 0 < b."""
    a, b = rows[:, 0], rows[:, 1]
    return np.where(((a < 0.0) | ((a == 0.0) & (b < 0.0)))[:, None], -rows, rows)


def _same_up_to_sign(g, h):
    """Rows of g and h are equal bit for bit, or equal after negating the row."""
    g, h = np.asarray(g), np.asarray(h)
    return bool(np.all((g == h).all(axis=-1) | (g == -h).all(axis=-1)))


class TestGroupConstruction:
    def test_relation_holds(self):
        assert relation_residual(GROUP) < 1e-9

    def test_generators_unimodular(self):
        for a, b, c, d in GROUP.generators:
            assert abs(a * d - b * c - 1.0) < 1e-12

    def test_traces_all_equal(self):
        want = 2.0 * (1.0 + math.sqrt(2.0))
        for a, _, _, d in GROUP.generators:
            assert abs(a + d) == pytest.approx(want, abs=1e-12)

    def test_inverse_pairing(self):
        gens = GROUP.generators
        assert gens.shape == (8, 4)
        for k in range(8):
            inverse = gens[k][[3, 1, 2, 0]] * [1.0, -1.0, -1.0, 1.0]
            np.testing.assert_allclose(gens[(k + 4) % 8], inverse, rtol=0.0, atol=1e-12)

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
                assert abs(hyp_dist(_apply(g, z), _apply(g, w)) - hyp_dist(z, w)) < 1e-10

    def test_generators_are_read_only_and_built_once(self):
        assert GROUP.generators.dtype == np.float64
        assert not GROUP.generators.flags.writeable
        with pytest.raises(ValueError):
            GROUP.generators[0, 0] = 2.0
        # translates_meeting_disk caches on the group object, and verify
        # builds the group three times
        assert bolza_group() is GROUP
        R = radius(MagneticConfig(1.0, 0.3))
        assert translates_meeting_disk(bolza_group(), R) is translates_meeting_disk(GROUP, R)

    def test_chern_constraint(self):
        for B in (0.5, 1.0, 1.5, 2.0):
            require_chern(MagneticConfig(B, 0.1))
        for B in (0.7, 1e-12):  # 2B is no integer, or rounds to 0
            with pytest.raises(ValueError, match="Chern constraint violated"):
                require_chern(MagneticConfig(B, 0.1))


class TestLift:
    def test_generators_are_the_moebius_construction_bit_for_bit(self):
        # r(k pi/4) diag(e^rho, e^-rho) r(-k pi/4) as Moebius products, the
        # construction before the entry arrays: every a > 0, so no sign moves
        rho = GROUP.inradius
        along = Moebius(math.exp(rho), 0.0, 0.0, math.exp(-rho))
        for k, row in enumerate(GROUP.generators.tolist()):
            r = _rotation(k * math.pi / 4.0)
            assert row == list((r @ along @ r.inv()).entries())

    def test_opposite_generators_multiply_to_plus_identity(self):
        for k in range(8):
            got = surface._compose(GROUP.generators[k], GROUP.generators[(k + 4) % 8])
            np.testing.assert_allclose(got, IDENTITY, rtol=0.0, atol=1e-14)

    def test_compose_is_the_reshape_product_bit_for_bit(self):
        # the product _compose formed before it ran _framed: entries
        # reshaped to 2x2 blocks and multiplied by broadcasting, then _unit
        def by_reshape(g, h):
            g, h = np.asarray(g), np.asarray(h)
            g, h = g.reshape((2, 2) + g.shape[1:]), h.reshape((2, 2) + h.shape[1:])
            p = g[:, :1] * h[:1] + g[:, 1:] * h[1:]
            return surface._unit(p.reshape((4,) + p.shape[2:]))

        rng = np.random.default_rng(31)

        def entries(*shape):
            # determinant 1 up to rounding, so _unit rescales some of them
            a, b, c = np.exp(rng.uniform(-2.0, 2.0, shape)), *rng.uniform(-3.0, 3.0, (2, *shape))
            return np.array([a, b, c, (1.0 + b * c) / a])

        cases = [(GROUP.generators[3], GROUP.generators[6]), (entries(50), entries(50)),
                 (entries(7, 1), entries(1, 9)), (entries(20), entries(1)),
                 (list(entries(5)), entries(1)), (entries(), entries())]
        for g, h in cases:
            got, want = surface._compose(g, h), by_reshape(g, h)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_relator_product_is_plus_identity(self):
        # measured 2.1e-14 from +I; the Moebius partial products took the
        # other sign at 3 of the relator's 8 prefixes
        assert relation_residual(GROUP) < 1e-13
        p = np.eye(2)
        for k in GROUP.relation_word:
            p = p @ GROUP.generators[k].reshape(2, 2)
        np.testing.assert_allclose(p, np.eye(2), rtol=0.0, atol=1e-13)

    def test_word_element_is_the_moebius_chain_up_to_sign(self):
        rng = np.random.default_rng(27)
        words = rng.integers(0, 8, size=(400, 9)).astype(np.int8)
        # ragged rows padded with -1, as _descend_many returns them
        lengths = rng.integers(0, 10, size=400)
        words[np.arange(9) >= lengths[:, None]] = -1
        got = word_element(GROUP, words)
        assert got.shape == (400, 4)
        want = [_moebius_word(w[w >= 0]).entries() for w in words]
        assert _same_up_to_sign(got, want)
        # with the lift's sign: the plain 2x2 products, up to the
        # renormalization by a cancelling determinant (5.2e-8 of the largest
        # entry measured here; a flipped sign is off by twice that entry)
        for row, w in zip(got, words):
            p = np.eye(2)
            for k in w[w >= 0]:
                p = GROUP.generators[k].reshape(2, 2) @ p
            assert np.abs(row - p.ravel()).max() <= 1e-6 * np.abs(p).max()
        assert (got[lengths == 0] == IDENTITY).all()

    def test_frame_update_matches_the_per_start_moebius_path(self):
        # two blocks of 160 steps (B t <= 8); the second block's folded
        # points come from the first block's frame update alone
        cfg = MagneticConfig(1.0, 0.5)
        rng = np.random.default_rng(28)
        z = from_disk(rng.uniform(0.0, 0.5, 3) * np.exp(2j * math.pi * rng.uniform(size=3)))
        v = cfg.lam * z.imag * np.exp(2j * math.pi * rng.uniform(size=3))
        starts = [Tangent(complex(a), complex(b)) for a, b in zip(z, v)]
        seen = []

        def record(w):
            seen.append(w.copy())
            return np.zeros(w.shape)

        birkhoff_average(GROUP, cfg, record, 20.0, starts, 400)
        # the loop before the entry arrays: a start's frame is the Moebius
        # product of its fold's word and of its last frame
        dt, block = 20.0 / 400, 160
        table = np.array(_exp_entries(cfg, *_exp_scalars(
            cfg, (np.arange(1, block + 1) - [[0.5], [0.0]]) * dt)))
        frames = [_shell_frame(cfg, p) for p in starts]
        for j in (0, 1):
            columns = np.array(frames).T[:, :, None]
            fa, fb, fc, fd = framed = np.array(_framed(columns, table[:, j, :]))
            want, words = _descend_many(GROUP.generators, (fa * 1j + fb) / (fc * 1j + fd))
            assert seen[j].tobytes() == want.tobytes()
            frames = [(_moebius_word(w[w >= 0]) @ Moebius(*last)).entries()
                      for w, last in zip(words[block - 1::block], framed[:, :, -1].T)]


class TestReduce:
    def test_domain_point_is_fixed(self):
        z = from_disk(0.2 + 0.1j)
        red = reduce_point(GROUP, z)
        assert red.word == ()
        assert red.representative == z

    def test_idempotent(self):
        z = _apply(GROUP.generators[3], from_disk(0.4 - 0.2j))
        red = reduce_point(GROUP, z)
        again = reduce_point(GROUP, red.representative)
        assert again.word == ()
        assert again.representative == red.representative

    def test_word_maps_input_to_representative(self):
        z = _apply(surface._compose(GROUP.generators[1], GROUP.generators[6]), from_disk(0.3 + 0.3j))
        red = reduce_point(GROUP, z)
        assert abs(_apply(word_element(GROUP, red.word)[0], z) - red.representative) < 1e-9

    def test_random_word_round_trips(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            w0 = from_disk(rng.uniform(0.05, 0.55) * np.exp(2j * math.pi * rng.uniform()))
            word = tuple(int(i) for i in rng.integers(0, 8, size=5))
            z = _apply(word_element(GROUP, word)[0], complex(w0))
            red = reduce_point(GROUP, z)
            assert abs(red.representative - w0) < 1e-8

    def test_returns_builtin_types(self):
        z = _apply(surface._compose(GROUP.generators[1], GROUP.generators[6]), from_disk(0.3 + 0.3j))
        red = reduce_point(GROUP, z)
        assert type(red.representative) is complex
        assert type(red.word) is tuple and len(red.word) > 0
        assert all(type(k) is int for k in red.word)
        rep, word = _descend(GROUP.generators, z)
        assert red.word == tuple(word)
        assert abs(red.representative - rep) < 1e-12

    def test_representative_in_domain(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            z = complex(rng.uniform(-3, 3), math.exp(rng.uniform(-2, 2)))
            rep = reduce_point(GROUP, z).representative
            assert bool(in_domain_mask(GROUP, np.asarray(rep))) is True


def _side_points(rng, count, offsets):
    """Points on rays from i at the octagon's boundary, displaced radially by
    each offset (negative: inside), found by bisection of the Dirichlet
    condition min_k d(g_k z, i) - d(z, i) = 0."""
    pts = []
    for _ in range(count):
        ray = np.exp(2j * math.pi * rng.uniform())

        def excess(r):
            z = from_disk(math.tanh(0.5 * r) * ray)
            return min(hyp_dist(_apply(g, z), 1j) for g in GROUP.generators) - hyp_dist(z, 1j)

        lo, hi = GROUP.inradius - 1e-3, GROUP.circumradius + 1e-3
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if excess(mid) > 0.0 else (lo, mid)
        pts.extend(from_disk(math.tanh(0.5 * (lo + off)) * ray) for off in offsets)
    return np.array(pts)


class TestDescendMany:
    def _assert_matches_scalar(self, z):
        folded, words = _descend_many(GROUP.generators, z)
        for j, zj in enumerate(z):
            rep, word = _descend(GROUP.generators, complex(zj))
            assert abs(folded[j] - rep) < 1e-12
            assert [int(k) for k in words[j] if k >= 0] == word
            assert (words[j][len(word):] == -1).all()

    def test_matches_scalar_descent_out_to_block_reach(self):
        # a block's frames lie within cosh d = 33 of its folded start frame
        rng = np.random.default_rng(31)
        start = from_disk(rng.uniform(0.0, 0.6, 300) * np.exp(2j * math.pi * rng.uniform(size=300)))
        reach = np.arccosh(rng.uniform(1.0, 33.0, 300))
        step = from_disk(np.tanh(0.5 * reach) * np.exp(2j * math.pi * rng.uniform(size=300)))
        z = start.imag * step + start.real  # the isometry taking i to start
        self._assert_matches_scalar(z)

    def test_matches_scalar_descent_at_the_sides(self):
        rng = np.random.default_rng(32)
        z = _side_points(rng, 60, (-1e-9, 0.0, 1e-9))
        self._assert_matches_scalar(z)
        # seen from across a side pairing too
        self._assert_matches_scalar(_apply(GROUP.generators[2], z))

    @staticmethod
    def _ranks_16(gens, z):
        """The rank matrix as the library built it before the two (8, n)
        products, kept as its oracle: one (16, 3) @ (3, n) product."""
        gens = gens.tolist()
        rows = np.array([(a, c, b) for a, b, c, d in gens] + [(-c, a, -d) for a, b, c, d in gens])
        r = rows @ np.array([z.real, z.imag, np.ones(z.size)])
        r *= r
        return r[:len(gens)] + r[len(gens):]

    # one point, a ragged count, and the sizes of a Birkhoff block's fold
    # (1024 and 3 x 1024 points)
    @pytest.mark.parametrize("n", [1, 7, 1024, 3072, 5000])
    def test_ranks_match_the_sixteen_row_product_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        reach = np.arccosh(rng.uniform(1.0, 1e4, n))
        z = from_disk(np.tanh(0.5 * reach) * np.exp(2j * math.pi * rng.uniform(size=n)))
        sides = _side_points(rng, 4, (-1e-9, 0.0, 1e-9))
        for points in (z, np.concatenate([sides, z])[:n]):
            got = surface._ranks(GROUP.generators, points)
            assert got.shape == (8, n)
            assert got.tobytes() == self._ranks_16(GROUP.generators, points).tobytes()

    def test_step_limit_raises(self, monkeypatch):
        far = _apply(surface._compose(GROUP.generators[1], GROUP.generators[6]), from_disk(0.3 + 0.3j))
        monkeypatch.setattr(surface, "_MAX_STEPS", 1)
        for descend in (_descend, _descend_many):
            with pytest.raises(ValueError, match="reduction failed"):
                descend(GROUP.generators, far)
        with pytest.raises(ValueError, match="reduction failed"):
            reduce_point(GROUP, far)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [-1j, 2 + 0j, complex(math.nan, 1.0),
                                     complex(math.inf, 1.0), complex(0.0, math.inf)])
    def test_refuses_points_off_the_half_plane(self, bad):
        # the first bad point is named, whatever follows it
        message = re.escape(f"finite and in the upper half-plane, got {bad!r}")
        z = np.array([1j, bad, -5j])
        with pytest.raises(ValueError, match=message):
            _descend_many(GROUP.generators, z)
        with pytest.raises(ValueError, match=message):
            reduce_point(GROUP, bad)
        with pytest.raises(ValueError, match=message):
            in_domain_mask(GROUP, z)
        with pytest.raises(ValueError, match=message):
            density_surface_many(GROUP, STD, z)


def _same_elements(g, h, tol):
    """(len(g), len(h)) mask of entry rows of g and h that are one element
    of PSL(2, R) within tol: equal up to a global sign."""
    diff = g[:, None, :] - h[None, :, :]
    total = g[:, None, :] + h[None, :, :]
    return np.minimum(np.abs(diff).max(axis=2), np.abs(total).max(axis=2)) <= tol


def _row_at(X, Y):
    """Entries of the element (sqrt y, x / sqrt y; 0, 1 / sqrt y) taking i
    to x + iy, the point with hyperboloid coordinates (X, Y)."""
    y = (X + math.sqrt(1.0 + X * X + Y * Y)) / (1.0 + Y * Y)
    return [math.sqrt(y), Y * math.sqrt(y), 0.0, 1.0 / math.sqrt(y)]


class TestTranslates:
    def test_tiny_disk_needs_only_identity(self):
        got = translates_meeting_disk(GROUP, 0.1)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, [[1.0, 0.0, 0.0, 1.0]])

    def test_reference_energy_count(self):
        got = translates_meeting_disk(GROUP, radius(STD))
        assert got.shape == (9, 4)
        assert got is translates_meeting_disk(GROUP, radius(STD))

    def test_cached_array_is_read_only(self):
        got = translates_meeting_disk(GROUP, 2.0)
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0, 0] = 2.0

    # sha256 prefixes of the entry bytes that the earlier enumeration (a
    # queue of Moebius products deduplicated by orbit point) produced, each
    # row stored with the Moebius sign: a > 0, or a = 0 < b
    @pytest.mark.parametrize("R, n, digest", [
        (0.1, 1, "7b38b86d9a7e6237"),
        (radius(STD), 9, "e138ed38bcce428a"),
        (4.0, 137, "b091ba61802faaa3"),
        (radius(MagneticConfig(1.0, 0.48)), 297, "bdb39cb2afb75668"),
        (5.9, 1001, "dd50adcbebbf2ddd"),
    ])
    def test_entry_bytes_are_pinned(self, R, n, digest):
        got = translates_meeting_disk(GROUP, R)
        assert got.shape == (n, 4)
        assert hashlib.sha256(_old_sign(got).tobytes()).hexdigest()[:16] == digest

    # the same rows as returned, in the generators' lift: 0, 0, 40, 120 and
    # 462 of them take the other sign
    @pytest.mark.parametrize("R, digest", [
        (0.1, "7b38b86d9a7e6237"),
        (radius(STD), "e138ed38bcce428a"),
        (4.0, "e32932eab0087e04"),
        (radius(MagneticConfig(1.0, 0.48)), "bd538f7468ab1014"),
        (5.9, "ca346d796a627f3a"),
    ])
    def test_lift_entry_bytes_are_pinned(self, R, digest):
        got = translates_meeting_disk(GROUP, R)
        assert hashlib.sha256(got.tobytes()).hexdigest()[:16] == digest

    def test_closed_under_inverses(self):
        got = translates_meeting_disk(GROUP, 2.0)
        inverses = got[:, [3, 1, 2, 0]] * [1.0, -1.0, -1.0, 1.0]
        assert _same_elements(got, inverses, 1e-9).any(axis=0).all()

    def test_monotone_in_radius(self):
        small = translates_meeting_disk(GROUP, 1.0)
        large = translates_meeting_disk(GROUP, 2.2)
        assert len(small) <= len(large)
        assert _same_elements(large, small, 1e-9).any(axis=0).all()

    def test_orbit_points_are_distinct_at_radius_four(self):
        got = translates_meeting_disk(GROUP, 4.0)
        assert len(got) == 137
        a, b, c, d = got.T
        # sorted by cosh d(i, g.i), then by the entries of the Moebius sign
        keys = np.vstack([0.5 * (a * a + b * b + c * c + d * d), _old_sign(got).T])
        np.testing.assert_array_equal(np.lexsort(keys[::-1]), np.arange(len(got)))
        # the Dirichlet domain about i holds the disk of radius rho, so
        # distinct elements move i to points at least 2 rho apart
        pts = (a * 1j + b) / (c * 1j + d)
        dist = hyp_dist_vec(pts[:, None], pts[None, :])
        np.fill_diagonal(dist, np.inf)
        assert dist.min() >= 2.0 * GROUP.inradius - 1e-9

    def test_first_orbit_points_drop_rounded_copies_only(self):
        rho = GROUP.inradius
        # a pair of copies 2e-12 apart, relative, either side of a cell
        # edge of one grid and of a cell corner of each of the four
        for X, Y in ((rho, 0.3 * rho), (0.3 * rho, 0.5 * rho), (rho, rho),
                     (0.5 * rho, rho), (rho, 0.5 * rho), (0.5 * rho, 0.5 * rho)):
            rows = np.array([_row_at(X * (1.0 + 1e-12), Y * (1.0 + 1e-12)),
                             _row_at(X * (1.0 - 1e-12), Y * (1.0 - 1e-12))])
            assert surface._first_orbit_points(rows, rho).tolist() == [True, False]
        # i and a point 1.2 rho from it on a diagonal of the hyperboloid
        # plane are distinct; a copy of the second is not
        far = math.sinh(1.2 * rho) / math.sqrt(2.0)
        rows = np.array([_row_at(0.0, 0.0), _row_at(far, far),
                         _row_at(far * (1.0 + 1e-12), far)])
        assert surface._first_orbit_points(rows, rho).tolist() == [True, True, False]

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="disk too large for exact enumeration"):
            translates_meeting_disk(GROUP, ENUM_CAP)
        with pytest.raises(ValueError, match="disk too large for exact enumeration"):
            translates_meeting_disk(GROUP, math.inf)
        for R in (-0.5, -math.inf, math.nan):
            with pytest.raises(ValueError, match=re.escape(
                    f"disk radius must be finite and nonnegative, got {R!r}")):
                translates_meeting_disk(GROUP, R)


def _density_reference(cfg, y, band):
    """Surface density at one point as the per-point code computed it: the
    scalar fold, alpha_radial summed over the translates whose lift lies
    within R_E + 1e-9 of the center, and the preimages preimages_cover lists
    (none at the center, whose fiber is a full circle)."""
    R = radius(cfg)
    y0, _ = _descend(GROUP.generators, complex(y))
    total, count, near_center, near_boundary = 0.0, 0, False, False
    for a, b, c, d in translates_meeting_disk(GROUP, R).tolist():
        w = (a * y0 + b) / (c * y0 + d)
        dist = hyp_dist(1j, w)
        if dist >= R + 1e-9:
            continue
        near_center = near_center or dist < band * R
        near_boundary = near_boundary or abs(dist - R) < band * R
        total += alpha_radial(cfg, dist)
        count += 0 if dist < 1e-9 else len(preimages_cover(cfg, w))
    flag = (Flag.NEAR_CENTER if near_center else Flag.NEAR_BOUNDARY if near_boundary
            else Flag.REGULAR if count else Flag.OUTSIDE)
    return y0, total, count, flag


class TestDensitySurfaceMany:
    @pytest.mark.parametrize("E, band", [(0.25, 1e-3), (0.4, 0.05)])
    def test_matches_per_point_reference(self, E, band):
        cfg = MagneticConfig(1.0, E)
        R = radius(cfg)
        rng = np.random.default_rng(61)
        re = math.tanh(0.5 * GROUP.circumradius)
        domain = from_disk(re * np.sqrt(rng.uniform(size=300))
                           * np.exp(2j * math.pi * rng.uniform(size=300)))
        # on the rim of the projected disk and 1e-4 R either side, in the
        # boundary band; nearer in, alpha ~ 1/sqrt(R - d) turns the last-bit
        # gap between hyp_dist and hyp_dist_vec into more than 1e-9
        rays = np.exp(2j * math.pi * rng.uniform(size=20))
        rim = from_disk(np.tanh(0.5 * R * np.array([[1.0 - 1e-4], [1.0], [1.0 + 1e-4]]))
                        * rays).ravel()
        sides = _side_points(rng, 20, (-1e-9, 0.0, 1e-9))
        y = np.concatenate([domain, rim, sides, [1j]])
        folded, alpha, count, flags = density_surface_many(GROUP, cfg, y, band)
        assert flags.dtype == object
        for j, yj in enumerate(y):
            y0, total, n, flag = _density_reference(cfg, yj, band)
            assert abs(folded[j] - y0) < 1e-12
            assert count[j] == n
            assert flags[j] is flag
            if math.isinf(total):
                assert alpha[j] == total
            else:
                assert alpha[j] == pytest.approx(total, rel=1e-9, abs=0.0)
        assert {Flag.NEAR_CENTER, Flag.NEAR_BOUNDARY, Flag.REGULAR} <= set(flags)

    def test_center_is_near_center_with_no_preimages(self):
        y0, alpha, n_pre, flag = density_surface(GROUP, STD, 1j)
        assert y0 == 1j
        assert alpha == math.inf
        assert n_pre == 0
        assert flag is Flag.NEAR_CENTER


class TestDensitySurface:
    def test_far_point_vanishes(self):
        # small disk: in-domain points near a vertex sit outside every
        # translate of the projected disk
        cfg = MagneticConfig(1.0, 0.15)
        y = from_disk(0.75 * np.exp(1j * math.pi / 8.0))
        _, alpha, n_pre, flag = density_surface(GROUP, cfg, complex(y))
        assert alpha == 0.0
        assert n_pre == 0
        assert flag is Flag.OUTSIDE

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
            _, alpha, n_pre, _ = density_surface(GROUP, cfg, complex(y))
            (cover_alpha,), (cover_n,), _ = density_cover_many(cfg, [hyp_dist(1j, complex(y))])
            assert alpha == pytest.approx(cover_alpha, rel=1e-9)
            assert n_pre == cover_n == len(preimages_cover(cfg, complex(y)))

    def test_preimage_count_bounded(self):
        translates = translates_meeting_disk(GROUP, radius(STD))
        rng = np.random.default_rng(52)
        for _ in range(100):
            y = from_disk(rng.uniform(0.0, 0.8) * np.exp(2j * math.pi * rng.uniform()))
            _, _, n_pre, _ = density_surface(GROUP, STD, complex(y))
            assert n_pre <= 2 * len(translates)

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
        for ga, gb, gc, gd in translates_meeting_disk(GROUP, radius(STD)):
            d = hyp_dist_vec(np.full_like(z, 1j), (ga * z + gb) / (gc * z + gd))
            a = np.asarray(alpha_radial(STD, d))
            total += np.where(np.isfinite(a), a, 0.0)
        mass = float(np.sum(np.where(mask, total * weight, 0.0)) * cell)
        assert mass == pytest.approx(2.0 * math.pi * period(STD), rel=0.02)


def _radial(z):
    # cosh d(z, i): the side pairings preserve it, so it is continuous on the
    # surface and blind to which side a boundary point folds to
    z = np.asarray(z)
    return 1.0 + np.abs(z - 1j) ** 2 / (2.0 * z.imag)


def _oracle_average(cfg, observable, T, p0, n_steps):
    """Independent midpoint average over the unfolded frames g0 (I + tF),
    folded by greedy descent of |z - i|^2 / Im z over the generator orbit."""
    ga, gb, gc, gd = frame_of(Tangent(p0.z, p0.v * (p0.z.imag / abs(p0.v))))
    t = (np.arange(n_steps) + 0.5) * (T / n_steps)
    a, b = 1.0 + 0.5 * t * cfg.lam, -0.5 * t * cfg.B
    c, d = 0.5 * t * cfg.B, 1.0 - 0.5 * t * cfg.lam
    z = (((ga * a + gb * c) * 1j + (ga * b + gb * d))
         / ((gc * a + gd * c) * 1j + (gc * b + gd * d)))
    while True:
        cand = np.stack([_apply(g, z) for g in GROUP.generators])
        u = np.abs(cand - 1j) ** 2 / cand.imag
        pick = np.argmin(u, axis=0)
        cols = np.arange(z.size)
        move = u[pick, cols] < (np.abs(z - 1j) ** 2 / z.imag) * (1.0 - 1e-12)
        if not move.any():
            return float(np.mean(observable(z)))
        z = np.where(move, cand[pick, cols], z)


class TestBirkhoffAverage:
    @pytest.mark.parametrize("B, T, n_steps", [
        (1.0, 50.0, 20000),
        (1.0, 0.7, 1),
        (1.0, 5.0, surface._BLOCK_STEPS + 1),
        (1.0, 50.0, 2500),  # blocks of 400 steps, set by B t <= 8
        (2.0, 50.0, 7000),  # blocks of 560 steps and a last one of 280
    ])
    def test_matches_unfolded_frame_oracle(self, B, T, n_steps):
        cfg = MagneticConfig(B, 0.5 * B * B)
        rng = np.random.default_rng(int(T * n_steps))
        z = from_disk(0.4 * np.exp(2j * math.pi * rng.uniform()))
        p0 = Tangent(complex(z), cfg.lam * z.imag * np.exp(2j * math.pi * rng.uniform()))
        [got] = birkhoff_average(GROUP, cfg, _radial, T, [p0], n_steps)
        want = _oracle_average(cfg, _radial, T, p0, n_steps)
        assert got == pytest.approx(want, rel=1e-9)

    def test_constant_observable_is_exact(self):
        cfg = MagneticConfig(1.0, 0.5)
        p0 = Tangent(1j, 1j * cfg.lam)
        [got] = birkhoff_average(GROUP, cfg, lambda z: np.full(np.shape(z), 2.5),
                                 T=5.0, starts=[p0], n_steps=2000)
        assert got == pytest.approx(2.5, rel=1e-14)

    def test_several_starts_match_their_one_start_runs(self):
        # 7777 steps in blocks of 207 (B t <= 8) leave a last block of 118
        cfg = MagneticConfig(1.0, 0.5)
        rng = np.random.default_rng(11)
        z = from_disk(rng.uniform(0.0, 0.5, 4) * np.exp(2j * math.pi * rng.uniform(size=4)))
        v = cfg.lam * z.imag * np.exp(2j * math.pi * rng.uniform(size=4))
        starts = [Tangent(complex(a), complex(b)) for a, b in zip(z, v)]
        got = birkhoff_average(GROUP, cfg, surface._bump, 300.0, starts, 7777)
        assert got == [birkhoff_average(GROUP, cfg, surface._bump, 300.0, [p], 7777)[0]
                       for p in starts]
        assert len(set(got)) == 4

    def test_rejects_empty_starts(self):
        with pytest.raises(ValueError, match="need at least one start, got none"):
            birkhoff_average(GROUP, MagneticConfig(1.0, 0.5), _radial, 5.0, [], 100)

    def test_area_average_of_constant(self):
        got = area_average(GROUP, lambda z: np.ones(np.shape(z)), resolution=400)
        assert got == pytest.approx(1.0, rel=5e-3)

    @pytest.mark.parametrize("resolution", [3, 120, 401, 800])
    def test_area_average_matches_full_grid_mask_oracle(self, resolution):
        # the membership test over the whole square grid, the area
        # average's reference; restricted to the disk it must give the bits
        re = math.tanh(0.5 * GROUP.circumradius)
        xs = np.linspace(-re, re, resolution)
        u = xs[None, :] + 1j * xs[:, None]
        inside_disk = np.abs(u) < re
        z = np.where(inside_disk, from_disk(np.where(inside_disk, u, 0.0)), 1j)
        mask = inside_disk & in_domain_mask(GROUP, z)
        weight = 4.0 / (1.0 - np.abs(u) ** 2) ** 2
        for observable in (surface._bump, lambda z: np.ones(np.shape(z))):
            vals = np.asarray(observable(z), dtype=float)
            want = float(np.sum(np.where(mask, vals * weight, 0.0)) * (xs[1] - xs[0]) ** 2)
            assert area_average(GROUP, observable, resolution) == want / octagon_area(GROUP)

    # one row per block, and blocks of three rows with a last block of one
    # (at 121) or two (at 401)
    @pytest.mark.parametrize("resolution, cells", [
        (121, 121), (121, 3 * 121 + 5), (401, 401), (401, 3 * 401 + 5)])
    def test_area_average_does_not_depend_on_the_grid_blocks(self, monkeypatch, resolution,
                                                               cells):
        want = area_average(GROUP, surface._bump, resolution)
        monkeypatch.setattr(halfplane, "_GRID_CELLS", cells)
        assert area_average(GROUP, surface._bump, resolution) == want

    def test_area_average_memory_is_row_blocked(self):
        # the grid at 800 is 640,000 points, 10 MB per complex array; blocks
        # of 20 rows hold the float term array (5.1 MB) and one block of
        # temporaries (9.0 MB traced in all, 58 MB evaluated at once)
        area_average(GROUP, surface._bump, 8)  # first-call allocations
        tracemalloc.start()
        try:
            area_average(GROUP, surface._bump, 800)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_area_average_rejects_coarse_grid(self):
        for resolution in (0, 1):
            with pytest.raises(ValueError, match="resolution must be at least 2"):
                area_average(GROUP, lambda z: np.ones(np.shape(z)), resolution=resolution)

    def test_rejects_off_critical_energy(self):
        p0 = Tangent(1j, 1j * math.sqrt(0.6))
        with pytest.raises(ValueError, match="equidistribution test requires critical energy"):
            birkhoff_average(GROUP, MagneticConfig(1.0, 0.3), lambda z: np.ones(np.shape(z)),
                             T=1.0, starts=[p0], n_steps=100)

    def test_rejects_bad_horizon_and_shell(self):
        cfg = MagneticConfig(1.0, 0.5)
        with pytest.raises(ValueError):
            birkhoff_average(GROUP, cfg, lambda z: np.ones(np.shape(z)),
                             T=0.0, starts=[Tangent(1j, 1j * cfg.lam)], n_steps=100)
        with pytest.raises(ValueError, match="off energy shell"):
            birkhoff_average(GROUP, cfg, lambda z: np.ones(np.shape(z)),
                             T=1.0, starts=[Tangent(1j, 0.2j)], n_steps=100)

    def test_rejects_non_finite_horizon_and_overlong_steps(self):
        cfg = MagneticConfig(1.0, 0.5)
        p0 = Tangent(1j, 1j * cfg.lam)
        for T in (math.inf, math.nan):
            with pytest.raises(ValueError, match="averaging time must be positive and finite"):
                birkhoff_average(GROUP, cfg, _radial, T=T, starts=[p0], n_steps=100)
        # refused with no numpy warning, also where cosh d overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for T, n in ((1e300, 50000), (1e300, 1), (1e12, 3)):
                with pytest.raises(ValueError, match="is too long"):
                    birkhoff_average(GROUP, cfg, _radial, T=T, starts=[p0], n_steps=n)

    def test_rejects_empty_step_count(self):
        cfg = MagneticConfig(1.0, 0.5)
        for n in (0, -3):
            with pytest.raises(ValueError, match="step count must be at least 1"):
                birkhoff_average(GROUP, cfg, lambda z: np.ones(np.shape(z)),
                                 T=1.0, starts=[Tangent(1j, 1j * cfg.lam)], n_steps=n)
