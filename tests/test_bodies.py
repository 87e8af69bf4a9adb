import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normpack.bodies import (
    GAUGE_CHUNK,
    RejectionEfficiencyError,
    body_from_spec,
    body_to_spec,
    closed_form_volume,
    cube,
    fold_columns,
    helmert_basis,
    hpolytope,
    lp_ball,
    normalize_to_unit_volume,
    _lp_norm,
    sample_uniform,
    simplex_difference,
    skip_doubles,
    uniform_box,
)
from normpack.checks import regular_simplex_volume
from polytope_oracles import criterion4_hpolytope, lp_support, random_symmetric_hpolytope


def unit_cube_hpoly(d):
    eye = np.eye(d)
    return hpolytope(np.vstack([eye, -eye]), np.ones(2 * d))


BODIES = [
    lp_ball(2, 1),
    lp_ball(2, 2),
    lp_ball(3, 2, scale=0.7),
    lp_ball(4, 3),
    lp_ball(3, math.inf),
    unit_cube_hpoly(3),
    simplex_difference(2),
    simplex_difference(3),
]


class TestGauge:
    def test_cube_boundary_point(self):
        b = lp_ball(4, math.inf)
        assert b.gauge([1.0, 0, 0, 0]) == 1.0

    def test_origin(self):
        for b in BODIES:
            assert b.gauge(np.zeros(b.d)) == 0.0

    def test_l1_sum(self):
        assert lp_ball(2, 1).gauge([0.3, 0.3]) == pytest.approx(0.6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lp_ball(3, 2).gauge([1.0, 0.0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            lp_ball(2, 2).gauge([np.nan, 0.0])

    def test_batch_shape(self):
        b = lp_ball(3, 2)
        out = b.gauge(np.ones((5, 4, 3)))
        assert out.shape == (5, 4)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 7, 9])
    def test_equals_reduction_sum(self, d):
        # the gauges add columns one by one; numpy's row sums are the reference
        def lp_reference(x, p):
            a = np.abs(x)
            if p == 1.0:
                return a.sum(axis=-1)
            if p == 2.0:
                return np.sqrt((a * a).sum(axis=-1))
            m = a.max(axis=-1, keepdims=True)
            return m[..., 0] * ((a / np.where(m > 0, m, 1.0)) ** p).sum(axis=-1) ** (1.0 / p)

        rng = np.random.default_rng(d)
        x = rng.standard_normal((2000, d)) * rng.uniform(1e-3, 1e3, size=(2000, 1))
        x[:20] = 0.0
        x[20:40, 0] = 0.0
        bodies = [(lp_ball(d, p, scale=0.7), lambda v, p=p: lp_reference(v, p)) for p in (1.0, 1.5, 2.0, 3.0)]
        if d <= 5:
            sd = simplex_difference(d, scale=0.7)
            # the gauge's own product, by the contiguous copy of the transpose: a product by the
            # transposed view rounds some entries differently in the last bit (d = 4 here)
            bodies.append((sd, lambda v: np.abs(v @ sd.embedding_t).sum(axis=-1)))
            view = np.abs(x @ sd.embedding.T).sum(axis=-1) / 0.7
            assert np.allclose(sd.gauge(x), view, rtol=1e-15, atol=0.0)
        for body, reference in bodies:
            for v in (x, np.asfortranarray(x), x.reshape(40, 50, d), x[25], x[3]):
                got, want = np.asarray(body.gauge(v)), np.asarray(reference(v) / 0.7)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), body.describe()

    @pytest.mark.parametrize("extra", [0, 1, 2, 5])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_hpoly_equals_reduction(self, d, extra):
        # 2 (d + extra) facets: the facet values are divided in place and
        # folded column by column (up to 7) or reduced by numpy; the
        # reference divides into a new array and reduces
        rng = np.random.default_rng(10 * d + extra)
        body = random_symmetric_hpolytope(rng, d, d + extra).scaled(0.7)
        x = rng.standard_normal((2000, d)) * rng.uniform(1e-3, 1e3, size=(2000, 1))
        x[:20] = 0.0
        for v in (x, np.asfortranarray(x), x.reshape(40, 50, d), x[25], x[3]):
            want = np.maximum(np.maximum.reduce(v @ body.normals.T / body.offsets, axis=-1), 0.0) / 0.7
            got = np.asarray(body.gauge(v))
            assert got.shape == np.shape(want)
            assert np.array_equal(got.view(np.int64), np.asarray(want).view(np.int64))


class TestSupport:
    def test_ball_homogeneity(self):
        assert lp_ball(5, 2).support([0, 0, 0, 0, 3.0]) == pytest.approx(3.0)

    def test_l1_dual_is_linf(self):
        assert lp_ball(2, 1).support([1.0, 1.0]) == pytest.approx(1.0)

    def test_hpoly_cube_vs_vertex_oracle(self):
        # brute-force max over the 2^d cube vertices
        body = unit_cube_hpoly(3)
        rng = np.random.default_rng(0)
        verts = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)], dtype=float)
        for _ in range(20):
            u = rng.normal(size=3)
            oracle = (verts @ u).max()
            assert body.support(u) == pytest.approx(oracle, abs=1e-8)
            assert body.support(u) == pytest.approx(np.abs(u).sum(), abs=1e-8)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_hpoly_vertices_vs_lp_oracle(self, d):
        rng = np.random.default_rng(30 + d)
        for _ in range(3):
            body = random_symmetric_hpolytope(rng, d, d + 3).scaled(rng.uniform(0.5, 2.0))
            for u in rng.normal(size=(10, d)):
                assert body.support(u) == pytest.approx(lp_support(body, u), rel=1e-9, abs=1e-12)

    def test_criterion4_vertices_vs_lp_oracle(self):
        body = criterion4_hpolytope()
        rng = np.random.default_rng(31)
        us = rng.normal(size=(50, 3))
        gaps = np.abs(body.support(us) - [lp_support(body, u) for u in us])
        assert gaps.max() <= 1e-12

    def test_non_simple_hpoly(self):
        # the octahedron written by its 8 facets: 4 facets meet at each vertex
        signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)], dtype=float)
        body = hpolytope(signs, np.ones(8))
        assert len(body.polytope.vertices) == 6
        assert closed_form_volume(body) == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert body.support([0.2, -0.7, 0.1]) == pytest.approx(0.7)


class TestGaugeGradient:
    KINDS = {
        "lp1": lp_ball(3, 1),
        "lp1.5": lp_ball(4, 1.5),
        "lp2": lp_ball(3, 2),
        "lp3": lp_ball(3, 3),
        "lpinf": cube(3),
        "hpoly": criterion4_hpolytope(),
        "simplex_diff": simplex_difference(3),
    }

    @pytest.mark.parametrize("scale", [1.0, 0.37])
    @pytest.mark.parametrize("name", sorted(KINDS))
    def test_central_differences_and_euler(self, name, scale):
        # random points lie off the kinks of every kind with probability 1
        body = self.KINDS[name].scaled(scale)
        xs = np.random.default_rng(3).normal(size=(40, body.d))
        grad = body.gauge_gradient(xs)
        assert grad.shape == xs.shape
        step = 1e-6
        for i in range(body.d):
            e = np.eye(body.d)[i] * step
            fd = (body.gauge(xs + e) - body.gauge(xs - e)) / (2.0 * step)
            np.testing.assert_allclose(grad[:, i], fd, rtol=0.0, atol=1e-7 / scale)
        # Euler: the gauge is 1-homogeneous
        np.testing.assert_allclose((xs * grad).sum(axis=1), body.gauge(xs), rtol=1e-13)
        assert body.gauge_gradient(xs[0]).tolist() == grad[0].tolist()

    @pytest.mark.parametrize("scale", [1.0, 0.37])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 12])
    def test_lp_columns_equal_broadcast(self, d, p, scale):
        # |x_k| / |x|_p divided one column at a time against the broadcast
        # over whole rows, for 2-D and 1-D input
        body = lp_ball(d, p, scale)
        x = np.random.default_rng(d).standard_normal((3000, d))
        x[:50] = np.random.default_rng(int(2 * p)).choice([0.0, -0.0, 1.0, -3.0], size=(50, d))
        x[:50, -1] = -3.0  # signed zeros and ties, but no zero row
        x[50] = 0.5
        for v in (x, x[7], x[0]):
            want = np.sign(v) * (np.abs(v) / np.expand_dims(_lp_norm(v, p), -1)) ** (p - 1.0) / scale
            got = body.gauge_gradient(v)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_large_p_is_the_cube(self):
        xs = np.random.default_rng(4).normal(size=(40, 3))
        grad = lp_ball(3, 1e6).gauge_gradient(xs)
        np.testing.assert_allclose(grad, cube(3, side=2.0).gauge_gradient(xs), atol=1e-12)


class TestVolume:
    def test_disk(self):
        assert closed_form_volume(lp_ball(2, 2)) == pytest.approx(math.pi)

    def test_cross_polytope_2d(self):
        assert closed_form_volume(lp_ball(2, 1)) == pytest.approx(2.0)

    def test_scale_power_law(self):
        b = lp_ball(3, 2, scale=1.5)
        assert closed_form_volume(b) == pytest.approx(closed_form_volume(lp_ball(3, 2)) * 1.5**3)

    def test_lp34_against_rejection_oracle(self):
        # 10^7-sample rejection estimate of the l_3 ball volume in R^4
        body = lp_ball(4, 3)
        rng = np.random.default_rng(42)
        n = 10_000_000
        hits = 0
        for _ in range(10):
            pts = rng.uniform(-1, 1, size=(n // 10, 4))
            hits += int(np.count_nonzero(body.gauge(pts) <= 1.0))
        p = hits / n
        est = 16.0 * p
        se = 16.0 * math.sqrt(p * (1 - p) / n)
        assert abs(est - closed_form_volume(body)) <= 3 * se

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_simplex_diff_hull_vs_rogers_shephard(self, d):
        # vol((S - S)/2) = binom(2d, d) vol(S) / 2^d for the regular simplex S
        truth = math.comb(2 * d, d) * regular_simplex_volume(d) / 2.0**d
        assert closed_form_volume(simplex_difference(d)) == pytest.approx(truth, rel=1e-12)
        assert closed_form_volume(simplex_difference(d, scale=1.5)) == pytest.approx(truth * 1.5**d, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_hpoly_cube_hull(self, d):
        assert closed_form_volume(unit_cube_hpoly(d)) == pytest.approx(2.0**d, rel=1e-12)
        assert closed_form_volume(unit_cube_hpoly(d).scaled(0.5)) == pytest.approx(1.0, rel=1e-12)

    def test_scaled_copies_share_the_hull(self):
        body = unit_cube_hpoly(3)
        assert normalize_to_unit_volume(body).polytope is body.polytope


class TestNormalize:
    def test_disk_scale(self):
        u = normalize_to_unit_volume(lp_ball(2, 2))
        assert u.scale == pytest.approx(math.pi**-0.5)

    def test_unit_cube_unchanged(self):
        u = normalize_to_unit_volume(cube(4))
        assert u.scale == pytest.approx(0.5)

    def test_l1_d3_scale(self):
        u = normalize_to_unit_volume(lp_ball(3, 1))
        assert u.scale == pytest.approx((6.0 / 8.0) ** (1.0 / 3.0))

    def test_idempotent(self):
        u = normalize_to_unit_volume(lp_ball(3, 2, scale=2.3))
        again = normalize_to_unit_volume(u)
        assert again.scale == pytest.approx(u.scale)


class TestCircumradius:
    def test_cube_corner(self):
        assert lp_ball(5, math.inf).circumradius() == pytest.approx(math.sqrt(5))

    def test_ball(self):
        assert lp_ball(3, 2, scale=0.8).circumradius() == pytest.approx(0.8)

    def test_cross_polytope(self):
        assert lp_ball(6, 1).circumradius() == pytest.approx(1.0)

    def test_certified_for_hpoly(self):
        assert unit_cube_hpoly(3).circumradius() == pytest.approx(math.sqrt(3))
        assert unit_cube_hpoly(3).scaled(2.0).circumradius() == pytest.approx(2.0 * math.sqrt(3))

    def test_simplex_diff(self):
        for d in (1, 2, 5):
            assert simplex_difference(d, scale=2.0).circumradius() == pytest.approx(math.sqrt(2.0))

    def test_contains_samples(self):
        rng = np.random.default_rng(1)
        for b in BODIES:
            pts = sample_uniform(b, rng, 500)
            assert np.all(np.linalg.norm(pts, axis=1) <= b.circumradius() + 1e-9)


class TestSampleUniform:
    def test_inside_and_symmetric(self):
        rng = np.random.default_rng(2)
        b = lp_ball(3, 2)
        pts = sample_uniform(b, rng, 1_000_000)
        assert np.all(b.gauge(pts) <= 1.0)
        # coordinate means within 3 sigma of zero
        sigma = pts.std(axis=0) / math.sqrt(len(pts))
        assert np.all(np.abs(pts.mean(axis=0)) <= 3 * sigma)

    def test_half_scale_fraction(self):
        # vol(K/2) = 2^-d vol(K)
        rng = np.random.default_rng(3)
        b = lp_ball(3, 1)
        n = 200_000
        pts = sample_uniform(b, rng, n)
        p = np.count_nonzero(b.gauge(pts) <= 0.5) / n
        se = math.sqrt(2.0**-3 * (1 - 2.0**-3) / n)
        assert abs(p - 2.0**-3) <= 3 * se

    def test_determinism(self):
        b = lp_ball(2, 2)
        a = sample_uniform(b, np.random.default_rng(9), 100)
        c = sample_uniform(b, np.random.default_rng(9), 100)
        assert np.array_equal(a, c)

    def test_efficiency_floor(self):
        with pytest.raises(RejectionEfficiencyError):
            sample_uniform(lp_ball(12, 1), np.random.default_rng(0), 10, efficiency_floor=1e-3)

    @staticmethod
    def full_batch_reference(body, rng, n):
        """sample_uniform as it gauged every drawn row, batch by batch."""
        half = body.bounding_halfwidths()
        parts, got = [], 0
        while got < n:
            pts = uniform_box(rng, half, max(4 * n, 1 << 14))
            parts.append(pts[body.gauge(pts) <= 1.0][: n - got])
            got += len(parts[-1])
        return np.concatenate(parts)

    @pytest.mark.parametrize(
        "body",
        [lp_ball(3, 3), cube(3), unit_cube_hpoly(2), criterion4_hpolytope(), simplex_difference(3), lp_ball(4, 1)],
        ids=["lp3", "cube", "hpoly_square", "hpoly_criterion4", "simplex_diff", "cross_polytope_d4"],
    )
    @pytest.mark.parametrize("n", [1, 10, 100, 1000, 30_000])
    def test_early_stop_matches_full_batch(self, body, n):
        # n <= 1000 gauges a first slice shorter than a chunk; n = 30k draws
        # 120k rows, 4 gauge chunks; the d = 4 cross-polytope accepts 1/24
        # of its box, so it needs a second batch.  Both generators hold a
        # buffered 32-bit half, which the skip keeps
        assert 4 * 30_000 > 3 * GAUGE_CHUNK
        a, b = np.random.default_rng(n), np.random.default_rng(n)
        assert a.integers(2**32, dtype=np.uint32) == b.integers(2**32, dtype=np.uint32)
        got = sample_uniform(body, a, n)
        want = self.full_batch_reference(body, b, n)
        assert np.array_equal(got, want)
        assert a.bit_generator.state == b.bit_generator.state

    def test_first_slice_gauges_the_expected_need(self, monkeypatch):
        # 10 points of lp3 at d = 3 (about 0.71 of its box) gauge one slice
        # of ceil(1.25 * 10 / 0.71) + 64 rows, not a whole chunk
        body = lp_ball(3, 3)
        rows = []
        gauge = type(body).gauge
        monkeypatch.setattr(type(body), "gauge", lambda self, x: rows.append(len(x)) or gauge(self, x))
        sample_uniform(body, np.random.default_rng(0), 10)
        assert rows == [math.ceil(12.5 * 8.0 / closed_form_volume(body)) + 64]

    def test_more_slices_when_the_first_falls_short(self):
        # one point of the d = 4 cross-polytope (1/24 of its box): a first
        # slice of ceil(1.25 * 24) + 64 rows, float rounding included, that
        # holds no point of the body on some seeds
        body = lp_ball(4, 1)
        first = math.ceil(1.25 * 16.0 / closed_form_volume(body)) + 64
        assert first in (94, 95)
        seed = 0
        while (body.gauge(uniform_box(np.random.default_rng(seed), np.ones(4), first)) <= 1.0).any():
            seed += 1
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_uniform(body, a, 1)
        assert np.array_equal(got, self.full_batch_reference(body, b, 1))
        assert a.bit_generator.state == b.bit_generator.state

    def test_efficiency_floor_thin_slab(self):
        # a diagonal slab of width 2e-4 fills ~1e-4 of its bounding box
        slab = hpolytope([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]], [1e-4, 1e-4, 1.0, 1.0])
        with pytest.raises(RejectionEfficiencyError, match="acceptance rate"):
            sample_uniform(slab, np.random.default_rng(4), 1000, efficiency_floor=1e-3)


def generator_state(rng: np.random.Generator) -> str:
    """The bit generator's whole state, arrays included, as one string."""
    return json.dumps(rng.bit_generator.state, sort_keys=True, default=np.ndarray.tolist)


class TestSkipDoubles:
    """skip_doubles(rng, k) leaves the state that drawing k doubles leaves."""

    PREFIXES = {
        "fresh": lambda g: None,
        "after-uint32": lambda g: g.integers(1000, size=3, dtype=np.uint32),
        "after-float32": lambda g: g.random(5, dtype=np.float32),
    }

    @pytest.mark.parametrize("k", [0, 1, 7, 3 * GAUGE_CHUNK + 5])
    @pytest.mark.parametrize("prefix", PREFIXES)
    @pytest.mark.parametrize(
        "bit_generator", [np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox]
    )
    def test_equals_drawing_the_doubles(self, bit_generator, prefix, k):
        # MT19937 has no advance and Philox buffers its doubles: both draw
        a, b = (np.random.Generator(bit_generator(k + 11)) for _ in range(2))
        self.PREFIXES[prefix](a)
        self.PREFIXES[prefix](b)
        if prefix != "fresh" and bit_generator is np.random.PCG64:
            assert a.bit_generator.state["has_uint32"] == 1
        skip_doubles(a, k)
        b.random(k)
        assert generator_state(a) == generator_state(b)
        assert a.integers(2**32, size=3, dtype=np.uint32).tolist() == b.integers(2**32, size=3, dtype=np.uint32).tolist()
        assert a.random() == b.random()


class TestFoldColumns:
    OPS = [np.add, np.maximum, np.minimum, np.multiply]

    @staticmethod
    def assert_same_bits(got, want):
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @staticmethod
    def rows(k, seed):
        """Rows over 16 decades, rows of +-0.0, rows holding +-inf, rows of
        one repeated value."""
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((600, k)) * 10.0 ** rng.integers(-8, 9, size=(600, k))
        w[:100] = rng.choice([0.0, -0.0], size=(100, k))
        w[100:200] = rng.choice([0.0, -0.0, 1.5, -2.0, np.inf, -np.inf], size=(100, k))
        w[200:250] = rng.standard_normal((50, 1))
        return w

    @pytest.mark.parametrize("op", OPS, ids=lambda op: op.__name__)
    @pytest.mark.parametrize("k", range(1, 13))
    def test_equals_numpy_reduction(self, op, k):
        w = self.rows(k, k)
        if op is np.add:
            # callers sum absolute values and squares, never a row of only
            # -0.0 (numpy's sum of that row is +0.0, the fold's -0.0)
            w[:200] = np.abs(w[:200])
        reference = {np.add: np.sum, np.maximum: np.max, np.minimum: np.min, np.multiply: np.prod}[op]
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, inf * 0, 1e8^12
            for v in (w, np.asfortranarray(w), w.reshape(20, 30, k), w[:0], w[7], w[150]):
                self.assert_same_bits(fold_columns(op, v), reference(v, axis=-1))


class TestUniformBox:
    @pytest.mark.parametrize("n", [1, 7, 100_000])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 7, 8, 12])
    def test_equals_broadcast_uniform(self, d, n):
        half = np.random.default_rng(d).uniform(0.1, 3.0, size=d)
        a, b = np.random.default_rng(n + d), np.random.default_rng(n + d)
        got = uniform_box(a, half, n)
        want = b.uniform(-half, half, size=(n, d))
        assert got.shape == (n, d)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # the generator is left in the same state
        assert np.array_equal(a.random(3), b.random(3))


class TestLpNorm:
    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 12])
    def test_equals_broadcast_terms(self, d, p):
        # the column terms against (|x| / max)^p over whole rows, summed by
        # fold_columns: numpy's pairwise sum from d = 8 on
        rng = np.random.default_rng(d)
        x = rng.standard_normal((3000, d)) * 10.0 ** rng.integers(-8, 9, size=(3000, d))
        x[:50] = 0.0
        x[50:100] = rng.choice([0.0, -0.0, 1.0, -3.0], size=(50, d))
        for v in (x, x.reshape(30, 100, d), x[7]):
            a = np.abs(v)
            m = fold_columns(np.maximum, a)
            safe = np.where(m > 0, m, 1.0)
            want = m * fold_columns(np.add, (a / safe[..., None]) ** p) ** (1.0 / p)
            got = _lp_norm(v, p)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


vec = st.integers(-100, 100).map(lambda k: k / 25.0)


@given(st.lists(st.tuples(vec, vec, vec), min_size=2, max_size=2))
@settings(max_examples=200, deadline=None)
def test_gauge_symmetry_and_triangle(pair):
    x = np.asarray(pair[0])
    y = np.asarray(pair[1])
    for b in BODIES:
        if b.d != 3:
            continue
        gx, gy = b.gauge(x), b.gauge(y)
        assert b.gauge(-x) == pytest.approx(gx, abs=1e-10)
        assert b.gauge(2.5 * x) == pytest.approx(2.5 * gx, abs=1e-10)
        assert b.gauge(x + y) <= gx + gy + 1e-10


@given(st.tuples(vec, vec, vec), st.tuples(vec, vec, vec))
@settings(max_examples=200, deadline=None)
def test_gauge_support_duality(xt, ut):
    # x . u <= gauge(x) * support(u), the generalized Cauchy-Schwarz
    x, u = np.asarray(xt), np.asarray(ut)
    for b in BODIES:
        if b.d != 3:
            continue
        assert float(x @ u) <= b.gauge(x) * b.support(u) + 1e-12


def test_support_attained():
    # support(u) is attained by some point of gauge <= 1
    rng = np.random.default_rng(4)
    for b in BODIES:
        pts = sample_uniform(b, rng, 20_000)
        for _ in range(5):
            u = rng.normal(size=b.d)
            h = b.support(u)
            best = (pts @ u).max()
            assert best <= h + 1e-9
            assert best >= 0.8 * h  # attained up to sampling resolution


class TestSimplexDifferenceEmbedding:
    def test_helmert_orthonormal(self):
        for d in (1, 2, 3, 5):
            E = helmert_basis(d)
            assert np.allclose(E.T @ E, np.eye(d), atol=1e-12)
            assert np.allclose(E.T @ np.ones(d + 1), 0.0, atol=1e-12)

    def test_membership_equals_embedded_l1(self):
        # both directions, on points straddling the boundary
        rng = np.random.default_rng(5)
        for d in (2, 3):
            body = simplex_difference(d)
            E = helmert_basis(d)
            xs = rng.uniform(-1.5, 1.5, size=(1000, d))
            inside_gauge = body.gauge(xs) <= 1.0
            inside_l1 = np.abs(xs @ E.T).sum(axis=1) <= 1.0
            assert np.array_equal(inside_gauge, inside_l1)
            assert inside_gauge.any() and (~inside_gauge).any()

    def test_difference_of_simplex_points_characterization(self):
        # z in (S-S)/2 iff 2z = u - v with u, v in the simplex; the dual
        # route uses the positive-part sum of the lifted vector
        rng = np.random.default_rng(6)
        for d in (2, 3):
            body = simplex_difference(d)
            E = helmert_basis(d)
            xs = rng.uniform(-1.0, 1.0, size=(500, d))
            w = 2.0 * xs @ E.T
            dual = np.maximum(w, 0.0).sum(axis=1) <= 1.0
            assert np.array_equal(body.gauge(xs) <= 1.0, dual)


class TestSpecFiles:
    def test_round_trip(self):
        for b in BODIES:
            spec = body_to_spec(b)
            b2 = body_from_spec(spec)
            assert body_to_spec(b2) == spec
            x = np.full(b.d, 0.3)
            assert b2.gauge(x) == pytest.approx(b.gauge(x))

    def test_inf_encoding(self):
        spec = body_to_spec(lp_ball(2, math.inf))
        assert spec["p"] == "inf"
        assert math.isinf(body_from_spec(spec).p)
        assert math.isinf(body_from_spec({**spec, "p": "Infinity"}).p)

    @pytest.mark.parametrize(
        "spec,key",
        [
            ({"kind": "lp", "d": 2}, "p"),
            ({"d": 2, "p": 2}, "kind"),
            ({"kind": "simplex_diff"}, "d"),
            ({"kind": "hpoly", "d": 1, "facets": [{"normal": [1.0]}]}, "offset"),
        ],
        ids=["p", "kind", "d", "offset"],
    )
    def test_missing_key_named(self, spec, key):
        with pytest.raises(ValueError, match=f"^body spec has no key '{key}'$"):
            body_from_spec(spec)

    @pytest.mark.parametrize(
        "spec,message",
        [
            ({"kind": "lp", "d": None, "p": 2}, "'d' must be an integer, got None"),
            ({"kind": "simplex_diff", "d": "three"}, "'d' must be an integer, got 'three'"),
            ({"kind": "lp", "d": 2, "p": [2]}, "'p' must be a real number or 'inf', got [2]"),
            ({"kind": "lp", "d": 2, "p": 2, "scale": None}, "'scale' must be a real number, got None"),
            ({"kind": "hpoly", "d": 1, "facets": 3}, "'facets' must be a list of objects with a normal and an offset, got 3"),
            ({"kind": "hpoly", "d": 1, "facets": [1.0]}, "'facets' must be a list of objects with a normal and an offset, got [1.0]"),
            # d follows the config's integer rule: no float, bool or string, even one int() reads
            ({"kind": "lp", "d": 2.7, "p": 2}, "'d' must be an integer, got 2.7"),
            ({"kind": "lp", "d": 2.0, "p": 2}, "'d' must be an integer, got 2.0"),
            ({"kind": "lp", "d": True, "p": 2}, "'d' must be an integer, got True"),
            ({"kind": "simplex_diff", "d": "3"}, "'d' must be an integer, got '3'"),
            # scale and p follow the config's real-number rule: no bool or numeric string
            ({"kind": "lp", "d": 2, "p": 2, "scale": "2"}, "'scale' must be a real number, got '2'"),
            ({"kind": "simplex_diff", "d": 2, "scale": True}, "'scale' must be a real number, got True"),
            ({"kind": "lp", "d": 2, "p": "3"}, "'p' must be a real number or 'inf', got '3'"),
            ({"kind": "lp", "d": 2, "p": False}, "'p' must be a real number or 'inf', got False"),
        ],
        ids=["null-d", "str-d", "list-p", "null-scale", "int-facets", "number-facet",
             "fractional-d", "float-d", "bool-d", "numeric-str-d", "numeric-str-scale", "bool-scale",
             "numeric-str-p", "bool-p"],
    )
    def test_wrong_type_named(self, spec, message):
        with pytest.raises(ValueError, match=f"^body spec key {re.escape(message)}$"):
            body_from_spec(spec)

    @pytest.mark.parametrize("scale", [-1.0, 0.0, -0.0, math.nan, math.inf], ids=["negative", "zero", "minus-zero", "nan", "inf"])
    @pytest.mark.parametrize("body", [lp_ball(2, 2), cube(3), unit_cube_hpoly(2), simplex_difference(3)],
                             ids=["lp", "cube", "hpoly", "simplex_diff"])
    def test_scale_finite_and_positive(self, body, scale):
        # every kind, from a spec and by scaling a body
        with pytest.raises(ValueError, match=f"^scale must be finite and positive, got {scale}$"):
            body_from_spec({**body_to_spec(body), "scale": scale})
        with pytest.raises(ValueError, match=f"^scale must be finite and positive, got {body.scale * scale}$"):
            body.scaled(scale)

    @pytest.mark.parametrize("d", [0, -1])
    def test_dimension_at_least_one(self, d):
        for spec in ({"kind": "lp", "d": d, "p": 2}, {"kind": "simplex_diff", "d": d}):
            with pytest.raises(ValueError, match=f"^d must be an integer >= 1, got {d}$"):
                body_from_spec(spec)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_hpoly_numbers_finite(self, bad):
        eye = np.eye(2)
        normals, offsets = np.vstack([eye, -eye]), np.ones(4)
        with pytest.raises(ValueError, match="^offsets must be finite and positive"):
            hpolytope(normals, np.where([True, False, True, False], bad, offsets))
        normals[[0, 2], 0] = bad, -bad
        with pytest.raises(ValueError, match="^facet normals must be finite$"):
            hpolytope(normals, offsets)

    @pytest.mark.parametrize("spec", [[1], "lp", None], ids=["list", "str", "null"])
    def test_not_an_object(self, spec):
        with pytest.raises(ValueError, match="^a body spec must be a JSON object$"):
            body_from_spec(spec)

    def test_asymmetric_facets_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            hpolytope([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.0, 1.0, 1.0])

    def test_nonpositive_offset_rejected(self):
        with pytest.raises(ValueError):
            hpolytope([[1.0, 0.0], [-1.0, 0.0]], [1.0, -1.0])

    def test_unbounded_rejected(self):
        # a slab in R^2, and a prism over a square in R^3: normals span too little
        with pytest.raises(ValueError, match="unbounded"):
            hpolytope([[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0])
        square = [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, -1.0, -1.0]]
        with pytest.raises(ValueError, match="unbounded"):
            hpolytope(square, np.ones(4))
