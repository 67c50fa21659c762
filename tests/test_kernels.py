import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from proxilearn import kernels
from proxilearn.data import query_rows
from proxilearn.kernels import (
    _BLOCK_BYTES,
    KernelSpec,
    KernelSpecs,
    effect_curve,
    gram,
    group_gram,
    median_heuristic,
)
from tests.conftest import hadamard, rng_dataset


def pdist_median_heuristic(pts):
    """Reference: per-column median of the full pdist, with the pooled
    median over all columns for zero-median columns."""
    columns = [pdist(pts[:, d:d + 1]) for d in range(pts.shape[1])]
    medians = np.array([np.median(c) for c in columns])
    if (medians <= 0).any():
        pooled = np.median(np.concatenate(columns))
        medians[medians <= 0] = pooled if pooled > 0 else 1.0
    return medians


def median_case(kind, n, rng):
    if kind == "normal":
        return rng.normal(size=(n, 3)) * [1.0, 5.0, 0.01]
    if kind == "ties":
        return rng.integers(0, 3, size=(n, 3)).astype(float)
    if kind == "rounded":
        return np.round(rng.normal(size=(n, 3)), 1)
    if kind == "offset":
        return 1e6 + 1e-3 * rng.normal(size=(n, 3))
    if kind == "half-constant":
        pts = rng.normal(size=(n, 3))
        pts[:n // 2 + 1] = 0.7
        return pts
    if kind == "wide":                 # lognormal, sigma = 20
        return rng.lognormal(sigma=20.0, size=(n, 3))
    if kind == "powers":
        # +-2^e over 1000 binades; squared distances stay finite and normal.
        return np.ldexp(rng.choice([-1.0, 1.0], size=(n, 3)),
                        rng.integers(-500, 501, size=(n, 3)))
    if kind == "tied-median":
        # Two values split in halves: the gap between them is the median
        # and is tied across more than half of the pairs.
        halves = rng.permuted(np.tile(np.arange(n) % 2, (3, 1)), axis=1).T
        return halves * [1.7, 0.1, 3e5] + [0.3, -2.0, 7.0]
    constant = int(kind[-1])           # "constant-k": k constant columns
    pts = rng.normal(size=(n, 3))
    pts[:, :constant] = [1.5, -2.0, 0.25][:constant]
    return pts


def centred_scaled(pa, pb, spec):
    """Both point sets less pb's column mean, over the bandwidths."""
    centre = pb.mean(axis=0) if pb.shape[0] else 0.0
    return (pa - centre) / spec.bandwidths, (pb - centre) / spec.bandwidths


class TestGram:
    def test_single_point_is_one(self):
        p = np.array([[0.3, -1.2]])
        spec = KernelSpec([0.7, 2.0])
        assert gram(p, p, spec) == pytest.approx(np.ones((1, 1)))

    def test_unit_distance_unit_bandwidth(self):
        k = gram(np.array([[0.0]]), np.array([[1.0]]), KernelSpec([1.0]))
        assert k[0, 0] == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_product_of_per_dimension_grams(self):
        # oracle: per-dimension 1-D Grams computed independently
        rng = np.random.default_rng(42)
        pts = rng.normal(size=(5, 2))
        spec = KernelSpec([1.0, 2.0])
        full = gram(pts, pts, spec)
        expected = np.ones((5, 5))
        for d, sigma in enumerate(spec.bandwidths):
            onedim = np.empty((5, 5))
            for i in range(5):
                for j in range(5):
                    diff = pts[i, d] - pts[j, d]
                    onedim[i, j] = np.exp(-diff**2 / (2 * sigma**2))
            expected *= onedim
        np.testing.assert_allclose(full, expected, atol=1e-12)

    def test_zero_dim_gram_is_all_ones(self):
        k = gram(np.empty((3, 0)), np.empty((4, 0)), KernelSpec([]))
        np.testing.assert_array_equal(k, np.ones((3, 4)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            gram(np.ones((2, 3)), np.ones((2, 3)), KernelSpec([1.0]))

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec([1.0, 0.0])
        with pytest.raises(ValueError):
            KernelSpec([-1.0])
        with pytest.raises(ValueError):
            KernelSpec([np.inf])

    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            pts = rng.normal(size=(6, 3))
            k = gram(pts, pts, KernelSpec([0.5, 1.0, 3.0]))
            np.testing.assert_allclose(k, k.T, atol=1e-15)
            np.testing.assert_allclose(np.diag(k), 1.0, atol=1e-15)
            assert (k > 0).all() and (k <= 1.0).all()

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        pa, pb = rng.normal(size=(5, 2)), rng.normal(size=(4, 2))
        spec = KernelSpec([0.8, 1.3])
        shift = np.array([10.0, -3.0])
        np.testing.assert_allclose(
            gram(pa, pb, spec), gram(pa + shift, pb + shift, spec),
            atol=1e-12)

    @pytest.mark.parametrize("offset", [1e4, 1e6, -1e8])
    def test_translation_far_from_origin(self, offset):
        # The expansion |a|^2 - 2 a.b + |b|^2 of uncentred points would
        # cancel about offset^2 eps (2e-4 at 1e6); the only error left is
        # the rounding of the shifted inputs.
        rng = np.random.default_rng(4)
        pa, pb = rng.normal(size=(30, 2)), rng.normal(size=(20, 2))
        spec = KernelSpec([0.8, 1.3])
        np.testing.assert_allclose(
            gram(pa + offset, pb + offset, spec), gram(pa, pb, spec),
            rtol=0, atol=10 * abs(offset) * np.finfo(float).eps)

    def test_joint_scale_invariance(self):
        rng = np.random.default_rng(5)
        pa, pb = rng.normal(size=(5, 2)), rng.normal(size=(4, 2))
        spec = KernelSpec([0.8, 1.3])
        factor = 7.5
        scaled = KernelSpec(spec.bandwidths * factor)
        np.testing.assert_allclose(
            gram(pa, pb, spec), gram(pa * factor, pb * factor, scaled),
            rtol=1e-12)

    @pytest.mark.parametrize("shape", [(1, 1, 1), (7, 5, 1), (40, 30, 3)])
    def test_in_place_matches_expression(self, shape):
        # Reference: the temporaries-allocating expression the in-place
        # arithmetic replaced, on points centred on pb's mean as ``gram``
        # centres them; the operations are the same, so the bits are.
        n, m, d = shape
        rng = np.random.default_rng(11)
        pa, pb = rng.normal(size=(n, d)), rng.normal(size=(m, d))
        spec = KernelSpec(rng.uniform(0.5, 2.0, size=d))
        sa, sb = centred_scaled(pa, pb, spec)
        sq = (np.sum(sa**2, axis=1)[:, None] - 2.0 * sa @ sb.T
              + np.sum(sb**2, axis=1)[None, :])
        np.maximum(sq, 0.0, out=sq)
        np.testing.assert_array_equal(gram(pa, pb, spec), np.exp(-0.5 * sq))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("rows", ["empty-a", "empty-b", "one", "ragged",
                                      "wide", "wide-odd"])
    def test_blocked_matches_one_buffer_expression(self, rows, d):
        # Reference: the whole Gram as one buffer, as before row blocks,
        # on points centred on pb's mean as ``gram`` centres them.
        # Every entry runs the same operations on the same inputs, but the
        # cross term sa.sb is a length-d BLAS dot product whose rounding
        # (order and fusion of the d multiply-adds) can depend on where the
        # entry falls in the BLAS tiling of a block, so for d > 1 only the
        # error bound of that sum is guaranteed; for d = 1 it is one exact
        # product and the bits must agree.
        m = 2000
        per_block = _BLOCK_BYTES // (8 * m)
        wide = _BLOCK_BYTES // 8 + 7       # one row exceeds the budget
        n, m = {"empty-a": (0, 9), "empty-b": (9, 0), "one": (1, m),
                "ragged": (3 * per_block + 1, m + 3), "wide": (2, wide),
                "wide-odd": (5, wide)}[rows]
        rng = np.random.default_rng(21)
        pa, pb = rng.normal(size=(n, d)), rng.normal(size=(m, d))
        spec = KernelSpec(rng.uniform(0.5, 2.0, size=d))
        sa, sb = centred_scaled(pa, pb, spec)
        expected = sa @ sb.T
        expected *= -2.0
        expected += np.sum(sa**2, axis=1)[:, None]
        expected += np.sum(sb**2, axis=1)[None, :]
        np.maximum(expected, 0.0, out=expected)
        expected *= -0.5
        np.exp(expected, out=expected)
        got = gram(pa, pb, spec)
        assert got.shape == (n, m) and got.flags.c_contiguous
        if d == 1:
            np.testing.assert_array_equal(got, expected)
        else:
            # |d sq| <= (d + 2) eps (|sa|^2 + |sb|^2); exp adds 2 ulp.
            eps = np.finfo(float).eps
            scale = np.sum(sa**2, axis=1)[:, None] + np.sum(sb**2, axis=1)
            bound = expected * (d + 2) * eps * scale + 2 * np.spacing(expected)
            assert (np.abs(got - expected) <= bound).all()

    @pytest.mark.parametrize("n, m", [(3 * (_BLOCK_BYTES // 8000) + 1, 1000),
                                      (0, 5), (5, 0), (0, 0)])
    def test_blocks_are_written_in_place(self, monkeypatch, n, m):
        # Every block's product lands in the output's own memory; empty
        # inputs run no product at all.
        calls = []

        def spy(*args, **kwargs):
            filled = real(*args, **kwargs)
            calls.append(np.shares_memory(filled, kwargs["c"]))
            return filled

        real = kernels.dgemm
        monkeypatch.setattr(kernels, "dgemm", spy)
        rng = np.random.default_rng(4)
        pa, pb = rng.normal(size=(n, 2)), rng.normal(size=(m, 2))
        spec = KernelSpec([0.7, 1.2])
        got = gram(pa, pb, spec)
        monkeypatch.undo()
        assert got.shape == (n, m)
        np.testing.assert_array_equal(got, gram(pa, pb, spec))
        assert calls == ([True] * 3 if n and m else [])

    def test_psd_via_jittered_cholesky(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(20, 2))
        k = gram(pts, pts, KernelSpec([1.0, 1.0]))
        np.linalg.cholesky(k + 1e-10 * np.eye(20))


class TestEffectCurve:
    def test_matches_weighted_kernel_sum(self):
        rng = np.random.default_rng(4)
        a_sample = rng.normal(size=(13, 1))
        weights = rng.normal(size=13)
        grid = np.linspace(-1.0, 1.0, 5)
        spec = KernelSpec(np.array([0.7]))
        curve = effect_curve(a_sample, spec, weights, grid)
        expected = [sum(w * np.exp(-(a - s) ** 2 / (2 * 0.7 ** 2))
                        for s, w in zip(a_sample[:, 0], weights))
                    for a in grid]
        np.testing.assert_allclose(curve.estimate, expected, rtol=1e-13)
        np.testing.assert_array_equal(curve.grid, grid)

    def test_weight_count_checked(self):
        with pytest.raises(ValueError, match="4 curve weights for 3"):
            effect_curve(np.zeros((3, 1)), KernelSpec(np.array([1.0])),
                         np.ones(4), [0.0])


class TestHadamard:
    def test_ones_identity(self):
        rng = np.random.default_rng(7)
        g = rng.uniform(size=(4, 4))
        np.testing.assert_array_equal(hadamard(g, np.ones((4, 4))), g)

    def test_scalar_product(self):
        assert hadamard(np.array([[3.0]]), np.array([[4.0]]))[0, 0] == 12.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            hadamard(np.ones((2, 2)), np.ones((3, 2)))

    def test_psd_preserved(self):
        # oracle: independent symmetric eigensolver
        rng = np.random.default_rng(8)
        p1, p2 = rng.normal(size=(4, 1)), rng.normal(size=(4, 2))
        g1 = gram(p1, p1, KernelSpec([1.0]))
        g2 = gram(p2, p2, KernelSpec([0.5, 2.0]))
        product = hadamard(g1, g2)
        assert np.linalg.eigvalsh(product).min() >= -1e-8


def rows_of_widths(points, groups="axz"):
    """The query rows of ``points``, one block per named group, coerced
    against a sample of the blocks' widths."""
    widths = SimpleNamespace(**{g: np.empty((0, p.shape[1]))
                                for g, p in zip(groups, points)})
    return query_rows(widths, **dict(zip(groups, points)))


class TestProductGram:
    """``group_gram`` over query rows is the product of the group
    kernels."""

    @pytest.mark.parametrize("widths", [(1, 0, 2), (1, 2, 3), (0, 0, 0)])
    def test_matches_hadamard_of_group_grams(self, widths):
        rng = np.random.default_rng(12)
        left = [rng.normal(size=(9, d)) for d in widths]
        right = [rng.normal(size=(6, d)) for d in widths]
        specs = [KernelSpec(rng.uniform(0.5, 2.0, size=d)) for d in widths]
        expected = np.ones((9, 6))
        for pa, pb, spec in zip(left, right, specs):
            expected = hadamard(expected, gram(pa, pb, spec))
        got = group_gram("axz", rows_of_widths(left), rows_of_widths(right),
                         KernelSpecs(*specs, w=KernelSpec([1.0])))
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_group_width_checked_per_group(self):
        # Concatenated widths agree (3 == 3), but each group's does not.
        rows = rows_of_widths([np.ones((2, 2)), np.ones((2, 1))], "ax")
        specs = SimpleNamespace(a=KernelSpec([1.0]),
                                x=KernelSpec([1.0, 1.0]))
        with pytest.raises(ValueError, match="dimension mismatch"):
            group_gram("ax", rows, rows, specs)


# Each group list with its blocks named by hand, in the same order.
GROUP_BLOCKS = {
    "awx": lambda d: (d.a, d.w, d.x),
    "azx": lambda d: (d.a, d.z, d.x),
    "ax": lambda d: (d.a, d.x),
    "axwz": lambda d: (d.a, d.x, d.w, d.z),
    "xw": lambda d: (d.x, d.w),
    "x": lambda d: (d.x,),
}


class TestGroupGram:
    @pytest.mark.parametrize("dx", [0, 2])
    @pytest.mark.parametrize("groups", sorted(GROUP_BLOCKS))
    def test_matches_product_gram_of_listed_blocks(self, groups, dx):
        # One gram over the hand-stacked blocks and bandwidths.
        left, right = rng_dataset(1, 9, dx=dx), rng_dataset(2, 6, dx=dx)
        specs = KernelSpecs.from_data(left)
        blocks = GROUP_BLOCKS[groups]
        bandwidths = np.concatenate([s.bandwidths for s in blocks(specs)])
        expected = gram(np.hstack(blocks(left)), np.hstack(blocks(right)),
                        KernelSpec(bandwidths))
        got = group_gram(groups, left, right, specs)
        assert got.shape == (9, 6)
        np.testing.assert_array_equal(got, expected)
        if groups == "x" and dx == 0:
            np.testing.assert_array_equal(got, np.ones((9, 6)))

    def test_group_width_checked(self):
        left, right = rng_dataset(1, 5, dx=1), rng_dataset(2, 4, dx=0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            group_gram("ax", left, right, KernelSpecs.from_data(left))


class TestMedianHeuristic:
    def test_three_point_line(self):
        # pairwise distances {1, 1, 2}, median 1
        spec = median_heuristic(np.array([[0.0], [1.0], [2.0]]))
        assert spec.bandwidths == pytest.approx([1.0])

    def test_identical_points_fall_back_to_one(self):
        spec = median_heuristic(np.array([[2.0], [2.0]]))
        assert spec.bandwidths == pytest.approx([1.0])

    def test_constant_column_uses_pooled_median(self):
        pts = np.column_stack([np.zeros(4), [0.0, 1.0, 2.0, 3.0]])
        spec = median_heuristic(pts)
        pooled = np.median(np.concatenate([
            np.zeros(6),
            [abs(a - b) for i, a in enumerate([0, 1, 2, 3])
             for b in [0, 1, 2, 3][i + 1:]],
        ]))
        assert spec.bandwidths[0] == pytest.approx(pooled)
        assert spec.bandwidths[1] > 0

    def test_standard_normal_limit(self):
        # oracle: Monte-Carlo estimate of median |X - X'| for independent
        # standard normals (X - X' ~ N(0, 2), so the value is near 0.954)
        rng = np.random.default_rng(9)
        mc = np.median(np.abs(rng.normal(size=500_000)
                              - rng.normal(size=500_000)))
        spec = median_heuristic(rng.normal(size=(1000, 1)))
        assert spec.bandwidths[0] == pytest.approx(mc, abs=0.1)
        assert mc == pytest.approx(np.sqrt(2.0) * 0.6745, abs=0.01)

    @pytest.mark.parametrize("constant", [(), (1,), (0, 2), (0, 1, 2)])
    def test_matches_always_pooled_reference(self, constant):
        # Reference: the pooled median is always computed, then used only
        # for zero-median columns.
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(30, 3)) * [1.0, 4.0, 0.2]
        pts[:, list(constant)] = 1.5
        per_dim = [np.abs(pts[:, None, d] - pts[None, :, d])[
            np.triu_indices(30, 1)] for d in range(3)]
        expected = np.array([np.median(p) for p in per_dim])
        pooled = np.median(np.concatenate(per_dim))
        expected[expected <= 0] = pooled if pooled > 0 else 1.0
        np.testing.assert_array_equal(median_heuristic(pts).bandwidths,
                                      expected)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 50, 2000])
    @pytest.mark.parametrize("kind", [
        "normal", "ties", "rounded", "offset", "half-constant",
        "constant-0", "constant-1", "constant-2", "constant-3",
        "wide", "powers", "tied-median"])
    def test_matches_pdist_median_exactly(self, kind, n):
        pts = median_case(kind, n, np.random.default_rng(n))
        np.testing.assert_array_equal(median_heuristic(pts).bandwidths,
                                      pdist_median_heuristic(pts))

    @pytest.mark.parametrize("exponent", [530, -530])
    def test_power_of_two_scaling_is_exact(self, exponent):
        # Squared gaps would overflow (2^1060) or go subnormal (2^-1060);
        # the gaps themselves scale exactly, and so must the medians.
        pts = np.random.default_rng(15).normal(size=(50, 2))
        expected = np.ldexp(median_heuristic(pts).bandwidths, exponent)
        np.testing.assert_array_equal(
            median_heuristic(np.ldexp(pts, exponent)).bandwidths, expected)

    @pytest.mark.parametrize("scale", [1e160, 1e-160, 1e-170])
    def test_scales_with_data_far_from_unit_scale(self, scale):
        pts = np.random.default_rng(15).normal(size=(50, 1))
        got = median_heuristic(pts * scale).bandwidths
        np.testing.assert_allclose(
            got, median_heuristic(pts).bandwidths * scale, rtol=1e-15)

    def test_selection_draws_no_random_numbers(self, monkeypatch):
        pts = np.random.default_rng(14).normal(size=(50, 3))
        expected = pdist_median_heuristic(pts)

        def refuse(*args, **kwargs):
            raise AssertionError("the median heuristic drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        np.testing.assert_array_equal(median_heuristic(pts).bandwidths,
                                      expected)

    def test_memory_is_linear_in_n(self):
        # pdist would need 1.6 GB for one column at n = 20000.
        pts = np.random.default_rng(13).normal(size=(20_000, 1))
        tracemalloc.start()
        try:
            median_heuristic(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6

    def test_nonfinite_points_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            median_heuristic(np.array([[0.0], [np.nan], [1.0]]))

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="at least 2"):
            median_heuristic(np.array([[1.0]]))


def test_specs_from_data_cover_all_groups():
    data = rng_dataset(0, 12, dx=1)
    specs = KernelSpecs.from_data(data)
    assert specs.a.dim == 1
    assert specs.x.dim == 1
    assert specs.z.dim == 2
    assert specs.w.dim == 2


def test_specs_null_x_is_empty():
    data = rng_dataset(0, 12, dx=0)
    specs = KernelSpecs.from_data(data)
    assert specs.x.dim == 0
