"""Gaussian product kernels, Gram matrices and bandwidth heuristics.

Every variable group carries one bandwidth per scalar coordinate, and the
kernel over the group is the product of per-dimension Gaussian kernels
exp(-(a_d - b_d)^2 / (2 sigma_d^2)). A product over several groups is
therefore one Gaussian over the concatenated columns with the concatenated
bandwidths, so ``group_gram`` builds it as a single Gram matrix between
any two row sets with named groups: ``Dataset`` samples or the query rows
of ``data.query_rows``. A group with zero columns (a null covariate set)
has the constant kernel 1: it contributes nothing to the concatenation,
and downstream formulas hold verbatim.

A Gram matrix is filled one block of rows at a time, each block small
enough (about 1 MiB) to stay in cache through the whole distance-to-kernel
sequence, so the n x m result passes through main memory once. Points are
centred on the second set's mean, so no offset far from 0 cancels.

Every kernel estimator's effect curve E[Y | do(A = a)] is
k_A(a, A_s)' w for one weight vector w over a treatment sample A_s: the
product kernel separates the treatment from the averaged-out groups.
``effect_curve`` evaluates that form on a grid in O(n g). PMMR's bridge
and the ridge baselines are each a ``KernelExpansion`` h = sum_i alpha_i
k(v_i, .), alpha fitted by their own loss.

Bandwidths default to the median heuristic. The median of the n(n-1)/2
pairwise distances of a column is selected exactly in O(n log n) time and
O(n) memory from the sorted column, without forming the distances: a
deterministic bisection over the gap values with a bounded step count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm

from .data import GROUPS, Dataset, DoCurve
from .numerics import SearchRecord, matmul

# Bytes of output filled per block of rows in ``gram``: about L2-sized.
_BLOCK_BYTES = 1 << 20

# ``gram`` refuses points whose largest scaled squared norms sum past
# this, a quarter of the largest double, as their distances could overflow.
_NORM_LIMIT = np.finfo(float).max / 4

# The median selection bisects until its bracket holds at most this many
# pairs (or 4 per point, if larger), then materialises and partitions it.
_PAIR_BUDGET = 1 << 13


@dataclass(frozen=True)
class KernelSpec:
    """Per-dimension bandwidths of a Gaussian product kernel."""

    bandwidths: np.ndarray

    def __post_init__(self):
        bw = np.asarray(self.bandwidths, dtype=float).ravel()
        if bw.size and not (np.isfinite(bw).all() and (bw > 0).all()):
            raise ValueError("bandwidths must be strictly positive and finite")
        object.__setattr__(self, "bandwidths", bw)

    @property
    def dim(self) -> int:
        return self.bandwidths.shape[0]


def _columns(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    return pts[:, None] if pts.ndim == 1 else pts


def _check_dim(pa: np.ndarray, pb: np.ndarray, spec: KernelSpec) -> None:
    if pa.shape[1] != spec.dim or pb.shape[1] != spec.dim:
        raise ValueError(
            f"dimension mismatch: points have {pa.shape[1]}/{pb.shape[1]} "
            f"columns, spec has {spec.dim} bandwidths"
        )


def gram(points_a: np.ndarray, points_b: np.ndarray,
         spec: KernelSpec) -> np.ndarray:
    """Gram matrix of the Gaussian product kernel between two point sets.

    Parameters
    ----------
    points_a : ndarray of shape (n, d)
    points_b : ndarray of shape (m, d)
    spec : KernelSpec with d bandwidths

    Returns
    -------
    ndarray of shape (n, m) with entries in (0, 1].
    """
    pa, pb = _columns(points_a), _columns(points_b)
    _check_dim(pa, pb, spec)
    if spec.dim == 0:
        return np.ones((pa.shape[0], pb.shape[0]))
    n, m = pa.shape[0], pb.shape[0]
    if n == 0 or m == 0:
        return np.empty((n, m))
    # Product of per-dimension Gaussians == Gaussian of the scaled squared
    # Euclidean distance |sa|^2 - 2 sa.sb + |sb|^2, of points centred on
    # pb's mean so that no shared offset cancels. Each block of rows runs
    # the whole sequence while it is in cache. Blocks hold at least two
    # rows, so every block is a matrix product, as the whole Gram would be.
    centre = pb.mean(axis=0)
    sa, sb = pa - centre, pb - centre
    with np.errstate(over="ignore", invalid="ignore"):
        sa /= spec.bandwidths
        sb /= spec.bandwidths
        sq_a = np.sum(sa**2, axis=1)[:, None]
        sq_b = np.sum(sb**2, axis=1)
    # Every entry is exp(-d / 2) with d = |sa|^2 - 2 sa.sb + |sb|^2, and
    # Cauchy-Schwarz bounds the product and each partial sum of it by
    # (|sa|^2 + |sb|^2) / 2, so no step of d exceeds 2 (|sa|^2 + |sb|^2):
    # below this limit every entry is finite, and overflow is the only
    # way one could be not finite.
    reach = sq_a.max() + sq_b.max()
    if not reach <= _NORM_LIMIT:
        raise ValueError(
            f"points not finite or too far apart for the bandwidths: their "
            f"scaled squared norms sum to {reach:.3g}, over "
            f"{_NORM_LIMIT:.3g}, so Gram entries could overflow")
    out = np.empty((n, m))
    for lo, hi in row_blocks(n, m):
        block = out[lo:hi]
        # block' = -2 sb sa[lo:hi]', written by dgemm into block's memory,
        # which is the Fortran-ordered block'.
        filled = dgemm(-2.0, sb.T, sa[lo:hi].T, trans_a=1, c=block.T,
                       overwrite_c=1)
        assert np.shares_memory(filled, out)
        block += sq_a[lo:hi]
        block += sq_b
        np.maximum(block, 0.0, out=block)
        block *= -0.5
        np.exp(block, out=block)
    return out


def row_blocks(n: int, m: int) -> list[tuple[int, int]]:
    """The (lo, hi) row ranges in which ``gram`` fills an n x m output
    (m >= 1): about ``_BLOCK_BYTES`` each, and at least two rows each
    unless n is smaller."""
    rows = max(2, _BLOCK_BYTES // (8 * m))
    blocks = max(1, n // rows)     # each has >= rows rows, or all n
    edges = [n * i // blocks for i in range(blocks + 1)]
    return list(zip(edges, edges[1:]))


def group_gram(groups, left, right, specs: KernelSpecs) -> np.ndarray:
    """Gram matrix of the product kernel over the named ``groups`` (such
    as "awx", in that column order) between the rows ``left`` and
    ``right``, with the bandwidths of ``specs``.

    ``left`` and ``right`` are any objects with the groups as attributes:
    a ``Dataset``, or the query rows of ``data.query_rows``. Each group's
    width is checked against its spec. The product of the group kernels
    is the Gaussian over the concatenated columns with the concatenated
    bandwidths, so this is one call to :func:`gram`; zero-width groups
    (kernel 1) drop out of the concatenation.
    """
    blocks_a = [_columns(getattr(left, g)) for g in groups]
    blocks_b = [_columns(getattr(right, g)) for g in groups]
    group_specs = [getattr(specs, g) for g in groups]
    for pa, pb, spec in zip(blocks_a, blocks_b, group_specs):
        _check_dim(pa, pb, spec)
    joint = KernelSpec(np.concatenate([s.bandwidths for s in group_specs]))
    return gram(np.hstack(blocks_a), np.hstack(blocks_b), joint)


def effect_curve(a_sample: np.ndarray, spec_a: KernelSpec, weights,
                 a_grid) -> DoCurve:
    """The curve k_A(a, A_s)' w over ``a_grid``.

    ``a_sample`` holds the treatment values A_s the weights are attached
    to (n rows) and ``weights`` the n curve weights.
    """
    a_sample = _columns(a_sample)
    weights = np.asarray(weights, dtype=float).ravel()
    if weights.shape != (a_sample.shape[0],):
        raise ValueError(f"{weights.size} curve weights for "
                         f"{a_sample.shape[0]} treatment values")
    a_grid = np.asarray(a_grid, dtype=float).ravel()
    k_a = gram(a_sample, a_grid[:, None], spec_a)               # n x g
    return DoCurve(grid=a_grid, estimate=matmul(k_a.T, weights))


class _PairGaps:
    """Order statistics of the gaps cols[c, j] - cols[c, i] (i < j) over the
    rows of ``cols``, each sorted ascending, without forming the gaps.

    Flat row r = c * n + i pairs with the flat partners start[r] = r + 1 up
    to end[r] = (c + 1) * n. A gap is the rounded difference exactly as
    ``pdist`` forms it, and for a fixed row it grows with the partner.
    """

    def __init__(self, cols: np.ndarray):
        self.cols = cols
        self.flat = cols.ravel()
        d, n = cols.shape
        self.start = np.arange(1, d * n + 1)
        self.end = np.repeat(np.arange(1, d + 1) * n, n)

    def bounds(self, t: float) -> np.ndarray:
        """Per flat row, one past its last partner whose gap is <= t."""
        n = self.cols.shape[1]
        first = np.arange(1, n + 1)
        out = []
        for c, x in enumerate(self.cols):
            b = np.clip(np.searchsorted(x, x + t, side="right"), first, n)
            # searchsorted compared each x[j] with the rounded x[i] + t, not
            # the rounded x[j] - x[i] with t: move the boundaries across the
            # (tied) values it misplaced.
            while True:
                up = np.flatnonzero(b < n)
                up = up[x[b[up]] - x[up] <= t]
                b[up] = np.searchsorted(x, x[b[up]], side="right")
                down = np.flatnonzero(b > first)
                down = down[x[b[down] - 1] - x[down] > t]
                b[down] = np.maximum(
                    np.searchsorted(x, x[b[down] - 1], side="left"), down + 1)
                if not (up.size or down.size):
                    break
            out.append(b + c * n)
        return np.concatenate(out)

    def count(self, bounds: np.ndarray) -> int:
        return int((bounds - self.start).sum())

    def kth(self, k: int) -> float:
        """The k-th smallest gap (0-based).

        Keeps a bracket of partners lo[r] <= j < hi[r] per row holding the
        target and cuts it between its smallest and largest gap, once per
        step: at the midpoint of their values, or of their bit patterns
        (which order non-negative floats as their values do) when they lie
        more than 64 binades apart. Every cut strictly shrinks the bracket,
        so a search takes at most about 64 + 64 + 53 steps. A bracket of at
        most the budget of pairs is partitioned directly.
        """
        lo, hi = self.start, self.end
        budget = max(_PAIR_BUDGET, 4 * self.flat.size)
        while True:
            rows = np.flatnonzero(hi > lo)
            # + 0.0 turns a gap of -0.0 (-0.0 - 0.0) into +0.0, whose bit
            # pattern is the smallest.
            low = (self.flat[lo[rows]] - self.flat[rows]).min() + 0.0
            high = (self.flat[hi[rows] - 1] - self.flat[rows]).max()
            if low == high:
                return float(high)
            sizes = hi - lo
            total = int(sizes.sum())
            if total <= budget:
                rank = k - self.count(lo)
                offsets = np.cumsum(sizes) - sizes
                rows = np.repeat(np.arange(sizes.size), sizes)
                j = lo[rows] + np.arange(total) - offsets[rows]
                gaps = self.flat[j] - self.flat[rows]
                return float(np.partition(gaps, rank)[rank])
            if high > 2.0**64 * low:    # also low == 0 and high == inf
                bits = np.array([low, high]).view(np.int64)
                t = np.int64((int(bits[0]) + int(bits[1])) // 2).view(float)
            else:
                t = low + (high - low) / 2
            # low <= cut < high: either side of it is a smaller bracket.
            cut = self.bounds(min(t, np.nextafter(high, -np.inf)))
            lo, hi = (lo, cut) if k < self.count(cut) else (cut, hi)

    def median(self) -> float:
        """``np.median`` over all gaps' distances |gap| (``pdist``'s
        sqrt(gap**2) where the square neither overflows nor underflows)."""
        d, n = self.cols.shape
        count = d * (n * (n - 1) // 2)
        k = (count - 1) // 2
        middle = [self.kth(k)]
        if count % 2 == 0:
            b = self.bounds(middle[0])
            if self.count(b) > k + 1:
                middle.append(middle[0])
            else:
                rows = np.flatnonzero(b < self.end)
                middle.append((self.flat[b[rows]] - self.flat[rows]).min())
        return float(np.mean(np.abs(middle)))


def median_heuristic(points: np.ndarray) -> KernelSpec:
    """Per-dimension median of pairwise absolute coordinate differences.

    A dimension whose median distance is zero (constant column) falls back
    to the median pooled over all dimensions, and to 1.0 if that is also
    zero. The medians equal ``np.median`` over ``pdist`` of the column (or
    of every column, pooled) to the last bit where its squares stay
    normal floats, but are selected from the
    sorted columns by bisection: exact pair counts below a cut come from
    ``searchsorted``, each cut halves the range of gaps (by value, or by
    bit pattern across many binades) around the middle rank, and only a
    bracket of O(n) pairs is ever formed. No random numbers are drawn, and
    the step count has a fixed bound, so time is O(n log n) per column and
    memory O(n).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[0] < 2:
        raise ValueError("median heuristic needs at least 2 points")
    if pts.shape[1] == 0:
        return KernelSpec(np.empty(0))
    if not np.isfinite(pts).all():
        raise ValueError("median heuristic needs finite points")
    cols = np.sort(pts.T, axis=1)
    medians = np.array([_PairGaps(cols[d:d + 1]).median()
                        for d in range(cols.shape[0])])
    if (medians <= 0.0).any():
        pooled = _PairGaps(cols).median()
        medians[medians <= 0.0] = pooled if pooled > 0.0 else 1.0
    return KernelSpec(medians)


@dataclass(frozen=True)
class KernelSpecs:
    """Bandwidth specs for the variable groups ``data.GROUPS`` of a proxy
    dataset, one field per group."""

    a: KernelSpec
    x: KernelSpec
    z: KernelSpec
    w: KernelSpec

    @classmethod
    def from_data(cls, data: Dataset) -> "KernelSpecs":
        """Median-heuristic bandwidths for every group of ``data``."""
        return cls(**{g: median_heuristic(getattr(data, g)) for g in GROUPS})

    @classmethod
    def from_record(cls, read, data: Dataset) -> "KernelSpecs":
        """The bandwidths an artifact over ``data`` records, checked by
        ``read``: a positive finite number per column of each group."""
        return cls(**{g: KernelSpec(read.vector(
            f"bandwidths.{g}", getattr(data, g).shape[1], positive=True))
            for g in GROUPS})

    def to_record(self) -> dict:
        """The bandwidths of each group as JSON lists."""
        return {g: getattr(self, g).bandwidths.tolist() for g in GROUPS}


@dataclass(frozen=True)
class KernelExpansion:
    """A fitted h(v) = sum_i alpha_i k(v_i, .) over the product kernel on
    the groups ``groups`` of ``sample`` ("a" first), at ridge ``lam``
    (searched by ``search``, None if given). A subclass names its
    ``groups`` and the one artifact field it adds, ``extra_field``, which
    its ``from_record`` reads back."""

    sample: Dataset
    specs: KernelSpecs
    alpha: np.ndarray
    lam: float
    search: SearchRecord | None = None

    groups = "a"

    def h(self, rows) -> np.ndarray:
        """h at each of ``rows`` (a ``Dataset`` or ``data.query_rows``)."""
        return matmul(self.alpha,
                      group_gram(self.groups, self.sample, rows, self.specs))

    def curve_weights(self, adjust) -> np.ndarray:
        """alpha * (mean over the rows of ``adjust`` of k on the groups
        after "a", 1 over no columns): w with curve k_A(a, A)' w."""
        others = self.groups[1:]
        if getattr(adjust, others[0]).shape[0] == 0:
            raise ValueError("adjustment sample is empty")
        if not any(getattr(self.specs, g).dim for g in others):
            return self.alpha.copy()
        k = group_gram(others, self.sample, adjust, self.specs)  # n x nt
        return k.mean(axis=1) * self.alpha

    def curve(self, adjust, a_grid) -> DoCurve:
        """The mean of h over the rows of ``adjust`` at each of ``a_grid``."""
        return effect_curve(self.sample.a, self.specs.a,
                            self.curve_weights(adjust), a_grid)

    def to_record(self, adjust) -> dict:
        """The artifact's model fields, curve weights over ``adjust``."""
        return {"bandwidths": self.specs.to_record(),
                "lambdas": {"lambda": self.lam},
                "search": self.search and self.search.to_json(),
                self.extra_field: getattr(self, self.extra_field),
                "coefficients": {"alpha": self.alpha.tolist()},
                "curve_weights": self.curve_weights(adjust).tolist()}

    @classmethod
    def from_record(cls, read, data: Dataset, **extra) -> KernelExpansion:
        """The model from its shared fields, its search record
        (``SearchRecord.from_record``) included, and its subclass's
        ``extra``."""
        return cls(sample=data, specs=KernelSpecs.from_record(read, data),
                   alpha=read.vector("coefficients.alpha", data.n),
                   lam=read.ridge("lambdas.lambda"),
                   search=SearchRecord.from_record(read), **extra)

    @classmethod
    def stored_curve(cls, read, data: Dataset, a_grid) -> DoCurve:
        """The stored weights' curve, every field checked; fits nothing."""
        return effect_curve(data.a, cls.from_record(read, data).specs.a,
                            read.vector("curve_weights", data.n), a_grid)
