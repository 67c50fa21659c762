"""Gaussian product kernels, Gram matrices and bandwidth heuristics.

Every variable group carries one bandwidth per scalar coordinate, and the
kernel over the group is the product of per-dimension Gaussian kernels
exp(-(a_d - b_d)^2 / (2 sigma_d^2)). A group with zero columns (a null
covariate set) has the constant kernel 1, so downstream formulas hold
verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .data import Dataset


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
    pa = np.asarray(points_a, dtype=float)
    pb = np.asarray(points_b, dtype=float)
    if pa.ndim == 1:
        pa = pa[:, None]
    if pb.ndim == 1:
        pb = pb[:, None]
    if pa.shape[1] != spec.dim or pb.shape[1] != spec.dim:
        raise ValueError(
            f"dimension mismatch: points have {pa.shape[1]}/{pb.shape[1]} "
            f"columns, spec has {spec.dim} bandwidths"
        )
    if spec.dim == 0:
        return np.ones((pa.shape[0], pb.shape[0]))
    # Product of per-dimension Gaussians == Gaussian of the scaled
    # squared Euclidean distance.
    sa = pa / spec.bandwidths
    sb = pb / spec.bandwidths
    sq = (
        np.sum(sa**2, axis=1)[:, None]
        - 2.0 * sa @ sb.T
        + np.sum(sb**2, axis=1)[None, :]
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-0.5 * sq)


def hadamard(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """Elementwise product of two Gram matrices of identical shape.

    The Schur product theorem guarantees the result stays PSD when both
    inputs are square PSD matrices over the same point set.
    """
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    if g1.shape != g2.shape:
        raise ValueError(f"shape mismatch: {g1.shape} vs {g2.shape}")
    return g1 * g2


def median_heuristic(points: np.ndarray) -> KernelSpec:
    """Per-dimension median of pairwise absolute coordinate differences.

    A dimension whose median distance is zero (constant column) falls back
    to the median pooled over all dimensions, and to 1.0 if that is also
    zero. The pooled median is computed only when such a dimension
    exists: the distances are recomputed then rather than kept for every
    call, which saves the concatenation and the second median over all
    n(n-1)/2 x d pairs in the common case.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[0] < 2:
        raise ValueError("median heuristic needs at least 2 points")
    if pts.shape[1] == 0:
        return KernelSpec(np.empty(0))
    columns = range(pts.shape[1])

    def pair_distances(d):
        return pdist(pts[:, d:d + 1], metric="euclidean")

    medians = np.array([np.median(pair_distances(d)) for d in columns])
    if (medians <= 0.0).any():
        pooled = np.median(np.concatenate([pair_distances(d)
                                           for d in columns]))
        medians[medians <= 0.0] = pooled if pooled > 0.0 else 1.0
    return KernelSpec(medians)


@dataclass(frozen=True)
class KernelSpecs:
    """Bandwidth specs for the four variable groups of a proxy dataset."""

    a: KernelSpec
    x: KernelSpec
    z: KernelSpec
    w: KernelSpec

    @classmethod
    def from_data(cls, data: Dataset) -> "KernelSpecs":
        """Median-heuristic bandwidths for every group of ``data``."""
        return cls(
            a=median_heuristic(data.a),
            x=median_heuristic(data.x),
            z=median_heuristic(data.z),
            w=median_heuristic(data.w),
        )
