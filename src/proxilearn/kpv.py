"""Two-stage kernel estimator of the proxy bridge function.

Stage 1 learns the conditional mean embedding of W given (A, X, Z) on the
first subsample as a ridge coefficient map Gamma. Stage 2 solves a
vectorized ridge problem over the second subsample whose efficient form
only inverts an m2 x m2 matrix; the full coefficient matrix alpha
(m1 x m2) follows by a column-wise Khatri-Rao expansion against the
identity, which collapses to scaling the columns of Gamma.

The effect curve averages h over an adjustment sample. Its treatment
factor is k_A(a, A_2) over the stage-2 treatments, so the curve is
k_A(a, A_2)' t with the m2 curve weights
t = mean over adjustment rows of (alpha' k_W) * k_X of
``kpv_curve_weights``. Once t is known, no stage-1 quantity is needed to
evaluate the curve on any grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .data import Dataset, DoCurve, query_block
from .kernels import KernelSpecs, effect_curve, gram, product_gram
from .numerics import (
    argmin_ties_larger,
    eigh_in_place,
    loo_path,
    psd_factor,
    solve_psd,
)

# Default ridge grids. The leave-one-out curves of both stages are nearly
# flat on the over-smoothing side (stage 1) and favor interpolation when
# the outcome is noiseless (stage 2); the bounds keep the search inside
# the stable regime on the synthetic benchmark family.
DEFAULT_LAMBDA1_GRID = np.logspace(-8, -3, 11)
DEFAULT_LAMBDA2_GRID = np.logspace(-2, 0, 9)


@dataclass(frozen=True)
class Stage1Fit:
    """Fitted conditional mean embedding over training W-features."""

    sample: Dataset
    specs: KernelSpecs
    lam1: float
    k_ww: np.ndarray
    _factor: tuple

    @property
    def m1(self) -> int:
        return self.sample.n


def _gram_axz(sample_left: Dataset, a, x, z, specs: KernelSpecs) -> np.ndarray:
    return product_gram((sample_left.a, sample_left.x, sample_left.z),
                        (a, x, z), (specs.a, specs.x, specs.z))


def stage1_fit(sample1: Dataset, specs: KernelSpecs,
               lam1: float) -> Stage1Fit:
    """Fit the first-stage embedding on ``sample1`` with ridge ``lam1``."""
    if sample1.n < 2:
        raise ValueError("stage 1 needs at least 2 points")
    if not lam1 > 0:
        raise ValueError("lam1 must be positive")
    k_axz = _gram_axz(sample1, sample1.a, sample1.x, sample1.z, specs)
    factor = psd_factor(k_axz, sample1.n * lam1)
    k_ww = gram(sample1.w, sample1.w, specs.w)
    return Stage1Fit(sample=sample1, specs=specs, lam1=lam1,
                     k_ww=k_ww, _factor=factor)


def stage1_embedding(fit: Stage1Fit, a, x, z) -> np.ndarray:
    """Embedding coefficients Gamma(a, x, z) over training W-features.

    A scalar treatment value selects a single query and returns shape
    (m1,); arrays are treated as query batches and return (m1, nq).
    """
    single = np.ndim(a) == 0
    aq = query_block(a, fit.sample.a.shape[1], "a")
    xq = query_block(x, fit.sample.x.shape[1], "x", aq.shape[0])
    zq = query_block(z, fit.sample.z.shape[1], "z", aq.shape[0])
    k_cross = _gram_axz(fit.sample, aq, xq, zq, fit.specs)
    coeff = scipy.linalg.cho_solve(fit._factor, k_cross)
    return coeff[:, 0] if single else coeff


def stage1_predict_w(fit: Stage1Fit, a, x, z) -> np.ndarray:
    """Predicted conditional mean of W at the queries (for diagnostics)."""
    coeff = stage1_embedding(fit, a, x, z)
    if coeff.ndim == 1:
        return fit.sample.w.T @ coeff
    return (fit.sample.w.T @ coeff).T


@dataclass(frozen=True)
class KpvModel:
    """Fitted bridge function h(a, x, w) with coefficient matrix alpha.

    ``c`` holds the m2 stage-2 coefficients alpha was expanded from (see
    ``kpv_model``).
    """

    stage1: Stage1Fit
    sample2: Dataset
    alpha: np.ndarray
    lam2: float
    c: np.ndarray

    @property
    def m2(self) -> int:
        return self.sample2.n

    @property
    def nu(self) -> np.ndarray:
        """Coefficients flattened row-major (sample-1 index outer)."""
        return self.alpha.reshape(-1)


def _stage2_sigma(fit: Stage1Fit, sample2: Dataset):
    """The stage-1 embedding Gamma of ``sample2`` and the stage-2 matrix
    Sigma_qp = (Gamma_q' K_WW Gamma_p) * k(a_q, a_p) * k(x_q, x_p)."""
    gamma2 = stage1_embedding(fit, sample2.a, sample2.x, sample2.z)
    sigma = gamma2.T @ fit.k_ww @ gamma2
    sigma *= product_gram((sample2.a, sample2.x), (sample2.a, sample2.x),
                          (fit.specs.a, fit.specs.x))
    return gamma2, sigma


def kpv_model(fit: Stage1Fit, sample2: Dataset, c, lam2: float,
              gamma2: np.ndarray | None = None) -> KpvModel:
    """The model with stage-2 coefficients ``c`` (m2 values).

    The Khatri-Rao expansion of (Gamma kr I) c places Gamma_ij * c_j at
    row-major position (i, j) of alpha, where Gamma = ``gamma2`` is the
    stage-1 embedding of ``sample2``, computed here when not given.
    """
    c = np.asarray(c, dtype=float).ravel()
    if c.shape != (sample2.n,):
        raise ValueError(
            f"c has {c.size} values, stage 2 has {sample2.n} points")
    if gamma2 is None:
        gamma2 = stage1_embedding(fit, sample2.a, sample2.x, sample2.z)
    return KpvModel(stage1=fit, sample2=sample2, alpha=gamma2 * c[None, :],
                    lam2=lam2, c=c)


def kpv_fit(fit: Stage1Fit, sample2: Dataset, lam2: float,
            system=None) -> KpvModel:
    """Second-stage ridge solution from the m2 x m2 system.

    Solves (m2*lam2*I + Sigma) c = y with
    Sigma_qp = (Gamma_q' K_WW Gamma_p) * k(a_q, a_p) * k(x_q, x_p) and
    expands c into alpha with ``kpv_model``. ``system`` is the pair
    (Gamma, Sigma) of ``fit`` on ``sample2``, built here when not given;
    it is not modified.
    """
    if not lam2 > 0:
        raise ValueError("lam2 must be positive")
    if sample2.n < 1:
        raise ValueError("stage 2 needs at least 1 point")
    gamma2, sigma = _stage2_sigma(fit, sample2) if system is None else system
    c = solve_psd(sigma, sample2.n * lam2, sample2.y)
    return kpv_model(fit, sample2, c, lam2, gamma2=gamma2)


def kpv_h(model: KpvModel, a, x, w):
    """Evaluate the double-sum kernel expansion of h.

    Scalar treatment input -> float; array inputs -> ndarray of shape
    (nq,) over the query batch.
    """
    specs = model.stage1.specs
    single = np.ndim(a) == 0
    aq = query_block(a, model.sample2.a.shape[1], "a")
    xq = query_block(x, model.sample2.x.shape[1], "x", aq.shape[0])
    wq = query_block(w, model.stage1.sample.w.shape[1], "w", aq.shape[0])
    u = gram(model.stage1.sample.w, wq, specs.w)            # m1 x nq
    v = product_gram((model.sample2.a, model.sample2.x), (aq, xq),
                     (specs.a, specs.x))                    # m2 x nq
    vals = ((model.alpha @ v) * u).sum(axis=0)
    return float(vals[0]) if single else vals


def kpv_curve_weights(model: KpvModel, x_adjust, w_adjust) -> np.ndarray:
    """Curve weights t = mean over adjustment rows k of
    (alpha' k_W(w_k)) * k_X(x_k): the m2 values with effect curve
    k_A(a, A_2)' t over stage-2 treatments A_2.

    This is the triple sum
    (1/nt) sum_{i,j,k} alpha_ij k(a, a_j) k(x_k, x_j) k(w_k, w_i), the
    mean of ``kpv_h`` over the adjustment rows, without its treatment
    factor.
    """
    specs = model.stage1.specs
    wq = query_block(w_adjust, model.stage1.sample.w.shape[1], "w")
    xq = query_block(x_adjust, model.sample2.x.shape[1], "x", wq.shape[0])
    if wq.shape[0] == 0:
        raise ValueError("adjustment sample is empty")
    b = gram(model.stage1.sample.w, wq, specs.w)             # m1 x nt
    if specs.x.dim:
        t = model.alpha.T @ b                                # m2 x nt
        t *= gram(model.sample2.x, xq, specs.x)
        return t.mean(axis=1)
    # k(x_k, x_j) = 1: the mean over adjustment rows moves inside.
    return model.alpha.T @ b.mean(axis=1)


def kpv_ate(model: KpvModel, a_grid, x_adjust, w_adjust) -> DoCurve:
    """Causal-effect curve: h averaged over the adjustment sample."""
    return effect_curve(model.sample2.a, model.stage1.specs.a,
                        kpv_curve_weights(model, x_adjust, w_adjust), a_grid)


def stage1_loo_scores(sample1: Dataset, specs: KernelSpecs,
                      lam1_grid) -> np.ndarray:
    """Closed-form leave-one-out score of each stage-1 ridge candidate.

    score(lam) = ||T^{-1} H K_WW H T^{-1}||_2 / m1 with
    H = I - K_AXZ (K_AXZ + m1 lam I)^{-1} and T = diag(H). With
    K_AXZ = U diag(e) U', H = U diag(1 - s) U' for s = e / (e + m1 lam), so
    the matrix is B C B' with B = T^{-1} U diag(1 - s) and C = U' K_WW U.
    One eigendecomposition and C are computed once; per ridge, Lanczos
    finds the top eigenvalue from O(m1^2) products with B C B'.
    """
    m1 = sample1.n
    if m1 < 2:
        raise ValueError("stage 1 needs at least 2 points")
    k_axz = _gram_axz(sample1, sample1.a, sample1.x, sample1.z, specs)
    k_ww = gram(sample1.w, sample1.w, specs.w)
    eigvals, eigvecs = eigh_in_place(k_axz)
    c = eigvecs.T @ k_ww @ eigvecs
    sq = eigvecs * eigvecs
    # A fixed start vector keeps the scores independent of ARPACK's
    # random state, and so of earlier calls.
    v0 = np.random.default_rng(0).standard_normal(m1)
    scores = np.empty(len(lam1_grid))
    for i, lam in enumerate(np.asarray(lam1_grid, dtype=float)):
        shrink = eigvals / (eigvals + m1 * lam)
        diag = 1.0 - sq @ shrink
        with np.errstate(divide="ignore", invalid="ignore"):
            b = eigvecs * (1.0 - shrink) / diag[:, None]
        if not np.isfinite(b).all():
            scores[i] = np.inf
            continue
        op = scipy.sparse.linalg.LinearOperator(
            (m1, m1), matvec=lambda v, b=b: b @ (c @ (b.T @ v)),
            dtype=float)
        top = scipy.sparse.linalg.eigsh(op, k=1, which="LA", v0=v0,
                                        return_eigenvectors=False)[0]
        scores[i] = top / m1
    return scores


def stage2_loo_scores(fit: Stage1Fit, sample2: Dataset,
                      lam2_grid, system=None) -> np.ndarray:
    """Closed-form leave-one-out score of each stage-2 ridge candidate.

    score(lam) = ||T^{-1} H y||_2^2 / m2 with the m2 x m2 residual
    operator H = I - Sigma (m2 lam I + Sigma)^{-1} and T = diag(H).
    ``system`` is as in ``kpv_fit``; its Sigma is copied, not modified.
    """
    if system is None:
        _, sigma = _stage2_sigma(fit, sample2)
    else:
        sigma = system[1].copy()
    eigvals, eigvecs = eigh_in_place(sigma)
    return loo_path(eigvals, eigvecs, sample2.y, lam2_grid)


def kpv_select_lambdas(
    sample1: Dataset,
    sample2: Dataset,
    specs: KernelSpecs,
    lam1_grid=DEFAULT_LAMBDA1_GRID,
    lam2_grid=DEFAULT_LAMBDA2_GRID,
) -> tuple[float, float]:
    """Grid-search both ridge parameters by their leave-one-out scores.

    The two stages are tuned independently; ties break toward the larger
    candidate.
    """
    lam1 = _select_lam1(sample1, specs, lam1_grid)
    fit = stage1_fit(sample1, specs, lam1)
    return lam1, _select_lam2(fit, sample2, lam2_grid)


def _grid(values) -> np.ndarray:
    grid = np.atleast_1d(np.asarray(values, dtype=float))
    if (grid <= 0).any():
        raise ValueError("grids must contain positive values")
    return grid


def _select_lam1(sample1: Dataset, specs: KernelSpecs, lam1_grid) -> float:
    grid = _grid(lam1_grid)
    return argmin_ties_larger(grid, stage1_loo_scores(sample1, specs, grid))


def _select_lam2(fit: Stage1Fit, sample2: Dataset, lam2_grid,
                 system=None) -> float:
    grid = _grid(lam2_grid)
    return argmin_ties_larger(
        grid, stage2_loo_scores(fit, sample2, grid, system))


def fit_kpv(
    data: Dataset,
    specs: KernelSpecs | None = None,
    lam1: float | None = None,
    lam2: float | None = None,
    lam1_grid=DEFAULT_LAMBDA1_GRID,
    lam2_grid=DEFAULT_LAMBDA2_GRID,
    split_seed: int = 0,
) -> KpvModel:
    """Full pipeline on one joint dataset.

    The data is split 50/50 into the two stage subsamples by a seeded
    shuffle; bandwidths default to the median heuristic on the full data
    and missing ridge parameters are grid-searched by their leave-one-out
    scores, as in ``kpv_select_lambdas``. Stage 2 is always tuned against
    the stage-1 fit it is solved with, so stage 1 is fitted once, and the
    stage-2 system is built once for the search and the solve.
    """
    if data.n < 4:
        raise ValueError(
            f"fit_kpv needs at least 4 rows (2 per stage), got {data.n}")
    if specs is None:
        specs = KernelSpecs.from_data(data)
    sample1, sample2 = data.split_half(split_seed)
    if lam1 is None:
        lam1 = _select_lam1(sample1, specs, lam1_grid)
    fit = stage1_fit(sample1, specs, lam1)
    system = _stage2_sigma(fit, sample2)
    if lam2 is None:
        lam2 = _select_lam2(fit, sample2, lam2_grid, system)
    return kpv_fit(fit, sample2, lam2, system)
