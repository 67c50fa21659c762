"""Two-stage kernel estimator of the proxy bridge function.

Stage 1 learns the conditional mean embedding of W given (A, X, Z) on the
first subsample as a ridge coefficient map Gamma. Stage 2 solves a
vectorized ridge problem over the second subsample whose efficient form
only inverts an m2 x m2 matrix; the full coefficient matrix alpha
(m1 x m2) follows by a column-wise Khatri-Rao expansion against the
identity, which collapses to scaling the columns of Gamma. The stage-2
matrix Gamma' K_WW Gamma is formed from a pivoted Cholesky factor of
K_WW, whose numerical rank is about a quarter of m1 on ``gen_main``.

The effect curve averages h over an adjustment sample. Its treatment
factor is k_A(a, A_2) over the stage-2 treatments, so the curve is
k_A(a, A_2)' t with the m2 curve weights
t = mean over adjustment rows of (alpha' k_W) * k_X of
``kpv_curve_weights``. Once t is known, no stage-1 quantity is needed to
evaluate the curve on any grid.

Both ridges are fixed, at ``DEFAULT_LAMBDA1`` = 1e-3 and ``DEFAULT_LAMBDA2``
= 1e-2 unless the caller gives them. Closed-form leave-one-out searches over
logspace(-8, -3, 11) for stage 1 and logspace(-2, 0, 9) for stage 2 chose
exactly these values, the upper and the lower grid edge, on every
``gen_main`` draw checked: 20 seeds each at n = 500 and n = 1000, seeds 0-5
at n = 2000, seeds 0-9 at n = 100 and n = 200, and 9 of 10 seeds at n = 60
(the tenth chose lambda2 = 1.78e-2). On the discrete toy the c-MAE is
0.0738 at either choice. On wider grids both criteria have interior minima
(lambda1 near 1e-2, lambda2 near 1e-5 to 1e-4 at n = 1000), and fitting at
those minima raises the mean KPV c-MAE over seeds 0-5 from 0.368 to 0.644
at n = 500 and from 0.381 to 0.517 at n = 1000: each leave-one-out score
measures how well its stage predicts its own target, not how well h
estimates the bridge function.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dsyrk
from scipy.linalg.lapack import dpstrf

from .data import Dataset, DoCurve, query_rows
from .kernels import KernelSpecs, effect_curve, group_gram
from .numerics import matmul, mirror_upper, psd_factor, ridge_grid

# The fixed ridges of both stages; the module docstring gives the evidence.
DEFAULT_LAMBDA1 = 1e-3
DEFAULT_LAMBDA2 = 1e-2


@dataclass(frozen=True)
class Stage1Fit:
    """Fitted conditional mean embedding over training W-features."""

    sample: Dataset
    specs: KernelSpecs
    lam1: float
    _factor: tuple

    @property
    def m1(self) -> int:
        return self.sample.n


def stage1_fit(sample1: Dataset, specs: KernelSpecs,
               lam1: float) -> Stage1Fit:
    """Fit the first-stage embedding on ``sample1`` with ridge ``lam1``."""
    if sample1.n < 2:
        raise ValueError("stage 1 needs at least 2 points")
    ridge_grid(lam1, "lam1")
    k_axz = group_gram("axz", sample1, sample1, specs)
    factor = psd_factor(k_axz, sample1.n * lam1)
    return Stage1Fit(sample=sample1, specs=specs, lam1=lam1, _factor=factor)


def stage1_embedding(fit: Stage1Fit, a, x, z) -> np.ndarray:
    """Embedding coefficients Gamma(a, x, z) over training W-features.

    A scalar treatment value selects a single query and returns shape
    (m1,); arrays are treated as query batches and return (m1, nq).
    """
    single = np.ndim(a) == 0
    query = query_rows(fit.sample, a=a, x=x, z=z)
    k_cross = group_gram("axz", fit.sample, query, fit.specs)
    coeff = scipy.linalg.cho_solve(fit._factor, k_cross, check_finite=False)
    return coeff[:, 0] if single else coeff


@dataclass(frozen=True)
class KpvModel:
    """Fitted bridge function h(a, x, w) with coefficient matrix alpha.

    ``c`` holds the m2 stage-2 coefficients alpha was expanded from (see
    ``kpv_model``), ``split_seed`` that of ``fit_kpv``'s split, if any.
    """

    stage1: Stage1Fit
    sample2: Dataset
    alpha: np.ndarray
    lam2: float
    c: np.ndarray
    split_seed: int | None = None

    @property
    def m2(self) -> int:
        return self.sample2.n

    @property
    def nu(self) -> np.ndarray:
        """Coefficients flattened row-major (sample-1 index outer)."""
        return self.alpha.reshape(-1)

    def curve(self, adjust: Dataset, a_grid) -> DoCurve:
        """``kpv_ate`` over the adjustment sample ``adjust``."""
        return kpv_ate(self, a_grid, adjust.x, adjust.w)

    def to_record(self, adjust: Dataset) -> dict:
        """The artifact's model fields, curve weights over ``adjust``."""
        return {"bandwidths": self.stage1.specs.to_record(),
                "lambdas": {"lambda1": self.stage1.lam1,
                            "lambda2": self.lam2},
                "search": None, "split_seed": self.split_seed,
                "coefficients": {"c": self.c.tolist()},
                "curve_weights": kpv_curve_weights(
                    self, adjust.x, adjust.w).tolist()}

    @classmethod
    def from_record(cls, read, data: Dataset) -> KpvModel:
        """The model again: stage 1 refitted on the recorded split."""
        seed = read.seed("split_seed")
        sample1, sample2 = data.split_half(seed)
        stage1 = stage1_fit(sample1, KernelSpecs.from_record(read, data),
                            read.ridge("lambdas.lambda1"))
        return replace(kpv_model(stage1, sample2, read.vector(
            "coefficients.c", sample2.n), read.ridge("lambdas.lambda2")),
            split_seed=seed)

    @classmethod
    def stored_curve(cls, read, data: Dataset, a_grid) -> DoCurve:
        """The stored weights' curve, every field checked; fits nothing."""
        sample2 = data.split_half(read.seed("split_seed"))[1]
        read.ridge("lambdas.lambda1")
        read.ridge("lambdas.lambda2")
        read.vector("coefficients.c", sample2.n)
        return effect_curve(sample2.a, KernelSpecs.from_record(read, data).a,
                            read.vector("curve_weights", sample2.n), a_grid)


def _stage2_sigma(fit: Stage1Fit, sample2: Dataset):
    """The stage-1 embedding Gamma of ``sample2`` and the stage-2 matrix
    Sigma_qp = (Gamma_q' K_WW Gamma_p) * k(a_q, a_p) * k(x_q, x_p), with
    K_WW the Gram of the stage-1 W.

    LAPACK's pivoted Cholesky ``pstrf`` factors K_WW in its own memory,
    stopping at its default round-off tolerance, at the numerical rank r
    (216-233 of m1 = 1000 on the pinned n = 2000 ``gen_main`` draws):
    K_WW = H H' up to the pivots left out, with H m1 x r. As in
    ``numerics.low_rank_eigh``, a non-finite entry outside the pivots'
    columns never reaches H, so this relies on ``kernels.gram`` for a
    finite K_WW. Then Gamma' K_WW Gamma = B' B for B = H' Gamma, one product
    and one ``syrk`` of 2 r m1 m2 + r m2^2 flops, where the two products
    Gamma' K_WW Gamma took 2 m1 m2 (m1 + m2). At full rank, m1 = m2 = m,
    the factor's m^3 / 3 included, that is 10 m^3 / 3 against 4 m^3.
    ``syrk`` fills one triangle of Sigma, which is mirrored into the other
    for ``psd_factor``'s retry.
    """
    gamma2 = stage1_embedding(fit, sample2.a, sample2.x, sample2.z)
    k_ww = group_gram("w", fit.sample, fit.sample, fit.specs)
    factor, piv, rank, _ = dpstrf(k_ww.T, lower=1, overwrite_a=1)
    g = factor[:, :rank]                      # rows in pivot order
    for j in range(1, rank):
        g[:j, j] = 0.0      # the top block's strict upper triangle held K_WW
    b = matmul(g[np.argsort(piv)].T, gamma2)                  # H' Gamma
    del k_ww, factor, g
    sigma = mirror_upper(dsyrk(1.0, b.T, lower=0)).T
    sigma *= group_gram("ax", sample2, sample2, fit.specs)
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


def kpv_fit(fit: Stage1Fit, sample2: Dataset, lam2: float) -> KpvModel:
    """Second-stage ridge solution from the m2 x m2 system.

    Solves (m2*lam2*I + Sigma) c = y with
    Sigma_qp = (Gamma_q' K_WW Gamma_p) * k(a_q, a_p) * k(x_q, x_p) and
    expands c into alpha with ``kpv_model``.
    """
    ridge_grid(lam2, "lam2")
    if sample2.n < 1:
        raise ValueError("stage 2 needs at least 1 point")
    gamma2, sigma = _stage2_sigma(fit, sample2)
    c = scipy.linalg.cho_solve(psd_factor(sigma, sample2.n * lam2),
                               sample2.y, check_finite=False)
    return kpv_model(fit, sample2, c, lam2, gamma2=gamma2)


def kpv_h(model: KpvModel, a, x, w):
    """Evaluate the double-sum kernel expansion of h.

    Scalar treatment input -> float; array inputs -> ndarray of shape
    (nq,) over the query batch.
    """
    sample1, specs = model.stage1.sample, model.stage1.specs
    single = np.ndim(a) == 0
    query = query_rows(sample1, a=a, x=x, w=w)
    u = group_gram("w", sample1, query, specs)              # m1 x nq
    v = group_gram("ax", model.sample2, query, specs)       # m2 x nq
    vals = (matmul(model.alpha, v) * u).sum(axis=0)
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
    sample1, specs = model.stage1.sample, model.stage1.specs
    query = query_rows(sample1, w=w_adjust, x=x_adjust)
    if query.w.shape[0] == 0:
        raise ValueError("adjustment sample is empty")
    b = group_gram("w", sample1, query, specs)               # m1 x nt
    if specs.x.dim:
        t = matmul(model.alpha.T, b)                         # m2 x nt
        t *= group_gram("x", model.sample2, query, specs)
        return t.mean(axis=1)
    # k(x_k, x_j) = 1: the mean over adjustment rows moves inside.
    return matmul(model.alpha.T, b.mean(axis=1))


def kpv_ate(model: KpvModel, a_grid, x_adjust, w_adjust) -> DoCurve:
    """Causal-effect curve: h averaged over the adjustment sample."""
    return effect_curve(model.sample2.a, model.stage1.specs.a,
                        kpv_curve_weights(model, x_adjust, w_adjust), a_grid)


def fit_kpv(
    data: Dataset,
    specs: KernelSpecs | None = None,
    lam1: float | None = None,
    lam2: float | None = None,
    split_seed: int = 0,
) -> KpvModel:
    """Full pipeline on one joint dataset.

    The data is split 50/50 into the two stage subsamples by a seeded
    shuffle; bandwidths default to the median heuristic on the full data
    and missing ridges to ``DEFAULT_LAMBDA1`` and ``DEFAULT_LAMBDA2``.
    """
    if data.n < 4:
        raise ValueError(
            f"fit_kpv needs at least 4 rows (2 per stage), got {data.n}")
    if specs is None:
        specs = KernelSpecs.from_data(data)
    sample1, sample2 = data.split_half(split_seed)
    fit = stage1_fit(sample1, specs,
                     DEFAULT_LAMBDA1 if lam1 is None else lam1)
    model = kpv_fit(fit, sample2, DEFAULT_LAMBDA2 if lam2 is None else lam2)
    return replace(model, split_seed=split_seed)
