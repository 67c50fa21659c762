"""Comparison estimators: kernel ridge regressions with and without proxy
adjustment, and a linear two-stage method."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, DoCurve
from .kernels import KernelSpec, gram, median_heuristic
from .numerics import argmin_ties_larger, loo_path, solve_psd

DEFAULT_RIDGE_GRID = np.logspace(-7, 1, 25)


@dataclass(frozen=True)
class RidgeModel:
    """Kernel ridge regression with coefficients (K + n lam I)^{-1} y."""

    inputs: np.ndarray
    spec: KernelSpec
    lam: float
    beta: np.ndarray


def kernel_ridge_fit(inputs: np.ndarray, y: np.ndarray, spec: KernelSpec,
                     lam: float) -> RidgeModel:
    if not lam > 0:
        raise ValueError("lam must be positive")
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim == 1:
        inputs = inputs[:, None]
    y = np.asarray(y, dtype=float).ravel()
    k = gram(inputs, inputs, spec)
    beta = solve_psd(k, inputs.shape[0] * lam, y)
    return RidgeModel(inputs=inputs, spec=spec, lam=lam, beta=beta)


def kernel_ridge_predict(model: RidgeModel, queries: np.ndarray) -> np.ndarray:
    queries = np.asarray(queries, dtype=float)
    if queries.ndim == 1:
        queries = queries[:, None]
    return gram(queries, model.inputs, model.spec) @ model.beta


def ridge_loo_scores(inputs: np.ndarray, y: np.ndarray, spec: KernelSpec,
                     lam_grid) -> np.ndarray:
    """Closed-form leave-one-out error (1/n)||T^{-1} H y||^2 per ridge,
    with H = I - K (K + n lam I)^{-1} and T = diag(H)."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim == 1:
        inputs = inputs[:, None]
    y = np.asarray(y, dtype=float).ravel()
    k = gram(inputs, inputs, spec)
    eigvals, eigvecs = np.linalg.eigh(k)
    return loo_path(eigvals, eigvecs, y, lam_grid)


def select_ridge_lambda(inputs, y, spec, lam_grid=DEFAULT_RIDGE_GRID) -> float:
    return argmin_ties_larger(lam_grid, ridge_loo_scores(inputs, y, spec,
                                                         lam_grid))


def adjusted_ate(model: RidgeModel, a_grid, adjustment: np.ndarray) -> DoCurve:
    """Average the regression over an adjustment sample.

    ``adjustment`` rows are appended to each treatment value to form the
    query; a single all-empty row recovers plain pointwise prediction for
    a model regressing on the treatment alone.
    """
    a_grid = np.asarray(a_grid, dtype=float).ravel()
    adjustment = np.asarray(adjustment, dtype=float)
    if adjustment.ndim == 1:
        adjustment = adjustment[:, None]
    nt = adjustment.shape[0]
    if nt == 0:
        raise ValueError("adjustment sample is empty")
    estimates = np.empty(a_grid.size)
    for i, a in enumerate(a_grid):
        queries = np.column_stack([np.full(nt, a), adjustment])
        estimates[i] = kernel_ridge_predict(model, queries).mean()
    return DoCurve(grid=a_grid, estimate=estimates)


def fit_ridge_baseline(data: Dataset, adjust: str = "",
                       lam: float | None = None,
                       lam_grid=DEFAULT_RIDGE_GRID) -> tuple[RidgeModel, np.ndarray]:
    """Fit Y ~ (A[, W][, Z]) kernel ridge; returns the model and the
    matching adjustment sample columns.

    ``adjust`` is "" (treatment only), "w", or "wz".
    """
    blocks = [data.a]
    adjust_blocks = []
    if "w" in adjust:
        blocks.append(data.w)
        adjust_blocks.append(data.w)
    if "z" in adjust:
        blocks.append(data.z)
        adjust_blocks.append(data.z)
    inputs = np.column_stack(blocks)
    spec = median_heuristic(inputs)
    if lam is None:
        lam = select_ridge_lambda(inputs, data.y, spec, lam_grid)
    model = kernel_ridge_fit(inputs, data.y, spec, lam)
    adjustment = (np.column_stack(adjust_blocks) if adjust_blocks
                  else np.empty((1, 0)))
    return model, adjustment


def linear_two_stage(data: Dataset, a_grid) -> DoCurve:
    """Two-stage least squares with intercepts.

    Stage 1 regresses W on (A, Z); stage 2 regresses Y on (A, W-hat). The
    curve is intercept + coef_a * a + coef_w . mean(W).
    """
    a_grid = np.asarray(a_grid, dtype=float).ravel()
    n = data.n
    stage1_design = np.column_stack([np.ones(n), data.a, data.z])
    if n <= stage1_design.shape[1]:
        raise ValueError("need more rows than stage-1 regressors")
    coef1, _, rank1, _ = np.linalg.lstsq(stage1_design, data.w, rcond=None)
    if rank1 < stage1_design.shape[1]:
        raise np.linalg.LinAlgError("stage-1 design is rank deficient")
    w_hat = stage1_design @ coef1
    stage2_design = np.column_stack([np.ones(n), data.a, w_hat])
    if n <= stage2_design.shape[1]:
        raise ValueError("need more rows than stage-2 regressors")
    coef2, _, rank2, _ = np.linalg.lstsq(stage2_design, data.y, rcond=None)
    if rank2 < stage2_design.shape[1]:
        raise np.linalg.LinAlgError("stage-2 design is rank deficient")
    da = data.a.shape[1]
    if da != 1:
        raise ValueError("linear two-stage supports scalar treatment only")
    intercept = coef2[0]
    coef_a = float(coef2[1])
    coef_w = coef2[2:]
    level = intercept + float(coef_w @ data.w.mean(axis=0))
    return DoCurve(grid=a_grid, estimate=level + coef_a * a_grid)
