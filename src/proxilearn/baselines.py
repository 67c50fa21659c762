"""Comparison estimators: kernel ridge regressions with and without proxy
adjustment, and a linear two-stage method.

A ridge regression on (A, V) averaged over an adjustment sample of V has
the effect curve k_A(a, A)' w with the n curve weights
w = beta * (mean over adjustment rows of k_V) of
``adjusted_curve_weights``. The linear two-stage curve is affine in a
and needs only the adjustment sample's W mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, DoCurve, query_block
from .kernels import (
    KernelSpec,
    KernelSpecs,
    effect_curve,
    gram,
    median_heuristic,
)
from .numerics import (
    argmin_ties_larger,
    eigh_in_place,
    loo_path,
    ridge_grid,
    solve_psd,
)

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
    ridge_grid(lam, "lam")
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim == 1:
        inputs = inputs[:, None]
    y = np.asarray(y, dtype=float).ravel()
    k = gram(inputs, inputs, spec)
    beta = solve_psd(k, inputs.shape[0] * lam, y)
    return RidgeModel(inputs=inputs, spec=spec, lam=lam, beta=beta)


def adjusted_curve_weights(model: RidgeModel,
                           adjustment: np.ndarray) -> np.ndarray:
    """Curve weights beta * (mean over adjustment rows of k_V): the n
    values w with effect curve k_A(a, A)' w.

    The model's first input column is the treatment and the remaining
    columns V match ``adjustment``; a single zero-width row gives
    w = beta, plain pointwise prediction for a model regressing on the
    treatment alone.
    """
    adjustment = np.asarray(adjustment, dtype=float)
    if adjustment.ndim == 1:
        adjustment = adjustment[:, None]
    if adjustment.shape[0] == 0:
        raise ValueError("adjustment sample is empty")
    width = model.inputs.shape[1] - 1
    if adjustment.shape[1] != width:
        raise ValueError(
            f"adjustment has {adjustment.shape[1]} columns, the model "
            f"adjusts over {width} (its inputs minus the treatment)")
    kv = gram(adjustment, model.inputs[:, 1:],
              KernelSpec(model.spec.bandwidths[1:]))
    return kv.mean(axis=0) * model.beta


def adjusted_ate(model: RidgeModel, a_grid, adjustment: np.ndarray) -> DoCurve:
    """Average the regression over an adjustment sample.

    The Gaussian product kernel separates, so the curve is
    k_A(a, A)' (mean_t k_V(v_t, V) * beta): one adjustment-by-training
    Gram averaged over its rows and one training-by-grid treatment Gram,
    not one joint Gram per grid point.
    """
    return effect_curve(model.inputs[:, :1],
                        KernelSpec(model.spec.bandwidths[:1]),
                        adjusted_curve_weights(model, adjustment), a_grid)


def ridge_groups(adjust: str) -> tuple[str, ...]:
    """Dataset groups whose columns form the regression inputs, in order:
    the treatment, then W for "w", then W and Z for "wz"."""
    if adjust not in ("", "w", "wz"):
        raise ValueError(f"adjust must be '', 'w' or 'wz', got {adjust!r}")
    return ("a",) + tuple(adjust)


def ridge_inputs(data: Dataset, adjust: str) -> np.ndarray:
    """Regression inputs: the columns of ``ridge_groups(adjust)`` in
    ``data``."""
    return np.column_stack([getattr(data, g) for g in ridge_groups(adjust)])


def ridge_adjustment(data: Dataset, adjust: str) -> np.ndarray:
    """The adjustment columns of ``data``; a single zero-width row when
    ``adjust`` is ""."""
    groups = ridge_groups(adjust)[1:]
    if not groups:
        return np.empty((1, 0))
    return np.column_stack([getattr(data, g) for g in groups])


def ridge_spec(data: Dataset, adjust: str,
               specs: KernelSpecs | None = None) -> KernelSpec:
    """One bandwidth per regression input column: each group's bandwidths
    from ``specs``, or its median heuristic on ``data`` when ``specs`` is
    None."""
    return KernelSpec(np.concatenate([
        (median_heuristic(getattr(data, g)) if specs is None
         else getattr(specs, g)).bandwidths
        for g in ridge_groups(adjust)]))


def fit_ridge_baseline(data: Dataset, adjust: str = "",
                       lam: float | None = None,
                       lam_grid=DEFAULT_RIDGE_GRID,
                       specs: KernelSpecs | None = None,
                       ) -> RidgeModel:
    """Fit Y ~ (A[, W][, Z]) kernel ridge; ``ridge_adjustment`` gives the
    matching adjustment sample columns.

    ``adjust`` is "" (treatment only), "w", or "wz"; bandwidths come from
    ``specs`` as in ``ridge_spec``. A given ``lam`` is fit by one Cholesky
    solve (``kernel_ridge_fit``). Otherwise the leave-one-out search
    eigendecomposes K = U diag(e) U' once, picks the ridge with
    ``argmin_ties_larger`` and takes beta = U (U'y / (e + n lam)) from the
    same eigenpairs, so the searched fit factors nothing else.
    """
    inputs = ridge_inputs(data, adjust)
    spec = ridge_spec(data, adjust, specs)
    if lam is not None:
        return kernel_ridge_fit(inputs, data.y, spec, lam)
    lam_grid = ridge_grid(lam_grid)
    eigvals, eigvecs = eigh_in_place(gram(inputs, inputs, spec))
    lam = argmin_ties_larger(lam_grid,
                             loo_path(eigvals, eigvecs, data.y, lam_grid))
    # e >= 0 up to round-off; clipping keeps e + n lam > 0.
    beta = eigvecs @ ((eigvecs.T @ data.y)
                      / (np.maximum(eigvals, 0.0) + data.n * lam))
    return RidgeModel(inputs=inputs, spec=spec, lam=lam, beta=beta)


def linear_two_stage(data: Dataset, a_grid, w_adjust=None) -> DoCurve:
    """Two-stage least squares with intercepts.

    Stage 1 regresses W on (A, Z); stage 2 regresses Y on (A, W-hat). The
    curve is intercept + coef_a * a + coef_w . mean(W), the mean taken
    over the adjustment sample ``w_adjust`` (default: ``data.w``).
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
    w_adjust = (data.w if w_adjust is None
                else query_block(w_adjust, data.w.shape[1], "w"))
    if w_adjust.shape[0] == 0:
        raise ValueError("adjustment sample is empty")
    level = intercept + float(coef_w @ w_adjust.mean(axis=0))
    return DoCurve(grid=a_grid, estimate=level + coef_a * a_grid)
