"""Comparison estimators: kernel ridge regressions with and without proxy
adjustment, and a linear two-stage method.

A ridge baseline regresses Y on the groups ("a", "x", *adjust) of its
training ``Dataset`` with the product kernel of one ``KernelSpecs``. Its
``RidgeModel`` is a ``kernels.KernelExpansion``, as PMMR's bridge is, so
h and the effect curve (h averaged over an adjustment sample of the
groups ("x", *adjust)) are the expansion's. A searched ridge is the
leave-one-out pick over a grid, scored from the Gram's eigenpairs or,
when the Gram's numerical rank is low, from those of a pivoted-Cholesky
factor of it (``numerics.low_rank_eigh``). That factor keeps only the
pivots the grid can resolve, those above ``numerics.PIVOT_FLOOR`` times
n min(grid). Each Gram is built for the one factorization that takes it
over and works in its memory, so a fit never holds two n x n matrices at
once. The linear two-stage model keeps its stage-2 coefficients; its
curve is affine in a and needs only the adjustment sample's W and X
means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .data import GROUPS, Dataset, DoCurve, query_rows
from .kernels import KernelExpansion, KernelSpecs, group_gram
from .numerics import (
    loo_path,
    low_rank_eigh,
    matmul,
    psd_factor,
    ridge_grid,
    search_record,
)

DEFAULT_RIDGE_GRID = np.logspace(-7, 1, 25)


@dataclass(frozen=True)
class RidgeModel(KernelExpansion):
    """Kernel ridge regression of ``sample.y`` on the groups
    ("a", "x", *adjust) of ``sample``, with coefficients
    alpha = (K + n lam I)^{-1} y."""

    adjust: str = ""

    extra_field = "adjust"

    @property
    def groups(self) -> str:
        return "ax" + self.adjust

    @classmethod
    def from_record(cls, read, data: Dataset) -> RidgeModel:
        """The model again; its method is "ridge-<adjust>" or "ridge"."""
        groups = read("method").partition("-")[2]
        return super().from_record(read, data, adjust=read(
            "adjust", lambda v: v == groups, repr(groups)))


def fit_ridge_baseline(data: Dataset, adjust: str = "",
                       lam: float | None = None,
                       lam_grid=DEFAULT_RIDGE_GRID,
                       specs: KernelSpecs | None = None,
                       ) -> RidgeModel:
    """Fit Y ~ (A, X[, W][, Z]) kernel ridge, on ("a", "x", *adjust).

    ``adjust`` is "" (no proxy), "w", or "wz"; ``specs`` None means
    ``KernelSpecs.from_data(data)``, the default of every kernel fit. A
    given ``lam`` is fit by one Cholesky solve of a Gram built for it, in
    the Gram's own memory. Otherwise the leave-one-out
    search scores the grid from the eigenpairs of ``numerics.low_rank_eigh``,
    its pivots floored at the grid's smallest shift n min(grid), and picks
    the ridge with ``numerics.search_record``. If those are K's
    own, alpha = U (U'y / (e + n lam)) comes from them. If they come from a
    low-rank factor of K, alpha is the given-ridge solve at the picked ridge
    on a freshly built K, so the fit equals the fit at that ridge bit for
    bit.
    """
    if adjust not in ("", "w", "wz"):
        raise ValueError(f"adjust must be '', 'w' or 'wz', got {adjust!r}")
    if data.n < 1:
        raise ValueError("need at least 1 training point")
    if lam is not None:
        ridge_grid(lam, "lam")
    if specs is None:
        specs = KernelSpecs.from_data(data)

    def joint_gram():
        return group_gram("ax" + adjust, data, data, specs)

    search = alpha = None
    if lam is None:
        lam_grid = ridge_grid(lam_grid)
        # Handed over unnamed, the Gram is factored in its own memory and
        # freed on return. U's rows come in pivot order, and so does y.
        eigvals, eigvecs, rows = low_rank_eigh(joint_gram(),
                                               data.n * lam_grid.min())
        y = data.y[rows]
        search = search_record(lam_grid, loo_path(eigvals, eigvecs, y,
                                                  lam_grid))
        lam = search.lam
        if eigvecs.shape[1] == data.n:
            # K's own eigenpairs, rows in K's order: e >= 0 up to
            # round-off; clipping keeps e + n lam > 0.
            alpha = matmul(eigvecs, matmul(eigvecs.T, y)
                           / (np.maximum(eigvals, 0.0) + data.n * lam))
        del eigvals, eigvecs    # before the Gram is built again
    if alpha is None:
        alpha = scipy.linalg.cho_solve(psd_factor(joint_gram(), data.n * lam),
                                       data.y)
    return RidgeModel(sample=data, adjust=adjust, specs=specs, lam=lam,
                      alpha=alpha, search=search)


def _lstsq(design: np.ndarray, target: np.ndarray):
    return scipy.linalg.lstsq(design, target,
                              cond=np.finfo(float).eps * max(design.shape))


@dataclass(frozen=True)
class Linear2sModel:
    """Two-stage least squares: ``coef`` is stage 2's intercept and slopes
    on A, W-hat and X, each regressor centred on its ``sample`` mean."""

    sample: Dataset
    coef: np.ndarray

    def curve(self, adjust: Dataset, a_grid) -> DoCurve:
        """c_0 + c_a (a - mean A) + c_wx . (mean (W, X) over ``adjust`` -
        mean (W, X)), the unmarked means over the training ``sample``."""
        a_grid = np.asarray(a_grid, dtype=float).ravel()
        mean = {g: getattr(self.sample, g).mean(axis=0) for g in "awx"}
        # Columns in stage 2's order after (1, A): W-hat, then X.
        query = query_rows(self.sample, w=adjust.w, x=adjust.x)
        adjust_cols = np.column_stack([query.w, query.x])
        if adjust_cols.shape[0] == 0:
            raise ValueError("adjustment sample is empty")
        shift = adjust_cols - np.concatenate([mean["w"], mean["x"]])
        level = self.coef[0] + float(matmul(self.coef[2:],
                                            shift.mean(axis=0)))
        return DoCurve(grid=a_grid, estimate=level
                       + float(self.coef[1]) * (a_grid - mean["a"][0]))

    def to_record(self, adjust: Dataset) -> dict:
        """The artifact's model fields: no kernel, no ridge, ``coef``."""
        return {"bandwidths": None, "lambdas": {}, "search": None,
                "coefficients": {"coef": self.coef.tolist()}}

    @classmethod
    def from_record(cls, read, data: Dataset) -> Linear2sModel:
        """The model again: 2 + dim W + dim X checked coefficients."""
        return cls(sample=data, coef=read.vector(
            "coefficients.coef", 2 + data.w.shape[1] + data.x.shape[1]))

    @classmethod
    def stored_curve(cls, read, data: Dataset, a_grid) -> DoCurve:
        """The curve over ``data``, every field checked; no regression."""
        return cls.from_record(read, data).curve(data, a_grid)


def fit_linear2s(data: Dataset) -> Linear2sModel:
    """Two-stage least squares with intercepts and observed covariates.

    Stage 1 regresses W on (A, Z, X); stage 2 regresses Y on (A, W-hat,
    X), every variable but Y centred on its training mean so that no
    offset shared by the rows cancels inside the fits. Each regression is
    LAPACK's ``gelsd``, with singular values below eps * max(design shape)
    times the largest counted as zero.
    """
    if data.a.shape[1] != 1:
        raise ValueError("linear two-stage supports scalar treatment only")
    n = data.n
    if n <= 2 + data.z.shape[1] + data.x.shape[1]:
        raise ValueError("need more rows than stage-1 regressors")
    c = {g: getattr(data, g) - getattr(data, g).mean(axis=0) for g in GROUPS}
    stage1_design = np.column_stack([np.ones(n), c["a"], c["z"], c["x"]])
    coef1, _, rank1, _ = _lstsq(stage1_design, c["w"])
    if rank1 < stage1_design.shape[1]:
        raise np.linalg.LinAlgError("stage-1 design is rank deficient")
    w_hat = matmul(stage1_design, coef1)        # less W's training mean
    stage2_design = np.column_stack([np.ones(n), c["a"], w_hat, c["x"]])
    if n <= stage2_design.shape[1]:
        raise ValueError("need more rows than stage-2 regressors")
    coef2, _, rank2, _ = _lstsq(stage2_design, data.y)
    if rank2 < stage2_design.shape[1]:
        raise np.linalg.LinAlgError("stage-2 design is rank deficient")
    return Linear2sModel(sample=data, coef=coef2)
