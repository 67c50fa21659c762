"""Single-stage moment-restriction estimator of the proxy bridge function.

The bridge h is fit by minimizing a kernelized V-statistic risk plus an
RKHS ridge penalty. The coefficients have the closed form
alpha = (L W L + lam L)^{-1} L W y, where L is the Gram matrix of the
h-side kernel on (A, W, X) and W the Gram matrix of the instrument-side
kernel on (A, Z, X). ``lam`` throughout this module refers to the ridge
of this closed form; the equivalent objective-space penalty is lam / n^2
because the V-statistic carries a 1/n^2 normalization. Every lam, given or
on a search grid, must be positive and finite (``numerics.ridge_grid``).

The exact solves never form L W L. L, with a small diagonal jitter, is
factored once as L = R R'; the normal equations then reduce to
(R' W R + lam I) beta = R' W y with alpha = R'^{-1} beta. The reduced
matrix is positive definite for every lam > 0, and its conditioning is
that of L rather than its square: on n = 60 synthetic draws at the
smallest default ridge, L alpha agrees with a 60-digit solve to about
1e-11, where a Cholesky solve of L W L + lam L agrees to about 1e-6. The
ridge search eigendecomposes R' W R = V diag(d) V' once; the coefficient
path alpha(lam) = R'^{-1} V (V' R' W y / (d + lam)) then costs one
triangular solve with a right-hand side per candidate, and each
candidate's validation predictions O(n^2). ``fit_pmmr`` picks from these
scores with ``numerics.search_record`` and keeps the record as ``search``.

Every n x n step works in the Grams' own memory. L is factored in place
into U = R', which every solve uses as it stands, and R' W R = U W U' is
formed from W by LAPACK's congruence ``sygst`` (n^3 flops, half of two
triangular multiplies), which overwrites W's upper triangle. The fit
factors R' W R + lam I in that triangle, and the search eigendecomposes
R' W R there.

``PmmrModel`` is a ``kernels.KernelExpansion`` on (A, W, X), so h and
the effect curve, the mean of h over an adjustment sample, are the
expansion's. The kernel on (A, W, X) separates, so the curve is
k_A(a, A)' w with the n curve weights w = alpha * (mean over adjustment
rows of k_{W,X}). ``pmmr_h`` and ``pmmr_ate`` take the query groups as
arrays and call the model's ``h`` and ``curve``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dgemm, dtrmv
from scipy.linalg.lapack import dsygst

from .data import Dataset, DoCurve, query_rows
from .kernels import KernelExpansion, KernelSpecs, group_gram, row_blocks
from .numerics import (
    eigh_in_place,
    matmul,
    nystrom_features,
    nystrom_landmarks,
    nystrom_solve,
    ridge_grid,
    search_record,
)

# Ridge grid spanning [1/450^2, 1/2^2], 50 log-spaced points.
DEFAULT_LAMBDA_GRID = np.sort(
    1.0 / np.logspace(np.log10(2.0), np.log10(450.0), 50) ** 2
)

_JITTER_SCALE = 1e-8


@dataclass(frozen=True)
class PmmrModel(KernelExpansion):
    """Fitted bridge h(a, w, x) = sum_i alpha_i l((a_i, w_i, x_i), .);
    ``rank`` counts the Nystrom landmarks kept, None for the exact fit."""

    rank: int | None = None

    groups = "awx"
    extra_field = "rank"

    @classmethod
    def from_record(cls, read, data: Dataset) -> PmmrModel:
        """The model again, its Nystrom rank included."""
        return super().from_record(read, data, rank=read(
            "rank", lambda v: v is None or (
                type(v) is int and 1 <= v <= data.n),
            f"null or an integer in [1, {data.n}]"))


def h_side_gram(left, right, specs: KernelSpecs) -> np.ndarray:
    """Gram matrix of the kernel on (A, W, X) between two samples."""
    return group_gram("awx", left, right, specs)


def instrument_gram(left: Dataset, right: Dataset,
                    specs: KernelSpecs) -> np.ndarray:
    """Gram matrix of the kernel on (A, Z, X) between two samples."""
    return group_gram("azx", left, right, specs)


def _add_jitter(l_gram: np.ndarray) -> float:
    """Add the stabilizing diagonal to L in place; returns it."""
    jitter = _JITTER_SCALE * np.trace(l_gram) / l_gram.shape[0]
    l_gram[np.diag_indices_from(l_gram)] += jitter
    return jitter


def jittered_l(l_gram: np.ndarray) -> np.ndarray:
    """L with the stabilizing diagonal used inside the normal equations."""
    out = np.array(l_gram, dtype=float)
    _add_jitter(out)
    return out


def _reduced_system(l_gram, w_gram, y):
    """U = R', R' W R and R' W y for the jittered L = R R' (R lower).

    Takes over both Grams. L's transpose is the Fortran-ordered matrix
    whose upper triangle holds L's lower one, so LAPACK's in-place U'U
    factor of it is U = R'. U is returned as LAPACK leaves it, L below
    the diagonal: ``trmv``, ``sygst`` and ``solve_triangular(...,
    lower=False)`` read only its upper triangle.
    W is symmetric, so its Fortran-ordered transpose stands in for it.
    R' W y = U (W y) is formed first; then ``sygst`` (itype 2) overwrites
    that buffer's upper triangle with U W U' = R' W R. The returned R' W R
    is W's memory in Fortran order, where LAPACK factors it without a
    copy; only its upper triangle holds R' W R, the strict lower one
    still holds W.
    """
    jitter = _add_jitter(l_gram)
    try:
        u, _ = scipy.linalg.cho_factor(l_gram.T, lower=False,
                                       overwrite_a=True)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"h-side Gram L is not positive definite even with diagonal "
            f"jitter {jitter:.3g}") from exc
    rwy = dtrmv(u, matmul(w_gram, y))
    rwr, info = dsygst(w_gram.T, u, itype=2, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK sygst failed with info {info}")
    return u, rwr, rwy


def pmmr_fit(data: Dataset, specs: KernelSpecs, lam: float) -> PmmrModel:
    """Closed-form fit alpha = (L W L + lam L)^{-1} L W y, solved in the
    reduced form (R' W R + lam I) beta = R' W y, alpha = R'^{-1} beta."""
    if data.n < 1:
        raise ValueError("need at least 1 training point")
    ridge_grid(lam, "lam")
    u, rwr, rwy = _reduced_system(h_side_gram(data, data, specs),
                                  instrument_gram(data, data, specs), data.y)
    rwr[np.diag_indices_from(rwr)] += lam
    beta = scipy.linalg.cho_solve(
        scipy.linalg.cho_factor(rwr, lower=False, overwrite_a=True), rwy)
    alpha = scipy.linalg.solve_triangular(u, beta, lower=False)
    return PmmrModel(sample=data, specs=specs, alpha=alpha, lam=lam)


def pmmr_fit_nystrom(data: Dataset, specs: KernelSpecs, lam: float,
                     rank: int, landmark_seed: int = 0) -> PmmrModel:
    """Low-rank fit with the instrument Gram over n^2 replaced by Nystrom
    features psi psi'.

    Only the n x rank landmark columns of the instrument Gram are built,
    and ``nystrom_features`` keeps the r' <= rank landmarks its pivoted
    Cholesky resolves: the model's ``rank`` is r'. The coefficients
    alpha = psi (psi' L psi + lam/n^2 I)^{-1} psi' y solve the normal
    equations (psi psi' L + lam/n^2 I) alpha = psi psi' y through one
    r' x r' system; the ridge is lam / n^2 to match the V-statistic
    normalization of the features. L enters only as L psi (n x r'), formed
    from row blocks of the h-side Gram sized as ``kernels.gram`` sizes its
    own (``row_blocks``), so no n x n array is allocated. L carries the jitter of the exact fit,
    1e-8 trace(L) / n, its trace summed from the blocks' diagonals. With
    ``rank == n`` and every pivot kept this reproduces :func:`pmmr_fit`.
    """
    ridge_grid(lam, "lam")
    n = data.n
    landmarks = nystrom_landmarks(n, rank, landmark_seed)
    psi = nystrom_features(
        instrument_gram(data, data.subset(landmarks), specs), landmarks)
    l_psi = np.zeros(psi.shape, order="F")
    trace = 0.0
    for lo, hi in row_blocks(n, n):
        block = h_side_gram(data.subset(np.arange(lo, hi)), data, specs)
        # L is symmetric, so L psi is the sum of block' psi[lo:hi], added
        # up by dgemm in l_psi's memory. Filling l_psi[lo:hi] with
        # block psi took twice as long (0.06 s against 0.03 s at
        # n = 2000, rank 1000, 2-vCPU VM).
        l_psi = dgemm(1.0, block.T, psi[lo:hi], beta=1.0, c=l_psi,
                      overwrite_c=1)
        trace += block.diagonal(lo).sum()
    l_psi += (_JITTER_SCALE * trace / n) * psi
    alpha = nystrom_solve(psi, l_psi, lam / float(n) ** 2, data.y)
    return PmmrModel(sample=data, specs=specs, alpha=alpha, lam=lam,
                     rank=psi.shape[1])


def pmmr_h(model: PmmrModel, a, w, x=None):
    """h at the queries: a float for a scalar treatment, else (nq,)."""
    vals = model.h(query_rows(model.sample, a=a, w=w, x=x))
    return float(vals[0]) if np.ndim(a) == 0 else vals


def pmmr_ate(model: PmmrModel, a_grid, x_adjust, w_adjust) -> DoCurve:
    """Causal-effect curve: mean of h over the adjustment sample."""
    return model.curve(query_rows(model.sample, w=w_adjust, x=x_adjust),
                       a_grid)


def pmmr_objective(l_gram: np.ndarray, w_gram: np.ndarray, y: np.ndarray,
                   lam: float, alpha: np.ndarray) -> float:
    """Quadratic objective whose exact minimizer is the closed-form fit.

    J(alpha) = (y - L alpha)' W (y - L alpha) / n^2
               + (lam / n^2) alpha' L alpha.
    """
    n = y.size
    resid = y - matmul(l_gram, alpha)
    risk = matmul(matmul(resid, w_gram), resid)
    penalty = lam * matmul(matmul(alpha, l_gram), alpha)
    return float(risk + penalty) / float(n) ** 2


def pmmr_validation_scores(train: Dataset, validate: Dataset,
                           specs: KernelSpecs, lam_grid) -> np.ndarray:
    """Validation V-statistic risk for every ridge candidate.

    With R' W R = V diag(d) V' and g = V' R' W y, the fit at ridge lam is
    alpha(lam) = R'^{-1} V (g / (d + lam)), the alpha of ``pmmr_fit``. All
    grid points take one triangular solve with one right-hand side per
    ridge, and their validation predictions alpha(lam)' L_cross cost
    O(grid * n^2), so the eigendecomposition is the search's only O(n^3)
    step.
    """
    lam_grid = ridge_grid(lam_grid)
    u, rwr, rwy = _reduced_system(h_side_gram(train, train, specs),
                                  instrument_gram(train, train, specs),
                                  train.y)
    d, v = eigh_in_place(rwr.T)      # whose lower triangle holds R' W R
    # d >= 0 up to round-off; clipping keeps d + lam > 0 for every lam > 0.
    coeffs = matmul(v.T, rwy) / (np.maximum(d, 0.0) + lam_grid[:, None])
    alphas = scipy.linalg.solve_triangular(u, matmul(v, coeffs.T),
                                           lower=False)   # n_train x grid
    resid = validate.y - matmul(alphas.T,
                                h_side_gram(train, validate, specs))
    w_val = instrument_gram(validate, validate, specs)
    scores = ((matmul(resid, w_val) * resid).sum(axis=1)
              / float(validate.n) ** 2)
    return np.where(np.isfinite(scores), scores, np.inf)


def fit_pmmr(
    data: Dataset,
    specs: KernelSpecs | None = None,
    lam: float | None = None,
    lam_grid=DEFAULT_LAMBDA_GRID,
    rank: int | None = None,
    split_seed: int = 0,
) -> PmmrModel:
    """Full pipeline on one joint dataset.

    When ``lam`` is not given it is grid-searched on a 50/50 seeded
    train/validation split: the ridge of smallest validation V-statistic
    risk (``pmmr_validation_scores``), ties to the larger, and the model is
    refit on the full data at that value; ``search`` records the search
    (None for a given ``lam``). ``rank`` switches to the Nystrom-accelerated
    solve after the same search, its landmarks drawn with ``split_seed``;
    it is checked before the search runs.
    """
    if rank is not None and not 1 <= rank <= data.n:
        raise ValueError(f"rank must be in [1, {data.n}], got {rank}")
    if specs is None:
        specs = KernelSpecs.from_data(data)
    search = None
    if lam is None:
        search = search_record(lam_grid, pmmr_validation_scores(
            *data.split_half(split_seed), specs, lam_grid))
        lam = search.lam
    model = (pmmr_fit(data, specs, lam) if rank is None
             else pmmr_fit_nystrom(data, specs, lam, rank, split_seed))
    return replace(model, search=search)
