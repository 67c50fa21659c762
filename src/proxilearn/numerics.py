"""Linear-algebra substrate: regularized PSD solves, an in-place symmetric
eigensolve, closed-form leave-one-out scores over a ridge path, the grid
selection rule, column-wise Khatri-Rao products, Nystrom factorization and
the low-rank regularized inverse built on it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

EIGENVALUE_FLOOR = 1e-12


def psd_factor(m: np.ndarray, ridge: float):
    """Cholesky factor of (m + ridge*I) with one jitter retry.

    Raises ``numpy.linalg.LinAlgError`` if the matrix is still not positive
    definite after the retry, which signals an indefinite input.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not ridge > 0:
        raise ValueError("ridge must be positive")

    def factor(diagonal):
        # One Fortran-ordered copy, which LAPACK factors in place.
        shifted = np.array(m, order="F")
        shifted[np.diag_indices_from(shifted)] += diagonal
        return scipy.linalg.cho_factor(shifted, lower=True, overwrite_a=True)

    try:
        return factor(ridge)
    except np.linalg.LinAlgError:
        return factor(ridge * (1.0 + 1e-8) + 1e-10)


def solve_psd(m: np.ndarray, ridge: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (m + ridge*I) r = rhs for symmetric PSD ``m`` via Cholesky."""
    return scipy.linalg.cho_solve(psd_factor(m, ridge), np.asarray(rhs, float))


def eigh_in_place(m: np.ndarray):
    """Eigenvalues and eigenvectors of the symmetric matrix whose lower
    triangle is stored in ``m``, computed in ``m``'s own memory.

    ``m`` must be a contiguous float64 array the caller owns: LAPACK's
    divide-and-conquer solver (``syevd``) reads only the lower triangle and
    overwrites the buffer with the eigenvectors, which are returned as the
    columns of a view of it. The strict upper triangle is never read, and
    no finiteness check is made.
    """
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.dtype != np.float64:
        raise ValueError("need a square float64 matrix")
    if m.flags.f_contiguous:
        a, lower = m, True
    elif m.flags.c_contiguous:
        # The Fortran view of a C-ordered matrix is its transpose, whose
        # upper triangle holds m's lower one.
        a, lower = m.T, False
    else:
        raise ValueError("matrix must be contiguous")
    return scipy.linalg.eigh(a, lower=lower, driver="evd", overwrite_a=True,
                             check_finite=False)


def loo_path(eigvals: np.ndarray, eigvecs: np.ndarray, y: np.ndarray,
             lam_grid) -> np.ndarray:
    """Closed-form leave-one-out error of kernel ridge at every ridge.

    With K = U diag(e) U' over m points, the residual operator
    H = I - K (K + m lam I)^{-1} has diag(H) = 1 - (U o U) s and
    H y = y - U (s o U'y), where s = e / (e + m lam) (Golub, Heath and
    Wahba, 1979). The score is (1/m)||diag(H)^{-1} H y||^2: O(m^2) per
    ridge once K is eigendecomposed. Non-finite scores are returned as inf.
    """
    y = np.asarray(y, dtype=float).ravel()
    m = y.size
    lam_grid = np.atleast_1d(np.asarray(lam_grid, dtype=float))
    shrink = eigvals / (eigvals + m * lam_grid[:, None])      # grid x m
    diag = 1.0 - shrink @ (eigvecs * eigvecs).T
    hy = y - (shrink * (eigvecs.T @ y)) @ eigvecs.T
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scores = ((hy / diag) ** 2).sum(axis=1) / m
    return np.where(np.isfinite(scores), scores, np.inf)


def ridge_grid(lam_grid) -> np.ndarray:
    """A ridge search's grid as a float vector; raises ``ValueError`` naming
    the first value that is not finite and positive, or if it is empty.
    This is the grid rule of every ridge search."""
    lam_grid = np.atleast_1d(np.asarray(lam_grid, dtype=float)).ravel()
    if lam_grid.size == 0:
        raise ValueError("ridge grid is empty")
    bad = lam_grid[~(np.isfinite(lam_grid) & (lam_grid > 0))]
    if bad.size:
        raise ValueError(
            f"ridge grid values must be positive and finite, got {bad[0]}")
    return lam_grid


def argmin_ties_larger(grid, scores) -> float:
    """Grid value with the smallest finite score; ties go to the larger
    value. This is the selection rule of every ridge search."""
    grid = np.asarray(grid, dtype=float)
    scores = np.asarray(scores, dtype=float)
    order = np.argsort(grid, kind="stable")
    grid, scores = grid[order], scores[order]
    finite = np.isfinite(scores)
    if not finite.any():
        raise ValueError("all grid points produced non-finite scores")
    best = np.flatnonzero(finite & (scores == scores[finite].min()))[-1]
    return float(grid[best])


def khatri_rao_cols(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker (Khatri-Rao) product.

    Column j of the result is kron(a[:, j], b[:, j]); rows are ordered with
    the a-index outer and the b-index inner, i.e. entry (i*q + k, j) equals
    a[i, j] * b[k, j] for b with q rows.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("inputs must be 2-D")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"column count mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    return scipy.linalg.khatri_rao(a, b)


@dataclass(frozen=True)
class NystromFactors:
    """Low-rank factors with k/n^2 ~= u @ diag(v) @ u.T.

    ``v`` holds the retained landmark-block eigenvalues (all above the
    eigenvalue floor), ``landmarks`` the sampled row indices.
    """

    u: np.ndarray
    v: np.ndarray
    landmarks: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.v) @ self.u.T


def nystrom_landmarks(n: int, rank: int, landmark_seed: int = 0) -> np.ndarray:
    """``rank`` of ``n`` row indices drawn uniformly without replacement,
    sorted."""
    if not 1 <= rank <= n:
        raise ValueError(f"rank must be in [1, {n}], got {rank}")
    rng = np.random.default_rng(landmark_seed)
    return np.sort(rng.choice(n, size=rank, replace=False))


def nystrom_from_columns(columns: np.ndarray,
                         landmarks: np.ndarray) -> NystromFactors:
    """Nystrom factorization of k/n^2 from its landmark columns.

    ``columns`` is the n x r block k[:, landmarks] of a symmetric PSD k,
    so k itself is never needed. The landmark block is eigendecomposed and
    eigenvalues at or below ``EIGENVALUE_FLOOR`` are dropped.
    """
    columns = np.asarray(columns, dtype=float)
    landmarks = np.asarray(landmarks)
    n = columns.shape[0]
    if columns.ndim != 2 or columns.shape[1] != landmarks.size:
        raise ValueError("need one column per landmark")
    columns = columns / float(n) ** 2
    eigvals, eigvecs = np.linalg.eigh(columns[landmarks])
    keep = eigvals > EIGENVALUE_FLOOR
    if not keep.any():
        raise np.linalg.LinAlgError(
            "all landmark eigenvalues below the floor"
        )
    eigvals = eigvals[keep]
    eigvecs = eigvecs[:, keep]
    u = columns @ (eigvecs / eigvals)
    return NystromFactors(u=u, v=eigvals, landmarks=landmarks)


def woodbury_regularized_inverse_apply(
    l: np.ndarray,
    factors: NystromFactors,
    lam: float,
    rhs: np.ndarray,
) -> np.ndarray:
    """Apply the Woodbury form of (u diag(v) u.T l + lam I)^{-1} u diag(v) u.T.

    Returns
    lam^{-1} [I - u (lam^{-1} u.T l u + diag(v)^{-1})^{-1} u.T lam^{-1} l] t
    with t = u diag(v) u.T rhs. When the factors reconstruct k/n^2 exactly
    this solves the corresponding regularized normal equations exactly.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    l = np.asarray(l, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    u, v = factors.u, factors.v
    t = u @ (v * (u.T @ rhs))
    inner = (u.T @ l @ u) / lam + np.diag(1.0 / v)
    correction = u @ np.linalg.solve(inner, u.T @ (l @ t)) / lam
    return (t - correction) / lam
