"""Linear-algebra substrate: the matrix product, regularized PSD solves, an
in-place symmetric eigensolve and one that works from a pivoted-Cholesky
factor when the matrix's numerical rank is low (the factor stops at the
pivots a ridge search can still resolve), closed-form leave-one-out
scores over a ridge path, the ridge rule, the grid selection rule and its
search record, Khatri-Rao products, Nystrom features from a pivoted
Cholesky of the landmark block, and the low-rank regularized solve built
on them, which takes l psi in place of the n x n l.

Every product and solve in the package goes through scipy's BLAS and
LAPACK, products through ``matmul``. numpy and scipy each bundle their own
OpenBLAS with its own thread pool, and a pool's idle threads spin for a
while after each call. Alternating the two libraries therefore leaves one
pool spinning on the cores the other needs: on a 2-vCPU VM, a scipy
Cholesky at n = 2000 took 0.07 s cold or right after a scipy
matrix-vector product, and 0.12 s right after a numpy one (medians of 7).

``psd_factor`` and ``low_rank_eigh`` take over the matrix they are given
and work in its memory, so a fit hands them a Gram built for the purpose
and never holds a second n x n copy of it; the public ``solve_psd``
factors a copy and leaves its argument as it was.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.blas import ddot, dgemm, dgemv, dsyrk, dtrsm
from scipy.linalg.lapack import dpstrf

# ``nystrom_features`` stops the pivoted Cholesky of the landmark block
# over n^2 once every remaining pivot (a diagonal entry of the Schur
# complement not yet factored) is at most this value. Each pivot is at
# least the block's smallest eigenvalue, so a block whose eigenvalues all
# clear the floor keeps every landmark.
EIGENVALUE_FLOOR = 1e-12

# ``low_rank_eigh`` works from the factor while the numerical rank r is at
# most this share of n. The factor path costs about 4nr^2 flops (pivoted
# Cholesky, G'G and G V) plus 10r^3/3 for the r x r eigensolve, against
# 10n^3/3 for the n x n one: they break even at r = 0.72n, and at 0.69n
# once a ridge fit adds the n^3/3 of the Cholesky that gives its
# coefficients. Measured on 2-D Gaussian Grams (2-vCPU VM, OpenBLAS),
# Cholesky included, they break even near r = 0.8n at n = 1000 and 2000
# (0.99 s against 1.05 s at r = 0.79n, n = 2000), so 0.7 keeps a margin.
LOW_RANK_SHARE = 0.7

# ``low_rank_eigh`` given a search's smallest diagonal shift s = n min(grid)
# stops the pivoted Cholesky once every remaining pivot is at most this
# share of s. A ridge search shrinks an eigenvalue d by d / (d + n lam), and
# n lam >= s at every ridge on the grid, so a dropped pivot d <= 1e-8 s
# would be shrunk by at most d / (d + s) < 1e-8 (Harbrecht, Peters and
# Schneider, Appl. Numer. Math. 2012, bound pivoted Cholesky's error by the
# pivots left out). On the ten pinned n = 2000 draws every leave-one-out
# score stays within 5.1e-9 (relative) of exact eigenpairs'; a floor of
# 5e-8 let them reach 1.2e-8.
PIVOT_FLOOR = 1e-8


def _fortran(m: np.ndarray):
    """(f, transposed): a Fortran-ordered matrix f with m == f, or with
    m == f' when ``transposed``; a copy only if m is not contiguous."""
    if m.flags.c_contiguous:
        return m.T, True
    if m.flags.f_contiguous:
        return m, False
    return np.ascontiguousarray(m).T, True


def matmul(a, b):
    """``a @ b`` for float vectors and matrices, computed by scipy's BLAS.

    It dispatches as numpy does: ``ddot`` when the result is one number,
    ``dgemv`` when one side is a vector or a matrix with one row or column,
    and otherwise ``dgemm`` for the C-ordered result, computed as its
    Fortran-ordered transpose b'a'. C- and F-ordered operands are handed
    over with transpose flags, never copied. With one BLAS thread the
    result equals numpy's bit for bit, except that numpy computes a matrix
    times its own transpose with ``syrk``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (a.ndim in (1, 2) and b.ndim in (1, 2)):
        raise ValueError("matmul needs vectors or matrices")
    if a.shape[-1] != b.shape[0]:
        raise ValueError(f"shapes {a.shape} and {b.shape} do not align")
    shape = a.shape[:-1] + b.shape[1:]
    rows = a.shape[0] if a.ndim == 2 else 1
    cols = b.shape[1] if b.ndim == 2 else 1
    if 0 in (rows, cols, a.shape[-1]):
        return np.zeros(shape)
    if rows == cols == 1:
        return np.reshape(ddot(a.reshape(-1), b.reshape(-1)), shape)[()]
    if rows == 1 or cols == 1:
        m, v = (a, b.reshape(-1)) if cols == 1 else (b.T, a.reshape(-1))
        f, trans = _fortran(m)
        return dgemv(1.0, f, v, trans=trans).reshape(shape)
    (fb, trans_b), (fa, trans_a) = _fortran(b.T), _fortran(a.T)
    return dgemm(1.0, fb, fa, trans_a=trans_b, trans_b=trans_a).T


def psd_factor(m: np.ndarray, ridge: float):
    """Cholesky factor of (m + ridge*I) with one jitter retry, formed in
    the memory of ``m``, which the caller gives up.

    The lower triangle of m's Fortran view (m's upper one when m is
    C-ordered) is factored after a diagonal shift. If that fails, the
    diagonal is restored and the other triangle, which the failed attempt
    never touched, is factored at a slightly larger shift. Raises
    ``numpy.linalg.LinAlgError`` if that fails too, which signals an
    indefinite input.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    ridge_grid(ridge, "ridge")
    f, _ = _fortran(m)
    diagonal = f.diagonal().copy()
    np.fill_diagonal(f, diagonal + ridge)
    try:
        return scipy.linalg.cho_factor(f, lower=True, overwrite_a=True)
    except np.linalg.LinAlgError:
        np.fill_diagonal(f, diagonal + (ridge * (1.0 + 1e-8) + 1e-10))
        return scipy.linalg.cho_factor(f, lower=False, overwrite_a=True)


def solve_psd(m: np.ndarray, ridge: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (m + ridge*I) r = rhs for symmetric PSD ``m`` via Cholesky of
    one copy of ``m`` (``psd_factor``), leaving ``m`` as it was."""
    return scipy.linalg.cho_solve(psd_factor(np.array(m, dtype=float), ridge),
                                  np.asarray(rhs, float))


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


def low_rank_eigh(k: np.ndarray, shift: float = 0.0):
    """Eigenpairs (e, U) of a symmetric PSD ``k`` and U's row order
    ``rows``, with k[rows][:, rows] ~= U diag(e) U', taken from a
    pivoted-Cholesky factor when k's numerical rank is low.

    Takes over ``k``: LAPACK's ``pstrf`` factors it in place, in the lower
    triangle of its Fortran view, as P'kP = LL' up to the rank r at which
    every remaining pivot is at most ``PIVOT_FLOOR`` times ``shift``, the
    smallest diagonal shift the caller will add to k. Where that is at most
    the round-off level n eps max(diag k), as for shift 0, pstrf keeps its
    own default tolerance, of that order. A rank-deficient k is expected,
    not an error. If r <= ``LOW_RANK_SHARE`` n, the factor G, the first r
    columns of L, stays in k's memory in pivot order: G'G (r x r) is
    eigendecomposed as V diag(e) V', and U = G V diag(e)^{-1/2} is n x r
    with orthonormal columns (pairs with e <= 0 are dropped), its rows the
    pivots in order; besides k, only U, G'G and the eigensolver's
    workspace are allocated. Otherwise k's
    diagonal is restored and the triangle pstrf never touched is
    eigendecomposed in place (``eigh_in_place``): U is n x n, k's own
    eigenpairs, and ``rows`` is 0..n-1.
    """
    if k.ndim != 2 or k.shape[0] != k.shape[1] or k.dtype != np.float64:
        raise ValueError("need a square float64 matrix")
    n = k.shape[0]
    f, _ = _fortran(k)
    diagonal = f.diagonal().copy()
    tol = PIVOT_FLOOR * shift
    if tol <= n * np.finfo(float).eps * diagonal.max(initial=0.0):
        tol = -1.0                      # LAPACK's default
    factor, piv, rank, _ = dpstrf(f, tol=tol, lower=True, overwrite_a=1)
    if rank > LOW_RANK_SHARE * n:
        np.fill_diagonal(f, diagonal)
        # pstrf left f's strict upper triangle, k's, as it was;
        # eigh_in_place reads it as the lower triangle of f'.
        return (*eigh_in_place(f.T), np.arange(n))
    g = factor[:, :rank]
    for j in range(1, rank):
        g[:j, j] = 0.0      # the top block's strict upper triangle held k
    eigvals, eigvecs = eigh_in_place(dsyrk(1.0, g, trans=1, lower=True))
    start = np.searchsorted(eigvals, 0.0, side="right")    # e ascends
    eigvals, eigvecs = eigvals[start:], eigvecs[:, start:]
    eigvecs /= np.sqrt(eigvals)
    return eigvals, matmul(g, eigvecs), piv - 1


def loo_path(eigvals: np.ndarray, eigvecs: np.ndarray, y: np.ndarray,
             lam_grid) -> np.ndarray:
    """Closed-form leave-one-out error of kernel ridge at every ridge.

    With K = U diag(e) U' over m points, the residual operator
    H = I - K (K + m lam I)^{-1} has diag(H) = 1 - (U o U) s and
    H y = y - U (s o U'y), where s = e / (e + m lam) (Golub, Heath and
    Wahba, 1979). U may be m x r with r < m, as ``low_rank_eigh`` gives
    it: the eigenpairs left out count as zero eigenvalues, whose s is 0.
    The score is (1/m)||diag(H)^{-1} H y||^2: O(m r) per ridge once K is
    eigendecomposed. Non-finite scores are returned as inf.
    """
    y = np.asarray(y, dtype=float).ravel()
    m = y.size
    lam_grid = np.atleast_1d(np.asarray(lam_grid, dtype=float))
    shrink = eigvals / (eigvals + m * lam_grid[:, None])      # grid x m
    diag = 1.0 - matmul(shrink, (eigvecs * eigvecs).T)
    hy = y - matmul(shrink * matmul(eigvecs.T, y), eigvecs.T)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scores = ((hy / diag) ** 2).sum(axis=1) / m
    return np.where(np.isfinite(scores), scores, np.inf)


def ridge_grid(lam_grid, name: str = "ridge grid") -> np.ndarray:
    """One ridge or a ridge search's grid as a float vector; raises
    ``ValueError`` naming the first value that is not finite and positive,
    or if there is none. This is the ridge rule of every fit, search and
    CLI flag; ``name`` only labels the error message."""
    lam_grid = np.atleast_1d(np.asarray(lam_grid, dtype=float)).ravel()
    if lam_grid.size == 0:
        raise ValueError(f"{name} is empty")
    bad = lam_grid[~(np.isfinite(lam_grid) & (lam_grid > 0))]
    if bad.size:
        raise ValueError(f"{name} must be positive and finite, got {bad[0]}")
    return lam_grid


def argmin_ties_larger(grid, scores) -> float:
    """Grid value with the smallest finite score; ties go to the larger
    value. This is the selection rule of every ridge search."""
    grid = np.asarray(grid, dtype=float)
    scores = np.asarray(scores, dtype=float)
    finite = np.isfinite(scores)
    if not finite.any():
        raise ValueError("all grid points produced non-finite scores")
    return float(grid[scores == scores[finite].min()].max())


@dataclass(frozen=True)
class SearchRecord:
    """A ridge search: its grid as given, the score of each grid point, the
    value ``argmin_ties_larger`` picked and whether that is a grid edge."""

    grid: np.ndarray
    scores: np.ndarray
    lam: float
    edge: bool

    def to_json(self) -> dict:
        """The record as JSON values, a non-finite score None."""
        return {"grid": self.grid.tolist(), "scores": [
            v if np.isfinite(v) else None for v in self.scores.tolist()],
            "lambda": self.lam, "edge": self.edge}


def search_record(grid, scores) -> SearchRecord:
    """The record of a search that scored ``grid`` with ``scores``."""
    grid = np.array(grid, dtype=float, ndmin=1)
    lam = argmin_ties_larger(grid, scores)
    return SearchRecord(grid, np.array(scores, dtype=float), lam,
                        lam in (grid.min(), grid.max()))


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


def nystrom_landmarks(n: int, rank: int, landmark_seed: int = 0) -> np.ndarray:
    """``rank`` of ``n`` row indices drawn uniformly without replacement,
    sorted."""
    if not 1 <= rank <= n:
        raise ValueError(f"rank must be in [1, {n}], got {rank}")
    rng = np.random.default_rng(landmark_seed)
    return np.sort(rng.choice(n, size=rank, replace=False))


def nystrom_features(columns: np.ndarray,
                     landmarks: np.ndarray) -> np.ndarray:
    """Nystrom features psi (n x r') with psi psi' ~= k / n^2.

    ``columns`` is the n x r block C = k[:, landmarks] of a symmetric PSD
    k, so k itself is never needed. The landmark block over n^2,
    B = C[landmarks] / n^2, is factored in its own memory by LAPACK's
    pivoted Cholesky ``pstrf``, which stops once every remaining pivot is
    at most ``EIGENVALUE_FLOOR``. With S the r' kept pivots and
    G1 G1' = B[S][:, S] (G1 lower triangular), psi = (C[:, S] / n^2)
    G1^{-T}, one triangular solve, which makes psi psi' =
    C_S B_SS^{-1} C_S' / n^2 for C_S = C[:, S] and the unscaled block
    B_SS = C[S][:, S]: the Nystrom approximation on the kept pivots. The
    pivots left out bound the error of the landmark block (Harbrecht,
    Peters and Schneider, Appl. Numer. Math. 2012). Raises
    ``numpy.linalg.LinAlgError`` if no pivot is above the floor.
    """
    columns = np.asarray(columns, dtype=float)
    landmarks = np.asarray(landmarks)
    n = columns.shape[0]
    if columns.ndim != 2 or columns.shape[1] != landmarks.size:
        raise ValueError("need one column per landmark")
    scale = float(n) ** 2
    block = columns[landmarks]
    block /= scale
    # pstrf factors the lower triangle of the Fortran view B' (B is
    # symmetric); the top r' x r' block of its lower triangle is G1.
    factor, piv, rank, _ = dpstrf(block.T, tol=EIGENVALUE_FLOOR, lower=True,
                                  overwrite_a=1)
    if rank == 0:
        raise np.linalg.LinAlgError(
            f"no landmark pivot above the floor {EIGENVALUE_FLOOR:g}")
    # psi G1' = C_S / n^2, solved in the memory of the Fortran-ordered C_S.
    return dtrsm(1.0 / scale, factor[:rank, :rank],
                 columns.T[piv[:rank] - 1].T, side=1, lower=1, trans_a=1,
                 overwrite_b=1)


def nystrom_solve(psi: np.ndarray, l_psi: np.ndarray, lam: float,
                  rhs: np.ndarray) -> np.ndarray:
    """Apply (psi psi' l + lam I)^{-1} psi psi' to ``rhs``, given
    ``l_psi`` = l psi (n x r') in place of the n x n ``l``.

    By the push-through identity this is psi (psi' l psi + lam I)^{-1}
    psi' rhs: one r' x r' system, positive definite for symmetric PSD
    ``l`` and lam > 0, factored in its own memory (``psd_factor``).
    """
    ridge_grid(lam, "lam")
    psi = np.asarray(psi, dtype=float)
    factor = psd_factor(matmul(psi.T, l_psi), lam)
    return matmul(psi, scipy.linalg.cho_solve(factor, matmul(psi.T, rhs)))
