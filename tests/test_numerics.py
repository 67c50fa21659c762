import ast
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import proxilearn
from proxilearn import kernels, numerics
from proxilearn.baselines import fit_ridge_baseline
from proxilearn.kernels import KernelSpec, KernelSpecs, gram
from proxilearn.kpv import fit_kpv, kpv_fit, stage1_fit
from proxilearn.numerics import (
    EIGENVALUE_FLOOR,
    argmin_ties_larger,
    eigh_in_place,
    khatri_rao_cols,
    loo_path,
    low_rank_eigh,
    matmul,
    mirror_upper,
    nystrom_features,
    nystrom_landmarks,
    nystrom_solve,
    psd_factor,
    ridge_grid,
    search_record,
    shifted_solves,
    solve_psd,
)
from proxilearn import synthdata
from proxilearn.pmmr import (
    fit_pmmr,
    instrument_gram,
    pmmr_fit,
    pmmr_fit_nystrom,
)
from tests.conftest import nystrom, ridge_loo_scores, rng_dataset


def _single_ridge_entry_points():
    """Each function that takes one ridge, called at ridge ``lam`` on
    valid small inputs."""
    data = rng_dataset(5, 8)
    specs = KernelSpecs.from_data(data)
    stage1 = stage1_fit(data, specs, 1e-3)
    psi = nystrom(np.eye(4), rank=4, landmark_seed=0)
    return {
        "pmmr_fit": lambda lam: pmmr_fit(data, specs, lam),
        "pmmr_fit_nystrom": lambda lam: pmmr_fit_nystrom(data, specs, lam,
                                                         rank=4),
        # the fixed-ridge kernel ridge baseline fit
        "kernel_ridge_fit": lambda lam: fit_ridge_baseline(
            data, "w", lam=lam),
        "stage1_fit": lambda lam: stage1_fit(data, specs, lam),
        "kpv_fit": lambda lam: kpv_fit(stage1, data, lam),
        "psd_factor": lambda lam: psd_factor(np.eye(3), lam),
        "nystrom_solve": lambda lam: nystrom_solve(psi, np.eye(4) @ psi,
                                                   lam, np.ones(4)),
    }


# One BLAS thread makes scipy's products and numpy's the same computation.
ONE_BLAS_THREAD = os.environ.get("OPENBLAS_NUM_THREADS") == "1"


class TestMatmul:
    """``matmul`` against numpy's ``@``: equal bits with one BLAS thread,
    equal to round-off with more."""

    @staticmethod
    def check(a, b):
        expected, got = a @ b, matmul(a, b)
        assert np.shape(got) == expected.shape
        if ONE_BLAS_THREAD:
            np.testing.assert_array_equal(got, expected)
        else:
            np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("order_a", ["C", "F"])
    @pytest.mark.parametrize("order_b", ["C", "F"])
    @pytest.mark.parametrize("shape", [(7, 5, 3), (300, 200, 100),
                                       (1, 40, 30), (30, 40, 1), (6, 1, 4)])
    def test_four_shape_cases_in_both_layouts(self, shape, order_a,
                                              order_b):
        m, k, n = shape
        rng = np.random.default_rng(sum(shape))
        a = np.asarray(rng.normal(size=(m, k)), order=order_a)
        b = np.asarray(rng.normal(size=(k, n)), order=order_b)
        x, y = rng.normal(size=m), rng.normal(size=k)
        self.check(a, b)                          # matrix x matrix
        self.check(a, y)                          # matrix x vector
        self.check(x, a)                          # vector x matrix
        self.check(y, rng.normal(size=k))         # vector . vector

    def test_strided_operands(self):
        # numpy multiplies operands BLAS cannot take with its own loop, and
        # matmul copies them for BLAS: the sums are ordered differently.
        rng = np.random.default_rng(3)
        a = rng.normal(size=(60, 50))
        for x, y in [(a[::2, ::3], rng.normal(size=(17, 4))),
                     (a[:, 5], rng.normal(size=(60, 3)))]:
            np.testing.assert_allclose(matmul(x, y), x @ y, rtol=1e-13,
                                       atol=1e-13)

    @pytest.mark.parametrize("shapes", [((0, 3), (3, 2)), ((2, 0), (0, 4)),
                                        ((3, 2), (2, 0)), ((0,), (0,)),
                                        ((3, 0), (0,)), ((0,), (0, 5)),
                                        ((0, 4), (4,))])
    def test_empty_operands(self, shapes):
        a, b = np.ones(shapes[0]), np.ones(shapes[1])
        got = matmul(a, b)
        assert np.shape(got) == (a @ b).shape
        np.testing.assert_array_equal(got, a @ b)

    def test_vector_dot_is_a_scalar(self):
        got = matmul(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert np.ndim(got) == 0 and got == 11.0

    def test_misaligned_shapes_rejected(self):
        with pytest.raises(ValueError, match="do not align"):
            matmul(np.ones((2, 3)), np.ones(2))
        with pytest.raises(ValueError, match="vectors or matrices"):
            matmul(np.ones((2, 2, 2)), np.ones(2))


def test_package_calls_no_numpy_blas():
    # numpy's OpenBLAS has its own thread pool; the package uses only
    # scipy's, through numerics.matmul and scipy.linalg.
    def is_numpy(node, attr=None):
        if attr is not None:
            return (isinstance(node, ast.Attribute) and node.attr == attr
                    and is_numpy(node.value))
        return isinstance(node, ast.Name) and node.id in ("np", "numpy")

    products = {"matmul", "dot", "vdot", "inner", "tensordot", "einsum"}
    found = []
    for path in sorted(Path(proxilearn.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.BinOp) and isinstance(node.op,
                                                          ast.MatMult):
                found.append(f"{where} @")
            elif (isinstance(node, ast.Attribute)
                  and is_numpy(node.value, "linalg")
                  and node.attr != "LinAlgError"):
                found.append(f"{where} np.linalg.{node.attr}")
            elif (isinstance(node, ast.Attribute) and is_numpy(node.value)
                  and node.attr in products):
                found.append(f"{where} np.{node.attr}")
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "dot"):
                found.append(f"{where} .dot")
            elif (isinstance(node, ast.ImportFrom)
                  and node.module == "numpy.linalg"):
                found.append(f"{where} from numpy.linalg")
    assert found == []


def test_only_kernels_calls_gram():
    # Every Gram between rows is a ``kernels.group_gram`` over named
    # groups; only ``kernels`` itself calls ``gram``.
    found = []
    for path in sorted(Path(proxilearn.__file__).parent.glob("*.py")):
        if path.name == "kernels.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None)
            if isinstance(node, ast.Call) and "gram" in (
                    getattr(func, "id", None), getattr(func, "attr", None)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


class TestSolvePsd:
    def test_identity_system(self):
        e1 = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(solve_psd(np.eye(3), 1.0, e1), 0.5 * e1)

    def test_zero_matrix(self):
        v = np.array([2.0, -4.0])
        np.testing.assert_allclose(solve_psd(np.zeros((2, 2)), 0.5, v),
                                   v / 0.5)

    def test_matches_lu_oracle(self):
        rng = np.random.default_rng(0)
        b = rng.normal(size=(6, 6))
        m = b @ b.T
        rhs = rng.normal(size=(6, 2))
        expected = np.linalg.solve(m + 0.3 * np.eye(6), rhs)
        np.testing.assert_allclose(solve_psd(m, 0.3, rhs), expected,
                                   atol=1e-8)

    def test_residual_bound(self):
        rng = np.random.default_rng(1)
        b = rng.normal(size=(8, 8))
        m = b @ b.T
        rhs = rng.normal(size=8)
        r = solve_psd(m, 0.1, rhs)
        resid = (m + 0.1 * np.eye(8)) @ r - rhs
        assert np.abs(resid).max() <= 1e-6 * (1 + np.abs(rhs).max())

    def test_requires_positive_ridge(self):
        with pytest.raises(ValueError, match="ridge"):
            solve_psd(np.eye(2), 0.0, np.ones(2))

    def test_indefinite_input_fails(self):
        m = np.diag([1.0, -5.0])
        with pytest.raises(np.linalg.LinAlgError):
            solve_psd(m, 1e-3, np.ones(2))

    def test_factor_matches_identity_shift(self):
        # Reference: the factor of the same triangle plus ridge * I formed
        # with an n x n identity. psd_factor factors the lower triangle of
        # m's Fortran view, m' for this C-ordered m, after shifting its
        # diagonal in place.
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(40, 2))
        m = gram(pts, pts, KernelSpec([0.7, 1.3]))
        expected, _ = scipy.linalg.cho_factor(m.T + 1e-6 * np.eye(40),
                                              lower=True)
        factor, lower = psd_factor(m, 1e-6)
        assert lower
        np.testing.assert_array_equal(np.tril(factor), np.tril(expected))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_factor_shares_memory_with_input(self, order):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(30, 2))
        m = np.array(gram(pts, pts, KernelSpec([0.7, 1.3])), order=order)
        rhs = rng.normal(size=30)
        expected = solve_psd(m, 1e-6, rhs)      # factors a copy of m
        factor, lower = psd_factor(m, 1e-6)
        assert np.shares_memory(factor, m)
        np.testing.assert_array_equal(
            scipy.linalg.cho_solve((factor, lower), rhs), expected)

    @staticmethod
    def just_indefinite(ridge):
        """A symmetric matrix whose smallest eigenvalue lies 5e-9 below
        -ridge: m + ridge I is indefinite, while the retry's diagonal
        ridge (1 + 1e-8) + 1e-10 makes it positive definite."""
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        a = (q * [-ridge - 5e-9, 0.5, 1.0, 2.0, 3.0, 4.0]) @ q.T
        return (a + a.T) / 2          # exactly symmetric

    def test_jitter_retry_factors_the_other_triangle(self, monkeypatch):
        ridge = 1.0
        m = self.just_indefinite(ridge)
        attempts = []

        def cho_factor(a, lower, **kwargs):
            try:
                out = cholesky(a, lower=lower, **kwargs)
            except np.linalg.LinAlgError:
                attempts.append((lower, False))
                raise
            attempts.append((lower, True))
            return out

        cholesky = scipy.linalg.cho_factor
        monkeypatch.setattr(scipy.linalg, "cho_factor", cho_factor)
        rhs = np.random.default_rng(6).normal(size=6)
        got = solve_psd(m, ridge, rhs)
        assert attempts == [(True, False), (False, True)]
        retry = ridge * (1.0 + 1e-8) + 1e-10
        np.testing.assert_allclose(
            got, np.linalg.solve(m + retry * np.eye(6), rhs), rtol=1e-6)

    @pytest.mark.parametrize("case", ["C", "F", "retry"])
    def test_solve_psd_leaves_its_argument(self, case):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(25, 2))
        m = (self.just_indefinite(1.0) if case == "retry" else
             np.array(gram(pts, pts, KernelSpec([0.7, 1.3])), order=case))
        before = m.copy(order="K")
        solve_psd(m, 1.0 if case == "retry" else 1e-6,
                  np.ones(m.shape[0]))
        assert m.flags.c_contiguous == before.flags.c_contiguous
        np.testing.assert_array_equal(m, before)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_solve_psd_refuses_non_finite_input(self, bad):
        m = np.eye(3)
        m[0, 2] = m[2, 0] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_psd(m, 0.1, np.ones(3))
        rhs = np.ones(3)
        rhs[1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            solve_psd(np.eye(3), 0.1, rhs)


def poison_grams(monkeypatch, value):
    """Make every Gram with two or more rows and columns hold ``value`` at
    (0, 1) and (1, 0), which no Gram that ``kernels.gram`` returns can."""
    real = kernels.gram

    def gram(points_a, points_b, spec):
        k = real(points_a, points_b, spec)
        if min(k.shape) >= 2:
            k[0, 1] = k[1, 0] = value
        return k

    monkeypatch.setattr(kernels, "gram", gram)


@pytest.mark.parametrize("value", [np.nan, np.inf])
class TestNonFiniteInputRaises:
    """The package's Choleskys skip scipy's O(n^2) finiteness scan, and
    OpenBLAS's potrf returns info 0 and a NaN factor for NaN or inf input:
    the factor's diagonal check must make every fit raise, never return a
    model with NaN coefficients."""

    @pytest.mark.parametrize("where", [(0, 3), (2, 2)])
    def test_psd_factor(self, value, where):
        m = np.eye(5) + 0.1
        m[where] = m[where[::-1]] = value
        with pytest.raises(np.linalg.LinAlgError, match="not finite"):
            psd_factor(m, 0.1)

    @pytest.fixture()
    def data(self):
        return synthdata.gen_main(60, seed=0).data

    def test_pmmr_fit(self, value, data, monkeypatch):
        specs = KernelSpecs.from_data(data)
        poison_grams(monkeypatch, value)
        with pytest.raises(np.linalg.LinAlgError):
            pmmr_fit(data, specs, 0.1)
        with pytest.raises((np.linalg.LinAlgError, ValueError)):
            fit_pmmr(data, specs)

    @pytest.mark.parametrize("lam", [None, 1e-3])
    @pytest.mark.parametrize("adjust", ["", "w", "wz"])
    def test_fit_ridge_baseline(self, value, data, monkeypatch, lam, adjust):
        specs = KernelSpecs.from_data(data)
        poison_grams(monkeypatch, value)
        # A search whose scores are all non-finite raises ValueError.
        errors = (np.linalg.LinAlgError,) + (ValueError,) * (lam is None)
        with pytest.raises(errors):
            fit_ridge_baseline(data, adjust, lam=lam, specs=specs)

    def test_kpv_fit(self, value, data, monkeypatch):
        specs = KernelSpecs.from_data(data)
        sample1, sample2 = data.split_half(0)
        fit = stage1_fit(sample1, specs, 1e-3)
        poison_grams(monkeypatch, value)
        with pytest.raises(np.linalg.LinAlgError):
            kpv_fit(fit, sample2, 1e-2)
        with pytest.raises(np.linalg.LinAlgError):
            fit_kpv(data, specs)


class TestShiftedSolves:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_dense_solves_from_lower_triangle(self, order):
        rng = np.random.default_rng(21)
        a = rng.normal(size=(40, 30))
        sym = a @ a.T / 30                   # rank 30: 10 zero eigenvalues
        m = np.array(sym, order=order)
        m[np.triu_indices(40, 1)] = np.nan    # the strict upper is not read
        rhs = rng.normal(size=40)
        shifts = np.array([1e-3, 0.1, 10.0])
        got = shifted_solves(m, rhs, shifts)
        assert got.shape == (40, 3)
        for column, s in zip(got.T, shifts):
            expected = np.linalg.solve(sym + s * np.eye(40), rhs)
            np.testing.assert_allclose(column, expected, rtol=0,
                                       atol=1e-11 * np.abs(expected).max())

    def test_indefinite_shift_gives_nan_column(self):
        rng = np.random.default_rng(22)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        sym = (q * [-1.0, 0.5, 1.0, 2.0, 3.0, 4.0]) @ q.T
        rhs = rng.normal(size=6)
        got = shifted_solves(np.array(sym), rhs, [0.5, 2.0, 1e-30])
        assert np.isnan(got[:, [0, 2]]).all()
        np.testing.assert_allclose(
            got[:, 1], np.linalg.solve(sym + 2.0 * np.eye(6), rhs),
            rtol=1e-12)

    def test_one_by_one(self):
        got = shifted_solves(np.array([[2.0]]), [4.0], [0.0, 2.0, -3.0])
        assert got[0, 0] == 2.0 and got[0, 1] == 1.0
        assert np.isnan(got[0, 2])

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_takes_over_only_fortran_input(self, order):
        # A Fortran-ordered m is reduced in place; any other is copied.
        m = np.array(np.diag([1.0, 2.0, 3.0]) + 0.1, order=order)
        before = m.copy()
        shifted_solves(m, np.ones(3), [1.0])
        assert np.array_equal(m, before) == (order == "C")

    def test_rejects_non_square_input(self):
        with pytest.raises(ValueError, match="square"):
            shifted_solves(np.ones((2, 3)), np.ones(2), [1.0])


def test_mirror_upper():
    m = np.arange(16.0).reshape(4, 4)
    out = mirror_upper(m)
    assert out is m
    np.testing.assert_array_equal(m, np.triu(m) + np.triu(m, 1).T)
    assert m[3, 0] == 3.0 and m[0, 3] == 3.0 and m[2, 1] == 6.0


def dense_loo_scores(eigvals, eigvecs, y, lam_grid):
    """Reference: build H = I - U diag(s) U' densely at every ridge."""
    m = y.size
    scores = np.empty(len(lam_grid))
    for i, lam in enumerate(lam_grid):
        shrink = eigvals / (eigvals + m * lam)
        h = np.eye(m) - (eigvecs * shrink) @ eigvecs.T
        resid = (h @ y) / np.diag(h)
        scores[i] = np.dot(resid, resid) / m
    return scores


class TestEighInPlace:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_reads_lower_triangle_and_overwrites_input(self, order):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(30, 30))
        sym = a @ a.T
        m = np.array(sym, order=order)
        m[np.triu_indices(30, 1)] = np.nan    # the strict upper is not read
        eigvals, eigvecs = eigh_in_place(m)
        assert np.shares_memory(eigvecs, m)
        np.testing.assert_allclose(eigvals, np.linalg.eigvalsh(sym),
                                   rtol=0, atol=1e-12 * eigvals.max())
        np.testing.assert_allclose((eigvecs * eigvals) @ eigvecs.T, sym,
                                   rtol=0, atol=1e-12 * eigvals.max())
        np.testing.assert_allclose(eigvecs.T @ eigvecs, np.eye(30),
                                   rtol=0, atol=1e-12)

    def test_rejects_strided_and_non_square_input(self):
        with pytest.raises(ValueError, match="contiguous"):
            eigh_in_place(np.eye(6)[::2, ::2])
        with pytest.raises(ValueError, match="square"):
            eigh_in_place(np.ones((2, 3)))


class TestLowRankEigh:
    """Scores from ``low_rank_eigh``'s eigenpairs against the exact
    eigenpairs of the whole Gram (``conftest.ridge_loo_scores``)."""

    GRID = np.logspace(-7, 1, 25)

    @staticmethod
    def scores(x, y, bandwidth):
        # The factor keeps the pivots that the grid's smallest ridge can
        # resolve, as a ridge search's does. U's rows come in the order
        # ``rows``, and y is put in that order.
        spec = KernelSpec(np.full(x.shape[1], bandwidth))
        eigvals, eigvecs, rows = low_rank_eigh(
            gram(x, x, spec), x.shape[0] * TestLowRankEigh.GRID.min())
        return (eigvecs.shape[1],
                loo_path(eigvals, eigvecs, y[rows], TestLowRankEigh.GRID),
                ridge_loo_scores(x, y, spec, TestLowRankEigh.GRID))

    @pytest.mark.parametrize("n", [60, 400])
    def test_low_rank_gram_takes_factor_path(self, n):
        # A wide Gaussian on 1-D inputs has numerical rank about 20.
        rng = np.random.default_rng(60)
        x = rng.normal(size=(n, 1))
        y = np.sin(2 * x[:, 0]) + 0.1 * rng.normal(size=n)
        rank, got, exact = self.scores(x, y, 1.0)
        assert rank <= 25
        np.testing.assert_allclose(got, exact, rtol=1e-8)

    def test_factor_is_orthonormal_and_reconstructs_gram(self):
        rng = np.random.default_rng(61)
        x = rng.normal(size=(300, 1))
        k = gram(x, x, KernelSpec(np.array([1.0])))
        eigvals, eigvecs, rows = low_rank_eigh(k.copy())
        assert eigvecs.shape[1] < 50 and (eigvals > 0).all()
        assert sorted(rows) == list(range(300))
        np.testing.assert_allclose(eigvecs.T @ eigvecs,
                                   np.eye(eigvecs.shape[1]), atol=1e-6)
        # Only the pivots below n eps max(diag) were left out.
        np.testing.assert_allclose((eigvecs * eigvals) @ eigvecs.T,
                                   k[rows][:, rows], atol=1e-11)

    @staticmethod
    def assert_own_eigenpairs(order):
        """A full-rank k's eigenpairs equal, bit for bit, those that
        eigh_in_place reads from the triangle pstrf never touched. pstrf
        factors the lower triangle of k's Fortran view, so that is k's
        lower triangle for a C-ordered k and its upper one (the lower one
        of the C-ordered k') for an F-ordered k. The Gram is not
        bit-symmetric, so the triangle matters."""
        x = np.random.default_rng(62).normal(size=(80, 3))
        k = np.array(gram(x, x, KernelSpec(np.full(3, 0.5))), order=order)
        eigvals, eigvecs, rows = low_rank_eigh(k.copy(order="K"))
        expected_vals, expected_vecs = eigh_in_place(
            k if order == "C" else k.T)
        np.testing.assert_array_equal(rows, np.arange(80))
        np.testing.assert_array_equal(eigvals, expected_vals)
        np.testing.assert_array_equal(eigvecs, expected_vecs)

    def test_full_rank_gram_gives_its_own_eigenpairs(self):
        self.assert_own_eigenpairs("C")

    def test_full_rank_fortran_gram_reads_its_upper_triangle(self):
        self.assert_own_eigenpairs("F")

    @pytest.mark.parametrize("case", ["n1", "n2", "n2-identical",
                                      "identical", "duplicated"])
    def test_rank_deficient_inputs(self, case):
        rng = np.random.default_rng(63)
        x = {"n1": np.array([[0.3]]),
             "n2": np.array([[0.0], [1.0]]),
             "n2-identical": np.array([[0.5], [0.5]]),
             "identical": np.full((12, 2), 0.7),
             "duplicated": np.repeat(rng.normal(size=(15, 2)), 2, axis=0),
             }[case]
        y = rng.normal(size=x.shape[0])
        rank, got, exact = self.scores(x, y, 1.0)
        # n = 1 and two distinct points are full rank: eigendecomposed
        # whole. The others take the factor path.
        assert (rank == x.shape[0]) == (case in ("n1", "n2"))
        np.testing.assert_allclose(got, exact, rtol=1e-8)

    @staticmethod
    def factor_sizes(monkeypatch):
        """The sizes of the matrices ``low_rank_eigh`` eigendecomposes."""
        sizes = []

        def eigh(m):
            sizes.append(m.shape[0])
            return eigh_in_place(m)

        monkeypatch.setattr(numerics, "eigh_in_place", eigh)
        return sizes

    @pytest.mark.parametrize("shift", [3e-2, 3e-3])
    def test_shift_sets_the_pivot_floor(self, shift, monkeypatch):
        # The rank is the number of pivots of LAPACK's default factor (its
        # squared diagonal, non-increasing) above PIVOT_FLOOR * shift.
        x = np.random.default_rng(65).normal(size=(300, 1))
        k = gram(x, x, KernelSpec(np.array([1.0])))
        factor, _, rank, _ = scipy.linalg.lapack.dpstrf(k, lower=True)
        pivots = np.diag(factor)[:rank] ** 2
        expected = int((pivots > numerics.PIVOT_FLOOR * shift).sum())
        assert expected < rank
        sizes = self.factor_sizes(monkeypatch)
        low_rank_eigh(k, shift)
        assert sizes == [expected]

    @pytest.mark.parametrize("shift", [0.0, 1e-300])
    def test_floor_below_round_off_keeps_lapack_default(self, shift,
                                                        monkeypatch):
        x = np.random.default_rng(66).normal(size=(300, 1))
        k = gram(x, x, KernelSpec(np.array([1.0])))
        rank = scipy.linalg.lapack.dpstrf(k, lower=True)[2]
        default = low_rank_eigh(k.copy())
        sizes = self.factor_sizes(monkeypatch)
        got = low_rank_eigh(k, shift)
        assert sizes == [rank]
        np.testing.assert_array_equal(got[0], default[0])
        np.testing.assert_array_equal(got[1], default[1])

    def test_factor_path_holds_no_second_gram(self):
        # The factor path works in k's own memory: besides k it allocates
        # U (n x r) and G'G (r x r), plus O(n) vectors, and no n x n copy
        # (8 n^2 = 8 MB here).
        n = 1000
        x = np.random.default_rng(64).normal(size=(n, 1))
        k = gram(x, x, KernelSpec(np.array([1.0])))
        tracemalloc.start()
        try:
            eigvals, eigvecs, _ = low_rank_eigh(k, n * 1e-7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        r = eigvecs.shape[1]
        assert r < 50
        assert peak < 8 * (n * r + r * r) + 64 * n

    def test_rejects_non_square_input(self):
        with pytest.raises(ValueError, match="square"):
            low_rank_eigh(np.ones((2, 3)))


class TestLooPath:
    def test_matches_dense_hat_matrix(self):
        rng = np.random.default_rng(40)
        x = rng.normal(size=(30, 2))
        y = np.sin(x[:, 0]) + 0.1 * rng.normal(size=30)
        eigvals, eigvecs = np.linalg.eigh(
            gram(x, x, KernelSpec(np.array([1.0, 1.5]))))
        grid = np.logspace(-4, 1, 12)
        np.testing.assert_allclose(loo_path(eigvals, eigvecs, y, grid),
                                   dense_loo_scores(eigvals, eigvecs, y, grid),
                                   rtol=1e-10)

    def test_matches_ridge_refit_leaving_each_point_out(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(12, 1))
        y = rng.normal(size=12)
        k = gram(x, x, KernelSpec(np.array([0.8])))
        lam = 0.05
        eigvals, eigvecs = np.linalg.eigh(k)
        errors = []
        for i in range(12):
            keep = np.arange(12) != i
            # Ridge scaled by the full sample size, as in the closed form.
            coef = np.linalg.solve(
                k[np.ix_(keep, keep)] + 12 * lam * np.eye(11), y[keep])
            errors.append(y[i] - k[i, keep] @ coef)
        assert loo_path(eigvals, eigvecs, y, [lam])[0] == pytest.approx(
            np.mean(np.square(errors)), rel=1e-10)

    def test_zero_residual_diagonal_scores_inf(self):
        # At lam = 0 with a full-rank K, H = 0: every LOO residual is 0/0.
        scores = loo_path(np.array([1.0, 2.0]), np.eye(2),
                          np.array([1.0, -1.0]), [0.0, 1.0])
        assert scores[0] == np.inf
        assert np.isfinite(scores[1])


class TestArgminTiesLarger:
    def test_skips_nonfinite_scores(self):
        assert argmin_ties_larger([1.0, 2.0, 3.0],
                                  [np.nan, 4.0, np.inf]) == 2.0

    def test_ties_go_to_larger_value_in_any_grid_order(self):
        assert argmin_ties_larger([3.0, 1.0, 2.0, 4.0],
                                  [0.5, 0.5, 1.0, 0.5 + 1e-16]) == 3.0

    def test_all_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            argmin_ties_larger([1.0, 2.0], [np.inf, np.nan])


class TestSearchRecord:
    def test_one_point_grid_is_an_edge(self):
        record = search_record([0.2], [3.0])
        assert record.lam == 0.2 and record.edge

    def test_ties_go_to_the_larger_ridge(self):
        record = search_record([1e-3, 1e-2, 1e-1, 1.0], [2.0, 1.0, 1.0, 3.0])
        assert record.lam == 1e-1 and not record.edge

    @pytest.mark.parametrize("scores, lam", [([2.0, 1.0, 3.0], 0.1),
                                             ([3.0, 2.0, 1.0], 0.3)])
    def test_pick_at_either_end_is_an_edge(self, scores, lam):
        record = search_record([0.2, 0.1, 0.3], scores)
        assert record.lam == lam and record.edge

    def test_keeps_grid_order_and_scores(self):
        grid, scores = [0.3, 0.1, 0.2], [2.0, np.inf, 1.0]
        record = search_record(grid, scores)
        np.testing.assert_array_equal(record.grid, grid)
        np.testing.assert_array_equal(record.scores, scores)
        assert record.lam == 0.2 and not record.edge

    def test_holds_copies_of_its_inputs(self):
        grid, scores = np.array([0.1, 0.2]), np.array([1.0, 2.0])
        record = search_record(grid, scores)
        grid[0] = scores[0] = 5.0
        assert record.grid[0] == 0.1 and record.scores[0] == 1.0


class TestRidgeGrid:
    def test_returns_float_vector(self):
        np.testing.assert_array_equal(ridge_grid(0.5), [0.5])
        np.testing.assert_array_equal(ridge_grid([1, 2]), [1.0, 2.0])

    @pytest.mark.parametrize("bad", [0.0, -1e-3, np.nan, np.inf, -np.inf])
    def test_names_first_bad_value(self, bad):
        with pytest.raises(ValueError, match=f"got {bad}"):
            ridge_grid([0.1, bad, -5.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ridge_grid([])

    def test_name_labels_message(self):
        with pytest.raises(ValueError,
                           match="^--lambda1 must be positive and finite, "
                                 "got inf$"):
            ridge_grid(np.inf, "--lambda1")
        with pytest.raises(ValueError, match="^--lambda-grid is empty$"):
            ridge_grid([], "--lambda-grid")

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", sorted(_single_ridge_entry_points()))
    def test_single_ridge_entry_points_share_the_rule(self, entry, bad):
        call = _single_ridge_entry_points()[entry]
        call(0.1)
        with pytest.raises(ValueError, match="positive and finite"):
            call(bad)


class TestKhatriRao:
    def test_hand_expansion(self):
        a = np.array([[1.0], [2.0]])
        b = np.array([[3.0], [4.0]])
        np.testing.assert_array_equal(
            khatri_rao_cols(a, b), np.array([[3.0], [4.0], [6.0], [8.0]]))

    def test_ones_row_is_identity_like(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 5))
        np.testing.assert_array_equal(khatri_rao_cols(a, np.ones((1, 5))), a)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(2, 4))
        result = khatri_rao_cols(a, b)
        expected = np.empty((6, 4))
        for col in range(4):
            for i in range(3):
                for k in range(2):
                    expected[i * 2 + k, col] = a[i, col] * b[k, col]
        np.testing.assert_allclose(result, expected, atol=1e-15)

    def test_column_mismatch(self):
        with pytest.raises(ValueError, match="column count"):
            khatri_rao_cols(np.ones((2, 3)), np.ones((2, 4)))

    def test_gramian_identity(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            a = rng.normal(size=(4, 6))
            b = rng.normal(size=(3, 6))
            kr = khatri_rao_cols(a, b)
            np.testing.assert_allclose(kr.T @ kr, (a.T @ a) * (b.T @ b),
                                       atol=1e-10)


def _rbf_gram(points, sigma=1.0):
    return gram(points, points, KernelSpec([sigma]))


class TestNystrom:
    def test_full_rank_is_exact(self):
        rng = np.random.default_rng(5)
        k = _rbf_gram(rng.normal(size=(30, 1)))
        psi = nystrom(k, rank=30, landmark_seed=0)
        recon = 30.0**2 * (psi @ psi.T)
        assert np.linalg.norm(k - recon) <= 1e-6
        scaled = k / 30.0**2
        rel = (np.linalg.norm(scaled - psi @ psi.T)
               / np.linalg.norm(scaled))
        assert rel <= 1e-8

    def test_matches_fully_scaled_reference(self):
        # Reference: scale the whole matrix by 1/n^2, keep the landmarks S
        # at which LAPACK's pivoted Cholesky of the scaled landmark block
        # stops at the floor, and form s[:, S] s[S, S]^{-1} s[:, S]' by a
        # dense solve. s[S, S] keeps a pivot of 1e-11 here (condition
        # number 9e8), and this reference is itself 6e-15 from the same
        # product in 50 digits, so the two agree to 1e-10 of the scale.
        # On the kept landmarks the features reproduce s[S, S] to
        # round-off.
        rng = np.random.default_rng(6)
        k = _rbf_gram(rng.normal(size=(40, 1)))
        psi = nystrom(k, rank=12, landmark_seed=3)
        scaled = k / 40.0**2
        lm = nystrom_landmarks(40, 12, landmark_seed=3)
        _, piv, rank, _ = scipy.linalg.lapack.dpstrf(
            scaled[np.ix_(lm, lm)], tol=EIGENVALUE_FLOOR, lower=True)
        kept = lm[piv[:rank] - 1]
        expected = scaled[:, kept] @ np.linalg.solve(
            scaled[np.ix_(kept, kept)], scaled[:, kept].T)
        assert psi.shape == (40, rank)
        np.testing.assert_allclose(psi @ psi.T, expected,
                                   rtol=0, atol=1e-10 * scaled.max())
        np.testing.assert_allclose(psi[kept] @ psi[kept].T,
                                   scaled[np.ix_(kept, kept)],
                                   rtol=0, atol=1e-12 * scaled.max())

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("rank", [100, 500])
    def test_no_worse_than_eigen_truncation(self, seed, rank):
        # Reference: the eigen-truncated features C Q diag(e)^{-1/2} of the
        # scaled landmark block's eigenpairs above the same floor. On
        # instrument Grams the pivoted features' Frobenius error is within
        # 5% of theirs (measured ratios 0.988-1.000).
        n = 1000
        data = synthdata.gen_main(n, seed=seed).data
        w_gram = instrument_gram(data, data, KernelSpecs.from_data(data))
        lm = nystrom_landmarks(n, rank, landmark_seed=0)
        psi = nystrom_features(w_gram[:, lm], lm)
        scaled = w_gram / float(n) ** 2
        eigvals, eigvecs = np.linalg.eigh(scaled[np.ix_(lm, lm)])
        keep = eigvals > EIGENVALUE_FLOOR
        eig = scaled[:, lm] @ (eigvecs[:, keep] / np.sqrt(eigvals[keep]))
        assert (np.linalg.norm(scaled - psi @ psi.T)
                <= 1.05 * np.linalg.norm(scaled - eig @ eig.T))

    def test_rank_one_matrix(self):
        v = np.array([1.0, 2.0, -1.5, 0.7])
        k = np.outer(v, v)
        psi = nystrom(k, rank=1, landmark_seed=0)
        recon = 16.0 * (psi @ psi.T)
        np.testing.assert_allclose(recon, k, atol=1e-10)

    def test_200_point_gram_at_rank_50(self):
        rng = np.random.default_rng(6)
        k = _rbf_gram(rng.normal(size=(200, 1)))
        psi = nystrom(k, rank=50, landmark_seed=1)
        scaled = k / 200.0**2
        rel = (np.linalg.norm(scaled - psi @ psi.T)
               / np.linalg.norm(scaled))
        assert rel < 1e-2

    def test_error_nonincreasing_in_rank(self):
        rng = np.random.default_rng(7)
        k = _rbf_gram(rng.normal(size=(200, 1)))
        scaled = k / 200.0**2
        norm = np.linalg.norm(scaled)
        means = []
        for rank in (10, 25, 50, 100):
            errs = []
            for seed in range(5):
                psi = nystrom(k, rank, seed)
                errs.append(np.linalg.norm(scaled - psi @ psi.T) / norm)
            means.append(np.mean(errs))
        assert all(means[i + 1] <= means[i] + 1e-12 for i in range(3))

    def test_rank_bounds(self):
        k = np.eye(4)
        with pytest.raises(ValueError, match="rank"):
            nystrom(k, 0)
        with pytest.raises(ValueError, match="rank"):
            nystrom(k, 5)

    def test_all_eigenvalues_below_floor(self):
        with pytest.raises(np.linalg.LinAlgError, match="floor"):
            nystrom(np.zeros((3, 3)), rank=2, landmark_seed=0)

    def test_factors_from_landmark_columns_only(self):
        # The split steps give nystrom's bits from the n x rank columns.
        rng = np.random.default_rng(7)
        k = _rbf_gram(rng.normal(size=(50, 1)))
        landmarks = nystrom_landmarks(50, 15, landmark_seed=4)
        split = nystrom_features(k[:, landmarks], landmarks)
        np.testing.assert_array_equal(split, nystrom(k, 15, landmark_seed=4))

    def test_landmarks_sorted_distinct_and_bounded(self):
        landmarks = nystrom_landmarks(40, 12, landmark_seed=2)
        assert landmarks.size == 12 == np.unique(landmarks).size
        np.testing.assert_array_equal(landmarks, np.sort(landmarks))
        assert 0 <= landmarks.min() and landmarks.max() < 40
        with pytest.raises(ValueError, match="rank"):
            nystrom_landmarks(4, 0)
        with pytest.raises(ValueError, match="one column per landmark"):
            nystrom_features(np.ones((4, 2)), np.arange(3))


class TestWoodburyApply:
    """``nystrom_solve`` applies (psi psi' L + lam I)^{-1} psi psi' in its
    push-through form psi (psi' L psi + lam I)^{-1} psi', given L psi."""

    def test_zero_l_reduces_to_reconstruction(self):
        rng = np.random.default_rng(8)
        k = _rbf_gram(rng.normal(size=(12, 1)))
        psi = nystrom(k, rank=12, landmark_seed=0)
        rhs = rng.normal(size=12)
        out = nystrom_solve(psi, np.zeros((12, 12)) @ psi, 1.0, rhs)
        np.testing.assert_allclose(out, psi @ (psi.T @ rhs), atol=1e-12)

    def test_zero_rhs(self):
        rng = np.random.default_rng(9)
        k = _rbf_gram(rng.normal(size=(10, 1)))
        psi = nystrom(k, rank=10, landmark_seed=0)
        out = nystrom_solve(psi, np.eye(10) @ psi, 0.5, np.zeros(10))
        np.testing.assert_allclose(out, np.zeros(10), atol=1e-15)

    def test_exact_factors_match_closed_form(self):
        # With exact features this applies (K'L + lam I)^{-1} K' where
        # K' = K/n^2; oracle is a dense LU solve of the same system.
        rng = np.random.default_rng(10)
        n = 10
        k = _rbf_gram(rng.normal(size=(n, 1)))
        l = _rbf_gram(rng.normal(size=(n, 1)), sigma=0.7)
        y = rng.normal(size=n)
        lam = 1e-2
        psi = nystrom(k, rank=n, landmark_seed=2)
        out = nystrom_solve(psi, l @ psi, lam, y)
        scaled = k / n**2
        expected = np.linalg.solve(scaled @ l + lam * np.eye(n), scaled @ y)
        np.testing.assert_allclose(out, expected, rtol=1e-6, atol=1e-10)

    def test_matches_exact_pmmr_coefficients(self):
        # ten-point problem: Algorithm output equals the closed-form fit
        from proxilearn.kernels import KernelSpecs
        from proxilearn.pmmr import pmmr_fit, instrument_gram, jittered_l, h_side_gram
        from tests.conftest import rng_dataset

        data = rng_dataset(11, 10)
        specs = KernelSpecs.from_data(data)
        lam = 0.05
        exact = pmmr_fit(data, specs, lam)
        w_gram = instrument_gram(data, data, specs)
        l_jit = jittered_l(h_side_gram(data, data, specs))
        psi = nystrom(w_gram, rank=10, landmark_seed=0)
        out = nystrom_solve(psi, l_jit @ psi, lam / 100.0, data.y)
        rel = np.linalg.norm(out - exact.alpha) / np.linalg.norm(exact.alpha)
        assert rel <= 1e-6

    def test_requires_positive_lam(self):
        rng = np.random.default_rng(12)
        k = _rbf_gram(rng.normal(size=(5, 1)))
        psi = nystrom(k, rank=5, landmark_seed=0)
        with pytest.raises(ValueError, match="lam"):
            nystrom_solve(psi, np.eye(5) @ psi, 0.0, np.ones(5))
