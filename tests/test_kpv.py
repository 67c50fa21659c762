from dataclasses import replace

import numpy as np
import pytest

from proxilearn import kpv
from proxilearn.data import Dataset
from proxilearn.kernels import KernelSpec, KernelSpecs, gram
from proxilearn.kpv import (
    fit_kpv,
    kpv_ate,
    kpv_fit,
    kpv_h,
    kpv_model,
    stage1_embedding,
    stage1_fit,
)
from proxilearn.numerics import argmin_ties_larger, khatri_rao_cols, solve_psd
from proxilearn.synthdata import gen_main
from tests.conftest import hadamard, rng_dataset


def draw_wellposed_problem(rng, seed_base):
    """Random (sample1, sample2, specs, lam1, lam2) whose regularizer
    Gramian kron(K_WW, K_AX) is numerically invertible, so the dense
    oracle system below is well-posed."""
    while True:
        m1 = int(rng.integers(2, 7))
        m2 = int(rng.integers(1, 7))
        s1 = rng_dataset(seed_base + int(rng.integers(10_000)), m1)
        s2 = rng_dataset(seed_base + int(rng.integers(10_000)), m2)
        specs = KernelSpecs.from_data(s1)
        lam1 = float(10.0 ** rng.uniform(-5, -1))
        lam2 = float(10.0 ** rng.uniform(-4, 0))
        k_ww = gram(s1.w, s1.w, specs.w)
        k_ax2 = hadamard(gram(s2.a, s2.a, specs.a),
                         gram(s2.x, s2.x, specs.x))
        if np.linalg.cond(np.kron(k_ww, k_ax2)) < 1e8:
            return s1, s2, specs, lam1, lam2


def full_system_solution(fit, sample2, lam2):
    """Oracle: assemble and solve the dense (m1 m2) x (m1 m2) system."""
    specs = fit.specs
    s1, m1, m2 = fit.sample, fit.m1, sample2.n
    k_axz = hadamard(hadamard(gram(s1.a, s1.a, specs.a),
                              gram(s1.x, s1.x, specs.x)),
                     gram(s1.z, s1.z, specs.z))
    cross = hadamard(hadamard(gram(s1.a, sample2.a, specs.a),
                              gram(s1.x, sample2.x, specs.x)),
                     gram(s1.z, sample2.z, specs.z))
    gamma2 = np.linalg.solve(k_axz + m1 * fit.lam1 * np.eye(m1), cross)
    k_ww = gram(s1.w, s1.w, specs.w)
    k_ax2 = hadamard(gram(sample2.a, sample2.a, specs.a),
                     gram(sample2.x, sample2.x, specs.x))
    c = k_ww @ gamma2
    d = khatri_rao_cols(c, k_ax2)
    e = np.kron(k_ww, k_ax2)
    return np.linalg.solve(d @ d.T + m2 * lam2 * e, d @ sample2.y)


class TestStage1:
    def test_single_point_rejected(self):
        data = rng_dataset(0, 1)
        with pytest.raises(ValueError, match="at least 2"):
            stage1_fit(data, KernelSpecs.from_data(rng_dataset(0, 5)), 0.1)

    def test_duplicated_rows_still_solvable(self):
        base = rng_dataset(1, 3)
        dup = base.subset([0, 0, 1, 1, 2, 2])
        specs = KernelSpecs.from_data(dup)
        fit = stage1_fit(dup, specs, 0.1)
        coeff = stage1_embedding(fit, dup.a, dup.x, dup.z)
        assert np.isfinite(coeff).all()

    def test_gamma_approaches_basis_vector_at_tiny_ridge(self):
        # five well-separated points; direct solve at lam1 -> 1e-8
        a = np.array([0.0, 10.0, 20.0, 30.0, 40.0])
        data = Dataset(a=a, x=np.empty((5, 0)), z=a[:, None] * 1.1,
                       w=a[:, None] * 0.9, y=np.zeros(5))
        specs = KernelSpecs(a=KernelSpec([1.0]), x=KernelSpec([]),
                            z=KernelSpec([1.1]), w=KernelSpec([0.9]))
        fit = stage1_fit(data, specs, 1e-8)
        for i in range(5):
            coeff = stage1_embedding(fit, float(data.a[i, 0]), None,
                                     data.z[i])
            np.testing.assert_allclose(coeff, np.eye(5)[i], atol=1e-5)

    def test_positive_lam1_required(self):
        data = rng_dataset(2, 6)
        with pytest.raises(ValueError, match="lam1"):
            stage1_fit(data, KernelSpecs.from_data(data), 0.0)

    def test_builds_only_the_axz_gram(self, monkeypatch):
        # K_WW belongs to stage 2 (kpv_fit); stage 1 needs only K_AXZ.
        data = rng_dataset(3, 10)
        specs = KernelSpecs.from_data(data)
        calls = {"gram": 0, "product_gram": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(kpv, "gram", counting("gram", kpv.gram))
        monkeypatch.setattr(kpv, "product_gram",
                            counting("product_gram", kpv.product_gram))
        stage1_fit(data, specs, 1e-3)
        assert calls == {"gram": 0, "product_gram": 1}


class TestStage1Embedding:
    def test_constant_w_predicts_constant(self):
        rng = np.random.default_rng(3)
        n = 30
        data = Dataset(a=rng.normal(size=n), x=np.empty((n, 0)),
                       z=rng.normal(size=(n, 1)),
                       w=np.full((n, 1), 4.2), y=np.zeros(n))
        specs = KernelSpecs(a=KernelSpec([1.0]), x=KernelSpec([]),
                            z=KernelSpec([1.0]), w=KernelSpec([1.0]))
        fit = stage1_fit(data, specs, 1e-6)
        pred = data.w.T @ stage1_embedding(fit, 0.1, None, np.array([0.2]))
        assert pred == pytest.approx([4.2], abs=1e-3)

    def test_matches_direct_ridge_regression_of_w(self):
        # oracle: kernel ridge regression W ~ (A, X, Z) via dense solve
        rng = np.random.default_rng(4)
        n = 40
        z = rng.normal(size=(n, 1))
        w = z + 0.05 * rng.normal(size=(n, 1))
        data = Dataset(a=rng.normal(size=n), x=np.empty((n, 0)), z=z, w=w,
                       y=np.zeros(n))
        specs = KernelSpecs.from_data(data)
        lam1 = 1e-3
        fit = stage1_fit(data, specs, lam1)

        k_axz = hadamard(gram(data.a, data.a, specs.a),
                         gram(data.z, data.z, specs.z))
        query_a, query_z = 0.3, data.z[7]
        k_cross = hadamard(gram(data.a, np.array([[query_a]]), specs.a),
                           gram(data.z, query_z[None, :], specs.z))
        oracle_coeff = np.linalg.solve(k_axz + n * lam1 * np.eye(n), k_cross)
        oracle_pred = (data.w.T @ oracle_coeff).ravel()

        pred = data.w.T @ stage1_embedding(fit, query_a, None, query_z)
        np.testing.assert_allclose(pred, oracle_pred, atol=1e-8)
        # prediction close to the near-deterministic target
        assert abs(pred[0] - data.z[7, 0]) < 0.25

    def test_empty_batch_without_covariates(self):
        # X is omitted (null covariate set): an empty batch is no queries.
        data = gen_main(60, seed=0).data
        fit = stage1_fit(data, KernelSpecs.from_data(data), 1e-3)
        coeff = stage1_embedding(fit, np.empty(0), None, np.empty((0, 2)))
        assert coeff.shape == (data.n, 0)

    def test_coefficients_continuous_in_query(self):
        data = rng_dataset(5, 20)
        specs = KernelSpecs.from_data(data)
        fit = stage1_fit(data, specs, 1e-2)
        base = stage1_embedding(fit, 0.5, None, np.array([0.1, -0.3]))
        moved = stage1_embedding(fit, 0.5 + 1e-9, None,
                                 np.array([0.1, -0.3]))
        assert np.abs(moved - base).max() <= 1e-6


class TestKpvFit:
    def test_matches_full_system_oracle_small(self):
        rng = np.random.default_rng(6)
        s1 = rng_dataset(7, 4)
        s2 = rng_dataset(8, 4)
        specs = KernelSpecs.from_data(s1)
        lam1, lam2 = 1e-3, 1e-2
        fit = stage1_fit(s1, specs, lam1)
        model = kpv_fit(fit, s2, lam2)
        oracle = full_system_solution(fit, s2, lam2)
        rel = np.linalg.norm(model.nu - oracle) / np.linalg.norm(oracle)
        assert rel <= 1e-6

    def test_zero_outcome_gives_zero_coefficients(self):
        s1 = rng_dataset(9, 5)
        s2 = rng_dataset(10, 5)
        s2 = Dataset(s2.a, s2.x, s2.z, s2.w, np.zeros(5))
        specs = KernelSpecs.from_data(s1)
        model = kpv_fit(stage1_fit(s1, specs, 1e-2), s2, 1e-2)
        np.testing.assert_allclose(model.nu, np.zeros(25), atol=1e-12)

    def test_ridge_shrinkage_monotone(self):
        s1 = rng_dataset(11, 8)
        s2 = rng_dataset(12, 8)
        specs = KernelSpecs.from_data(s1)
        fit = stage1_fit(s1, specs, 1e-3)
        norms = [np.linalg.norm(kpv_fit(fit, s2, lam).nu)
                 for lam in (1.0, 1e2, 1e4, 1e8)]
        assert all(norms[i + 1] <= norms[i] for i in range(3))
        assert norms[-1] < 1e-6 * norms[0]

    def test_alpha_nu_reshape_roundtrip(self):
        s1, s2 = rng_dataset(13, 4), rng_dataset(14, 3)
        specs = KernelSpecs.from_data(s1)
        model = kpv_fit(stage1_fit(s1, specs, 1e-2), s2, 1e-2)
        np.testing.assert_array_equal(
            model.nu.reshape(model.stage1.m1, model.m2), model.alpha)

    def test_khatri_rao_expansion_identity(self):
        # nu equals (Gamma kr I) applied to the m2-system solution
        s1, s2 = rng_dataset(15, 5), rng_dataset(16, 4)
        specs = KernelSpecs.from_data(s1)
        fit = stage1_fit(s1, specs, 1e-3)
        model = kpv_fit(fit, s2, 1e-2)
        from proxilearn.kpv import _stage2_sigma
        from proxilearn.numerics import solve_psd

        gamma2, sigma = _stage2_sigma(fit, s2)
        c = solve_psd(sigma, s2.n * model.lam2, s2.y)
        expansion = khatri_rao_cols(gamma2, np.eye(s2.n)) @ c
        np.testing.assert_allclose(model.nu, expansion, atol=1e-12)

    def test_model_rebuilt_from_c(self):
        s1, s2 = rng_dataset(17, 6), rng_dataset(18, 5)
        specs = KernelSpecs.from_data(s1)
        fit = stage1_fit(s1, specs, 1e-3)
        model = kpv_fit(fit, s2, 1e-2)
        assert model.c.shape == (5,)
        rebuilt = kpv_model(fit, s2, model.c.tolist(), model.lam2)
        np.testing.assert_array_equal(rebuilt.alpha, model.alpha)

    def test_model_c_length_checked(self):
        s1, s2 = rng_dataset(19, 4), rng_dataset(20, 3)
        fit = stage1_fit(s1, KernelSpecs.from_data(s1), 1e-3)
        with pytest.raises(ValueError, match="c has 4 values"):
            kpv_model(fit, s2, np.zeros(4), 1e-2)

    def test_empty_stage2_refused_before_lapack(self, capfd):
        # Refused before any factorization, so LAPACK prints no argument
        # error to stderr.
        s1, s2 = rng_dataset(21, 4), rng_dataset(22, 3)
        fit = stage1_fit(s1, KernelSpecs.from_data(s1), 1e-3)
        with pytest.raises(ValueError, match="stage 2 needs at least 1"):
            kpv_fit(fit, s2.subset(np.arange(0)), 1e-2)
        assert capfd.readouterr().err == ""


class TestKpvEvaluation:
    def make_model(self, seed=17, m1=5, m2=4, dx=0):
        s1 = rng_dataset(seed, m1, dx=dx)
        s2 = rng_dataset(seed + 1, m2, dx=dx)
        specs = KernelSpecs.from_data(s1)
        return kpv_fit(stage1_fit(s1, specs, 1e-2), s2, 1e-2)

    def test_h_zero_alpha(self):
        model = self.make_model()
        zeroed = replace(model, alpha=np.zeros_like(model.alpha))
        assert kpv_h(zeroed, 0.3, None, np.array([0.1, 0.2])) == 0.0

    def test_h_single_term(self):
        model = self.make_model()
        alpha = np.zeros_like(model.alpha)
        alpha[0, 0] = 1.0
        single = replace(model, alpha=alpha)
        specs = model.stage1.specs
        a, w = 0.4, np.array([0.5, -0.5])
        expected = (
            gram(model.sample2.a[:1], np.array([[a]]), specs.a)[0, 0]
            * gram(model.stage1.sample.w[:1], w[None, :], specs.w)[0, 0]
        )
        assert kpv_h(single, a, None, w) == pytest.approx(expected,
                                                          rel=1e-12)

    def test_h_matches_loop_oracle(self):
        model = self.make_model(seed=19, m1=3, m2=2)
        specs = model.stage1.specs
        a, w = -0.2, np.array([0.3, 0.9])
        acc = 0.0
        for i in range(3):
            for j in range(2):
                ka = gram(model.sample2.a[j:j + 1], np.array([[a]]),
                          specs.a)[0, 0]
                kw = gram(model.stage1.sample.w[i:i + 1], w[None, :],
                          specs.w)[0, 0]
                acc += model.alpha[i, j] * ka * kw
        assert kpv_h(model, a, None, w) == pytest.approx(acc, rel=1e-12)

    def test_h_empty_batch_without_covariates(self):
        data = gen_main(60, seed=0).data
        model = fit_kpv(data)
        assert kpv_h(model, np.empty(0), None, np.empty((0, 2))).shape == \
            (0,)

    def test_ate_zero_alpha_is_zero(self):
        model = self.make_model()
        zeroed = replace(model, alpha=np.zeros_like(model.alpha))
        curve = kpv_ate(zeroed, [0.0, 1.0], np.empty((3, 0)),
                        np.zeros((3, 2)))
        np.testing.assert_array_equal(curve.estimate, 0.0)

    def test_ate_single_row_equals_h(self):
        model = self.make_model()
        w1 = np.array([0.7, -0.1])
        curve = kpv_ate(model, [0.2], np.empty((1, 0)), w1[None, :])
        assert curve.estimate[0] == pytest.approx(
            kpv_h(model, 0.2, None, w1), rel=1e-12)

    def test_ate_equals_mean_of_h(self):
        model = self.make_model(seed=23, m1=6, m2=5)
        rng = np.random.default_rng(24)
        w_adj = rng.normal(size=(7, 2))
        grid = np.linspace(-1, 1, 4)
        curve = kpv_ate(model, grid, np.empty((7, 0)), w_adj)
        for g, est in zip(grid, curve.estimate):
            mean_h = np.mean([kpv_h(model, float(g), None, w_adj[k])
                              for k in range(7)])
            assert est == pytest.approx(mean_h, abs=1e-9)

    @pytest.mark.parametrize("dx", [1, 2])
    def test_ate_with_x_equals_mean_of_h(self, dx):
        # The curve is h(a, x_k, w_k) averaged over the adjustment rows k,
        # so its X factor pairs each row's x with that row's w.
        model = self.make_model(seed=25, m1=6, m2=5, dx=dx)
        rng = np.random.default_rng(26)
        x_adj, w_adj = rng.normal(size=(7, dx)), rng.normal(size=(7, 2))
        grid = np.linspace(-1, 1, 4)
        curve = kpv_ate(model, grid, x_adj, w_adj)
        for g, est in zip(grid, curve.estimate):
            h = kpv_h(model, np.full(7, g), x_adj, w_adj)
            assert est == pytest.approx(h.mean(), rel=1e-12, abs=1e-12)

    def test_empty_adjustment_rejected(self):
        model = self.make_model()
        with pytest.raises(ValueError, match="empty"):
            kpv_ate(model, [0.0], np.empty((0, 0)), np.empty((0, 2)))


class TestSelection:
    """The fixed ridges against the leave-one-out criteria they replace,
    and the tie rule the remaining ridge searches share."""

    @staticmethod
    def dense_stage1_loo_scores(sample, specs, grid):
        # ||T^{-1} H K_WW H T^{-1}||_2 / m1 with
        # H = m1 lam (K_AXZ + m1 lam I)^{-1} and T = diag(H).
        m1 = sample.n
        k_axz = kpv._gram_axz(sample, sample.a, sample.x, sample.z, specs)
        k_ww = gram(sample.w, sample.w, specs.w)
        scores = []
        for lam in grid:
            h = m1 * lam * np.linalg.inv(k_axz + m1 * lam * np.eye(m1))
            hs = h / np.diag(h)[:, None]
            scores.append(np.linalg.norm(hs @ k_ww @ hs.T, 2) / m1)
        return np.array(scores)

    @staticmethod
    def dense_stage2_loo_scores(fit, sample2, grid):
        # ||T^{-1} H y||^2 / m2 with H = m2 lam (Sigma + m2 lam I)^{-1}.
        m2 = sample2.n
        _, sigma = kpv._stage2_sigma(fit, sample2)
        scores = []
        for lam in grid:
            h = m2 * lam * np.linalg.inv(sigma + m2 * lam * np.eye(m2))
            scores.append(np.sum((h @ sample2.y / np.diag(h)) ** 2) / m2)
        return np.array(scores)

    def test_selected_scores_are_argmin(self):
        # The fixed ridges are what the closed-form leave-one-out searches
        # over logspace(-8, -3, 11) and logspace(-2, 0, 9) selected, as the
        # kpv module docstring records.
        data = gen_main(100, seed=0).data
        specs = KernelSpecs.from_data(data)
        s1, s2 = data.split_half(0)
        grid1, grid2 = np.logspace(-8, -3, 11), np.logspace(-2, 0, 9)
        scores1 = self.dense_stage1_loo_scores(s1, specs, grid1)
        assert argmin_ties_larger(grid1, scores1) == kpv.DEFAULT_LAMBDA1
        fit = stage1_fit(s1, specs, kpv.DEFAULT_LAMBDA1)
        scores2 = self.dense_stage2_loo_scores(fit, s2, grid2)
        assert argmin_ties_larger(grid2, scores2) == kpv.DEFAULT_LAMBDA2

    def test_ties_break_toward_larger(self):
        assert argmin_ties_larger([1.0, 2.0, 3.0], [5.0, 5.0, 7.0]) == 2.0
        assert argmin_ties_larger([3.0, 1.0, 2.0], [7.0, 5.0, 5.0]) == 2.0

    def test_all_nonfinite_scores_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            argmin_ties_larger([1.0, 2.0], [np.inf, np.nan])


class TestPipeline:
    def test_same_sample_both_stages_supported(self):
        data = rng_dataset(33, 12)
        specs = KernelSpecs.from_data(data)
        fit = stage1_fit(data, specs, 1e-3)
        model = kpv_fit(fit, data, 1e-2)
        assert np.isfinite(model.nu).all()
        assert model.stage1.m1 == model.m2 == 12

    @pytest.mark.parametrize("split_seed", [0, 7])
    def test_fit_kpv_defaults_are_the_fixed_ridges(self, split_seed):
        data = rng_dataset(43, 30)
        specs = KernelSpecs.from_data(data)
        s1, s2 = data.split_half(split_seed)
        expected = kpv_fit(stage1_fit(s1, specs, kpv.DEFAULT_LAMBDA1), s2,
                           kpv.DEFAULT_LAMBDA2)
        model = fit_kpv(data, split_seed=split_seed)
        assert (model.stage1.lam1, model.lam2) == (kpv.DEFAULT_LAMBDA1,
                                                   kpv.DEFAULT_LAMBDA2)
        np.testing.assert_array_equal(model.c, expected.c)
        np.testing.assert_array_equal(model.alpha, expected.alpha)

    @pytest.mark.parametrize("lam1, lam2", [(None, None), (1.0, None),
                                            (None, 1e-2), (1e-3, 1e-2)])
    def test_fit_kpv_fits_stage1_once(self, monkeypatch, lam1, lam2):
        calls = []
        real = kpv.stage1_fit

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(kpv, "stage1_fit", counted)
        fit_kpv(rng_dataset(41, 20), lam1=lam1, lam2=lam2)
        assert len(calls) == 1

    @pytest.mark.parametrize("lam2", [None, 1e-2])
    def test_fit_kpv_embeds_stage2_once(self, monkeypatch, lam2):
        # Gamma and Sigma are built once, for the solve, so sample 2 is
        # embedded once.
        calls = []
        real = kpv.stage1_embedding

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(kpv, "stage1_embedding", counted)
        fit_kpv(rng_dataset(42, 20), lam1=1e-3, lam2=lam2)
        assert len(calls) == 1

    def test_shared_stage2_system_gives_same_bits(self):
        # kpv_fit expands c with the Gamma its stage-2 system was built
        # from; recomputing Gamma in kpv_model gives the same bits.
        data = rng_dataset(43, 30)
        specs = KernelSpecs.from_data(data)
        s1, s2 = data.split_half(0)
        fit = stage1_fit(s1, specs, 1e-3)
        model = fit_kpv(data, specs, lam1=1e-3)
        gamma2, sigma = kpv._stage2_sigma(fit, s2)
        expected = kpv_model(fit, s2, model.c, model.lam2)
        np.testing.assert_array_equal(model.alpha, expected.alpha)
        np.testing.assert_array_equal(
            kpv_model(fit, s2, model.c, model.lam2, gamma2=gamma2).alpha,
            expected.alpha)
        np.testing.assert_array_equal(
            model.c, solve_psd(sigma, s2.n * model.lam2, s2.y))

    def test_fit_kpv_splits_and_is_deterministic(self):
        data = rng_dataset(34, 20)
        m1 = fit_kpv(data, lam1=1e-3, lam2=1e-2, split_seed=5)
        m2 = fit_kpv(data, lam1=1e-3, lam2=1e-2, split_seed=5)
        np.testing.assert_array_equal(m1.alpha, m2.alpha)
        assert m1.stage1.m1 == 10 and m1.m2 == 10

    @pytest.mark.parametrize("n", [2, 3])
    def test_fit_kpv_minimum_rows(self, n):
        with pytest.raises(ValueError,
                           match=rf"at least 4 rows \(2 per stage\), got {n}"):
            fit_kpv(rng_dataset(36, n))

    def test_fit_kpv_four_rows_fit(self):
        model = fit_kpv(rng_dataset(37, 4))
        assert model.stage1.m1 == model.m2 == 2
        assert np.isfinite(model.alpha).all()

    def test_woodbury_direct_equivalence_randomized(self):
        from tests.test_kpv import draw_wellposed_problem

        rng = np.random.default_rng(35)
        for trial in range(8):
            s1, s2, specs, lam1, lam2 = draw_wellposed_problem(rng, 100)
            fit = stage1_fit(s1, specs, lam1)
            model = kpv_fit(fit, s2, lam2)
            oracle = full_system_solution(fit, s2, lam2)
            rel = (np.linalg.norm(model.nu - oracle)
                   / max(np.linalg.norm(oracle), 1e-30))
            assert rel <= 1e-6
