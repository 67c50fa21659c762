import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize

from proxilearn.data import Dataset
from proxilearn.kernels import KernelSpecs
from proxilearn.pmmr import (
    DEFAULT_LAMBDA_GRID,
    _reduced_system,
    fit_pmmr,
    h_side_gram,
    instrument_gram,
    jittered_l,
    pmmr_ate,
    pmmr_fit,
    pmmr_fit_nystrom,
    pmmr_h,
    pmmr_objective,
    pmmr_validation_scores,
)
from proxilearn import pmmr, synthdata
from proxilearn.numerics import (
    EIGENVALUE_FLOOR,
    argmin_ties_larger,
    nystrom_landmarks,
    nystrom_solve,
)
from tests.conftest import nystrom, rng_dataset


def vstat_risk(residuals, w_gram):
    """Reference V-statistic risk r' W r / n^2 of a residual vector."""
    r = np.asarray(residuals, dtype=float).ravel()
    w_gram = np.asarray(w_gram, dtype=float)
    if w_gram.shape != (r.size, r.size):
        raise ValueError(
            f"Gram shape {w_gram.shape} does not match {r.size} residuals")
    return float(r @ w_gram @ r) / float(r.size) ** 2


class TestVstatRisk:
    def test_zero_residuals(self):
        assert vstat_risk(np.zeros(4), np.eye(4)) == 0.0

    def test_two_point_hand_expansion(self):
        w = np.array([[1.0, 0.3], [0.3, 1.0]])
        assert vstat_risk(np.ones(2), w) == pytest.approx((2 + 2 * 0.3) / 4)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(0)
        r = rng.normal(size=7)
        b = rng.normal(size=(7, 7))
        w = b @ b.T
        acc = sum(r[i] * r[j] * w[i, j] for i in range(7) for j in range(7))
        assert vstat_risk(r, w) == pytest.approx(acc / 49.0, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="Gram shape"):
            vstat_risk(np.ones(3), np.eye(4))


class TestPmmrFit:
    def test_zero_outcome(self):
        data = rng_dataset(1, 6)
        data = Dataset(data.a, data.x, data.z, data.w, np.zeros(6))
        model = pmmr_fit(data, KernelSpecs.from_data(data), 0.1)
        np.testing.assert_allclose(model.alpha, np.zeros(6), atol=1e-12)

    def test_single_point_scalar_case(self):
        data = Dataset(a=[0.5], x=np.empty((1, 0)), z=[[1.0]], w=[[2.0]],
                       y=[3.0])
        specs = KernelSpecs.from_data(rng_dataset(2, 8, dz=1, dw=1))
        lam = 0.7
        model = pmmr_fit(data, specs, lam)
        # L11 = W11 = 1 for Gaussian kernels, so alpha = y / (1 + lam)
        assert model.alpha[0] == pytest.approx(3.0 / 1.7, rel=1e-6)

    def test_empty_sample_refused_before_lapack(self, capfd):
        # Refused before any factorization, so LAPACK prints no argument
        # error to stderr.
        data = rng_dataset(3, 5)
        with pytest.raises(ValueError, match="need at least 1 training"):
            pmmr_fit(data.subset(np.arange(0)), KernelSpecs.from_data(data),
                     0.1)
        assert capfd.readouterr().err == ""

    def test_positive_lam_required(self):
        data = rng_dataset(3, 5)
        with pytest.raises(ValueError, match="lam"):
            pmmr_fit(data, KernelSpecs.from_data(data), 0.0)

    def test_matches_iterative_minimizer(self):
        data = rng_dataset(4, 8)
        specs = KernelSpecs.from_data(data)
        lam = 0.05
        model = pmmr_fit(data, specs, lam)
        l_jit = jittered_l(h_side_gram(data, data, specs))
        w_gram = instrument_gram(data, data, specs)

        def objective(alpha):
            return pmmr_objective(l_jit, w_gram, data.y, lam, alpha)

        def gradient(alpha):
            resid = data.y - l_jit @ alpha
            return (-2 * l_jit @ w_gram @ resid
                    + 2 * lam * l_jit @ alpha) / 64.0

        result = minimize(objective, np.zeros(8), jac=gradient,
                          method="L-BFGS-B",
                          options={"maxiter": 10_000, "ftol": 1e-18,
                                   "gtol": 1e-14})
        assert abs(objective(model.alpha) - result.fun) <= 1e-6

    def test_smallest_default_ridge_matches_extended_precision(self):
        # The reduced solve keeps L alpha accurate where cond(L) ~ 1e5 and
        # the ridge is at the bottom of the default grid; the unreduced
        # system L W L + lam L lost about five digits here.
        import mpmath

        data = synthdata.gen_main(60, seed=0).data
        specs = KernelSpecs.from_data(data)
        lam = float(DEFAULT_LAMBDA_GRID[0])
        model = pmmr_fit(data, specs, lam)
        l_jit = jittered_l(h_side_gram(data, data, specs))
        w_gram = instrument_gram(data, data, specs)
        with mpmath.workdps(60):
            l_mp = mpmath.matrix(l_jit.tolist())
            lw = l_mp * mpmath.matrix(w_gram.tolist())
            alpha = mpmath.lu_solve(lw * l_mp + mpmath.mpf(lam) * l_mp,
                                    lw * mpmath.matrix(data.y.tolist()))
            expected = np.array([float(v) for v in l_mp * alpha])
        rel = (np.linalg.norm(l_jit @ model.alpha - expected)
               / np.linalg.norm(expected))
        assert rel <= 1e-9

    def test_jittered_l_matches_identity_shift(self):
        data = rng_dataset(4, 12)
        l_gram = h_side_gram(data, data, KernelSpecs.from_data(data))
        jitter = 1e-8 * np.trace(l_gram) / 12
        np.testing.assert_array_equal(jittered_l(l_gram),
                                      l_gram + jitter * np.eye(12))

    def test_reduced_system_factors_l_in_place(self):
        data = rng_dataset(4, 12)
        specs = KernelSpecs.from_data(data)
        l_gram = h_side_gram(data, data, specs)
        l_jit = jittered_l(l_gram)
        w_gram = instrument_gram(data, data, specs)
        u, rwr, rwy = _reduced_system(l_gram, w_gram.copy(), data.y)
        assert np.shares_memory(u, l_gram)
        r = np.triu(u).T      # U = R' is the upper triangle of u
        np.testing.assert_allclose(r @ r.T, l_jit, rtol=0, atol=1e-12)
        # Callers read R' W R from the upper triangle only.
        np.testing.assert_allclose(np.triu(rwr), np.triu(r.T @ w_gram @ r),
                                   atol=1e-12)
        np.testing.assert_allclose(rwy, r.T @ w_gram @ data.y, atol=1e-12)

    def test_reduced_system_forms_rwr_in_w(self):
        data = rng_dataset(4, 12)
        specs = KernelSpecs.from_data(data)
        w_gram = instrument_gram(data, data, specs)
        w_ref = w_gram.copy()
        u, rwr, rwy = _reduced_system(h_side_gram(data, data, specs),
                                      w_gram, data.y)
        r = np.triu(u).T
        assert np.shares_memory(rwr, w_gram)
        # The upper triangle holds R' W R; the strict lower one keeps the
        # entries of W's Fortran-ordered transpose.
        np.testing.assert_allclose(np.triu(rwr), np.triu(r.T @ w_ref @ r),
                                   atol=1e-12)
        np.testing.assert_array_equal(np.tril(rwr, -1), np.tril(w_ref.T, -1))
        np.testing.assert_allclose(rwy, r.T @ w_ref @ data.y, atol=1e-12)

    def test_reduced_system_raises_on_sygst_failure(self, monkeypatch):
        data = rng_dataset(4, 12)
        specs = KernelSpecs.from_data(data)
        monkeypatch.setattr(pmmr, "dsygst", lambda a, b, **kwargs: (a, -1))
        with pytest.raises(np.linalg.LinAlgError, match="sygst"):
            _reduced_system(h_side_gram(data, data, specs),
                            instrument_gram(data, data, specs), data.y)

    def test_first_order_stationarity(self):
        data = rng_dataset(5, 9)
        specs = KernelSpecs.from_data(data)
        lam = 0.02
        model = pmmr_fit(data, specs, lam)
        l_jit = jittered_l(h_side_gram(data, data, specs))
        w_gram = instrument_gram(data, data, specs)
        rng = np.random.default_rng(6)
        step = 1e-6
        for coord in rng.choice(9, size=5, replace=False):
            e = np.zeros(9)
            e[coord] = step
            plus = pmmr_objective(l_jit, w_gram, data.y, lam,
                                  model.alpha + e)
            minus = pmmr_objective(l_jit, w_gram, data.y, lam,
                                   model.alpha - e)
            grad = (plus - minus) / (2 * step)
            assert abs(grad) <= 1e-6 * (1 + np.abs(data.y).max())


class TestPmmrNystrom:
    def test_full_rank_matches_exact(self):
        data = rng_dataset(7, 10)
        specs = KernelSpecs.from_data(data)
        exact = pmmr_fit(data, specs, 0.05)
        low = pmmr_fit_nystrom(data, specs, 0.05, rank=10, landmark_seed=1)
        rel = (np.linalg.norm(low.alpha - exact.alpha)
               / np.linalg.norm(exact.alpha))
        assert rel <= 1e-5

    def test_zero_outcome(self):
        data = rng_dataset(8, 8)
        data = Dataset(data.a, data.x, data.z, data.w, np.zeros(8))
        model = pmmr_fit_nystrom(data, KernelSpecs.from_data(data), 0.1,
                                 rank=4, landmark_seed=0)
        np.testing.assert_allclose(model.alpha, np.zeros(8), atol=1e-12)

    def test_half_rank_fit_close_on_synthetic_data(self):
        data = synthdata.gen_main(200, seed=3).data
        specs = KernelSpecs.from_data(data)
        lam = 1e-3
        exact = pmmr_fit(data, specs, lam)
        low = pmmr_fit_nystrom(data, specs, lam, rank=100, landmark_seed=0)
        l_gram = h_side_gram(data, data, specs)
        h_exact = l_gram @ exact.alpha
        h_low = l_gram @ low.alpha
        rms_diff = np.sqrt(np.mean((h_exact - h_low) ** 2))
        assert rms_diff < 0.1 * np.sqrt(np.mean(h_exact**2))

    def test_objective_gap_nonincreasing_in_rank(self):
        data = synthdata.gen_main(200, seed=0).data
        specs = KernelSpecs.from_data(data)
        lam = 1e-3
        l_jit = jittered_l(h_side_gram(data, data, specs))
        w_gram = instrument_gram(data, data, specs)
        exact = pmmr_fit(data, specs, lam)
        base = pmmr_objective(l_jit, w_gram, data.y, lam, exact.alpha)
        gaps = []
        for rank in (25, 50, 100, 200):
            vals = []
            for seed in range(5):
                model = pmmr_fit_nystrom(data, specs, lam, rank, seed)
                vals.append(pmmr_objective(l_jit, w_gram, data.y, lam,
                                           model.alpha) - base)
            gaps.append(np.mean(vals))
        assert all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(3))

    def test_builds_only_landmark_columns(self, monkeypatch):
        # Reference: Nystrom factors of the full n x n instrument Gram.
        data = synthdata.gen_main(120, seed=2).data
        specs = KernelSpecs.from_data(data)
        lam, rank = 1e-2, 30
        psi = nystrom(instrument_gram(data, data, specs), rank, 5)
        expected = nystrom_solve(
            psi, jittered_l(h_side_gram(data, data, specs)) @ psi,
            lam / 120.0**2, data.y)
        shapes = []

        def recording(left, right, specs):
            out = instrument_gram(left, right, specs)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(pmmr, "instrument_gram", recording)
        model = pmmr_fit_nystrom(data, specs, lam, rank, landmark_seed=5)
        assert shapes == [(120, rank)]
        np.testing.assert_allclose(model.alpha, expected, rtol=1e-9,
                                   atol=1e-9 * np.abs(expected).max())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_smallest_default_ridge_matches_extended_precision(self, seed):
        # With every landmark eigenvalue kept, psi psi' = C B^{-1} C' / n^2
        # for the landmark columns C and block B, so the fit is
        # alpha = C (C' L C + lam B)^{-1} C' y. The oracle forms the
        # products exactly in integers (fixed point, 2^-200) and solves in
        # 40 digits.
        import mpmath

        n, rank, bits = 120, 60, 200
        data = synthdata.gen_main(n, seed=seed).data
        specs = KernelSpecs.from_data(data)
        lam = float(DEFAULT_LAMBDA_GRID[0])
        model = pmmr_fit_nystrom(data, specs, lam, rank, landmark_seed=0)
        landmarks = nystrom_landmarks(n, rank, landmark_seed=0)
        c = instrument_gram(data, data.subset(landmarks), specs)
        floor = 10 * EIGENVALUE_FLOOR
        assert np.linalg.eigvalsh(c[landmarks]).min() / n**2 > floor

        def fixed(m):
            return np.frompyfunc(int, 1, 1)(np.ldexp(m, bits))

        ci, li = fixed(c), fixed(jittered_l(h_side_gram(data, data, specs)))
        lc = li @ ci                                  # scale 2^(2 bits)
        gram_c = ci.T @ lc                            # scale 2^(3 bits)
        cy = ci.T @ fixed(data.y)                     # scale 2^(2 bits)
        bi = fixed(c[landmarks])

        with mpmath.workdps(40):
            def mp(v, scale):
                return mpmath.ldexp(mpmath.mpf(v), -scale * bits)

            lam_mp = mpmath.mpf(lam)
            system = mpmath.matrix(
                [[mp(gram_c[i, j], 3) + lam_mp * mp(bi[i, j], 1)
                  for j in range(rank)] for i in range(rank)])
            coef = mpmath.lu_solve(system,
                                   mpmath.matrix([mp(v, 2) for v in cy]))
            expected = np.array([
                float(mpmath.fsum(mp(lc[i, j], 2) * coef[j]
                                  for j in range(rank)))
                for i in range(n)])
        got = np.array([v / (1 << 2 * bits) for v in li @ fixed(model.alpha)])
        rel = np.linalg.norm(got - expected) / np.linalg.norm(expected)
        assert rel <= 1e-10

    def test_allocates_no_n_by_n_array(self):
        # L enters only as L psi, built from row blocks of L.
        n = 1000
        data = synthdata.gen_main(n, seed=0).data
        specs = KernelSpecs.from_data(data)
        tracemalloc.start()
        try:
            pmmr_fit_nystrom(data, specs, 1e-3, rank=100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n

    def test_rank_is_the_landmark_count_kept(self):
        # The pivoted Cholesky keeps 266 of the 300 landmarks asked for on
        # this draw, and the model records the count it kept.
        data = synthdata.gen_main(300, seed=0).data
        assert fit_pmmr(data, lam=0.1, rank=300).rank == 266
        assert fit_pmmr(data, lam=0.1).rank is None

    def test_rank_bounds(self):
        data = rng_dataset(9, 6)
        with pytest.raises(ValueError, match="rank"):
            pmmr_fit_nystrom(data, KernelSpecs.from_data(data), 0.1, 7)

    @pytest.mark.parametrize("rank", [0, 7])
    def test_fit_pmmr_checks_rank_before_search(self, monkeypatch, rank):
        def search(*args, **kwargs):
            raise AssertionError("the ridge search ran")

        monkeypatch.setattr(pmmr, "pmmr_validation_scores", search)
        with pytest.raises(ValueError, match=r"rank must be in \[1, 6\]"):
            fit_pmmr(rng_dataset(9, 6), rank=rank)


class TestPmmrEvaluation:
    def make_model(self, seed=10, n=5, dx=0):
        data = rng_dataset(seed, n, dx=dx)
        return pmmr_fit(data, KernelSpecs.from_data(data), 0.1)

    def test_h_zero_alpha(self):
        model = self.make_model()
        zeroed = type(model)(sample=model.sample, specs=model.specs,
                             alpha=np.zeros(5), lam=model.lam)
        assert pmmr_h(zeroed, 0.1, np.zeros(2)) == 0.0

    def test_h_at_training_point_single(self):
        data = Dataset(a=[0.2], x=np.empty((1, 0)), z=[[0.0]], w=[[1.0]],
                       y=[5.0])
        specs = KernelSpecs.from_data(rng_dataset(11, 8, dz=1, dw=1))
        model = pmmr_fit(data, specs, 0.3)
        value = pmmr_h(model, 0.2, np.array([1.0]))
        assert value == pytest.approx(model.alpha[0], rel=1e-6)

    def test_h_matches_loop_oracle(self):
        from proxilearn.kernels import gram

        model = self.make_model(seed=12, n=5)
        specs = model.specs
        a, w = 0.15, np.array([0.4, -0.8])
        acc = 0.0
        for i in range(5):
            ka = gram(model.sample.a[i:i + 1], np.array([[a]]), specs.a)[0, 0]
            kw = gram(model.sample.w[i:i + 1], w[None, :], specs.w)[0, 0]
            acc += model.alpha[i] * ka * kw
        assert pmmr_h(model, a, w) == pytest.approx(acc, rel=1e-12)

    def test_h_empty_batch_without_covariates(self):
        # X is omitted (null covariate set): an empty batch is no queries.
        data = synthdata.gen_main(60, seed=0).data
        model = pmmr_fit(data, KernelSpecs.from_data(data), 0.1)
        assert pmmr_h(model, np.empty(0), np.empty((0, 2))).shape == (0,)

    def test_ate_identical_adjustment_rows_equal_single(self):
        model = self.make_model(seed=13, n=6)
        w1 = np.array([0.3, 0.3])
        repeated = np.tile(w1, (4, 1))
        curve_many = pmmr_ate(model, [0.1, 0.5], np.empty((4, 0)), repeated)
        curve_one = pmmr_ate(model, [0.1, 0.5], np.empty((1, 0)),
                             w1[None, :])
        np.testing.assert_allclose(curve_many.estimate, curve_one.estimate,
                                   atol=1e-12)

    def test_ate_single_row_equals_h(self):
        model = self.make_model(seed=14, n=6)
        w1 = np.array([0.2, -0.4])
        curve = pmmr_ate(model, [0.3], np.empty((1, 0)), w1[None, :])
        assert curve.estimate[0] == pytest.approx(
            pmmr_h(model, 0.3, w1), rel=1e-12)

    def test_ate_equals_mean_of_h(self):
        model = self.make_model(seed=15, n=7)
        rng = np.random.default_rng(16)
        w_adj = rng.normal(size=(5, 2))
        curve = pmmr_ate(model, [0.0, 1.0], np.empty((5, 0)), w_adj)
        for g, est in zip(curve.grid, curve.estimate):
            mean_h = np.mean([pmmr_h(model, float(g), w_adj[k])
                              for k in range(5)])
            assert est == pytest.approx(mean_h, abs=1e-12)

    @pytest.mark.parametrize("dx", [1, 2])
    def test_ate_with_x_equals_mean_of_h(self, dx):
        # The curve is h(a, w_k, x_k) averaged over the adjustment rows k,
        # so its X factor pairs each row's x with that row's w.
        model = self.make_model(seed=17, n=7, dx=dx)
        rng = np.random.default_rng(18)
        x_adj, w_adj = rng.normal(size=(5, dx)), rng.normal(size=(5, 2))
        curve = pmmr_ate(model, [0.0, 1.0], x_adj, w_adj)
        for g, est in zip(curve.grid, curve.estimate):
            h = pmmr_h(model, np.full(5, g), w_adj, x_adj)
            assert est == pytest.approx(h.mean(), rel=1e-12, abs=1e-12)

    def test_empty_adjustment_rejected(self):
        model = self.make_model()
        with pytest.raises(ValueError, match="empty"):
            pmmr_ate(model, [0.0], np.empty((0, 0)), np.empty((0, 2)))


class TestSelection:
    def test_single_point_grid(self):
        train, validate = rng_dataset(17, 8), rng_dataset(18, 8)
        specs = KernelSpecs.from_data(train)
        scores = pmmr_validation_scores(train, validate, specs, [0.2])
        assert argmin_ties_larger([0.2], scores) == 0.2

    def test_selected_score_is_minimal(self):
        train, validate = rng_dataset(19, 12), rng_dataset(20, 12)
        specs = KernelSpecs.from_data(train)
        grid = DEFAULT_LAMBDA_GRID[::10]
        scores = pmmr_validation_scores(train, validate, specs, grid)
        lam = argmin_ties_larger(grid, scores)
        chosen = scores[np.argmin(np.abs(grid - lam))]
        assert chosen <= scores.min() + 1e-15

    def test_scores_match_refit_per_ridge(self):
        train, validate = rng_dataset(23, 15), rng_dataset(24, 11)
        specs = KernelSpecs.from_data(train)
        grid = np.logspace(-3, 0, 7)
        l_cross = h_side_gram(train, validate, specs)
        w_val = instrument_gram(validate, validate, specs)
        expected = [
            vstat_risk(validate.y - pmmr_fit(train, specs, lam).alpha
                       @ l_cross, w_val)
            for lam in grid
        ]
        np.testing.assert_allclose(
            pmmr_validation_scores(train, validate, specs, grid), expected,
            rtol=1e-9)

    @staticmethod
    def refit_scores_match(n, seed, rtol):
        """The search's scores on the halves of ``gen_main(n, seed)``, split
        as ``fit_pmmr`` splits it, against one ``pmmr_fit`` per ridge of the
        default grid."""
        data = synthdata.gen_main(n, seed=seed).data
        specs = KernelSpecs.from_data(data)
        train, validate = data.split_half(seed)
        l_cross = h_side_gram(train, validate, specs)
        w_val = instrument_gram(validate, validate, specs)
        expected = [
            vstat_risk(validate.y - pmmr_fit(train, specs, lam).alpha
                       @ l_cross, w_val)
            for lam in DEFAULT_LAMBDA_GRID
        ]
        np.testing.assert_allclose(
            pmmr_validation_scores(train, validate, specs,
                                   DEFAULT_LAMBDA_GRID),
            expected, rtol=rtol)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scores_match_refit_over_default_grid(self, seed):
        self.refit_scores_match(400, seed, rtol=1e-7)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [0, 1000, 7000])
    def test_scores_match_refits_on_pinned_draws(self, seed):
        # Three of the benchmark's n = 2000 draws. The tridiagonal path
        # agrees with the refits within 4.3e-9, 1.8e-9 and 2.8e-9
        # (relative); an eigendecomposition of R' W R reached 1.8e-7.
        self.refit_scores_match(2000, seed, rtol=2e-8)

    def test_indefinite_ridge_scores_inf(self):
        # At 1e-30, R' W R + lam I of this draw's 1000-row half is not
        # positive definite at working precision: that ridge scores inf,
        # and the pick is the default grid's (tests/test_selected_lambdas).
        data = synthdata.gen_main(2000, seed=0).data
        grid = np.concatenate([[1e-30], DEFAULT_LAMBDA_GRID])
        model = fit_pmmr(data, KernelSpecs.from_data(data), lam_grid=grid,
                         split_seed=0)
        assert model.search.scores[0] == np.inf
        assert np.isfinite(model.search.scores[1:]).all()
        assert model.lam == DEFAULT_LAMBDA_GRID[36]

    def test_interior_minimum_on_synthetic_data(self):
        data = synthdata.gen_main(500, seed=0).data
        specs = KernelSpecs.from_data(data)
        train, validate = data.split_half(0)
        scores = pmmr_validation_scores(train, validate, specs,
                                        DEFAULT_LAMBDA_GRID)
        best = scores.min()
        assert best < scores[0] and best < scores[-1]

    def test_grid_bounds(self):
        assert DEFAULT_LAMBDA_GRID.min() == pytest.approx(1.0 / 450.0**2)
        assert DEFAULT_LAMBDA_GRID.max() == pytest.approx(0.25)
        assert len(DEFAULT_LAMBDA_GRID) == 50

    def test_fit_records_its_search(self):
        data = synthdata.gen_main(120, seed=5).data
        grid = DEFAULT_LAMBDA_GRID[::7]
        model = fit_pmmr(data, lam_grid=grid, split_seed=3)
        scores = pmmr_validation_scores(*data.split_half(3),
                                        KernelSpecs.from_data(data), grid)
        np.testing.assert_array_equal(model.search.grid, grid)
        np.testing.assert_array_equal(model.search.scores, scores)
        assert model.search.lam == model.lam == argmin_ties_larger(grid,
                                                                   scores)
        assert model.search.edge == (model.lam in (grid[0], grid[-1]))

    @pytest.mark.parametrize("rank", [None, 10])
    def test_one_point_grid_fit_is_an_edge(self, rank):
        model = fit_pmmr(rng_dataset(21, 12), lam_grid=[0.2], rank=rank)
        assert model.search.lam == model.lam == 0.2
        assert model.search.edge

    @pytest.mark.parametrize("seed", [0, 4])
    def test_nystrom_landmarks_use_the_split_seed(self, seed):
        data = rng_dataset(22, 40)
        specs = KernelSpecs.from_data(data)
        model = fit_pmmr(data, lam=0.1, rank=20, split_seed=seed)
        np.testing.assert_array_equal(
            model.alpha,
            pmmr_fit_nystrom(data, specs, 0.1, 20, seed).alpha)

    @pytest.mark.parametrize("rank", [None, 10])
    def test_given_ridge_has_no_search(self, rank):
        assert fit_pmmr(rng_dataset(21, 12), lam=0.1,
                        rank=rank).search is None

    def test_positive_grid_required(self):
        data = rng_dataset(21, 12)
        with pytest.raises(ValueError, match="positive"):
            fit_pmmr(data, lam_grid=[-1.0])

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf, -np.inf])
    def test_invalid_grid_value_rejected(self, bad):
        data = rng_dataset(21, 12)
        with pytest.raises(ValueError, match="positive and finite"):
            fit_pmmr(data, lam_grid=[bad, 0.1])


@pytest.mark.slow
@pytest.mark.parametrize("seed, index, edge", [(2000, 49, True),
                                               (0, 36, False)])
def test_search_reports_grid_edge_pick(seed, index, edge):
    # On this n = 2000 draw the largest default ridge wins the search, so
    # the grid's bound, not an interior minimum, chooses lambda.
    data = synthdata.gen_main(2000, seed=seed).data
    model = fit_pmmr(data, split_seed=seed)
    assert model.search.lam == model.lam == DEFAULT_LAMBDA_GRID[index]
    assert model.search.edge == edge


class TestCmrSanity:
    def test_exact_bridge_vstat_vanishes(self):
        toy = synthdata.gen_discrete_toy(2000, seed=0)
        data = toy.data
        specs = KernelSpecs.from_data(data)
        residuals = data.y - toy.h_star_at(data.a, data.w)
        w_gram = instrument_gram(data, data, specs)
        assert vstat_risk(residuals, w_gram) <= 1e-2

    def test_vstat_decreases_with_n(self):
        specs = KernelSpecs.from_data(synthdata.gen_discrete_toy(500, 0).data)
        values = []
        for n in (200, 2000):
            toy = synthdata.gen_discrete_toy(n, seed=1)
            residuals = toy.data.y - toy.h_star_at(toy.data.a, toy.data.w)
            w_gram = instrument_gram(toy.data, toy.data, specs)
            values.append(vstat_risk(residuals, w_gram))
        assert values[1] < values[0]


def test_fit_pmmr_pipeline_deterministic():
    data = synthdata.gen_main(120, seed=5).data
    m1 = fit_pmmr(data, split_seed=3)
    m2 = fit_pmmr(data, split_seed=3)
    np.testing.assert_array_equal(m1.alpha, m2.alpha)
    assert m1.lam == m2.lam
