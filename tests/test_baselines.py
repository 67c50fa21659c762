import numpy as np
import pytest
import scipy.linalg

from proxilearn.baselines import (
    adjusted_ate,
    adjusted_curve_weights,
    fit_ridge_baseline,
    fit_linear2s,
)
from proxilearn import baselines, evaluation, numerics, synthdata
from proxilearn.data import Dataset
from proxilearn.kernels import KernelSpec, KernelSpecs, gram
from tests.conftest import (kernel_ridge_predict, ridge_loo_scores,
                            rng_dataset)


def regression_data(a, y, w=None):
    """A dataset with no X or Z: its A is the regressor of plain ridge, and
    A and ``w`` those of ridge-w."""
    n = len(y)
    empty = np.empty((n, 0))
    return Dataset(a=a, x=empty, z=empty,
                   w=empty if w is None else w, y=y)


def regression_specs(a_bw, w_bw=()):
    return KernelSpecs(a=KernelSpec(a_bw), x=KernelSpec([]),
                       z=KernelSpec([]), w=KernelSpec(w_bw))


class TestKernelRidge:
    def test_zero_targets_zero_predictor(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 1))
        model = fit_ridge_baseline(regression_data(x, np.zeros(6)), "",
                                   lam=0.1, specs=regression_specs([1.0]))
        np.testing.assert_allclose(kernel_ridge_predict(model, x),
                                   np.zeros(6), atol=1e-12)

    def test_single_point(self):
        data = regression_data(np.array([[0.0]]), np.array([2.0]))
        model = fit_ridge_baseline(data, "", lam=0.5,
                                   specs=regression_specs([1.0]))
        pred = kernel_ridge_predict(model, np.array([[0.0]]))
        assert pred[0] == pytest.approx(2.0 / 1.5, rel=1e-10)

    def test_matches_lu_normal_equations(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 2))
        y = rng.normal(size=6)
        lam = 0.07
        model = fit_ridge_baseline(regression_data(x[:, :1], y, x[:, 1:]),
                                   "w", lam=lam,
                                   specs=regression_specs([0.8], [1.2]))
        k = gram(x, x, KernelSpec([0.8, 1.2]))
        expected = np.linalg.solve(k + 6 * lam * np.eye(6), y)
        np.testing.assert_allclose(model.beta, expected, atol=1e-8)

    def test_interpolates_at_tiny_ridge(self):
        x = np.linspace(0, 18, 10)[:, None]
        rng = np.random.default_rng(2)
        y = rng.normal(size=10)
        model = fit_ridge_baseline(regression_data(x, y), "", lam=1e-10,
                                   specs=regression_specs([1.0]))
        fit_error = np.abs(kernel_ridge_predict(model, x) - y).max()
        assert fit_error < 1e-4

    def test_loo_selection_is_argmin(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(20, 1))
        y = np.sin(x[:, 0]) + 0.1 * rng.normal(size=20)
        data = Dataset(a=x, x=np.empty((20, 0)), z=rng.normal(size=(20, 1)),
                       w=rng.normal(size=(20, 1)), y=y)
        one = KernelSpec([1.0])
        specs = KernelSpecs(a=one, x=KernelSpec([]), z=one, w=one)
        grid = np.logspace(-6, 1, 8)
        lam = fit_ridge_baseline(data, "", lam_grid=grid, specs=specs).lam
        scores = ridge_loo_scores(x, y, one, grid)
        assert scores[np.argmin(np.abs(grid - lam))] <= scores.min() + 1e-15


def exact_scores(data, adjust, grid):
    """The leave-one-out scores of a ridge model on ``data`` over ``grid``
    from its Gram's exact eigenpairs."""
    groups = ("a", "x", *adjust)
    specs = KernelSpecs.from_data(data)
    inputs = np.column_stack([getattr(data, g) for g in groups])
    spec = KernelSpec(np.concatenate(
        [getattr(specs, g).bandwidths for g in groups]))
    return ridge_loo_scores(inputs, data.y, spec, grid)


class _Counts:
    """Counts the pivoted Cholesky factors, the eigensolves (by size) and
    the Cholesky factors of a fit."""

    def __init__(self, monkeypatch):
        self.pstrf, self.eigh_sizes, self.cholesky = 0, [], 0

        def pstrf(*args, **kwargs):
            self.pstrf += 1
            return dpstrf(*args, **kwargs)

        def eigh(m):
            self.eigh_sizes.append(m.shape[0])
            return eigh_in_place(m)

        def cho_factor(*args, **kwargs):
            self.cholesky += 1
            return cholesky(*args, **kwargs)

        dpstrf, eigh_in_place = numerics.dpstrf, numerics.eigh_in_place
        cholesky = scipy.linalg.cho_factor
        monkeypatch.setattr(numerics, "dpstrf", pstrf)
        monkeypatch.setattr(numerics, "eigh_in_place", eigh)
        monkeypatch.setattr(scipy.linalg, "cho_factor", cho_factor)


class TestSearchedFit:
    """A searched fit scores the grid from ``numerics.low_rank_eigh``. On
    this draw plain ridge's Gram has rank 17 of 300 and takes the factor
    path; ridge-w's and ridge-wz's are full rank and are eigendecomposed
    whole."""

    @pytest.fixture(scope="class")
    def data(self):
        return synthdata.gen_main(300, seed=0).data

    @pytest.mark.parametrize("adjust", ["", "w", "wz"])
    def test_lambda_is_loo_argmin(self, data, adjust):
        grid = baselines.DEFAULT_RIDGE_GRID
        model = fit_ridge_baseline(data, adjust)
        scores = exact_scores(data, adjust, grid)
        assert model.lam == numerics.argmin_ties_larger(grid, scores)
        assert model.search.lam == model.lam
        np.testing.assert_array_equal(model.search.grid, grid)
        np.testing.assert_allclose(model.search.scores, scores, rtol=1e-8)

    def test_given_ridge_has_no_search(self, data):
        assert fit_ridge_baseline(data, "w", lam=1e-3).search is None

    @pytest.mark.parametrize("adjust", ["", "w", "wz"])
    def test_beta_matches_cholesky_fit(self, data, adjust):
        model = fit_ridge_baseline(data, adjust)
        fixed = fit_ridge_baseline(data, adjust, lam=model.lam)
        if adjust == "":
            # The factor path solves at the picked ridge as the fit at a
            # given ridge does.
            np.testing.assert_array_equal(model.beta, fixed.beta)
        else:
            # Both solves are backward stable, so they agree to round-off
            # relative to the largest coefficient.
            np.testing.assert_allclose(model.beta, fixed.beta, rtol=1e-9,
                                       atol=1e-12 * np.abs(fixed.beta).max())
        assert model.sample is fixed.sample is data
        assert model.adjust == fixed.adjust == adjust
        for g in "axzw":
            np.testing.assert_array_equal(
                getattr(model.specs, g).bandwidths,
                getattr(fixed.specs, g).bandwidths)

    def test_factor_path_factors_three_times(self, data, monkeypatch):
        counts = _Counts(monkeypatch)
        fit_ridge_baseline(data, "")
        # One pivoted Cholesky of the Gram, one eigensolve of G'G of its
        # rank and one Cholesky for beta.
        assert counts.pstrf == 1
        assert counts.eigh_sizes == [17]
        assert counts.cholesky == 1

    def test_full_rank_gram_is_eigendecomposed_whole(self, data,
                                                     monkeypatch):
        counts = _Counts(monkeypatch)
        fit_ridge_baseline(data, "wz")
        # Beta comes from the Gram's own eigenpairs: nothing else is
        # factored.
        assert counts.pstrf == 1
        assert counts.eigh_sizes == [data.n]
        assert counts.cholesky == 0

    @pytest.mark.parametrize("bad", [-1e-2, 0.0, np.nan, np.inf])
    def test_invalid_grid_value_rejected(self, bad):
        data = rng_dataset(14, 20)
        with pytest.raises(ValueError, match="positive and finite"):
            fit_ridge_baseline(data, "w", lam_grid=[bad, 0.1])

    @pytest.mark.parametrize("lam", [None, 0.1], ids=["searched", "given"])
    def test_empty_sample_refused_before_lapack(self, lam, capfd):
        # Refused with PMMR's message before any factorization, so LAPACK
        # prints no argument error to stderr.
        data = rng_dataset(15, 10).subset(np.arange(0))
        with pytest.raises(ValueError, match="need at least 1 training point"):
            fit_ridge_baseline(data, "w", lam=lam)
        assert capfd.readouterr().err == ""


@pytest.mark.slow
@pytest.mark.parametrize("adjust,seed", [
    pytest.param("", 0, id=""), pytest.param("w", 0, id="w"),
    pytest.param("", 6000, id="-6000"), pytest.param("w", 2000, id="w-2000")])
def test_scores_match_exact_eigenpairs_at_n2000(adjust, seed):
    # On the benchmark's draws both Grams take the factor path, their
    # pivots floored at the grid's smallest ridge: on draw 0, rank 17
    # (ridge) and 1164 (ridge-w) of 2000. Draws 6000 (ridge) and 2000
    # (ridge-w) have the largest score errors of the ten pinned draws.
    data = synthdata.gen_main(2000, seed=seed).data
    grid = baselines.DEFAULT_RIDGE_GRID
    model = fit_ridge_baseline(data, adjust)
    np.testing.assert_allclose(
        model.search.scores, exact_scores(data, adjust, grid), rtol=1e-8)
    fixed = fit_ridge_baseline(data, adjust, lam=model.lam)
    np.testing.assert_array_equal(model.beta, fixed.beta)


class TestAdjustedAte:
    def test_zero_predictor_gives_zero_curve(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 3))
        model = fit_ridge_baseline(
            regression_data(x[:, :1], np.zeros(8), x[:, 1:]), "w", lam=0.1,
            specs=regression_specs([1.0], [1.0, 1.0]))
        adjust = regression_data(np.zeros(5), np.zeros(5),
                                 rng.normal(size=(5, 2)))
        curve = adjusted_ate(model, [0.0, 0.5], adjust)
        np.testing.assert_array_equal(curve.estimate, 0.0)

    def test_single_row_equals_pointwise_prediction(self):
        rng = np.random.default_rng(5)
        inputs = rng.normal(size=(10, 3))
        y = rng.normal(size=10)
        model = fit_ridge_baseline(
            regression_data(inputs[:, :1], y, inputs[:, 1:]), "w", lam=0.05,
            specs=regression_specs([1.0], [1.0, 1.0]))
        row = np.array([0.4, -0.2])
        adjust = regression_data([0.0], [0.0], row[None, :])
        curve = adjusted_ate(model, [0.7], adjust)
        direct = kernel_ridge_predict(
            model, np.array([[0.7, 0.4, -0.2]]))
        assert curve.estimate[0] == pytest.approx(direct[0], rel=1e-12)

    def test_plain_ridge_uses_empty_adjustment(self):
        # Plain ridge adjusts over no group: its weights are beta.
        data = rng_dataset(6, 30)
        model = fit_ridge_baseline(data, "", lam=0.1)
        np.testing.assert_array_equal(adjusted_curve_weights(model, data),
                                      model.beta)
        curve = adjusted_ate(model, [0.0, 1.0], data)
        direct = kernel_ridge_predict(model, np.array([[0.0], [1.0]]))
        np.testing.assert_allclose(curve.estimate, direct, atol=1e-12)

    def test_empty_adjustment_rejected(self):
        data = rng_dataset(7, 10)
        for adjust in ("", "w"):
            model = fit_ridge_baseline(data, adjust, lam=0.1)
            with pytest.raises(ValueError, match="empty"):
                adjusted_ate(model, [0.0], data.subset(np.arange(0)))

    @pytest.mark.parametrize("adjust,dw", [("", 2), ("w", 1), ("w", 3),
                                           ("wz", 2)])
    def test_matches_joint_gram_loop(self, adjust, dw):
        # Reference: one joint adjustment-by-training Gram per grid point.
        data = rng_dataset(9, 40, dw=dw)
        model = fit_ridge_baseline(data, adjust, lam=1e-3)
        adjustment = np.column_stack(
            [np.empty((data.n, 0))] + [getattr(data, g) for g in adjust])
        grid = np.linspace(-1.5, 1.5, 7)
        expected = [
            kernel_ridge_predict(model, np.column_stack(
                [np.full(adjustment.shape[0], a), adjustment])).mean()
            for a in grid]
        curve = adjusted_ate(model, grid, data)
        np.testing.assert_allclose(curve.estimate, expected, rtol=1e-12)

    @pytest.mark.parametrize("width", [1, 3])
    def test_wrong_width_adjustment_rejected(self, width):
        data = rng_dataset(10, 12)
        model = fit_ridge_baseline(data, "w", lam=0.1)
        with pytest.raises(ValueError, match="columns"):
            adjusted_ate(model, [0.0], rng_dataset(10, 4, dw=width))

    def test_explicit_specs_used(self):
        data = rng_dataset(11, 20)
        specs = KernelSpecs(a=KernelSpec([0.3]), x=KernelSpec([]),
                            z=KernelSpec([1.1, 1.3]),
                            w=KernelSpec([0.7, 1.9]))
        model = fit_ridge_baseline(data, "wz", lam=0.1, specs=specs)
        assert model.sample is data and model.adjust == "wz"
        assert model.specs is specs
        k = gram(np.column_stack([data.a, data.w, data.z]),
                 np.column_stack([data.a, data.w, data.z]),
                 KernelSpec([0.3, 0.7, 1.9, 1.1, 1.3]))
        np.testing.assert_allclose(
            model.beta, np.linalg.solve(k + 20 * 0.1 * np.eye(20), data.y),
            rtol=1e-10)

    @pytest.mark.parametrize("adjust", ["", "w", "wz"])
    def test_default_bandwidths_are_per_group_median(self, adjust):
        # One rule for the default: the per-group median heuristic, as the
        # CLI's --bandwidth median gives, also when a column is constant.
        data = rng_dataset(13, 25)
        w = data.w.copy()
        w[:, 1] = 2.0
        data = Dataset(a=data.a, x=data.x, z=data.z, w=w, y=data.y)
        model = fit_ridge_baseline(data, adjust, lam=0.1)
        expected = KernelSpecs.from_data(data)
        for g in "axzw":
            np.testing.assert_array_equal(getattr(model.specs, g).bandwidths,
                                          getattr(expected, g).bandwidths)

    def test_unknown_adjust_rejected(self):
        with pytest.raises(ValueError, match="adjust must be"):
            fit_ridge_baseline(rng_dataset(12, 5), "z")

    def test_adjustment_blocks_match_model(self):
        # ridge-w averages over W only, ridge-wz over W and Z: moving the
        # adjustment sample's Z moves the weights of ridge-wz alone.
        data = rng_dataset(8, 15)
        moved = Dataset(a=data.a, x=data.x, z=data.z + 1.0, w=data.w,
                        y=data.y)
        model_w = fit_ridge_baseline(data, "w", lam=0.1)
        np.testing.assert_array_equal(adjusted_curve_weights(model_w, data),
                                      adjusted_curve_weights(model_w, moved))
        model_wz = fit_ridge_baseline(data, "wz", lam=0.1)
        assert not np.allclose(adjusted_curve_weights(model_wz, data),
                               adjusted_curve_weights(model_wz, moved))


class TestLinearTwoStage:
    def test_recovers_exact_linear_model(self):
        # noiseless scalar linear SEM solved analytically:
        # w = 1 + 2a - z, y = 3 + 0.5a + 2w
        rng = np.random.default_rng(9)
        n = 50
        a = rng.normal(size=n)
        z = rng.normal(size=n)
        w = 1.0 + 2.0 * a - z
        y = 3.0 + 0.5 * a + 2.0 * w
        data = Dataset(a=a, x=np.empty((n, 0)), z=z, w=w, y=y)
        grid = np.array([-1.0, 0.0, 1.0])
        curve = fit_linear2s(data).curve(data, grid)
        expected = 3.0 + 0.5 * grid + 2.0 * np.mean(w)
        np.testing.assert_allclose(curve.estimate, expected, atol=1e-8)

    def test_zero_effect_gives_flat_curve(self):
        rng = np.random.default_rng(10)
        n = 60
        a = rng.normal(size=n)
        z = rng.normal(size=n)
        w = 0.5 * z + rng.normal(size=n)
        y = np.full(n, 2.5)
        data = Dataset(a=a, x=np.empty((n, 0)), z=z, w=w, y=y)
        curve = fit_linear2s(data).curve(data, np.linspace(-2, 2, 5))
        np.testing.assert_allclose(curve.estimate, 2.5, atol=1e-8)

    def test_curve_is_affine_in_treatment(self):
        data = rng_dataset(11, 40)
        grid = np.linspace(-1, 2, 7)
        curve = fit_linear2s(data).curve(data, grid)
        slopes = np.diff(curve.estimate) / np.diff(grid)
        np.testing.assert_allclose(slopes, slopes[0], atol=1e-10)

    def test_rank_deficiency_rejected(self):
        n = 30
        rng = np.random.default_rng(12)
        a = rng.normal(size=n)
        data = Dataset(a=a, x=np.empty((n, 0)),
                       z=np.column_stack([a, a]),  # collinear with a
                       w=rng.normal(size=(n, 1)), y=rng.normal(size=n))
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            fit_linear2s(data).curve(data, [0.0])

    def test_level_uses_adjustment_w_mean(self):
        # w = 1 + 2a - z and y = 3 + 0.5a + 2w exactly, so the curve over
        # an adjustment sample is 3 + 0.5a + 2 mean(W_adjust).
        rng = np.random.default_rng(9)
        a = rng.normal(size=50)
        z = rng.normal(size=50)
        w = 1.0 + 2.0 * a - z
        data = Dataset(a=a, x=np.empty((50, 0)), z=z, w=w,
                       y=3.0 + 0.5 * a + 2.0 * w)
        grid = np.array([-1.0, 0.0, 1.0])
        w_adjust = w[:, None] + 3.0
        curve = fit_linear2s(data).curve(Dataset(
            a=a, x=np.empty((50, 0)), z=z, w=w_adjust, y=data.y), grid)
        np.testing.assert_allclose(
            curve.estimate, 3.0 + 0.5 * grid + 2.0 * w_adjust.mean(),
            atol=1e-8)
        with pytest.raises(ValueError, match="empty"):
            fit_linear2s(data).curve(data.subset(np.arange(0)), grid)

    def test_adjusts_for_observed_covariates(self):
        # U, X ~ N(0, 1), A = U + X + e, Z = U + e, W = U + e and
        # Y = A + 2U + 3X: the effect of A is 1. Without X in both stages
        # the slope is about 2.5.
        rng = np.random.default_rng(0)
        n = 20_000
        u, x = rng.normal(size=n), rng.normal(size=n)
        a = u + x + rng.normal(size=n)
        data = Dataset(a=a, x=x, z=u + rng.normal(size=n),
                       w=u + rng.normal(size=n), y=a + 2.0 * u + 3.0 * x)
        curve = fit_linear2s(data).curve(data, [0.0, 1.0])
        assert curve.estimate[1] - curve.estimate[0] == pytest.approx(
            1.0, abs=0.05)

    @pytest.mark.parametrize("n, duplicated", [(5, False), (40, True)])
    def test_two_treatment_columns_rejected_first(self, n, duplicated):
        # The check precedes the regressions: otherwise n = 5 fails on the
        # stage-1 row count and a duplicated column on stage-1 rank.
        data = rng_dataset(14, n)
        second = (data.a if duplicated
                  else np.random.default_rng(15).normal(size=(n, 1)))
        data = Dataset(a=np.column_stack([data.a, second]), x=data.x,
                       z=data.z, w=data.w, y=data.y)
        with pytest.raises(ValueError, match="scalar treatment only"):
            fit_linear2s(data).curve(data, [0.0])

    def test_needs_enough_rows(self):
        data = rng_dataset(13, 3)
        with pytest.raises(ValueError, match="more rows"):
            fit_linear2s(data).curve(data, [0.0])


def covariate_design(n, seed):
    """U, X ~ N(0, 1), A = U + X + e, Z = U + e, W = U + e and
    Y = A + 2U + 3X + 0.1 e, with independent standard normal noises e."""
    rng = np.random.default_rng(seed)
    u, x = rng.normal(size=n), rng.normal(size=n)
    e = rng.normal(size=(4, n))
    a = u + x + e[0]
    return Dataset(a=a, x=x, z=u + e[1], w=u + e[2],
                   y=a + 2.0 * u + 3.0 * x + 0.1 * e[3])


@pytest.mark.parametrize("method, slope", [
    ("ridge", 2.0), ("ridge-w", 5.0 / 3.0), ("ridge-wz", 1.5)])
def test_ridge_baselines_regress_on_x(method, slope):
    # The design is jointly Gaussian. Regressing on (A, X) and averaging
    # over X gives the slope 1 + 2 d E[U | A, X] / dA = 1 + 2/2; each of W
    # and Z is one more noisy view of U: 1 + 2/3 and 1 + 2/4. A regression
    # that leaves X out has slopes of about 2.6 on all three.
    grid = np.linspace(-1.5, 1.5, 9)
    curve = evaluation.fit_method(method, covariate_design(2000, 0), grid)
    assert np.polyfit(grid, curve.estimate, 1)[0] == pytest.approx(
        slope, abs=0.15)


def test_plain_ridge_on_x_averages_over_x():
    # With an X column, plain ridge's curve weights average k_X over the
    # adjustment sample, so they are no longer beta.
    data = covariate_design(40, 1)
    model = fit_ridge_baseline(data, "", lam=1e-2)
    weights = adjusted_curve_weights(model, data)
    k_x = gram(data.x, data.x, model.specs.x)
    np.testing.assert_allclose(weights, k_x.mean(axis=0) * model.beta,
                               rtol=1e-13)
