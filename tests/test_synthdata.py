import numpy as np
import pytest

from proxilearn import evaluation, synthdata
from proxilearn.data import DoCurve
from proxilearn.synthdata import gen_discrete_toy, gen_main, true_ate


class TestGenMain:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gen_main(0)

    def test_shapes_and_null_x(self):
        draw = gen_main(25, seed=1)
        data = draw.data
        assert data.a.shape == (25, 1)
        assert data.x.shape == (25, 0)
        assert data.z.shape == (25, 2)
        assert data.w.shape == (25, 2)
        assert data.y.shape == (25,)
        assert draw.u.shape == (25, 2)

    def test_deterministic_given_seed(self):
        d1, d2 = gen_main(100, seed=9), gen_main(100, seed=9)
        np.testing.assert_array_equal(d1.data.a, d2.data.a)
        np.testing.assert_array_equal(d1.data.y, d2.data.y)
        d3 = gen_main(100, seed=10)
        assert not np.array_equal(d1.data.a, d3.data.a)

    def test_treatment_moments(self):
        # A = U2 + noise: mean 0.5, variance 0.75 + 0.05
        draw = gen_main(100_000, seed=2)
        a = draw.data.a[:, 0]
        assert a.mean() == pytest.approx(0.5, abs=0.02)
        assert a.var() == pytest.approx(0.80, abs=0.03)

    def test_confounder_support(self):
        draw = gen_main(50_000, seed=3)
        u1, u2 = draw.u[:, 0], draw.u[:, 1]
        assert u2.min() >= -1.0 and u2.max() <= 2.0
        assert u1.min() >= -1.0 and u1.max() <= 1.0
        # U1 is shifted down by one exactly when U2 lies in [0, 1]
        inside = (u2 >= 0) & (u2 <= 1)
        assert (u1[inside] <= 0).all() and (u1[~inside] >= 0).all()

    def test_outcome_equation(self):
        draw = gen_main(1000, seed=4)
        u1, u2 = draw.u[:, 0], draw.u[:, 1]
        a = draw.data.a[:, 0]
        np.testing.assert_allclose(
            draw.data.y, u2 * np.cos(2 * (a + 0.3 * u1 + 0.2)), atol=1e-12)


class TestTrueAte:
    def test_self_consistency_of_two_estimates(self):
        grid = np.array([-0.5, 0.3, 1.5])
        one = true_ate(grid, mc_samples=1_000_000, seed=1)
        two = true_ate(grid, mc_samples=1_000_000, seed=2)
        assert np.abs(one.estimate - two.estimate).max() <= 2e-3

    def test_deterministic(self):
        grid = np.array([0.0, 1.0])
        one = true_ate(grid, mc_samples=10_000, seed=5)
        two = true_ate(grid, mc_samples=10_000, seed=5)
        np.testing.assert_array_equal(one.estimate, two.estimate)

    def test_unconfounded_toy_outcome_recovers_identity(self):
        grid = np.linspace(-2, 2, 5)
        curve = true_ate(grid, mc_samples=100, seed=0,
                         outcome=lambda a, u1, u2: np.full_like(u1, a))
        np.testing.assert_allclose(curve.estimate, grid, atol=1e-12)

    @pytest.mark.parametrize("points", [evaluation.GRID_POINTS, 50])
    def test_separable_oracle_matches_per_point_average(self, a_grid,
                                                        points):
        # The default path evaluates cos(2a) c - sin(2a) s from two
        # moments; a given outcome is averaged over the draw at each a.
        grid = np.linspace(a_grid[0], a_grid[-1], points)
        args = (grid, evaluation.ORACLE_MC_SAMPLES)
        fast = true_ate(*args, seed=evaluation.ORACLE_SEED)
        loop = true_ate(*args, seed=evaluation.ORACLE_SEED,
                        outcome=synthdata._outcome)
        np.testing.assert_array_equal(fast.grid, loop.grid)
        np.testing.assert_allclose(fast.estimate, loop.estimate,
                                   rtol=0, atol=1e-15)

    def test_scalar_and_empty_grids(self):
        scalar = true_ate(0.4, mc_samples=10_000, seed=3)
        loop = true_ate(0.4, mc_samples=10_000, seed=3,
                        outcome=synthdata._outcome)
        assert scalar.grid.shape == scalar.estimate.shape == (1,)
        assert scalar.estimate[0] == pytest.approx(loop.estimate[0],
                                                   rel=0, abs=1e-15)
        empty = true_ate([], mc_samples=10)
        assert empty.grid.shape == empty.estimate.shape == (0,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_grid_value_rejected(self, bad):
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="DoCurve values must be "
                                                "finite"):
            true_ate([0.0, bad], mc_samples=100)

    def test_matches_quadrature_oracle(self):
        # beta(a) = E[U2 cos(2a + 0.6 U1 + 0.4)]; U2 ~ U[-1,2] and
        # U1 | U2 uniform on a unit interval that depends on whether
        # U2 is in [0,1]. Tensor Gauss-Legendre on the three smooth
        # pieces of the U2 range is the independent oracle.
        nodes, weights = np.polynomial.legendre.leggauss(60)

        def piece(a, u2_lo, u2_hi, u1_lo):
            u2 = 0.5 * (u2_hi - u2_lo) * nodes + 0.5 * (u2_hi + u2_lo)
            wu2 = 0.5 * (u2_hi - u2_lo) * weights
            u1 = 0.5 * nodes + u1_lo + 0.5
            wu1 = 0.5 * weights
            vals = (u2[:, None]
                    * np.cos(2 * a + 0.6 * u1[None, :] + 0.4))
            return wu2 @ vals @ wu1

        def oracle(a):
            total = piece(a, -1.0, 0.0, 0.0) + piece(a, 0.0, 1.0, -1.0) \
                + piece(a, 1.0, 2.0, 0.0)
            return total / 3.0  # U2 density is 1/3 on [-1, 2]

        grid = np.array([-0.8, 0.0, 0.7, 1.9])
        curve = true_ate(grid, mc_samples=4_000_000, seed=7)
        for a, est in zip(grid, curve.estimate):
            assert est == pytest.approx(oracle(a), abs=1e-3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            true_ate([0.0], mc_samples=0)


class TestDiscreteToy:
    def test_bridge_solves_integral_equation(self):
        toy = gen_discrete_toy(10, seed=0)
        for k in range(toy.a_levels.size):
            residual = toy.p_w_given_az[k] @ toy.h_star[k] \
                - toy.ey_given_az[k]
            assert np.abs(residual).max() <= 1e-10

    def test_adjustment_reproduces_interventional_mean(self):
        toy = gen_discrete_toy(10, seed=0)
        adjusted = toy.h_star @ toy.p_w
        np.testing.assert_allclose(adjusted, toy.truth, atol=1e-10)

    def test_bridge_equation_well_posed(self):
        # The tables are fixed, so p(w | a, z) is invertible once and for
        # all; a margin keeps the exact bridge far from singular.
        toy = gen_discrete_toy(10, seed=0)
        for p_w_az in toy.p_w_given_az:
            assert abs(np.linalg.det(p_w_az)) > 0.1

    def test_sample_respects_supports(self):
        toy = gen_discrete_toy(500, seed=1)
        assert set(np.unique(toy.data.a)) <= set(toy.a_levels)
        assert set(np.unique(toy.data.w)) <= set(toy.w_levels)
        assert set(np.unique(toy.data.z)) <= set(toy.z_levels)

    def test_deterministic(self):
        one, two = gen_discrete_toy(200, seed=4), gen_discrete_toy(200, seed=4)
        np.testing.assert_array_equal(one.data.y, two.data.y)

    def test_h_star_lookup_rejects_off_support(self):
        toy = gen_discrete_toy(10, seed=0)
        with pytest.raises(ValueError, match="off the discrete support"):
            toy.h_star_at([0.4], [0.0])

    def test_truth_curve_shape(self):
        toy = gen_discrete_toy(10, seed=0)
        curve = toy.truth_curve()
        assert isinstance(curve, DoCurve)
        np.testing.assert_array_equal(curve.grid, toy.a_levels)
