import dataclasses
import json
import threading

import numpy as np
import pytest

from proxilearn import evaluation, synthdata
from proxilearn.data import Dataset, DoCurve
from proxilearn.kernels import KernelSpecs


class TestCmae:
    def test_identical_curves(self):
        c = DoCurve(grid=[0.0, 1.0], estimate=[0.3, 0.7])
        assert evaluation.cmae(c, c) == 0.0

    def test_constant_offset(self):
        grid = [0.0, 1.0, 2.0]
        a = DoCurve(grid=grid, estimate=[1.0, 2.0, 3.0])
        b = DoCurve(grid=grid, estimate=[1.5, 2.5, 3.5])
        assert evaluation.cmae(a, b) == pytest.approx(0.5)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        grid = np.arange(5.0)
        est = rng.normal(size=5)
        tru = rng.normal(size=5)
        a = DoCurve(grid=grid, estimate=est)
        b = DoCurve(grid=grid, estimate=tru)
        acc = sum(abs(est[i] - tru[i]) for i in range(5)) / 5
        assert evaluation.cmae(a, b) == pytest.approx(acc, rel=1e-12)

    def test_grid_mismatch_rejected(self):
        a = DoCurve(grid=[0.0, 1.0], estimate=[0.0, 0.0])
        b = DoCurve(grid=[0.0, 2.0], estimate=[0.0, 0.0])
        with pytest.raises(ValueError, match="different grids"):
            evaluation.cmae(a, b)


class TestRunTable:
    def small_table(self, **kwargs):
        grid = np.linspace(-0.5, 1.5, 5)
        truth = DoCurve(grid=grid, estimate=np.zeros(5))
        defaults = dict(n=60, n_seeds=3, methods=("ridge", "linear2s"),
                        a_grid=grid, truth=truth)
        defaults.update(kwargs)
        return evaluation.run_table(**defaults)

    def test_deterministic(self):
        one = self.small_table()
        two = self.small_table()
        assert one.per_seed == two.per_seed
        assert one.summary() == two.summary()

    def test_seeds_fit_in_calling_thread(self, monkeypatch):
        real = evaluation.fit_method
        threads = []

        def recording(name, data, a_grid, seed=0, specs=None):
            threads.append(threading.get_ident())
            return real(name, data, a_grid, seed, specs)

        monkeypatch.setattr(evaluation, "fit_method", recording)
        self.small_table(n_seeds=3)
        assert threads == [threading.get_ident()] * 6
        assert evaluation.max_workers() == 1

    def test_method_filter(self):
        result = self.small_table(methods=("ridge",))
        assert result.methods == ["ridge"]
        assert set(result.per_seed) == {"ridge"}

    def test_low_rank_method_runs(self):
        result = self.small_table(methods=("pmmr-nystrom",), n_seeds=2)
        assert np.isfinite(result.per_seed["pmmr-nystrom"]).all()

    def test_empty_methods_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            self.small_table(methods=())

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            self.small_table(methods=("nope",))

    def test_repeated_method_rejected_before_any_draw(self, monkeypatch):
        # Fitting a repeat twice would list it twice in ``methods`` but
        # once in ``per_seed``.
        def no_draw(*args, **kwargs):
            raise AssertionError("gen_main was called")

        monkeypatch.setattr(evaluation.synthdata, "gen_main", no_draw)
        with pytest.raises(ValueError, match="methods must not repeat, got "
                                             "ridge more than once"):
            self.small_table(methods=("ridge", "linear2s", "ridge"))

    @pytest.mark.parametrize("n_seeds", [0, -2])
    def test_nonpositive_seed_count_rejected_before_any_draw(
            self, monkeypatch, n_seeds):
        def no_draw(*args, **kwargs):
            raise AssertionError("gen_main was called")

        monkeypatch.setattr(evaluation.synthdata, "gen_main", no_draw)
        with pytest.raises(ValueError, match="n_seeds must be at least 1"):
            evaluation.run_table(60, n_seeds=n_seeds, methods=("ridge",))

    @pytest.mark.parametrize("n", [0, -5])
    def test_nonpositive_n_rejected_before_any_draw(self, monkeypatch, n):
        def no_draw(*args, **kwargs):
            raise AssertionError("drew data")

        monkeypatch.setattr(evaluation.synthdata, "true_ate", no_draw)
        monkeypatch.setattr(evaluation.synthdata, "gen_main", no_draw)
        with pytest.raises(ValueError,
                           match=f"^n must be at least 1, got {n}$"):
            evaluation.run_table(n, n_seeds=2, methods=("ridge",))

    def test_aggregates_recomputable(self):
        result = self.small_table()
        for m in result.methods:
            values = np.array(result.per_seed[m])
            assert result.mean(m) == pytest.approx(values.mean())
            assert result.std(m) == pytest.approx(values.std())

    def test_failure_fraction_aborts_with_diagnostics(self, monkeypatch):
        real = evaluation.fit_method

        def flaky(name, data, a_grid, seed=0, specs=None):
            if name == "linear2s":
                raise RuntimeError("synthetic failure for test")
            return real(name, data, a_grid, seed, specs)

        monkeypatch.setattr(evaluation, "fit_method", flaky)
        with pytest.raises(RuntimeError, match="linear2s.*failed"):
            self.small_table()

    def test_bandwidths_computed_once_per_draw(self, monkeypatch):
        real = KernelSpecs.from_data.__func__
        calls = []

        def counting(cls, data):
            calls.append(data.n)
            return real(cls, data)

        monkeypatch.setattr(KernelSpecs, "from_data", classmethod(counting))
        self.small_table(methods=("kpv", "pmmr", "ridge-w", "linear2s"),
                         n_seeds=4)
        assert calls == [60] * 4

    def test_shared_bandwidths_match_fits_without_them(self):
        methods = tuple(evaluation.ESTIMATORS)
        result = self.small_table(methods=methods, n_seeds=2)
        grid = np.linspace(-0.5, 1.5, 5)
        truth = DoCurve(grid=grid, estimate=np.zeros(5))
        for seed in range(2):
            data = synthdata.gen_main(60, seed=seed).data
            for m in methods:
                alone = evaluation.cmae(
                    evaluation.fit_method(m, data, grid, seed=seed), truth)
                assert result.per_seed[m][seed] == alone, (m, seed)

    def test_output_files(self):
        result = self.small_table()
        payload = json.loads(json.dumps(result.summary()))
        assert payload["config"]["methods"] == result.methods
        assert "ridge" in payload["cmae"]


class TestDefaultGrid:
    def test_grid_spans_central_ninety_percent(self):
        grid = evaluation.default_a_grid()
        assert grid.shape == (9,)
        assert np.all(np.diff(grid) > 0)
        spacing = np.diff(grid)
        np.testing.assert_allclose(spacing, spacing[0], rtol=1e-9)
        # treatment is U2 + small noise with U2 ~ U[-1, 2]
        assert grid[0] == pytest.approx(-0.85, abs=0.1)
        assert grid[-1] == pytest.approx(1.85, abs=0.1)

    @pytest.mark.slow
    def test_frozen_grid_is_treatment_grid_of_oracle_draw(self):
        draw = synthdata.gen_main(evaluation.ORACLE_MC_SAMPLES,
                                  seed=evaluation.ORACLE_SEED)
        assert np.array_equal(evaluation.default_a_grid(),
                              evaluation.treatment_grid(draw.data.a))


@pytest.mark.parametrize("method", evaluation.ESTIMATORS)
def test_fit_method_refuses_two_treatments_before_fitting(monkeypatch,
                                                          method):
    def fit(*args):
        raise AssertionError("fitted")

    monkeypatch.setitem(evaluation.ESTIMATORS, method, dataclasses.replace(
        evaluation.ESTIMATORS[method], fit=fit))
    d = synthdata.gen_main(30, seed=0).data
    data = Dataset(a=np.column_stack([d.a, d.a ** 2]), x=d.x, z=d.z, w=d.w,
                   y=d.y)
    with pytest.raises(ValueError, match="one treatment column, the data "
                                         "has 2"):
        evaluation.fit_method(method, data, np.linspace(0.0, 1.0, 3))


@pytest.mark.slow
class TestTwentySeedInvariants:
    def test_ordering_at_500(self, table500):
        assert table500.mean("kpv") < table500.mean("ridge")
        assert table500.mean("kpv") < table500.mean("ridge-w")
        assert table500.mean("pmmr") < table500.mean("ridge")
        assert table500.mean("pmmr") < table500.mean("ridge-w")

    def test_ordering_at_1000(self, table1000):
        assert table1000.mean("kpv") < table1000.mean("ridge")
        assert table1000.mean("kpv") < table1000.mean("ridge-w")
        assert table1000.mean("pmmr") < table1000.mean("ridge")
        assert table1000.mean("pmmr") < table1000.mean("ridge-w")

    def test_pmmr_sample_size_trend(self, table200, table1000):
        assert table1000.mean("pmmr") <= table200.mean("pmmr")


@pytest.mark.parametrize("offset", [1e4, 1e6])
@pytest.mark.parametrize("method", list(evaluation.ESTIMATORS))
def test_curves_do_not_move_with_an_offset(method, offset):
    # Adding one constant to A, Z, W and the grid changes no population
    # quantity: only the rounding of the shifted inputs may move a curve.
    data = synthdata.gen_main(300, seed=1).data
    shifted = Dataset(a=data.a + offset, x=data.x, z=data.z + offset,
                      w=data.w + offset, y=data.y)
    grid = evaluation.treatment_grid(data.a)
    curve = evaluation.fit_method(method, data, grid, seed=1).estimate
    moved = evaluation.fit_method(method, shifted, grid + offset,
                                  seed=1).estimate
    assert np.abs(moved - curve).max() <= 1e-9 * np.abs(curve).max()


@pytest.mark.parametrize("exponents", [(10, -7, 5), (530, -530, 530)])
@pytest.mark.parametrize("method", [m for m in evaluation.ESTIMATORS
                                    if m != "linear2s"])
def test_power_of_two_scales_change_no_kernel_curve(method, exponents):
    # Bandwidths scale exactly with their groups, so no Gram changes at
    # all, even where squared gaps would overflow or underflow.
    ea, ez, ew = exponents
    data = synthdata.gen_main(300, seed=1).data
    scaled = Dataset(a=np.ldexp(data.a, ea), x=data.x,
                     z=np.ldexp(data.z, ez), w=np.ldexp(data.w, ew),
                     y=data.y)
    grid = evaluation.treatment_grid(data.a)
    curve = evaluation.fit_method(method, data, grid, seed=1).estimate
    np.testing.assert_array_equal(
        evaluation.fit_method(method, scaled, np.ldexp(grid, ea),
                              seed=1).estimate, curve)


@pytest.mark.parametrize("exponent", [20, -20])
@pytest.mark.parametrize("method", list(evaluation.ESTIMATORS))
def test_power_of_two_scales_of_y_scale_every_curve(method, exponent):
    # Every fit is linear in Y and every search score quadratic, so scaling
    # Y by a power of two scales each curve and score exactly and moves no
    # pick.
    data = synthdata.gen_main(300, seed=1).data
    scaled = dataclasses.replace(data, y=np.ldexp(data.y, exponent))
    grid = evaluation.treatment_grid(data.a)
    est = evaluation.estimator(method)
    model = est.fit(data, None, 1, {})
    model_scaled = est.fit(scaled, None, 1, {})
    np.testing.assert_array_equal(
        model_scaled.curve(scaled, grid).estimate,
        np.ldexp(model.curve(data, grid).estimate, exponent))
    search = getattr(model, "search", None)
    search_scaled = getattr(model_scaled, "search", None)
    assert (search is None) == (method in ("kpv", "linear2s"))
    if search is not None:
        assert search_scaled.lam == search.lam
        np.testing.assert_array_equal(search_scaled.scores,
                                      np.ldexp(search.scores, 2 * exponent))
