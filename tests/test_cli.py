import csv
import dataclasses
import functools
import json

import numpy as np
import pytest
from click.testing import CliRunner

from proxilearn import (__version__, baselines, evaluation, kpv, numerics,
                        pmmr, synthdata)
from proxilearn.cli import ArtifactReader, main
from proxilearn.data import Dataset
from proxilearn.kernels import KernelExpansion, KernelSpec, KernelSpecs
from proxilearn.synthdata import gen_main


@pytest.fixture()
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def read_curve(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


def assert_curves_match(path_a, path_b):
    """Same header and values up to BLAS last-ulp noise."""
    header_a, values_a = read_curve(path_a)
    header_b, values_b = read_curve(path_b)
    assert header_a == header_b
    np.testing.assert_allclose(values_a, values_b, rtol=1e-12, atol=1e-15)


class TestGen:
    def test_three_rows_make_four_lines(self, runner, tmp_path):
        out = tmp_path / "d.csv"
        run_ok(runner, ["gen", "--n", "3", "--seed", "1", "--out", str(out)])
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[0] == "A,Z1,Z2,W1,W2,Y"

    def test_same_seed_identical_bytes(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_ok(runner, ["gen", "--n", "50", "--seed", "3", "--out", str(a)])
        run_ok(runner, ["gen", "--n", "50", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_large_sample_moments(self, runner, tmp_path):
        out = tmp_path / "big.csv"
        run_ok(runner, ["gen", "--n", "100000", "--seed", "0",
                        "--out", str(out)])
        data = Dataset.from_csv(out)
        assert data.a.mean() == pytest.approx(0.5, abs=0.02)
        # W2 = U2 + N(0, 3): variance 0.75 + 3
        assert data.w[:, 1].var() == pytest.approx(3.75, abs=0.15)

    def test_meta_sidecar_has_config_and_version(self, runner, tmp_path):
        out = tmp_path / "d.csv"
        run_ok(runner, ["gen", "--n", "3", "--seed", "1", "--out", str(out)])
        meta = json.loads((tmp_path / "d.csv.meta.json").read_text())
        assert meta["proxilearn_version"] == __version__
        assert meta["config"]["n"] == 3 and meta["config"]["seed"] == 1


class TestFitAndAte:
    def fit(self, runner, tmp_path, method, n=80, extra=()):
        data_path = tmp_path / "train.csv"
        gen_main(n, seed=2).data.to_csv(data_path)
        model_path = tmp_path / f"{method}.json"
        run_ok(runner, ["fit", "--data", str(data_path), "--method", method,
                        "--out", str(model_path), *extra])
        return data_path, model_path

    def test_fit_then_ate_reproduces_curve(self, runner, tmp_path):
        data_path, model_path = self.fit(runner, tmp_path, "pmmr")
        curve_path = tmp_path / "again.csv"
        run_ok(runner, ["ate", "--model", str(model_path), "--data",
                        str(data_path), "--out", str(curve_path)])
        assert_curves_match(curve_path, tmp_path / "pmmr.json.curve.csv")

    def test_mismatched_data_refused(self, runner, tmp_path):
        _, model_path = self.fit(runner, tmp_path, "pmmr")
        other = tmp_path / "other.csv"
        gen_main(80, seed=99).data.to_csv(other)
        result = runner.invoke(main, ["ate", "--model", str(model_path),
                                      "--data", str(other), "--out",
                                      str(tmp_path / "x.csv")])
        assert result.exit_code == 1
        payload = json.loads(result.stderr or result.output)
        assert payload["error"] == "ValueError"
        assert "hash mismatch" in payload["message"]

    def test_single_row_pmmr_fit(self, runner, tmp_path):
        data_path = tmp_path / "one.csv"
        gen_main(1, seed=0).data.to_csv(data_path)
        model_path = tmp_path / "one.json"
        run_ok(runner, ["fit", "--data", str(data_path), "--method", "pmmr",
                        "--lambda1", "0.5",
                        "--bandwidth", "1,1,1,1,1",
                        "--a-grid", "0:1:3",
                        "--out", str(model_path)])
        artifact = json.loads(model_path.read_text())
        assert len(artifact["coefficients"]["alpha"]) == 1

    def test_kpv_fit_on_synthetic_produces_nine_point_curve(
            self, runner, tmp_path):
        data_path = tmp_path / "train.csv"
        gen_main(500, seed=0).data.to_csv(data_path)
        model_path = tmp_path / "kpv.json"
        run_ok(runner, ["fit", "--data", str(data_path), "--method", "kpv",
                        "--lambda1", "1e-4", "--lambda2", "1e-2",
                        "--out", str(model_path)])
        with open(str(model_path) + ".curve.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["a", "estimate"]
        assert len(rows) == 10  # header + 9 grid points
        values = np.array([float(r[1]) for r in rows[1:]])
        assert np.isfinite(values).all()

    def test_kpv_default_ridges_recorded(self, runner, tmp_path):
        _, model_path = self.fit(runner, tmp_path, "kpv", n=40)
        artifact = json.loads(model_path.read_text())
        assert artifact["lambdas"] == {"lambda1": 0.001, "lambda2": 0.01}

    def test_sidecar_records_fitted_ridges(self, runner, tmp_path):
        # The sidecar says how the model was fitted, also when no ridge
        # flag was given: KPV's fixed ridges, a search's chosen value.
        _, model_path = self.fit(runner, tmp_path, "kpv", n=40)
        meta = json.loads(
            model_path.with_name(model_path.name + ".meta.json").read_text())
        assert meta["config"]["lambda1"] is None
        assert meta["lambdas"] == {"lambda1": 0.001, "lambda2": 0.01}
        _, model_path = self.fit(runner, tmp_path, "ridge-w", n=60)
        artifact = json.loads(model_path.read_text())
        meta = json.loads(
            model_path.with_name(model_path.name + ".meta.json").read_text())
        assert meta["lambdas"] == artifact["lambdas"]
        assert artifact["lambdas"]["lambda"] in baselines.DEFAULT_RIDGE_GRID
        assert meta["search"] == artifact["search"]
        assert artifact["search"]["lambda"] == artifact["lambdas"]["lambda"]
        assert artifact["search"]["grid"] == \
            baselines.DEFAULT_RIDGE_GRID.tolist()

    def test_nonfinite_search_score_written_as_null(self, runner, tmp_path):
        # The leave-one-out score at a ridge of 1e-300 is inf: the artifact
        # and the sidecar must still be strict JSON.
        data_path = tmp_path / "train.csv"
        gen_main(60, seed=1).data.to_csv(data_path)
        model_path = tmp_path / "m.json"
        run_ok(runner, ["fit", "--data", str(data_path), "--method",
                        "ridge-w", "--lambda-grid", "1e-300,1e-3",
                        "--out", str(model_path)])

        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        for path in (model_path,
                     model_path.with_name(model_path.name + ".meta.json")):
            search = json.loads(path.read_text(),
                                parse_constant=refuse)["search"]
            assert search == {"grid": [1e-300, 1e-3],
                              "scores": [None, search["scores"][1]],
                              "lambda": 1e-3, "edge": True}
            assert np.isfinite(search["scores"][1])

    def test_kpv_round_trip(self, runner, tmp_path):
        data_path, model_path = self.fit(
            runner, tmp_path, "kpv", n=60,
            extra=["--lambda1", "1e-3", "--lambda2", "1e-2"])
        curve_path = tmp_path / "kpv_again.csv"
        run_ok(runner, ["ate", "--model", str(model_path), "--data",
                        str(data_path), "--out", str(curve_path)])
        assert_curves_match(curve_path, tmp_path / "kpv.json.curve.csv")

    def test_pmmr_nystrom_round_trip(self, runner, tmp_path):
        data_path, model_path = self.fit(
            runner, tmp_path, "pmmr-nystrom", n=60,
            extra=["--rank", "20", "--lambda1", "0.01"])
        artifact = json.loads(model_path.read_text())
        assert artifact["rank"] == 20
        curve_path = tmp_path / "ny.csv"
        run_ok(runner, ["ate", "--model", str(model_path), "--data",
                        str(data_path), "--out", str(curve_path)])
        assert_curves_match(curve_path,
                            tmp_path / "pmmr-nystrom.json.curve.csv")

    def test_ridge_round_trip(self, runner, tmp_path):
        data_path, model_path = self.fit(runner, tmp_path, "ridge-w", n=60)
        curve_path = tmp_path / "rw.csv"
        run_ok(runner, ["ate", "--model", str(model_path), "--data",
                        str(data_path), "--out", str(curve_path)])
        assert_curves_match(curve_path, tmp_path / "ridge-w.json.curve.csv")

    def test_explicit_bandwidth_count_checked(self, runner, tmp_path):
        data_path = tmp_path / "train.csv"
        gen_main(30, seed=2).data.to_csv(data_path)
        result = runner.invoke(main, ["fit", "--data", str(data_path),
                                      "--method", "pmmr", "--bandwidth",
                                      "1,2", "--out",
                                      str(tmp_path / "m.json")])
        assert result.exit_code == 1
        payload = json.loads(result.stderr or result.output)
        assert "--bandwidth needs 5 values" in payload["message"]

    def test_overflowing_bandwidths_refused(self, runner, tmp_path):
        # Bandwidths of 1e-200 scale the points' squared norms past the
        # largest double: the Gram check refuses the fit, nothing written.
        data_path = tmp_path / "train.csv"
        gen_main(30, seed=2).data.to_csv(data_path)
        model_path = tmp_path / "m.json"
        result = runner.invoke(main, ["fit", "--data", str(data_path),
                                      "--method", "pmmr", "--bandwidth",
                                      ",".join(["1e-200"] * 5), "--out",
                                      str(model_path)])
        assert result.exit_code == 1
        payload = json.loads(result.stderr or result.output)
        assert payload["error"] == "ValueError"
        assert "could overflow" in payload["message"]
        assert not list(tmp_path.glob("m.json*"))

    def test_bandwidth_list_splits_a_x_z_w(self, runner, tmp_path):
        # With one X column the list covers A, X1, Z1, Z2, W1, W2.
        draw = gen_main(40, seed=2).data
        data = Dataset(a=draw.a, x=np.random.default_rng(3).normal(size=40),
                       z=draw.z, w=draw.w, y=draw.y)
        data_path = tmp_path / "train-x.csv"
        data.to_csv(data_path)
        model_path = tmp_path / "m.json"
        run_ok(runner, ["fit", "--data", str(data_path), "--method", "pmmr",
                        "--lambda1", "1e-3", "--bandwidth",
                        "0.3,0.4,0.5,0.6,0.7,0.8", "--out", str(model_path)])
        bw = json.loads(model_path.read_text())["bandwidths"]
        assert bw == {"a": [0.3], "x": [0.4], "z": [0.5, 0.6],
                      "w": [0.7, 0.8]}
        assert list(bw) == ["a", "x", "z", "w"]
        specs = KernelSpecs(**{g: KernelSpec(v) for g, v in bw.items()})
        model = pmmr.fit_pmmr(data, specs=specs, lam=1e-3)
        curve = read_curve(str(model_path) + ".curve.csv")[1]
        np.testing.assert_allclose(
            curve[:, 1], pmmr.pmmr_ate(model, curve[:, 0], data.x,
                                       data.w).estimate, rtol=1e-12)
        result = runner.invoke(main, ["fit", "--data", str(data_path),
                                      "--method", "pmmr", "--bandwidth",
                                      "1,2,3", "--out",
                                      str(tmp_path / "bad.json")])
        assert result.exit_code == 1
        payload = json.loads(result.stderr or result.output)
        assert payload["message"] == (
            "--bandwidth needs 6 values (A:1 X:1 Z:2 W:2), got 3")

    def test_model_artifact_fields(self, runner, tmp_path):
        data_path, model_path = self.fit(runner, tmp_path, "pmmr")
        artifact = json.loads(model_path.read_text())
        assert artifact["proxilearn_version"] == __version__
        assert artifact["method"] == "pmmr"
        assert set(artifact["bandwidths"]) == {"a", "x", "z", "w"}
        assert artifact["training_data"]["sha256"]
        assert artifact["config"]["command"] == "fit"

    def test_kpv_artifact_stores_c(self, runner, tmp_path):
        _, model_path = self.fit(
            runner, tmp_path, "kpv", n=21,
            extra=["--lambda1", "1e-3", "--lambda2", "1e-2"])
        artifact = json.loads(model_path.read_text())
        assert set(artifact["coefficients"]) == {"c"}
        assert len(artifact["coefficients"]["c"]) == 11  # m2 = n - n // 2
        assert artifact["split_seed"] == 0

    def test_artifact_missing_field_reports_json(self, runner, tmp_path):
        data_path, model_path = self.fit(
            runner, tmp_path, "kpv", n=20,
            extra=["--lambda1", "1e-3", "--lambda2", "1e-2"])
        artifact = json.loads(model_path.read_text())
        artifact["coefficients"] = {"alpha": [[0.0] * 10] * 10}
        model_path.write_text(json.dumps(artifact))
        result = runner.invoke(main, ["ate", "--model", str(model_path),
                                      "--data", str(data_path), "--out",
                                      str(tmp_path / "x.csv")])
        assert result.exit_code == 1
        payload = json.loads(result.stderr or result.output)
        assert payload["error"] == "ValueError"
        assert "'coefficients.c'" in payload["message"]

    @pytest.mark.parametrize("method", ["ridge", "ridge-w", "ridge-wz"])
    def test_ridge_honours_bandwidth(self, runner, tmp_path, method):
        # --bandwidth lists A, Z1, Z2, W1, W2 (X is empty); the
        # regression inputs are A[, W][, Z].
        values = [0.3, 0.4, 0.5, 0.6, 0.7]
        _, median_path = self.fit(runner, tmp_path, method, n=40,
                                  extra=["--lambda1", "1e-3"])
        median_curve = read_curve(str(median_path) + ".curve.csv")[1]
        fixed_path = tmp_path / "fixed.json"
        run_ok(runner, ["fit", "--data", str(tmp_path / "train.csv"),
                        "--method", method, "--lambda1", "1e-3",
                        "--bandwidth", ",".join(map(str, values)),
                        "--out", str(fixed_path)])
        artifact = json.loads(fixed_path.read_text())
        assert "bandwidths_joint" not in artifact
        bw = artifact["bandwidths"]
        assert [*bw["a"], *bw["z"], *bw["w"]] == values
        fixed_curve = read_curve(str(fixed_path) + ".curve.csv")[1]
        assert not np.allclose(fixed_curve[:, 1], median_curve[:, 1])
        # ate rebuilds the same bandwidths from the per-group record.
        curve_path = tmp_path / "again.csv"
        run_ok(runner, ["ate", "--model", str(fixed_path), "--data",
                        str(tmp_path / "train.csv"), "--out",
                        str(curve_path)])
        assert_curves_match(curve_path, str(fixed_path) + ".curve.csv")


# The adjustment groups of the ridge baselines.
RIDGE_GROUPS = {"ridge": "", "ridge-w": "w", "ridge-wz": "wz"}

# Fixed hyperparameters for each kernel method, as fit flags and as the
# matching library fit of the same training data.
KERNEL_FITS = {
    "kpv": (["--lambda1", "1e-3", "--lambda2", "1e-2"],
            lambda d, s: kpv.fit_kpv(d, specs=s, lam1=1e-3, lam2=1e-2)),
    "pmmr": (["--lambda1", "0.1"],
             lambda d, s: pmmr.fit_pmmr(d, specs=s, lam=0.1)),
    "pmmr-nystrom": (["--lambda1", "0.1", "--rank", "20"],
                     lambda d, s: pmmr.fit_pmmr(d, specs=s, lam=0.1,
                                                rank=20)),
    **{m: (["--lambda1", "1e-3"],
           lambda d, s, groups=groups: baselines.fit_ridge_baseline(
               d, groups, lam=1e-3, specs=s))
       for m, groups in RIDGE_GROUPS.items()},
}


# Values that ate refuses at a dotted field path, and the method whose
# artifact each field belongs to (pmmr's if not named).
BAD_VALUES = [
    *[("split_seed", v) for v in (None, True, "abc", -1, 1.5)],
    ("lambdas.lambda1", None), ("lambdas.lambda2", 0),
    *[("lambdas.lambda", v) for v in (-0.1, "0.1", True)],
    ("bandwidths.w", ["x"]), ("bandwidths.w", [1.0, 0.0]),
    ("bandwidths.a", [1.0, 1.0]), ("bandwidths.z", None),
    ("adjust", "wz"), ("method", ["pmmr"]), ("training_data.sha256", 7),
    *[("rank", v) for v in (0, 61, 2.0, True, "20")],
]
FIELD_METHODS = {"split_seed": "kpv", "lambdas.lambda1": "kpv",
                 "lambdas.lambda2": "kpv", "adjust": "ridge-w",
                 "rank": "pmmr-nystrom"}


def set_field(artifact, path, value):
    *keys, last = path.split(".")
    for key in keys:
        artifact = artifact[key]
    artifact[last] = value


def library_ate(method, model, grid, adjust: Dataset):
    if method == "kpv":
        return kpv.kpv_ate(model, grid, adjust.x, adjust.w)
    if method in RIDGE_GROUPS:
        return model.curve(adjust, grid)
    return pmmr.pmmr_ate(model, grid, adjust.x, adjust.w)


class TestAteWeightSources:
    """``ate`` evaluates the stored curve weights, or with ``--adjust``
    weights recomputed from the coefficients over another sample."""

    def fit(self, runner, tmp_path, method, n=60):
        data_path = tmp_path / "train.csv"
        gen_main(n, seed=2).data.to_csv(data_path)
        model_path = tmp_path / f"{method}.json"
        run_ok(runner, ["fit", "--data", str(data_path), "--method", method,
                        "--out", str(model_path),
                        *KERNEL_FITS.get(method, ([],))[0]])
        return data_path, model_path

    def ate(self, runner, model_path, data_path, out, *extra):
        run_ok(runner, ["ate", "--model", str(model_path), "--data",
                        str(data_path), "--out", str(out), *extra])
        return read_curve(out)[1]

    @pytest.mark.parametrize("method", [*KERNEL_FITS, "linear2s"])
    def test_ate_reproduces_fit_curve_bytes(self, runner, tmp_path, method):
        data_path, model_path = self.fit(runner, tmp_path, method)
        out = tmp_path / "again.csv"
        self.ate(runner, model_path, data_path, out)
        assert out.read_bytes() == \
            (tmp_path / f"{method}.json.curve.csv").read_bytes()

    @pytest.mark.parametrize("method,size", [
        ("kpv", 30), ("pmmr", 60), ("pmmr-nystrom", 60), ("ridge", 60),
        ("ridge-w", 60), ("ridge-wz", 60)])
    def test_artifact_stores_curve_weights(self, runner, tmp_path, method,
                                           size):
        _, model_path = self.fit(runner, tmp_path, method)
        weights = json.loads(model_path.read_text())["curve_weights"]
        assert len(weights) == size  # KPV: m2 = n - n // 2

    @pytest.mark.parametrize("method", KERNEL_FITS)
    def test_stored_weights_need_no_refit(self, runner, tmp_path, method,
                                          monkeypatch):
        data_path, model_path = self.fit(runner, tmp_path, method)

        def refit(*args, **kwargs):
            raise AssertionError("ate refitted the model")

        for owner, name in ((kpv, "stage1_fit"), (kpv, "kpv_curve_weights"),
                            (KernelExpansion, "curve_weights")):
            monkeypatch.setattr(owner, name, refit)
        out = tmp_path / "again.csv"
        self.ate(runner, model_path, data_path, out)
        assert out.read_bytes() == \
            (tmp_path / f"{method}.json.curve.csv").read_bytes()

    @pytest.mark.parametrize("method", ["pmmr", "pmmr-nystrom"])
    def test_model_from_record_keeps_rank(self, runner, tmp_path, method):
        data_path, model_path = self.fit(runner, tmp_path, method)
        artifact = json.loads(model_path.read_text())
        data = Dataset.from_csv(data_path)
        model = pmmr.PmmrModel.from_record(ArtifactReader(artifact), data)
        assert model.to_record(data)["rank"] == artifact["rank"]

    @pytest.mark.parametrize("method", KERNEL_FITS)
    def test_adjust_over_training_data_matches_stored_weights(
            self, runner, tmp_path, method):
        data_path, model_path = self.fit(runner, tmp_path, method)
        plain = self.ate(runner, model_path, data_path, tmp_path / "p.csv")
        adjusted = self.ate(runner, model_path, data_path,
                            tmp_path / "a.csv", "--adjust", str(data_path))
        np.testing.assert_allclose(adjusted, plain, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("method", KERNEL_FITS)
    def test_adjust_over_other_sample_matches_library(self, runner,
                                                      tmp_path, method):
        data_path, model_path = self.fit(runner, tmp_path, method)
        other_path = tmp_path / "other.csv"
        gen_main(45, seed=7).data.to_csv(other_path)
        curve = self.ate(runner, model_path, data_path, tmp_path / "a.csv",
                         "--adjust", str(other_path))
        data = Dataset.from_csv(data_path)
        model = KERNEL_FITS[method][1](data, KernelSpecs.from_data(data))
        expected = library_ate(method, model, curve[:, 0],
                               Dataset.from_csv(other_path))
        np.testing.assert_allclose(curve[:, 1], expected.estimate,
                                   rtol=1e-12, atol=0)
        stored = read_curve(tmp_path / f"{method}.json.curve.csv")[1]
        # Plain ridge adjusts over no proxy: no sample moves its curve.
        assert np.allclose(curve[:, 1], stored[:, 1]) == (method == "ridge")

    def test_linear2s_adjust_uses_adjustment_w(self, runner, tmp_path):
        data_path, model_path = self.fit(runner, tmp_path, "linear2s")
        data = Dataset.from_csv(data_path)
        shifted = Dataset(a=data.a, x=data.x, z=data.z, w=data.w + 3.0,
                          y=data.y)
        shifted_path = tmp_path / "shifted.csv"
        shifted.to_csv(shifted_path)
        curve = self.ate(runner, model_path, data_path, tmp_path / "a.csv",
                         "--adjust", str(shifted_path))
        training = baselines.fit_linear2s(data).curve(data, curve[:, 0])
        assert not np.allclose(curve[:, 1], training.estimate)
        expected = baselines.fit_linear2s(data).curve(shifted, curve[:, 0])
        np.testing.assert_allclose(curve[:, 1], expected.estimate,
                                   rtol=1e-12)

    @pytest.mark.parametrize("adjust", [False, True])
    def test_linear2s_ate_runs_no_regression(self, runner, tmp_path, adjust,
                                             monkeypatch):
        # The artifact stores the stage-2 coefficients, so ate over the
        # training data reproduces fit's curve bytes without a regression.
        data_path, model_path = self.fit(runner, tmp_path, "linear2s")

        def regress(*args, **kwargs):
            raise AssertionError("ate ran a regression")

        monkeypatch.setattr(baselines, "_lstsq", regress)
        out = tmp_path / "again.csv"
        extra = ["--adjust", str(data_path)] if adjust else []
        self.ate(runner, model_path, data_path, out, *extra)
        assert out.read_bytes() == \
            (tmp_path / "linear2s.json.curve.csv").read_bytes()

    @pytest.mark.parametrize("adjust", [False, True])
    @pytest.mark.parametrize("field, edit", [
        ("curve_weights", lambda art: art.pop("curve_weights")),
        ("curve_weights", lambda art: art["curve_weights"].pop()),
        ("curve_weights", lambda art: art.update(curve_weights="oops")),
        ("coefficients.alpha",
         lambda art: art["coefficients"]["alpha"].append(0.0)),
        *[pytest.param(field, functools.partial(set_field, path=field,
                                                value=value),
                       id=f"{field}-{value!r}")
          for field, value in BAD_VALUES],
    ])
    def test_bad_weight_fields_report_json(self, runner, tmp_path, field,
                                           edit, adjust):
        method = FIELD_METHODS.get(field, "pmmr")
        data_path, model_path = self.fit(runner, tmp_path, method)
        artifact = json.loads(model_path.read_text())
        edit(artifact)
        model_path.write_text(json.dumps(artifact))
        extra = ["--adjust", str(data_path)] if adjust else []
        result = runner.invoke(main, ["ate", "--model", str(model_path),
                                      "--data", str(data_path), "--out",
                                      str(tmp_path / "x.csv"), *extra])
        assert result.exit_code == 1
        payload = json.loads(result.stderr or result.output)
        assert payload["error"] == "ValueError"
        assert repr(field) in payload["message"]
        assert not list(tmp_path.glob("x.csv*"))

    @pytest.mark.parametrize("method", ["pmmr", "pmmr-nystrom", "ridge-w"])
    def test_model_from_record_round_trips(self, runner, tmp_path, method):
        # A searched fit: the rebuilt model writes the artifact's model
        # fields again, its search record included.
        data_path = tmp_path / "train.csv"
        gen_main(60, seed=2).data.to_csv(data_path)
        model_path = tmp_path / "m.json"
        run_ok(runner, ["fit", "--data", str(data_path), "--method", method,
                        "--out", str(model_path)])
        artifact = json.loads(model_path.read_text())
        data = Dataset.from_csv(data_path)
        model = evaluation.estimator(method).model.from_record(
            ArtifactReader(artifact), data)
        record = model.to_record(data)
        assert artifact["search"] is not None
        assert record == {key: artifact[key] for key in record}

    @pytest.mark.parametrize("field, edit", [
        ("search.lambda", lambda s: s.update({"lambda": next(
            v for v in s["grid"] if v != s["lambda"])})),
        ("search.edge", lambda s: s.update(edge=not s["edge"])),
        ("search.scores", lambda s: s["scores"].pop()),
        ("search.scores", lambda s: s.update(scores=[None] * len(s["grid"]))),
        ("search.grid", lambda s: s["grid"].__setitem__(0, 0.0)),
    ])
    def test_search_record_checked(self, runner, tmp_path, field, edit):
        # The stored lambda and edge must be what the selection rule gives
        # for the stored grid and scores.
        data_path = tmp_path / "train.csv"
        gen_main(60, seed=2).data.to_csv(data_path)
        model_path = tmp_path / "m.json"
        run_ok(runner, ["fit", "--data", str(data_path), "--method", "pmmr",
                        "--lambda-grid", "0.001,0.01,0.1,1", "--out",
                        str(model_path)])
        artifact = json.loads(model_path.read_text())
        edit(artifact["search"])
        model_path.write_text(json.dumps(artifact))
        result = runner.invoke(main, ["ate", "--model", str(model_path),
                                      "--data", str(data_path), "--out",
                                      str(tmp_path / "x.csv")])
        assert result.exit_code == 1
        payload = json.loads(result.stderr or result.output)
        assert payload["error"] == "ValueError"
        assert repr(field) in payload["message"]
        assert not list(tmp_path.glob("x.csv*"))

    @pytest.mark.parametrize("a_grid", [[], [[1.0, 2.0]], "oops",
                                        [0.5, "1"], [0.0, float("inf")]])
    def test_bad_artifact_a_grid_reports_json(self, runner, tmp_path,
                                              a_grid):
        # Without --a-grid, ate reads the grid the artifact records; it
        # must be a flat list of at least one finite number.
        data_path, model_path = self.fit(runner, tmp_path, "ridge-w")
        artifact = json.loads(model_path.read_text())
        artifact["config"]["a_grid"] = a_grid
        model_path.write_text(json.dumps(artifact))
        out = tmp_path / "x.csv"
        result = runner.invoke(main, ["ate", "--model", str(model_path),
                                      "--data", str(data_path), "--out",
                                      str(out)])
        assert result.exit_code == 1
        payload = json.loads(result.stderr or result.output)
        assert payload["error"] == "ValueError"
        assert repr("config.a_grid") in payload["message"]
        assert not list(tmp_path.glob("x.csv*"))


@pytest.mark.parametrize("method", evaluation.ESTIMATORS)
def test_fit_curve_is_fit_method_curve(runner, tmp_path, method):
    # With searched ridges, the CLI and the library run one path.
    data_path = tmp_path / "train.csv"
    gen_main(60, seed=2).data.to_csv(data_path)
    model_path = tmp_path / "m.json"
    run_ok(runner, ["fit", "--data", str(data_path), "--method", method,
                    "--seed", "3", "--out", str(model_path)])
    grid, estimate = read_curve(str(model_path) + ".curve.csv")[1].T
    expected = evaluation.fit_method(method, Dataset.from_csv(data_path),
                                     grid, seed=3)
    assert np.array_equal(estimate, expected.estimate)


UNUSED_FLAGS = (
    [(m, ["--lambda2", "5"]) for m in
     ("pmmr", "pmmr-nystrom", "ridge", "ridge-w", "ridge-wz", "linear2s")]
    + [(m, ["--rank", "7"]) for m in
       ("kpv", "pmmr", "ridge", "ridge-w", "ridge-wz", "linear2s")]
    + [(m, ["--lambda-grid", "0.1,1"]) for m in ("kpv", "linear2s")]
    + [("linear2s", ["--lambda1", "0.1"])]
    + [("linear2s", ["--bandwidth", "1,1,1,1,1"])]
)


@pytest.mark.parametrize("method, flag", UNUSED_FLAGS)
def test_fit_rejects_flags_the_method_ignores(runner, tmp_path, method,
                                              flag):
    data_path = tmp_path / "train.csv"
    gen_main(20, seed=1).data.to_csv(data_path)
    model_path = tmp_path / "m.json"
    result = runner.invoke(main, ["fit", "--data", str(data_path),
                                  "--method", method, *flag,
                                  "--out", str(model_path)])
    assert result.exit_code == 1
    payload = json.loads(result.stderr or result.output)
    assert payload["error"] == "ValueError"
    assert f"--method {method} does not use {flag[0]}" in payload["message"]
    assert not model_path.exists()


def test_linear2s_records_no_bandwidths(runner, tmp_path, monkeypatch):
    # linear2s reads no kernel: fit runs no median heuristic and its
    # artifact records no bandwidths.
    def heuristic(*args):
        raise AssertionError("median heuristic ran")

    monkeypatch.setattr(KernelSpecs, "from_data", heuristic)
    data_path = tmp_path / "train.csv"
    gen_main(20, seed=1).data.to_csv(data_path)
    model_path = tmp_path / "m.json"
    run_ok(runner, ["fit", "--data", str(data_path), "--method", "linear2s",
                    "--out", str(model_path)])
    assert json.loads(model_path.read_text())["bandwidths"] is None


@pytest.mark.parametrize("method", evaluation.ESTIMATORS)
def test_round_trip_with_an_x_column(runner, tmp_path, method):
    # Both samples get an observed covariate X1, so the X branches of
    # every method run end to end: ate reproduces fit's curve byte for
    # byte, and ate --adjust over the other sample keeps fit's grid and
    # gives finite estimates.
    paths = []
    for name, n, seed in (("train", 120, 0), ("other", 60, 1)):
        data = dataclasses.replace(gen_main(n, seed=seed).data,
                                   x=np.sin(3.0 * np.arange(1, n + 1)))
        paths.append(tmp_path / f"{name}-x.csv")
        data.to_csv(paths[-1])
    assert paths[0].read_text().startswith("A,X1,")
    train, other = map(str, paths)
    model_path = tmp_path / "m.json"
    run_ok(runner, ["fit", "--data", train, "--method", method,
                    "--out", str(model_path)])
    fitted = read_curve(str(model_path) + ".curve.csv")[1]
    out = tmp_path / "again.csv"
    run_ok(runner, ["ate", "--model", str(model_path), "--data", train,
                    "--out", str(out)])
    assert out.read_bytes() == \
        (tmp_path / "m.json.curve.csv").read_bytes()
    out = tmp_path / "adjusted.csv"
    run_ok(runner, ["ate", "--model", str(model_path), "--data", train,
                    "--adjust", other, "--out", str(out)])
    adjusted = read_curve(out)[1]
    np.testing.assert_array_equal(adjusted[:, 0], fitted[:, 0])
    assert np.isfinite(adjusted[:, 1]).all()


@pytest.mark.parametrize("method", evaluation.ESTIMATORS)
def test_fit_refuses_two_treatments_before_fitting(runner, tmp_path,
                                                   monkeypatch, method):
    def fit(*args):
        raise AssertionError("fitted")

    monkeypatch.setitem(evaluation.ESTIMATORS, method, dataclasses.replace(
        evaluation.ESTIMATORS[method], fit=fit))
    d = gen_main(40, seed=1).data
    data_path = tmp_path / "train.csv"
    Dataset(a=np.column_stack([d.a, d.a ** 2]), x=d.x, z=d.z, w=d.w,
            y=d.y).to_csv(data_path)
    assert data_path.read_text().startswith("A1,A2,")
    out = tmp_path / "out"
    result = runner.invoke(main, ["fit", "--data", str(data_path),
                                  "--method", method, "--out", str(out)])
    assert result.exit_code == 1
    payload = json.loads(result.stderr or result.output)
    assert payload == {"error": "ValueError", "message": (
        "effect curves need one treatment column, the data has 2")}
    assert not list(tmp_path.glob("out*"))


class TestExperimentAndSweep:
    def test_experiment_small_smoke(self, runner, tmp_path):
        out = tmp_path / "exp"
        run_ok(runner, ["experiment", "--n", "60", "--seeds", "2",
                        "--methods", "ridge,linear2s", "--out", str(out)])
        rows = list(csv.reader(open(str(out) + ".csv", newline="")))
        assert rows[0] == ["method", "n", "cmae_mean", "cmae_std"]
        assert {r[0] for r in rows[1:]} == {"ridge", "linear2s"}
        payload = json.loads((tmp_path / "exp.json").read_text())
        assert payload["config"]["methods"] == ["ridge", "linear2s"]
        assert payload["results"]["60"]["cmae"]["ridge"]["per_seed"]

    def test_experiment_writes_failed_seed_as_null(self, runner, tmp_path,
                                                   monkeypatch):
        real = evaluation.fit_method

        def fails_on_seed_zero(name, data, a_grid, seed=0, specs=None):
            if seed == 0:
                raise RuntimeError("synthetic failure for test")
            return real(name, data, a_grid, seed, specs)

        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        monkeypatch.setattr(evaluation, "fit_method", fails_on_seed_zero)
        out = tmp_path / "exp"
        run_ok(runner, ["experiment", "--n", "40", "--seeds", "4",
                        "--methods", "ridge", "--out", str(out)])
        payload = json.loads((tmp_path / "exp.json").read_text(),
                             parse_constant=refuse)
        ridge = payload["results"]["40"]["cmae"]["ridge"]
        assert ridge["failures"] == 1
        assert ridge["per_seed"][0] is None
        assert all(np.isfinite(ridge["per_seed"][1:]))
        assert ridge["mean"] == pytest.approx(np.mean(ridge["per_seed"][1:]))

    def test_experiment_method_filter(self, runner, tmp_path):
        out = tmp_path / "only"
        run_ok(runner, ["experiment", "--n", "60", "--seeds", "1",
                        "--methods", "ridge", "--out", str(out)])
        payload = json.loads((tmp_path / "only.json").read_text())
        assert list(payload["results"]["60"]["cmae"]) == ["ridge"]

    def test_experiment_draws_grid_and_oracle_once(self, runner, tmp_path,
                                                   monkeypatch):
        calls = {"default_a_grid": 0, "true_ate": 0}

        def counting(module, name):
            real = getattr(module, name)

            def spy(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)

        counting(evaluation, "default_a_grid")
        counting(synthdata, "true_ate")
        args = ["experiment", "--seeds", "2", "--methods", "ridge,linear2s"]
        run_ok(runner, [*args, "--n", "40", "--n", "60",
                        "--out", str(tmp_path / "both")])
        assert calls == {"default_a_grid": 1, "true_ate": 1}
        both = json.loads((tmp_path / "both.json").read_text())["results"]
        assert list(both) == ["40", "60"]
        for n in both:
            run_ok(runner, [*args, "--n", n, "--out", str(tmp_path / n)])
            single = json.loads((tmp_path / f"{n}.json").read_text())
            assert both[n] == single["results"][n]

    def test_experiment_single_seed_smoke_within_budget(self, runner,
                                                        tmp_path):
        import time

        out = tmp_path / "smoke"
        start = time.monotonic()
        run_ok(runner, ["experiment", "--n", "200", "--seeds", "1",
                        "--methods", "kpv,pmmr", "--out", str(out)])
        assert time.monotonic() - start < 60.0
        payload = json.loads((tmp_path / "smoke.json").read_text())
        assert set(payload["results"]["200"]["cmae"]) == {"kpv", "pmmr"}

    def test_fit_records_search_scores_in_grid_order(self, runner,
                                                     tmp_path):
        data_path = tmp_path / "train.csv"
        gen_main(60, seed=1).data.to_csv(data_path)
        out = tmp_path / "m.json"
        run_ok(runner, ["fit", "--data", str(data_path), "--method",
                        "pmmr", "--lambda-grid", "0.001,0.01,0.1",
                        "--out", str(out)])
        search = json.loads(out.read_text())["search"]
        assert search["grid"] == [0.001, 0.01, 0.1]
        data = Dataset.from_csv(data_path)
        expected = pmmr.pmmr_validation_scores(
            *data.split_half(0), KernelSpecs.from_data(data),
            search["grid"])
        assert search["scores"] == expected.tolist()

    @pytest.mark.parametrize("method", ["pmmr", "ridge-w"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_search_argmin_is_fitted_ridge(self, runner, tmp_path, seed,
                                           method):
        data_path = tmp_path / "train.csv"
        gen_main(120, seed=seed).data.to_csv(data_path)
        out = tmp_path / "m.json"
        run_ok(runner, ["fit", "--data", str(data_path), "--method", method,
                        "--seed", str(seed), "--bandwidth",
                        "0.6,0.8,1,1.2,1.4", "--lambda-grid",
                        "1e-5,1e-4,1e-3,1e-2,1e-1,1", "--out", str(out)])
        artifact = json.loads(out.read_text())
        search = artifact["search"]
        scores = [np.inf if s is None else s for s in search["scores"]]
        picked = numerics.argmin_ties_larger(search["grid"], scores)
        assert artifact["lambdas"]["lambda"] == search["lambda"] == picked
        assert search["edge"] == (picked in (1e-5, 1.0))

    @pytest.mark.parametrize("method", [
        "kpv", "linear2s",
        *[f"{m} --lambda1 0.1" for m in
          ("pmmr", "pmmr-nystrom", "ridge", "ridge-w", "ridge-wz")]])
    def test_fits_without_search_record_null(self, runner, tmp_path,
                                             method):
        data_path = tmp_path / "train.csv"
        gen_main(60, seed=1).data.to_csv(data_path)
        out = tmp_path / "m.json"
        run_ok(runner, ["fit", "--data", str(data_path), "--method",
                        *method.split(), "--out", str(out)])
        artifact = json.loads(out.read_text())
        meta = json.loads(out.with_name("m.json.meta.json").read_text())
        assert artifact["search"] is None and meta["search"] is None


class TestErrors:
    def test_missing_file_is_click_error(self, runner, tmp_path):
        result = runner.invoke(main, ["fit", "--data",
                                      str(tmp_path / "nope.csv"),
                                      "--method", "pmmr", "--out", "m.json"])
        assert result.exit_code != 0

    def test_schema_violation_reports_location(self, runner, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("A,Z1,W1,Y\n1,2,3,4\n1,oops,3,4\n")
        result = runner.invoke(main, ["fit", "--data", str(path),
                                      "--method", "pmmr", "--out",
                                      str(tmp_path / "m.json")])
        assert result.exit_code == 1
        payload = json.loads(result.stderr or result.output)
        assert payload["error"] == "SchemaError"
        assert "row 3" in payload["message"]
        assert "Z1" in payload["message"]

    @pytest.mark.parametrize("command", ["fit", "ate"])
    @pytest.mark.parametrize("text", ["oops", "nan:1:5", "0:inf:3",
                                      "0:1:2.5", "0:1:0", "-1e308:1e308:3"])
    def test_bad_a_grid_reports_json(self, runner, tmp_path, command, text):
        data_path = tmp_path / "train.csv"
        gen_main(20, seed=1).data.to_csv(data_path)
        args = ["fit", "--data", str(data_path), "--method", "pmmr"]
        if command == "ate":
            run_ok(runner, [*args, "--out", str(tmp_path / "m.json")])
            args = ["ate", "--model", str(tmp_path / "m.json"), "--data",
                    str(data_path)]
        out = tmp_path / "out"
        result = runner.invoke(main, [*args, f"--a-grid={text}",
                                      "--out", str(out)])
        assert result.exit_code == 1
        payload = json.loads(result.stderr or result.output)
        assert payload["error"] == "ValueError"
        assert payload["message"].startswith("--a-grid expects min:max:count")
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_experiment_nonpositive_seeds_reports_json(self, runner,
                                                       tmp_path, seeds):
        out = tmp_path / "exp"
        result = runner.invoke(main, ["experiment", "--n", "60",
                                      f"--seeds={seeds}", "--methods",
                                      "ridge", "--out", str(out)])
        assert result.exit_code == 1
        payload = json.loads(result.stderr or result.output)
        assert payload["error"] == "ValueError"
        assert payload["message"] == (f"n_seeds must be at least 1, "
                                      f"got {seeds}")
        assert not (tmp_path / "exp.csv").exists()
        assert not (tmp_path / "exp.json").exists()

    @pytest.mark.parametrize("args, message", [
        (["--n", "60", "--methods", "ridge,linear2s,ridge"],
         "methods must not repeat, got ridge more than once"),
        (["--n", "60", "--n", "40", "--n", "60", "--methods", "ridge"],
         "--n must not repeat, got 60 more than once"),
    ])
    def test_experiment_repeats_report_json_before_any_draw(
            self, runner, tmp_path, monkeypatch, args, message):
        # A repeat would fit twice and give the CSV a row per copy while
        # the JSON keeps one entry; the oracle and the draws never start.
        def no_draw(*args, **kwargs):
            raise AssertionError("drew data")

        monkeypatch.setattr(synthdata, "true_ate", no_draw)
        monkeypatch.setattr(synthdata, "gen_main", no_draw)
        result = runner.invoke(main, ["experiment", *args, "--seeds", "2",
                                      "--out", str(tmp_path / "exp")])
        assert result.exit_code == 1
        payload = json.loads(result.stderr or result.output)
        assert payload == {"error": "ValueError", "message": message}
        assert not list(tmp_path.glob("exp*"))

    @pytest.mark.parametrize("n_values", [["1000", "0"], ["0", "1000"],
                                          ["60", "-3"]])
    def test_experiment_nonpositive_n_reports_json_before_any_draw(
            self, runner, tmp_path, monkeypatch, n_values):
        draws = []

        def counting_draw(*args, **kwargs):
            draws.append(args)
            raise AssertionError("drew data")

        monkeypatch.setattr(synthdata, "true_ate", counting_draw)
        monkeypatch.setattr(synthdata, "gen_main", counting_draw)
        args = [arg for n in n_values for arg in ("--n", n)]
        result = runner.invoke(main, ["experiment", *args, "--seeds", "3",
                                      "--methods", "pmmr",
                                      "--out", str(tmp_path / "exp")])
        assert result.exit_code == 1
        payload = json.loads(result.stderr or result.output)
        bad = min(n_values, key=int)
        assert payload == {"error": "ValueError",
                           "message": f"n must be at least 1, got {bad}"}
        assert draws == []
        assert not list(tmp_path.glob("exp*"))

    @pytest.mark.parametrize("flag, value, message", [
        ("--lambda-grid", "0.1,,0.2", "--lambda-grid item 2 is empty"),
        ("--lambda-grid", "0.1,0.2,", "--lambda-grid item 3 is empty"),
        ("--lambda-grid", "abc", "--lambda-grid item 1 is not a number: "
                                 "'abc'"),
        ("--bandwidth", "1,,1,1,1,1", "--bandwidth item 2 is empty"),
        ("--bandwidth", "1,2,x,4,5", "--bandwidth item 3 is not a number: "
                                     "'x'"),
    ])
    def test_bad_list_item_reports_flag_and_position(
            self, runner, tmp_path, flag, value, message):
        data_path = tmp_path / "train.csv"
        gen_main(20, seed=1).data.to_csv(data_path)
        result = runner.invoke(main, ["fit", "--data", str(data_path),
                                      "--method", "pmmr", f"{flag}={value}",
                                      "--out", str(tmp_path / "m.json")])
        assert result.exit_code == 1
        payload = json.loads(result.stderr or result.output)
        assert payload == {"error": "ValueError", "message": message}
        assert not list(tmp_path.glob("m.json*"))

    def test_nonpositive_lambda_grid_reports_json(self, runner, tmp_path):
        data_path = tmp_path / "train.csv"
        gen_main(20, seed=1).data.to_csv(data_path)
        result = runner.invoke(main, ["fit", "--data", str(data_path),
                                      "--method", "pmmr", "--lambda-grid",
                                      "0,0.1", "--out",
                                      str(tmp_path / "m.json")])
        assert result.exit_code == 1
        payload = json.loads(result.stderr or result.output)
        assert "positive" in payload["message"]
        assert not list(tmp_path.glob("m.json*"))

    def test_empty_lambda_grid_reports_json(self, runner, tmp_path):
        # An empty grid is refused, not replaced by the default grid.
        data_path = tmp_path / "train.csv"
        gen_main(20, seed=1).data.to_csv(data_path)
        result = runner.invoke(main, ["fit", "--data", str(data_path),
                                      "--method", "pmmr", "--lambda-grid=",
                                      "--out", str(tmp_path / "m.json")])
        assert result.exit_code == 1
        payload = json.loads(result.stderr or result.output)
        assert payload == {"error": "ValueError",
                           "message": "--lambda-grid is empty"}
        assert not list(tmp_path.glob("m.json*"))

    @pytest.mark.parametrize("command, method, flag, value", [
        ("fit", "pmmr", "--lambda-grid", "1e-3,inf"),
        ("fit", "pmmr", "--lambda-grid", "nan"),
        ("fit", "ridge-w", "--lambda-grid", "1e-3,inf"),
        ("fit", "pmmr", "--lambda1", "inf"),
        ("fit", "ridge", "--lambda1", "0"),
        ("fit", "kpv", "--lambda1", "nan"),
        ("fit", "kpv", "--lambda2", "inf"),
        ("fit", "kpv", "--lambda2", "-1e-2"),
    ])
    def test_nonfinite_or_nonpositive_ridge_reports_flag(
            self, runner, tmp_path, command, method, flag, value):
        data_path = tmp_path / "train.csv"
        gen_main(20, seed=1).data.to_csv(data_path)
        out = tmp_path / "out"
        result = runner.invoke(main, [command, "--data", str(data_path),
                                      "--method", method, f"{flag}={value}",
                                      "--out", str(out)])
        assert result.exit_code == 1
        payload = json.loads(result.stderr or result.output)
        assert payload["error"] == "ValueError"
        bad = value.split(",")[-1]
        assert payload["message"] == (f"{flag} must be positive and finite, "
                                      f"got {float(bad)}")
        assert not out.exists()

    @pytest.mark.parametrize("method", ["pmmr", "pmmr-nystrom", "ridge",
                                        "ridge-w", "ridge-wz"])
    def test_fixed_ridge_with_grid_refused_before_reading(
            self, runner, tmp_path, method):
        # The CSV has a schema error, so reading it would report that.
        data_path = tmp_path / "bad.csv"
        data_path.write_text("A,Z1,W1,Y\n1,oops,3,4\n")
        out = tmp_path / "out"
        result = runner.invoke(main, ["fit", "--data", str(data_path),
                                      "--method", method, "--lambda1", "0.1",
                                      "--lambda-grid", "5,6",
                                      "--out", str(out)])
        assert result.exit_code == 1
        payload = json.loads(result.stderr or result.output)
        assert payload["error"] == "ValueError"
        assert "--lambda1" in payload["message"]
        assert "--lambda-grid" in payload["message"]
        assert not list(tmp_path.glob("out*"))
