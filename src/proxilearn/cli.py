"""Command-line entry point: dataset generation, fitting, effect curves,
experiments and hyperparameter sweeps.

Every invocation writes its primary outputs plus a ``<out>.meta.json``
sidecar carrying the full run configuration and library version (for
``fit``, also the ridges the model was fitted with); model artifacts
embed both directly. Errors leave a machine-readable JSON
object on stderr and a nonzero exit code.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__, baselines, evaluation, kpv, pmmr, synthdata
from .data import Dataset, DoCurve
from .kernels import KernelSpec, KernelSpecs, effect_curve

FIT_METHODS = ("kpv", "pmmr", "pmmr-nystrom", "ridge", "ridge-w",
               "ridge-wz", "linear2s")


def _fail(exc: BaseException) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    click.echo(json.dumps(payload), err=True)
    sys.exit(1)


def _cli_errors(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except click.ClickException:
            raise
        except BaseException as exc:  # noqa: BLE001 - single CLI boundary
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            _fail(exc)
    return wrapper


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_meta(out_path, config: dict, **fields) -> None:
    meta = {"proxilearn_version": __version__, "config": config, **fields}
    Path(str(out_path) + ".meta.json").write_text(json.dumps(meta, indent=2))


def _parse_a_grid(text: str) -> np.ndarray:
    """Parse 'min:max:count' into an equispaced grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--a-grid expects min:max:count, got {text!r}")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise ValueError("--a-grid count must be at least 1")
    return np.linspace(lo, hi, count)


def _check_ridges(flag: str, values) -> None:
    bad = [v for v in values if not (np.isfinite(v) and v > 0)]
    if bad:
        raise ValueError(f"{flag} must be positive and finite, got {bad[0]}")


def _parse_grid(text: str) -> np.ndarray:
    values = np.array([float(v) for v in text.split(",") if v.strip()])
    if values.size == 0:
        raise ValueError("--lambda-grid is empty")
    _check_ridges("--lambda-grid", values)
    return values


def _parse_bandwidth(text: str, data: Dataset) -> KernelSpecs:
    """'median' or a comma list covering the A, X, Z, W columns in order."""
    if text == "median":
        return KernelSpecs.from_data(data)
    values = [float(v) for v in text.split(",") if v.strip()]
    dims = [data.a.shape[1], data.x.shape[1], data.z.shape[1],
            data.w.shape[1]]
    if len(values) != sum(dims):
        raise ValueError(
            f"--bandwidth needs {sum(dims)} values "
            f"(A:{dims[0]} X:{dims[1]} Z:{dims[2]} W:{dims[3]}), "
            f"got {len(values)}"
        )
    out = []
    offset = 0
    for d in dims:
        out.append(KernelSpec(np.array(values[offset:offset + d])))
        offset += d
    return KernelSpecs(a=out[0], x=out[1], z=out[2], w=out[3])


def _write_curve(path, curve: DoCurve) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if curve.truth is None:
            writer.writerow(["a", "estimate"])
            for a, est in zip(curve.grid, curve.estimate):
                writer.writerow([repr(float(a)), repr(float(est))])
        else:
            writer.writerow(["a", "estimate", "truth"])
            for a, est, tr in zip(curve.grid, curve.estimate, curve.truth):
                writer.writerow([repr(float(a)), repr(float(est)),
                                 repr(float(tr))])


@click.group()
@click.version_option(__version__)
def main():
    """Proximal causal learning with kernel estimators."""


@main.command()
@click.option("--n", type=int, required=True, help="Number of rows.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True)
@_cli_errors
def gen(n, seed, out):
    """Generate a synthetic dataset CSV."""
    draw = synthdata.gen_main(n, seed=seed)
    draw.data.to_csv(out)
    _write_meta(out, {"command": "gen", "n": n, "seed": seed,
                      "out": str(out)})
    click.echo(f"wrote {n} rows to {out}")


def _default_grid_for(data: Dataset) -> np.ndarray:
    lo, hi = np.quantile(data.a[:, 0], [0.05, 0.95])
    return np.linspace(lo, hi, evaluation.GRID_POINTS)


# The ridge baselines' adjustment groups, by method name.
_RIDGE_ADJUST = {"ridge": "", "ridge-w": "w", "ridge-wz": "wz"}

# The coefficient field each kernel method's artifact stores.
_COEFFICIENTS = {"kpv": "c", "pmmr": "alpha", "pmmr-nystrom": "alpha",
                 **{m: "beta" for m in _RIDGE_ADJUST}}


def _check_flags(method, lambda1, lambda2, lambda_grid, rank) -> None:
    """Reject the ``fit`` flags that ``method`` never reads."""
    unused = [flag for flag, given, readers in (
        ("--lambda1", lambda1, set(FIT_METHODS) - {"linear2s"}),
        ("--lambda2", lambda2, {"kpv"}),
        ("--lambda-grid", lambda_grid, set(FIT_METHODS) - {"kpv", "linear2s"}),
        ("--rank", rank, {"pmmr-nystrom"}),
    ) if given is not None and method not in readers]
    if unused:
        raise ValueError(f"--method {method} does not use "
                         f"{', '.join(unused)}")


def _fit_model(method, data, specs, lambda1, lambda2, lam_grid, rank, seed):
    """Fit one method; returns (payload-dict, model), the model None for
    linear2s."""
    if method == "kpv":
        model = kpv.fit_kpv(data, specs=specs, lam1=lambda1, lam2=lambda2,
                            split_seed=seed)
        return {
            "lambdas": {"lambda1": model.stage1.lam1, "lambda2": model.lam2},
            "split_seed": seed,
            "coefficients": {"c": model.c.tolist()},
        }, model
    if method in ("pmmr", "pmmr-nystrom"):
        use_rank = (max(1, data.n // 2) if rank is None else rank) \
            if method == "pmmr-nystrom" else None
        if lam_grid is None:
            lam_grid = pmmr.DEFAULT_LAMBDA_GRID
        model = pmmr.fit_pmmr(data, specs=specs, lam=lambda1,
                              lam_grid=lam_grid, rank=use_rank,
                              split_seed=seed, landmark_seed=seed)
        return {
            "lambdas": {"lambda": model.lam},
            "rank": use_rank,
            "coefficients": {"alpha": model.alpha.tolist()},
        }, model
    if method in _RIDGE_ADJUST:
        model, _ = baselines.fit_ridge_baseline(
            data, _RIDGE_ADJUST[method], lam=lambda1,
            lam_grid=lam_grid if lam_grid is not None
            else baselines.DEFAULT_RIDGE_GRID, specs=specs)
        return {
            "lambdas": {"lambda": model.lam},
            "adjust": _RIDGE_ADJUST[method],
            "coefficients": {"beta": model.beta.tolist()},
        }, model
    if method == "linear2s":
        return {"lambdas": {}, "coefficients": {}}, None
    raise ValueError(f"unknown method {method!r}")


def _curve_weights(method, model, adjust: Dataset):
    """The treatment sample A_s and the weights w of a fitted kernel
    model's effect curve k_A(a, A_s)' w over the adjustment sample."""
    if method == "kpv":
        return model.sample2.a, kpv.kpv_curve_weights(model, adjust.x,
                                                      adjust.w)
    if method in ("pmmr", "pmmr-nystrom"):
        return model.sample.a, pmmr.pmmr_curve_weights(model, adjust.x,
                                                       adjust.w)
    return model.inputs[:, :1], baselines.adjusted_curve_weights(
        model, baselines.ridge_adjustment(adjust, _RIDGE_ADJUST[method]))


@main.command()
@click.option("--data", "data_path", type=click.Path(exists=True),
              required=True)
@click.option("--method", type=click.Choice(FIT_METHODS), required=True)
@click.option("--lambda1", type=float, default=None,
              help="Stage-1 ridge (kpv, default 1e-3) or fixed ridge "
                   "(pmmr/ridge, default: selected).")
@click.option("--lambda2", type=float, default=None,
              help="Stage-2 ridge (kpv only, default 1e-2).")
@click.option("--lambda-grid", "lambda_grid", type=str, default=None,
              help="Comma-separated ridge grid (pmmr/ridge selection).")
@click.option("--bandwidth", type=str, default="median", show_default=True,
              help="'median' or comma list over A,X,Z,W columns.")
@click.option("--rank", type=int, default=None,
              help="Nystrom landmark count (pmmr-nystrom).")
@click.option("--a-grid", "a_grid_text", type=str, default=None,
              help="min:max:count evaluation grid.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True,
              help="Model JSON path; the curve CSV gets .curve.csv.")
@_cli_errors
def fit(data_path, method, lambda1, lambda2, lambda_grid, bandwidth, rank,
        a_grid_text, seed, out):
    """Fit an estimator and write the model plus its effect curve.

    Kernel methods store their curve weights in the model, so ``ate``
    evaluates the curve on any grid without refitting."""
    _check_flags(method, lambda1, lambda2, lambda_grid, rank)
    for flag, value in (("--lambda1", lambda1), ("--lambda2", lambda2)):
        if value is not None:
            _check_ridges(flag, [value])
    lam_grid = _parse_grid(lambda_grid) if lambda_grid else None
    data = Dataset.from_csv(data_path)
    specs = _parse_bandwidth(bandwidth, data)
    a_grid = (_parse_a_grid(a_grid_text) if a_grid_text
              else _default_grid_for(data))
    config = {
        "command": "fit", "method": method, "data": str(data_path),
        "lambda1": lambda1, "lambda2": lambda2,
        "lambda_grid": None if lam_grid is None else lam_grid.tolist(),
        "bandwidth": bandwidth, "rank": rank, "seed": seed,
        "a_grid": a_grid.tolist(), "out": str(out),
    }
    payload, model = _fit_model(method, data, specs, lambda1, lambda2,
                                lam_grid, rank, seed)
    if model is None:
        curve = baselines.linear_two_stage(data, a_grid)
    else:
        a_sample, weights = _curve_weights(method, model, data)
        payload["curve_weights"] = weights.tolist()
        curve = effect_curve(a_sample, specs.a, weights, a_grid)
    artifact = {
        "proxilearn_version": __version__,
        "config": config,
        "method": method,
        "training_data": {"path": str(data_path),
                          "sha256": _sha256(data_path)},
        "bandwidths": {
            "a": specs.a.bandwidths.tolist(),
            "x": specs.x.bandwidths.tolist(),
            "z": specs.z.bandwidths.tolist(),
            "w": specs.w.bandwidths.tolist(),
        },
        **payload,
    }
    Path(out).write_text(json.dumps(artifact, indent=2))
    curve_path = str(out) + ".curve.csv"
    _write_curve(curve_path, curve)
    _write_meta(out, config, lambdas=payload["lambdas"])
    click.echo(f"wrote model to {out} and curve to {curve_path}")


def _field(artifact, path: str):
    """The artifact value at a dotted ``path``; a missing field is a
    ValueError naming it."""
    value = artifact
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            raise ValueError(f"model artifact has no {path!r} field; "
                             f"refit the model with this version")
        value = value[key]
    return value


def _vector(artifact, path: str, size: int) -> np.ndarray:
    """The ``size`` floats at ``path``; a missing or misshapen field is a
    ValueError naming it."""
    value = _field(artifact, path)
    try:
        vector = np.array(value, dtype=float)
    except (TypeError, ValueError):
        vector = None
    if vector is None or vector.shape != (size,):
        raise ValueError(f"model artifact field {path!r} is not a list of "
                         f"{size} numbers; refit the model with this version")
    return vector


def _specs_from_artifact(artifact) -> KernelSpecs:
    return KernelSpecs(**{
        g: KernelSpec(np.array(_field(artifact, f"bandwidths.{g}")))
        for g in ("a", "x", "z", "w")})


def _model_from_artifact(artifact, method, data: Dataset, coefficients):
    """The fitted kernel model with the artifact's ``coefficients``."""
    specs = _specs_from_artifact(artifact)
    if method == "kpv":
        sample1, sample2 = data.split_half(_field(artifact, "split_seed"))
        fit1 = kpv.stage1_fit(sample1, specs,
                              _field(artifact, "lambdas.lambda1"))
        return kpv.kpv_model(fit1, sample2, coefficients,
                             _field(artifact, "lambdas.lambda2"))
    if method in ("pmmr", "pmmr-nystrom"):
        return pmmr.PmmrModel(sample=data, specs=specs, alpha=coefficients,
                              lam=_field(artifact, "lambdas.lambda"))
    adjust_kind = _RIDGE_ADJUST[method]
    return baselines.RidgeModel(
        inputs=baselines.ridge_inputs(data, adjust_kind),
        spec=baselines.ridge_spec(data, adjust_kind, specs),
        lam=_field(artifact, "lambdas.lambda"), beta=coefficients)


def _curve_from_artifact(artifact, data: Dataset, adjust: Dataset | None,
                         a_grid: np.ndarray) -> DoCurve:
    """The artifact's effect curve on ``a_grid``: from its stored curve
    weights, or from weights its coefficients give over ``adjust``."""
    method = _field(artifact, "method")
    if method == "linear2s":
        return baselines.linear_two_stage(
            data, a_grid, None if adjust is None else adjust.w)
    if method not in _COEFFICIENTS:
        raise ValueError(f"unknown method {method!r}")
    a_sample = (data.split_half(_field(artifact, "split_seed"))[1].a
                if method == "kpv" else data.a)
    coefficients = _vector(artifact,
                           f"coefficients.{_COEFFICIENTS[method]}",
                           a_sample.shape[0])
    weights = _vector(artifact, "curve_weights", a_sample.shape[0])
    if adjust is not None:
        model = _model_from_artifact(artifact, method, data, coefficients)
        weights = _curve_weights(method, model, adjust)[1]
    return effect_curve(a_sample,
                        KernelSpec(np.array(_field(artifact, "bandwidths.a"))),
                        weights, a_grid)


@main.command()
@click.option("--model", "model_path", type=click.Path(exists=True),
              required=True)
@click.option("--data", "data_path", type=click.Path(exists=True),
              required=True, help="The training CSV (hash-checked).")
@click.option("--adjust", "adjust_path", type=click.Path(exists=True),
              default=None,
              help="Adjustment sample CSV; recomputes the curve weights "
                   "from the coefficients (default: the stored weights "
                   "over --data).")
@click.option("--a-grid", "a_grid_text", type=str, default=None)
@click.option("--out", type=click.Path(), required=True)
@_cli_errors
def ate(model_path, data_path, adjust_path, a_grid_text, out):
    """Evaluate a fitted model's effect curve on a treatment grid.

    Without --adjust, a kernel method's curve comes from the weights the
    artifact stores, in O(n * grid) time and without refitting anything;
    linear2s refits its two regressions."""
    artifact = json.loads(Path(model_path).read_text())
    recorded = _field(artifact, "training_data.sha256")
    actual = _sha256(data_path)
    if recorded != actual:
        raise ValueError(
            f"training data hash mismatch: model was fit on sha256 "
            f"{recorded[:12]}..., got {actual[:12]}..."
        )
    data = Dataset.from_csv(data_path)
    adjust = Dataset.from_csv(adjust_path) if adjust_path else None
    a_grid = (_parse_a_grid(a_grid_text) if a_grid_text
              else np.array(_field(artifact, "config.a_grid")))
    curve = _curve_from_artifact(artifact, data, adjust, a_grid)
    _write_curve(out, curve)
    _write_meta(out, {"command": "ate", "model": str(model_path),
                      "data": str(data_path),
                      "adjust": adjust_path and str(adjust_path),
                      "a_grid": a_grid.tolist(), "out": str(out)})
    click.echo(f"wrote curve to {out}")


@main.command()
@click.option("--n", "n_values", type=int, multiple=True,
              default=(500,), show_default=True)
@click.option("--seeds", type=int, default=20, show_default=True,
              help="Number of seeds (0..seeds-1).")
@click.option("--methods", type=str,
              default="kpv,pmmr,ridge,ridge-w,ridge-wz,linear2s",
              show_default=True)
@click.option("--out", type=click.Path(), required=True,
              help="Output prefix; writes <out>.csv and <out>.json.")
@_cli_errors
def experiment(n_values, seeds, methods, out):
    """Reproduce the multi-seed synthetic comparison."""
    method_list = [m.strip() for m in methods.split(",") if m.strip()]
    rows = []
    summaries = {}
    for n in n_values:
        result = evaluation.run_table(n, n_seeds=seeds, methods=method_list)
        summaries[str(n)] = result.summary()
        for m in method_list:
            rows.append((m, n, result.mean(m), result.std(m)))
    csv_path = str(out) + ".csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "n", "cmae_mean", "cmae_std"])
        for row in rows:
            writer.writerow([row[0], row[1], repr(row[2]), repr(row[3])])
    json_path = str(out) + ".json"
    config = {"command": "experiment", "n": list(n_values), "seeds": seeds,
              "methods": method_list, "out": str(out)}
    Path(json_path).write_text(json.dumps(
        {"proxilearn_version": __version__, "config": config,
         "results": summaries}, indent=2))
    _write_meta(out, config)
    click.echo(f"wrote {csv_path} and {json_path}")
    for m, n, mean, std in rows:
        click.echo(f"  {m:12s} n={n:5d}  c-MAE {mean:.3f} +- {std:.3f}")


@main.command()
@click.option("--data", "data_path", type=click.Path(exists=True),
              required=True)
@click.option("--method", type=click.Choice(("kpv", "pmmr")), required=True)
@click.option("--lambda-grid", "lambda_grid", type=str, default=None)
@click.option("--bandwidth", type=str, default="median", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True)
@_cli_errors
def sweep(data_path, method, lambda_grid, bandwidth, seed, out):
    """Write PMMR's validation score curve over its ridge grid.

    KPV fits at fixed ridges, so ``--method kpv`` is refused."""
    if method == "kpv":
        raise ValueError(
            f"kpv has no ridge search to sweep: it fits at the fixed ridges "
            f"lambda1 = {kpv.DEFAULT_LAMBDA1:g} and lambda2 = "
            f"{kpv.DEFAULT_LAMBDA2:g}; fit --lambda1/--lambda2 overrides them")
    grid = (_parse_grid(lambda_grid) if lambda_grid
            else pmmr.DEFAULT_LAMBDA_GRID)
    data = Dataset.from_csv(data_path)
    specs = _parse_bandwidth(bandwidth, data)
    train, validate = data.split_half(seed)
    scores = pmmr.pmmr_validation_scores(train, validate, specs, grid)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stage", "lambda", "score"])
        for lam, score in zip(grid, scores):
            writer.writerow(["validation", repr(float(lam)),
                             repr(float(score))])
    _write_meta(out, {"command": "sweep", "method": method,
                      "data": str(data_path), "bandwidth": bandwidth,
                      "lambda_grid": lambda_grid, "seed": seed,
                      "out": str(out)})
    click.echo(f"wrote score curves to {out}")


if __name__ == "__main__":
    main()
