"""Command-line entry point: dataset generation, fitting, effect curves
and experiments.

Every invocation writes its primary outputs plus a ``<out>.meta.json``
sidecar carrying the full run configuration and library version (for
``fit``, also the fitted ridges and their search record); model artifacts
embed both directly. Every JSON file written is strict JSON: a seed on
which an experiment's method failed is null. Errors leave a
machine-readable JSON object on stderr and a nonzero exit code.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__, evaluation, synthdata
from .data import GROUPS, Dataset, DoCurve, write_csv
from .kernels import KernelSpec, KernelSpecs, effect_curve
from .numerics import ridge_grid


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


def _write_json(path, value) -> None:
    """Write ``value`` as strict JSON: a NaN or infinity is an error."""
    Path(path).write_text(json.dumps(value, indent=2, allow_nan=False))


def _write_meta(out_path, config: dict, **fields) -> None:
    _write_json(str(out_path) + ".meta.json", {
        "proxilearn_version": __version__, "config": config, **fields})


def _parse_a_grid(text: str) -> np.ndarray:
    """Parse 'min:max:count' into an equispaced grid: finite bounds and an
    integer count of at least 1."""
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        lo = hi = count = 0
    if count < 1 or not np.isfinite([lo, hi, hi - lo]).all():
        raise ValueError(f"--a-grid expects min:max:count with finite "
                         f"bounds and an integer count >= 1, got {text!r}")
    return np.linspace(lo, hi, count)


def _parse_bandwidth(text: str, data: Dataset) -> KernelSpecs:
    """'median' or a comma list covering the A, X, Z, W columns in order."""
    if text == "median":
        return KernelSpecs.from_data(data)
    values = [float(v) for v in text.split(",") if v.strip()]
    dims = [getattr(data, g).shape[1] for g in GROUPS]
    if len(values) != sum(dims):
        widths = " ".join(f"{g.upper()}:{d}" for g, d in zip(GROUPS, dims))
        raise ValueError(f"--bandwidth needs {sum(dims)} values ({widths}), "
                         f"got {len(values)}")
    parts = np.split(np.array(values), np.cumsum(dims)[:-1])
    return KernelSpecs(**{g: KernelSpec(p) for g, p in zip(GROUPS, parts)})


def _write_curve(path, curve: DoCurve) -> None:
    write_csv(path, ["a", "estimate"],
              zip(curve.grid.tolist(), curve.estimate.tolist()))


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


@main.command()
@click.option("--data", "data_path", type=click.Path(exists=True),
              required=True)
@click.option("--method", type=click.Choice(tuple(evaluation.ESTIMATORS)),
              required=True)
@click.option("--lambda1", type=float, default=None,
              help="Stage-1 ridge (kpv, default 1e-3) or fixed ridge "
                   "(pmmr/ridge, default: selected).")
@click.option("--lambda2", type=float, default=None,
              help="Stage-2 ridge (kpv only, default 1e-2).")
@click.option("--lambda-grid", "lambda_grid", type=str, default=None,
              help="Comma-separated ridge grid (pmmr/ridge selection).")
@click.option("--bandwidth", type=str, default="median", show_default=True,
              help="'median' or a list over A,X,Z,W columns (kernel methods).")
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
    evaluates the curve on any grid without refitting. The curve file is
    read back from the model the way ``ate`` reads it."""
    est = evaluation.ESTIMATORS[method]
    flags = {"lambda1": lambda1, "lambda2": lambda2,
             "lambda_grid": lambda_grid, "rank": rank}
    unused = [f"--{name.replace('_', '-')}" for name, value in flags.items()
              if value is not None and name not in est.reads]
    if bandwidth != "median" and est.weights is None:
        unused.append("--bandwidth")
    if unused:
        raise ValueError(f"--method {method} does not use "
                         f"{', '.join(unused)}")
    if lambda1 is not None and lambda_grid is not None:
        raise ValueError("--lambda1 fixes the ridge, so there is no search "
                         "for --lambda-grid; give one of them")
    for flag, value in (("--lambda1", lambda1), ("--lambda2", lambda2)):
        if value is not None:
            ridge_grid(value, flag)
    lam_grid = None if lambda_grid is None else ridge_grid(
        [float(v) for v in lambda_grid.split(",") if v.strip()],
        "--lambda-grid")
    options = {name: value for name, value in
               {**flags, "lambda_grid": lam_grid}.items() if value is not None}
    a_grid = _parse_a_grid(a_grid_text) if a_grid_text else None
    data = Dataset.from_csv(data_path)
    evaluation.check_treatment(data)
    specs = None if est.weights is None else _parse_bandwidth(bandwidth, data)
    if a_grid is None:
        a_grid = evaluation.treatment_grid(data.a)
    config = {
        "command": "fit", "method": method, "data": str(data_path),
        "lambda1": lambda1, "lambda2": lambda2,
        "lambda_grid": None if lam_grid is None else lam_grid.tolist(),
        "bandwidth": bandwidth, "rank": rank, "seed": seed,
        "a_grid": a_grid.tolist(), "out": str(out),
    }
    model = est.fit(data, specs, seed, options)
    payload = {**est.record(model, seed, options), "coefficients": {}}
    if est.weights is not None:
        payload["coefficients"] = {
            est.coefficients: getattr(model, est.coefficients).tolist()}
        payload["curve_weights"] = est.weights(model, data).tolist()
    artifact = {
        "proxilearn_version": __version__,
        "config": config,
        "method": method,
        "training_data": {"path": str(data_path),
                          "sha256": _sha256(data_path)},
        "bandwidths": None if specs is None else {
            g: getattr(specs, g).bandwidths.tolist() for g in GROUPS},
        **payload,
    }
    _write_json(out, artifact)
    curve_path = str(out) + ".curve.csv"
    _write_curve(curve_path,
                 _curve_from_artifact(artifact, data, None, a_grid))
    _write_meta(out, config, lambdas=payload["lambdas"],
                search=payload["search"])
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
        for g in GROUPS})


def _curve_from_artifact(artifact, data: Dataset, adjust: Dataset | None,
                         a_grid: np.ndarray) -> DoCurve:
    """The artifact's effect curve on ``a_grid``: from its stored curve
    weights, or from weights its coefficients give over ``adjust``."""
    est = evaluation.estimator(_field(artifact, "method"))
    read = functools.partial(_field, artifact)
    if est.weights is None:
        return est.curve(data, data if adjust is None else adjust, a_grid)
    a_sample = est.sample(data, read).a
    coefficients = _vector(artifact, f"coefficients.{est.coefficients}",
                           a_sample.shape[0])
    weights = _vector(artifact, "curve_weights", a_sample.shape[0])
    if adjust is not None:
        model = est.rebuild(read, data, _specs_from_artifact(artifact),
                            coefficients)
        return est.curve(model, adjust, a_grid)
    return effect_curve(a_sample, KernelSpec(np.array(read("bandwidths.a"))),
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
    a_grid = _parse_a_grid(a_grid_text) if a_grid_text else None
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
    if a_grid is None:
        a_grid = np.array(_field(artifact, "config.a_grid"))
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
              default=",".join(evaluation.DEFAULT_METHODS),
              show_default=True)
@click.option("--out", type=click.Path(), required=True,
              help="Output prefix; writes <out>.csv and <out>.json.")
@_cli_errors
def experiment(n_values, seeds, methods, out):
    """Reproduce the multi-seed synthetic comparison."""
    method_list = evaluation.check_table(
        seeds, [m.strip() for m in methods.split(",") if m.strip()])
    repeated = sorted({n for n in n_values if n_values.count(n) > 1})
    if repeated:
        raise ValueError(f"--n must not repeat, got "
                         f"{', '.join(map(str, repeated))} more than once")
    # One grid and one oracle serve every --n.
    a_grid = evaluation.default_a_grid()
    truth = synthdata.true_ate(a_grid, evaluation.ORACLE_MC_SAMPLES,
                               seed=evaluation.ORACLE_SEED)
    rows = []
    summaries = {}
    for n in n_values:
        result = evaluation.run_table(n, n_seeds=seeds, methods=method_list,
                                      a_grid=a_grid, truth=truth)
        summaries[str(n)] = result.summary()
        for m in method_list:
            rows.append((m, n, result.mean(m), result.std(m)))
    csv_path = str(out) + ".csv"
    write_csv(csv_path, ["method", "n", "cmae_mean", "cmae_std"], rows)
    json_path = str(out) + ".json"
    config = {"command": "experiment", "n": list(n_values), "seeds": seeds,
              "methods": method_list, "out": str(out)}
    _write_json(json_path, {"proxilearn_version": __version__,
                            "config": config, "results": summaries})
    _write_meta(out, config)
    click.echo(f"wrote {csv_path} and {json_path}")
    for m, n, mean, std in rows:
        click.echo(f"  {m:12s} n={n:5d}  c-MAE {mean:.3f} +- {std:.3f}")


if __name__ == "__main__":
    main()
