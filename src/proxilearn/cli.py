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
from .kernels import KernelSpec, KernelSpecs
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


def _parse_numbers(text: str, flag: str) -> list[float]:
    """The comma-separated numbers given to ``flag``, none for an empty
    text. An empty or non-numeric item is refused by its position."""
    if not text.strip():
        return []
    values = []
    for i, item in enumerate(text.split(","), 1):
        try:
            values.append(float(item))
        except ValueError:
            what = "is empty" if not item.strip() else (
                f"is not a number: {item.strip()!r}")
            raise ValueError(f"{flag} item {i} {what}") from None
    return values


def _parse_bandwidth(text: str, data: Dataset) -> KernelSpecs:
    """A comma list covering the A, X, Z, W columns in order."""
    values = _parse_numbers(text, "--bandwidth")
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

    The model writes its artifact fields, so ``ate`` evaluates the curve on
    any grid without refitting. The curve file is read back from the model
    the way ``ate`` reads it."""
    est = evaluation.ESTIMATORS[method]
    flags = {"lambda1": lambda1, "lambda2": lambda2,
             "lambda_grid": lambda_grid, "rank": rank,
             "bandwidth": None if bandwidth == "median" else bandwidth}
    unused = [f"--{name.replace('_', '-')}" for name, value in flags.items()
              if value is not None and name not in est.reads]
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
        _parse_numbers(lambda_grid, "--lambda-grid"), "--lambda-grid")
    options = {name: value for name, value in
               {**flags, "lambda_grid": lam_grid}.items() if value is not None}
    a_grid = _parse_a_grid(a_grid_text) if a_grid_text else None
    data = Dataset.from_csv(data_path)
    evaluation.check_treatment(data)
    specs = None if bandwidth == "median" else _parse_bandwidth(bandwidth,
                                                                data)
    if a_grid is None:
        a_grid = evaluation.treatment_grid(data.a)
    config = {
        "command": "fit", "method": method, "data": str(data_path),
        "lambda1": lambda1, "lambda2": lambda2,
        "lambda_grid": None if lam_grid is None else lam_grid.tolist(),
        "bandwidth": bandwidth, "rank": rank, "seed": seed,
        "a_grid": a_grid.tolist(), "out": str(out),
    }
    record = est.fit(data, specs, seed, options).to_record(data)
    artifact = {
        "proxilearn_version": __version__,
        "config": config,
        "method": method,
        "training_data": {"path": str(data_path),
                          "sha256": _sha256(data_path)},
        **record,
    }
    _write_json(out, artifact)
    curve_path = str(out) + ".curve.csv"
    _write_curve(curve_path, est.model.stored_curve(
        ArtifactReader(artifact), data, a_grid))
    _write_meta(out, config, lambdas=record["lambdas"],
                search=record["search"])
    click.echo(f"wrote model to {out} and curve to {curve_path}")


class ArtifactReader:
    """Reads a model artifact's fields by dotted path. A missing field, or
    one that the check ``ok`` refuses, is a ValueError naming it."""

    def __init__(self, artifact):
        self.artifact = artifact

    def __call__(self, path: str, ok=None, what: str = ""):
        value = self.artifact
        for key in path.split("."):
            if not isinstance(value, dict) or key not in value:
                raise ValueError(f"model artifact has no {path!r} field; "
                                 f"refit the model with this version")
            value = value[key]
        if ok is not None and not ok(value):
            raise ValueError(f"model artifact field {path!r} is not {what}; "
                             f"refit the model with this version")
        return value

    def vector(self, path: str, size: int | None = None,
               positive: bool = False) -> np.ndarray:
        """The ``size`` finite numbers listed at ``path`` (for None, one or
        more, as ``--a-grid`` gives), each positive if ``positive``."""
        def ok(value):
            if not (isinstance(value, list)
                    and all(type(v) in (int, float) for v in value)):
                return False
            v = np.array(value, dtype=float)
            return (np.isfinite(v).all() and not (positive and (v <= 0).any())
                    and (v.size >= 1 if size is None else v.size == size))

        count = "a nonempty list" if size is None else f"a list of {size}"
        return np.array(self(path, ok, f"{count} finite"
                             f"{' positive' * positive} numbers"), dtype=float)

    def ridge(self, path: str) -> float:
        """The positive finite number at ``path``."""
        return self(path, lambda v: type(v) in (int, float) and 0 < v < np.inf,
                    "a positive finite number")

    def seed(self, path: str) -> int:
        """The non-negative integer at ``path``; a bool is not one."""
        return self(path, lambda v: type(v) is int and v >= 0,
                    "a non-negative integer")


@main.command()
@click.option("--model", "model_path", type=click.Path(exists=True),
              required=True)
@click.option("--data", "data_path", type=click.Path(exists=True),
              required=True, help="The training CSV (hash-checked).")
@click.option("--adjust", "adjust_path", type=click.Path(exists=True),
              default=None,
              help="Adjustment sample CSV; rebuilds the model from its "
                   "coefficients and averages over it (default: the "
                   "stored curve over --data).")
@click.option("--a-grid", "a_grid_text", type=str, default=None)
@click.option("--out", type=click.Path(), required=True)
@_cli_errors
def ate(model_path, data_path, adjust_path, a_grid_text, out):
    """Evaluate a fitted model's effect curve on a treatment grid.

    Without --adjust, the curve comes from the curve weights (linear2s:
    the coefficients) the artifact stores, in O(n * grid) time and without
    refitting anything. Every artifact field read is checked."""
    a_grid = _parse_a_grid(a_grid_text) if a_grid_text else None
    read = ArtifactReader(json.loads(Path(model_path).read_text()))
    recorded = read("training_data.sha256", lambda v: isinstance(v, str),
                    "a string")
    actual = _sha256(data_path)
    if recorded != actual:
        raise ValueError(f"training data hash mismatch: model was fit on "
                         f"sha256 {recorded[:12]}..., got {actual[:12]}...")
    data = Dataset.from_csv(data_path)
    adjust = Dataset.from_csv(adjust_path) if adjust_path else None
    if a_grid is None:
        a_grid = read.vector("config.a_grid")
    # The stored curve is read on either path, as that checks every field.
    method = read("method", lambda v: isinstance(v, str), "a string")
    model = evaluation.estimator(method).model
    curve = model.stored_curve(read, data, a_grid)
    if adjust is not None:
        curve = model.from_record(read, data).curve(adjust, a_grid)
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
        n_values, seeds, [m.strip() for m in methods.split(",") if m.strip()])
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
