"""c-MAE metric, the method registry and the multi-seed synthetic
comparison harness."""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import baselines, kpv, pmmr, synthdata
from .data import Dataset, DoCurve
from .kernels import KernelSpecs

ORACLE_SEED = 20_210_601
ORACLE_MC_SAMPLES = 1_000_000
GRID_POINTS = 9
MAX_FAILURE_FRACTION = 0.25


def cmae(estimate: DoCurve, truth: DoCurve) -> float:
    """Mean absolute error between two curves on the same grid."""
    if estimate.grid.shape != truth.grid.shape or not np.allclose(
            estimate.grid, truth.grid):
        raise ValueError("curves are on different grids")
    return float(np.mean(np.abs(estimate.estimate - truth.estimate)))


def treatment_grid(a: np.ndarray) -> np.ndarray:
    """``GRID_POINTS`` equispaced treatments between the 5% and 95%
    quantiles of the first column of ``a``."""
    lo, hi = np.quantile(a[:, 0], [0.05, 0.95])
    return np.linspace(lo, hi, GRID_POINTS)


def check_treatment(data: Dataset) -> None:
    """Effect curves are over one treatment column; refuse more."""
    if data.a.shape[1] != 1:
        raise ValueError(f"effect curves need one treatment column, the "
                         f"data has {data.a.shape[1]}")


def default_a_grid() -> np.ndarray:
    """The benchmark's treatment grid: ``treatment_grid`` of the
    ``gen_main(ORACLE_MC_SAMPLES, seed=ORACLE_SEED)`` draw, frozen. The
    bounds are that draw's 5% and 95% treatment quantiles; a slow test
    recomputes them."""
    return np.linspace(-0.8962524538411853, 1.8975430570063523, GRID_POINTS)


@dataclass(frozen=True)
class Estimator:
    """One method, as ``fit_method`` and the CLI's ``fit`` and ``ate`` run it.

    - ``fit(data, specs, seed, options)``: the fitted model. ``specs``
      None means median-heuristic bandwidths; ``options`` holds the
      ``fit`` flags given, by the names in ``reads``.
    - ``record(model, seed, options)``: the artifact's ``lambdas``,
      ``search`` and method fields. Its coefficients are the model
      attribute named ``coefficients``.
    - ``curve(model, adjust, a_grid)``: the model's effect curve over the
      sample ``adjust``, by its module's public curve function.
    - ``weights(model, adjust)``: the weights w of that curve
      k_A(a, A_s)' w, which the artifact stores.
    - ``sample(data, read)``: the training rows whose treatments are A_s.
    - ``rebuild(read, data, specs, coefficients)``: the model again from
      an artifact, whose dotted paths ``read`` looks up.

    ``linear2s`` has no kernel model: its model is the training data, it
    has no weights, and its curve refits the two regressions.
    """

    fit: Callable
    reads: tuple[str, ...]
    record: Callable
    curve: Callable
    coefficients: str = ""
    weights: Callable | None = None
    sample: Callable = lambda data, read: data
    rebuild: Callable | None = None
    compared: bool = True   # one of ``run_table``'s default methods


def _kpv_rebuild(read, data, specs, c):
    sample1, sample2 = data.split_half(read("split_seed"))
    stage1 = kpv.stage1_fit(sample1, specs, read("lambdas.lambda1"))
    return kpv.kpv_model(stage1, sample2, c, read("lambdas.lambda2"))


def _searched(model) -> dict:
    """A single-ridge model's ``lambdas`` and its ridge search as JSON
    values: None if no ridge was searched, and a non-finite score None."""
    s = model.search
    search = None if s is None else {
        "grid": s.grid.tolist(), "scores": [
            v if np.isfinite(v) else None for v in s.scores.tolist()],
        "lambda": s.lam, "edge": s.edge}
    return {"lambdas": {"lambda": model.lam}, "search": search}


def _pmmr(nystrom: bool) -> Estimator:
    def rank(n, options):
        return options.get("rank", max(1, n // 2)) if nystrom else None

    return Estimator(
        fit=lambda data, specs, seed, o: pmmr.fit_pmmr(
            data, specs=specs, lam=o.get("lambda1"),
            lam_grid=o.get("lambda_grid", pmmr.DEFAULT_LAMBDA_GRID),
            rank=rank(data.n, o), split_seed=seed),
        reads=("lambda1", "lambda_grid") + (("rank",) if nystrom else ()),
        record=lambda m, seed, o: {**_searched(m), "rank": rank(m.n, o)},
        curve=lambda m, adjust, grid: pmmr.pmmr_ate(
            m, grid, adjust.x, adjust.w),
        coefficients="alpha",
        weights=lambda m, adjust: pmmr.pmmr_curve_weights(
            m, adjust.x, adjust.w),
        rebuild=lambda read, data, specs, alpha: pmmr.PmmrModel(
            sample=data, specs=specs, alpha=alpha,
            lam=read("lambdas.lambda")),
        compared=not nystrom)


def _ridge(groups: str) -> Estimator:
    return Estimator(
        fit=lambda data, specs, seed, o: baselines.fit_ridge_baseline(
            data, groups, lam=o.get("lambda1"),
            lam_grid=o.get("lambda_grid", baselines.DEFAULT_RIDGE_GRID),
            specs=specs),
        reads=("lambda1", "lambda_grid"),
        record=lambda m, seed, o: {**_searched(m), "adjust": groups},
        curve=lambda m, adjust, grid: baselines.adjusted_ate(m, grid, adjust),
        coefficients="beta",
        weights=lambda m, adjust: baselines.adjusted_curve_weights(m, adjust),
        rebuild=lambda read, data, specs, beta: baselines.RidgeModel(
            sample=data, adjust=groups, specs=specs,
            lam=read("lambdas.lambda"), beta=beta))


# The entries call estimator functions through their modules at call time,
# so a rebound module attribute (a test double, a tracing span) is seen.
ESTIMATORS = {
    "kpv": Estimator(
        fit=lambda data, specs, seed, o: kpv.fit_kpv(
            data, specs=specs, lam1=o.get("lambda1"), lam2=o.get("lambda2"),
            split_seed=seed),
        reads=("lambda1", "lambda2"),
        record=lambda m, seed, o: {
            "lambdas": {"lambda1": m.stage1.lam1, "lambda2": m.lam2},
            "search": None, "split_seed": seed},
        curve=lambda m, adjust, grid: kpv.kpv_ate(m, grid, adjust.x, adjust.w),
        coefficients="c",
        weights=lambda m, adjust: kpv.kpv_curve_weights(m, adjust.x, adjust.w),
        sample=lambda data, read: data.split_half(read("split_seed"))[1],
        rebuild=_kpv_rebuild),
    "pmmr": _pmmr(nystrom=False),
    "pmmr-nystrom": _pmmr(nystrom=True),
    "ridge": _ridge(""),
    "ridge-w": _ridge("w"),
    "ridge-wz": _ridge("wz"),
    "linear2s": Estimator(
        fit=lambda data, specs, seed, o: data, reads=(),
        record=lambda m, seed, o: {"lambdas": {}, "search": None},
        curve=lambda m, adjust, grid: baselines.linear_two_stage(
            m, grid, adjust)),
}

DEFAULT_METHODS = tuple(m for m, e in ESTIMATORS.items() if e.compared)


def estimator(name: str) -> Estimator:
    """The registry entry of method ``name``."""
    if name not in ESTIMATORS:
        raise ValueError(f"unknown method {name!r}; expected one of "
                         f"{tuple(ESTIMATORS)}")
    return ESTIMATORS[name]


def fit_method(name: str, data: Dataset, a_grid: np.ndarray,
               seed: int = 0, specs: KernelSpecs | None = None) -> DoCurve:
    """Fit one method on ``data`` (searched ridges re-selected) and return
    its effect curve over ``a_grid``. ``specs`` None means
    ``KernelSpecs.from_data(data)``."""
    est = estimator(name)
    check_treatment(data)
    return est.curve(est.fit(data, specs, seed, {}), data, a_grid)


@dataclass
class ExperimentResult:
    """Per-method, per-seed c-MAE with aggregates and config snapshot. A
    seed on which a method failed holds NaN; ``summary`` reports it as
    None and counts it under ``failures``."""

    n: int
    seeds: list[int]
    methods: list[str]
    per_seed: dict[str, list[float]]
    config: dict = field(default_factory=dict)

    def mean(self, method: str) -> float:
        return float(np.nanmean(self.per_seed[method]))

    def std(self, method: str) -> float:
        """Population standard deviation over seeds."""
        return float(np.nanstd(self.per_seed[method]))

    def summary(self) -> dict:
        return {
            "n": self.n,
            "seeds": self.seeds,
            "config": self.config,
            "cmae": {
                m: {"mean": self.mean(m), "std": self.std(m),
                    "failures": int(np.isnan(self.per_seed[m]).sum()),
                    "per_seed": [None if np.isnan(v) else v
                                 for v in self.per_seed[m]]}
                for m in self.methods
            },
        }


def max_workers() -> int:
    """The number of seeds ``run_table`` fits at once: 1, since it fits
    them in turn. The benchmark records it with its environment."""
    return 1


def check_table(n_seeds: int, methods) -> list[str]:
    """Check ``run_table``'s seed count and method names before anything
    is drawn; returns the methods as a list."""
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be at least 1, got {n_seeds}")
    methods = list(methods)
    if not methods:
        raise ValueError("methods must be nonempty")
    for m in methods:
        estimator(m)
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise ValueError(f"methods must not repeat, got {', '.join(repeated)} "
                         f"more than once")
    return methods


def run_table(
    n: int,
    n_seeds: int = 20,
    methods=DEFAULT_METHODS,
    a_grid: np.ndarray | None = None,
    truth: DoCurve | None = None,
) -> ExperimentResult:
    """Fit every method on ``n_seeds`` fresh draws of size ``n`` and score
    each against the frozen ground truth.

    ``a_grid`` and ``truth`` default to ``default_a_grid()`` and the
    oracle on it; a caller running several tables computes them once.
    Seeds 0..n_seeds-1 run in turn, in the caller's thread, so the
    result is deterministic for a fixed configuration; the only
    parallelism is the BLAS threads inside each fit. Each draw's
    median-heuristic bandwidths are computed once and shared by its
    methods. A method failing on more than a quarter of the seeds aborts
    the run with diagnostics.
    """
    methods = check_table(n_seeds, methods)
    if a_grid is None:
        a_grid = default_a_grid()
    if truth is None:
        truth = synthdata.true_ate(a_grid, ORACLE_MC_SAMPLES,
                                   seed=ORACLE_SEED)
    seeds = list(range(n_seeds))

    per_seed: dict[str, list[float]] = {m: [] for m in methods}
    errors: dict[str, dict[int, str]] = {m: {} for m in methods}
    for seed in seeds:
        data = synthdata.gen_main(n, seed=seed).data
        specs = None
        for m in methods:
            try:
                specs = specs or KernelSpecs.from_data(data)
                curve = fit_method(m, data, a_grid, seed=seed, specs=specs)
                per_seed[m].append(cmae(curve, truth))
            except Exception:
                per_seed[m].append(float("nan"))
                errors[m][seed] = traceback.format_exc(limit=2)

    for m in methods:
        failures = [s for s in seeds if np.isnan(per_seed[m][s])]
        if len(failures) > MAX_FAILURE_FRACTION * len(seeds):
            notes = "\n".join(errors[m].get(s, "") for s in failures)
            raise RuntimeError(
                f"method {m!r} failed on seeds {failures} "
                f"({len(failures)}/{len(seeds)}):\n{notes}"
            )

    config = {
        "n": n,
        "n_seeds": n_seeds,
        "methods": methods,
        "a_grid": [float(v) for v in a_grid],
        "oracle_seed": ORACLE_SEED,
        "oracle_mc_samples": ORACLE_MC_SAMPLES,
    }
    return ExperimentResult(n=n, seeds=seeds, methods=methods,
                            per_seed=per_seed, config=config)
