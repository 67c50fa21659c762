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
    - ``model``: the type ``fit`` returns, which answers for itself:
      ``curve(adjust, a_grid)`` (its effect curve over the sample ``adjust``),
      ``to_record(adjust)`` and, from a ``cli.ArtifactReader``,
      ``from_record(read, data)`` and ``stored_curve(read, data, a_grid)``.
    """

    fit: Callable
    reads: tuple[str, ...]
    model: type


def _pmmr(nystrom: bool) -> Estimator:
    return Estimator(
        fit=lambda data, specs, seed, o: pmmr.fit_pmmr(
            data, specs=specs, lam=o.get("lambda1"),
            lam_grid=o.get("lambda_grid", pmmr.DEFAULT_LAMBDA_GRID),
            rank=o.get("rank", max(1, data.n // 2)) if nystrom else None,
            split_seed=seed),
        reads=("lambda1", "lambda_grid", "bandwidth")
        + (("rank",) if nystrom else ()),
        model=pmmr.PmmrModel)


def _ridge(groups: str) -> Estimator:
    return Estimator(
        fit=lambda data, specs, seed, o: baselines.fit_ridge_baseline(
            data, groups, lam=o.get("lambda1"),
            lam_grid=o.get("lambda_grid", baselines.DEFAULT_RIDGE_GRID),
            specs=specs),
        reads=("lambda1", "lambda_grid", "bandwidth"),
        model=baselines.RidgeModel)


# The entries call estimator functions through their modules at call time,
# so a rebound module attribute (a test double, a tracing span) is seen.
# A ridge baseline's name is "ridge-<groups>", which its artifact checks.
ESTIMATORS = {
    "kpv": Estimator(
        fit=lambda data, specs, seed, o: kpv.fit_kpv(
            data, specs=specs, lam1=o.get("lambda1"), lam2=o.get("lambda2"),
            split_seed=seed),
        reads=("lambda1", "lambda2", "bandwidth"),
        model=kpv.KpvModel),
    "pmmr": _pmmr(nystrom=False),
    "pmmr-nystrom": _pmmr(nystrom=True),
    "ridge": _ridge(""),
    "ridge-w": _ridge("w"),
    "ridge-wz": _ridge("wz"),
    "linear2s": Estimator(
        fit=lambda data, specs, seed, o: baselines.fit_linear2s(data),
        reads=(), model=baselines.Linear2sModel),
}

# ``run_table``'s methods: all but pmmr-nystrom, an approximation of pmmr.
DEFAULT_METHODS = ("kpv", "pmmr", "ridge", "ridge-w", "ridge-wz", "linear2s")


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
    return est.fit(data, specs, seed, {}).curve(data, a_grid)


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


def check_table(n_values, n_seeds: int, methods) -> list[str]:
    """Check the sample sizes ``n_values`` of one or more ``run_table``
    calls, their seed count and their method names before anything is
    drawn; returns the methods as a list."""
    for n in n_values:
        if n < 1:
            raise ValueError(f"n must be at least 1, got {n}")
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
    methods = check_table([n], n_seeds, methods)
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
