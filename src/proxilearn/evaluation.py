"""c-MAE metric and the multi-seed synthetic comparison harness."""

from __future__ import annotations

import csv
import json
import os
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import baselines, kpv, pmmr, synthdata
from .data import Dataset, DoCurve

ORACLE_SEED = 20_210_601
ORACLE_MC_SAMPLES = 1_000_000
GRID_POINTS = 9
MAX_FAILURE_FRACTION = 0.25

METHOD_NAMES = ("kpv", "pmmr", "pmmr-nystrom", "ridge", "ridge-w",
                "ridge-wz", "linear2s")


def cmae(estimate: DoCurve, truth: DoCurve) -> float:
    """Mean absolute error between two curves on the same grid."""
    if estimate.grid.shape != truth.grid.shape or not np.allclose(
            estimate.grid, truth.grid):
        raise ValueError("curves are on different grids")
    return float(np.mean(np.abs(estimate.estimate - truth.estimate)))


def default_a_grid(n_points: int = GRID_POINTS,
                   seed: int = ORACLE_SEED) -> np.ndarray:
    """Equispaced treatment grid spanning the central 90% of A's marginal,
    located from a large fixed-seed draw."""
    draw = synthdata.gen_main(ORACLE_MC_SAMPLES, seed=seed)
    lo, hi = np.quantile(draw.data.a[:, 0], [0.05, 0.95])
    return np.linspace(lo, hi, n_points)


def fit_method(name: str, data: Dataset, a_grid: np.ndarray,
               seed: int = 0) -> DoCurve:
    """Fit one method on ``data`` (searched ridges re-selected) and return
    its effect curve over ``a_grid``."""
    if name == "kpv":
        model = kpv.fit_kpv(data, split_seed=seed)
        return kpv.kpv_ate(model, a_grid, data.x, data.w)
    if name == "pmmr":
        model = pmmr.fit_pmmr(data, split_seed=seed)
        return pmmr.pmmr_ate(model, a_grid, data.x, data.w)
    if name == "pmmr-nystrom":
        model = pmmr.fit_pmmr(data, rank=max(1, data.n // 2),
                              split_seed=seed, landmark_seed=seed)
        return pmmr.pmmr_ate(model, a_grid, data.x, data.w)
    if name in ("ridge", "ridge-w", "ridge-wz"):
        adjust = {"ridge": "", "ridge-w": "w", "ridge-wz": "wz"}[name]
        model, adjustment = baselines.fit_ridge_baseline(data, adjust)
        return baselines.adjusted_ate(model, a_grid, adjustment)
    if name == "linear2s":
        return baselines.linear_two_stage(data, a_grid)
    raise ValueError(f"unknown method {name!r}; expected one of "
                     f"{METHOD_NAMES}")


@dataclass
class ExperimentResult:
    """Per-method, per-seed c-MAE with aggregates and config snapshot."""

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
                    "per_seed": self.per_seed[m]}
                for m in self.methods
            },
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.summary(), fh, indent=2)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "n", "seed", "cmae"])
            for m in self.methods:
                for seed, value in zip(self.seeds, self.per_seed[m]):
                    writer.writerow([m, self.n, seed, repr(float(value))])
            for m in self.methods:
                writer.writerow([m, self.n, "mean", repr(self.mean(m))])
                writer.writerow([m, self.n, "std", repr(self.std(m))])


def max_workers() -> int:
    """Worker cap: PROXI_THREADS when set, else the CPU count."""
    env = os.environ.get("PROXI_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"PROXI_THREADS must be an integer, got {env!r}")
    return max(1, os.cpu_count() or 1)


def run_table(
    n: int,
    n_seeds: int = 20,
    methods=("kpv", "pmmr", "ridge", "ridge-w", "ridge-wz", "linear2s"),
    a_grid: np.ndarray | None = None,
    truth: DoCurve | None = None,
    workers: int | None = None,
) -> ExperimentResult:
    """Fit every method on ``n_seeds`` fresh draws of size ``n`` and score
    each against the frozen ground truth.

    Seeds 0..n_seeds-1 run in parallel and merge by seed index, so the
    result is deterministic for a fixed configuration. A method failing
    on more than a quarter of the seeds aborts the run with diagnostics.
    """
    methods = list(methods)
    if not methods:
        raise ValueError("methods must be nonempty")
    for m in methods:
        if m not in METHOD_NAMES:
            raise ValueError(f"unknown method {m!r}")
    if a_grid is None:
        a_grid = default_a_grid()
    if truth is None:
        truth = synthdata.true_ate(a_grid, ORACLE_MC_SAMPLES,
                                   seed=ORACLE_SEED)
    seeds = list(range(n_seeds))

    def one_seed(seed: int):
        data = synthdata.gen_main(n, seed=seed).data
        row: dict[str, float] = {}
        errors: dict[str, str] = {}
        for m in methods:
            try:
                curve = fit_method(m, data, a_grid, seed=seed)
                row[m] = cmae(curve, truth)
            except Exception:
                row[m] = float("nan")
                errors[m] = traceback.format_exc(limit=2)
        return row, errors

    if workers is None:
        workers = min(max_workers(), len(seeds))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(one_seed, seeds))
    else:
        outcomes = [one_seed(s) for s in seeds]

    per_seed = {m: [outcomes[s][0][m] for s in seeds] for m in methods}
    for m in methods:
        failures = [s for s in seeds if np.isnan(per_seed[m][s])]
        if len(failures) > MAX_FAILURE_FRACTION * len(seeds):
            notes = "\n".join(outcomes[s][1].get(m, "") for s in failures)
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
