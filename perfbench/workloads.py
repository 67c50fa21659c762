"""The benchmark workloads, their output checks and the closed loop that
runs them.

Each workload is a closed loop driven by one thread: the next operation
starts when the previous one finishes, and a pass (one round of the
workload's operations on one input) is repeated to fill the run's time
budget. Only the program adds threads: OpenBLAS's.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import Tracer, instrument

HERE = Path(__file__).resolve().parent

WORKLOADS = ("fit-n2000", "cli-fixed")
FIT_METHODS = ("kpv", "pmmr", "ridge-w")
CLI_METHODS = ("kpv", "pmmr", "pmmr-nystrom", "ridge-w")
CLI_GRID_POINTS = 50

# Fixed ridges for cli-fixed: the values the library's searches pick on
# these draws (KPV's grid edges, PMMR's and ridge-w's usual choices).
CLI_LAMBDAS = {
    "kpv": ["--lambda1", "1e-3", "--lambda2", "1e-2"],
    "pmmr": ["--lambda1", "0.25"],
    "pmmr-nystrom": ["--lambda1", "0.25"],
    "ridge-w": ["--lambda1", "2e-5"],
}

# Round-off tolerance between fit's curve and ate's re-evaluation of the
# stored artifact on the same grid.
ROUND_TRIP_RTOL = 1e-10
ROUND_TRIP_ATOL = 1e-12


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the benchmark runs ``DEFAULT``, tests a tiny copy."""

    fit_n: int = 2000
    cli_n: int = 2000
    setup_reps: int = 3


DEFAULT = Sizes()


@dataclass
class Op:
    name: str          # op span: evaluation.fit_method or cli.<command>
    method: str | None
    seconds: float
    ok: bool


@dataclass
class Pass:
    wall: float = 0.0
    traced: bool = False
    ops: list[Op] = field(default_factory=list)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    cmae: dict[str, list[float]] = field(default_factory=dict)
    artifact_bytes: int = 0
    spans: list = field(default_factory=list)
    marks: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        if not all(ok for _, ok, _ in self.checks):
            return len(self.ops)
        return sum(not op.ok for op in self.ops)


@dataclass
class Context:
    workload: str
    seed: int
    sizes: Sizes
    setup: dict
    workdir: Path
    tracer: Tracer | None = None

    @property
    def a_grid(self) -> np.ndarray:
        return np.array(self.setup["a_grid"])

    def truth(self):
        from proxilearn.data import DoCurve

        values = np.array(self.setup["truth"])
        return DoCurve(grid=self.a_grid, estimate=values, truth=values)

    def op(self, name: str, method: str | None, record: list[Op]):
        return _OpTimer(self, name, method, record)


class _OpTimer:
    """Times one operation and, when tracing, opens its op span."""

    def __init__(self, ctx: Context, name: str, method, record: list[Op]):
        self.ctx, self.name, self.method, self.record = ctx, name, method, record
        self.ok = False

    def __enter__(self):
        tracer = self.ctx.tracer
        self.span = (tracer.begin(self.name, new_op=True, method=self.method)
                     if tracer else None)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        seconds = time.perf_counter() - self.t0
        if self.span is not None:
            self.ctx.tracer.end(self.span)
        self.record.append(Op(self.name, self.method, seconds,
                              self.ok and exc_type is None))
        return False


# ---------------------------------------------------------------- set-up

def run_setup(workload: str, reps: int) -> tuple[list[float], dict]:
    """Run the set-up step ``reps`` times in fresh interpreters; return the
    wall time of each and the (identical) values they computed."""
    times, outputs = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=150)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        outputs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    values = [{k: v for k, v in out.items() if k != "span_s"}
              for out in outputs]
    if any(v != values[0] for v in values):
        raise RuntimeError("set-up is not deterministic across repetitions")
    setup = dict(values[0])
    setup["span_s"] = {name: float(np.median([o["span_s"][name]
                                               for o in outputs]))
                       for name in outputs[0]["span_s"]}
    return times, setup


# ---------------------------------------------------------------- passes

def fit_pass(ctx: Context, index: int, result: Pass) -> None:
    """``fit_method`` for kpv, pmmr and ridge-w on one n=2000 draw, with
    hyperparameters searched."""
    from proxilearn import evaluation, synthdata

    data_seed = data_seed_for(ctx.seed, index)
    data = synthdata.gen_main(ctx.sizes.fit_n, seed=data_seed).data
    truth = ctx.truth()
    for method in FIT_METHODS:
        curve = None
        with ctx.op("evaluation.fit_method", method, result.ops) as op:
            try:
                curve = evaluation.fit_method(method, data, ctx.a_grid,
                                              seed=data_seed)
                op.ok = True
            except Exception:  # noqa: BLE001 - a failed op is reported
                traceback.print_exc()
        finite = curve is not None and bool(np.isfinite(curve.estimate).all())
        result.checks.append((f"{method} curve finite", finite, ""))
        if finite:
            result.cmae.setdefault(method, []).append(
                evaluation.cmae(curve, truth))


def cli_pass(ctx: Context, index: int, result: Pass) -> None:
    """``gen``, then ``fit`` with fixed ridges and ``ate`` on a dense grid
    for each method, all through the CLI in this process."""
    data_seed = data_seed_for(ctx.seed, index)
    grid = np.array(ctx.setup["grid50"])
    grid_text = f"{float(grid[0])!r}:{float(grid[-1])!r}:{len(grid)}"
    truth = np.array(ctx.setup["truth50"])
    work = ctx.workdir / f"pass{index}"
    work.mkdir()
    data_csv = work / "data.csv"
    try:
        run_cli(ctx, result, "gen", None, ["--n", str(ctx.sizes.cli_n),
                                           "--seed", str(data_seed),
                                           "--out", str(data_csv)])
        for method in CLI_METHODS:
            model = work / f"{method}.json"
            ate_csv = work / f"{method}.ate.csv"
            fit_ok = run_cli(ctx, result, "fit", method, [
                "--data", str(data_csv), "--method", method,
                *CLI_LAMBDAS[method], f"--a-grid={grid_text}",
                "--seed", str(data_seed), "--out", str(model)])
            if fit_ok:
                result.artifact_bytes += model.stat().st_size
            ate_ok = fit_ok and run_cli(ctx, result, "ate", method, [
                "--model", str(model), "--data", str(data_csv),
                f"--a-grid={grid_text}", "--out", str(ate_csv)])
            ok, detail = False, "fit or ate failed"
            if ate_ok:
                ok, detail, estimate = round_trip_check(
                    Path(f"{model}.curve.csv"), ate_csv, grid)
                if ok:
                    result.cmae.setdefault(method, []).append(
                        float(np.mean(np.abs(estimate - truth))))
            result.checks.append((f"{method} artifact round trip", ok,
                                  detail))
    finally:
        shutil.rmtree(work)


def run_cli(ctx: Context, result: Pass, command: str, method, args) -> bool:
    """One in-process CLI invocation; True when it exits with status 0."""
    from proxilearn import cli

    out, err = io.StringIO(), io.StringIO()
    with ctx.op(f"cli.{command}", method, result.ops) as op:
        try:
            with redirect_stdout(out), redirect_stderr(err):
                cli.main.main(args=[command, *args], prog_name="proxilearn",
                              standalone_mode=False)
            op.ok = True
        except SystemExit as exc:
            op.ok = exc.code in (0, None)
        except Exception:  # noqa: BLE001 - a failed op is reported
            traceback.print_exc(file=err)
    if not op.ok:
        print(f"proxilearn {command} failed: {err.getvalue()}",
              file=sys.stderr)
    return op.ok


def read_curve(path: Path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    values = np.array([[float(v) for v in row[:2]] for row in rows])
    return values[:, 0], values[:, 1]


def round_trip_check(fit_curve: Path, ate_curve: Path, grid: np.ndarray):
    """``ate`` on the artifact's own grid must reproduce ``fit``'s curve."""
    fit_grid, fit_est = read_curve(fit_curve)
    ate_grid, ate_est = read_curve(ate_curve)
    if not (np.array_equal(fit_grid, grid) and np.array_equal(ate_grid, grid)):
        return False, "grids differ", ate_est
    gap = float(np.max(np.abs(ate_est - fit_est)))
    ok = bool(np.allclose(ate_est, fit_est, rtol=ROUND_TRIP_RTOL,
                          atol=ROUND_TRIP_ATOL))
    return ok, f"max gap {gap:.3g}", ate_est


def data_seed_for(seed: int, index: int) -> int:
    return 1000 * seed + index


PASSES = {"fit-n2000": fit_pass, "cli-fixed": cli_pass}


def run_passes(ctx: Context, seconds: float, trace: bool) -> list[Pass]:
    """Closed loop of passes. The first pass sets how many the run makes:
    as many passes of its length as come closest to ``seconds``, and at
    least one. With ``trace``, each input runs untraced and then traced,
    so the pair gives the tracing overhead."""
    body = PASSES[ctx.workload]
    modes = (False, True) if trace else (False,)
    passes: list[Pass] = []
    warm_up_blas()
    start = time.perf_counter()
    rounds = None
    index = 0
    while rounds is None or index < rounds:
        for traced in modes:
            passes.append(one_pass(ctx, body, index, traced))
        index += 1
        if rounds is None:
            rounds = max(1, round(seconds / (time.perf_counter() - start)))
    return passes


def warm_up_blas() -> None:
    """Start OpenBLAS's threads and grow the allocator with numpy alone,
    so that the first timed operation does not pay the runtime's one-off
    start-up. No proxilearn code runs here."""
    import scipy.linalg

    rng = np.random.default_rng(0)
    m = rng.random((1000, 1000))
    m = m @ m.T + 1000 * np.eye(1000)
    np.linalg.eigh(m)
    scipy.linalg.cho_factor(m, lower=True)


def one_pass(ctx: Context, body, index: int, traced: bool) -> Pass:
    result = Pass(traced=traced)
    tracer = Tracer() if traced else None
    ctx.tracer = tracer
    patches = instrument(tracer) if tracer else None
    try:
        t0 = time.perf_counter()
        if tracer:
            with tracer.span("bench.pass"):
                body(ctx, index, result)
        else:
            body(ctx, index, result)
        result.wall = time.perf_counter() - t0
    finally:
        if patches:
            patches.restore()
        ctx.tracer = None
    if tracer:
        result.spans, result.marks = tracer.drain()
    return result
