"""proxilearn benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload {fit-n2000,cli-fixed} \
        --seed N --seconds S --trace {0,1}

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs each input untraced and then traced and prints the
per-layer metrics, writing the spans to ``.perfbench-out/traces/``. The
last line of standard output is the result; the lines before it are the
environment record, every metric with its unit and the output checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy.special

import workloads
from spans import LAYERS, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# Counts that repeat exactly for a given seed; cite them as counts.
EXACT_COUNTS = ("linalg.factorizations", "pmmr.factorizations_per_search",
                "kernels.gram.calls", "kernels.gram.mbytes",
                "cli.artifact_mb")
# Per-layer values that are not timings. They depend on the data, so they
# are read off the first traced pass, whose input depends on the seed only
# and not on how many passes fit in the time budget.
FIRST_PASS = (*EXACT_COUNTS, "numerics.psd_factor.calls", "kpv.edge_frac",
              "pmmr.edge_frac", "trace.spans")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "PROXI_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def end_to_end(passes, setup_times) -> dict[str, tuple[float, str]]:
    ops = [op for p in passes for op in p.ops]
    seconds = [op.seconds for op in ops]
    attempted = len(ops)
    failed = sum(p.failed for p in passes)
    pass_time = sum(p.wall for p in passes)
    metrics = {
        "setup_s": (median(setup_times), "s"),
        # Every pass does the same work on a fresh draw, so the mean uses
        # all of them; the median of three to five would keep only one or
        # two.
        "wall_s": (pass_time / len(passes), "s"),
        "ops_per_s": ((attempted - failed) / pass_time, "1/s"),
        "op_s.p50": (harrell_davis(seconds, 0.5), "s"),
        "op_s.p90": (harrell_davis(seconds, 0.9), "s"),
    }
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kib / 1024, "MB")
    metrics["ok_frac"] = (1 - failed / attempted, "ratio")
    return metrics


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile: the mean of all order
    statistics, weighted by a Beta((n+1)q, (n+1)(1-q)) distribution.

    A run holds three to five operations of each kind, so a percentile over
    them is in effect one kind's median of a few samples. Weighting the
    neighbouring order statistics too makes the estimate vary less from run
    to run than a single order statistic does."""
    x = np.sort(values)
    n = len(x)
    # The Beta CDF; scipy.special is loaded by proxilearn already, whereas
    # scipy.stats would add some 30 MB to peak_rss_mb.
    cdf = scipy.special.betainc((n + 1) * q, (n + 1) * (1 - q),
                                np.arange(n + 1) / n)
    return float(np.diff(cdf) @ x)


def per_layer(passes, setup) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: a timing is the median over traced passes of its
    per-pass value (set-up spans: the median over set-up repetitions); the
    ``FIRST_PASS`` values and c-MAE come from the first input alone."""
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    rows = [pass_layer_values(p, self_times(p.spans)) for p in traced]
    metrics = {
        "synthdata.gen_main.s": (setup["span_s"]["synthdata.gen_main"], "s"),
        "synthdata.true_ate.s": (setup["span_s"]["synthdata.true_ate"], "s"),
    }
    for name, (first, unit) in rows[0].items():
        metrics[name] = (first if name in FIRST_PASS
                         else median([r[name][0] for r in rows]), unit)
    traced_wall = median([p.wall for p in traced])
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (
        traced_wall - median([p.wall for p in untraced]), "s")
    metrics.update(fit_seconds(untraced))
    metrics.update(cmae_means(passes[0]))
    return metrics


def fit_seconds(passes) -> dict[str, tuple[float, str]]:
    """Median op time per method; on cli-fixed, of its ``fit`` command."""
    ops = [op for p in passes for op in p.ops
           if op.name in ("evaluation.fit_method", "cli.fit")]
    return {f"fit_s.{method}": (median([op.seconds for op in ops
                                         if op.method == method]), "s")
            for method in ("kpv", "pmmr", "ridge-w")}


def cmae_means(first) -> dict[str, tuple[float, str]]:
    """Mean c-MAE per method over the curves of the first pass, so that
    the value depends on the seed only."""
    out = {}
    for method in ("kpv", "pmmr", "ridge-w"):
        values = first.cmae.get(method, ())
        out[f"cmae.{method}"] = (sum(values) / len(values)
                                 if values else 0.0, "mae")
    return out


def pass_layer_values(p, own: dict[int, float]) -> dict[str, tuple]:
    """Per-layer values of one traced pass."""
    by_id = {s.id: s for s in p.spans}
    total = defaultdict(float)
    calls = defaultdict(int)
    attrs = defaultdict(float)
    for s in p.spans:
        key = (f"{s.name}.{s.attrs['method']}" if s.name ==
               "evaluation.fit_method" else s.name)
        total[key] += s.seconds
        calls[key] += 1
        for k, v in s.attrs.items():
            if isinstance(v, (int, float)):
                attrs[f"{s.name}.{k}"] += v
    layer_self = defaultdict(float)
    command_self = defaultdict(float)
    for sid, seconds in own.items():
        name = by_id[sid].name
        layer_self[name.split(".")[0]] += seconds
        command_self[name] += seconds

    def under(span_id, name):
        while span_id is not None:
            span = by_id[span_id]
            if span.name == name:
                return True
            span_id = span.parent
        return False

    searches = calls["pmmr.pmmr_validation_scores"]
    search_factorizations = sum(
        under(parent, "pmmr.pmmr_validation_scores")
        for _, parent in p.marks)

    def frac(edges, picks):
        return attrs[edges] / attrs[picks] if attrs[picks] else 0.0

    v = {
        "kernels.median_heuristic.s": (total["kernels.median_heuristic"], "s"),
        "kernels.gram.s": (total["kernels.gram"], "s"),
        "kernels.gram.calls": (calls["kernels.gram"], "count"),
        "kernels.gram.mbytes": (attrs["kernels.gram.mbytes"], "MB"),
        "numerics.psd_factor.s": (total["numerics.psd_factor"], "s"),
        "numerics.psd_factor.calls": (calls["numerics.psd_factor"], "count"),
        "numerics.nystrom.s": (total["numerics.nystrom"], "s"),
        "linalg.factorizations": (len(p.marks), "count"),
        "kpv.stage1_loo_scores.s": (total["kpv.stage1_loo_scores"], "s"),
        "kpv.stage2_loo_scores.s": (total["kpv.stage2_loo_scores"], "s"),
        "kpv.stage1_fit.s": (total["kpv.stage1_fit"], "s"),
        "kpv.kpv_fit.s": (total["kpv.kpv_fit"], "s"),
        "kpv.kpv_ate.s": (total["kpv.kpv_ate"], "s"),
        "kpv.edge_frac": (frac("kpv.kpv_select_lambdas.edges",
                               "kpv.kpv_select_lambdas.picks"), "ratio"),
        "pmmr.pmmr_validation_scores.s": (
            total["pmmr.pmmr_validation_scores"], "s"),
        "pmmr.factorizations_per_search": (
            search_factorizations / searches if searches else 0.0, "count"),
        "pmmr.pmmr_fit.s": (total["pmmr.pmmr_fit"], "s"),
        "pmmr.pmmr_fit_nystrom.s": (total["pmmr.pmmr_fit_nystrom"], "s"),
        "pmmr.pmmr_ate.s": (total["pmmr.pmmr_ate"], "s"),
        "pmmr.edge_frac": (frac("pmmr.pmmr_select_lambda.edges",
                                "pmmr.pmmr_select_lambda.picks"), "ratio"),
        "baselines.ridge_loo_scores.s": (total["baselines.ridge_loo_scores"],
                                         "s"),
        "baselines.kernel_ridge_fit.s": (total["baselines.kernel_ridge_fit"],
                                         "s"),
        "baselines.adjusted_ate.s": (total["baselines.adjusted_ate"], "s"),
        "data.from_csv.s": (total["data.from_csv"], "s"),
        "data.to_csv.s": (total["data.to_csv"], "s"),
        "cli.fit.self_s": (command_self["cli.fit"], "s"),
        "cli.ate.self_s": (command_self["cli.ate"], "s"),
        "cli.artifact_mb": (p.artifact_bytes / 1e6, "MB"),
        "trace.spans": (len(p.spans), "count"),
    }
    for method in ("kpv", "pmmr", "ridge-w"):
        v[f"evaluation.fit_method.{method}.s"] = (
            total[f"evaluation.fit_method.{method}"], "s")
    for layer in (*LAYERS, "bench"):
        v[f"{layer}.self_s"] = (layer_self[layer], "s")
    # Time outside every proxilearn span is bench.self_s, not in this sum.
    v["trace.self_sum_s"] = (sum(layer_self[layer] for layer in LAYERS), "s")
    return v


def environment(args, passes) -> dict:
    from proxilearn import evaluation

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ.get(k) for k in THREAD_VARS}
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": threads,
        "default_threads": not any(threads.values()),
        "run_table_max_workers": evaluation.max_workers(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pass_walls": [round(p.wall, 4) for p in passes],
        "exact_counts": list(EXACT_COUNTS),
    }


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the package sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "proxilearn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def write_spans(args, passes) -> Path:
    path = OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for index, p in enumerate(q for q in passes if q.traced):
            for s in p.spans:
                fh.write(json.dumps({"pass": index, **s.as_dict()}) + "\n")
    return path


def measure(args, sizes=None) -> tuple[dict, list[str], dict]:
    """Run one benchmark; returns the environment record, the report lines
    and the result object."""
    sizes = sizes or workloads.DEFAULT
    setup_times, setup = workloads.run_setup(args.workload, sizes.setup_reps)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        ctx = workloads.Context(args.workload, args.seed, sizes, setup,
                                workdir)
        passes = workloads.run_passes(ctx, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir)
    env = environment(args, passes)
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(p.failed for p in passes)
    checks = [c for p in passes for c in p.checks]
    lines = [f"check {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip()
             for name, ok, detail in dict.fromkeys(checks)]
    if args.trace:
        metrics = per_layer(passes, setup)
        lines.append(f"spans written to {write_spans(args, passes)}")
        covered = metrics["trace.self_sum_s"][0] / metrics["trace.wall_s"][0]
        lines.append(f"layer self times cover {covered:.2%} of trace.wall_s")
    else:
        metrics = end_to_end(passes, setup_times)
        lines.append(f"samples: {attempted} ops in {len(passes)} passes, "
                     f"{len(setup_times)} set-ups")
        # Reported here, bounded nowhere: see perfbench/README.md.
        lines.append(f"record fail_frac = {failed / attempted:.6g} ratio")
        records = {**fit_seconds(passes), **cmae_means(passes[0])}
        for name, (value, unit) in records.items():
            lines.append(f"record {name} = {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        lines.append(f"metric {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0 and all(ok for _, ok, _ in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return env, lines, result


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "proxilearn" / "__init__.py").is_file():
        print(f"perfbench: no proxilearn sources under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    import proxilearn

    if Path(proxilearn.__file__).resolve().parent != SRC / "proxilearn":
        print(f"perfbench: imported proxilearn from {proxilearn.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    env, lines, result = measure(args)
    print("env " + json.dumps(env))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
