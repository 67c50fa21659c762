"""Set-up step of one benchmark run, in a fresh interpreter so that its
imports are timed too: the treatment grid (a 1M-row draw) and the
Monte-Carlo oracle on the grid the workload scores against.

Usage: python3 perfbench/setup_probe.py <workload>
Prints one JSON line with the computed values and the time spent in
``synthdata.gen_main`` and ``synthdata.true_ate``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main(workload: str) -> dict:
    import numpy as np

    from proxilearn import evaluation, synthdata
    from spans import Tracer, instrument
    from workloads import CLI_GRID_POINTS

    tracer = Tracer()
    patches = instrument(tracer)
    try:
        a_grid = evaluation.default_a_grid()
        out = {"a_grid": a_grid.tolist()}
        if workload == "cli-fixed":
            grid50 = np.linspace(a_grid[0], a_grid[-1], CLI_GRID_POINTS)
            out["grid50"] = grid50.tolist()
            out["truth50"] = synthdata.true_ate(
                grid50, evaluation.ORACLE_MC_SAMPLES,
                seed=evaluation.ORACLE_SEED).estimate.tolist()
        else:
            out["truth"] = synthdata.true_ate(
                a_grid, evaluation.ORACLE_MC_SAMPLES,
                seed=evaluation.ORACLE_SEED).estimate.tolist()
    finally:
        patches.restore()
    spans, _ = tracer.drain()
    out["span_s"] = {name: sum(s.seconds for s in spans if s.name == name)
                     for name in ("synthdata.gen_main", "synthdata.true_ate")}
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1])))
