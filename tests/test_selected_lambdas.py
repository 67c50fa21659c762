"""Ridges on the benchmark's n = 2000 draws stay where they were.

PMMR and the ridge baselines select their ridge by a search. The expected
grid positions were recorded with the searches built on ``np.linalg.eigh``
and general matrix products (plain ridge's with the in-place eigensolve of
the whole Gram). The in-place eigensolves and the PMMR reduction move the
scores by round-off, and the ridge searches' low-rank factor, its pivots
floored at the grid's resolution, by at most 5.1e-9 (relative), so every
fit must still select the same value, as ``evaluation.fit_method``
calls it (split seed = data seed). KPV fits at its fixed ridges, the values
its former leave-one-out search picked on every one of these draws.
"""

import pytest

from proxilearn import baselines, kpv, pmmr, synthdata
from proxilearn.kernels import KernelSpecs

# data seed -> (index into pmmr.DEFAULT_LAMBDA_GRID,
#               index into baselines.DEFAULT_RIDGE_GRID for ridge,
#               the same for ridge-w)
EXPECTED = {
    0: (36, 2, 7), 1000: (0, 0, 8), 2000: (49, 4, 8), 3000: (41, 1, 8),
    4000: (32, 0, 8), 5000: (49, 0, 8), 6000: (45, 0, 7), 7000: (39, 2, 7),
    8000: (49, 1, 7), 9000: (49, 1, 8),
}


@pytest.mark.slow
@pytest.mark.parametrize("seed", sorted(EXPECTED))
def test_fits_select_recorded_ridges(seed):
    data = synthdata.gen_main(2000, seed=seed).data
    specs = KernelSpecs.from_data(data)
    pmmr_index, ridge_index, ridge_w_index = EXPECTED[seed]

    model = kpv.fit_kpv(data, specs, split_seed=seed)
    assert model.stage1.lam1 == kpv.DEFAULT_LAMBDA1
    assert model.lam2 == kpv.DEFAULT_LAMBDA2

    model = pmmr.fit_pmmr(data, specs, split_seed=seed)
    assert model.lam == pmmr.DEFAULT_LAMBDA_GRID[pmmr_index]

    model = baselines.fit_ridge_baseline(data, "", specs=specs)
    assert model.lam == baselines.DEFAULT_RIDGE_GRID[ridge_index]
    # Index 0 is the grid's smallest ridge: an edge pick.
    assert model.search.edge == (ridge_index == 0)

    model = baselines.fit_ridge_baseline(data, "w", specs=specs)
    assert model.lam == baselines.DEFAULT_RIDGE_GRID[ridge_w_index]
