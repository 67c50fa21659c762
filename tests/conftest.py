import numpy as np
import pytest

from proxilearn import evaluation, synthdata


@pytest.fixture(scope="session")
def a_grid():
    return evaluation.default_a_grid()


@pytest.fixture(scope="session")
def frozen_truth(a_grid):
    return synthdata.true_ate(a_grid, evaluation.ORACLE_MC_SAMPLES,
                              seed=evaluation.ORACLE_SEED)


@pytest.fixture(scope="session")
def table500(a_grid, frozen_truth):
    """20-seed comparison at n=500 shared by acceptance and invariants."""
    return evaluation.run_table(500, n_seeds=20,
                                methods=("kpv", "pmmr", "ridge", "ridge-w"),
                                a_grid=a_grid, truth=frozen_truth)


@pytest.fixture(scope="session")
def table1000(a_grid, frozen_truth):
    return evaluation.run_table(1000, n_seeds=20,
                                methods=("kpv", "pmmr", "ridge", "ridge-w"),
                                a_grid=a_grid, truth=frozen_truth)


@pytest.fixture(scope="session")
def table200(a_grid, frozen_truth):
    return evaluation.run_table(200, n_seeds=20, methods=("pmmr",),
                                a_grid=a_grid, truth=frozen_truth)


def rng_dataset(seed, n, dz=2, dw=2, dx=0):
    """Small random dataset for oracle tests."""
    from proxilearn.data import Dataset

    rng = np.random.default_rng(seed)
    return Dataset(
        a=rng.normal(size=n),
        x=rng.normal(size=(n, dx)) if dx else np.empty((n, 0)),
        z=rng.normal(size=(n, dz)),
        w=rng.normal(size=(n, dw)),
        y=rng.normal(size=n),
    )


# Reference copies of helpers the library no longer exports; the tests use
# them as oracles and check them directly.

def hadamard(g1, g2):
    """Elementwise product of two Gram matrices of identical shape (PSD
    when both are PSD over the same points, by the Schur product
    theorem)."""
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    if g1.shape != g2.shape:
        raise ValueError(f"shape mismatch: {g1.shape} vs {g2.shape}")
    return g1 * g2


def nystrom(k, rank, landmark_seed=0):
    """Nystrom factors of k/n^2 from the whole kernel matrix ``k``: its
    landmark columns handed to ``numerics.nystrom_from_columns``."""
    from proxilearn.numerics import nystrom_from_columns, nystrom_landmarks

    k = np.asarray(k, dtype=float)
    n = k.shape[0]
    if k.ndim != 2 or k.shape[1] != n:
        raise ValueError("kernel matrix must be square")
    landmarks = nystrom_landmarks(n, rank, landmark_seed)
    return nystrom_from_columns(k[:, landmarks], landmarks)
