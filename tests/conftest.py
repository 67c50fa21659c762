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
    """Nystrom features psi with psi psi' ~= k/n^2 from the whole kernel
    matrix ``k``: its landmark columns handed to
    ``numerics.nystrom_features``."""
    from proxilearn.numerics import nystrom_features, nystrom_landmarks

    k = np.asarray(k, dtype=float)
    n = k.shape[0]
    if k.ndim != 2 or k.shape[1] != n:
        raise ValueError("kernel matrix must be square")
    landmarks = nystrom_landmarks(n, rank, landmark_seed)
    return nystrom_features(k[:, landmarks], landmarks)


def kernel_ridge_predict(model, queries):
    """Predictions of a ``baselines.RidgeModel`` at ``queries``, whose
    columns are the model's groups ("a", "x", *adjust) stacked in order:
    one Gaussian over the stacked training columns with the groups'
    concatenated bandwidths."""
    from proxilearn.kernels import KernelSpec, gram

    queries = np.asarray(queries, dtype=float)
    if queries.ndim == 1:
        queries = queries[:, None]
    groups = ("a", "x", *model.adjust)
    inputs = np.column_stack([getattr(model.sample, g) for g in groups])
    spec = KernelSpec(np.concatenate(
        [getattr(model.specs, g).bandwidths for g in groups]))
    return gram(queries, inputs, spec) @ model.beta


def ridge_loo_scores(inputs, y, spec, lam_grid):
    """Closed-form leave-one-out error (1/n)||T^{-1} H y||^2 per ridge,
    with H = I - K (K + n lam I)^{-1} and T = diag(H): the scores the
    searched ``baselines.fit_ridge_baseline`` minimizes."""
    from proxilearn.kernels import gram
    from proxilearn.numerics import eigh_in_place, loo_path, ridge_grid

    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim == 1:
        inputs = inputs[:, None]
    y = np.asarray(y, dtype=float).ravel()
    lam_grid = ridge_grid(lam_grid)
    eigvals, eigvecs = eigh_in_place(gram(inputs, inputs, spec))
    return loo_path(eigvals, eigvecs, y, lam_grid)
