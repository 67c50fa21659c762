"""Synthetic structural-equation generators and ground-truth effects.

The main generator draws from a nonlinear confounded model with a
two-dimensional hidden confounder U and two-dimensional proxies:

    U2 ~ Uniform[-1, 2]
    U1 ~ Uniform[0, 1] - 1[0 <= U2 <= 1]
    W  = [U1 + Uniform[-1, 1],  U2 + Normal(0, 3)]
    Z  = [U1 + Normal(0, 3),    U2 + Uniform[-1, 1]]
    A  = U2 + Normal(0, 0.05)
    Y  = U2 * cos(2 (A + 0.3 U1 + 0.2))

Neither proxy alone determines U, but jointly they do, which is the
regime the bridge-function estimators target. The covariate set X is
null.

The outcome separates in the treatment: with t = 2 (0.3 U1 + 0.2),
cos(2a + t) = cos 2a cos t - sin 2a sin t, so

    E[Y | do(A=a)] = cos(2a) E[U2 cos t] - sin(2a) E[U2 sin t].

``true_ate`` takes the two moments from one pass over M confounder
draws and evaluates the identity on the grid: O(M + G) for G grid
points. A custom ``outcome`` is averaged per grid point, O(M G).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .data import Dataset, DoCurve
from .numerics import matmul

NOISE_VAR = 3.0
TREATMENT_NOISE_VAR = 0.05


def _draw_confounder(rng: np.random.Generator, n: int):
    u2 = rng.uniform(-1.0, 2.0, size=n)
    u1 = rng.uniform(0.0, 1.0, size=n) - ((u2 >= 0.0) & (u2 <= 1.0))
    return u1, u2


def _outcome(a, u1, u2):
    return u2 * np.cos(2.0 * (a + 0.3 * u1 + 0.2))


@dataclass(frozen=True)
class SyntheticDraw:
    """One seeded draw of the synthetic model, hidden confounder included."""

    data: Dataset
    u: np.ndarray


def gen_main(n: int, seed: int = 0) -> SyntheticDraw:
    """Sample n rows of the main synthetic model, deterministically."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    u1, u2 = _draw_confounder(rng, n)
    w = np.column_stack([
        u1 + rng.uniform(-1.0, 1.0, size=n),
        u2 + rng.normal(0.0, np.sqrt(NOISE_VAR), size=n),
    ])
    z = np.column_stack([
        u1 + rng.normal(0.0, np.sqrt(NOISE_VAR), size=n),
        u2 + rng.uniform(-1.0, 1.0, size=n),
    ])
    a = u2 + rng.normal(0.0, np.sqrt(TREATMENT_NOISE_VAR), size=n)
    y = _outcome(a, u1, u2)
    data = Dataset(a=a, x=np.empty((n, 0)), z=z, w=w, y=y)
    return SyntheticDraw(data=data, u=np.column_stack([u1, u2]))


def true_ate(a_grid, mc_samples: int = 1_000_000, seed: int = 0,
             outcome=None) -> DoCurve:
    """Monte-Carlo ground truth E[Y | do(A=a)] for the main model.

    Pins the treatment at each grid value and averages the outcome
    equation over fresh confounder draws; deterministic given
    (grid, mc_samples, seed). For the default outcome the average is
    cos(2a) c - sin(2a) s, where c and s are the sample means of
    U2 cos t and U2 sin t with t = 2 (0.3 U1 + 0.2): one pass over the
    draws and O(1) per grid point, O(M + G) in all. ``outcome`` may
    replace the default outcome equation with another map
    (a, u1, u2) -> y; it is averaged over the draws at every grid
    point, O(M G).
    """
    if mc_samples < 1:
        raise ValueError("mc_samples must be at least 1")
    a_grid = np.asarray(a_grid, dtype=float).ravel()
    rng = np.random.default_rng(seed)
    u1, u2 = _draw_confounder(rng, mc_samples)
    if outcome is None:
        t = 2.0 * (0.3 * u1 + 0.2)
        c, s = np.mean(u2 * np.cos(t)), np.mean(u2 * np.sin(t))
        truth = np.cos(2.0 * a_grid) * c - np.sin(2.0 * a_grid) * s
    else:
        truth = np.array([np.mean(outcome(a, u1, u2)) for a in a_grid])
    return DoCurve(grid=a_grid, estimate=truth, truth=truth)


@dataclass(frozen=True)
class DiscreteToy:
    """Finite-state confounded model with its exactly solved bridge.

    ``h_star[k, j]`` is the bridge value at treatment level k and W level
    j; ``truth[k]`` the enumerated interventional mean at level k.
    """

    data: Dataset
    a_levels: np.ndarray
    w_levels: np.ndarray
    z_levels: np.ndarray
    h_star: np.ndarray
    truth: np.ndarray
    p_w: np.ndarray
    p_w_given_az: np.ndarray
    ey_given_az: np.ndarray

    def h_star_at(self, a_query, w_query) -> np.ndarray:
        """Exact bridge evaluated at (a, w) pairs on the support."""
        a_idx = _level_index(a_query, self.a_levels)
        w_idx = _level_index(w_query, self.w_levels)
        return self.h_star[a_idx, w_idx]

    def truth_curve(self) -> DoCurve:
        return DoCurve(grid=self.a_levels, estimate=self.truth,
                       truth=self.truth)


def _level_index(values, levels) -> np.ndarray:
    values = np.asarray(values, dtype=float).ravel()
    idx = np.argmin(np.abs(values[:, None] - levels[None, :]), axis=1)
    if not np.allclose(values, levels[idx]):
        raise ValueError("query values are off the discrete support")
    return idx


# The discrete toy's fixed tables. The proxies are sharp enough that every
# conditional matrix of the identification is well invertible:
# det p(w | a, z) is 0.56 and 0.50 over the two treatment levels, and
# det p(u | a, z) 0.70 and 0.63.
_P_U = np.array([0.45, 0.55])
_P_Z_GIVEN_U = np.array([[0.90, 0.10],
                         [0.10, 0.90]])
_P_W_GIVEN_U = np.array([[0.90, 0.10],
                         [0.10, 0.90]])
_P_A_GIVEN_U = np.array([[0.80, 0.20],
                         [0.20, 0.80]])
_Y_TABLE = np.array([[1.00, -0.50],
                     [-0.20, 0.80]])
# Wide level spacing keeps the Gaussian kernel contrast between levels
# high under the fallback unit bandwidth.
_A_LEVELS = np.array([0.0, 3.0])
_Z_LEVELS = np.array([0.0, 3.0])
_W_LEVELS = np.array([0.0, 3.0])


def gen_discrete_toy(n: int, seed: int = 0) -> DiscreteToy:
    """Sample the finite SEM and solve its bridge equation exactly.

    The hidden confounder, both proxies and the treatment each take two
    values; W and Z are conditionally independent of everything else
    given U, and Y is a deterministic table of (A, U). The bridge is the
    solution of E[Y | a, z] = sum_w h(a, w) p(w | a, z) per treatment
    level, and the enumerated interventional mean is sum_u p(u) y(a, u).
    The tables are the fixed ``_P_*`` and ``_Y_TABLE`` above; only the
    sample size and the seed vary.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    h_star = np.empty((2, 2))
    p_w_given_az = np.empty((2, 2, 2))
    ey_given_az = np.empty((2, 2))
    for k in range(2):
        # p(u | a, z) over columns u, rows z
        joint_uz = _P_U[None, :] * _P_A_GIVEN_U[k][None, :] * _P_Z_GIVEN_U
        p_u_given_az = joint_uz / joint_uz.sum(axis=1, keepdims=True)
        p_w_given_az[k] = matmul(p_u_given_az, _P_W_GIVEN_U.T)  # z x w
        ey_given_az[k] = matmul(p_u_given_az, _Y_TABLE[k])
        h_star[k] = scipy.linalg.solve(p_w_given_az[k], ey_given_az[k])

    rng = np.random.default_rng(seed)
    u_idx = rng.choice(2, size=n, p=_P_U)
    z_idx = np.array([rng.choice(2, p=_P_Z_GIVEN_U[:, u]) for u in u_idx])
    w_idx = np.array([rng.choice(2, p=_P_W_GIVEN_U[:, u]) for u in u_idx])
    a_idx = np.array([rng.choice(2, p=_P_A_GIVEN_U[:, u]) for u in u_idx])
    data = Dataset(a=_A_LEVELS[a_idx], x=np.empty((n, 0)),
                   z=_Z_LEVELS[z_idx], w=_W_LEVELS[w_idx],
                   y=_Y_TABLE[a_idx, u_idx])
    return DiscreteToy(data=data, a_levels=_A_LEVELS, w_levels=_W_LEVELS,
                       z_levels=_Z_LEVELS, h_star=h_star,
                       truth=matmul(_Y_TABLE, _P_U),
                       p_w=matmul(_P_W_GIVEN_U, _P_U),
                       p_w_given_az=p_w_given_az, ey_given_az=ey_given_az)
