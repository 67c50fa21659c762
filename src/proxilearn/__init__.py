"""Kernel estimators for causal effect estimation with proxy variables."""

from .data import Dataset, DoCurve, SchemaError
from .kernels import (
    KernelSpec,
    KernelSpecs,
    gram,
    group_gram,
    median_heuristic,
)
from .numerics import khatri_rao_cols, solve_psd
from .kpv import (
    KpvModel,
    Stage1Fit,
    fit_kpv,
    kpv_ate,
    kpv_fit,
    kpv_h,
    kpv_model,
    stage1_embedding,
    stage1_fit,
)
from .pmmr import (
    PmmrModel,
    fit_pmmr,
    pmmr_ate,
    pmmr_fit,
    pmmr_fit_nystrom,
    pmmr_h,
)
from .baselines import (
    Linear2sModel,
    RidgeModel,
    fit_linear2s,
)
from .synthdata import DiscreteToy, SyntheticDraw, gen_discrete_toy, gen_main, true_ate
from .evaluation import ExperimentResult, cmae, run_table

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DoCurve",
    "SchemaError",
    "KernelSpec",
    "KernelSpecs",
    "gram",
    "group_gram",
    "median_heuristic",
    "khatri_rao_cols",
    "solve_psd",
    "KpvModel",
    "Stage1Fit",
    "fit_kpv",
    "kpv_ate",
    "kpv_fit",
    "kpv_h",
    "kpv_model",
    "stage1_embedding",
    "stage1_fit",
    "PmmrModel",
    "fit_pmmr",
    "pmmr_ate",
    "pmmr_fit",
    "pmmr_fit_nystrom",
    "pmmr_h",
    "Linear2sModel",
    "RidgeModel",
    "fit_linear2s",
    "DiscreteToy",
    "SyntheticDraw",
    "gen_discrete_toy",
    "gen_main",
    "true_ate",
    "ExperimentResult",
    "cmae",
    "run_table",
    "__version__",
]
