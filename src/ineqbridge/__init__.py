"""Inequality index family bridging the Hoover index and the Gini coefficient.

Public surface: special functions, deterministic quadrature, the gamma /
discrete / gamma-sum distribution layer, population index values, sample
estimators, analytic estimator bias under gamma populations, and a
reproducible Monte Carlo harness.
"""

from .bias_analysis import (
    BiasQuery,
    TiltingCheck,
    bias,
    expected_i_hat,
    tilting_lemma_check,
)
from .distributions import (
    DiscreteDist,
    GammaParams,
    GHypoParams,
    gamma_sample,
    ghypo_cdf,
)
from .estimators import (
    SummaryStats,
    g_hat,
    h_hat,
    i_hat,
    i_hat_fast,
    summarize,
)
from .index_core import (
    discrete_index,
    gamma_gini,
    gamma_hoover,
    gamma_index,
    integral_index,
    j_index,
    lambda_path,
)
from .mc_harness import (
    ScenarioFailure,
    SimConfig,
    SimSummary,
    compare_i_vs_j,
    format_table,
    run_grid,
    run_scenario,
    write_csv,
)
from .quadrature import QuadratureError, QuadResult, integrate_finite, integrate_semi_infinite
from .specfun import log_humbert_phi2, reg_gamma_q

__version__ = "0.1.0"

__all__ = [
    "BiasQuery", "TiltingCheck", "bias", "expected_i_hat",
    "tilting_lemma_check",
    "DiscreteDist", "GammaParams", "GHypoParams", "gamma_sample",
    "ghypo_cdf",
    "SummaryStats", "g_hat", "h_hat", "i_hat", "i_hat_fast", "summarize",
    "discrete_index", "gamma_gini", "gamma_hoover", "gamma_index",
    "integral_index", "j_index", "lambda_path",
    "ScenarioFailure", "SimConfig", "SimSummary", "compare_i_vs_j",
    "format_table", "run_grid", "run_scenario", "write_csv",
    "QuadratureError", "QuadResult", "integrate_finite", "integrate_semi_infinite",
    "log_humbert_phi2", "reg_gamma_q",
]
