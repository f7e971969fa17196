"""Population-based bandit hyperparameter optimization over mixed spaces."""

from .space import (
    CategoricalParam,
    Config,
    ContinuousParam,
    Dataset,
    SearchSpace,
    filter_by_category,
    normalize_rewards,
    validate_config,
)
from .bandit import BanditState, CapResult, new_bandit, select_batch, update
from .gp import GPHyperparams, GPModel, fit, grad_log_marginal, log_marginal
from .acquisition import AcquisitionConfig, beta, select_batch_continuous
from .strategies import StrategyKind, exploit_truncation
from .harness import (
    RunRecord,
    SyntheticObjective,
    bandit_sim,
    changepoint_objective,
    run_experiment,
    sincos_objective,
    sincos_space,
)

__all__ = [
    "AcquisitionConfig",
    "BanditState",
    "CapResult",
    "CategoricalParam",
    "Config",
    "ContinuousParam",
    "Dataset",
    "GPHyperparams",
    "GPModel",
    "RunRecord",
    "SearchSpace",
    "StrategyKind",
    "SyntheticObjective",
    "bandit_sim",
    "beta",
    "changepoint_objective",
    "exploit_truncation",
    "filter_by_category",
    "fit",
    "grad_log_marginal",
    "log_marginal",
    "new_bandit",
    "normalize_rewards",
    "run_experiment",
    "select_batch",
    "select_batch_continuous",
    "sincos_objective",
    "sincos_space",
    "update",
    "validate_config",
]

__version__ = "0.1.0"
