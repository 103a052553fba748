"""Robust offline model-based policy optimization against a constrained
adversarial world model, with low-rank curvature-corrected leader updates."""

from .dynamics import (DynamicsState, DynamicsTrace, LearningRates,
                       SmoothGame, run_dynamics, step)
from .mdp import (ContinuousMdp, NoisyDeployment, TabularMdp, dp_values,
                  exact_return, sample_tabular_batch, sample_trajectory)
from .models import (CategoricalWorldModel, DiagGaussianPolicy,
                     DiagGaussianWorldModel, OfflineDataset, SoftmaxPolicy,
                     SupportError, mle_fit, rollout_dataset,
                     sample_offline_dataset)
from .trainer import (LinearCritic, ReplayBuffer, TabularCritic,
                      TrainerConfig, TrainingTrace, TrainState,
                      collect_rollouts, episode_returns, initial_state,
                      load_checkpoint, robust_evaluate, save_checkpoint,
                      train, train_critic, train_iteration,
                      worst_case_return, zero_players)
from .uncertainty import (CoverageReport, coverage_check, epsilon_tabular,
                          kl_to_anchor)
from .woodbury import (IllConditionedError, LowRankFactors,
                       SingularScalarError, WoodburySolver, leader_gradient)

__version__ = "0.1.0"

__all__ = [
    "CategoricalWorldModel", "ContinuousMdp", "CoverageReport",
    "DiagGaussianPolicy", "DiagGaussianWorldModel", "DynamicsState",
    "DynamicsTrace", "IllConditionedError", "LearningRates", "LinearCritic",
    "LowRankFactors", "NoisyDeployment", "OfflineDataset", "ReplayBuffer",
    "SingularScalarError", "SmoothGame", "SoftmaxPolicy", "SupportError",
    "TabularCritic", "TabularMdp", "TrainState", "TrainerConfig",
    "TrainingTrace", "WoodburySolver", "collect_rollouts", "coverage_check",
    "dp_values", "episode_returns", "epsilon_tabular",
    "exact_return", "initial_state", "kl_to_anchor", "leader_gradient",
    "load_checkpoint", "mle_fit", "robust_evaluate", "rollout_dataset",
    "run_dynamics", "sample_offline_dataset", "sample_tabular_batch",
    "sample_trajectory", "save_checkpoint", "step", "train", "train_critic",
    "train_iteration", "worst_case_return", "zero_players",
]
