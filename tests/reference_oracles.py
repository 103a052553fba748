"""Exact Lagrangian oracles for the tests: the constrained objective, its
model gradient and its FIM-substituted model Hessian, built from the
library's enumeration and dataset-penalty oracles.
"""

import numpy as np

from stackmbrl.estimators import dataset_kl
from stackmbrl.mdp import TabularMdp
from stackmbrl.models import CategoricalWorldModel, OfflineDataset, SoftmaxPolicy
from stackmbrl.oracles import (ExactExpectations, exact_expectations,
                               exact_penalty_terms)


def hess_j_model(exp: ExactExpectations) -> np.ndarray:
    """Exact hess_phi J = E[grad Psi grad logP^T + hess Psi]."""
    return exp.uv + exp.hess_psi


def continuation_error(exp: ExactExpectations) -> np.ndarray:
    """Part of the substitution error carried by future rewards."""
    return exp.substitution_error - exp.immediate_error


def exact_lagrangian(mdp: TabularMdp, policy: SoftmaxPolicy,
                     model: CategoricalWorldModel,
                     anchor: CategoricalWorldModel, dataset: OfflineDataset,
                     lam: float, epsilon: float) -> float:
    """L = J + lambda (E_D[KL(anchor || model)] - epsilon), both parts exact."""
    from stackmbrl.mdp import exact_return
    gap = dataset_kl(dataset, model, anchor) - epsilon
    return exact_return(mdp, policy, model) + lam * gap


def exact_grad_lagrangian_model(mdp: TabularMdp, policy: SoftmaxPolicy,
                                model: CategoricalWorldModel,
                                anchor: CategoricalWorldModel,
                                dataset: OfflineDataset, lam: float) -> np.ndarray:
    """Exact grad_phi L = grad_phi J - lambda E_{anchor o D}[score]."""
    exp = exact_expectations(mdp, policy, model)
    pen = exact_penalty_terms(dataset, model, anchor)
    return exp.grad_model - lam * pen.score_mean


def exact_constrained_hessian(mdp: TabularMdp, policy: SoftmaxPolicy,
                              model: CategoricalWorldModel,
                              anchor: CategoricalWorldModel,
                              dataset: OfflineDataset, lam: float) -> np.ndarray:
    """FIM-substituted hess_phi L: the exact target of UV^T - XY^T + ZZ^T."""
    exp = exact_expectations(mdp, policy, model)
    pen = exact_penalty_terms(dataset, model, anchor)
    return exp.fim_hess_j + lam * pen.fim_mean
