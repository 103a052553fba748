"""Shared fixtures: frozen testbeds, datasets, and a scripted generator."""

import numpy as np
import pytest

from stackmbrl.mdp import TabularMdp
from stackmbrl.models import CategoricalWorldModel, mle_fit, sample_offline_dataset
from stackmbrl.testbeds import (TABULAR_TESTBEDS, gradient_testbed,
                                small_testbed, sparse_reward_testbed)

from reference_oracles import enumerated_expectations


@pytest.fixture(scope="session")
def grad_triple():
    """(mdp, policy, model) with dense generic tables; session-frozen."""
    return gradient_testbed()


@pytest.fixture(scope="session")
def small_triple():
    return small_testbed()


@pytest.fixture(scope="session")
def sparse_triple():
    return sparse_reward_testbed()


@pytest.fixture(scope="session")
def enumerated_testbeds():
    """{name: ((mdp, policy, model), enumerated expectations, total path
    probability)} for every bundled tabular testbed: the enumeration
    reference, computed once per session."""
    out = {}
    for name, build in TABULAR_TESTBEDS.items():
        triple = build()
        out[name] = (triple,) + enumerated_expectations(*triple)
    return out


@pytest.fixture(scope="session")
def grad_dataset(grad_triple):
    """Offline dataset + smoothed MLE anchor on the dense testbed."""
    mdp, _, _ = grad_triple
    dataset = sample_offline_dataset(mdp, "uniform", n=300, seed=0)
    anchor = mle_fit(dataset, CategoricalWorldModel.uniform(mdp), alpha=0.5)
    return dataset, anchor


@pytest.fixture(scope="session")
def small_dataset(small_triple):
    mdp, _, _ = small_triple
    dataset = sample_offline_dataset(mdp, "uniform", n=200, seed=3)
    anchor = mle_fit(dataset, CategoricalWorldModel.uniform(mdp), alpha=0.5)
    return dataset, anchor


def dirichlet_mdp(seed: int, num_states: int, num_actions: int = 3,
                  num_rewards: int = 2, horizon: int = 10) -> TabularMdp:
    """Dense random MDP with flat-Dirichlet tables drawn from ``seed``; its
    world model has K = num_rewards * num_states outcomes per cell."""
    rng = np.random.default_rng(seed)
    shape = (num_states, num_actions)
    return TabularMdp(
        transition=rng.dirichlet(np.ones(num_states), size=shape),
        reward_values=np.linspace(0.0, 1.0, num_rewards),
        reward_probs=rng.dirichlet(np.ones(num_rewards), size=shape),
        init_dist=rng.dirichlet(np.ones(num_states)),
        gamma=0.95, horizon=horizon)


class ScriptedRng:
    """Deterministic stand-in for a Generator: replays queued draws.

    ``integers`` pops one queued index array per call; ``random`` pops one
    queued array of uniforms per call. ``uniform_for`` scripts a categorical
    outcome: enumeration tests pick each outcome and weight it themselves.
    """

    def __init__(self, integer_queue=(), uniform_queue=()):
        self._integers = [np.asarray(q, dtype=np.int64) for q in integer_queue]
        self._uniforms = [np.asarray(q, dtype=float) for q in uniform_queue]

    def integers(self, low, high=None, size=None):
        out = self._integers.pop(0)
        if size is not None and out.shape != ((size,) if np.isscalar(size) else tuple(size)):
            raise AssertionError(f"scripted integers shape {out.shape} != {size}")
        return out

    def random(self, size=None):
        out = self._uniforms.pop(0)
        if size is not None and out.shape != (size,):
            raise AssertionError(f"scripted uniforms shape {out.shape} != {size}")
        return out


def uniform_for(probs: np.ndarray, k: int) -> float:
    """A uniform that an inverse-CDF draw from ``probs`` maps to outcome
    ``k`` (which must have positive probability): the midpoint of its
    interval of the normalised CDF."""
    cdf = np.cumsum(probs) / np.sum(probs)
    lower = cdf[k - 1] if k else 0.0
    return 0.5 * (lower + cdf[k])
