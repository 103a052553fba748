"""Seeded synthetic tabular MDPs for sizes the bundled testbeds do not reach.

The bundled tabular testbeds stop at n_phi = 144 model parameters. A
categorical world model over S states, A actions and R reward values has
K = R * S joint outcomes per cell and n_phi = S * A * K = R * A * S**2
parameters, so S = 40, A = 3, R = 2 gives n_phi = 9,600.
"""

from __future__ import annotations

import numpy as np

from stackmbrl import TabularMdp


def synthetic_mdp(seed: int, num_states: int, num_actions: int,
                  num_rewards: int, horizon: int, gamma: float = 0.95,
                  concentration: float = 1.0) -> TabularMdp:
    """Dense random MDP whose tables are Dirichlet draws from ``seed``.

    Every transition, reward and initial-state probability is positive
    almost surely, so sampling never hits a zero-probability outcome. The
    reward alphabet is evenly spaced in [0, 1].
    """
    if min(num_states, num_actions, num_rewards) < 1:
        raise ValueError("states, actions and reward values must be positive")
    rng = np.random.default_rng(seed)
    transition = rng.dirichlet(np.full(num_states, concentration),
                               size=(num_states, num_actions))
    reward_probs = rng.dirichlet(np.full(num_rewards, concentration),
                                 size=(num_states, num_actions))
    init_dist = rng.dirichlet(np.full(num_states, concentration))
    return TabularMdp(transition=transition,
                      reward_values=np.linspace(0.0, 1.0, num_rewards),
                      reward_probs=reward_probs, init_dist=init_dist,
                      gamma=gamma, horizon=horizon)
