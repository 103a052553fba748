"""Tests for the frozen environments, games, and their hand-derived rest points."""

import json
import math

import numpy as np
import pytest

from stackmbrl.mdp import ContinuousMdp, TabularMdp
from stackmbrl.models import (CategoricalWorldModel, DiagGaussianPolicy,
                              DiagGaussianWorldModel)
from stackmbrl.testbeds import (CONTINUOUS_TESTBEDS, TABULAR_TESTBEDS,
                                continuous_from_dict, coupling_game,
                                coupling_kkt, gradient_mdp, load_environment,
                                small_mdp, sparse_reward_testbed,
                                tracking_behavior_policy, tracking_mdp)
from reference_oracles import enumerate_paths
from toy_games import (bilinear_game, coupling_lse, follower_best_response,
                       matching_boundary_kkt, matching_game, matching_lse,
                       saddle_game)


# ---------------------------------------------------------------------------
# tabular instances
# ---------------------------------------------------------------------------


def test_tabular_registry_contents():
    assert set(TABULAR_TESTBEDS) == {"gradient", "small", "sparse"}
    for name, factory in TABULAR_TESTBEDS.items():
        mdp, policy, model = factory()
        assert isinstance(mdp, TabularMdp)
        assert policy.logits.shape == (mdp.num_states, mdp.num_actions)
        assert model.logits.shape == (mdp.num_states, mdp.num_actions,
                                      mdp.num_outcomes)


def test_instances_are_frozen():
    """Repeated construction gives bit-identical tables (seeded, not random)."""
    for factory in TABULAR_TESTBEDS.values():
        mdp_a, policy_a, model_a = factory()
        mdp_b, policy_b, model_b = factory()
        assert np.array_equal(mdp_a.transition, mdp_b.transition)
        assert np.array_equal(policy_a.logits, policy_b.logits)
        assert np.array_equal(model_a.logits, model_b.logits)
    assert np.array_equal(gradient_mdp().transition[0, 0], [0.5, 0.3, 0.2])
    assert np.array_equal(small_mdp().init_dist, [0.6, 0.4])


def test_gradient_and_small_shapes():
    grad = gradient_mdp()
    assert (grad.num_states, grad.num_actions, grad.horizon) == (3, 2, 3)
    small = small_mdp()
    assert (small.num_states, small.num_actions) == (2, 2)
    assert small.num_outcomes == 4


def test_models_disagree_with_environment_everywhere():
    """The seeded perturbations leave no cell where model equals truth."""
    for name in ("gradient", "small"):
        mdp, _, model = TABULAR_TESTBEDS[name]()
        truth = CategoricalWorldModel.from_mdp(mdp)
        assert np.abs(model.probs_all() - truth.probs_all()).max(axis=-1).min() > 1e-4


def test_sparse_testbed_pays_exactly_one_unit():
    """Every plausible 3-step trajectory collects total reward exactly 1.0."""
    mdp, policy, _ = sparse_reward_testbed()
    truth = CategoricalWorldModel.from_mdp(mdp)
    heavy = 0.0
    for prob, states, actions, outcomes, rewards in enumerate_paths(
            mdp, policy, truth):
        if prob > 1e-50:
            assert rewards.sum() == 1.0
            heavy += prob
    assert heavy == pytest.approx(1.0, abs=1e-9)


def test_sparse_testbed_layer_structure():
    mdp, _, _ = sparse_reward_testbed()
    assert mdp.num_states == 6
    assert np.array_equal(mdp.init_dist, [1, 0, 0, 0, 0, 0])
    # pre-terminal layer feeds the absorbing state deterministically
    assert np.array_equal(mdp.transition[3, :, 5], [1.0, 1.0])
    assert np.array_equal(mdp.transition[4, :, 5], [1.0, 1.0])
    assert np.array_equal(mdp.transition[5, :, 5], [1.0, 1.0])


# ---------------------------------------------------------------------------
# scalar games: algebraic rest-point identities
# ---------------------------------------------------------------------------


def test_coupling_kkt_satisfies_first_order_conditions():
    anchor, radius, c = 0.7, 0.16, 1.0
    game = coupling_game(anchor, radius, c)
    theta, phi, lam = coupling_kkt(anchor, radius, c)
    t, p = np.array([theta]), np.array([phi])
    assert abs(game.grad_theta(t, p)[0]) <= 1e-12
    follower = game.grad_phi_objective(t, p) + lam * game.grad_phi_gap(p)
    assert abs(follower[0]) <= 1e-12
    assert abs(game.constraint_gap(p)) <= 1e-12
    assert lam > 0.0
    assert lam == pytest.approx(c * c * (anchor - math.sqrt(radius))
                                / math.sqrt(radius))


def test_coupling_kkt_requires_interior_anchor():
    with pytest.raises(ValueError, match="sqrt"):
        coupling_kkt(anchor=0.1, radius=0.16)


def test_coupling_lse_is_corrected_stationary_point():
    """At the fixed-multiplier rest point the follower is stationary and the
    leader's total derivative through the response map vanishes."""
    anchor, lam, c = 0.7, 2.0, 1.0
    theta, phi = coupling_lse(anchor, lam, c)
    assert phi == pytest.approx(follower_best_response(theta, anchor, lam, c))
    game = coupling_game(anchor, coupling=c)
    t, p = np.array([theta]), np.array([phi])
    response_slope = -c / lam  # d phi* / d theta
    total = (game.grad_theta(t, p)[0]
             + game.grad_phi_objective(t, p)[0] * response_slope)
    assert abs(total) <= 1e-12


def test_matching_lse_rests_at_anchor():
    anchor = 0.3
    assert matching_lse(anchor) == (anchor, anchor)
    game = matching_game(anchor)
    t = p = np.array([anchor])
    assert game.grad_theta(t, p)[0] == 0.0
    follower = game.grad_phi_objective(t, p) + 2.0 * game.grad_phi_gap(p)
    assert follower[0] == 0.0


@pytest.mark.parametrize("side", [1, -1])
def test_matching_boundary_triple_is_not_a_rest_point(side):
    """The boundary triple passes the KKT checklist yet leaves the leader a
    nonzero raw gradient, which is why no convergence test targets it."""
    anchor, radius = 0.3, 0.04
    game = matching_game(anchor, radius)
    theta, phi, lam = matching_boundary_kkt(anchor, radius, side)
    t, p = np.array([theta]), np.array([phi])
    follower = game.grad_phi_objective(t, p) + lam * game.grad_phi_gap(p)
    assert abs(follower[0]) <= 1e-12
    assert abs(game.constraint_gap(p)) <= 1e-12
    assert abs(game.grad_theta(t, p)[0]) == pytest.approx(
        2.0 * math.sqrt(radius))


def test_follower_best_response_needs_positive_multiplier():
    with pytest.raises(ValueError, match="positive"):
        follower_best_response(0.2, 0.3, 0.0)


def test_unconstrained_games_rest_at_origin():
    for game in (bilinear_game(), saddle_game()):
        zero = np.array([0.0])
        assert game.grad_theta(zero, zero)[0] == 0.0
        assert game.grad_phi_objective(zero, zero)[0] == 0.0
        assert game.constraint_gap(zero) == 0.0


# ---------------------------------------------------------------------------
# tracking task
# ---------------------------------------------------------------------------


def test_tracking_defaults_and_overrides():
    env = tracking_mdp()
    assert (env.state_dim, env.action_dim) == (1, 1)
    assert (env.gamma, env.horizon) == (0.95, 8)
    assert env.name == "tracking"
    assert env.params["target"] == 1.0
    wide = tracking_mdp(peak_width=0.5, horizon=4)
    assert wide.params["peak_width"] == 0.5
    assert wide.horizon == 4
    assert wide.params["target"] == 1.0  # untouched defaults survive


def test_tracking_dynamics_shape():
    """Position moves by exactly the action; reward is the Gaussian bump."""
    env = tracking_mdp()
    mean = env.mean_fn(np.array([-0.25]), np.array([0.4]))
    assert mean[0] == pytest.approx(0.15)
    assert mean[1] == pytest.approx(math.exp(-0.5 * ((0.15 - 1.0) / 0.12) ** 2))
    at_peak = env.mean_fn(np.array([0.0]), np.array([1.0]))
    assert at_peak[1] == 1.0


def test_tracking_reward_decreases_away_from_target():
    env = tracking_mdp()
    rewards = [env.mean_fn(np.array([s]), np.array([0.0]))[1]
               for s in (1.0, 1.1, 1.3, 1.8)]
    assert all(b < a for a, b in zip(rewards, rewards[1:]))


def test_tracking_behavior_policy_is_proportional():
    env = tracking_mdp(target=2.0)
    behavior = tracking_behavior_policy(env)
    assert isinstance(behavior, DiagGaussianPolicy)
    assert np.allclose(behavior.weights, [[-0.5, 1.0]])
    assert np.allclose(behavior.log_std, np.log([0.4]))


def tracking_model_template(mdp: ContinuousMdp) -> DiagGaussianWorldModel:
    """Zero-initialized linear-Gaussian world model shaped for the task."""
    return DiagGaussianWorldModel.zeros(mdp.state_dim, mdp.action_dim)


def test_tracking_model_template_shape():
    env = tracking_mdp()
    template = tracking_model_template(env)
    assert template.weights.shape == (2, 3)
    assert np.all(template.weights == 0.0)


# ---------------------------------------------------------------------------
# registry and environment I/O
# ---------------------------------------------------------------------------


def test_continuous_from_dict_roundtrip():
    assert set(CONTINUOUS_TESTBEDS) == {"tracking"}
    env = tracking_mdp(peak_width=0.3)
    clone = continuous_from_dict(env.to_dict())
    assert isinstance(clone, ContinuousMdp)
    assert clone.params == env.params
    assert clone.horizon == env.horizon


def test_continuous_from_dict_unknown_name():
    with pytest.raises(ValueError, match="tracking"):
        continuous_from_dict({"name": "pendulum", "params": {}})


def test_continuous_from_dict_names_a_missing_name():
    with pytest.raises(ValueError) as err:
        continuous_from_dict({"kind": "continuous", "params": {}})
    assert str(err.value) == "missing key(s) name"


@pytest.mark.parametrize("params, key", [
    ({"start": [1, 2]}, "start"), ({"start_std": -1.0}, "init_std"),
    ({"target": "abc"}, "target")])
def test_continuous_environment_params_are_read_by_key(tmp_path, params,
                                                       key):
    """A tracking parameter that is not a real number is refused naming its
    key, and a start state whose mean or std does not have the state's shape,
    or whose std is negative, is refused by the MDP; each message names the
    file."""
    path = tmp_path / "env.json"
    path.write_text(json.dumps({"kind": "continuous", "name": "tracking",
                                "params": params}))
    with pytest.raises(ValueError) as err:
        load_environment(path)
    assert str(err.value).startswith(f"{path}: ") and key in str(err.value)


@pytest.mark.parametrize("init_mean, init_std", [
    (np.zeros((1, 1)), np.ones(1)), (np.zeros(1), np.ones(2)),
    (np.zeros(1), -np.ones(1)), (np.zeros(1), np.full(1, np.nan))])
def test_continuous_mdp_refuses_a_misshapen_or_negative_start(init_mean,
                                                              init_std):
    with pytest.raises(ValueError, match="init_std"):
        ContinuousMdp(state_dim=1, action_dim=1,
                      mean_fn=lambda s, a: np.concatenate([s, a], axis=-1),
                      std=np.array([0.1, 0.1]), init_mean=init_mean,
                      init_std=init_std, gamma=0.9, horizon=3)


def test_load_environment_both_kinds(tmp_path):
    tab_path = tmp_path / "env_tab.json"
    small_mdp().save(tab_path)
    loaded_tab = load_environment(tab_path)
    assert isinstance(loaded_tab, TabularMdp)
    assert np.array_equal(loaded_tab.transition, small_mdp().transition)

    cont_path = tmp_path / "env_cont.json"
    cont_path.write_text(json.dumps(tracking_mdp(start=-2.0).to_dict()))
    loaded_cont = load_environment(cont_path)
    assert isinstance(loaded_cont, ContinuousMdp)
    assert loaded_cont.params["start"] == -2.0

    bad = tmp_path / "env_bad.json"
    bad.write_text(json.dumps({"kind": "mystery"}))
    with pytest.raises(ValueError, match="mystery"):
        load_environment(bad)


def test_unnamed_continuous_mdp_refuses_to_serialize():
    env = ContinuousMdp(state_dim=1, action_dim=1,
                        mean_fn=lambda s, a: np.array([s[0], 0.0]),
                        std=np.array([0.1, 0.1]), init_mean=np.zeros(1),
                        init_std=np.ones(1), gamma=0.9, horizon=3)
    with pytest.raises(ValueError, match="named"):
        env.to_dict()
