"""Parametric families: log-probabilities, scores, MLE fits, divergences."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from stackmbrl.estimators import (dataset_dual_coupling, dataset_kl,
                                  penalty_curvature)
from stackmbrl.mdp import ContinuousMdp, read_json_object
from stackmbrl.models import (LOGIT_FLOOR, VAR_FLOOR, CategoricalWorldModel,
                              DiagGaussianPolicy, DiagGaussianWorldModel,
                              OfflineDataset, ParamVector, SoftmaxPolicy,
                              SupportError, categorical_kl, from_saved,
                              gaussian_kl, mle_fit, rollout_dataset,
                              sample_offline_dataset)
from stackmbrl.testbeds import (gradient_mdp, small_mdp, sparse_reward_testbed,
                                tracking_behavior_policy, tracking_mdp)
from conftest import dirichlet_mdp

KL_EXAMPLE = 0.14384103622589042  # KL((.5,.5) || (.25,.75)) by hand


# ---------------------------------------------------------------------------
# log-probabilities
# ---------------------------------------------------------------------------


def test_uniform_categorical_log_prob():
    mdp = small_mdp()
    model = CategoricalWorldModel.uniform(mdp)
    assert model.num_outcomes == 4
    for s in range(2):
        for a in range(2):
            for k in range(4):
                assert model.log_prob(s, a, k) == pytest.approx(np.log(0.25), abs=1e-12)


def test_standard_normal_peak_log_density():
    policy = DiagGaussianPolicy.zeros(1, 1)
    # mean action is 0 for the zero policy; density peak of a unit Gaussian
    assert policy.log_prob(np.array([0.7]), np.array([0.0])) == pytest.approx(
        -0.9189385332046727, abs=1e-12)


def test_categorical_rows_normalize(small_triple):
    _, _, model = small_triple
    probs = model.probs_all()
    assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-12)
    assert np.all(probs >= 0.0)


def test_gaussian_density_normalizes_by_quadrature():
    policy = DiagGaussianPolicy(np.array([[0.5, -0.2]]), np.log([0.7]))
    s = np.array([1.3])

    def density(a):
        return np.exp(policy.log_prob(s, np.array([a])))

    total, _ = quad(density, -np.inf, np.inf, epsabs=1e-12)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_world_model_density_normalizes_by_quadrature():
    model = DiagGaussianWorldModel(np.array([[0.2, 0.1, 0.3], [0.0, 0.4, -0.1]]),
                                   np.log([0.5, 0.9]), state_dim=1, action_dim=1)
    s, a = np.array([0.4]), np.array([-0.6])
    mean = model.mean(s, a)

    # the joint factorizes over dimensions; check each marginal by quadrature
    def dim_density(y, d):
        full = mean.copy()
        full[d] = y
        other = 1.0
        for j in range(2):
            if j != d:
                other *= 1.0 / (np.sqrt(2 * np.pi) * np.exp(model.log_std[j]))
        return np.exp(model.log_prob(s, a, full)) / other

    for d in range(2):
        total, _ = quad(dim_density, -np.inf, np.inf, args=(d,), epsabs=1e-12)
        assert total == pytest.approx(1.0, abs=1e-9)


def test_log_prob_zero_support_raises():
    mdp = small_mdp()
    model = CategoricalWorldModel.uniform(mdp)
    logits = model.logits.copy()
    logits[0, 0, 0] = -np.inf
    model = CategoricalWorldModel(logits, model.outcome_rewards,
                                  model.outcome_next_states)
    with pytest.raises(SupportError):
        model.log_prob(0, 0, 0)


def test_outcome_index_rejects_alien_outcome(small_triple):
    _, _, model = small_triple
    with pytest.raises(SupportError):
        model.outcome_index(0.123456, 0)


def test_outcome_index_looks_up_arrays_as_the_per_pair_dict_did():
    """Arrays of pairs get the index a dict keyed by ``(float(r), int(s'))``
    gives each pair: -0.0 finds 0.0, a pair the alphabet repeats finds its
    last index, and NaN or an off-table next state finds nothing."""
    model = CategoricalWorldModel(np.zeros((1, 1, 5)),
                                  [0.5, 0.0, 0.5, 1.0, 0.25], [2, 0, 2, 7, 3])
    table = {(float(r), int(s)): k for k, (r, s) in enumerate(
        zip(model.outcome_rewards, model.outcome_next_states))}
    rewards = np.array([[0.5, -0.0], [1.0, 0.25]])
    nexts = np.array([[2, 0], [7, 3]])
    found = model.outcome_index(rewards, nexts)
    assert found.shape == (2, 2)
    assert found.tolist() == [[table[0.5, 2], table[0.0, 0]],
                              [table[1.0, 7], table[0.25, 3]]] == [[2, 1], [3, 4]]
    assert model.outcome_index(-0.0, 0) == 1
    for reward, s_next in ((np.nan, 2), (0.5, 99), (0.5, -5), (0.25, 2)):
        with pytest.raises(SupportError, match=f"s'={s_next}\\)"):
            model.outcome_index(np.array([0.5, reward]), np.array([2, s_next]))


# ---------------------------------------------------------------------------
# scores
# ---------------------------------------------------------------------------


def test_softmax_score_identity(small_triple):
    _, policy, model = small_triple
    for s in range(policy.num_states):
        p = policy.probs(s)
        for a in range(policy.num_actions):
            sc = policy.score(s, a).reshape(policy.logits.shape)
            expected = np.zeros_like(sc)
            expected[s] = -p
            expected[s, a] += 1.0
            assert np.allclose(sc, expected, atol=1e-14)
    p = model.probs(1, 0)
    sc = model.score(1, 0, 2).reshape(model.logits.shape)
    assert np.allclose(sc[1, 0], np.eye(len(p))[2] - p, atol=1e-14)
    sc[1, 0] = 0.0
    assert np.all(sc == 0.0)


def test_scores_match_finite_differences():
    """At least 1000 random triples: FD of log_prob vs the analytic score."""
    rng = np.random.default_rng(314)
    eps = 1e-6
    checked = 0
    pol = SoftmaxPolicy(rng.standard_normal((4, 3)))
    mdp = small_mdp()
    base = CategoricalWorldModel.uniform(mdp)
    mod = base.with_params(rng.standard_normal(base.n_params))
    gpol = DiagGaussianPolicy(rng.standard_normal((2, 3)) * 0.5,
                              rng.uniform(-0.5, 0.3, size=2))
    gmod = DiagGaussianWorldModel(rng.standard_normal((2, 3)) * 0.5,
                                  rng.uniform(-0.5, 0.3, size=2),
                                  state_dim=1, action_dim=1)
    for _ in range(400):
        s, a = rng.integers(0, 4), rng.integers(0, 3)
        fd = np.array([
            (SoftmaxPolicy((pol.logits.ravel() + eps * e).reshape(4, 3)).log_prob(s, a)
             - SoftmaxPolicy((pol.logits.ravel() - eps * e).reshape(4, 3)).log_prob(s, a))
            / (2 * eps) for e in np.eye(pol.n_params)])
        assert np.abs(fd - pol.score(s, a)).max() <= 1e-6
        checked += 1
    for _ in range(400):
        s, a, k = rng.integers(0, 2), rng.integers(0, 2), rng.integers(0, 4)
        fd = np.array([
            (mod.with_params(mod.params.values + eps * e).log_prob(s, a, k)
             - mod.with_params(mod.params.values - eps * e).log_prob(s, a, k))
            / (2 * eps) for e in np.eye(mod.n_params)])
        assert np.abs(fd - mod.score(s, a, k)).max() <= 1e-6
        checked += 1
    for _ in range(150):
        s = rng.standard_normal(2)
        act = rng.standard_normal(2)
        fd = np.array([
            (gpol.with_params(gpol.params.values + eps * e).log_prob(s, act)
             - gpol.with_params(gpol.params.values - eps * e).log_prob(s, act))
            / (2 * eps) for e in np.eye(gpol.n_params)])
        sc = gpol.score(s, act)
        assert np.abs(fd - sc).max() <= 1e-4 * max(1.0, np.abs(sc).max())
        checked += 1
    for _ in range(150):
        s, act = rng.standard_normal(1), rng.standard_normal(1)
        y = rng.standard_normal(2)
        fd = np.array([
            (gmod.with_params(gmod.params.values + eps * e).log_prob(s, act, y)
             - gmod.with_params(gmod.params.values - eps * e).log_prob(s, act, y))
            / (2 * eps) for e in np.eye(gmod.n_params)])
        sc = gmod.score(s, act, y)
        assert np.abs(fd - sc).max() <= 1e-4 * max(1.0, np.abs(sc).max())
        checked += 1
    assert checked >= 1000


def test_score_zero_mean_exact_and_sampled(small_triple):
    _, policy, model = small_triple
    # exact: sum_a pi(a|s) score(s, a) = 0
    for s in range(policy.num_states):
        mean = sum(policy.probs(s)[a] * policy.score(s, a)
                   for a in range(policy.num_actions))
        assert np.abs(mean).max() <= 1e-14
    for s in range(model.num_states):
        for a in range(model.num_actions):
            mean = sum(model.probs(s, a)[k] * model.score(s, a, k)
                       for k in range(model.num_outcomes))
            assert np.abs(mean).max() <= 1e-14
    # sampled: 1e5 draws of the model score at one cell, within 4 SE of zero
    rng = np.random.default_rng(77)
    n = 100_000
    p = model.probs(0, 1)
    ks = rng.choice(model.num_outcomes, size=n, p=p)
    scores = np.eye(model.num_outcomes)[ks] - p
    se = scores.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(scores.mean(axis=0)) <= 4.0 * se)


# ---------------------------------------------------------------------------
# maximum likelihood
# ---------------------------------------------------------------------------


def test_categorical_mle_three_to_one():
    mdp = small_mdp()
    template = CategoricalWorldModel.uniform(mdp)
    # four visits to cell (0, 0): outcomes k=0 three times, k=1 once
    rewards, nexts = mdp.outcome_table()
    ks = [0, 0, 0, 1]
    with pytest.warns(UserWarning):  # other cells unvisited -> uniform fallback
        fitted = mle_fit(OfflineDataset(states=np.zeros(4, dtype=int),
                                        actions=np.zeros(4, dtype=int),
                                        rewards=rewards[ks],
                                        next_states=nexts[ks]), template)
    probs = fitted.probs(0, 0)
    assert probs[0] == pytest.approx(0.75, abs=1e-12)
    assert probs[1] == pytest.approx(0.25, abs=1e-12)
    assert np.allclose(fitted.probs(1, 1), 0.25, atol=1e-12)  # fallback row


def test_linear_gaussian_mle_recovers_plant():
    rng = np.random.default_rng(10)
    true_w = np.array([[0.8, 0.5, 0.1], [0.0, 0.3, 0.6]])
    n = 4000
    states = rng.standard_normal((n, 1))
    actions = rng.standard_normal((n, 1))
    feats = np.column_stack([states, actions, np.ones(n)])
    noise = rng.standard_normal((n, 2)) * np.array([0.3, 0.1])
    targets = feats @ true_w.T + noise
    dataset = OfflineDataset(states=states, actions=actions,
                             rewards=targets[:, 1], next_states=targets[:, :1])
    fitted = mle_fit(dataset, DiagGaussianWorldModel.zeros(1, 1))
    assert np.abs(fitted.weights - true_w).max() <= 0.05
    assert np.allclose(np.exp(fitted.log_std), [0.3, 0.1], atol=0.02)


def test_mle_beats_perturbations(small_triple):
    """The fitted model's dataset log-likelihood dominates 100 nearby models."""
    mdp, _, _ = small_triple
    dataset = sample_offline_dataset(mdp, "uniform", n=400, seed=21)
    template = CategoricalWorldModel.uniform(mdp)
    fitted = mle_fit(dataset, template)

    def loglik(model):
        probs = model.probs_all()
        total = 0.0
        for s, a, r, s2 in zip(dataset.states, dataset.actions,
                               dataset.rewards, dataset.next_states):
            k = template.outcome_index(float(r), int(s2))
            total += np.log(max(probs[int(s), int(a), k], 1e-300))
        return total

    best = loglik(fitted)
    rng = np.random.default_rng(4)
    for _ in range(100):
        other = fitted.with_params(fitted.params.values
                                   + 0.1 * rng.standard_normal(fitted.n_params))
        assert loglik(other) <= best + 1e-9


def test_mle_smoothing_changes_probabilities():
    mdp = small_mdp()
    dataset = sample_offline_dataset(mdp, "uniform", n=50, seed=2)
    template = CategoricalWorldModel.uniform(mdp)
    plain = mle_fit(dataset, template)
    smoothed = mle_fit(dataset, template, alpha=1.0)
    assert not np.allclose(plain.probs_all(), smoothed.probs_all())
    # smoothing keeps every outcome alive
    assert smoothed.probs_all().min() > 0.0


def test_mle_rejects_smoothing_below_zero():
    """A negative or NaN ``alpha`` is no additive smoothing: the fit refuses
    it by name, even where the counts it would shift stay positive."""
    mdp = small_mdp()
    dataset = sample_offline_dataset(mdp, "uniform", n=50, seed=2)
    for alpha in (-0.4, -1.0, float("nan")):
        with pytest.raises(ValueError, match="alpha"):
            mle_fit(dataset, CategoricalWorldModel.uniform(mdp), alpha=alpha)


def test_mle_convergence_in_kl():
    """Median (over 20 seeds) KL from the truth decreases along a sample-size
    ladder and ends near zero."""
    mdp = small_mdp()
    true_model = CategoricalWorldModel.from_mdp(mdp)
    true_probs = true_model.probs_all()
    sizes = [50, 200, 800, 3200]
    medians = []
    for n in sizes:
        kls = []
        for seed in range(20):
            dataset = sample_offline_dataset(mdp, "uniform", n=n,
                                             seed=(n, seed))
            fitted = mle_fit(dataset, CategoricalWorldModel.uniform(mdp),
                             alpha=0.5)
            fit_probs = fitted.probs_all()
            kls.append(np.mean([
                categorical_kl(true_probs[s, a], fit_probs[s, a])
                for s in range(2) for a in range(2)]))
        medians.append(float(np.median(kls)))
    assert all(a > b for a, b in zip(medians, medians[1:])), medians
    assert medians[-1] < 0.01


# ---------------------------------------------------------------------------
# information-matrix identity
# ---------------------------------------------------------------------------


def test_softmax_fim_identity(small_triple):
    """E_k[hess log p + score score^T] = 0 per cell, summed analytically."""
    _, _, model = small_triple
    for s in range(model.num_states):
        for a in range(model.num_actions):
            p = model.probs(s, a)
            cov = np.diag(p) - np.outer(p, p)
            acc = np.zeros((model.num_outcomes, model.num_outcomes))
            for k in range(model.num_outcomes):
                sc = np.eye(model.num_outcomes)[k] - p
                acc += p[k] * (-cov + np.outer(sc, sc))
            assert np.abs(acc).max() <= 1e-14


def test_unit_gaussian_fim_identity_analytic():
    """For y ~ N(mu, 1): E[d^2/dmu^2 log p] = -1 and E[score^2] = 1."""
    # hess log p = -1 identically; E[(y - mu)^2] = 1 -> sum is exactly zero
    mu = 0.37
    hess = -1.0
    second_moment = 1.0  # Var(y) under the model itself
    assert hess + second_moment == 0.0
    # and a quadrature confirmation of E[score^2]
    val, _ = quad(lambda y: (y - mu) ** 2
                  * np.exp(-0.5 * (y - mu) ** 2) / np.sqrt(2 * np.pi),
                  -np.inf, np.inf)
    assert val == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# divergences
# ---------------------------------------------------------------------------


def test_categorical_kl_examples():
    assert categorical_kl(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0
    assert categorical_kl(np.array([0.5, 0.5]),
                          np.array([0.25, 0.75])) == pytest.approx(KL_EXAMPLE, abs=1e-12)
    assert categorical_kl(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == np.inf
    # 0 log 0 convention
    assert categorical_kl(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 0.0


def categorical_tv(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def test_categorical_tv():
    assert categorical_tv(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    assert categorical_tv(np.array([0.5, 0.5]), np.array([0.25, 0.75])) == pytest.approx(0.25)


def test_gaussian_kl_zero_and_known_value():
    assert gaussian_kl(np.zeros(2), np.ones(2), np.zeros(2), np.ones(2)) == 0.0
    # KL(N(0,1) || N(1,1)) = 0.5
    assert gaussian_kl(np.zeros(1), np.ones(1), np.ones(1), np.ones(1)) == pytest.approx(0.5)
    # matches the categorical-free closed form for a variance ratio
    assert gaussian_kl(np.zeros(1), np.array([2.0]), np.zeros(1),
                       np.array([1.0])) == pytest.approx(0.5 * (2 - np.log(2) - 1))
    # one KL per leading index, the dimension axis summed away
    batched = gaussian_kl(np.zeros((4, 3, 2)), np.ones(2), np.ones((4, 3, 2)),
                          np.ones(2))
    assert batched.shape == (4, 3) and np.all(batched == 1.0)


# ---------------------------------------------------------------------------
# parameter vectors and datasets
# ---------------------------------------------------------------------------


def test_param_vector_roundtrip(tmp_path):
    """A saved parameter vector reads back through the one reader of its
    format, ``read_json_object`` and ``from_saved`` onto a template, which
    refuses the same values saved under another layout."""
    template = DiagGaussianPolicy.zeros(1, 1)  # weights [0, 2), log_std [2, 3)
    pv = ParamVector(np.array([1.0, 2.0, 3.0]), template.params.layout)
    path = tmp_path / "params.json"
    pv.save(path)
    loaded = from_saved(template, read_json_object(path, ("values", "layout")),
                        "params").params
    assert np.array_equal(loaded.values, pv.values)
    assert tuple(loaded.layout) == tuple(pv.layout)
    ParamVector(pv.values, (("w", 0, 2), ("b", 2, 3))).save(path)
    with pytest.raises(ValueError, match="params values: must be finite and fit"):
        from_saved(template, read_json_object(path, ("values", "layout")), "params")


@pytest.mark.parametrize("family", [SoftmaxPolicy, CategoricalWorldModel,
                                    DiagGaussianPolicy, DiagGaussianWorldModel],
                         ids=lambda family: family.__name__)
def test_with_params_roundtrip(family, small_triple):
    """``with_params`` keeps the class and every field that is not a
    parameter (the outcome tables, ``state_dim`` and ``action_dim``), and
    holds exactly the values it is given, in its own copy."""
    _, policy, model = small_triple
    player = {SoftmaxPolicy: policy, CategoricalWorldModel: model,
              DiagGaussianPolicy: DiagGaussianPolicy.zeros(3, 2),
              DiagGaussianWorldModel: DiagGaussianWorldModel.zeros(3, 2)}[family]
    assert np.array_equal(player.with_params(player.params).params.values,
                          player.params.values)
    values = np.random.default_rng(0).normal(size=player.n_params)
    stepped = player.with_params(values)
    assert type(stepped) is family
    assert np.array_equal(stepped.params.values, values)
    assert stepped.params.layout == player.params.layout
    values[:] = 0.0
    assert not np.array_equal(stepped.params.values, values)
    kept = [field.name for field in dataclasses.fields(player)
            if field.name not in ("logits", "weights", "log_std")]
    assert len(kept) == (0 if "Policy" in family.__name__ else 2)
    for name in kept:
        assert np.array_equal(getattr(stepped, name), getattr(player, name))
    if family is CategoricalWorldModel:
        assert stepped.outcome_index(model.outcome_rewards[-1],
                                     model.outcome_next_states[-1]) \
            == model.num_outcomes - 1


def test_dataset_csv_roundtrip_tabular(tmp_path, small_triple):
    mdp, _, _ = small_triple
    dataset = sample_offline_dataset(mdp, "uniform", n=30, seed=1)
    path = tmp_path / "data.csv"
    dataset.save_csv(path)
    loaded = OfflineDataset.load_csv(path, mdp)
    assert loaded.n == dataset.n
    assert np.array_equal(np.asarray(loaded.states), np.asarray(dataset.states))
    assert np.array_equal(np.asarray(loaded.rewards), np.asarray(dataset.rewards))


def test_dataset_csv_roundtrip_continuous(tmp_path):
    env = tracking_mdp()
    dataset = rollout_dataset(env, tracking_behavior_policy(env), 4, seed=0)
    path = tmp_path / "cont.csv"
    dataset.save_csv(path)
    loaded = OfflineDataset.load_csv(path, env)
    assert loaded.n == dataset.n
    assert np.allclose(np.asarray(loaded.states, dtype=float),
                       np.asarray(dataset.states, dtype=float), atol=1e-12)


def test_dataset_csv_roundtrip_two_wide_states(tmp_path):
    """A continuous environment with 2-wide states and 1-wide actions: every
    column reads back bit for bit, and the same file read as ``tracking``'s
    (1-wide states) is refused naming the column."""
    env = ContinuousMdp(
        state_dim=2, action_dim=1,
        mean_fn=lambda s, a: np.concatenate([s + a, np.tanh(s[..., :1])], -1),
        std=np.full(3, 0.1), init_mean=np.array([0.5, -1.0]),
        init_std=np.ones(2), gamma=0.9, horizon=5)
    policy = DiagGaussianPolicy(np.array([[0.3, -0.2, 0.1]]), np.log([0.5]))
    dataset = rollout_dataset(env, policy, 3, seed=4)
    path = tmp_path / "wide.csv"
    dataset.save_csv(path)
    loaded = OfflineDataset.load_csv(path, env)
    assert np.asarray(loaded.states).shape == (15, 2)
    for column in ("states", "actions", "rewards", "next_states"):
        assert np.asarray(getattr(loaded, column)).tobytes() \
            == np.asarray(getattr(dataset, column)).tobytes(), column
    with pytest.raises(ValueError, match=f"{path}: line 2, column s: "):
        OfflineDataset.load_csv(path, tracking_mdp())


def test_dataset_cell_counts(small_triple):
    dataset = OfflineDataset(states=np.array([0, 0, 1]),
                             actions=np.array([1, 1, 0]),
                             rewards=np.zeros(3), next_states=np.array([0, 1, 1]))
    counts = dataset.cell_counts()
    assert counts[(0, 1)] == 2 and counts[(1, 0)] == 1
    assert dataset.num_cells() == 2 and max(counts.values()) == 2


def test_dataset_rejects_empty_and_ragged():
    with pytest.raises(ValueError):
        OfflineDataset(states=np.array([]), actions=np.array([]),
                       rewards=np.array([]), next_states=np.array([]))
    with pytest.raises(ValueError):
        OfflineDataset(states=np.array([0, 1]), actions=np.array([0]),
                       rewards=np.array([0.0]), next_states=np.array([0]))


def test_sample_offline_dataset_determinism(small_triple):
    mdp, _, _ = small_triple
    a = sample_offline_dataset(mdp, "uniform", n=40, seed=9)
    b = sample_offline_dataset(mdp, "uniform", n=40, seed=9)
    for field in ("states", "actions", "rewards", "next_states"):
        assert np.array_equal(np.asarray(getattr(a, field)),
                              np.asarray(getattr(b, field)))


def per_dataset_sample(mdp, policy, n, seed=0):
    """``sample_offline_dataset`` as one call per dataset, each categorical
    draw taking its own cumsum of the gathered rows: the reference for the
    sampler that ``coverage_check`` runs over blocks of datasets."""
    from stackmbrl.mdp import _as_rng, _policy_probs

    def draw_rows(rows, rng):
        cdf = np.cumsum(rows, axis=1)
        u = rng.random(rows.shape[0])
        idx = (u[:, None] > cdf).sum(axis=1)
        return np.minimum(idx, rows.shape[1] - 1)

    rng = _as_rng(seed)
    states = rng.choice(mdp.num_states, size=n,
                        p=np.full(mdp.num_states, 1.0 / mdp.num_states))
    actions = draw_rows(_policy_probs(policy, mdp)[states], rng)
    outcomes = draw_rows(mdp.joint_outcome_probs()[states, actions], rng)
    rewards_tab, nexts_tab = mdp.outcome_table()
    return OfflineDataset(states=states, actions=actions,
                          rewards=rewards_tab[outcomes],
                          next_states=nexts_tab[outcomes])


def test_state_draws_match_the_generators_choice():
    """The sampler's state draws equal ``rng.choice``'s over the uniform
    distribution bit for bit, in 2,000 cases of 1 to 40 states, and leave
    the generator where ``choice`` leaves it."""
    mdps = {s: dirichlet_mdp(3, s) for s in range(1, 41)}
    cases = np.random.default_rng(0)
    for case in range(2000):
        mdp = mdps[int(cases.integers(1, 41))]
        n = int(cases.integers(1, 50))
        got_rng, want_rng = (np.random.default_rng(case) for _ in range(2))
        got = sample_offline_dataset(mdp, "uniform", n, seed=got_rng)
        want = per_dataset_sample(mdp, "uniform", n, seed=want_rng)
        for field in ("states", "actions", "rewards", "next_states"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.tolist() == b.tolist()
        assert got_rng.random() == want_rng.random()


@pytest.mark.parametrize("make_mdp", [gradient_mdp, lambda: dirichlet_mdp(3, 7)],
                         ids=["gradient", "dirichlet"])
@pytest.mark.parametrize("seed", range(5))
def test_sampler_matches_the_per_dataset_draws(make_mdp, seed):
    mdp = make_mdp()
    logits = np.random.default_rng(seed).normal(
        scale=2.0, size=(mdp.num_states, mdp.num_actions))
    for policy in ("uniform", SoftmaxPolicy(logits)):
        for n in (1, 37, 400):
            got = sample_offline_dataset(mdp, policy, n=n, seed=seed)
            want = per_dataset_sample(mdp, policy, n=n, seed=seed)
            for field in ("states", "actions", "rewards", "next_states"):
                a, b = getattr(got, field), getattr(want, field)
                assert a.dtype == b.dtype and a.tolist() == b.tolist()
    # a generator passed as the seed is drawn from, as before
    got = sample_offline_dataset(mdp, "uniform", 50,
                                 seed=np.random.default_rng(seed))
    want = per_dataset_sample(mdp, "uniform", 50,
                              seed=np.random.default_rng(seed))
    assert got.states.tolist() == want.states.tolist()
    assert got.rewards.tolist() == want.rewards.tolist()


def per_episode_choice_rollouts(mdp, policy, n_episodes, seed):
    """Tabular ``rollout_dataset`` as ``rng.choice`` draws it, one episode
    and one step at a time: the start state, then each step's action and
    outcome, from episode ``e``'s generator ``default_rng((seed, e))``."""
    from stackmbrl.mdp import _policy_probs
    probs, joint = _policy_probs(policy, mdp), mdp.joint_outcome_probs()
    rewards_tab, nexts_tab = mdp.outcome_table()
    rows = []
    for episode in range(n_episodes):
        rng = np.random.default_rng((seed, episode))
        s = rng.choice(mdp.num_states, p=mdp.init_dist)
        for _ in range(mdp.horizon):
            a = rng.choice(mdp.num_actions, p=probs[s])
            k = rng.choice(mdp.num_outcomes, p=joint[s, a])
            rows.append((s, a, rewards_tab[k], nexts_tab[k]))
            s = nexts_tab[k]
    return OfflineDataset(*(np.array(column) for column in zip(*rows)))


@pytest.mark.parametrize("make_mdp", [
    gradient_mdp, lambda: sparse_reward_testbed()[0],
    lambda: dirichlet_mdp(5, 40)], ids=["gradient", "sparse", "dirichlet40"])
def test_tabular_rollouts_match_per_episode_choice_draws(make_mdp):
    """One pass of the path loop over all episodes draws what per-episode,
    per-step ``rng.choice`` draws, for a uniform, a greedy (zero-probability
    actions) and a softmax behaviour policy."""
    from stackmbrl.mdp import dp_optimal_policy
    mdp = make_mdp()
    greedy = np.zeros((mdp.num_states, mdp.num_actions))
    greedy[np.arange(mdp.num_states), dp_optimal_policy(mdp)] = 1.0
    logits = np.random.default_rng(1).normal(
        scale=2.0, size=(mdp.num_states, mdp.num_actions))
    for policy in ("uniform", greedy, SoftmaxPolicy(logits)):
        got = rollout_dataset(mdp, policy, n_episodes=30, seed=4)
        want = per_episode_choice_rollouts(mdp, policy, 30, seed=4)
        for field in ("states", "actions", "rewards", "next_states"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.tolist() == b.tolist(), field


def test_categorical_mle_rejects_rows_outside_the_model():
    mdp = small_mdp()  # 2 states, 2 actions
    template = CategoricalWorldModel.uniform(mdp)
    rewards, nexts = mdp.outcome_table()

    def fit(states, actions, rewards=rewards[:3]):
        return mle_fit(OfflineDataset(states=np.array(states),
                                      actions=np.array(actions),
                                      rewards=rewards, next_states=nexts[:3]),
                       template, alpha=0.5)

    with pytest.raises(ValueError, match="row 1 has \\(s=2, a=0\\)"):
        fit([0, 2, 0], [0, 0, 0])
    with pytest.raises(ValueError, match="row 2 has \\(s=1, a=-1\\)"):
        fit([0, 1, 1], [0, 1, -1])
    with pytest.raises(SupportError, match="r=0.123"):
        fit([0, 1, 1], [0, 1, 1], rewards=np.array([0.123, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# one numpy pass over the dataset against the per-row walks it replaced
# ---------------------------------------------------------------------------


def _row_cell_key(s, a):
    if np.ndim(s) == 0 and np.ndim(a) == 0:
        return (int(s), int(a))
    return (tuple(map(float, np.round(np.atleast_1d(np.asarray(s, dtype=float)), 12))),
            tuple(map(float, np.round(np.atleast_1d(np.asarray(a, dtype=float)), 12))))


def _row_cell_counts(dataset):
    counts = {}
    for s, a in zip(dataset.states, dataset.actions):
        key = _row_cell_key(s, a)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _row_categorical_logits(dataset, template, alpha):
    """Every cell visited, so no uniform fallback."""
    counts = np.zeros(template.logits.shape)
    for s, a, r, s2 in zip(dataset.states, dataset.actions, dataset.rewards,
                           dataset.next_states):
        counts[int(s), int(a), template.outcome_index(float(r), int(s2))] += 1.0
    counts += alpha
    with np.errstate(divide="ignore"):
        logits = np.log(counts / counts.sum(axis=-1, keepdims=True))
    return np.maximum(logits, LOGIT_FLOOR)


def _row_gaussian_fit(dataset, template):
    feats = np.array([template._features(s, a)
                      for s, a in zip(dataset.states, dataset.actions)])
    targets = np.array([np.append(np.atleast_1d(s2).astype(float), r)
                        for s2, r in zip(dataset.next_states, dataset.rewards)])
    weights, *_ = np.linalg.lstsq(feats, targets, rcond=None)
    variance = np.maximum(((targets - feats @ weights) ** 2).mean(axis=0),
                          VAR_FLOOR)
    return weights.T, 0.5 * np.log(variance)


def _row_gaussian_dataset_kl(dataset, model, anchor):
    var_m = np.exp(2.0 * model.log_std)
    var_a = np.exp(2.0 * anchor.log_std)
    total = 0.0
    for s, a in zip(dataset.states, dataset.actions):
        ratio = var_a / var_m
        total += float(0.5 * (ratio - np.log(ratio) - 1.0
                              + (model.mean(s, a) - anchor.mean(s, a)) ** 2
                              / var_m).sum())
    return total / dataset.n


def _row_gaussian_dual_coupling(dataset, model, anchor):
    var_m = np.exp(2.0 * model.log_std)
    var_a = np.exp(2.0 * anchor.log_std)
    total = 0
    for s, a in zip(dataset.states, dataset.actions):
        diff = anchor.mean(s, a) - model.mean(s, a)
        total = total + np.concatenate(
            [np.outer(diff / var_m, model._features(s, a)).ravel(),
             (var_a + diff ** 2) / var_m - 1.0])
    return -total / dataset.n


@pytest.fixture(scope="module")
def tracking_data():
    """The ``tracking`` dataset and Gaussian anchor ``stackmbrl train``
    builds for seed 0, plus a model moved off the anchor."""
    env = tracking_mdp()
    dataset = rollout_dataset(env, tracking_behavior_policy(env),
                              n_episodes=50, seed=0)
    anchor = mle_fit(dataset, DiagGaussianWorldModel.zeros(env.state_dim,
                                                           env.action_dim))
    shift = np.random.default_rng(0).standard_normal(anchor.n_params)
    model = anchor.with_params(anchor.params.values + 0.2 * shift)
    return dataset, anchor, model


def _assert_same_counts(counts, reference):
    assert counts == reference
    assert list(counts) == list(reference)  # first-appearance order
    assert list(counts.values()) == list(reference.values())


def test_tabular_cell_counts_match_the_row_walk(grad_dataset):
    dataset, _ = grad_dataset
    counts = dataset.cell_counts()
    _assert_same_counts(counts, _row_cell_counts(dataset))
    assert all(type(x) is int for key in counts for x in key)


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
def test_packed_cell_counts_match_the_row_walk(dtype):
    """Negative and off-grid states, non-contiguous action labels, the
    extremes of narrow integer types, and a one-row dataset."""
    info = np.iinfo(dtype)
    rng = np.random.default_rng(7)
    low = max(int(info.min), -4)
    states = rng.integers(low, low + 12, 200)
    states[[5, 60]] = (info.min, info.max) if dtype is not np.int64 else (-9, 40)
    actions = rng.choice([5, 0, 2, 200], 200)
    for n in (200, 1):
        dataset = OfflineDataset(states[:n].astype(dtype),
                                 actions[:n].astype(dtype), np.zeros(n),
                                 np.zeros(n, dtype=np.int64))
        counts = dataset.cell_counts()
        _assert_same_counts(counts, _row_cell_counts(dataset))
        assert all(type(x) is int for key in counts for x in key)


def test_packed_cell_counts_refuse_labels_too_wide_for_one_key():
    extremes = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max])
    dataset = OfflineDataset(extremes, np.array([0, 1]), np.zeros(2),
                             np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError, match="too wide"):
        dataset.cell_counts()


def test_continuous_cell_counts_match_the_row_walk(tracking_data):
    base = tracking_data[0]
    repeats = np.r_[np.arange(base.n), [3, 0, 3]]
    states = np.concatenate([np.asarray(base.states)[repeats],
                             [[-0.0], [0.0], [-1e-15], [0.0]]])
    actions = np.concatenate([np.asarray(base.actions)[repeats],
                              [[0.0], [-0.0], [0.0], [-0.0]]])
    dataset = OfflineDataset(states, actions, np.zeros(len(states)),
                             np.zeros_like(states))
    counts = dataset.cell_counts()
    _assert_same_counts(counts, _row_cell_counts(dataset))
    assert counts[((0.0,), (0.0,))] == 4
    assert not any(np.signbit(x) for key in counts for part in key
                   for x in part if x == 0.0)


def test_cached_tables_are_read_only(grad_triple, grad_dataset,
                                     tracking_data):
    """Probability tables and dataset cells are computed once per instance
    and shared, so writing into any of them raises."""
    _, policy, model = grad_triple
    tables = [policy.probs_all(), policy.probs(0), model.probs_all(),
              model.probs(1, 0), *grad_dataset[0].cells,
              *tracking_data[0].cells]
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0.0
    assert policy.probs_all() is policy.probs_all()
    assert grad_dataset[0].cells is grad_dataset[0].cells


def test_with_params_starts_a_fresh_probability_table(grad_triple):
    _, policy, model = grad_triple
    for player in (policy, model):
        same = player.with_params(player.params)
        assert same.probs_all() is not player.probs_all()
        assert np.array_equal(same.probs_all(), player.probs_all())
        moved = player.with_params(player.params.values + np.linspace(
            -1.0, 1.0, player.n_params))
        logits = moved.logits - moved.logits.max(axis=-1, keepdims=True)
        want = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
        assert np.allclose(moved.probs_all(), want, rtol=1e-14, atol=0.0)
        assert not np.allclose(moved.probs_all(), player.probs_all())


def test_categorical_mle_matches_the_row_walk(grad_triple, grad_dataset):
    dataset, _ = grad_dataset
    template = CategoricalWorldModel.uniform(grad_triple[0])
    assert dataset.num_cells() == template.num_states * template.num_actions
    for alpha in (0.0, 0.5):
        fitted = mle_fit(dataset, template, alpha=alpha)
        assert np.array_equal(fitted.logits,
                              _row_categorical_logits(dataset, template, alpha))


def _signed_zero_template():
    """2 states x 2 actions over outcomes (r, s') in {0.0, 1.0} x {0, 1}."""
    return CategoricalWorldModel(np.zeros((2, 2, 4)), [0.0, 1.0, 0.0, 1.0],
                                 [0, 0, 1, 1])


def test_categorical_mle_groups_signed_zero_rewards():
    template = _signed_zero_template()
    rng = np.random.default_rng(3)
    n = 64
    states, actions = np.arange(n) % 2, (np.arange(n) // 2) % 2
    rewards = rng.choice([0.0, -0.0, 1.0], n)
    nexts = rng.integers(0, 2, n)
    dataset = OfflineDataset(states, actions, rewards, nexts)
    assert np.signbit(rewards[rewards == 0.0]).any()
    assert not np.signbit(rewards[rewards == 0.0]).all()
    positive = OfflineDataset(states, actions, rewards + 0.0, nexts)
    for alpha in (0.0, 0.5):
        fitted = mle_fit(dataset, template, alpha=alpha).logits
        assert np.array_equal(fitted,
                              _row_categorical_logits(dataset, template, alpha))
        assert np.array_equal(fitted, mle_fit(positive, template,
                                              alpha=alpha).logits)


@pytest.mark.parametrize("first, second", [
    ((0.5, 0), (-0.25, 1)),   # the later outcome sorts first by reward
    ((-0.0, 7), (0.0, 7)),    # the first row's signed zero is the one named
    ((0.0, 7), (-0.0, 7)),
    ((1.0, 9), (1.0, 8)),     # the later outcome sorts first by next state
])
def test_categorical_mle_names_the_first_unknown_outcome(first, second):
    rows = [(0.0, 0), (1.0, 1), first, (0.0, 1), second, second]
    rewards, nexts = (np.array(column) for column in zip(*rows))
    dataset = OfflineDataset(np.zeros(len(rows), dtype=np.int64),
                             np.zeros(len(rows), dtype=np.int64), rewards,
                             nexts)
    with pytest.raises(SupportError) as err:
        mle_fit(dataset, _signed_zero_template())
    assert str(err.value) == (f"observed outcome (r={first[0]!r}, "
                              f"s'={first[1]}) is not in the model's "
                              "outcome alphabet")


def test_gaussian_mle_matches_the_row_walk(tracking_data):
    dataset, anchor, _ = tracking_data
    weights, log_std = _row_gaussian_fit(dataset, anchor)
    assert np.array_equal(anchor.weights, weights)
    assert np.array_equal(anchor.log_std, log_std)


def test_gaussian_dataset_terms_match_the_row_walk(tracking_data):
    dataset, anchor, model = tracking_data
    for m in (model, anchor):
        assert dataset_kl(dataset, m, anchor) == _row_gaussian_dataset_kl(
            dataset, m, anchor)
        assert np.array_equal(dataset_dual_coupling(dataset, m, anchor),
                              _row_gaussian_dual_coupling(dataset, m, anchor))


def test_gaussian_penalty_curvature_at_the_anchor_is_the_fisher_gram(
        tracking_data):
    """At model == anchor the closed penalty block is lam times the dataset
    Fisher matrix: sigma_j^-2 X^T X / n on output j's weights, 2 on each
    log-std, and zero between outputs and between weights and log-stds."""
    dataset, anchor, _ = tracking_data
    ridge, lam = 1e-3, 0.7
    block = (penalty_curvature(dataset, anchor, anchor, lam, ridge).dense()
             - ridge * np.eye(anchor.n_params))
    feats = anchor._features(dataset.states, dataset.actions)
    n_out, n_feat = anchor.weights.shape
    want = np.zeros_like(block)
    for j, log_std in enumerate(anchor.log_std):
        cols = slice(j * n_feat, (j + 1) * n_feat)
        want[cols, cols] = feats.T @ feats / dataset.n / np.exp(2.0 * log_std)
        want[n_out * n_feat + j, n_out * n_feat + j] = 2.0
    assert np.abs(block - lam * want).max() <= 1e-12 * np.abs(want).max()


def test_gaussian_penalty_curvature_matches_monte_carlo(tracking_data):
    """Off the anchor, the closed block matches a seeded Monte Carlo average
    of score score^T at anchor draws on 20 dataset rows, 20,000 draws each:
    every entry within 5 of its standard errors, a bound set before the
    run."""
    dataset, anchor, model = tracking_data
    rows, draws = 20, 20_000
    states = np.repeat(dataset.states[:rows], draws, axis=0)
    actions = np.repeat(dataset.actions[:rows], draws, axis=0)
    normals = np.random.default_rng(5).standard_normal((rows * draws, 2))
    scores = model.scores(states, actions,
                          anchor.samples(states, actions, normals)).blocks
    mean = scores.T @ scores / len(scores)
    stderr = np.sqrt(((scores ** 2).T @ scores ** 2 / len(scores) - mean ** 2)
                     / len(scores))
    block = model.penalty_curvature(
        (dataset.states[:rows], dataset.actions[:rows]), np.full(rows, 0.05),
        anchor, 1e-3).dense() - 1e-3 * np.eye(model.n_params)
    assert np.all(np.abs(block - mean) <= 5.0 * stderr + 1e-12)


def _cell_categorical_kl(p, q):
    mask = p > 0
    if (q[mask] == 0).any():
        return float("inf")
    return float((p[mask] * (np.log(p[mask]) - np.log(q[mask]))).sum())


def _cell_categorical_dataset_kl(dataset, model, anchor):
    mod, anc = model.probs_all(), anchor.probs_all()
    return float(sum((count / dataset.n)
                     * _cell_categorical_kl(anc[s, a], mod[s, a])
                     for (s, a), count in dataset.cell_counts().items()))


def _categorical_kl_case(case, grad_triple, grad_dataset):
    """(dataset, model, anchor) for one anchor kind at K = 6 or K = 80."""
    kind, k = case.rsplit("-", 1)
    mdp = grad_triple[0] if k == "K6" else dirichlet_mdp(1, num_states=40)
    template = CategoricalWorldModel.uniform(mdp)
    if kind == "smoothed" and k == "K6":
        dataset, anchor = grad_dataset
    else:
        # few rows per cell, so the unsmoothed MLE misses outcomes
        dataset = sample_offline_dataset(mdp, "uniform", n=5 * mdp.num_states,
                                         seed=0)
        anchor = mle_fit(dataset, template,
                         alpha=0.5 if kind == "smoothed" else 0.0)
    logits = anchor.logits
    if kind in ("zeros", "misses"):
        # exact zeros where the floored MLE has no count
        logits = np.where(logits == LOGIT_FLOOR, -np.inf, logits)
        anchor = CategoricalWorldModel(logits, template.outcome_rewards,
                                       template.outcome_next_states)
    shift = 0.3 * np.random.default_rng(2).standard_normal(logits.shape)
    model_logits = logits + shift
    if kind == "misses":
        s, a = int(dataset.states[0]), int(dataset.actions[0])
        model_logits[s, a, np.argmax(anchor.probs_all()[s, a])] = -np.inf
    model = CategoricalWorldModel(model_logits, template.outcome_rewards,
                                  template.outcome_next_states)
    return dataset, model, anchor


@pytest.mark.filterwarnings("ignore:MLE fallback to uniform")
@pytest.mark.parametrize("case", ["smoothed-K6", "smoothed-K80", "mle-K6",
                                  "mle-K80", "zeros-K6", "zeros-K80",
                                  "misses-K6", "misses-K80"])
def test_categorical_dataset_kl_matches_the_cell_walk(case, grad_triple,
                                                      grad_dataset):
    dataset, model, anchor = _categorical_kl_case(case, grad_triple,
                                                  grad_dataset)
    anc, mod = anchor.probs_all(), model.probs_all()
    if not case.startswith("smoothed"):
        assert (anchor.logits <= LOGIT_FLOOR).any()
    for m in (model, anchor):
        expected = _cell_categorical_dataset_kl(dataset, m, anchor)
        assert dataset_kl(dataset, m, anchor) == expected
        assert (expected == np.inf) == (case.startswith("misses")
                                        and m is model)
    cells = [(s, a) for s in range(anc.shape[0]) for a in range(anc.shape[1])]
    assert np.array_equal(
        categorical_kl(anc, mod),
        np.array([_cell_categorical_kl(anc[c], mod[c])
                  for c in cells]).reshape(anc.shape[:2]))
