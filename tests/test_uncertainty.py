"""Tests for the uncertainty radii, set membership, and coverage rates."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from stackmbrl import uncertainty
from stackmbrl.models import (CategoricalWorldModel, DiagGaussianWorldModel,
                              OfflineDataset, SoftmaxPolicy, mle_fit,
                              sample_offline_dataset)
from stackmbrl.testbeds import gradient_mdp, small_mdp, sparse_reward_testbed
from stackmbrl.uncertainty import (GROWTH_COEF, LEADING_COEF,
                                   MIN_COVERAGE_TRIALS, CoverageReport,
                                   coverage_check, epsilon_tabular,
                                   kl_to_anchor, tabular_radius_value)

# radius for 4 cells, 100 transitions, alphabet 3, largest cell 30, delta 0.1,
# frozen from an independent evaluation of the closed-form expression
RADIUS_EXAMPLE = 0.47016980802282227

KL_EXAMPLE = 0.14384103622589042  # KL((.5,.5) || (.25,.75))


def counts_dataset(counts: dict) -> OfflineDataset:
    """Tabular dataset realizing the given {(s, a): count} occupancy."""
    states, actions = [], []
    for (s, a), count in counts.items():
        states += [s] * count
        actions += [a] * count
    n = len(states)
    return OfflineDataset(states=np.array(states), actions=np.array(actions),
                          rewards=np.zeros(n), next_states=np.zeros(n, dtype=int))


def single_cell_pair():
    """One categorical cell: anchor (.5, .5) against model (.25, .75)."""
    anchor = CategoricalWorldModel(np.log([[[0.5, 0.5]]]),
                                   np.array([0.0, 1.0]), np.array([0, 0]))
    model = CategoricalWorldModel(np.log([[[0.25, 0.75]]]),
                                  np.array([0.0, 1.0]), np.array([0, 0]))
    dataset = OfflineDataset(states=np.array([0, 0]), actions=np.array([0, 0]),
                             rewards=np.array([0.0, 1.0]),
                             next_states=np.array([0, 0]))
    return anchor, model, dataset


# ---------------------------------------------------------------------------
# tabular radius
# ---------------------------------------------------------------------------


def test_tabular_radius_frozen_value():
    """The closed form reproduces an independently evaluated instance."""
    independent = (4 / 100) * math.log(
        2.0 * 2.93 * 3 * (3.20 * 30 / 3) ** 1.5 * 4 / 0.1)
    assert independent == RADIUS_EXAMPLE
    assert tabular_radius_value(4, 100, 3, 30, 0.1) == RADIUS_EXAMPLE


def test_epsilon_tabular_reads_counts_from_dataset():
    dataset = counts_dataset({(0, 0): 30, (0, 1): 30, (1, 0): 25, (1, 1): 15})
    assert dataset.n == 100
    assert max(dataset.cell_counts().values()) == 30
    assert epsilon_tabular(dataset, 3, 0.1) == RADIUS_EXAMPLE


def test_tabular_radius_monotonicity():
    """Radius shrinks with more data, grows with the largest cell and with a
    tighter confidence level."""
    base = tabular_radius_value(4, 100, 3, 30, 0.1)
    assert tabular_radius_value(4, 200, 3, 30, 0.1) < base
    assert tabular_radius_value(4, 100, 3, 60, 0.1) > base
    assert tabular_radius_value(4, 100, 3, 30, 0.01) > base
    assert tabular_radius_value(4, 100, 3, 30, 0.999) < tabular_radius_value(
        4, 100, 3, 30, 0.01)
    assert tabular_radius_value(8, 100, 3, 30, 0.1) > base


def test_small_alphabet_rejected():
    dataset = counts_dataset({(0, 0): 50})
    with pytest.raises(ValueError, match="< 3"):
        epsilon_tabular(dataset, 2, 0.1)


def test_validity_window_lists_offending_cells():
    """A one-sample cell caps the usable alphabet at 1*3.20/e + 2 < 4."""
    dataset = counts_dataset({(0, 0): 50, (1, 1): 1})
    assert 4 > 1 * GROWTH_COEF / math.e + 2.0
    with pytest.raises(ValueError, match=r"\(1, 1\)") as excinfo:
        epsilon_tabular(dataset, 4, 0.1)
    assert "window K <=" in str(excinfo.value)
    assert "(0, 0)" not in str(excinfo.value)
    # a larger alphabet trips the well-sampled cell too
    with pytest.raises(ValueError, match=r"2 cell\(s\)"):
        epsilon_tabular(dataset, 80, 0.1)


@pytest.mark.parametrize("delta", [0.0, 1.0, -0.2, 1.7])
def test_delta_outside_unit_interval_rejected(delta):
    dataset = counts_dataset({(0, 0): 50})
    with pytest.raises(ValueError, match="delta"):
        tabular_radius_value(4, 100, 3, 30, delta)
    with pytest.raises(ValueError, match="delta"):
        epsilon_tabular(dataset, 3, delta)


# ---------------------------------------------------------------------------
# membership statistic
# ---------------------------------------------------------------------------


def test_kl_to_anchor_zero_exactly_at_anchor(small_dataset):
    dataset, anchor = small_dataset
    assert kl_to_anchor(dataset, anchor, anchor) <= 1e-12
    # a constant logit shift is a gauge move and must keep the KL at zero
    gauge = anchor.with_params(anchor.params.values + 0.05)
    assert kl_to_anchor(dataset, gauge, anchor) <= 1e-12
    bump = np.zeros(anchor.n_params)
    bump[0] = 0.05
    assert kl_to_anchor(dataset, anchor.with_params(
        anchor.params.values + bump), anchor) > 1e-5


def test_kl_to_anchor_single_cell_example():
    anchor, model, dataset = single_cell_pair()
    assert kl_to_anchor(dataset, model, anchor) == pytest.approx(
        KL_EXAMPLE, abs=1e-12)


def test_kl_to_anchor_layout_mismatch_rejected(small_dataset):
    dataset, anchor = small_dataset
    gaussian = DiagGaussianWorldModel(np.zeros((2, 3)), np.zeros(2),
                                      state_dim=1, action_dim=1)
    with pytest.raises(ValueError, match="layout"):
        kl_to_anchor(dataset, gaussian, anchor)


def test_kl_to_anchor_gaussian_matches_monte_carlo():
    """Closed-form dataset KL agrees with a 1e5-sample estimate of
    E[log anchor - log model] under the anchor, within four standard errors."""
    rng = np.random.default_rng(42)
    anchor = DiagGaussianWorldModel(rng.standard_normal((2, 3)) * 0.4,
                                    np.log([0.5, 0.8]), state_dim=1,
                                    action_dim=1)
    model = DiagGaussianWorldModel(rng.standard_normal((2, 3)) * 0.4,
                                   np.log([0.7, 0.6]), state_dim=1,
                                   action_dim=1)
    states = rng.standard_normal((5, 1))
    actions = rng.standard_normal((5, 1))
    dataset = OfflineDataset(states=states, actions=actions,
                             rewards=np.zeros(5),
                             next_states=np.zeros((5, 1)))
    closed = kl_to_anchor(dataset, model, anchor)

    n_per_row = 20_000
    feats = np.hstack([states, actions, np.ones((5, 1))])
    mu_a = feats @ anchor.weights.T
    mu_m = feats @ model.weights.T
    sd_a = np.exp(anchor.log_std)
    sd_m = np.exp(model.log_std)
    draws = mu_a[:, None, :] + sd_a * rng.standard_normal((5, n_per_row, 2))
    log_ratio = (  # log N(y|a) - log N(y|m), summed over output dims
        np.log(sd_m / sd_a)
        + (draws - mu_m[:, None, :]) ** 2 / (2 * sd_m ** 2)
        - (draws - mu_a[:, None, :]) ** 2 / (2 * sd_a ** 2)).sum(axis=2)
    estimate = log_ratio.mean()
    stderr = math.sqrt(log_ratio.var(axis=1, ddof=1).mean()
                       / (5 * n_per_row))
    assert abs(estimate - closed) <= 4 * stderr


def dataset_tv_squared(dataset: OfflineDataset, model: CategoricalWorldModel,
                       anchor: CategoricalWorldModel) -> float:
    """Dataset-weighted squared total variation between anchor and model."""
    mod = model.probs_all()
    anc = anchor.probs_all()
    total = 0.0
    for (s, a), count in dataset.cell_counts().items():
        tv = 0.5 * np.abs(anc[s, a] - mod[s, a]).sum()
        total += (count / dataset.n) * tv ** 2
    return float(total)


def test_tv_squared_single_cell_example():
    anchor, model, dataset = single_cell_pair()
    assert dataset_tv_squared(dataset, model, anchor) == pytest.approx(
        0.25 ** 2, abs=1e-15)


def test_tv_jensen_pinsker_chain(small_dataset):
    """(mean TV)^2 <= mean TV^2 <= KL/2 on a thousand random models, so any
    model inside the KL ball keeps its dataset-weighted squared TV inside
    the same radius."""
    dataset, anchor = small_dataset
    counts = dataset.cell_counts()
    anc = anchor.probs_all()
    rng = np.random.default_rng(2718)
    for _ in range(1000):
        model = anchor.with_params(
            anchor.params.values + rng.normal(scale=0.8,
                                              size=anchor.n_params))
        mod = model.probs_all()
        mean_tv = sum(count / dataset.n * 0.5 * np.abs(anc[s, a] - mod[s, a]).sum()
                      for (s, a), count in counts.items())
        tv_sq = dataset_tv_squared(dataset, model, anchor)
        kl = kl_to_anchor(dataset, model, anchor)
        assert mean_tv ** 2 <= tv_sq + 1e-15
        assert tv_sq <= 0.5 * kl + 1e-15


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------


def test_coverage_requires_enough_trials():
    assert MIN_COVERAGE_TRIALS == 100
    with pytest.raises(ValueError, match="99"):
        coverage_check(small_mdp(), "uniform", 50, 0.2, 99)


@pytest.mark.parametrize("n_workers", [0, -2])
def test_coverage_rejects_a_worker_count_below_one(n_workers):
    with pytest.raises(ValueError, match="n_workers"):
        coverage_check(small_mdp(), "uniform", 50, 0.2, 100,
                       n_workers=n_workers)


def fixed_radius(monkeypatch, value: float) -> None:
    """Make every trial's radius ``value``, on either radius route."""
    monkeypatch.setattr(uncertainty, "tabular_radius_value",
                        lambda *args: value)
    monkeypatch.setattr(uncertainty, "epsilon_tabular", lambda *args: value)


def test_coverage_vacuous_radius_covers_everything(monkeypatch):
    fixed_radius(monkeypatch, 1e6)
    report = coverage_check(small_mdp(), "uniform", 60, 0.2, 100)
    assert report.coverage == 1.0
    assert report.mean_epsilon == 1e6
    assert report.passed


def test_coverage_zero_radius_covers_nothing(monkeypatch):
    """The MLE essentially never coincides with the generating model, so a
    zero radius drives coverage to the floor."""
    fixed_radius(monkeypatch, 0.0)
    report = coverage_check(small_mdp(), "uniform", 60, 0.2, 100)
    assert report.coverage <= 0.02
    assert not report.passed
    assert report.mean_statistic > 0.0


def test_coverage_real_radius_meets_target():
    report = coverage_check(small_mdp(), "uniform", 200, 0.2, 150, seed=5)
    assert report.target == pytest.approx(0.9)
    assert report.binomial_std == pytest.approx(
        math.sqrt(0.9 * 0.1 / 150), rel=1e-12)
    assert report.passed
    assert report.coverage >= report.threshold
    assert report.mean_statistic < report.mean_epsilon


def test_coverage_is_deterministic():
    kwargs = dict(n_transitions=120, delta=0.2, n_trials=100, seed=11)
    serial = coverage_check(small_mdp(), "uniform", **kwargs)
    again = coverage_check(small_mdp(), "uniform", **kwargs)
    assert serial.to_dict() == again.to_dict()


def test_coverage_leaves_the_warning_filters_alone(grad_triple):
    """The call silences warnings only while it runs: it must not leave
    ``simplefilter("ignore")`` installed for the whole process."""
    before = list(warnings.filters)
    for seed in range(6):
        coverage_check(grad_triple[0], "uniform", n_transitions=400,
                       delta=0.2, n_trials=100, seed=seed)
        assert warnings.filters == before, seed


def per_trial_coverage(mdp, behavior_policy, n_transitions, delta, n_trials,
                       seed=0) -> dict:
    """``coverage_check`` as one trial at a time through the public
    sampler, fit, statistic and radius: the reference for the blocks."""
    true_model = CategoricalWorldModel.from_mdp(mdp)
    template = CategoricalWorldModel.uniform(mdp)

    rng = np.random.default_rng(seed)

    def run_trial():
        dataset = sample_offline_dataset(mdp, behavior_policy, n_transitions,
                                         seed=rng)
        anchor = mle_fit(dataset, template)
        statistic = kl_to_anchor(dataset, true_model, anchor)
        radius = uncertainty.epsilon_tabular(dataset, mdp.num_outcomes, delta)
        return statistic <= radius, radius, statistic

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = [run_trial() for _ in range(n_trials)]
    covered = np.array([r[0] for r in results])
    radii = np.array([r[1] for r in results])
    stats = np.array([r[2] for r in results])
    target = 1.0 - delta / 2.0
    return CoverageReport(
        delta=delta, trials=n_trials, coverage=float(covered.mean()),
        target=target,
        binomial_std=float(math.sqrt(target * (1.0 - target) / n_trials)),
        mean_epsilon=float(radii.mean()),
        mean_statistic=float(stats.mean())).to_dict()


def report_or_error(run):
    try:
        report = run()
    except ValueError as err:
        return str(err)
    return report if isinstance(report, dict) else report.to_dict()


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("make_mdp", [
    gradient_mdp, small_mdp, lambda: sparse_reward_testbed()[0]],
    ids=["gradient", "small", "sparse"])
def test_blocked_coverage_matches_the_per_trial_loop(make_mdp, seed,
                                                     monkeypatch):
    """Equal reports for partial last blocks (100, 101 and 203 trials of
    150, 400 and 1000 rows), each behavior-policy form, a fixed radius,
    and blocks of other sizes: trial t is row t of one stream, so the split
    into blocks and count tables must not move a bit. On ``sparse`` most
    transitions have probability 0, so every table has unvisited cells and
    its KL rows have different support counts."""
    mdp = make_mdp()
    policy = SoftmaxPolicy(np.random.default_rng(seed).normal(
        scale=0.5, size=(mdp.num_states, mdp.num_actions)))
    behaviors = ["uniform", policy, policy.probs_all()]
    cases = [(mdp, behaviors[(i + seed) % 3], n, 0.2, n_trials)
             for i, (n, n_trials) in enumerate([(150, 100), (400, 101),
                                                (1000, 203)])]
    args = (mdp, policy, 400, 0.1, 101)
    for case in cases + [args]:
        # a rare cell can fall outside the validity window: same message
        assert (report_or_error(lambda: coverage_check(*case, seed=seed))
                == report_or_error(
                    lambda: per_trial_coverage(*case, seed=seed)))
    default_blocks = report_or_error(lambda: coverage_check(*args, seed=seed))
    for block_rows in (1, 7 * 400):  # 101 blocks of 1; 14 of 7 and one of 3
        monkeypatch.setattr(uncertainty, "COVERAGE_BLOCK_ROWS", block_rows)
        assert report_or_error(
            lambda: coverage_check(*args, seed=seed)) == default_blocks
    fixed_radius(monkeypatch, 0.02)
    args = (mdp, "uniform", 150, 0.2, 100)
    assert (coverage_check(*args, seed=seed).to_dict()
            == per_trial_coverage(*args, seed=seed))


@pytest.mark.parametrize("n", [5, 12])
def test_blocked_coverage_raises_the_per_trial_window_error(n):
    with pytest.raises(ValueError, match="validity window") as per_trial:
        per_trial_coverage(gradient_mdp(), "uniform", n, 0.2, 100)
    with pytest.raises(ValueError, match="validity window") as blocked:
        coverage_check(gradient_mdp(), "uniform", n, 0.2, 100)
    assert str(blocked.value) == str(per_trial.value)


@pytest.mark.parametrize("n, seed, late", [(60, 5, 87), (70, 1, 65)])
def test_blocked_coverage_raises_a_late_trials_window_error(n, seed, late):
    """The first trial off the validity window lies in the second block of
    trials: each block's counts are checked, and the error is the one
    ``epsilon_tabular`` raises on that trial's own dataset."""
    mdp = gradient_mdp()
    rng = np.random.default_rng(seed)
    for _ in range(late):
        epsilon_tabular(sample_offline_dataset(mdp, "uniform", n, seed=rng),
                        mdp.num_outcomes, 0.2)
    with pytest.raises(ValueError, match="validity window") as per_trial:
        epsilon_tabular(sample_offline_dataset(mdp, "uniform", n, seed=rng),
                        mdp.num_outcomes, 0.2)
    assert late >= uncertainty.COVERAGE_BLOCK_ROWS // n  # past the first block
    with pytest.raises(ValueError) as blocked:
        coverage_check(mdp, "uniform", n, 0.2, 100, seed=seed)
    assert str(blocked.value) == str(per_trial.value)


def test_coverage_memory_is_bounded_by_the_block():
    """Trials are drawn in row-bounded blocks and scored in count tables of
    about ``COVERAGE_BLOCK_ROWS`` entries, so the peak does not grow with
    the trials: calls of 200 and 2,800 trials of 400 rows peak at about
    0.8 and 0.9 MB traced, where one count table of all 2,800 trials takes
    about 8.5 MB and one block of all 200 trials about 12 MB."""
    mdp = gradient_mdp()
    coverage_check(mdp, "uniform", 400, 0.2, 100)  # warm-up
    for n_trials in (200, 2800):
        tracemalloc.start()
        try:
            coverage_check(mdp, "uniform", 400, 0.2, n_trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6, n_trials


def test_coverage_report_arithmetic_and_roundtrip(tmp_path):
    report = CoverageReport(delta=0.2, trials=400, coverage=0.86, target=0.9,
                            binomial_std=0.015, mean_epsilon=0.5,
                            mean_statistic=0.1)
    assert report.threshold == pytest.approx(0.855)
    assert report.passed
    failing = CoverageReport(delta=0.2, trials=400, coverage=0.85, target=0.9,
                             binomial_std=0.015, mean_epsilon=0.5,
                             mean_statistic=0.1)
    assert not failing.passed

    path = tmp_path / "coverage.json"
    report.save(path)
    loaded = json.loads(path.read_text())
    assert loaded == report.to_dict()
    assert set(loaded) == {"delta", "trials", "coverage", "target",
                           "binomial_std", "threshold", "passed",
                           "mean_epsilon", "mean_statistic"}
