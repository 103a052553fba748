"""Concentration radii for the model uncertainty set, plus coverage checks.

The uncertainty set is { model : E_{(s,a)~D}[KL(anchor || model)] <= epsilon }
with the anchor fixed to the dataset MLE. This module computes epsilon for
the two supported model families from dataset counts alone, evaluates the
membership statistic, and measures empirical coverage (how often the true
generating model lands inside the set) over resampled datasets.
"""

from __future__ import annotations

import json
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .estimators import dataset_kl
from .mdp import TabularMdp
from .models import (CategoricalWorldModel, OfflineDataset, mle_fit,
                     sample_offline_dataset)

# constants of the categorical KL concentration inequality
GROWTH_COEF = 3.20    # multiplies (cell count / alphabet size) inside the power
LEADING_COEF = 2.93   # leading multiplicative constant

MIN_COVERAGE_TRIALS = 100


def _check_delta(delta: float):
    if not 0.0 < delta < 1.0:
        raise ValueError(f"confidence level delta={delta} must be in (0, 1)")


# ---------------------------------------------------------------------------
# tabular radius
# ---------------------------------------------------------------------------


def tabular_radius_value(n_cells: int, n_total: int, alphabet_size: int,
                         n_max: int, delta: float) -> float:
    """Raw radius formula from summary counts.

    epsilon = (D/N) * ln( 2 * c1 * K * (c0 * n_max / K)^(K/2) * D / delta )
    with D the number of distinct visited cells, N the total transition
    count, K the outcome alphabet size and n_max the largest cell count.
    """
    _check_delta(delta)
    inner = (2.0 * LEADING_COEF * alphabet_size
             * (GROWTH_COEF * n_max / alphabet_size) ** (0.5 * alphabet_size)
             * n_cells / delta)
    return (n_cells / n_total) * math.log(inner)


def epsilon_tabular(dataset: OfflineDataset, alphabet_size: int,
                    delta: float) -> float:
    """Uncertainty radius for a categorical model class from dataset counts.

    The underlying inequality is only valid for alphabet sizes K with
    3 <= K <= count * GROWTH_COEF / e + 2 at every visited cell; outside
    that window the call refuses (extrapolating the inequality would be
    unsound) and the error lists the offending cells.
    """
    _check_delta(delta)
    if alphabet_size < 3:
        raise ValueError(f"alphabet size {alphabet_size} < 3 is outside the "
                         "validity window of the concentration inequality")
    counts = dataset.cell_counts()
    if not counts:
        raise ValueError("dataset has no transitions")
    offenders = {cell: count for cell, count in counts.items()
                 if alphabet_size > count * GROWTH_COEF / math.e + 2.0}
    if offenders:
        raise ValueError(
            "alphabet size K={} exceeds the validity window at {} cell(s): {}"
            .format(alphabet_size, len(offenders),
                    "; ".join(f"{cell}: count {count}, window K <= "
                              f"{count * GROWTH_COEF / math.e + 2.0:.2f}"
                              for cell, count in sorted(offenders.items()))))
    return tabular_radius_value(len(counts), dataset.n, alphabet_size,
                                max(counts.values()), delta)


# ---------------------------------------------------------------------------
# diagonal-Gaussian radius
# ---------------------------------------------------------------------------


def gaussian_cell_bound(n: int, delta_prime: float) -> float:
    """Finite-sample KL bound for one per-dimension Gaussian MLE cell.

    Combines the variance-ratio window [x1, x2] (each endpoint pushed through
    f(x) = x - log x - 1) with the mean-deviation term; valid only when the
    lower endpoint x1 stays positive.
    """
    if n < 2:
        raise ValueError(f"cell count n={n} < 2: per-cell Gaussian MLE needs "
                         "at least two samples")
    _check_delta(delta_prime)
    log4 = math.log(4.0 / delta_prime)
    log2 = math.log(2.0 / delta_prime)
    half_width = 2.0 * math.sqrt((n - 1) * log4 / n ** 2)
    x1 = (n - 1) / n - half_width
    x2 = (n - 1) / n + half_width + 2.0 * log4 / n
    if x1 <= 0.0:
        raise ValueError(
            f"cell count n={n} too small at this confidence: the "
            f"variance-ratio lower endpoint {x1:.4f} is not positive, "
            "making the bound vacuous")

    def f(x: float) -> float:
        return x - math.log(x) - 1.0

    mean_term = (1.0 + 2.0 * math.sqrt(log2) + 2.0 * log2) / n
    return 0.5 * (max(f(x1), f(x2)) + mean_term)


def epsilon_gaussian(dataset: OfflineDataset, state_dim: int,
                     delta: float) -> float:
    """Uncertainty radius for per-cell diagonal-Gaussian models.

    Each visited cell contributes (count/N) * (d+1) * per-dimension bound,
    with the per-dimension confidence split as
    delta' = delta / (2 * n_cells * (d+1)).
    """
    _check_delta(delta)
    if state_dim < 0:
        raise ValueError("state_dim must be non-negative")
    counts = dataset.cell_counts()
    if not counts:
        raise ValueError("dataset has no transitions")
    out_dim = state_dim + 1
    delta_prime = delta / (2.0 * len(counts) * out_dim)
    total = 0.0
    for cell, count in sorted(counts.items()):
        try:
            cell_bound = gaussian_cell_bound(count, delta_prime)
        except ValueError as err:
            raise ValueError(f"cell {cell}: {err}") from err
        total += (count / dataset.n) * out_dim * cell_bound
    return total


# ---------------------------------------------------------------------------
# membership statistic
# ---------------------------------------------------------------------------


def kl_to_anchor(dataset: OfflineDataset, model, anchor) -> float:
    """Dataset-weighted KL(anchor || model): the set-membership statistic."""
    layout_m = tuple((name, start, stop) for name, start, stop
                     in model.params.layout)
    layout_a = tuple((name, start, stop) for name, start, stop
                     in anchor.params.layout)
    if layout_m != layout_a:
        raise ValueError(f"model layout {layout_m} does not match anchor "
                         f"layout {layout_a}")
    return dataset_kl(dataset, model, anchor)


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


# ---------------------------------------------------------------------------
# coverage measurement
# ---------------------------------------------------------------------------


@dataclass
class CoverageReport:
    delta: float
    trials: int
    coverage: float
    target: float            # 1 - delta/2
    binomial_std: float      # std of the empirical rate at the target
    mean_epsilon: float
    mean_statistic: float

    @property
    def threshold(self) -> float:
        """Smallest acceptable empirical coverage: target - 3 std."""
        return self.target - 3.0 * self.binomial_std

    @property
    def passed(self) -> bool:
        return self.coverage >= self.threshold

    def to_dict(self) -> dict:
        return {"delta": self.delta, "trials": self.trials,
                "coverage": self.coverage, "target": self.target,
                "binomial_std": self.binomial_std,
                "threshold": self.threshold, "passed": self.passed,
                "mean_epsilon": self.mean_epsilon,
                "mean_statistic": self.mean_statistic}

    def save(self, path):
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")


def coverage_check(mdp: TabularMdp, behavior_policy, n_transitions: int,
                   delta: float, n_trials: int, seed: int = 0,
                   epsilon_fn=None, n_workers: int = 1) -> CoverageReport:
    """Fraction of resampled datasets whose uncertainty set contains the truth.

    Each trial draws a fresh offline dataset from the true environment, fits
    the MLE anchor, computes the trial's own radius, and tests whether the
    generating model satisfies the membership statistic. Trials use seeds
    derived from ``seed`` and reduce deterministically regardless of worker
    count.
    """
    _check_delta(delta)
    if n_trials < MIN_COVERAGE_TRIALS:
        raise ValueError(f"need at least {MIN_COVERAGE_TRIALS} trials for a "
                         f"meaningful rate, got {n_trials}")
    true_model = CategoricalWorldModel.from_mdp(mdp)
    template = CategoricalWorldModel.uniform(mdp)
    if epsilon_fn is None:
        def epsilon_fn(dataset):
            return epsilon_tabular(dataset, mdp.num_outcomes, delta)

    trial_seeds = np.random.SeedSequence(seed).spawn(n_trials)

    def run_trial(trial_seed) -> tuple[bool, float, float]:
        dataset = sample_offline_dataset(
            mdp, behavior_policy, n_transitions,
            seed=np.random.default_rng(trial_seed))
        anchor = mle_fit(dataset, template)
        statistic = kl_to_anchor(dataset, true_model, anchor)
        radius = epsilon_fn(dataset)
        return statistic <= radius, radius, statistic

    # The filter is process-wide and ``catch_warnings`` is not thread-safe,
    # so it is entered once here, in the calling thread, never in a worker.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if n_workers > 1:
            with ThreadPoolExecutor(max_workers=n_workers) as pool:
                results = list(pool.map(run_trial, trial_seeds))
        else:
            results = [run_trial(ts) for ts in trial_seeds]

    covered = np.array([r[0] for r in results])
    radii = np.array([r[1] for r in results])
    stats = np.array([r[2] for r in results])
    target = 1.0 - delta / 2.0
    return CoverageReport(
        delta=delta, trials=n_trials, coverage=float(covered.mean()),
        target=target,
        binomial_std=float(math.sqrt(target * (1.0 - target) / n_trials)),
        mean_epsilon=float(radii.mean()), mean_statistic=float(stats.mean()))
