"""Concentration radii for the model uncertainty set, plus coverage checks.

The uncertainty set is { model : E_{(s,a)~D}[KL(anchor || model)] <= epsilon }
with the anchor fixed to the dataset MLE. This module computes epsilon for
the categorical model family from dataset counts alone, evaluates the
membership statistic, and measures empirical coverage (how often the true
generating model lands inside the set) over resampled datasets. The
datasets of one coverage measurement are consecutive row blocks of one
seeded generator, so each depends on its trial index alone. The affine
Gaussian family has no radius here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .estimators import dataset_kl
from .mdp import TabularMdp, write_json
from .models import (CategoricalWorldModel, OfflineDataset, _frequency_logits,
                     _offline_dataset, _offline_sampler, _softmax,
                     categorical_kl)

# constants of the categorical KL concentration inequality
GROWTH_COEF = 3.20    # multiplies (cell count / alphabet size) inside the power
LEADING_COEF = 2.93   # leading multiplicative constant

MIN_COVERAGE_TRIALS = 100
COVERAGE_BLOCK_ROWS = 4096  # scored at once: spreads numpy's per-call cost


def _check_delta(delta: float):
    if not 0.0 < delta < 1.0:
        raise ValueError(f"confidence level delta={delta} must be in (0, 1)")


def _largest_alphabet(count) -> float:
    """Largest alphabet size K valid at a cell seen ``count`` times."""
    return count * GROWTH_COEF / math.e + 2.0


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
    offenders = {cell: count for cell, count in counts.items()
                 if alphabet_size > _largest_alphabet(count)}
    if offenders:
        raise ValueError(
            "alphabet size K={} exceeds the validity window at {} cell(s): {}"
            .format(alphabet_size, len(offenders),
                    "; ".join(f"{cell}: count {count}, window K <= "
                              f"{_largest_alphabet(count):.2f}"
                              for cell, count in sorted(offenders.items()))))
    return tabular_radius_value(len(counts), dataset.n, alphabet_size,
                                max(counts.values()), delta)


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
        write_json(path, self.to_dict())


def coverage_check(mdp: TabularMdp, behavior_policy, n_transitions: int,
                   delta: float, n_trials: int, seed: int = 0,
                   n_workers: int = 1) -> CoverageReport:
    """Fraction of resampled datasets whose uncertainty set contains the truth.

    Each trial draws a fresh offline dataset from the true environment, fits
    the MLE anchor, computes the trial's own radius, and tests whether the
    generating model satisfies the membership statistic. One generator,
    ``default_rng(seed)``, draws every trial: trial t is row t of the
    ``(n_trials, 3, n_transitions)`` uniforms that ``sample_offline_dataset``
    reads, drawn in order in blocks of about ``COVERAGE_BLOCK_ROWS`` dataset
    rows. So a trial's draws depend on its index alone, and the report not
    on the block size. Each block is scored with the bits of one trial at a
    time (``sample_offline_dataset``, ``mle_fit``, ``kl_to_anchor``,
    ``epsilon_tabular``). ``n_workers`` is unused and must be at least 1;
    it stays only for callers that still pass it.
    """
    _check_delta(delta)
    if n_trials < MIN_COVERAGE_TRIALS:
        raise ValueError(f"need at least {MIN_COVERAGE_TRIALS} trials for a "
                         f"meaningful rate, got {n_trials}")
    if n_transitions < 1:
        raise ValueError("dataset must contain at least one transition")
    if n_workers < 1:
        raise ValueError(f"n_workers must be at least 1, got {n_workers}")
    n, k_dim = n_transitions, mdp.num_outcomes
    true_model = CategoricalWorldModel.from_mdp(mdp)
    true_probs = true_model.probs_all()
    sample = _offline_sampler(mdp, behavior_policy)
    alphabet = true_model.outcome_index(*mdp.outcome_table())  # the MLE's lookup
    rng = np.random.default_rng(seed)
    per_block = max(1, COVERAGE_BLOCK_ROWS // n)
    results = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for start in range(0, n_trials, per_block):
            u = rng.random((min(per_block, n_trials - start), 3, n))
            rows = sample(u.transpose(1, 0, 2).reshape(3, -1))
            for t, (stat, n_cells, n_min, n_max) in enumerate(
                    _block_statistics(true_probs, alphabet, *rows, n)):
                if 3 <= k_dim <= _largest_alphabet(n_min):
                    radius = tabular_radius_value(n_cells, n, k_dim, n_max,
                                                  delta)
                else:  # off the window, epsilon_tabular raises naming the cells
                    dataset = _offline_dataset(
                        mdp, *(r[t * n:(t + 1) * n] for r in rows))
                    radius = epsilon_tabular(dataset, k_dim, delta)
                results.append((stat <= radius, radius, stat))

    covered, radii, stats = (np.array(column) for column in zip(*results))
    target = 1.0 - delta / 2.0
    return CoverageReport(
        delta=delta, trials=n_trials, coverage=float(covered.mean()),
        target=target,
        binomial_std=float(math.sqrt(target * (1.0 - target) / n_trials)),
        mean_epsilon=float(radii.mean()), mean_statistic=float(stats.mean()))


def _block_statistics(true_probs: np.ndarray, alphabet: np.ndarray,
                      states: np.ndarray, actions: np.ndarray,
                      codes: np.ndarray, n: int):
    """(statistic, distinct cells, smallest and largest cell count) of each
    of the concatenated ``n``-row datasets, from one grouping of the rows.
    Each statistic sums its terms in ``dataset_kl``'s order, along a row
    padded with -0.0: unlike +0.0, it is the exact additive identity."""
    s_dim, a_dim, k_dim = true_probs.shape
    rows = np.arange(len(states))
    cell = ((rows // n) * s_dim + states) * a_dim + actions
    first = np.full((len(rows) // n) * s_dim * a_dim, len(rows))
    np.minimum.at(first, cell, rows)
    cells = cell[first[cell] == rows]  # by trial, in first-appearance order
    rank = np.empty_like(first)
    rank[cells] = np.arange(len(cells))
    counts = np.bincount(rank[cell] * k_dim + alphabet[codes],
                         minlength=len(cells) * k_dim).reshape(-1, k_dim)
    cell_n = counts.sum(axis=1)
    trial, pair = np.divmod(cells, s_dim * a_dim)
    kl = categorical_kl(_softmax(_frequency_logits(counts)),
                        true_probs.reshape(-1, k_dim)[pair])
    n_cells = np.bincount(trial)
    start = np.cumsum(n_cells) - n_cells
    terms = np.full((len(n_cells), n_cells.max()), -0.0)
    terms[trial, np.arange(len(cells)) - start[trial]] = cell_n / n * kl
    return zip(np.add.accumulate(terms, axis=1)[:, -1].tolist(),
               n_cells.tolist(), np.minimum.reduceat(cell_n, start).tolist(),
               np.maximum.reduceat(cell_n, start).tolist())
