"""Concentration radii for the model uncertainty set, plus coverage checks.

The uncertainty set is { model : E_{(s,a)~D}[KL(anchor || model)] <= epsilon }
with the anchor fixed to the dataset MLE. This module computes epsilon for
the categorical model family from dataset counts alone, evaluates the
membership statistic, and measures empirical coverage (how often the true
generating model lands inside the set) over resampled datasets, read from
one seeded generator and scored from bounded count tables of whole trials.
The affine Gaussian family has no radius here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

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
COVERAGE_BLOCK_ROWS = 4096  # rows drawn, and table entries scored, at once


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
    if model.params.layout != anchor.params.layout:
        raise ValueError(f"model layout {model.params.layout} does not match "
                         f"anchor layout {anchor.params.layout}")
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
        return dict(asdict(self), threshold=self.threshold, passed=self.passed)

    def save(self, path):
        write_json(path, self.to_dict())


def coverage_check(mdp: TabularMdp, behavior_policy, n_transitions: int,
                   delta: float, n_trials: int, seed: int = 0,
                   n_workers: int = 1) -> CoverageReport:
    """Fraction of resampled datasets whose uncertainty set contains the truth.

    Each trial draws a fresh offline dataset from the true environment, fits
    the MLE anchor, computes the trial's own radius, and tests whether the
    generating model satisfies the membership statistic. Trial t is row t of
    the ``(n_trials, 3, n_transitions)`` uniforms of ``default_rng(seed)``,
    drawn in blocks of about ``COVERAGE_BLOCK_ROWS`` rows that only count
    into tables of about as many entries, each scored at once with one
    trial's bits at a time: neither size moves the report. ``n_workers`` is
    unused and must be at least 1 (kept for old callers).
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
    true_rows = true_model.probs_all().reshape(-1, k_dim)  # row s * A + a
    sample = _offline_sampler(mdp, behavior_policy)
    alphabet = true_model.outcome_index(*mdp.outcome_table())  # the MLE's lookup
    radius = functools.cache(lambda n_cells, n_max: tabular_radius_value(
        n_cells, n, k_dim, n_max, delta))
    rng = np.random.default_rng(seed)
    per_block = max(1, COVERAGE_BLOCK_ROWS // n)
    per_table = per_block * max(1, COVERAGE_BLOCK_ROWS
                                // (per_block * true_rows.size))
    row_cell = np.arange(per_block * n) // n * len(true_rows)  # trial * S * A
    scores = []
    for table in range(0, n_trials, per_table):
        counts = np.empty((min(per_table, n_trials - table), true_rows.size),
                          dtype=np.int64)
        first = np.full((len(counts), len(true_rows)), len(counts) * n)
        for start in range(0, len(counts), per_block):
            u = rng.random((min(per_block, len(counts) - start), 3, n))
            rows = sample(u.transpose(1, 0, 2).reshape(3, -1))
            block, size = slice(start, start + len(u)), len(u) * n
            cell = row_cell[:size] + rows[0] * mdp.num_actions + rows[1]
            counts[block] = np.bincount(
                cell * k_dim + alphabet[rows[2]],
                minlength=counts[block].size).reshape(len(u), -1)
            np.minimum.at(first[block].reshape(-1), cell,
                          np.arange(start * n, start * n + size))
            cell_n = np.bincount(cell, minlength=first[block].size)
            off = (k_dim < 3) | (cell_n > 0) & (k_dim > _largest_alphabet(cell_n))
            if off.any():  # epsilon_tabular raises naming the cells
                t = off.argmax() // len(true_rows) * n
                epsilon_tabular(_offline_dataset(
                    mdp, *(r[t:t + n] for r in rows)), k_dim, delta)
        scores.append(_table_scores(true_rows, counts, first, n, radius))
    stats, radii = (np.concatenate(column) for column in zip(*scores))
    target = 1.0 - delta / 2.0
    return CoverageReport(
        delta=delta, trials=n_trials, coverage=float((stats <= radii).mean()),
        target=target,
        binomial_std=float(math.sqrt(target * (1.0 - target) / n_trials)),
        mean_epsilon=float(radii.mean()), mean_statistic=float(stats.mean()))


def _table_scores(true_rows: np.ndarray, counts: np.ndarray,
                  first: np.ndarray, n: int, radius):
    """(statistic, ``radius(distinct cells, largest cell count)``) of each
    trial of a count table (trials, S * A * K) whose cells' first rows are
    ``first`` (trials, S * A), larger than any row where a cell is unseen.
    A statistic sums its terms in ``dataset_kl``'s order, first appearance,
    along a row padded with -0.0: unlike +0.0, the exact additive identity."""
    cells = np.argsort(first, axis=None)[:np.count_nonzero(
        first < len(first) * n)]  # by trial, then by first row
    counts = counts.reshape(-1, true_rows.shape[1])[cells]
    cell_n = counts.sum(axis=1)
    trial, pair = np.divmod(cells, len(true_rows))
    kl = categorical_kl(_softmax(_frequency_logits(counts)), true_rows[pair])
    n_cells = np.bincount(trial)
    start = np.cumsum(n_cells) - n_cells
    terms = np.full((len(n_cells), n_cells.max()), -0.0)
    terms[trial, np.arange(len(cells)) - start[trial]] = cell_n / n * kl
    return (np.add.accumulate(terms, axis=1)[:, -1], list(map(
        radius, n_cells.tolist(), np.maximum.reduceat(cell_n, start).tolist())))
