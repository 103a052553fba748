"""What the benchmark measures: its workloads and every metric it reports.

``BENCHMARK.json`` at the repository root lists the same workloads and
metrics; a test keeps the two in step.

End-to-end metrics (untraced run) apply to every workload. An operation is
one ``train_iteration`` or one ``coverage_check`` call; a job is the
workload's fixed budget of operations plus its closing evaluation. ``op_s``
and ``job_s`` are means over the timed operations and jobs. On a shared
2-vCPU virtual machine the speed switches between two levels every few
seconds; a median then jumps between the levels while the mean moves with
the time spent in each, and in five-seed trials of 20-25 s runs the
median's spread across seeds was 1.4-1.7 times the mean's. The printed
report adds the medians and tail percentiles.

Per-layer metrics (traced run) are totals per job, medians over the traced
jobs. A layer a workload never calls reads 0.
"""

from __future__ import annotations

# name, why it is a workload of its own
WORKLOADS = (
    ("tabular-large", "synthetic MDP S=40 A=3 R=2 h=10, n_phi=9600: score "
                      "table, factor assembly and Woodbury solve dominate"),
    ("coverage", "repeated coverage_check calls: fresh dataset, MLE fit, "
                 "radius and KL per trial, no reuse"),
)

# Runnable with run.py, but left out of BENCHMARK.json as unsteady.
# The host's speed drifts between levels about 20-30% apart that last
# 40-160 s, so a run's mean lands on one level or the other. Interpreter-
# bound workloads feel it most: over ten seeds in 36 s runs tabular-small
# spread 0.22 (op_s) and 0.27 (job_s) while tabular-large spread 0.05-0.10.
# Tracking's default run diverges, and how many iterations abort depends
# on the seed, so its cost per iteration differs up to 2.5x between seeds
# (op_s spread 0.56); on some seeds the trainer raises instead of
# aborting, which the benchmark reports as failed operations.
EXTRA_WORKLOADS = (
    ("tabular-small", "gradient testbed, n_phi=36: per-call overhead and "
                      "dataset KL terms dominate; worst-case certificate"),
    ("tracking", "continuous task: per-row Gaussian model calls; the default "
                 "run diverges and aborts most iterations"),
)

# name, unit, better, bound (share of the parent's median)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_s", "s", "lower", 0.25),
    ("job_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

SOLVER_SIZES = (100, 300, 1000, 3000, 10000, 30000, 100000)

_SPANS = (
    # name, unit
    ("trainer.train_iteration.self_s", "s"),
    ("trainer.collect_rollouts.s", "s"),
    ("trainer.train_critic.s", "s"),
    ("trainer.worst_case_return.self_s", "s"),
    ("trainer.exact_return_model_gradient.s", "s"),
    ("trainer.episode_returns.s", "s"),
    ("estimators.model_score_table.s", "s"),
    ("estimators.model_score_table.calls", "count"),
    ("estimators.model_score_table.bytes", "B"),
    ("estimators.policy_score_table.s", "s"),
    ("estimators.factors_from_batch.self_s", "s"),
    ("estimators.dataset_kl.s", "s"),
    ("estimators.dataset_kl.calls", "count"),
    ("estimators.dataset_dual_coupling.s", "s"),
    ("estimators.dataset_dual_coupling.calls", "count"),
    ("models.OfflineDataset.cell_counts.s", "s"),
    ("models.OfflineDataset.cell_counts.calls", "count"),
    ("models.OfflineDataset.cell_counts.rows", "count"),
    ("models.score.calls", "count"),
    ("models.log_prob.calls", "count"),
    ("models.sample.calls", "count"),
    ("models.mle_fit.s", "s"),
    ("models.sample_offline_dataset.s", "s"),
    ("mdp.sample_trajectory.s", "s"),
    ("mdp.sample_trajectory.calls", "count"),
    ("mdp.sample_tabular_batch.s", "s"),
    ("mdp.exact_return.s", "s"),
    ("mdp.exact_return.calls", "count"),
    ("woodbury.WoodburySolver.build.s", "s"),
    ("woodbury.WoodburySolver.build.calls", "count"),
    ("woodbury.WoodburySolver.build.errors", "count"),
    ("woodbury.WoodburySolver.solve.s", "s"),
    ("woodbury.WoodburySolver.solve.calls", "count"),
    ("woodbury.factors.bytes", "B"),
    ("uncertainty.epsilon_tabular.s", "s"),
    ("uncertainty.kl_to_anchor.s", "s"),
    ("uncertainty.coverage_check.self_s", "s"),
)

PER_LAYER = (
    tuple((name, unit, "lower") for name, unit in _SPANS)
    + tuple((f"layer.{layer}.self_s", "s", "lower")
            for layer in ("trainer", "estimators", "models", "woodbury",
                          "mdp", "uncertainty"))
    + (("trainer.aborted_frac", "ratio", "lower"),
       ("trace.overhead_frac", "ratio", "lower"))
    + tuple((f"woodbury.scaling.{size}.s", "s", "lower")
            for size in SOLVER_SIZES)
    + (("woodbury.scaling.slope_s_per_param", "s/param", "lower"),
       ("woodbury.scaling.r2", "ratio", "higher"))
)
