"""Command-line harness: data generation, fitting, training, evaluation,
and the oracle and coverage gates.

Every subcommand writes its artifacts under a run directory together with a
manifest (config snapshot, seed, code digest, results) and a ``run.log``
sidecar. The sidecar is the only file that carries wall-clock content, so
rerunning a subcommand with the same config and seed reproduces every other
output byte for byte.

Subcommands
-----------
gen-data        roll a behavior policy in the true environment, save CSV
fit-model       maximum-likelihood anchor from a dataset, plus its radius
train           full training run (checkpoints, trace, manifest)
evaluate        paired clean/noisy deployment returns for a checkpoint
grad-check      every exposed estimator against an independent oracle
coverage        uncertainty-set coverage rate over dataset resamples
dynamics-demo   closed-form game integrated under the coupled update rules
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .dynamics import DynamicsState, LearningRates, run_dynamics
from .estimators import (ESTIMATOR_NAMES, dataset_kl, exact_estimator_targets,
                         model_score_table)
from .mdp import ContinuousMdp, TabularMdp, dp_optimal_policy
from .models import (
    CategoricalWorldModel,
    DiagGaussianWorldModel,
    OfflineDataset,
    ParamVector,
    SoftmaxPolicy,
    mle_fit,
    rollout_dataset,
    sample_offline_dataset,
)
from .oracles import (
    central_difference,
    central_difference_mixed,
    enumerate_paths,
    mixed_return_fn,
    model_return_fn,
    policy_return_fn,
)
from .testbeds import (
    CONTINUOUS_TESTBEDS,
    TABULAR_TESTBEDS,
    coupling_game,
    coupling_kkt,
    gradient_testbed,
    load_environment,
    tracking_behavior_policy,
)
from .trainer import (
    DYNAMICS_MODES,
    TrainerConfig,
    code_version,
    episode_returns,
    load_checkpoint,
    train,
    vanilla_config,
)
from .uncertainty import coverage_check, epsilon_gaussian, epsilon_tabular

GRAD_CHECK_TOL = 1e-5
# the multiplier, radius and dataset size grad-check evaluates the penalty at
GRAD_CHECK_LAM = 0.7
GRAD_CHECK_EPSILON = 0.05
GRAD_CHECK_ROWS = 300
ALGO_CHOICES = DYNAMICS_MODES + ("vanilla",)


# ---------------------------------------------------------------------------
# manifests and reports
# ---------------------------------------------------------------------------


@dataclass
class RunManifest:
    """Reproducibility record for one subcommand invocation.

    Wall-clock timestamps live in the run.log sidecar, not here, so the
    manifest itself is a pure function of (subcommand, config, seed).
    """

    manifest_id: str
    subcommand: str
    config: dict
    seed: int
    code_version: str
    results: dict = field(default_factory=dict)
    timestamps: str = "recorded in run.log"

    def to_dict(self) -> dict:
        return {"manifest_id": self.manifest_id, "subcommand": self.subcommand,
                "config": self.config, "seed": self.seed,
                "code_version": self.code_version, "results": self.results,
                "timestamps": self.timestamps}

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1,
                                         sort_keys=True))


def make_manifest(subcommand: str, config: dict, seed: int,
                  results: dict | None = None) -> RunManifest:
    key = json.dumps([subcommand, config, seed], sort_keys=True, default=str)
    manifest_id = hashlib.sha256(key.encode()).hexdigest()[:12]
    return RunManifest(manifest_id=manifest_id, subcommand=subcommand,
                       config=config, seed=seed, code_version=code_version(),
                       results=results or {})


@dataclass
class EvalReport:
    """Paired deployment evaluation: one clean and one noisy return per
    episode, produced from identical random streams."""

    noise_fraction: float
    episodes: int
    clean_returns: list
    noisy_returns: list
    manifest_id: str = ""

    def __post_init__(self):
        if self.episodes < 1:
            raise ValueError("need at least one evaluation episode")
        if not (len(self.clean_returns) == len(self.noisy_returns)
                == self.episodes):
            raise ValueError("per-episode returns must match episode count")

    @property
    def clean_mean(self) -> float:
        return float(np.mean(self.clean_returns))

    @property
    def noisy_mean(self) -> float:
        return float(np.mean(self.noisy_returns))

    @property
    def degradation(self) -> float:
        return self.clean_mean - self.noisy_mean

    def to_dict(self) -> dict:
        return {"noise_fraction": self.noise_fraction,
                "episodes": self.episodes,
                "clean_returns": self.clean_returns,
                "noisy_returns": self.noisy_returns,
                "clean_mean": self.clean_mean,
                "clean_std": float(np.std(self.clean_returns)),
                "noisy_mean": self.noisy_mean,
                "noisy_std": float(np.std(self.noisy_returns)),
                "degradation": self.degradation,
                "manifest_id": self.manifest_id}

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1,
                                         sort_keys=True))


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _resolve_env(spec: str):
    if spec in TABULAR_TESTBEDS:
        return TABULAR_TESTBEDS[spec]()[0]
    if spec in CONTINUOUS_TESTBEDS:
        return CONTINUOUS_TESTBEDS[spec]()
    path = Path(spec)
    if path.exists():
        return load_environment(path)
    known = sorted(TABULAR_TESTBEDS) + sorted(CONTINUOUS_TESTBEDS)
    raise ValueError(f"unknown environment {spec!r}; bundled: {known}, "
                     "or pass a saved environment file")


def _prepare_out(args, subcommand: str) -> Path:
    """Create the run directory; called once the inputs are accepted, so a
    rejected run leaves none behind."""
    out = Path(args.out) if args.out else Path(f"run-{subcommand}")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_log(out: Path, started: float) -> None:
    stamp = datetime.now(timezone.utc).isoformat()
    (out / "run.log").write_text(
        f"finished at {stamp} after {time.time() - started:.2f}s\n")


def _behavior_policy(env, spec: str, greedy_eps: float):
    """Resolve a behavior-policy tier: uniform, epsilon-greedy around the
    DP-optimal actions, or a saved policy parameter file."""
    if isinstance(env, ContinuousMdp):
        if spec not in ("bundled", "uniform"):
            raise ValueError("continuous environments ship one behavior "
                             "controller; use --behavior bundled")
        return tracking_behavior_policy(env), "bundled"
    if spec == "uniform":
        return "uniform", "uniform"
    if spec == "greedy":
        if not 0.0 <= greedy_eps <= 1.0:
            raise ValueError("--greedy-eps must lie in [0, 1]")
        greedy = dp_optimal_policy(env)
        probs = np.full((env.num_states, env.num_actions),
                        greedy_eps / env.num_actions)
        probs[np.arange(env.num_states), greedy] += 1.0 - greedy_eps
        return probs, f"greedy(eps={greedy_eps})"
    path = Path(spec)
    if path.exists():
        params = ParamVector.load(path)
        policy = SoftmaxPolicy.zeros(env.num_states,
                                     env.num_actions).with_params(params)
        return policy, f"loaded({path.name})"
    raise ValueError(f"unknown behavior spec {spec!r}; use uniform, greedy, "
                     "or a saved policy parameter file")


def _dataset_with_rows(env, behavior, n_rows: int, seed: int) -> OfflineDataset:
    """Roll enough whole episodes for n_rows transitions, then trim."""
    episodes = max(1, -(-n_rows // env.horizon))
    data = rollout_dataset(env, behavior, n_episodes=episodes, seed=seed)
    return OfflineDataset(states=np.asarray(data.states)[:n_rows],
                          actions=np.asarray(data.actions)[:n_rows],
                          rewards=np.asarray(data.rewards)[:n_rows],
                          next_states=np.asarray(data.next_states)[:n_rows])


def _anchor_for(env, dataset: OfflineDataset, alpha: float):
    if isinstance(env, TabularMdp):
        return mle_fit(dataset, CategoricalWorldModel.uniform(env),
                       alpha=alpha)
    return mle_fit(dataset,
                   DiagGaussianWorldModel.zeros(env.state_dim, env.action_dim))


# ---------------------------------------------------------------------------
# gen-data / fit-model
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    started = time.time()
    env = _resolve_env(args.env)
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    behavior, tier = _behavior_policy(env, args.behavior, args.greedy_eps)
    dataset = _dataset_with_rows(env, behavior, args.n, args.seed)
    out = _prepare_out(args, "gen-data")
    dataset.save_csv(out / "dataset.csv")
    config = {"env": args.env, "behavior": args.behavior,
              "greedy_eps": args.greedy_eps, "n": args.n}
    manifest = make_manifest("gen-data", config, args.seed,
                             {"behavior_tier": tier, "rows": dataset.n,
                              "distinct_cells": dataset.num_cells()})
    manifest.save(out / "manifest.json")
    _write_log(out, started)
    print(f"wrote {dataset.n} transitions ({tier}) to {out / 'dataset.csv'}")
    return 0


def cmd_fit_model(args) -> int:
    started = time.time()
    env = _resolve_env(args.env)
    dataset = OfflineDataset.load_csv(args.dataset)
    anchor = _anchor_for(env, dataset, args.alpha)
    out = _prepare_out(args, "fit-model")
    anchor.params.save(out / "model.json")
    results = {"rows": dataset.n, "n_params": anchor.n_params}
    try:
        if isinstance(env, TabularMdp):
            results["radius"] = epsilon_tabular(dataset, env.num_outcomes,
                                                args.delta)
        else:
            results["radius"] = epsilon_gaussian(dataset, env.state_dim,
                                                 args.delta)
    except ValueError as err:
        results["radius_refused"] = str(err)
    config = {"env": args.env, "dataset": str(args.dataset),
              "alpha": args.alpha, "delta": args.delta}
    manifest = make_manifest("fit-model", config, args.seed, results)
    manifest.save(out / "manifest.json")
    _write_log(out, started)
    print(f"fitted anchor ({anchor.n_params} params) from {dataset.n} rows"
          + (f", radius {results['radius']:.5f}" if "radius" in results
             else " (radius refused)"))
    return 0


# ---------------------------------------------------------------------------
# train / evaluate
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    started = time.time()
    config = (TrainerConfig.load(args.config) if args.config
              else TrainerConfig())
    config = replace(config, seed=args.seed)
    if args.algo in DYNAMICS_MODES:
        config = replace(config, dynamics=args.algo)

    env = _resolve_env(args.env)
    if args.algo == "vanilla":
        config = vanilla_config(config, env.horizon)
    if args.dataset:
        dataset = OfflineDataset.load_csv(args.dataset)
    else:
        behavior, _ = _behavior_policy(env, "uniform", 0.0)
        rows = 500 if isinstance(env, TabularMdp) else 50 * env.horizon
        dataset = _dataset_with_rows(env, behavior, rows, config.seed)
    anchor = _anchor_for(env, dataset, args.alpha)
    out = _prepare_out(args, "train")
    state, trace = train(env, dataset, anchor, config, out_dir=out)

    # Fold a manifest id and the subcommand context into the run manifest.
    run_manifest = json.loads((out / "manifest.json").read_text())
    manifest = make_manifest("train", run_manifest["config"], config.seed,
                             {"iterations_run": state.iteration,
                              "environment": run_manifest["environment"],
                              "dataset_rows": run_manifest["dataset_rows"],
                              "final_lam": state.lam,
                              "final_kl": dataset_kl(dataset, state.model,
                                                     anchor)})
    manifest.save(out / "manifest.json")
    _write_log(out, started)
    aborted = int(sum(row["aborted"] for row in trace.rows))
    route = "vanilla/" if args.algo == "vanilla" else ""
    print(f"trained {state.iteration} iterations ({route}{config.dynamics}), "
          f"{aborted} aborted; artifacts in {out}")
    return 0


def cmd_evaluate(args) -> int:
    started = time.time()
    env = _resolve_env(args.env)
    if not isinstance(env, ContinuousMdp):
        raise ValueError("evaluate deploys under transition noise, which "
                         "needs a continuous environment")
    if args.episodes < 1:
        raise ValueError("--episodes must be at least 1")
    if args.rho < 0:
        raise ValueError("--rho must be non-negative")
    from .models import DiagGaussianPolicy

    policy_template = DiagGaussianPolicy.zeros(env.state_dim, env.action_dim)
    model_template = DiagGaussianWorldModel.zeros(env.state_dim,
                                                  env.action_dim)
    checkpoint = load_checkpoint(args.checkpoint, policy_template,
                                 model_template)
    out = _prepare_out(args, "evaluate")
    policy = checkpoint["policy"]
    clean = episode_returns(env, policy, 0.0, args.episodes,
                            seed=args.seed).tolist()
    noisy = episode_returns(env, policy, args.rho, args.episodes,
                            seed=args.seed).tolist()
    config = {"env": args.env, "checkpoint": str(args.checkpoint),
              "rho": args.rho, "episodes": args.episodes}
    manifest = make_manifest("evaluate", config, args.seed)
    report = EvalReport(noise_fraction=args.rho, episodes=args.episodes,
                        clean_returns=clean, noisy_returns=noisy,
                        manifest_id=manifest.manifest_id)
    manifest.results = {"clean_mean": report.clean_mean,
                        "noisy_mean": report.noisy_mean,
                        "degradation": report.degradation}
    report.save(out / "eval_report.json")
    manifest.save(out / "manifest.json")
    _write_log(out, started)
    print(f"clean {report.clean_mean:.4f}, noisy {report.noisy_mean:.4f}, "
          f"degradation {report.degradation:.4f} over {args.episodes} episodes")
    return 0


# ---------------------------------------------------------------------------
# grad-check
# ---------------------------------------------------------------------------


def _frozen_path_tables(mdp, policy, model) -> dict:
    """Per-path and per-cell tables over the full enumerable path set.

    Everything that does not move with the differentiated parameter copy is
    frozen here (path layout, behavior probability, discounted reward tails,
    score rows), so each finite-difference evaluation reduces to vectorized
    table lookups against a perturbed model.
    """
    s_n, a_n, k_n = model.logits.shape
    n_phi = model.n_params
    gammas = mdp.gamma ** np.arange(mdp.horizon)

    paths = list(enumerate_paths(mdp, policy, model))
    states = np.stack([p[1][:-1] for p in paths])
    actions = np.stack([p[2] for p in paths])
    outcomes = np.stack([p[3] for p in paths])
    rewards = np.stack([p[4] for p in paths])
    tails = np.flip(np.flip(gammas * rewards, 1).cumsum(axis=1), 1)
    cells = (states * a_n + actions) * k_n + outcomes

    pol = policy.probs_all()
    behavior = mdp.init_dist[states[:, 0]] * pol[states, actions].prod(axis=1)

    probs = model.probs_all()
    score_rows = model_score_table(model).reshape(-1, n_phi)

    weighted_scores = np.zeros((len(paths), n_phi))
    for t in range(mdp.horizon):
        weighted_scores += tails[:, t, None] * score_rows[cells[:, t]]

    path_probs = behavior * probs.ravel()[cells].prod(axis=1)
    tail_cell_mass = np.zeros(s_n * a_n * k_n)
    np.add.at(tail_cell_mass, cells.ravel(),
              (path_probs[:, None] * tails).ravel())

    return {"cells": cells, "behavior": behavior, "tails": tails,
            "score_rows": score_rows, "weighted_scores": weighted_scores,
            "tail_cell_mass": tail_cell_mass}


def grad_check_report(seed: int = 0) -> dict:
    """Max absolute error of every exposed estimator against an independent
    finite-difference oracle, on the bundled enumerable testbed.

    Return-gradient rows difference the exact enumerated return; penalty
    rows difference an independent KL implementation. The three curvature
    blocks are differenced through frozen-weight trajectory tables: the
    model/model block perturbs only the path distribution under a frozen
    score-weighted-return integrand, while the two score-outer-product
    blocks perturb only a same-draw log-likelihood factor paired against
    frozen scores (the derivative of that log factor is the second score
    of the pair). The zero-order constraint row is recomputed directly.
    """
    mdp, policy, model = gradient_testbed()
    lam, epsilon = GRAD_CHECK_LAM, GRAD_CHECK_EPSILON
    dataset = sample_offline_dataset(mdp, "uniform", n=GRAD_CHECK_ROWS,
                                     seed=seed)
    anchor = mle_fit(dataset, CategoricalWorldModel.uniform(mdp), alpha=0.5)
    targets = exact_estimator_targets(mdp, policy, model, dataset, anchor,
                                      lam, epsilon)
    theta = policy.params.values.copy()
    phi = model.params.values.copy()
    k_n = model.logits.shape[2]
    tables = _frozen_path_tables(mdp, policy, model)

    errors = {}
    errors["grad_policy"] = np.abs(
        targets["grad_policy"]
        - central_difference(policy_return_fn(mdp, policy, model),
                             theta)).max()
    errors["grad_model"] = np.abs(
        targets["grad_model"]
        - central_difference(model_return_fn(mdp, policy, model), phi)).max()
    errors["mixed"] = np.abs(
        targets["mixed"]
        - central_difference_mixed(mixed_return_fn(mdp, policy, model),
                                   phi, theta)).max()

    def integrand_mean(flat: np.ndarray) -> np.ndarray:
        shifted = model.with_params(flat).probs_all().ravel()
        prob = tables["behavior"] * shifted[tables["cells"]].prod(axis=1)
        return tables["weighted_scores"].T @ prob

    errors["uv"] = np.abs(targets["uv"]
                          - central_difference(integrand_mean, phi)).max()

    def paired_log_likelihood(flat: np.ndarray) -> np.ndarray:
        logs = np.log(model.with_params(flat).probs_all().ravel())
        return tables["score_rows"].T @ (tables["tail_cell_mass"] * logs)

    errors["xy"] = np.abs(
        targets["xy"] - central_difference(paired_log_likelihood, phi)).max()

    anchor_cell_mass = np.zeros_like(tables["tail_cell_mass"])
    s, a, counts = dataset.cells
    anchor_cell_mass.reshape(-1, k_n)[s * mdp.num_actions + a] = (
        counts / dataset.n)[:, None] * anchor.probs(s, a)

    def anchored_log_likelihood(flat: np.ndarray) -> np.ndarray:
        logs = np.log(model.with_params(flat).probs_all().ravel())
        return tables["score_rows"].T @ (anchor_cell_mass * logs)

    errors["zz"] = np.abs(
        targets["zz"]
        - lam * central_difference(anchored_log_likelihood, phi)).max()

    errors["dual_coupling"] = np.abs(
        targets["dual_coupling"]
        - central_difference(
            lambda flat: dataset_kl(dataset, model.with_params(flat), anchor),
            phi)).max()
    errors["constraint_gap"] = abs(
        float(targets["constraint_gap"][0])
        - (dataset_kl(dataset, model, anchor) - epsilon))
    return {name: float(value) for name, value in errors.items()}


def cmd_grad_check(args) -> int:
    started = time.time()
    out = _prepare_out(args, "grad-check")
    errors = grad_check_report(seed=args.seed)
    missing = set(ESTIMATOR_NAMES) - set(errors)
    extra = set(errors) - set(ESTIMATOR_NAMES)
    for name in ESTIMATOR_NAMES:
        if name in errors:
            status = "ok" if errors[name] <= GRAD_CHECK_TOL else "FAIL"
            print(f"{name:16s} max|estimator - oracle| = "
                  f"{errors[name]:.3e}  {status}")
    for name in sorted(missing):
        print(f"{name:16s} NO REGISTERED CHECK  FAIL")
    for name in sorted(extra):
        print(f"{name:16s} check without an exposed estimator  FAIL")
    ok = (not missing and not extra
          and all(err <= GRAD_CHECK_TOL for err in errors.values()))
    manifest = make_manifest("grad-check", {"tolerance": GRAD_CHECK_TOL},
                             args.seed, {"errors": errors, "passed": ok})
    manifest.save(out / "manifest.json")
    (out / "grad_check.json").write_text(json.dumps(
        {"errors": errors, "tolerance": GRAD_CHECK_TOL, "passed": ok},
        indent=1, sort_keys=True))
    _write_log(out, started)
    print("grad-check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# coverage / dynamics-demo
# ---------------------------------------------------------------------------


def cmd_coverage(args) -> int:
    started = time.time()
    env = _resolve_env(args.env)
    if not isinstance(env, TabularMdp):
        raise ValueError("coverage resampling is defined for tabular "
                         "environments")
    out = _prepare_out(args, "coverage")
    report = coverage_check(env, "uniform", n_transitions=args.n,
                            delta=args.delta, n_trials=args.trials,
                            seed=args.seed)
    report.save(out / "coverage.json")
    config = {"env": args.env, "n": args.n, "delta": args.delta,
              "trials": args.trials}
    manifest = make_manifest("coverage", config, args.seed,
                             report.to_dict())
    manifest.save(out / "manifest.json")
    _write_log(out, started)
    print(f"coverage {report.coverage:.4f} vs threshold "
          f"{report.threshold:.4f}: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def cmd_dynamics_demo(args) -> int:
    started = time.time()
    out = _prepare_out(args, "dynamics-demo")
    mode = args.algo
    game = coupling_game()
    rates = LearningRates(1e-2, 1e-3, 1e-4)
    init = DynamicsState(np.array([0.0]), np.array([0.0]), 1.0)
    final, trace = run_dynamics(game, init, rates, mode=mode,
                                n_steps=args.steps,
                                record_every=max(1, args.steps // 500))
    trace.save_csv(out / "dynamics_trace.csv")
    target = coupling_kkt()
    config = {"mode": mode, "steps": args.steps}
    manifest = make_manifest("dynamics-demo", config, args.seed, {
        "final_theta": float(final.theta[0]),
        "final_phi": float(final.phi[0]),
        "final_lam": final.lam,
        "reference_rest_point": [float(v) for v in target],
    })
    manifest.save(out / "manifest.json")
    _write_log(out, started)
    print(f"{mode}: reached (theta, phi, lam) = ({final.theta[0]:.4f}, "
          f"{final.phi[0]:.4f}, {final.lam:.4f}) after {args.steps} steps; "
          f"boundary rest point ({target[0]:.4f}, {target[1]:.4f}, "
          f"{target[2]:.4f})")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stackmbrl",
        description="Robust offline model-based policy optimization harness")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=str, default=None,
                       help="run directory (default run-<subcommand>)")

    p = sub.add_parser("gen-data", help="collect an offline dataset")
    common(p)
    p.add_argument("--env", type=str, default="gradient")
    p.add_argument("--behavior", type=str, default="uniform",
                   help="uniform | greedy | bundled | saved policy file")
    p.add_argument("--greedy-eps", type=float, default=0.1)
    p.add_argument("--n", type=int, default=1000,
                   help="number of transitions")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("fit-model", help="fit the anchor world model")
    common(p)
    p.add_argument("--env", type=str, default="gradient")
    p.add_argument("--dataset", type=str, required=True)
    p.add_argument("--alpha", type=float, default=0.5,
                   help="additive smoothing for categorical fits")
    p.add_argument("--delta", type=float, default=0.1,
                   help="radius confidence level")
    p.set_defaults(fn=cmd_fit_model)

    p = sub.add_parser("train", help="run the training loop")
    common(p)
    p.add_argument("--env", type=str, default="gradient")
    p.add_argument("--config", type=str, default=None)
    p.add_argument("--dataset", type=str, default=None)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--algo", type=str, choices=ALGO_CHOICES, default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="paired clean/noisy deployment")
    common(p)
    p.add_argument("--env", type=str, default="tracking")
    p.add_argument("--checkpoint", type=str, required=True)
    p.add_argument("--rho", type=float, default=0.05,
                   help="relative transition-noise fraction")
    p.add_argument("--episodes", type=int, default=100)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("grad-check",
                       help="estimators vs independent oracles")
    common(p)
    p.set_defaults(fn=cmd_grad_check)

    p = sub.add_parser("coverage", help="uncertainty-set coverage rate")
    common(p)
    p.add_argument("--env", type=str, default="gradient")
    p.add_argument("--n", type=int, default=400,
                   help="transitions per resampled dataset")
    p.add_argument("--delta", type=float, default=0.2)
    p.add_argument("--trials", type=int, default=200)
    p.set_defaults(fn=cmd_coverage)

    p = sub.add_parser("dynamics-demo", help="closed-form coupled updates")
    common(p)
    p.add_argument("--algo", type=str, choices=DYNAMICS_MODES,
                   default="constrained")
    p.add_argument("--steps", type=int, default=20000)
    p.set_defaults(fn=cmd_dynamics_demo)

    return parser


def cli(argv=None) -> int:
    """Entry point; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
