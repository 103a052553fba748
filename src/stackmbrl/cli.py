"""Command-line harness: data generation, fitting, training, evaluation,
and the oracle and coverage gates.

Every subcommand owns its run directory: it writes its artifacts there
(``train`` through ``trainer.train``: the checkpoints and ``trace.csv``),
then ``save_manifest`` writes the one manifest (config snapshot, seed, code
digest, results) and the ``run.log`` sidecar, the only file that carries
wall-clock content. So rerunning a subcommand with the same config and seed
reproduces every other output byte for byte.

Subcommands
-----------
gen-data        roll a behavior policy in the true environment, save CSV
fit-model       maximum-likelihood anchor from a dataset, plus a tabular radius
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
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .dynamics import DYNAMICS_MODES, DynamicsState, LearningRates, run_dynamics
from .estimators import ESTIMATOR_NAMES, dataset_kl, model_score_table
from .mdp import (ContinuousMdp, SamplingError, TabularMdp, dp_optimal_policy,
                  exact_return, read_json_object, reading, write_json)
from .models import (
    CategoricalWorldModel,
    DiagGaussianPolicy,
    DiagGaussianWorldModel,
    OfflineDataset,
    SoftmaxPolicy,
    from_saved,
    mle_fit,
    rollout_dataset,
    sample_offline_dataset,
)
from .oracles import (
    central_difference,
    central_difference_mixed,
    exact_estimator_targets,
    exact_gradients,
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
from .trainer import (TrainerConfig, episode_returns, load_checkpoint, train,
                      vanilla_config)
from .uncertainty import _check_delta, coverage_check, epsilon_tabular

GRAD_CHECK_TOL = 1e-5
# the multiplier, radius and dataset size grad-check evaluates the penalty at
GRAD_CHECK_LAM = 0.7
GRAD_CHECK_EPSILON = 0.05
GRAD_CHECK_ROWS = 300
ALGO_CHOICES = DYNAMICS_MODES + ("vanilla",)


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


def code_version() -> str:
    """Order-stable digest of the package sources, for run manifests."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def save_manifest(out: Path, subcommand: str, config: dict, seed: int,
                  results: dict, started: float) -> str:
    """Write the reproducibility record of one subcommand invocation and
    its ``run.log`` sidecar, and return the record's id. Wall-clock content
    (the finish time and the seconds since ``started``) goes to the sidecar
    only, so the manifest is a pure function of (subcommand, config, seed),
    the results and the code."""
    key = json.dumps([subcommand, config, seed], sort_keys=True, default=str)
    manifest_id = hashlib.sha256(key.encode()).hexdigest()[:12]
    write_json(out / "manifest.json", {
        "manifest_id": manifest_id, "subcommand": subcommand,
        "config": config, "seed": seed, "code_version": code_version(),
        "results": results, "timestamps": "recorded in run.log"})
    stamp = datetime.now(timezone.utc).isoformat()
    (out / "run.log").write_text(
        f"finished at {stamp} after {time.time() - started:.2f}s\n")
    return manifest_id


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
        saved = read_json_object(path, ("values", "layout"))
        template = SoftmaxPolicy.zeros(env.num_states, env.num_actions)
        with reading(path):
            return from_saved(template, saved, "policy"), f"loaded({path.name})"
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


def _smoothing(env, alpha: float) -> dict:
    """The manifest entry of ``alpha``, which only a categorical MLE reads."""
    return {"alpha": alpha} if isinstance(env, TabularMdp) else {}


def _anchor_for(env, dataset: OfflineDataset, alpha: float):
    template = (CategoricalWorldModel.uniform(env) if isinstance(env, TabularMdp)
                else DiagGaussianWorldModel.zeros(env.state_dim,
                                                  env.action_dim))
    return mle_fit(dataset, template, alpha=alpha)


# ---------------------------------------------------------------------------
# gen-data / fit-model
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    env = _resolve_env(args.env)
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    behavior, tier = _behavior_policy(env, args.behavior, args.greedy_eps)
    dataset = _dataset_with_rows(env, behavior, args.n, args.seed)
    out = _prepare_out(args, "gen-data")
    dataset.save_csv(out / "dataset.csv")
    config = {"env": args.env, "behavior": args.behavior,
              "greedy_eps": args.greedy_eps, "n": args.n}
    save_manifest(out, "gen-data", config, args.seed,
                  {"behavior_tier": tier, "rows": dataset.n,
                   "distinct_cells": dataset.num_cells()}, args.started)
    print(f"wrote {dataset.n} transitions ({tier}) to {out / 'dataset.csv'}")
    return 0


def cmd_fit_model(args) -> int:
    env = _resolve_env(args.env)
    _check_delta(args.delta)
    dataset = OfflineDataset.load_csv(args.dataset, env)
    anchor = _anchor_for(env, dataset, args.alpha)
    out = _prepare_out(args, "fit-model")
    anchor.params.save(out / "model.json")
    results = {"rows": dataset.n, "n_params": anchor.n_params}
    if not isinstance(env, TabularMdp):
        results["radius_refused"] = ("no concentration radius for the "
                                     "affine Gaussian model family")
    else:
        try:
            results["radius"] = epsilon_tabular(dataset, env.num_outcomes,
                                                args.delta)
        except ValueError as err:
            results["radius_refused"] = str(err)
    config = {"env": args.env, "dataset": str(args.dataset),
              "delta": args.delta, **_smoothing(env, args.alpha)}
    save_manifest(out, "fit-model", config, args.seed, results, args.started)
    print(f"fitted anchor ({anchor.n_params} params) from {dataset.n} rows"
          + (f", radius {results['radius']:.5f}" if "radius" in results
             else " (radius refused)"))
    return 0


# ---------------------------------------------------------------------------
# train / evaluate
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    config = (TrainerConfig.load(args.config) if args.config
              else TrainerConfig())
    config = replace(config, seed=args.seed)
    if args.algo in DYNAMICS_MODES:
        config = replace(config, dynamics=args.algo)

    env = _resolve_env(args.env)
    if args.algo == "vanilla":
        config = vanilla_config(config, env.horizon)
    if args.dataset:
        dataset = OfflineDataset.load_csv(args.dataset, env)
    else:
        behavior, _ = _behavior_policy(env, "uniform", 0.0)
        rows = 500 if isinstance(env, TabularMdp) else 50 * env.horizon
        dataset = _dataset_with_rows(env, behavior, rows, config.seed)
    anchor = _anchor_for(env, dataset, args.alpha)
    out = _prepare_out(args, "train")
    state, trace = train(env, dataset, anchor, config, out_dir=out)
    environment = (f"tabular:{env.num_states}x{env.num_actions}"
                   if isinstance(env, TabularMdp)
                   else f"continuous:{env.name or 'anonymous'}")
    save_manifest(out, "train", config.to_dict(), config.seed,
                  {"iterations_run": state.iteration,
                   "environment": environment, "dataset_rows": dataset.n,
                   **_smoothing(env, args.alpha), "final_lam": state.lam,
                   "final_kl": dataset_kl(dataset, state.model, anchor)},
                  args.started)
    aborted = int(sum(row["aborted"] for row in trace.rows))
    route = "vanilla/" if args.algo == "vanilla" else ""
    print(f"trained {state.iteration} iterations ({route}{config.dynamics}), "
          f"{aborted} aborted; artifacts in {out}")
    return 0


def cmd_evaluate(args) -> int:
    env = _resolve_env(args.env)
    with reading(args.env):  # deployment noise moves continuous states
        if not isinstance(env, ContinuousMdp):
            raise ValueError("evaluate needs an environment of kind continuous")
    if args.episodes < 1:
        raise ValueError("--episodes must be at least 1")
    if not 0.0 <= args.rho < np.inf:
        raise ValueError(f"--rho must be finite and non-negative, got "
                         f"{args.rho}")
    policy_template = DiagGaussianPolicy.zeros(env.state_dim, env.action_dim)
    model_template = DiagGaussianWorldModel.zeros(env.state_dim,
                                                  env.action_dim)
    policy = load_checkpoint(args.checkpoint, policy_template,
                             model_template)["policy"]
    try:
        # a diverging policy is reported below, not by numpy's warnings
        with np.errstate(over="ignore", invalid="ignore"):
            clean, noisy = episode_returns(env, policy, (0.0, args.rho),
                                           args.episodes, seed=args.seed)
    except SamplingError as err:
        raise ValueError(f"{args.checkpoint}: the policy drives the "
                         f"environment to non-finite values ({err})") from None
    out = _prepare_out(args, "evaluate")
    config = {"env": args.env, "checkpoint": str(args.checkpoint),
              "rho": args.rho, "episodes": args.episodes}
    means = {"clean_mean": float(clean.mean()),
             "noisy_mean": float(noisy.mean())}
    means["degradation"] = means["clean_mean"] - means["noisy_mean"]
    manifest_id = save_manifest(out, "evaluate", config, args.seed, means,
                                args.started)
    # one clean and one noisy return per episode, from identical streams
    write_json(out / "eval_report.json", {
        "noise_fraction": args.rho, "episodes": args.episodes,
        "clean_returns": clean.tolist(), "noisy_returns": noisy.tolist(),
        "clean_std": float(clean.std()), "noisy_std": float(noisy.std()),
        "manifest_id": manifest_id, **means})
    print(f"clean {means['clean_mean']:.4f}, noisy {means['noisy_mean']:.4f}, "
          f"degradation {means['degradation']:.4f} over {args.episodes} "
          "episodes")
    return 0


# ---------------------------------------------------------------------------
# grad-check
# ---------------------------------------------------------------------------


def grad_check_report(seed: int = 0) -> dict:
    """Max absolute error of every exposed estimator against an independent
    finite-difference oracle, on the bundled ``gradient`` testbed.

    Return-gradient rows difference the exact DP return; penalty rows
    difference an independent KL implementation. The targets are the DP
    pass's closed forms; the two score-product curvature blocks are
    differenced through the pass's tail mass m, over score rows frozen at
    the evaluation point. The model/model block differences
    ``score_rows^T m`` with m recomputed at each perturbed model, while the
    score-outer-product block differences a log-likelihood paired against
    the frozen m (the derivative of that log factor is the second score of
    the pair). The zero-order constraint row is recomputed directly.
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
    score_rows = model_score_table(model).reshape(-1, model.n_params)

    def tail_mass(flat: np.ndarray) -> np.ndarray:
        return exact_gradients(mdp, policy,
                               model.with_params(flat)).tail_mass.ravel()

    frozen_mass = tail_mass(phi)

    errors = {}
    errors["grad_policy"] = np.abs(
        targets["grad_policy"]
        - central_difference(
            lambda flat: exact_return(mdp, policy.with_params(flat), model),
            theta)).max()
    errors["grad_model"] = np.abs(
        targets["grad_model"]
        - central_difference(
            lambda flat: exact_return(mdp, policy, model.with_params(flat)),
            phi)).max()
    errors["mixed"] = np.abs(
        targets["mixed"]
        - central_difference_mixed(
            lambda row, col: exact_return(mdp, policy.with_params(col),
                                          model.with_params(row)),
            phi, theta)).max()
    errors["uv"] = np.abs(
        targets["uv"]
        - central_difference(lambda flat: score_rows.T @ tail_mass(flat),
                             phi)).max()

    def paired_log_likelihood(flat: np.ndarray) -> np.ndarray:
        logs = np.log(model.with_params(flat).probs_all().ravel())
        return score_rows.T @ (frozen_mass * logs)

    errors["xy"] = np.abs(
        targets["xy"] - central_difference(paired_log_likelihood, phi)).max()

    anchor_cell_mass = np.zeros_like(frozen_mass)
    s, a, counts = dataset.cells
    anchor_cell_mass.reshape(-1, k_n)[s * mdp.num_actions + a] = (
        counts / dataset.n)[:, None] * anchor.probs(s, a)

    def anchored_log_likelihood(flat: np.ndarray) -> np.ndarray:
        logs = np.log(model.with_params(flat).probs_all().ravel())
        return score_rows.T @ (anchor_cell_mass * logs)

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
    errors = grad_check_report(seed=args.seed)
    out = _prepare_out(args, "grad-check")
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
    write_json(out / "grad_check.json",
               {"errors": errors, "tolerance": GRAD_CHECK_TOL, "passed": ok})
    save_manifest(out, "grad-check", {"tolerance": GRAD_CHECK_TOL},
                  args.seed, {"errors": errors, "passed": ok}, args.started)
    print("grad-check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# coverage / dynamics-demo
# ---------------------------------------------------------------------------


def cmd_coverage(args) -> int:
    env = _resolve_env(args.env)
    with reading(args.env):
        if not isinstance(env, TabularMdp):
            raise ValueError("coverage needs an environment of kind tabular")
    report = coverage_check(env, "uniform", n_transitions=args.n,
                            delta=args.delta, n_trials=args.trials,
                            seed=args.seed)
    out = _prepare_out(args, "coverage")
    report.save(out / "coverage.json")
    config = {"env": args.env, "n": args.n, "delta": args.delta,
              "trials": args.trials}
    save_manifest(out, "coverage", config, args.seed, report.to_dict(),
                  args.started)
    print(f"coverage {report.coverage:.4f} vs threshold "
          f"{report.threshold:.4f}: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def cmd_dynamics_demo(args) -> int:
    mode = args.algo
    game = coupling_game()
    rates = LearningRates(1e-2, 1e-3, 1e-4)
    init = DynamicsState(np.array([0.0]), np.array([0.0]), 1.0)
    final, trace = run_dynamics(game, init, rates, mode=mode,
                                n_steps=args.steps,
                                record_every=max(1, args.steps // 500))
    out = _prepare_out(args, "dynamics-demo")
    trace.save_csv(out / "dynamics_trace.csv")
    target = coupling_kkt()
    config = {"mode": mode, "steps": args.steps}
    save_manifest(out, "dynamics-demo", config, args.seed, {
        "final_theta": float(final.theta[0]),
        "final_phi": float(final.phi[0]),
        "final_lam": final.lam,
        "reference_rest_point": [float(v) for v in target],
    }, args.started)
    print(f"{mode}: reached (theta, phi, lam) = ({final.theta[0]:.4f}, "
          f"{final.phi[0]:.4f}, {final.lam:.4f}) after {args.steps} steps; "
          f"boundary rest point ({target[0]:.4f}, {target[1]:.4f}, "
          f"{target[2]:.4f})")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _non_negative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stackmbrl",
        description="Robust offline model-based policy optimization harness")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--seed", type=_non_negative_int, default=0)
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
    args.started = time.time()
    try:
        return args.fn(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
