"""Benchmark of the stackmbrl library: one workload, one seed, one run.

    python3 benchmarks/run.py --workload tabular-large --seed 0 \
        --seconds 55 --trace 0

Workloads: tabular-large, coverage and, outside BENCHMARK.json,
tabular-small and tracking (see ``spec.py`` and ``workloads.py``). BLAS is
pinned to one thread in every process this starts. Set-up is timed in
several fresh processes and the median reported; the workload itself runs
in one more fresh process, so its peak RSS is its own. With ``--trace 0`` the last line of standard output is a JSON object
with every end-to-end metric; with ``--trace 1`` it holds every per-layer
metric (see ``spec.py``). The lines before it are a readable report.
Exits non-zero, printing no result, if the run fails or the library
sources are missing.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import END_TO_END, EXTRA_WORKLOADS, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED_THREADS = "1"
SETUP_PROBES = 3            # fresh set-up processes besides the run itself
DEADLINE_S = 170            # every worker has ended by then
# What each workload's operation is called in the readable report.
OP_NAMES = {"coverage": "coverage_s"}
EVALUATIONS = {"tabular-small": "worst_case_return",
               "tracking": "robust_evaluate"}
# Top self-time span each workload was predicted to have, from a profile
# taken before the benchmark existed. Per-row model calls are counted, not
# timed, so on tracking their time shows in their callers' self time.
PREDICTED_TOP = {"tabular-small": "models.OfflineDataset.cell_counts",
                 "tabular-large": "estimators.model_score_table",
                 "tracking": "per-row Gaussian model calls",
                 "coverage": "no prediction"}


class BenchmarkError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = PINNED_THREADS
    env.pop("PYTHONPATH", None)
    return env


def _worker(args: list, deadline: float) -> dict:
    """Run ``worker.py`` to completion and parse its last output line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError(f"no time left for worker {args}")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")] + args, cwd=ROOT,
            env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise BenchmarkError(f"worker {args} timed out after {timeout:.0f}s") \
            from err
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {args} exited {proc.returncode}:\n"
                             + proc.stderr[-4000:])
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"worker {args} printed nothing")
    return json.loads(lines[-1])


def tail_percentile(samples: list):
    """Highest of p99.9/p99/p90 with at least ten samples beyond it."""
    ordered = sorted(samples)
    for pct in (99.9, 99.0, 90.0):
        if len(ordered) * (1.0 - pct / 100.0) >= 10.0:
            index = min(len(ordered) - 1,
                        math.ceil(pct / 100.0 * len(ordered)) - 1)
            return pct, ordered[index]
    return None, None


def _top_self_time(layers: dict, whole_layers: bool):
    """Name of the span, or of the whole layer, with the most self time."""
    spans = {key[:-len(".self_s")]: value for key, value in layers.items()
             if key.endswith(".self_s")
             and key.startswith("layer.") == whole_layers}
    return max(spans, key=spans.get) if spans else None


def report(workload: str, trace: bool, setups: list, res: dict) -> tuple:
    """Readable report lines and the metrics of the result line."""
    env = res["environment"]
    lines = [f"stackmbrl benchmark: workload {workload}, seed {env['seed']}, "
             f"trace {int(trace)}",
             "environment: " + ", ".join(f"{k} {v}" for k, v in env.items())]
    ops, stats = res["op_seconds"], res["stats"]
    op_name = OP_NAMES.get(workload, "iter_s")
    setup_s = statistics.median(setups)
    metrics = {
        "setup_s": setup_s,
        "op_s": statistics.mean(ops),
        "job_s": statistics.mean(res["job_seconds"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    pct, tail = tail_percentile(ops)
    tail_text = (f"p{pct:g} {tail:.6g} s" if pct is not None
                 else "too few samples for a tail percentile")
    lines += [
        f"setup_s      {setup_s:.6g} s  median of {len(setups)} fresh "
        "processes",
        f"op_s         {metrics['op_s']:.6g} s  mean of {len(ops)} "
        "operations",
        f"{op_name:<12} {statistics.median(ops):.6g} s  median; {tail_text} "
        f"(n={len(ops)})",
        f"job_s        {metrics['job_s']:.6g} s  mean of "
        f"{len(res['job_seconds'])} jobs of {res['ops_per_job']} operations"
        + (f" + {EVALUATIONS[workload]}" if workload in EVALUATIONS else ""),
        f"peak_rss_mb  {metrics['peak_rss_mb']:.6g} MB",
    ]
    if op_name == "iter_s":
        lines.append(f"train_s      "
                     f"{statistics.median(res['budget_seconds']):.6g} s  "
                     f"median wall time of {res['ops_per_job']} iterations")
        lines.append(f"aborted_frac {stats['aborted_frac']:.6g} ratio  "
                     f"({stats['aborted']} of {stats['iterations']} "
                     "iterations per job)")
    if workload in EVALUATIONS:
        lines.append(f"eval_s       {statistics.median(res['eval_seconds']):.6g}"
                     f" s  median {EVALUATIONS[workload]} wall time")
    for key in ("robust_return", "clean_return", "noisy_return", "coverage"):
        if key in stats:
            lines.append(f"{key:<12} {stats[key]!r}")
    lines.append(f"checks       {len(res['violations'])} violations in "
                 f"{res['attempted']} operations")
    lines += [f"  violation: {v}" for v in res["violations"][:20]]
    if not trace:
        return lines, {name: metrics[name] for name, *_ in END_TO_END}

    layers = dict(res["layers"])
    if "aborted_frac" in stats:
        layers["trainer.aborted_frac"] = stats["aborted_frac"]
    top = _top_self_time(layers, whole_layers=False)
    predicted = PREDICTED_TOP[workload]
    lines.append("top self-time layer: "
                 f"{_top_self_time(layers, whole_layers=True)}")
    lines.append(f"top self-time span: {top} (predicted: {predicted}; "
                 + ("agrees)" if top == predicted else "differs)"))
    lines += [f"  {name:<44} {layers.get(name, 0.0):.6g} {unit}"
              for name, unit, _ in PER_LAYER]
    return lines, {name: layers.get(name, 0.0) for name, *_ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[name for name, _ in WORKLOADS
                                 + EXTRA_WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sources = ROOT / "src" / "stackmbrl"
    if not (sources / "__init__.py").is_file():
        print(f"benchmark: library sources not found at {sources}",
              file=sys.stderr)
        return 2
    # Compile once up front so no set-up probe pays for writing bytecode.
    compileall.compile_dir(str(sources), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [_worker(common + ["--mode", "setup"], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        res = _worker(common + ["--mode", "run", "--seconds",
                                str(args.seconds), "--trace", str(args.trace)],
                      deadline)
    except (BenchmarkError, json.JSONDecodeError, KeyError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    lines, values = report(args.workload, bool(args.trace), setups, res)
    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    for line in lines:
        print(line)
    failed = min(len(res["violations"]), res["attempted"])
    print(json.dumps({
        "correct": not res["violations"],
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
