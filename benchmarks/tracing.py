"""Spans and counters around the library's layer boundaries.

The library is not edited: a ``Tracer`` replaces public functions and
methods with wrappers while it is installed and puts every original back on
``uninstall``. Modules import names directly (``from .estimators import
dataset_kl``), so a function is patched in every module that holds it, not
only where it is defined. Hot per-row methods are counted, not timed.

A span records its name, start, end and parent. A span's self time is its
duration minus the time its direct children cover.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

from stackmbrl import estimators, mdp, models, trainer, uncertainty, woodbury

# (module, attribute, span name) of each timed module-level function.
TIMED_FUNCTIONS = (
    (trainer, "train_iteration", "trainer.train_iteration"),
    (trainer, "collect_rollouts", "trainer.collect_rollouts"),
    (trainer, "train_critic", "trainer.train_critic"),
    (trainer, "worst_case_return", "trainer.worst_case_return"),
    (trainer, "exact_return_model_gradient",
     "trainer.exact_return_model_gradient"),
    (trainer, "episode_returns", "trainer.episode_returns"),
    (estimators, "model_score_table", "estimators.model_score_table"),
    (estimators, "policy_score_table", "estimators.policy_score_table"),
    (estimators, "factors_from_batch", "estimators.factors_from_batch"),
    (estimators, "dataset_kl", "estimators.dataset_kl"),
    (estimators, "dataset_dual_coupling", "estimators.dataset_dual_coupling"),
    (models, "mle_fit", "models.mle_fit"),
    (models, "sample_offline_dataset", "models.sample_offline_dataset"),
    (mdp, "sample_trajectory", "mdp.sample_trajectory"),
    (mdp, "sample_tabular_batch", "mdp.sample_tabular_batch"),
    (mdp, "exact_return", "mdp.exact_return"),
    (uncertainty, "epsilon_tabular", "uncertainty.epsilon_tabular"),
    (uncertainty, "kl_to_anchor", "uncertainty.kl_to_anchor"),
    (uncertainty, "coverage_check", "uncertainty.coverage_check"),
)

# (class, method, span name) of each timed method.
TIMED_METHODS = (
    (models.OfflineDataset, "cell_counts", "models.OfflineDataset.cell_counts"),
    (woodbury.WoodburySolver, "__init__", "woodbury.WoodburySolver.build"),
    (woodbury.WoodburySolver, "solve", "woodbury.WoodburySolver.solve"),
)

# Per-row methods of the policy and model families: counted, not timed.
COUNTED_CLASSES = (models.SoftmaxPolicy, models.CategoricalWorldModel,
                   models.DiagGaussianPolicy, models.DiagGaussianWorldModel)
COUNTED_METHODS = ("score", "log_prob", "sample")

_FACTOR_FIELDS = ("u", "v", "x", "y", "z", "w", "dual_coupling")


class Tracer:
    """Records spans and counters while installed; restores on uninstall."""

    def __init__(self):
        self._patched = []   # (namespace, attribute, original), in order
        self.reset()

    def reset(self) -> None:
        """Forget recorded spans and counters (installed wrappers stay)."""
        self.spans = []      # [name, start, end, parent index]
        self.counters = Counter()
        self._stack = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for module, attr, name in TIMED_FUNCTIONS:
            original = getattr(module, attr)
            wrapper = self._timed(name, original)
            for namespace in _holders(original, attr):
                self._patch(namespace, attr, wrapper)
        for cls, attr, name in TIMED_METHODS:
            self._patch(cls, attr, self._timed(name, cls.__dict__[attr]))
        for cls in COUNTED_CLASSES:
            for attr in COUNTED_METHODS:
                self._patch(cls, attr,
                            self._counted(f"models.{attr}.calls",
                                          cls.__dict__[attr]))

    def uninstall(self) -> None:
        while self._patched:
            namespace, attr, original = self._patched.pop()
            if isinstance(namespace, dict):
                namespace[attr] = original
            else:
                setattr(namespace, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, namespace, attr, wrapper) -> None:
        if isinstance(namespace, dict):
            self._patched.append((namespace, attr, namespace[attr]))
            namespace[attr] = wrapper
        else:
            self._patched.append((namespace, attr, namespace.__dict__[attr]))
            setattr(namespace, attr, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, fn):
        record = _RECORDERS.get(name)

        def wrapper(*args, **kwargs):
            stack = self._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counters[f"{name}.errors"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if record is not None:
                record(self.counters, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key: str, fn):
        def wrapper(*args, **kwargs):
            self.counters[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict:
        """Per-name totals: ``<name>.s``, ``.self_s``, ``.calls``, counters,
        and ``layer.<module>.self_s`` for each measured layer."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            duration = end - start
            out[f"{name}.s"] += duration
            out[f"{name}.self_s"] += duration - child_time[index]
            out[f"{name}.calls"] += 1
            out[f"layer.{name.split('.')[0]}.self_s"] += (duration
                                                          - child_time[index])
        for key, value in self.counters.items():
            out[key] += value
        return dict(out)


def _holders(fn, attr: str) -> list:
    """Namespaces of loaded modules that bind ``attr`` to ``fn``."""
    holders = []
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if isinstance(namespace, dict) and namespace.get(attr) is fn:
            holders.append(namespace)
    return holders


def _count_bytes(key):
    def record(counters, args, result):
        counters[key] += result.nbytes
    return record


def _factor_bytes(counters, args, result):
    counters["woodbury.factors.bytes"] += sum(
        getattr(result, name).nbytes for name in _FACTOR_FIELDS)


def _cell_rows(counters, args, result):
    counters["models.OfflineDataset.cell_counts.rows"] += args[0].n


_RECORDERS = {
    "estimators.model_score_table":
        _count_bytes("estimators.model_score_table.bytes"),
    "estimators.factors_from_batch": _factor_bytes,
    "models.OfflineDataset.cell_counts": _cell_rows,
}
