"""Per-layer tracer for the palmnmf benchmark.

The tracer replaces the names that each calling module imported (for
example ``palmnmf.solver.grad_w`` or ``palmnmf.cli.load_matrix``) with
timing wrappers, and puts the originals back on ``restore``. No package
code changes. Every wrapped call adds to its layer's call count, its
total time and the time spent in wrapped calls nested inside it, so a
layer's self time is total minus nested. Counts and times are kept as
running sums rather than one span per call: a compare-sparse pass makes
about a million wrapped calls.
"""

import functools
import importlib
import os
import time
from dataclasses import dataclass, field


def _solve_counts(args, kwargs, result):
    return {"iterations": result.iterations}


def _load_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _save_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


# (module, imported name, layer label, extra counters from the call).
# A label listed under several modules sums the calls through each binding.
LAYER_PATCHES = (
    ("palmnmf.solver", "solve", "solver.solve", _solve_counts),
    ("palmnmf.benchmark", "solve", "solver.solve", _solve_counts),
    ("palmnmf.cli", "solve", "solver.solve", _solve_counts),
    ("palmnmf.solver", "palm_step", "solver.palm_step", None),
    ("palmnmf.solver", "initialize", "solver.initialize", None),
    ("palmnmf.solver", "evaluate", "objective.evaluate", None),
    ("palmnmf.solver", "grad_w", "objective.grad_w", None),
    ("palmnmf.solver", "grad_h", "objective.grad_h", None),
    ("palmnmf.solver", "lipschitz_w", "objective.lipschitz_w", None),
    ("palmnmf.solver", "lipschitz_h", "objective.lipschitz_h", None),
    ("palmnmf.solver", "as_matrix", "linalg.as_matrix", None),
    ("palmnmf.objective", "as_matrix", "linalg.as_matrix", None),
    ("palmnmf.linalg", "as_matrix", "linalg.as_matrix", None),
    ("palmnmf.objective", "difference_operator", "linalg.difference_operator", None),
    ("palmnmf.solver", "soft_threshold_nonneg", "linalg.prox", None),
    ("palmnmf.solver", "nonneg_project", "linalg.prox", None),
    ("palmnmf.cli", "load_matrix", "fileio.load_matrix", _load_bytes),
    ("palmnmf.cli", "save_matrix", "fileio.save_matrix", _save_bytes),
    ("palmnmf.benchmark", "generate", "benchmark.generate", None),
    ("palmnmf.cli", "generate", "benchmark.generate", None),
    ("palmnmf.benchmark", "score_recovery", "benchmark.score_recovery", None),
    ("palmnmf.cli", "score_recovery", "benchmark.score_recovery", None),
    ("palmnmf.benchmark", "run_comparison", "benchmark.run_comparison", None),
    ("palmnmf.cli", "run_comparison", "benchmark.run_comparison", None),
    ("palmnmf.cli", "cmd_synth", "cli.synth", None),
    ("palmnmf.cli", "cmd_factorize", "cli.factorize", None),
    ("palmnmf.cli", "cmd_score", "cli.score", None),
    ("palmnmf.cli", "cmd_bench", "cli.bench", None),
)


@dataclass
class LayerStat:
    calls: int = 0
    total_s: float = 0.0
    nested_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def self_s(self):
        return self.total_s - self.nested_s

    def merge(self, other):
        self.calls += other.calls
        self.total_s += other.total_s
        self.nested_s += other.nested_s
        for key, value in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def to_dict(self):
        return {
            "calls": self.calls,
            "total_s": self.total_s,
            "nested_s": self.nested_s,
            "counts": dict(self.counts),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["calls"], d["total_s"], d["nested_s"], dict(d["counts"]))


class Tracer:
    """Wraps module attributes with timing wrappers; use as a context
    manager, or call ``install`` and later ``restore``."""

    def __init__(self):
        self.stats = {}
        self._saved = []
        # One entry per wrapped call in progress: the time its nested
        # wrapped calls have taken so far.
        self._nested = []

    def install(self):
        for module_name, attr, label, counter in LAYER_PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, label, counter))
        return self

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, fn, label, counter):
        stat = self.stats.setdefault(label, LayerStat())
        nested = self._nested
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.nested_s += nested.pop()
                if nested:
                    nested[-1] += elapsed
                stat.calls += 1
                stat.total_s += elapsed
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    stat.counts[key] = stat.counts.get(key, 0) + value
            return result

        return wrapper


def merge_stats(into, stats):
    """Add the layer stats in ``stats`` (label -> LayerStat) to ``into``."""
    for label, stat in stats.items():
        into.setdefault(label, LayerStat()).merge(stat)
    return into
