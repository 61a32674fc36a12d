"""Outside-in span tracer for the bmatch layers.

Each boundary is a module-level function of ``bmatch``.  Installing the
tracer replaces the function with a timing wrapper in every ``bmatch``
module that holds a reference to it, because ``from .x import y`` copies
the reference into the consumer module: patching only the defining
module would miss calls such as ``strategies.run_mechanism``.  A boundary
that no longer exists is reported as absent instead of failing, so the
benchmark keeps working after entry points are merged or renamed.

Spans live in flat in-memory arrays (name, start, end, parent, market)
and are written to a sidecar file once the run ends.  A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (module, function) per layer; cli and fixtures are not measured.
BOUNDARIES = (
    ("gen", "generate_instance"),
    ("seeds", "derive_rng"),
    ("seeds", "derive_seed"),
    ("core", "require_valid"),
    ("core", "agent_utility"),
    ("core", "task_utility"),
    ("solver", "solve_mvbm"),
    ("solver", "solve_ap"),
    ("solver", "solve_with_priority"),
    ("solver", "_solve_owner_array"),
    ("mechanisms", "run_mechanism"),
    ("mechanisms", "build_effective_instance"),
    ("mechanisms", "randomized_utility_samples"),
    ("mechanisms", "sample_agent_order"),
    ("mechanisms", "lottery_weights"),
    ("mechanisms", "worst_ne_profile"),
    ("strategies", "mpug"),
    ("strategies", "apply_manipulation"),
    ("strategies", "best_response_exhaustive"),
    ("strategies", "verify_nash"),
    ("oracle", "audit_agent_truthfulness"),
    ("oracle", "audit_task_truthfulness"),
    ("oracle", "enumerate_pure_nash"),
    ("harness", "run_experiment"),
    ("harness", "export_results"),
)

PACKAGE = "bmatch"

# solve_mvbm is reported per traversal, read from its second argument.
SPLIT_BY_TRAVERSAL = {"solver.solve_mvbm": ("bfs", "dfs")}

# Entering this boundary starts the next market: the harness generates
# instance i and then processes it before generating instance i + 1.
MARKET_BOUNDARY = "gen.generate_instance"


def span_names() -> list[str]:
    """Every span name the tracer can report, in a fixed order."""
    names = []
    for module, function in BOUNDARIES:
        base = f"{module}.{function}"
        split = SPLIT_BY_TRAVERSAL.get(base)
        names.extend([f"{base}.{s}" for s in split] if split else [base])
    return names


class Tracer:
    """Records spans at the bmatch boundaries while installed."""

    def __init__(self):
        self.names = span_names()
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_market = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.market = -1

    def _wrap(self, base: str, fn):
        names, parents, markets = self.span_name, self.span_parent, self.span_market
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        tracer = self
        split = SPLIT_BY_TRAVERSAL.get(base)
        if split is not None:
            first, second = self._ids[f"{base}.{split[0]}"], self._ids[f"{base}.{split[1]}"]
        name_id = self._ids.get(base, -1)
        starts_market = base == MARKET_BOUNDARY

        def traced(*args, **kwargs):
            if split is not None:
                traversal = args[1] if len(args) > 1 else kwargs.get("traversal")
                sid = first if getattr(traversal, "value", traversal) == split[0] else second
            else:
                sid = name_id
            if starts_market:
                tracer.market += 1
            idx = len(names)
            names.append(sid)
            parents.append(stack[-1])
            markets.append(tracer.market)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        self.absent = []
        for module_name, function in BOUNDARIES:
            base = f"{module_name}.{function}"
            owner = sys.modules.get(f"{PACKAGE}.{module_name}")
            target = getattr(owner, function, None) if owner is not None else None
            if not callable(target):
                self.absent.append(base)
                continue
            wrapper = self._wrap(base, target)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        self._patches.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "market": np.frombuffer(self.span_market, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def write(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Self times, call counts and subtree queries over recorded spans."""

    def __init__(self, tracer: Tracer):
        data = tracer.arrays()
        self.names = tracer.names
        self.name = data["name"]
        self.parent = data["parent"]
        self.duration = data["end"] - data["start"]
        count = len(self.name)
        has_parent = self.parent >= 0
        child_time = np.bincount(
            self.parent[has_parent], weights=self.duration[has_parent], minlength=count
        )
        self.self_time = self.duration - child_time
        width = len(self.names)
        self.calls = np.bincount(self.name, minlength=width)
        self.self_by_name = np.bincount(self.name, weights=self.self_time, minlength=width)

    def ids(self, *names: str) -> np.ndarray:
        return np.array([self.names.index(n) for n in names], dtype=np.int32)

    def under(self, *roots: str) -> np.ndarray:
        """True for every span that has an ancestor named in ``roots``."""
        root_ids = set(self.ids(*roots).tolist())
        names = self.name.tolist()
        inside = [False] * len(names)
        # parents are recorded before their children, so one pass suffices
        for i, p in enumerate(self.parent.tolist()):
            if p >= 0 and (inside[p] or names[p] in root_ids):
                inside[i] = True
        return np.array(inside, dtype=bool)

    def is_a(self, *names: str) -> np.ndarray:
        return np.isin(self.name, self.ids(*names))

    def top_level_time(self) -> float:
        return float(self.duration[self.parent < 0].sum())
