"""The three benchmark workloads.

Every input is drawn from the benchmark seed; the library only receives
the generated experiment configs and instances.  A round is one unit of
timed work: the experiment workloads run ``harness.run_experiment`` on a
fresh config per round and export the table, the audit workload runs the
exhaustive oracle audits over a fresh block of small markets.  Round
``r`` of a seed always holds the same markets, so the outputs of the
first rounds can be compared with digests recorded for the default seed.

Library calls go through module attributes (``harness.run_experiment``)
so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import hashlib
import os
from itertools import product

from bmatch import gen, harness, mechanisms, oracle, strategies
from bmatch.mechanisms import MechanismKind

EXACT_KINDS = (MechanismKind.MBFS, MechanismKind.MDFS)
ALL_KINDS = (MechanismKind.MBFS, MechanismKind.MDFS, MechanismKind.MAP)
WELFARE_TOL = 1e-9


def derive(seed: int, *key) -> int:
    """A 63-bit seed for ``(seed, *key)``, independent of the library's
    own substream derivation."""
    text = ":".join(str(part) for part in (seed, *key))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Checks:
    """Counts output checks; a failure is recorded, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


class ExperimentWorkload:
    """One ``run_experiment`` table per round, exported as CSV and JSON
    (and SVG for the gain curve)."""

    parallel = True

    def __init__(self, name: str, seed: int, shape: dict, warm_up_shape: dict):
        self.name = name
        self.seed = seed
        self.shape = shape
        self.warm_up_shape = warm_up_shape
        cells = len(harness.ExperimentConfig(seed=0, **shape).cells())
        self.markets_per_round = cells * shape["iterations"]

    def round_input(self, index: int) -> harness.ExperimentConfig:
        return harness.ExperimentConfig(seed=derive(self.seed, self.name, index), **self.shape)

    def warm_up(self, scratch: str) -> None:
        cfg = harness.ExperimentConfig(seed=derive(self.seed, self.name, "warm-up"),
                                       **self.warm_up_shape)
        self.run_round(cfg, 1, scratch)

    def run_round(self, cfg, workers: int, scratch: str, tracer=None) -> dict[str, bytes]:
        table = harness.run_experiment(cfg, workers=workers)
        outputs = {}
        for fmt in ("csv", "json"):
            path = os.path.join(scratch, f"table.{fmt}")
            harness.export_results(table, fmt, path)
            with open(path, "rb") as fh:
                outputs[fmt] = fh.read()
        if cfg.kind == "mpug-curve":
            path = os.path.join(scratch, "table.svg")
            harness.render_plot(table, path)
            with open(path, "rb") as fh:
                outputs["svg"] = fh.read()
        return outputs

    def check_round(self, outputs: list[dict[str, bytes]], checks: Checks, index: int) -> None:
        first = outputs[0]
        for other in outputs[1:]:
            checks.check(other["csv"] == first["csv"],
                         f"round {index}: CSV differs between worker counts")

    @staticmethod
    def digests(outputs: dict[str, bytes]) -> dict[str, str]:
        return {fmt: sha256(data) for fmt, data in sorted(outputs.items())}


# Criteria 5-6 shapes: 1-3 agents, 1-4 tasks, capacities 1-2, three densities.
AUDIT_AGENTS = (1, 2, 3)
AUDIT_TASKS = (1, 2, 3, 4)
AUDIT_DENSITIES = (0.3, 0.6, 1.0)
AUDIT_CAPACITIES = (1, 2)
AUDIT_SHAPES = tuple(product(AUDIT_AGENTS, AUDIT_TASKS, AUDIT_DENSITIES))


class AuditWorkload:
    """Exhaustive truthfulness audits and equilibrium checks per market.

    A round is one pass over every shape in ``AUDIT_SHAPES``, so each
    round carries the same mix of market sizes.
    """

    parallel = False
    markets_per_round = len(AUDIT_SHAPES)
    pool_rounds = 24
    shape = {"n": AUDIT_AGENTS, "m": AUDIT_TASKS, "p": AUDIT_DENSITIES,
             "capacities": AUDIT_CAPACITIES, "pool_rounds": pool_rounds}

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        # rounds past the pool reuse its blocks in order
        self.pool = [self._market(i) for i in range(self.pool_rounds * self.markets_per_round)]

    def _market(self, index: int):
        n, m, p = AUDIT_SHAPES[index % len(AUDIT_SHAPES)]
        cfg = gen.GenConfig(n, m, p, *AUDIT_CAPACITIES, seed=derive(self.seed, self.name))
        return gen.generate_instance(cfg, index)

    def round_input(self, index: int) -> list:
        block = index % self.pool_rounds
        size = self.markets_per_round
        return self.pool[block * size:(block + 1) * size]

    def warm_up(self, scratch: str) -> None:
        self.run_round(self.pool[: len(AUDIT_SHAPES) // 3], 1, scratch)

    def run_round(self, markets, workers: int, scratch: str, tracer=None) -> list:
        results = []
        for inst in markets:
            if tracer is not None:
                tracer.market += 1
            results.append(audit_market(inst))
        return results

    def check_round(self, outputs: list[list], checks: Checks, index: int) -> None:
        first = outputs[0]
        for i, result in enumerate(first):
            where = f"round {index} market {i}"
            checks.check(result["map_agents"] == [], f"{where}: MAP agent audit not empty")
            for kind, found in result["tasks"].items():
                checks.check(found == [], f"{where}: {kind} task audit not empty")
            for kind, (is_nash, _) in result["fcfs_nash"].items():
                checks.check(is_nash, f"{where}: FCFS profile is no {kind} equilibrium")
            welfare = result["fcfs_welfare"]
            for kind, welfares in result["equilibria"].items():
                checks.check(bool(welfares) and welfare <= min(welfares) + WELFARE_TOL,
                             f"{where}: FCFS welfare above a {kind} equilibrium")
        for other in outputs[1:]:
            checks.check(self.digests(other) == self.digests(first),
                         f"round {index}: audit results differ between runs")

    @staticmethod
    def digests(outputs: list) -> dict[str, str]:
        return {"audit": sha256(repr(outputs).encode())}


def _deviations(found) -> list:
    return [(d.entity, d.report.edges, getattr(d.report, "capacity", None),
             getattr(d.report, "value", None), d.baseline_utility, d.deviant_utility)
            for d in found]


def audit_market(inst) -> dict:
    """Every audit of one market, as plain data for checks and digests."""
    profile, welfare = mechanisms.worst_ne_profile(inst)
    return {
        "agents": {k.value: _deviations(oracle.audit_agent_truthfulness(inst, k, "ems"))
                   for k in EXACT_KINDS},
        "map_agents": _deviations(
            oracle.audit_agent_truthfulness(inst, MechanismKind.MAP, "ecms")),
        "tasks": {k.value: _deviations(oracle.audit_task_truthfulness(inst, k, "evms"))
                  for k in ALL_KINDS},
        "fcfs_welfare": welfare,
        "fcfs_nash": {k.value: _nash_verdict(strategies.verify_nash(profile, k))
                      for k in EXACT_KINDS},
        "equilibria": {k.value: sorted(w for _, w in oracle.enumerate_pure_nash(inst, k))
                       for k in EXACT_KINDS},
    }


def _nash_verdict(verdict) -> tuple:
    ok, deviation = verdict
    return ok, None if deviation is None else _deviations([deviation])[0]


GAIN_CURVE_SHAPE = dict(
    kind="mpug-curve", n_values=(15, 20), m_values=(200,), p_values=(0.2,),
    capacity_ranges=((3, 7),), thresholds=(1.5, 2.0, 2.5, 3.0), iterations=2,
)
LOTTERY_SHAPE = dict(
    kind="randomized-vs-deterministic", n_values=(20,), m_values=(25,), p_values=(0.2,),
    capacity_ranges=((3, 3),), orders=(2, 3, 4), mc_trials=250, iterations=1,
)


def make(name: str, seed: int):
    if name == "gain-curve":
        warm = dict(GAIN_CURVE_SHAPE, n_values=(15,), m_values=(50,), iterations=1)
        return ExperimentWorkload(name, seed, GAIN_CURVE_SHAPE, warm)
    if name == "lottery":
        warm = dict(LOTTERY_SHAPE, mc_trials=10)
        return ExperimentWorkload(name, seed, LOTTERY_SHAPE, warm)
    if name == "audit":
        return AuditWorkload(name, seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("gain-curve", "lottery", "audit")
