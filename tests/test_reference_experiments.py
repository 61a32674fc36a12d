"""One end-to-end reference for the four experiment kinds.

Each kind's rows are recomputed here the long way, from the definitions:
every report's market is rebuilt by the checked constructor and solved
in full, every lottery trial draws its order with ``sample_agent_order``
from its own ``derive_rng`` substream, and the means and standard errors
are taken here.  The CSV ``run_experiment`` writes must match these rows
byte for byte at one worker and at two, so every fast path the
experiments compose (the patched build, the journal resume, the
retired-deviant skip, the batched draw and solve, the pool) is checked
against the definitions, not only against an earlier output.
"""

from __future__ import annotations

import math
import os
from collections import Counter

import numpy as np
import pytest

from bmatch import harness, solver
from bmatch.core import WEIGHT_TOL, agent_utility
from bmatch.gen import GenConfig, generate_instance
from bmatch.harness import (
    EXPERIMENT_KINDS,
    ExperimentConfig,
    export_results,
    run_experiment,
)
from bmatch.mechanisms import MechanismKind, sample_agent_order, truthful_profile
from bmatch.seeds import derive_rng, derive_seed
from bmatch.solver import Traversal, solve_mvbm
from bmatch.strategies import KOrder, TLevel, TopB, apply_manipulation
from conftest import rebuilt_effective_instance

SEED = 31

# Fixed before the first run.  Capacities of 1-3 against up to 20 tasks
# leave agents saturated, so searches fail and lottery trials leave the
# vector pass; at two workers each instance is its own job.
GRIDS = {
    "compare-first-agent": dict(
        n_values=(3, 6), m_values=(5, 12), p_values=(0.6,),
        capacity_ranges=((1, 2),), iterations=6),
    "mpug-curve": dict(
        n_values=(4,), m_values=(6, 15), p_values=(0.5,),
        capacity_ranges=((1, 2), (2, 3)), iterations=6),
    "pma-pmi": dict(
        n_values=(4, 8), m_values=(8, 20), p_values=(0.4,),
        capacity_ranges=((1, 3),), iterations=6),
    "randomized-vs-deterministic": dict(
        n_values=(4, 6), m_values=(6, 10), p_values=(0.5,),
        capacity_ranges=((1, 2),), iterations=4, orders=(1, 2), mc_trials=24),
}

TRAVERSALS = {
    MechanismKind.MBFS: Traversal.BREADTH_FIRST,
    MechanismKind.MDFS: Traversal.DEPTH_FIRST,
}


def _profile(inst, agent, report):
    profile = truthful_profile(inst)
    return profile if report is None else profile.with_report(agent, report)


def _payoff(inst, kind, agent, report=None):
    """The agent's utility from a full solve of the rebuilt market with
    its report swapped in (``None``: the truth)."""
    market = rebuilt_effective_instance(_profile(inst, agent, report))
    return agent_utility(inst, solve_mvbm(market, TRAVERSALS[kind]), agent)


def _lottery_owners(inst, agent, report, trials, seed):
    market = rebuilt_effective_instance(_profile(inst, agent, report))
    return [
        solve_mvbm(market, Traversal.BREADTH_FIRST,
                   sample_agent_order(market, derive_rng(seed, k)))
        for k in range(trials)
    ]


def _mean_stderr(samples):
    arr = np.asarray(samples, dtype=np.float64)
    stderr = None
    if arr.size > 1:
        stderr = float(arr.std(ddof=1) / math.sqrt(arr.size))
    return float(arr.mean()), stderr


def _agents(inst):
    return [a for a in range(inst.n) if inst.agent_adj[a]]


def _family(inst, agent, specs):
    """The distinct reports of the specs, in spec order, without the
    truthful one: the reports a lottery probe is numbered by."""
    seen, reports = {inst.agent_adj[agent]}, []
    for spec in specs:
        report = apply_manipulation(inst, agent, spec)
        if report.edges not in seen:
            seen.add(report.edges)
            reports.append(report)
    return reports


def _first_agent_ratio(inst, kind):
    if inst.n == 0 or not inst.agent_adj[0]:
        return 1.0
    manipulated = _payoff(inst, kind, 0, apply_manipulation(inst, 0, TopB()))
    if manipulated <= WEIGHT_TOL:
        return 1.0
    return _payoff(inst, kind, 0) / manipulated


def _first_agent_rows(cfg, instances):
    rows = []
    for kind, label in ((MechanismKind.MBFS, "bfs"), (MechanismKind.MDFS, "dfs")):
        ratios = [_first_agent_ratio(inst, kind) for inst in instances]
        losses = [1.0 - r for r in ratios]
        rows.append((f"{label}_ratio_mean", *_mean_stderr(ratios)))
        rows.append((f"{label}_ratio_min", min(ratios), None))
        rows.append((f"{label}_ratio_max", max(ratios), None))
        rows.append((f"{label}_loss_max", max(losses), None))
        rows.append((f"{label}_loss_min", min(losses), None))
    return rows


def _threshold_gains(cfg, inst):
    """(agent, truthful utility, manipulated utility) per threshold."""
    for a in _agents(inst):
        before = _payoff(inst, MechanismKind.MBFS, a)
        for t in cfg.thresholds:
            report = apply_manipulation(inst, a, TLevel(t))
            yield a, before, _payoff(inst, MechanismKind.MBFS, a, report)


def _max_gain(cfg, inst):
    best = 0.0
    for _, before, after in _threshold_gains(cfg, inst):
        if before <= WEIGHT_TOL and after <= WEIGHT_TOL:
            continue
        gain = max(after - before, 0.0) / before if before > WEIGHT_TOL else math.inf
        best = max(best, gain)
    return best


def _mpug_rows(cfg, instances):
    return [("mpug_mean", *_mean_stderr([_max_gain(cfg, i) for i in instances]))]


def _gaining_share(cfg, inst):
    if inst.n == 0:
        return 0.0
    gainers = {a for a, before, after in _threshold_gains(cfg, inst)
               if after - before > WEIGHT_TOL}
    return len(gainers) / inst.n


def _pma_pmi_rows(cfg, instances):
    shares = [_gaining_share(cfg, inst) for inst in instances]
    return [("pma_mean", *_mean_stderr(shares)),
            ("pmi", *_mean_stderr([1.0 if s > 0.0 else 0.0 for s in shares]))]


def _order_manipulable(cfg, inst):
    specs = [KOrder(k) for k in cfg.orders]
    return any(
        _payoff(inst, MechanismKind.MBFS, a, report)
        - _payoff(inst, MechanismKind.MBFS, a) > WEIGHT_TOL
        for a in _agents(inst)
        for report in _family(inst, a, specs)
    )


def _lottery_manipulable(cfg, cell_index, index, inst):
    """Some probe's mean deviant payoff beats the mean truthful payoff by
    more than two standard errors of the difference.  Probe ``k`` (from
    1, over agents and their distinct reports) draws its trials from the
    seed ``(seed, cell, 1, instance, k)``, the truth from probe 0."""
    def seed(probe):
        return derive_seed(cfg.seed, cell_index, 1, index, probe)

    truth = _lottery_owners(inst, 0, None, cfg.mc_trials, seed(0))
    specs = [KOrder(k) for k in cfg.orders]
    probe, manipulable = 0, False
    for a in _agents(inst):
        mean_truth, se_truth = _mean_stderr(
            [agent_utility(inst, owner, a) for owner in truth])
        for report in _family(inst, a, specs):
            probe += 1
            deviant = _lottery_owners(inst, a, report, cfg.mc_trials, seed(probe))
            mean_dev, se_dev = _mean_stderr(
                [agent_utility(inst, owner, a) for owner in deviant])
            gain = mean_dev - mean_truth
            guard = 2.0 * math.sqrt((se_truth or 0.0) ** 2 + (se_dev or 0.0) ** 2)
            manipulable |= gain > guard and gain > WEIGHT_TOL
    return manipulable


def _randomized_rows(cfg, instances, cell_index):
    bfs = [1.0 if _order_manipulable(cfg, inst) else 0.0 for inst in instances]
    rbfs = [1.0 if _lottery_manipulable(cfg, cell_index, i, inst) else 0.0
            for i, inst in enumerate(instances)]
    return [("bfs_manipulable_fraction", *_mean_stderr(bfs)),
            ("rbfs_manipulable_fraction", *_mean_stderr(rbfs))]


def _reference_csv(cfg):
    lines = ["n,m,p,b_low,b_high,iterations,metric,value,stderr,seed"]
    for cell_index, cell in enumerate(cfg.cells()):
        n, m, p, (low, high) = cell
        gen = GenConfig(n, m, p, low, high, seed=derive_seed(cfg.seed, cell_index, 0))
        instances = [generate_instance(gen, i) for i in range(cfg.iterations)]
        if cfg.kind == "compare-first-agent":
            rows = _first_agent_rows(cfg, instances)
        elif cfg.kind == "mpug-curve":
            rows = _mpug_rows(cfg, instances)
        elif cfg.kind == "pma-pmi":
            rows = _pma_pmi_rows(cfg, instances)
        else:
            rows = _randomized_rows(cfg, instances, cell_index)
        for metric, value, stderr in rows:
            se = "" if stderr is None else f"{stderr:.6f}"
            lines.append(f"{n},{m},{p},{low},{high},{cfg.iterations},"
                         f"{metric},{value:.6f},{se},{cfg.seed}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _csv(table, path):
    export_results(table, "csv", str(path))
    return path.read_bytes()


def _count_calls(patch, cls, name, counts):
    method = getattr(cls, name)

    def counting(self, *args):
        counts[name] += 1
        return method(self, *args)

    patch.setattr(cls, name, counting)


def _count_depth_two(patch, counts):
    flip = solver._flip_depth_two

    def counting(inst, start, rows, *arrays):
        left = flip(inst, start, rows, *arrays)
        counts["depth_two"] += rows.size - left.size
        return left

    patch.setattr(solver, "_flip_depth_two", counting)


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_experiment_rows_follow_their_definitions(kind, tmp_path, monkeypatch):
    cfg = ExperimentConfig(kind=kind, seed=SEED, **GRIDS[kind])
    expected = _reference_csv(cfg)
    counts = Counter()
    with monkeypatch.context() as patch:
        # a failed search retires the agents it reached; a lottery trial
        # takes depth-2 searches in the vector pass and is seeded into a
        # state machine at its first search that fails or goes deeper
        _count_calls(patch, solver._State, "retire", counts)
        _count_calls(patch, solver._State, "seed_matching", counts)
        _count_depth_two(patch, counts)
        serial = _csv(run_experiment(cfg, workers=1), tmp_path / "serial.csv")
    assert counts["retire"] > 0
    if kind == "randomized-vs-deterministic":
        assert counts["seed_matching"] > 0
        assert counts["depth_two"] > 0
    assert serial == expected
    # the two-worker run starts a pool of two, even on a one-CPU host
    harness._drop_pool()
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert _csv(run_experiment(cfg, workers=2), tmp_path / "two.csv") == expected
    assert harness._pool[:2] == (os.getpid(), 2)
