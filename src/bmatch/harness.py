"""Experiment orchestration, results aggregation, and table/plot emission.

An experiment sweeps a grid of market shapes (agent count, task count,
connection probability, capacity range), generates seeded instances per
cell, and aggregates one of four metric families:

* ``compare-first-agent``: the first agent's truthful payoff against its
  top-capacity report, under both exact mechanisms;
* ``mpug-curve``: the mean instance-level maximum utility gain over a
  threshold family;
* ``pma-pmi``: the fraction of agents able to gain and the fraction of
  instances where anyone gains;
* ``randomized-vs-deterministic``: manipulable-instance fractions for
  the deterministic mechanism against its order-lottery variant, using
  order manipulations and Monte Carlo payoff averages.

Every random draw flows from (seed, cell, instance, trial) substreams
and all reductions run in a fixed order, so a configuration produces
byte-identical outputs regardless of the worker count.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import WEIGHT_TOL
from .gen import GenConfig, generate_instance
from .mechanisms import MechanismKind, randomized_utility_samples, truthful_profile
from .seeds import derive_seed
from .strategies import (
    KOrder,
    TLevel,
    TopB,
    _family_deviations,
    _family_reports,
    mpug,
    pma,
    utility_gain_ratio,
)

__all__ = [
    "EXPERIMENT_KINDS",
    "ExperimentConfig",
    "ResultRow",
    "ResultsTable",
    "run_experiment",
    "export_results",
    "render_plot",
    "results_from_json_dict",
]

EXPERIMENT_KINDS = (
    "compare-first-agent",
    "mpug-curve",
    "pma-pmi",
    "randomized-vs-deterministic",
)

WORKERS_ENV_VAR = "BMATCH_WORKERS"


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    n_values: tuple[int, ...]
    m_values: tuple[int, ...]
    p_values: tuple[float, ...]
    capacity_ranges: tuple[tuple[int, int], ...]
    iterations: int = 250
    thresholds: tuple[float, ...] = (1.5, 2.0, 2.5, 3.0)
    orders: tuple[int, ...] = (2, 3, 4)
    mc_trials: int = 250
    seed: int = 0
    out_csv: str | None = None
    out_json: str | None = None
    out_svg: str | None = None

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        for name in ("n_values", "m_values", "p_values", "capacity_ranges"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.kind == "mpug-curve" and not self.thresholds:
            raise ValueError("thresholds must be non-empty")

    def cells(self) -> list[tuple[int, int, float, tuple[int, int]]]:
        return list(
            product(self.n_values, self.m_values, self.p_values, self.capacity_ranges)
        )

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n": list(self.n_values),
            "m": list(self.m_values),
            "p": list(self.p_values),
            "capacities": [list(r) for r in self.capacity_ranges],
            "iterations": self.iterations,
            "thresholds": list(self.thresholds),
            "orders": list(self.orders),
            "mc_trials": self.mc_trials,
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentConfig":
        return cls(
            kind=data["kind"],
            n_values=tuple(int(v) for v in data["n"]),
            m_values=tuple(int(v) for v in data["m"]),
            p_values=tuple(float(v) for v in data["p"]),
            capacity_ranges=tuple(
                (int(lo), int(hi)) for lo, hi in data["capacities"]
            ),
            iterations=int(data.get("iterations", 250)),
            thresholds=tuple(float(v) for v in data.get("thresholds", (1.5, 2.0, 2.5, 3.0))),
            orders=tuple(int(v) for v in data.get("orders", (2, 3, 4))),
            mc_trials=int(data.get("mc_trials", 250)),
            seed=int(data.get("seed", 0)),
            out_csv=data.get("out_csv"),
            out_json=data.get("out_json"),
            out_svg=data.get("out_svg"),
        )


@dataclass(frozen=True)
class ResultRow:
    n: int
    m: int
    p: float
    b_low: int
    b_high: int
    iterations: int
    metric: str
    value: float
    stderr: float | None


@dataclass(frozen=True)
class ResultsTable:
    kind: str
    seed: int
    config: dict
    rows: tuple[ResultRow, ...]

    def metric_rows(self, metric: str) -> list[ResultRow]:
        return [r for r in self.rows if r.metric == metric]

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "config": self.config,
            "rows": [
                {
                    "n": r.n,
                    "m": r.m,
                    "p": r.p,
                    "b_low": r.b_low,
                    "b_high": r.b_high,
                    "iterations": r.iterations,
                    "metric": r.metric,
                    "value": r.value,
                    "stderr": r.stderr,
                }
                for r in self.rows
            ],
        }


def results_from_json_dict(data: dict) -> ResultsTable:
    rows = tuple(
        ResultRow(
            n=int(r["n"]),
            m=int(r["m"]),
            p=float(r["p"]),
            b_low=int(r["b_low"]),
            b_high=int(r["b_high"]),
            iterations=int(r["iterations"]),
            metric=r["metric"],
            value=float(r["value"]),
            stderr=None if r["stderr"] is None else float(r["stderr"]),
        )
        for r in data["rows"]
    )
    return ResultsTable(data["kind"], int(data["seed"]), data["config"], rows)


def _stderr(samples: np.ndarray) -> float | None:
    if samples.size < 2:
        return None
    return float(samples.std(ddof=1) / math.sqrt(samples.size))


def _mean_row(cell, iterations, metric, samples: list[float]) -> ResultRow:
    n, m, p, (b_low, b_high) = cell
    arr = np.asarray(samples, dtype=np.float64)
    return ResultRow(
        n, m, p, b_low, b_high, iterations, metric, float(arr.mean()), _stderr(arr)
    )


def _extreme_row(cell, iterations, metric, value: float) -> ResultRow:
    n, m, p, (b_low, b_high) = cell
    return ResultRow(n, m, p, b_low, b_high, iterations, metric, float(value), None)


def _cell_gen_config(cfg: ExperimentConfig, cell_index: int, cell) -> GenConfig:
    n, m, p, (b_low, b_high) = cell
    return GenConfig(
        n=n,
        m=m,
        p=p,
        capacity_low=b_low,
        capacity_high=b_high,
        seed=derive_seed(cfg.seed, cell_index, 0),
    )


def _first_agent_ratio(inst, kind: MechanismKind) -> float:
    """Truthful payoff over top-capacity-report payoff for agent 0;
    1 when the agent cannot manipulate (including the 0/0 case)."""
    if not inst.agent_adj[0]:
        return 1.0
    gain = utility_gain_ratio(inst, kind, 0, TopB())
    if gain.manipulated_utility <= WEIGHT_TOL:
        return 1.0
    return gain.truthful_utility / gain.manipulated_utility


def _compare_first_agent_cell(cfg, cell_index, cell) -> list[ResultRow]:
    gen_cfg = _cell_gen_config(cfg, cell_index, cell)
    ratios = {MechanismKind.MBFS: [], MechanismKind.MDFS: []}
    for i in range(cfg.iterations):
        inst = generate_instance(gen_cfg, i)
        for kind in (MechanismKind.MBFS, MechanismKind.MDFS):
            ratios[kind].append(_first_agent_ratio(inst, kind))
    rows = []
    for kind, label in ((MechanismKind.MBFS, "bfs"), (MechanismKind.MDFS, "dfs")):
        values = ratios[kind]
        rows.append(_mean_row(cell, cfg.iterations, f"{label}_ratio_mean", values))
        rows.append(
            _extreme_row(cell, cfg.iterations, f"{label}_ratio_min", min(values))
        )
        rows.append(
            _extreme_row(cell, cfg.iterations, f"{label}_ratio_max", max(values))
        )
        losses = [1.0 - v for v in values]
        rows.append(
            _extreme_row(cell, cfg.iterations, f"{label}_loss_max", max(losses))
        )
        rows.append(
            _extreme_row(cell, cfg.iterations, f"{label}_loss_min", min(losses))
        )
    return rows


def _mpug_cell(cfg, cell_index, cell) -> list[ResultRow]:
    gen_cfg = _cell_gen_config(cfg, cell_index, cell)
    values = [
        mpug(generate_instance(gen_cfg, i), MechanismKind.MBFS, list(cfg.thresholds))
        for i in range(cfg.iterations)
    ]
    return [_mean_row(cell, cfg.iterations, "mpug_mean", values)]


def _pma_pmi_cell(cfg, cell_index, cell) -> list[ResultRow]:
    gen_cfg = _cell_gen_config(cfg, cell_index, cell)
    specs = [TLevel(t) for t in cfg.thresholds]
    pmas = [
        pma(generate_instance(gen_cfg, i), MechanismKind.MBFS, specs)
        for i in range(cfg.iterations)
    ]
    hits = [1.0 if v > 0.0 else 0.0 for v in pmas]
    return [
        _mean_row(cell, cfg.iterations, "pma_mean", pmas),
        _mean_row(cell, cfg.iterations, "pmi", hits),
    ]


def _randomized_cell(cfg, cell_index, cell) -> list[ResultRow]:
    gen_cfg = _cell_gen_config(cfg, cell_index, cell)
    specs = [KOrder(k) for k in cfg.orders]
    det_flags: list[float] = []
    rand_flags: list[float] = []
    for i in range(cfg.iterations):
        inst = generate_instance(gen_cfg, i)
        manipulable = any(
            after - before > WEIGHT_TOL
            for _, _, before, after in _family_deviations(
                inst, MechanismKind.MBFS, specs
            )
        )
        det_flags.append(1.0 if manipulable else 0.0)
        rand_flags.append(1.0 if _lottery_manipulable(cfg, cell_index, i, inst, specs) else 0.0)
    return [
        _mean_row(cell, cfg.iterations, "bfs_manipulable_fraction", det_flags),
        _mean_row(cell, cfg.iterations, "rbfs_manipulable_fraction", rand_flags),
    ]


def _lottery_manipulable(cfg, cell_index, instance_index, inst, specs) -> bool:
    """An instance counts as manipulable for the order-lottery mechanism
    when some agent's Monte Carlo mean deviant payoff exceeds its mean
    truthful payoff by more than two standard errors of the difference."""
    truthful = truthful_profile(inst)
    truth = randomized_utility_samples(
        truthful, cfg.mc_trials, derive_seed(cfg.seed, cell_index, 1, instance_index, 0)
    )
    probe = 0
    for a in range(inst.n):
        if not inst.agent_adj[a]:
            continue
        mean_truth = float(truth[:, a].mean())
        se_truth = _stderr(truth[:, a]) or 0.0
        for report in _family_reports(inst, a, specs):
            probe += 1
            deviant = randomized_utility_samples(
                truthful.with_report(a, report),
                cfg.mc_trials,
                derive_seed(cfg.seed, cell_index, 1, instance_index, probe),
            )
            mean_dev = float(deviant[:, a].mean())
            se_dev = _stderr(deviant[:, a]) or 0.0
            gain = mean_dev - mean_truth
            guard = 2.0 * math.sqrt(se_truth**2 + se_dev**2)
            if gain > guard and gain > WEIGHT_TOL:
                return True
    return False


_CELL_RUNNERS = {
    "compare-first-agent": _compare_first_agent_cell,
    "mpug-curve": _mpug_cell,
    "pma-pmi": _pma_pmi_cell,
    "randomized-vs-deterministic": _randomized_cell,
}


def _run_cell(args: tuple) -> list[ResultRow]:
    cfg, cell_index, cell = args
    return _CELL_RUNNERS[cfg.kind](cfg, cell_index, cell)


def _worker_count(explicit: int | None) -> int:
    if explicit is not None:
        return max(1, explicit)
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def run_experiment(
    cfg: ExperimentConfig, workers: int | None = None
) -> ResultsTable:
    """Run every grid cell and merge the rows in cell order.

    ``workers`` (or the environment variable) caps the process count;
    results are identical for any worker count.
    """
    cells = cfg.cells()
    jobs = [(cfg, index, cell) for index, cell in enumerate(cells)]
    count = min(_worker_count(workers), len(jobs))
    if count > 1:
        try:
            with ProcessPoolExecutor(max_workers=count) as pool:
                per_cell = list(pool.map(_run_cell, jobs))
        except (OSError, PermissionError):
            per_cell = [_run_cell(job) for job in jobs]
    else:
        per_cell = [_run_cell(job) for job in jobs]
    rows = tuple(row for cell_rows in per_cell for row in cell_rows)
    return ResultsTable(cfg.kind, cfg.seed, cfg.to_json_dict(), rows)


def export_results(table: ResultsTable, fmt: str, path: str) -> None:
    """Write the table as CSV or JSON.

    The CSV column order is fixed (n, m, p, b_low, b_high, iterations,
    metric, value, stderr, then the seed); metric values use six decimal
    places, and a missing standard error is an empty field.
    """
    if fmt == "csv":
        lines = ["n,m,p,b_low,b_high,iterations,metric,value,stderr,seed"]
        for r in table.rows:
            stderr = "" if r.stderr is None else f"{r.stderr:.6f}"
            lines.append(
                f"{r.n},{r.m},{r.p},{r.b_low},{r.b_high},{r.iterations},"
                f"{r.metric},{r.value:.6f},{stderr},{table.seed}"
            )
        text = "\n".join(lines) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(table.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    raise ValueError(f"unknown export format {fmt!r}")


_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")

_SVG_WIDTH = 640.0
_SVG_HEIGHT = 440.0
_MARGIN_LEFT = 70.0
_MARGIN_RIGHT = 150.0
_MARGIN_TOP = 30.0
_MARGIN_BOTTOM = 55.0


def render_plot(table: ResultsTable, path: str) -> None:
    """Emit the gain-curve family as a standalone SVG.

    One polyline per agent count, task count on the x axis, mean maximum
    utility gain on the y axis.  The output bytes depend only on the
    table contents.
    """
    if table.kind != "mpug-curve":
        raise ValueError("plots are defined for mpug-curve tables")
    rows = table.metric_rows("mpug_mean")
    if not rows:
        raise ValueError("table has no gain rows to plot")
    series: dict[int, list[tuple[int, float]]] = {}
    for r in rows:
        series.setdefault(r.n, []).append((r.m, r.value))
    for points in series.values():
        points.sort()
    xs = sorted({m for pts in series.values() for m, _ in pts})
    x_min, x_max = float(xs[0]), float(xs[-1])
    if x_max <= x_min:
        x_max = x_min + 1.0
    y_max = max(v for pts in series.values() for _, v in pts)
    if y_max <= 0.0:
        y_max = 1.0
    plot_w = _SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(m: float) -> float:
        return _MARGIN_LEFT + (m - x_min) / (x_max - x_min) * plot_w

    def sy(v: float) -> float:
        return _MARGIN_TOP + plot_h - v / y_max * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH:.0f}" '
        f'height="{_SVG_HEIGHT:.0f}" viewBox="0 0 {_SVG_WIDTH:.0f} {_SVG_HEIGHT:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<line x1="{_MARGIN_LEFT:.1f}" y1="{_MARGIN_TOP + plot_h:.1f}" '
        f'x2="{_MARGIN_LEFT + plot_w:.1f}" y2="{_MARGIN_TOP + plot_h:.1f}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{_MARGIN_LEFT:.1f}" y1="{_MARGIN_TOP:.1f}" '
        f'x2="{_MARGIN_LEFT:.1f}" y2="{_MARGIN_TOP + plot_h:.1f}" '
        'stroke="black" stroke-width="1"/>',
    ]
    for m in xs:
        x = sx(float(m))
        parts.append(
            f'<text x="{x:.1f}" y="{_MARGIN_TOP + plot_h + 18:.1f}" '
            f'font-size="11" text-anchor="middle">{m}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        v = y_max * frac
        y = sy(v)
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8:.1f}" y="{y + 4:.1f}" '
            f'font-size="11" text-anchor="end">{v:.3f}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_SVG_HEIGHT - 12:.1f}" '
        'font-size="13" text-anchor="middle">number of tasks</text>'
    )
    parts.append(
        f'<text x="16" y="{_MARGIN_TOP + plot_h / 2:.1f}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 16 {_MARGIN_TOP + plot_h / 2:.1f})">'
        "mean maximum utility gain</text>"
    )
    for idx, n in enumerate(sorted(series)):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(f"{sx(m):.2f},{sy(v):.2f}" for m, v in series[n])
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        legend_y = _MARGIN_TOP + 14 + 18 * idx
        parts.append(
            f'<line x1="{_MARGIN_LEFT + plot_w + 12:.1f}" y1="{legend_y:.1f}" '
            f'x2="{_MARGIN_LEFT + plot_w + 34:.1f}" y2="{legend_y:.1f}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT + plot_w + 40:.1f}" y="{legend_y + 4:.1f}" '
            f'font-size="12">{n} agents</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
