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
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import WEIGHT_TOL, _parse_finite, _parse_integral
from .gen import GenConfig, generate_instance
from .mechanisms import (
    MechanismKind,
    _lottery_samples,
    randomized_utility_samples,
    truthful_profile,
)
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
        if self.mc_trials < 1:
            raise ValueError("mc_trials must be at least 1")
        # a trial's key must fit one 32-bit word (``substream_doubles``)
        if self.mc_trials > 1 << 32:
            raise ValueError(f"mc_trials must be at most 2**32, got {self.mc_trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if any(k < 0 for k in self.orders):
            raise ValueError(f"orders must be non-negative, got {list(self.orders)}")
        # the generator's checks, up front for every cell, not per job
        for n, m, p, (low, high) in self.cells():
            GenConfig(n, m, p, low, high)
        if self.kind == "mpug-curve" and not self.thresholds:
            raise ValueError("thresholds must be non-empty")
        if self.kind == "randomized-vs-deterministic" and not self.orders:
            raise ValueError("orders must be non-empty")

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
        if not isinstance(data, dict):
            raise ValueError("not an experiment config: expected a JSON object")

        def listed(key, default=None):
            # a string would be read one character at a time
            values = data.get(key, default)
            if not isinstance(values, list):
                raise ValueError(f"{key} must be a list, got {values!r}")
            return values

        def integers(key, what, default=None):
            return tuple(_parse_integral(v, what) for v in listed(key, default))

        def finites(key, what, default=None):
            return tuple(_parse_finite(v, what) for v in listed(key, default))

        def capacity_range(entry):
            if not isinstance(entry, list) or len(entry) != 2:
                raise ValueError(
                    f"capacities entries must be [low, high] lists, got {entry!r}"
                )
            return (
                _parse_integral(entry[0], "capacity low"),
                _parse_integral(entry[1], "capacity high"),
            )

        def path(key):
            # open() would take an integer as a file descriptor
            value = data.get(key)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"{key} must be a path string, got {value!r}")
            return value

        return cls(
            kind=data["kind"],
            n_values=integers("n", "n"),
            m_values=integers("m", "m"),
            p_values=finites("p", "p"),
            capacity_ranges=tuple(map(capacity_range, listed("capacities"))),
            iterations=_parse_integral(data.get("iterations", 250), "iterations"),
            thresholds=finites("thresholds", "threshold", [1.5, 2.0, 2.5, 3.0]),
            orders=integers("orders", "order", [2, 3, 4]),
            mc_trials=_parse_integral(data.get("mc_trials", 250), "mc_trials"),
            seed=_parse_integral(data.get("seed", 0), "seed"),
            out_csv=path("out_csv"),
            out_json=path("out_json"),
            out_svg=path("out_svg"),
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
                    # standard JSON has no infinity; float() reads "inf" back
                    "value": r.value if math.isfinite(r.value) else repr(r.value),
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
    """None for fewer than two samples, or for a non-finite one (an
    infinite gain ratio), which has no spread."""
    if samples.size < 2 or not np.isfinite(samples).all():
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
    1 when the agent cannot manipulate (including the 0/0 case and a
    market without agents)."""
    if inst.n == 0 or not inst.agent_adj[0]:
        return 1.0
    gain = utility_gain_ratio(inst, kind, 0, TopB())
    if gain.manipulated_utility <= WEIGHT_TOL:
        return 1.0
    return gain.truthful_utility / gain.manipulated_utility


def _first_agent_sample(cfg, cell_index, instance_index, inst) -> tuple[float, float]:
    return tuple(
        _first_agent_ratio(inst, kind)
        for kind in (MechanismKind.MBFS, MechanismKind.MDFS)
    )


def _first_agent_rows(cfg, cell, samples) -> list[ResultRow]:
    rows = []
    for k, label in enumerate(("bfs", "dfs")):
        values = [sample[k] for sample in samples]
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


def _mpug_sample(cfg, cell_index, instance_index, inst) -> float:
    return mpug(inst, MechanismKind.MBFS, list(cfg.thresholds))


def _mpug_rows(cfg, cell, samples) -> list[ResultRow]:
    return [_mean_row(cell, cfg.iterations, "mpug_mean", samples)]


def _pma_sample(cfg, cell_index, instance_index, inst) -> float:
    return pma(inst, MechanismKind.MBFS, [TLevel(t) for t in cfg.thresholds])


def _pma_pmi_rows(cfg, cell, samples) -> list[ResultRow]:
    hits = [1.0 if v > 0.0 else 0.0 for v in samples]
    return [
        _mean_row(cell, cfg.iterations, "pma_mean", samples),
        _mean_row(cell, cfg.iterations, "pmi", hits),
    ]


def _randomized_sample(
    cfg, cell_index, instance_index, inst, share=0, shares=1
) -> tuple[float, float]:
    """The instance's deterministic and lottery verdicts, 1.0 or 0.0, as
    share ``share`` of ``shares`` sees them: the lottery verdict of the
    share's probes, and the deterministic verdict in share 0 alone (0.0
    in the others), so that the shares' samples OR into the instance's."""
    specs = [KOrder(k) for k in cfg.orders]
    manipulable = share == 0 and any(
        after - before > WEIGHT_TOL
        for _, _, before, after in _family_deviations(inst, MechanismKind.MBFS, specs)
    )
    lottery = _lottery_manipulable(
        cfg, cell_index, instance_index, inst, specs, share, shares
    )
    return (1.0 if manipulable else 0.0, 1.0 if lottery else 0.0)


def _randomized_rows(cfg, cell, samples) -> list[ResultRow]:
    return [
        _mean_row(
            cell,
            cfg.iterations,
            f"{label}_manipulable_fraction",
            [sample[k] for sample in samples],
        )
        for k, label in enumerate(("bfs", "rbfs"))
    ]


# The lottery's probes are solved about this many rows (probes x trials)
# at a time.  Per c11 instance (20x25, 250 trials), 30 instances in one
# process on a 2-CPU host, each size timed once per round in turn, the
# median over 8 rounds against 2,250 rows: 750 rows 1.39x, 1,000 1.22x,
# 1,500 1.07x, 2,000-4,500 0.99-1.05x, and as two share jobs per
# instance 1.23x, 1.09x, 1.01x and 0.95-1.00x.  One pass over all probes
# of an instance also solves the probes after the first manipulable one.
_PASS_ROWS = 2250


def _lottery_manipulable(
    cfg, cell_index, instance_index, inst, specs, share=0, shares=1
) -> bool:
    """An instance counts as manipulable for the order-lottery mechanism
    when some agent's Monte Carlo mean deviant payoff exceeds its mean
    truthful payoff by more than two standard errors of the difference.

    The truth runs on probe seed 0 and the agents' distinct reports on
    seeds 1, 2, ... in agent and report order.  Share ``share`` of
    ``shares`` takes the contiguous run of probes from ``len(probes) *
    share // shares`` on, so the shares split the list into runs of equal
    count, with the global probe numbering and seeds.  A share's probes
    are solved in order, ``max(1, _PASS_ROWS // trials)`` probes of any
    agents in one sampler call (``mechanisms._lottery_samples``), and
    tested in that order too, so its first manipulable one decides.  The
    instance is manipulable when any of its shares is; each share solves
    the truth itself.
    """
    truthful = truthful_profile(inst)
    trials = cfg.mc_trials

    def seed(probe: int) -> int:
        return derive_seed(cfg.seed, cell_index, 1, instance_index, probe)

    probes = [(a, report) for a in range(inst.n) if inst.agent_adj[a]
              for report in _family_reports(inst, a, specs)]
    start = len(probes) * share // shares
    stop = len(probes) * (share + 1) // shares
    if start == stop:
        return False
    truth = randomized_utility_samples(truthful, trials, seed(0))
    # each probing agent's truthful mean and standard error
    truths = {a: (float(truth[:, a].mean()), _stderr(truth[:, a]) or 0.0)
              for a in {a for a, _ in probes[start:stop]}}
    step = max(1, _PASS_ROWS // trials)
    for first in range(start, stop, step):
        batch = probes[first:min(first + step, stop)]
        seeds = [seed(first + 1 + i) for i in range(len(batch))]
        deviant = _lottery_samples(truthful, trials, seeds, batch)
        for (a, _), samples in zip(batch, deviant.reshape(len(batch), trials)):
            mean_truth, se_truth = truths[a]
            mean_dev = float(samples.mean())
            se_dev = _stderr(samples) or 0.0
            gain = mean_dev - mean_truth
            guard = 2.0 * math.sqrt(se_truth**2 + se_dev**2)
            if gain > guard and gain > WEIGHT_TOL:
                return True
    return False


# Per kind: the sample of one instance, and the rows of a cell from its
# samples in instance order.
_KINDS = {
    "compare-first-agent": (_first_agent_sample, _first_agent_rows),
    "mpug-curve": (_mpug_sample, _mpug_rows),
    "pma-pmi": (_pma_sample, _pma_pmi_rows),
    "randomized-vs-deterministic": (_randomized_sample, _randomized_rows),
}

def _run_instance(job: tuple):
    """The sample of instance ``i`` of one cell; a lottery job also names
    its share of the instance's probes (``_randomized_sample``)."""
    cfg, cell_index, cell, i, *share = job
    inst = generate_instance(_cell_gen_config(cfg, cell_index, cell), i)
    return _KINDS[cfg.kind][0](cfg, cell_index, i, inst, *share)


def _worker_count(explicit: int | None) -> int:
    name, count = "workers", explicit
    if count is None:
        env = os.environ.get(WORKERS_ENV_VAR)
        if not env:
            return os.cpu_count() or 1
        name, count = WORKERS_ENV_VAR, _parse_integral(env, WORKERS_ENV_VAR)
    if count < 1:
        raise ValueError(f"{name} must be at least 1, got {count}")
    return min(count, os.cpu_count() or 1)


# The process's pool as (process id, worker count, executor), kept
# across calls; a forked child sees its parent's entry and starts its own.
_pool: tuple[int, int, ProcessPoolExecutor] | None = None


def _shared_pool(workers: int) -> ProcessPoolExecutor:
    """The pool of ``workers`` processes, started at the first call and
    replaced when the worker count or the process changes."""
    global _pool
    if _pool is not None and _pool[:2] == (os.getpid(), workers):
        return _pool[2]
    _drop_pool()
    pool = ProcessPoolExecutor(max_workers=workers)
    _pool = (os.getpid(), workers, pool)
    return pool


def _drop_pool() -> None:
    global _pool
    if _pool is None:
        return
    pid, _, pool = _pool
    _pool = None
    if pid == os.getpid():
        pool.shutdown()


def _run_jobs(jobs: list[tuple], workers: int) -> list:
    """The samples of ``jobs`` in job order, on the shared pool when more
    than one worker is asked for.  A pool that cannot start leaves the
    jobs to this process; a broken one is replaced and the jobs rerun
    once, which gives the same samples since a job is a pure function."""
    if workers > 1:
        for retry in (False, True):
            try:
                return list(_shared_pool(workers).map(_run_instance, jobs))
            except BrokenProcessPool:
                _drop_pool()
                if retry:
                    raise
            except OSError:
                _drop_pool()
                break
    return [_run_instance(job) for job in jobs]


def run_experiment(
    cfg: ExperimentConfig, workers: int | None = None
) -> ResultsTable:
    """Run every grid cell and merge the rows in cell order.

    A job is one instance, listed in cell and instance order and handed
    out one at a time.  A ``randomized-vs-deterministic`` run with fewer
    instances than workers cuts each instance's lottery probes into
    ``ceil(workers / instances)`` shares, one job each, whose verdicts
    are ORed back into the instance's sample (``_randomized_sample``).
    Each cell reduces its contiguous slice of the samples once, so
    results are identical for any worker count.  ``workers`` (or the
    environment variable) asks for a process count, which is capped at
    the number of jobs and of CPUs.

    The process pool lives as long as the process: it is started at the
    first call that runs more than one worker, reused by every later call
    with the same count and replaced at a new count.  Its workers fork
    when it starts and keep the module state of that moment, so a
    function patched later is not seen by them.
    """
    count = _worker_count(workers)
    cells = cfg.cells()
    per_cell = cfg.iterations
    jobs = [(cfg, k, cell, i) for k, cell in enumerate(cells) for i in range(per_cell)]
    shares = 1
    if cfg.kind == "randomized-vs-deterministic":
        shares = math.ceil(count / len(jobs))
        jobs = [job + (s, shares) for job in jobs for s in range(shares)]
    samples = _run_jobs(jobs, min(count, len(jobs)))
    if shares > 1:
        # an instance's shares OR their verdicts into its sample
        samples = [tuple(map(max, *samples[j:j + shares]))
                   for j in range(0, len(samples), shares)]
    reduce = _KINDS[cfg.kind][1]
    rows = tuple(
        row
        for k, cell in enumerate(cells)
        for row in reduce(cfg, cell, samples[k * per_cell : (k + 1) * per_cell])
    )
    return ResultsTable(cfg.kind, cfg.seed, cfg.to_json_dict(), rows)


def export_results(table: ResultsTable, fmt: str, path: str) -> None:
    """Write the table as CSV or JSON.

    The CSV column order is fixed (n, m, p, b_low, b_high, iterations,
    metric, value, stderr, then the seed); metric values use six decimal
    places, and a missing standard error is an empty field.  The JSON is
    standard JSON: a non-finite value is the string ``"inf"`` or
    ``"-inf"``, and a non-finite sample leaves no standard error.
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
            json.dump(table.to_json_dict(), fh, indent=2, sort_keys=True,
                      allow_nan=False)
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
    utility gain on the y axis.  The y axis spans the finite means; an
    infinite mean (an agent that gains from a truthful utility of 0) is
    drawn at the top of the axis with a triangle marker labelled ``inf``.
    The output bytes depend only on the table contents.
    """
    if table.kind != "mpug-curve":
        raise ValueError("plots are defined for mpug-curve tables")
    rows = table.metric_rows("mpug_mean")
    if not rows:
        raise ValueError("table has no gain rows to plot")
    series: dict[int, list[tuple[int, float]]] = {}
    for r in rows:
        if not (math.isfinite(r.value) or r.value == math.inf):
            raise ValueError(f"cannot plot the gain mean {r.value}")
        series.setdefault(r.n, []).append((r.m, r.value))
    for points in series.values():
        points.sort()
    xs = sorted({m for pts in series.values() for m, _ in pts})
    x_min, x_max = float(xs[0]), float(xs[-1])
    if x_max <= x_min:
        x_max = x_min + 1.0
    y_max = max((v for pts in series.values() for _, v in pts if v != math.inf),
                default=0.0)
    if y_max <= 0.0:
        y_max = 1.0
    plot_w = _SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(m: float) -> float:
        return _MARGIN_LEFT + (m - x_min) / (x_max - x_min) * plot_w

    def sy(v: float) -> float:
        return _MARGIN_TOP + plot_h - min(v, y_max) / y_max * plot_h

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
        for m, v in series[n]:
            if v == math.inf:
                x, y = sx(m), sy(v)
                parts.append(
                    f'<polygon points="{x - 4:.2f},{y + 3:.2f} {x + 4:.2f},{y + 3:.2f} '
                    f'{x:.2f},{y - 4:.2f}" fill="{color}"/>'
                )
                parts.append(
                    f'<text x="{x:.1f}" y="{y - 8:.1f}" font-size="11" '
                    f'text-anchor="middle" fill="{color}">inf</text>'
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
