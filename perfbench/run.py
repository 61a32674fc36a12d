"""bmatch benchmark: end-to-end throughput and per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload gain-curve --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced pass.  ``--workload all`` runs every
workload in turn.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the environment, round timings and digests go to ``perfbench/out/``.
Times are in nominal seconds, corrected for the host's speed by a
reference kernel timed between rounds (``hostspeed.py``).
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

DEFAULT_SEED = 0
# Every run does at least this many rounds; digests are recorded for
# these rounds of the default seed.
MIN_ROUNDS = 2
SETUP_SAMPLES = 7
# Traced rounds are a fixed amount of work, so span counts repeat exactly.
TRACED_ROUNDS = {"gain-curve": 4, "lottery": 4, "audit": 10}

END_TO_END = (
    ("markets_per_s", "1/s"),
    ("markets_per_s_serial", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
DERIVED = (
    ("solver.ms_per_solve", "ms"),
    ("mechanisms.build_share", "ratio"),
    ("mechanisms.lottery_us_per_trial", "us"),
    ("mechanisms.solves_per_market", "count"),
    ("harness.parallel_efficiency", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.absent_boundaries", "count"),
)


def import_library():
    """Import bmatch from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import bmatch
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import bmatch from {src}: {exc}")
    if Path(bmatch.__file__).resolve().parent.parent != src:
        sys.exit(f"perfbench: bmatch was imported from {bmatch.__file__}, not {src}")


def per_layer_names() -> list[tuple[str, str]]:
    from tracer import span_names

    names = []
    for span in span_names():
        names += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
    return names + list(DERIVED)


def setup(workload: str, seed: int, scratch: str):
    import workloads

    wl = workloads.make(workload, seed)
    wl.warm_up(scratch)
    return wl


def probe_setup(args) -> float:
    """Set-up time of a fresh process, from its start to the first timed call."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--setup-probe", repr(t0)],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return float(proc.stdout.split()[-1])


def rates(markets: int, seconds: list[float]) -> float:
    return statistics.median(markets / s for s in seconds)


def layer_metrics(tr, rounds: dict) -> dict[str, float]:
    from tracer import SpanTable

    table = SpanTable(tr)
    out: dict[str, float] = {}
    for i, name in enumerate(table.names):
        out[f"{name}.calls"] = int(table.calls[i])
        out[f"{name}.self_s"] = float(table.self_by_name[i])

    solver = table.is_a(*(n for n in table.names if n.startswith("solver.")))
    has_parent = table.parent >= 0
    nested = has_parent.copy()
    nested[has_parent] = solver[table.parent[has_parent]]
    solves = int((solver & ~nested).sum())
    out["solver.ms_per_solve"] = (
        1000.0 * float(table.self_time[solver].sum()) / solves if solves else 0.0)

    in_mechanism = table.under("mechanisms.run_mechanism")
    outer_runs = table.is_a("mechanisms.run_mechanism") & ~in_mechanism
    build = table.is_a("mechanisms.build_effective_instance", "core.require_valid") & in_mechanism
    run_time = float(table.duration[outer_runs].sum())
    out["mechanisms.build_share"] = (
        float(table.self_time[build].sum()) / run_time if run_time else 0.0)

    trials = int(table.calls[table.names.index("mechanisms.sample_agent_order")])
    draw = table.is_a("mechanisms.sample_agent_order", "mechanisms.lottery_weights") | (
        table.is_a("seeds.derive_rng")
        & table.under("mechanisms.randomized_utility_samples", "mechanisms.run_mechanism"))
    out["mechanisms.lottery_us_per_trial"] = (
        1e6 * float(table.self_time[draw].sum()) / trials if trials else 0.0)

    out["mechanisms.solves_per_market"] = solves / rounds["traced_markets"]
    out["harness.parallel_efficiency"] = rounds["parallel_efficiency"]
    out["trace.overhead"] = rounds["trace_overhead"]
    out["trace.unattributed_s"] = rounds["traced_s"] - table.top_level_time()
    out["trace.wall_s"] = rounds["traced_s"]
    out["trace.absent_boundaries"] = len(tr.absent)
    return out


def layer_shares(values: dict[str, float]) -> dict[str, float]:
    """Each layer's self time as a share of the traced wall time; the
    shares plus the unattributed share sum to 1."""
    wall = values["trace.wall_s"]
    shares: dict[str, float] = {}
    for name, value in values.items():
        if name.endswith(".self_s"):
            layer = name.split(".", 1)[0]
            shares[layer] = shares.get(layer, 0.0) + value / wall
    shares["unattributed"] = values["trace.unattributed_s"] / wall
    return shares


def measure(wl, args, scratch: str, recorded: list) -> dict:
    """Timed rounds: every worker count on the same round input, plus a
    traced serial pass over the first rounds when tracing."""
    from hostspeed import SHARE, HostSpeed
    from tracer import Tracer
    from workloads import Checks

    default_workers = os.cpu_count() or 1
    counts = sorted({default_workers, 1}, reverse=True) if wl.parallel else [1]
    times: dict[int, list[float]] = {w: [] for w in counts}
    traced_rounds = TRACED_ROUNDS[args.workload] if args.trace else 0
    tr = Tracer() if args.trace else None
    checks = Checks()
    digests = []
    traced_times: list[float] = []
    host = HostSpeed()
    host.sample(0.2)
    begin = time.perf_counter()
    index = 0
    while index < max(MIN_ROUNDS, traced_rounds) or time.perf_counter() - begin < args.seconds:
        data = wl.round_input(index)
        # alternate which worker count goes first, so drift hits both
        order = counts if index % 2 == 0 else counts[::-1]
        outputs = {}
        try:
            for workers in order:
                t0 = time.perf_counter()
                outputs[workers] = wl.run_round(data, workers, scratch)
                times[workers].append(time.perf_counter() - t0)
                host.sample(SHARE * times[workers][-1])
            if index < traced_rounds:
                with tr:
                    t0 = time.perf_counter()
                    outputs["traced"] = wl.run_round(data, 1, scratch, tr)
                    traced_times.append(time.perf_counter() - t0)
        except Exception:
            traceback.print_exc()
            checks.check(False, f"round {index} raised")
            index += 1
            continue
        ordered = [outputs[w] for w in counts] + ([outputs["traced"]] if "traced" in outputs else [])
        wl.check_round(ordered, checks, index)
        digest = wl.digests(ordered[0])
        if args.seed == DEFAULT_SEED and index < len(recorded):
            checks.check(digest == recorded[index], f"round {index}: digest differs from record")
        digests.append(digest)
        index += 1

    markets = wl.markets_per_round
    factor = host.factor()
    parallel = rates(markets, times[counts[0]]) / factor if times[counts[0]] else 0.0
    serial = rates(markets, times[1]) / factor if times[1] else 0.0
    return {
        "checks": checks,
        "tracer": tr,
        "rounds": {
            "count": index,
            "markets_per_round": markets,
            "workers": counts,
            "seconds": {str(w): times[w] for w in counts},
            "markets_per_s": parallel,
            "markets_per_s_serial": serial,
            "host_chunk_s": host.chunk_s(),
            "host_chunks": len(host.samples),
            "nominal_per_wall_s": factor,
            "parallel_efficiency": parallel / (counts[0] * serial) if serial else 0.0,
            "traced_s": sum(traced_times),
            # each traced round against the untraced serial run of the same input
            "trace_overhead": statistics.median(
                t / s for t, s in zip(traced_times, times[1])) - 1.0 if traced_times else 0.0,
            "traced_markets": traced_rounds * markets,
        },
        "digests": digests,
    }


def environment(args, wl) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workers": {"default": os.cpu_count() or 1, "serial": 1},
        "markets_per_round": wl.markets_per_round,
        "sizes": wl.shape,
    }


def run_all(args) -> int:
    from workloads import NAMES

    status = 0
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        status |= subprocess.run(cmd, timeout=600).returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()

    import_library()
    from workloads import NAMES

    if args.workload == "all":
        return run_all(args)
    if args.workload not in NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(NAMES)} or all")
    OUT.mkdir(exist_ok=True)
    if args.setup_probe is not None:
        with tempfile.TemporaryDirectory(dir=OUT) as scratch:
            setup(args.workload, args.seed, scratch)
            print(time.perf_counter() - args.setup_probe)
        return 0

    with open(HERE / "digests.json", encoding="utf-8") as fh:
        recorded = json.load(fh).get(args.workload, [])
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        wl = setup(args.workload, args.seed, scratch)
        run = measure(wl, args, scratch, recorded)
    # read before the set-up probes start, so only pool children count
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    setup_samples = [] if args.trace else [probe_setup(args) for _ in range(SETUP_SAMPLES)]

    rounds = run["rounds"]
    if args.trace:
        values = layer_metrics(run["tracer"], rounds)
        units = dict(per_layer_names())
        stem = f"{args.workload}-seed{args.seed}"
        run["tracer"].write(str(OUT / f"trace-{stem}.npz"))
    else:
        values = {
            "markets_per_s": rounds["markets_per_s"],
            "markets_per_s_serial": rounds["markets_per_s_serial"],
            "setup_s": statistics.median(setup_samples) * rounds["nominal_per_wall_s"],
            "peak_rss_mb": rss_kb / 1024.0,
        }
        units = dict(END_TO_END)
    checks = run["checks"]
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    shares = layer_shares(values) if args.trace else {}
    record = {
        "environment": environment(args, wl),
        "layer_shares": shares,
        "setup_samples_s": setup_samples,
        "rounds": rounds,
        "digests": run["digests"],
        "absent_boundaries": run["tracer"].absent if args.trace else [],
        "attempted": checks.attempted,
        "failed": checks.failed,
        "fail_rate": checks.failed / max(checks.attempted, 1),
        "failures": checks.failures[:50],
        "metrics": metrics,
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for failure in checks.failures[:20]:
        print(f"FAILED CHECK: {failure}", file=sys.stderr)
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    print(f"checks: {checks.attempted} attempted, {checks.failed} failed")
    print(f"{'fail_rate':48s} {record['fail_rate']:.6g} ratio")
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        # the same figures in wall-clock seconds, uncorrected for host speed
        factor = rounds["nominal_per_wall_s"]
        print(f"{'nominal seconds per wall-clock second':48s} {factor:.6g}")
        for name in ("markets_per_s", "markets_per_s_serial"):
            print(f"{name + ' (wall clock)':48s} {values[name] * factor:.6g} 1/s")
        print(f"{'setup_s (wall clock)':48s} {statistics.median(setup_samples):.6g} s")
    for layer, share in sorted(shares.items(), key=lambda item: -item[1]):
        print(f"share of traced wall time: {layer:20s} {share:.3f}")
    print(json.dumps({"correct": checks.failed == 0 and checks.attempted > 0,
                      "attempted": checks.attempted, "failed": checks.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
