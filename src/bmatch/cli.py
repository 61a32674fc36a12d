"""Command line entry points.

Subcommands:

* ``solve``: run one mechanism on an instance file (optionally with a
  profile of reports) and print the assignment;
* ``gen``: write a batch of seeded instances plus a manifest;
* ``audit``: exhaustively audit agent- or task-side truthfulness;
* ``experiment``: run a configured experiment and export its outputs;
* ``fixtures``: replay the built-in reference markets and diff them
  against their frozen outcomes.

Exit codes: 0 on success, 1 when an audit (or fixture replay) finds a
violation, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .core import (
    _agent_utilities,
    _load_json,
    dump_instance,
    load_instance,
    matched_pairs,
    matching_weight,
)
from .fixtures import replay_all
from .gen import GenConfig, generate_instance
from .harness import (
    ExperimentConfig,
    WORKERS_ENV_VAR,
    export_results,
    render_plot,
    run_experiment,
)
from .mechanisms import (
    MechanismKind,
    profile_from_json_dict,
    run_mechanism,
    truthful_profile,
)
from .oracle import audit_agent_truthfulness, audit_task_truthfulness

USAGE_ERROR = 2
# Bad input, reported as one line and the usage exit code.
_INPUT_ERRORS = (ValueError, OSError, KeyError, TypeError)

_MECH_BY_NAME = {
    "bfs": MechanismKind.MBFS,
    "dfs": MechanismKind.MDFS,
    "ap": MechanismKind.MAP,
    "rbfs": MechanismKind.MRBFS,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmatch",
        description="Vertex-weighted b-matching mechanisms and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance file")
    p_solve.add_argument("instance", help="instance JSON path")
    p_solve.add_argument(
        "--mech", choices=sorted(_MECH_BY_NAME), default="bfs", help="mechanism"
    )
    p_solve.add_argument("--profile", help="optional profile JSON path")
    p_solve.add_argument("--seed", type=int, help="rng seed (rbfs only)")

    p_gen = sub.add_parser("gen", help="generate a batch of instances")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--m", type=int, required=True)
    p_gen.add_argument("--p", type=float, required=True)
    p_gen.add_argument("--b-low", type=int, default=1)
    p_gen.add_argument("--b-high", type=int, default=3)
    p_gen.add_argument("--value-mean", type=float, default=3.0)
    p_gen.add_argument("--value-sigma", type=float, default=0.77)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.add_argument("--out", required=True, help="output directory")

    p_audit = sub.add_parser("audit", help="exhaustive truthfulness audit")
    p_audit.add_argument("side", choices=["agents", "tasks"])
    p_audit.add_argument("instances", nargs="+", help="instance JSON paths")
    p_audit.add_argument(
        "--mech", choices=["bfs", "dfs", "ap"], default="bfs", help="mechanism"
    )
    p_audit.add_argument(
        "--setting", choices=["ems", "ecms", "evms"], default="ems"
    )
    p_audit.add_argument("--report", help="write the audit report JSON here")

    p_exp = sub.add_parser("experiment", help="run a configured experiment")
    p_exp.add_argument("kind", nargs="?", help="experiment kind (overrides config)")
    p_exp.add_argument("--config", required=True, help="experiment config JSON")
    p_exp.add_argument("--out-dir", default=".", help="output directory")
    p_exp.add_argument(
        "--fast", action="store_true", help="preset: 50 iterations per cell"
    )
    p_exp.add_argument("--workers", type=int, help=f"worker cap (or ${WORKERS_ENV_VAR})")

    sub.add_parser("fixtures", help="replay the built-in reference markets")
    return parser


def _cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    kind = _MECH_BY_NAME[args.mech]
    if args.profile:
        profile = profile_from_json_dict(_load_json(args.profile), inst)
    else:
        profile = truthful_profile(inst)
    if kind is MechanismKind.MRBFS and args.seed is None:
        print("error: --seed is required with --mech rbfs", file=sys.stderr)
        return USAGE_ERROR
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    mu = run_mechanism(kind, profile, rng_seed=args.seed)
    result = {
        "mechanism": args.mech,
        "pairs": matched_pairs(mu),
        "weight": matching_weight(inst, mu),
        "agent_utilities": _agent_utilities(inst, mu),
    }
    json.dump(result, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def _cmd_gen(args) -> int:
    if args.count < 0:
        raise ValueError(f"--count must be non-negative, got {args.count}")
    cfg = GenConfig(
        n=args.n,
        m=args.m,
        p=args.p,
        capacity_low=args.b_low,
        capacity_high=args.b_high,
        value_mean=args.value_mean,
        value_sigma=args.value_sigma,
        seed=args.seed,
    )
    os.makedirs(args.out, exist_ok=True)
    manifest = {
        "seed": args.seed,
        "config": {
            "n": args.n,
            "m": args.m,
            "p": args.p,
            "b_low": args.b_low,
            "b_high": args.b_high,
            "value_mean": args.value_mean,
            "value_sigma": args.value_sigma,
        },
        "files": [],
    }
    for index in range(args.count):
        inst = generate_instance(cfg, index)
        name = f"instance_{index:04d}.json"
        dump_instance(inst, os.path.join(args.out, name))
        manifest["files"].append({"file": name, "seed": args.seed, "index": index})
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.count} instances to {args.out}")
    return 0


def _cmd_audit(args) -> int:
    kind = _MECH_BY_NAME[args.mech]
    if args.side == "agents" and args.setting == "evms":
        print("error: evms is a task-side setting", file=sys.stderr)
        return USAGE_ERROR
    if args.side == "tasks" and args.setting == "ecms":
        print("error: ecms is an agent-side setting", file=sys.stderr)
        return USAGE_ERROR
    if args.side == "agents":
        audit, entity, bound = audit_agent_truthfulness, "agent", "capacity"
    else:
        audit, entity, bound = audit_task_truthfulness, "task", "value"
    report = []
    violations = 0
    for path in args.instances:
        try:
            inst = load_instance(path)
        except _INPUT_ERRORS as exc:
            # name the file: a glob may sweep in a non-instance
            raise ValueError(f"{path}: {exc}") from exc
        found = audit(inst, kind, args.setting)
        entries = [
            {
                entity: d.entity,
                "report": {
                    "edges": list(d.report.edges),
                    bound: getattr(d.report, bound),
                },
                "truthful_utility": d.baseline_utility,
                "deviant_utility": d.deviant_utility,
            }
            for d in found
        ]
        violations += len(entries)
        report.append({"instance": path, "violations": entries})
    payload = {"side": args.side, "mechanism": args.mech, "setting": args.setting,
               "instances": report}
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    print()
    return 1 if violations else 0


def _cmd_experiment(args) -> int:
    data = _load_json(args.config)
    if args.kind and isinstance(data, dict):
        data["kind"] = args.kind
    cfg = ExperimentConfig.from_json_dict(data)
    if args.fast:
        cfg = dataclasses.replace(cfg, iterations=50)
    table = run_experiment(cfg, workers=args.workers)
    os.makedirs(args.out_dir, exist_ok=True)
    base = os.path.join(args.out_dir, cfg.kind)
    csv_path = cfg.out_csv or base + ".csv"
    json_path = cfg.out_json or base + ".json"
    export_results(table, "csv", csv_path)
    export_results(table, "json", json_path)
    written = [csv_path, json_path]
    if cfg.kind == "mpug-curve":
        svg_path = cfg.out_svg or base + ".svg"
        render_plot(table, svg_path)
        written.append(svg_path)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_fixtures(_args) -> int:
    results = replay_all()
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status} {r.name}"
        if not r.passed:
            line += f" (expected {r.expected}, got {r.actual})"
            failed += 1
        print(line)
    print(f"{len(results) - failed}/{len(results)} reference outcomes reproduced")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    handlers = {
        "solve": _cmd_solve,
        "gen": _cmd_gen,
        "audit": _cmd_audit,
        "experiment": _cmd_experiment,
        "fixtures": _cmd_fixtures,
    }
    try:
        return handlers[args.command](args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
