"""Command-line front end: solve, gen, bench, validate, oracle.

Exit codes: 0 success, 1 infeasible or invalid, 2 timeout, 3 usage error.
Plan files hold one line per agent, `agent i: (l,x,y)@t ...`, listing every
timed vertex including in-ride door visits.
"""
from __future__ import annotations

import argparse
import math
import re
import sys

from . import bench as bench_mod
from .cbs import PathStructureError, SolverConfig, solve, validate
from .model import Instance, parse_map, parse_scenario, serialize_map, serialize_scenario
from .oracle import oracle_solve
from .sipp import Path
from .model import Vertex

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_TIMEOUT = 2
EXIT_USAGE = 3


def _positive_seconds(text: str) -> float:
    """A time limit: a float > 0; NaN is refused and inf means no limit."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a positive number of seconds, got {text!r}")
    return value


def _horizon(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mapfe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_solve = sub.add_parser("solve", help="solve one instance optimally")
    p_solve.add_argument("--map", required=True)
    p_solve.add_argument("--scen", required=True)
    p_solve.add_argument("--ec", choices=("on", "off"), default="on")
    p_solve.add_argument("--mdde", choices=("on", "off"), default="on")
    p_solve.add_argument("--time-limit", type=_positive_seconds, default=60.0)
    p_solve.add_argument("--out", help="write the plan to this file")

    p_gen = sub.add_parser("gen", help="generate a random map and scenario")
    p_gen.add_argument("--size", type=int, default=8)
    p_gen.add_argument("--floors", type=int, default=2)
    p_gen.add_argument("--elevators", type=int, default=3)
    p_gen.add_argument("--tfloor", type=int, default=3)
    p_gen.add_argument("--obstacle-rate", type=float, default=0.1)
    p_gen.add_argument("--agents", type=int, default=4)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out-map", required=True)
    p_gen.add_argument("--out-scen", required=True)

    p_bench = sub.add_parser("bench", help="run a benchmark suite to CSV")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--out", required=True)

    p_val = sub.add_parser("validate", help="check a plan file for conflicts")
    p_val.add_argument("--map", required=True)
    p_val.add_argument("--scen", required=True)
    p_val.add_argument("--plan", required=True)

    p_oracle = sub.add_parser("oracle", help="exact optimum by joint search (small N)")
    p_oracle.add_argument("--map", required=True)
    p_oracle.add_argument("--scen", required=True)
    p_oracle.add_argument("--horizon", type=_horizon, default=None)
    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def _load_instance(map_path: str, scen_path: str) -> Instance:
    graph = parse_map(_read(map_path))
    return parse_scenario(_read(scen_path), graph)


def format_plan(paths) -> str:
    lines = []
    for i, path in enumerate(paths):
        steps = " ".join(f"({v.floor},{v.x},{v.y})@{t}" for v, t in path.steps)
        lines.append(f"agent {i}: {steps}")
    return "\n".join(lines) + ("\n" if lines else "")

_HEAD_RE = re.compile(r"agent\s+([0-9]+)")
_STEP_RE = re.compile(r"\((\d+),(\d+),(\d+)\)@(\d+)")


def parse_plan(text: str, instance: Instance) -> list[Path]:
    paths: dict[int, Path] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        head, _, rest = line.partition(":")
        match = _HEAD_RE.fullmatch(head.strip())
        if match is None:
            raise PathStructureError(f"bad plan line {line!r}")
        agent_id = int(match.group(1))
        if agent_id in paths:
            raise PathStructureError(f"agent {agent_id} listed twice")
        steps = []
        for token in rest.split():
            step = _STEP_RE.fullmatch(token)
            if step is None:
                raise PathStructureError(f"agent {agent_id}: bad step {token!r}")
            f, x, y, t = map(int, step.groups())
            steps.append((Vertex(f, x, y), t))
        if not steps:
            raise PathStructureError(f"no steps for agent {agent_id}")
        paths[agent_id] = Path(tuple(steps))
    if sorted(paths) != list(range(len(instance.agents))):
        raise PathStructureError("plan does not cover exactly the scenario's agents")
    return [paths[i] for i in range(len(instance.agents))]


def _cmd_solve(args) -> int:
    instance = _load_instance(args.map, args.scen)
    config = SolverConfig(ec_enabled=args.ec == "on", mdde_enabled=args.mdde == "on",
                          time_limit=args.time_limit)
    result = solve(instance, config)
    if result.status == "timeout":
        print("timeout")
        return EXIT_TIMEOUT
    if result.status == "infeasible":
        print("infeasible")
        return EXIT_INFEASIBLE
    solution = result.solution
    assert solution is not None
    plan_text = format_plan(solution.paths)
    print(f"soc {solution.g}")
    print(plan_text, end="")
    stats = result.stats
    print(f"stats expanded={stats.expanded} generated={stats.generated} "
          f"runtime_ms={stats.runtime * 1000.0:.3f} "
          f"mdde_time_fraction={stats.mdde_time_fraction:.4f} "
          f"mdd_builds={stats.mdd_builds} mdd_reuses={stats.mdd_reuses} "
          f"distance_fields={stats.distance_fields}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(plan_text)
    return EXIT_OK


def _cmd_gen(args) -> int:
    cfg = bench_mod.ExperimentConfig(
        size=args.size, obstacle_rate=args.obstacle_rate, floors=args.floors,
        elevators=args.elevators, tfloor=args.tfloor, agents=[args.agents],
        instances=1, seed=args.seed)
    instance = bench_mod.gen_instance(cfg, args.agents, args.seed)
    with open(args.out_map, "w", encoding="utf-8") as f:
        f.write(serialize_map(instance.graph))
    with open(args.out_scen, "w", encoding="utf-8") as f:
        f.write(serialize_scenario(instance))
    print(f"wrote {args.out_map} and {args.out_scen}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    cfg = bench_mod.parse_config(_read(args.config))
    records = bench_mod.run_suite(cfg)
    with open(args.out, "w", encoding="utf-8") as f:
        bench_mod.write_csv(records, f)
    for row in bench_mod.summarize(records):
        lo, avg, hi = (row[k] for k in ("expanded_min", "expanded_avg", "expanded_max"))
        spread = "-" if avg is None else f"{lo}/{avg:.1f}/{hi}"
        print(f"N={row['N']} floors={row['floors']} tfloor={row['tfloor']} "
              f"variant={row['variant']} success={row['success_rate']:.2f} "
              f"expanded(min/avg/max)={spread}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    instance = _load_instance(args.map, args.scen)
    try:
        paths = parse_plan(_read(args.plan), instance)
        conflicts = validate(instance, paths)
    except PathStructureError as exc:
        print(f"structurally invalid: {exc}")
        return EXIT_INFEASIBLE
    if not conflicts:
        print("OK")
        return EXIT_OK
    for c in conflicts:
        print(c)
    return EXIT_INFEASIBLE


def _cmd_oracle(args) -> int:
    instance = _load_instance(args.map, args.scen)
    result = oracle_solve(instance, horizon=args.horizon)
    if result.status != "solved":
        print("infeasible")
        return EXIT_INFEASIBLE
    print(f"soc {result.g}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    commands = {
        "solve": _cmd_solve,
        "gen": _cmd_gen,
        "bench": _cmd_bench,
        "validate": _cmd_validate,
        "oracle": _cmd_oracle,
    }
    try:
        return commands[args.command](args)
    except (OSError, ValueError, bench_mod.GenerationError) as exc:
        # unreadable or invalid input data, or no instance to generate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
