"""Random instance generation and the benchmark harness.

A suite sweeps one axis (agent count, per-floor travel time, or floor
count) over seeded random instances and solver variants, recording one CSV
row per run. Obstacles, elevator locations, and endpoints are re-rolled
per seed; every generated agent is individually routable.
"""
from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from typing import Iterable, TextIO

from .cbs import SolverConfig, SolveStats, solve
from .model import Agent, Elevator, FloorGrid, Instance, MultiFloorGraph, Vertex
from .sipp import INF, GridIndex, cost_to_go

VARIANTS: dict[str, tuple[bool, bool]] = {
    "cbs": (False, False),
    "cbs+ec": (True, False),
    "cbs+mdde": (False, True),
    "cbs+ec+mdde": (True, True),
}

# A row is the run's own columns, then its `SolveStats.report()`
CSV_HEADER = ",".join(["experiment", "variant", "N", "floors", "tfloor", "seed", "status", "soc"]
                      + [name for name, _ in SolveStats().report()])

MAX_SIZE = 1000  # the generator lists every cell of a size x size floor
MAX_CELLS = 2 * MAX_SIZE * MAX_SIZE  # and every cell of every floor, floors x size x size


class GenerationError(RuntimeError):
    """Instance generation exhausted its retry budget."""


@dataclass
class ExperimentConfig:
    experiment: str = "exp"
    size: int = 8
    obstacle_rate: float = 0.1
    floors: int | list[int] = 2
    elevators: int = 3
    tfloor: int | list[int] = 3
    agents: int | list[int] = field(default_factory=lambda: [2, 3])
    instances: int = 15
    time_limit: float = 60.0
    seed: int = 0
    variants: list[str] = field(default_factory=lambda: list(VARIANTS))

    def __post_init__(self) -> None:
        if self.size <= 0 or self.elevators < 0 or self.instances <= 0:
            raise ValueError("counts must be positive")
        if self.size > MAX_SIZE:
            raise ValueError(f"size must be <= {MAX_SIZE}")
        if not (0 <= self.obstacle_rate < 1):
            raise ValueError("obstacle_rate must lie in [0, 1)")
        for name in self.variants:
            if name not in VARIANTS:
                raise ValueError(f"unknown variant {name!r}")
        for key in ("floors", "tfloor", "agents"):
            value = getattr(self, key)
            if any(v < 1 for v in (value if isinstance(value, list) else [value])):
                raise ValueError(f"{key} must be >= 1")
        floors = self.floors if isinstance(self.floors, list) else [self.floors]
        if max(floors) * self.size * self.size > MAX_CELLS:
            raise ValueError(f"floors x size x size must be <= {MAX_CELLS}")
        lists = [k for k in ("floors", "tfloor", "agents") if isinstance(getattr(self, k), list)]
        if len(lists) > 1:
            raise ValueError(f"only one axis may vary, got {lists}")
        self.axis = lists[0] if lists else "agents"
        if not lists:
            self.agents = [self.agents]  # type: ignore[list-item]


def parse_config(text: str) -> ExperimentConfig:
    """One `key = value` per line; lists are comma-separated."""
    kwargs: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in ExperimentConfig.__dataclass_fields__ or key == "axis":
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in ("experiment",):
            kwargs[key] = value
        elif key == "variants":
            kwargs[key] = [v.strip() for v in value.split(",") if v.strip()]
        elif key in ("obstacle_rate", "time_limit"):
            kwargs[key] = float(value)
        elif key in ("floors", "tfloor", "agents"):
            items = [int(v) for v in value.split(",")]
            kwargs[key] = items if len(items) > 1 else items[0]
        else:
            kwargs[key] = int(value)
    return ExperimentConfig(**kwargs)


@dataclass
class ResultRecord:
    experiment: str
    variant: str
    n_agents: int
    floors: int
    tfloor: int
    seed: int
    status: str  # solved | timeout | infeasible
    soc: int | None
    stats: SolveStats


def gen_instance(cfg: ExperimentConfig, n_agents: int, seed: int,
                 floors: int | None = None, tfloor: int | None = None,
                 retries: int = 200) -> Instance:
    """Seed-deterministic random instance: shared obstacle layout on every
    floor, elevators on free cells, then distinct starts and goals on free
    non-elevator cells, re-rolled until every agent can reach its goal."""
    m = floors if floors is not None else cfg.floors
    t_floor = tfloor if tfloor is not None else cfg.tfloor
    assert isinstance(m, int) and isinstance(t_floor, int)
    rng = random.Random(seed)
    cells = [(x, y) for y in range(cfg.size) for x in range(cfg.size)]
    n_obstacles = int(cfg.obstacle_rate * len(cells))

    for _ in range(retries):
        blocked = frozenset(rng.sample(cells, n_obstacles))
        free = [c for c in cells if c not in blocked]
        if len(free) < cfg.elevators:
            continue
        doors = rng.sample(free, cfg.elevators)
        open_cells = [c for c in free if c not in doors]
        spots = [(f, c) for f in range(1, m + 1) for c in open_cells]
        if len(spots) < n_agents:
            raise GenerationError(f"not enough free cells for {n_agents} agents")
        starts = rng.sample(spots, n_agents)
        goals = rng.sample(spots, n_agents)
        grids = tuple(FloorGrid(cfg.size, cfg.size, blocked) for _ in range(m))
        elevators = tuple(Elevator(k, cell, t_floor) for k, cell in enumerate(doors))
        graph = MultiFloorGraph(m, grids, elevators)
        agents = tuple(
            Agent(i, Vertex(sf, sc[0], sc[1]), Vertex(gf, gc[0], gc[1]))
            for i, ((sf, sc), (gf, gc)) in enumerate(zip(starts, goals))
        )
        instance = Instance(graph, agents)
        index = GridIndex(graph)
        if all(cost_to_go(a, graph, index).value(a.start) < INF for a in agents):
            return instance
    raise GenerationError(f"no routable instance after {retries} attempts (seed {seed})")


def run_suite(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Solve every (axis value, seed, variant) cell under the time limit.
    Timeouts are recorded, not raised. Records follow config order."""
    records: list[ResultRecord] = []
    values = getattr(cfg, cfg.axis)
    assert isinstance(values, list)
    for value in values:
        n_agents = value if cfg.axis == "agents" else (
            cfg.agents[0] if isinstance(cfg.agents, list) else cfg.agents)
        floors = value if cfg.axis == "floors" else cfg.floors
        tfloor = value if cfg.axis == "tfloor" else cfg.tfloor
        for idx in range(cfg.instances):
            seed = cfg.seed + idx
            instance = gen_instance(cfg, n_agents, seed, floors=floors, tfloor=tfloor)
            for variant in cfg.variants:
                ec, mdde = VARIANTS[variant]
                result = solve(instance, SolverConfig(ec_enabled=ec, mdde_enabled=mdde,
                                                      time_limit=cfg.time_limit))
                records.append(ResultRecord(
                    cfg.experiment, variant, n_agents, floors, tfloor, seed, result.status,
                    result.solution.g if result.solution else None, result.stats))
    return records


def write_csv(records: Iterable[ResultRecord], out: TextIO) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for r in records:
        writer.writerow([r.experiment, r.variant, r.n_agents, r.floors, r.tfloor, r.seed, r.status,
                         "" if r.soc is None else r.soc] + [text for _, text in r.stats.report()])


def summarize(records: list[ResultRecord]) -> list[dict]:
    """Per (N, floors, tfloor, variant): success rate plus min/avg/max
    expansions over the solved runs."""
    groups: dict[tuple, list[ResultRecord]] = {}
    for r in records:
        groups.setdefault((r.n_agents, r.floors, r.tfloor, r.variant), []).append(r)
    out = []
    for (n, floors, tfloor, variant), rows in sorted(groups.items()):
        solved = [r for r in rows if r.status == "solved"]
        exp = [r.stats.expanded for r in solved]
        out.append({
            "N": n, "floors": floors, "tfloor": tfloor, "variant": variant,
            "runs": len(rows), "success_rate": len(solved) / len(rows),
            "expanded_min": min(exp) if exp else None,
            "expanded_avg": sum(exp) / len(exp) if exp else None,
            "expanded_max": max(exp) if exp else None,
        })
    return out
