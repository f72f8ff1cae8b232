"""The solve benchmark's workloads and its pinned, seeded instance sets.

The generator lives here rather than in `mapfe.bench` so that the
benchmark's inputs cannot drift when the package's own generator changes.
It writes map and scenario text directly; the solver only ever sees that
text, through `parse_map` and `parse_scenario`.

Every floor of a map shares one obstacle layout, elevators sit on free
cells, and starts and goals are distinct free non-elevator cells. An
instance is re-rolled until every agent can reach its goal: on a shared
layout that holds exactly when start and goal cells lie in one 4-connected
component, and, for a floor change, that component holds an elevator door.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass


RETRIES = 200


class GenerationError(RuntimeError):
    """The retry budget ran out before a routable instance came up."""


@dataclass(frozen=True)
class Family:
    size: int
    obstacle_rate: float
    floors: int
    elevators: int
    tfloor: int
    agents: int


@dataclass(frozen=True)
class InstanceText:
    seed: int
    map_text: str
    scenario_text: str


@dataclass(frozen=True)
class Workload:
    family: str
    ec_enabled: bool
    mdde_enabled: bool
    time_limit: float  # seconds per instance, as SolverConfig.time_limit


# Instance families: (parameters, first seed, instance count). The desk
# family is the paper's C7 setting at N=6.
FAMILIES: dict[str, tuple[Family, int, int]] = {
    "desk": (Family(size=8, obstacle_rate=0.1, floors=2, elevators=3, tfloor=3, agents=6),
             777000, 100),
    "tower": (Family(size=6, obstacle_rate=0.1, floors=4, elevators=2, tfloor=2, agents=4),
              779000, 100),
}

# Each time limit sits in a gap of the workload's solve times on the
# reference host (desk-mdde: 2.6 s to 14 s, desk-ec: 0.7 s to 1.4 s, tower:
# none above 2.2 s), so that the solved set seldom changes from run to run
# while a run stays under a minute. Timeouts cost their limit in every run.
WORKLOADS: dict[str, Workload] = {
    "desk-mdde": Workload("desk", True, True, 5.0),
    "desk-ec": Workload("desk", True, False, 1.0),
    "tower": Workload("tower", True, True, 4.0),
}


def _components(size: int, blocked: frozenset) -> dict[tuple[int, int], int]:
    comp: dict[tuple[int, int], int] = {}
    for y in range(size):
        for x in range(size):
            if (x, y) in blocked or (x, y) in comp:
                continue
            label = len(comp)
            comp[(x, y)] = label
            stack = [(x, y)]
            while stack:
                cx, cy = stack.pop()
                for nx, ny in ((cx + 1, cy), (cx - 1, cy), (cx, cy + 1), (cx, cy - 1)):
                    if (0 <= nx < size and 0 <= ny < size and (nx, ny) not in blocked
                            and (nx, ny) not in comp):
                        comp[(nx, ny)] = label
                        stack.append((nx, ny))
    return comp


def _map_text(fam: Family, blocked: frozenset, doors: list) -> str:
    lines = ["type mapf-e", f"floors {fam.floors}", f"height {fam.size}",
             f"width {fam.size}", f"tfloor {fam.tfloor}"]
    rows = []
    for y in range(fam.size):
        row = []
        for x in range(fam.size):
            row.append("E" if (x, y) in doors else "@" if (x, y) in blocked else ".")
        rows.append("".join(row))
    lines += rows * fam.floors
    return "\n".join(lines) + "\n"


def generate(fam: Family, seed: int) -> InstanceText:
    """The instance drawn by `random.Random(seed)` for this family."""
    rng = random.Random(seed)
    cells = [(x, y) for y in range(fam.size) for x in range(fam.size)]
    n_obstacles = int(fam.obstacle_rate * len(cells))
    for _ in range(RETRIES):
        blocked = frozenset(rng.sample(cells, n_obstacles))
        free = [c for c in cells if c not in blocked]
        doors = rng.sample(free, fam.elevators)
        open_cells = [c for c in free if c not in doors]
        spots = [(f, c) for f in range(1, fam.floors + 1) for c in open_cells]
        starts = rng.sample(spots, fam.agents)
        goals = rng.sample(spots, fam.agents)
        comp = _components(fam.size, blocked)
        door_comps = {comp[d] for d in doors}
        if all(comp[sc] == comp[gc] and (sf == gf or comp[sc] in door_comps)
               for (sf, sc), (gf, gc) in zip(starts, goals)):
            scenario = "".join(f"{sf} {sc[0]} {sc[1]} {gf} {gc[0]} {gc[1]}\n"
                               for (sf, sc), (gf, gc) in zip(starts, goals))
            return InstanceText(seed, _map_text(fam, blocked, doors), scenario)
    raise GenerationError(f"no routable instance after {RETRIES} attempts (seed {seed})")


def generate_set(family: str) -> list[InstanceText]:
    """The family's pinned instances, for seeds first, first + 1, ... in order."""
    fam, first, count = FAMILIES[family]
    return [generate(fam, first + k) for k in range(count)]


def digest(instances: list[InstanceText]) -> str:
    """SHA-256 over every instance's seed, map text and scenario text."""
    h = hashlib.sha256()
    for inst in instances:
        h.update(f"seed {inst.seed}\n".encode())
        h.update(inst.map_text.encode())
        h.update(b"--\n")
        h.update(inst.scenario_text.encode())
        h.update(b"==\n")
    return h.hexdigest()
