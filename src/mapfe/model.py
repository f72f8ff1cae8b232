"""Multi-floor grid world with capacity-one elevators.

The workspace is a stack of 4-connected unit-cost grids. An elevator
occupies the same cell on every floor; that cell on floor l is the
elevator's door vertex for l, and doors of consecutive floors are joined
by shaft edges of fixed integer cost (the elevator's per-floor travel
time). All other cells are regular vertices.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

MAX_T_FLOOR = 1000  # solvers keep one entry per time step of a path, rides included


class MapError(ValueError):
    """Raised for malformed or inconsistent map text."""


class ScenarioError(ValueError):
    """Raised for malformed or invalid scenario text."""


class Vertex(NamedTuple):
    """A cell on a specific floor. Floors are 1-based, cells 0-based."""

    floor: int
    x: int
    y: int


@dataclass(frozen=True)
class FloorGrid:
    width: int
    height: int
    blocked: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise MapError("grid dimensions must be positive")
        for (x, y) in self.blocked:
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise MapError(f"blocked cell {(x, y)} out of bounds")

    def passable(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height and (x, y) not in self.blocked


@dataclass(frozen=True)
class Elevator:
    id: int
    cell: tuple[int, int]
    t_floor: int

    def __post_init__(self) -> None:
        if not 1 <= self.t_floor <= MAX_T_FLOOR:
            raise MapError(f"elevator {self.id}: t_floor must lie in [1, {MAX_T_FLOOR}]")


@dataclass(frozen=True)
class MultiFloorGraph:
    floors: int
    grids: tuple[FloorGrid, ...]
    elevators: tuple[Elevator, ...]

    def __post_init__(self) -> None:
        if self.floors != len(self.grids) or self.floors < 1:
            raise MapError("floor count does not match grids")
        w, h = self.grids[0].width, self.grids[0].height
        for g in self.grids:
            if (g.width, g.height) != (w, h):
                raise MapError("inconsistent grid dimensions across floors")
        cells = [e.cell for e in self.elevators]
        if len(set(cells)) != len(cells):
            raise MapError("two elevators share a cell")
        for e in self.elevators:
            for g in self.grids:
                if not g.passable(*e.cell):
                    raise MapError(f"elevator {e.id} cell blocked on some floor")
        object.__setattr__(self, "_door_cells", {e.cell: e for e in self.elevators})

    @property
    def width(self) -> int:
        return self.grids[0].width

    @property
    def height(self) -> int:
        return self.grids[0].height

    def grid(self, floor: int) -> FloorGrid:
        return self.grids[floor - 1]

    def passable(self, v: Vertex) -> bool:
        return 1 <= v.floor <= self.floors and self.grid(v.floor).passable(v.x, v.y)

    def elevator_at(self, v: Vertex) -> Elevator | None:
        """The elevator whose door occupies this vertex, if any."""
        return self._door_cells.get((v.x, v.y))  # type: ignore[attr-defined]

    def door(self, elevator: int, floor: int) -> Vertex:
        e = self.elevators[elevator]
        return Vertex(floor, e.cell[0], e.cell[1])

    def vertices(self) -> Iterable[Vertex]:
        for floor in range(1, self.floors + 1):
            g = self.grid(floor)
            for y in range(g.height):
                for x in range(g.width):
                    if g.passable(x, y):
                        yield Vertex(floor, x, y)

    def num_free_vertices(self) -> int:
        """Passable vertices over all floors, counted on first use."""
        count = self.__dict__.get("_num_free")
        if count is None:
            count = sum(1 for _ in self.vertices())
            object.__setattr__(self, "_num_free", count)
        return count


@dataclass(frozen=True)
class Agent:
    id: int
    start: Vertex
    goal: Vertex

    @property
    def start_floor(self) -> int:
        return self.start.floor

    @property
    def goal_floor(self) -> int:
        return self.goal.floor


@dataclass(frozen=True)
class Instance:
    graph: MultiFloorGraph
    agents: tuple[Agent, ...]

    def __post_init__(self) -> None:
        starts = [a.start for a in self.agents]
        goals = [a.goal for a in self.agents]
        if len(set(starts)) != len(starts):
            raise ScenarioError("two agents share a start")
        if len(set(goals)) != len(goals):
            raise ScenarioError("two agents share a goal")
        for a in self.agents:
            for v, what in ((a.start, "start"), (a.goal, "goal")):
                if not self.graph.passable(v):
                    raise ScenarioError(f"agent {a.id}: {what} {v} blocked or out of bounds")
                if self.graph.elevator_at(v) is not None:
                    raise ScenarioError(f"agent {a.id}: {what} {v} is an elevator cell")
            if a.start_floor != a.goal_floor and not self.graph.elevators:
                raise ScenarioError(f"agent {a.id}: needs a floor change but map has no elevator")


def ride_visits(graph: MultiFloorGraph, elevator: int, from_floor: int, to_floor: int,
                depart: int) -> list[tuple[Vertex, int]]:
    """Timed door visits of a ride boarded at `depart`, excluding the
    boarding door itself: one visit per crossed floor at t_floor spacing."""
    e = graph.elevators[elevator]
    step = 1 if to_floor > from_floor else -1
    out = []
    for i, floor in enumerate(range(from_floor + step, to_floor + step, step), start=1):
        out.append((Vertex(floor, e.cell[0], e.cell[1]), depart + i * e.t_floor))
    return out


def _parse_header_line(line: str, key: str) -> str:
    parts = line.split()
    if len(parts) != 2 or parts[0] != key:
        raise MapError(f"malformed header: expected '{key} <value>', got {line!r}")
    return parts[1]


def parse_map(text: str) -> MultiFloorGraph:
    """Parse the map format: header (type/floors/height/width/tfloor, plus
    optional per-elevator 'tfloor_k K T' overrides) followed by one
    height-line grid per floor. '.'=free, '@' or 'T'=blocked, 'E'=elevator
    door. Elevator ids follow row-major order on the first floor; door
    cells must coincide on every floor."""
    lines = [ln.rstrip("\n") for ln in text.splitlines()]
    lines = [ln for ln in lines if ln.strip() != ""]
    if len(lines) < 5:
        raise MapError("malformed header: truncated file")
    if lines[0].split() != ["type", "mapf-e"]:
        raise MapError(f"malformed header: bad type line {lines[0]!r}")
    try:
        floors = int(_parse_header_line(lines[1], "floors"))
        height = int(_parse_header_line(lines[2], "height"))
        width = int(_parse_header_line(lines[3], "width"))
        tfloor_default = int(_parse_header_line(lines[4], "tfloor"))
    except ValueError as exc:
        raise MapError(f"malformed header: {exc}") from None
    if floors < 1:
        raise MapError("malformed header: floors must be >= 1")

    idx = 5
    overrides: dict[int, int] = {}
    while idx < len(lines) and lines[idx].startswith("tfloor_k"):
        parts = lines[idx].split()
        if len(parts) != 3:
            raise MapError(f"malformed header: bad override {lines[idx]!r}")
        try:
            overrides[int(parts[1])] = int(parts[2])
        except ValueError:
            raise MapError(f"malformed header: bad override {lines[idx]!r}") from None
        idx += 1

    if len(lines) - idx != floors * height:
        raise MapError(f"inconsistent grid dimensions: expected {floors * height} "
                       f"grid lines, found {len(lines) - idx}")

    grids: list[FloorGrid] = []
    doors_per_floor: list[list[tuple[int, int]]] = []
    for f in range(floors):
        blocked: set[tuple[int, int]] = set()
        doors: list[tuple[int, int]] = []
        for y in range(height):
            row = lines[idx + f * height + y]
            if len(row) != width:
                raise MapError(f"inconsistent grid dimensions: floor {f + 1} row {y} "
                               f"has length {len(row)}, expected {width}")
            for x, ch in enumerate(row):
                if ch in ("@", "T"):
                    blocked.add((x, y))
                elif ch == "E":
                    doors.append((x, y))
                elif ch != ".":
                    raise MapError(f"unknown map character {ch!r}")
        grids.append(FloorGrid(width, height, frozenset(blocked)))
        doors_per_floor.append(doors)

    first = doors_per_floor[0]
    for f, doors in enumerate(doors_per_floor[1:], start=2):
        if sorted(doors) != sorted(first):
            raise MapError(f"elevator cells mismatched between floor 1 and floor {f}")
    # row-major on the first floor: sort by (y, x)
    ordered = sorted(first, key=lambda c: (c[1], c[0]))
    elevators = tuple(
        Elevator(k, cell, overrides.get(k, tfloor_default)) for k, cell in enumerate(ordered)
    )
    for k in overrides:
        if not (0 <= k < len(elevators)):
            raise MapError(f"tfloor_k override for unknown elevator {k}")
    return MultiFloorGraph(floors, tuple(grids), elevators)


def serialize_map(graph: MultiFloorGraph) -> str:
    default = graph.elevators[0].t_floor if graph.elevators else 1
    out = [
        "type mapf-e",
        f"floors {graph.floors}",
        f"height {graph.height}",
        f"width {graph.width}",
        f"tfloor {default}",
    ]
    for e in graph.elevators:
        if e.t_floor != default:
            out.append(f"tfloor_k {e.id} {e.t_floor}")
    doors = {e.cell for e in graph.elevators}
    for floor in range(1, graph.floors + 1):
        g = graph.grid(floor)
        for y in range(g.height):
            row = []
            for x in range(g.width):
                if (x, y) in doors:
                    row.append("E")
                elif (x, y) in g.blocked:
                    row.append("@")
                else:
                    row.append(".")
            out.append("".join(row))
    return "\n".join(out) + "\n"


def parse_scenario(text: str, graph: MultiFloorGraph) -> Instance:
    """Parse one agent per line: startFloor startX startY goalFloor goalX
    goalY (floors 1-based, cells 0-based). Blank lines and '#' comments are
    skipped."""
    agents: list[Agent] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 6:
            raise ScenarioError(f"line {lineno}: expected 6 fields, got {len(parts)}")
        try:
            sf, sx, sy, gf, gx, gy = (int(p) for p in parts)
        except ValueError:
            raise ScenarioError(f"line {lineno}: non-integer field") from None
        agents.append(Agent(len(agents), Vertex(sf, sx, sy), Vertex(gf, gx, gy)))
    return Instance(graph, tuple(agents))


def serialize_scenario(instance: Instance) -> str:
    out = []
    for a in instance.agents:
        s, g = a.start, a.goal
        out.append(f"{s.floor} {s.x} {s.y} {g.floor} {g.x} {g.y}")
    return "\n".join(out) + ("\n" if out else "")
