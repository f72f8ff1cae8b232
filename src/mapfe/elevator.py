"""Elevator timeline arithmetic and elevator-conflict detection.

An elevator carries one agent per ride. After dropping a rider at floor
l_g at time t_g it must travel to the next requester's floor before the
next boarding, so relative to a door on floor f the elevator is busy over
the closed window [t_s, t_g + |l_g - f| * t_floor]. Boarding overlaps and
door presences inside such windows are the two elevator-conflict variants.
"""
from __future__ import annotations

from dataclasses import dataclass

from .model import Elevator, MultiFloorGraph, Vertex


@dataclass(frozen=True, slots=True)
class ElevatorUsage:
    """One agent's single ride: boards elevator k at door floor l_s at time
    t_s and exits at floor l_g at time t_g = t_s + |l_s - l_g| * t_floor."""

    agent: int
    elevator: int
    t_s: int
    l_s: int
    l_g: int
    t_floor: int

    def __post_init__(self) -> None:
        if self.l_s == self.l_g:
            raise ValueError("a ride must change floors")

    @property
    def t_o(self) -> int:
        return abs(self.l_s - self.l_g) * self.t_floor

    @property
    def t_g(self) -> int:
        return self.t_s + self.t_o


@dataclass(frozen=True, slots=True)
class ElevatorConflict:
    """Tagged elevator conflict. kind='boarding': agents i and j both start
    rides of elevator k with overlapping busy intervals. kind='occupancy':
    agent j (occupier) stands at a door of k on floor `floor` at time
    `time` inside rider i's busy window."""

    kind: str
    i: int
    j: int
    elevator: int
    time: int
    usage_i: ElevatorUsage
    usage_j: ElevatorUsage | None = None  # boarding variant only
    vertex: Vertex | None = None          # occupancy variant only

    @property
    def floor(self) -> int:
        assert self.vertex is not None
        return self.vertex.floor

    def sort_key(self) -> tuple:
        kind_rank = 0 if self.kind == "boarding" else 1
        return (self.time, min(self.i, self.j), max(self.i, self.j), kind_rank,
                self.elevator, self.vertex or Vertex(0, 0, 0))


def ride_duration(k: Elevator, l_a: int, l_b: int) -> int:
    """Time for elevator k to carry an agent from floor l_a to l_b."""
    return abs(l_a - l_b) * k.t_floor


def reset_duration(k: Elevator, l_exit: int, l_next_board: int) -> int:
    """Empty travel time from a drop-off floor to the next boarding floor."""
    return abs(l_exit - l_next_board) * k.t_floor


def busy_interval(u: ElevatorUsage, next_floor: int) -> tuple[int, int]:
    """Closed interval during which u's elevator cannot serve a boarding
    from next_floor: [t_s, t_s + t_o + t_r]."""
    t_r = abs(u.l_g - next_floor) * u.t_floor
    return (u.t_s, u.t_s + u.t_o + t_r)


def usages_overlap(u_i: ElevatorUsage, u_j: ElevatorUsage) -> bool:
    """True iff the two rides of one elevator conflict: either boarding time
    falls inside the other ride's busy interval toward its floor."""
    if u_i.elevator != u_j.elevator:
        raise ValueError("usages of different elevators never interact")
    if u_i.agent == u_j.agent:
        raise ValueError("overlap is defined between distinct agents")
    lo_i, hi_i = busy_interval(u_i, u_j.l_s)
    lo_j, hi_j = busy_interval(u_j, u_i.l_s)
    return lo_i <= u_j.t_s <= hi_i or lo_j <= u_i.t_s <= hi_j


def extract_usages(steps: list[tuple[Vertex, int]], graph: MultiFloorGraph) -> list[ElevatorUsage]:
    """Rides contained in a timed path, recovered from its shaft steps
    (same cell, adjacent floors, t_floor spacing). Paths take at most one
    ride but the scan is general."""
    usages: list[ElevatorUsage] = []
    open_ride: tuple[int, int, int] | None = None  # (elevator, t_s, l_s)
    for (v, t), (w, tw) in zip(steps, steps[1:]):
        shaft = (v.x, v.y) == (w.x, w.y) and abs(w.floor - v.floor) == 1
        if shaft:
            e = graph.elevator_at(v)
            assert e is not None and tw - t == e.t_floor
            if open_ride is None:
                open_ride = (e.id, t, v.floor)
        elif open_ride is not None:
            k, t_s, l_s = open_ride
            usages.append(ElevatorUsage(-1, k, t_s, l_s, v.floor, graph.elevators[k].t_floor))
            open_ride = None
    if open_ride is not None:
        k, t_s, l_s = open_ride
        last = steps[-1][0]
        usages.append(ElevatorUsage(-1, k, t_s, l_s, last.floor, graph.elevators[k].t_floor))
    return usages


def _door_presences(steps: list[tuple[Vertex, int]], graph: MultiFloorGraph) -> list[tuple[int, Vertex, int]]:
    """(elevator id, vertex, time) for every step standing at a door."""
    out = []
    for v, t in steps:
        e = graph.elevator_at(v)
        if e is not None:
            out.append((e.id, v, t))
    return out


class RideSummaries:
    """Each path's rides (stamped with its agent's id) and door presences,
    extracted once per solve. Summaries are keyed by path identity, and
    the memo keeps every path it has summarised alive, so an id is never
    reused; a path belongs to one agent in a solve. Equal summaries are
    stored once: an agent's replans mostly keep its ride, and paths with
    no ride and no door step all share one summary."""

    def __init__(self, graph: MultiFloorGraph):
        self.graph = graph
        self.by_path: dict[int, tuple] = {}
        self.paths: list = []
        self.summaries: dict[tuple, tuple] = {}

    def get(self, agent: int, path) -> tuple:
        """(rides, door presences) of agent's path."""
        summary = self.by_path.get(id(path))
        if summary is None:
            steps = path.steps
            usages = tuple([ElevatorUsage(agent, u.elevator, u.t_s, u.l_s, u.l_g, u.t_floor)
                            for u in extract_usages(steps, self.graph)])
            summary = (usages, tuple(_door_presences(steps, self.graph)))
            summary = self.by_path[id(path)] = self.summaries.setdefault(summary, summary)
            self.paths.append(path)
        return summary


def detect_elevator_conflicts(paths, graph: MultiFloorGraph, agent: int | None = None,
                              rides: RideSummaries | None = None) -> list[ElevatorConflict]:
    """All elevator conflicts of a joint plan, per the two variants:

    - boarding: two usages of the same elevator with overlapping busy
      intervals, reported at the later boarding time;
    - occupancy: an agent present at a door of elevator k on floor f at a
      time inside another rider's closed window [t_s, t_g + |l_g-f|*t_floor].
      Door steps belonging to the standing agent's own ride of k are the
      rider-vs-rider case and are covered by the boarding variant instead.

    `paths` is a sequence of objects with a `steps` list of (Vertex, time),
    indexed by agent id. With `agent` given, only the conflicts that
    involve that agent are reported. `rides` is the solve's per-path
    summary memo; without one the summaries are extracted afresh. Results
    are ordered by (time, agent pair).
    """
    if rides is None:
        rides = RideSummaries(graph)
    summaries = [rides.get(a, path) for a, path in enumerate(paths)]
    usages = [s[0] for s in summaries]
    presences = [s[1] for s in summaries]

    conflicts: list[ElevatorConflict] = []
    agents = range(len(paths))
    for i in agents:
        for u_i in usages[i]:
            for j in agents:
                if j == i or (agent is not None and agent != i and agent != j):
                    continue
                for u_j in usages[j]:
                    if u_j.elevator == u_i.elevator and j > i and usages_overlap(u_i, u_j):
                        conflicts.append(ElevatorConflict(
                            "boarding", i, j, u_i.elevator,
                            max(u_i.t_s, u_j.t_s), u_i, u_j))
                if not presences[j]:
                    continue
                own = {u.elevator: u for u in usages[j]}
                for k, v, t in presences[j]:
                    if k != u_i.elevator:
                        continue
                    mine = own.get(k)
                    if mine is not None and mine.t_s <= t <= mine.t_g:
                        continue  # part of j's own ride of k
                    lo, hi = busy_interval(u_i, v.floor)
                    if lo <= t <= hi:
                        conflicts.append(ElevatorConflict(
                            "occupancy", u_i.agent, j, k, t, u_i, None, v))
    conflicts.sort(key=ElevatorConflict.sort_key)
    return conflicts


def ec_constraints(c: ElevatorConflict) -> tuple[tuple[int, int, tuple[int, int]], tuple[int, int, tuple[int, int]]]:
    """The paired range constraints resolving a boarding conflict: each side
    is (elevator, boarding floor, closed interval) forbidding that agent
    from starting a ride there during the interval. Any boarding pair drawn
    from the two intervals still overlaps, so the split loses no solution.
    """
    assert c.kind == "boarding" and c.usage_j is not None
    u_i, u_j = c.usage_i, c.usage_j
    _, hi_j = busy_interval(u_j, u_i.l_s)
    _, hi_i = busy_interval(u_i, u_j.l_s)
    omega_i = (u_i.elevator, u_i.l_s, (u_i.t_s, hi_j))
    omega_j = (u_j.elevator, u_j.l_s, (u_j.t_s, hi_i))
    return omega_i, omega_j


def occupancy_constraints(c: ElevatorConflict) -> tuple[tuple[int, Vertex, int], tuple[int, int, int, tuple[int, int]]]:
    """The disjunctive pair for an occupancy conflict: either the occupier
    keeps off the door at that instant, or the rider defers every boarding
    whose busy window would cover it. Returns
    ((occupier, vertex, time), (rider, elevator, boarding floor, interval)).
    """
    assert c.kind == "occupancy" and c.vertex is not None
    u = c.usage_i
    delta = abs(u.l_g - c.vertex.floor) * u.t_floor
    lo = max(0, c.time - u.t_o - delta)
    branch_a = (c.j, c.vertex, c.time)
    branch_b = (c.i, u.elevator, u.l_s, (lo, c.time))
    return branch_a, branch_b
