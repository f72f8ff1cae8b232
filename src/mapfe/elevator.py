"""Elevator timeline arithmetic and elevator-conflict detection.

An elevator carries one agent per ride. After dropping a rider at floor
l_g at time t_g it must travel to the next requester's floor before the
next boarding, so relative to a door on floor f the elevator is busy over
the closed window [t_s, t_g + |l_g - f| * t_floor]. Boarding overlaps and
door presences inside such windows are the two elevator-conflict variants;
a conflict's `sides()` are the bans that resolve it, one per agent.
Each path takes at most one ride, so an agent's elevator usage is one
`ElevatorUsage` or none, read from the path by `extract_ride`. Every
elevator conflict is between two agents, so a pair of paths is the unit
of the scan: `pair_elevator_conflicts` reads the pair's two summaries
(ride and door presences, `RideSummaries`), and a whole-plan scan runs it
over each pair.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .model import MultiFloorGraph, Vertex


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

    def sides(self) -> tuple[tuple[int, tuple], tuple[int, tuple]]:
        """Each agent's part as (agent, `ConstraintSet` ban): each boarding
        at its time, or the occupier, then the rider's covering boardings."""
        u = self.usage_i
        if self.kind == "boarding":
            u_j = self.usage_j
            return ((self.i, ("boarding", u.elevator, u.l_s, u.t_s, u.t_s)),
                    (self.j, ("boarding", u_j.elevator, u_j.l_s, u_j.t_s, u_j.t_s)))
        lo, hi = busy_interval(u, self.vertex.floor)  # a boarding at b is busy until b + hi - lo
        t = self.time
        return ((self.j, ("vertex", self.vertex, t, t)),
                (self.i, ("boarding", u.elevator, u.l_s, max(0, t - (hi - lo)), t)))


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


def door_in_window(rider: ElevatorUsage, floor: int, t: int, own: ElevatorUsage | None) -> bool:
    """Is a presence at time t at the rider's elevator's door on `floor`
    inside the rider's busy window? `own` is the standing agent's ride of
    the same elevator, if any: presences inside it are the rider-vs-rider
    case, covered by the boarding variant."""
    if own is not None and own.t_s <= t <= own.t_g:
        return False
    lo, hi = busy_interval(rider, floor)
    return lo <= t <= hi


def extract_ride(steps: list[tuple[Vertex, int]], graph: MultiFloorGraph, agent: int) -> ElevatorUsage | None:
    """The agent's ride in a timed path, or None when the path never
    changes floor. A path takes at most one ride (`cbs.validate` rejects a
    second before it scans), so the ride spans the first to the last floor
    change: it boards at the step before the first and exits on the path's
    last floor."""
    floor = steps[0][0].floor
    first = next((i for i, (v, _) in enumerate(steps) if v.floor != floor), None)
    if first is None:
        return None
    door, t_s = steps[first - 1]
    e = graph.elevator_at(door)
    return ElevatorUsage(agent, e.id, t_s, floor, steps[-1][0].floor, e.t_floor)


class RideSummaries:
    """Each path's ride (stamped with its agent's id, or None) and door
    presences, extracted once per memo. Summaries are keyed by `id(path)`,
    because `Path` hashes by value in O(length); the caller keeps every
    path it summarises alive while the memo lives (a solver keeps all of
    its paths, `detect_elevator_conflicts` its argument), so an id is never
    reused, and a path belongs to one agent. Equal summaries are stored
    once: an agent's replans mostly keep its ride, and paths with no ride
    and no door step all share one summary."""

    def __init__(self, graph: MultiFloorGraph):
        self.graph = graph
        self.by_path: dict[int, tuple] = {}
        self.summaries: dict[tuple, tuple] = {}

    def get(self, agent: int, path) -> tuple:
        """(ride or None, door presences) of agent's path; a presence is
        (elevator id, door vertex, time)."""
        summary = self.by_path.get(id(path))
        if summary is None:
            steps = path.steps
            at = self.graph.elevator_at
            presences = tuple([(e.id, v, t) for v, t in steps if (e := at(v)) is not None])
            summary = (extract_ride(steps, self.graph, agent), presences)
            summary = self.by_path[id(path)] = self.summaries.setdefault(summary, summary)
        return summary


def pair_elevator_conflicts(i: int, j: int, ride_i: tuple, ride_j: tuple) -> list[ElevatorConflict]:
    """The elevator conflicts of agents i < j, from their paths' summaries
    (`RideSummaries.get`), per the two variants:

    - boarding: both ride one elevator with overlapping busy intervals,
      reported at the later boarding time;
    - occupancy: one agent present at a door of the other's elevator k on
      floor f at a time inside the rider's closed window
      [t_s, t_g + |l_g-f|*t_floor], the rider listed first. Door steps of
      the standing agent's own ride of k are the rider-vs-rider case and
      are covered by the boarding variant instead.

    The boarding conflict comes first, then i's occupancy conflicts as the
    rider, then j's; `cbs.enumerate_conflicts` sorts them into the
    solver's conflict order.
    """
    out: list[ElevatorConflict] = []
    for rider, (u, _), other, (theirs, presences) in ((i, ride_i, j, ride_j), (j, ride_j, i, ride_i)):
        if u is None:
            continue
        k = u.elevator
        own = theirs if theirs is not None and theirs.elevator == k else None
        if own is not None and rider == i and usages_overlap(u, own):
            out.append(ElevatorConflict("boarding", i, j, k, max(u.t_s, own.t_s), u, own))
        for e, v, t in presences:
            if e == k and door_in_window(u, v.floor, t, own):
                out.append(ElevatorConflict("occupancy", rider, other, k, t, u, None, v))
    return out


def detect_elevator_conflicts(paths, graph: MultiFloorGraph) -> list[ElevatorConflict]:
    """All elevator conflicts of a joint plan: `pair_elevator_conflicts`
    of each pair of agents i < j, in pair order. `paths` is a sequence of
    objects with a `steps` list of (Vertex, time), indexed by agent id."""
    memo = RideSummaries(graph)
    rides = [memo.get(a, path) for a, path in enumerate(paths)]
    return [c for i, j in itertools.combinations(range(len(paths)), 2)
            for c in pair_elevator_conflicts(i, j, rides[i], rides[j])]


def ec_constraints(c: ElevatorConflict) -> tuple[tuple[int, tuple], tuple[int, tuple]]:
    """The paired range constraints resolving a boarding conflict, shaped
    like `c.sides()`: each agent may not start a ride at its boarding floor
    from its own boarding time to the end of the other ride's busy window
    toward that floor. Any boarding pair drawn from the two intervals still
    overlaps, so the split loses no solution.
    """
    assert c.kind == "boarding" and c.usage_j is not None
    u_i, u_j = c.usage_i, c.usage_j
    _, hi_j = busy_interval(u_j, u_i.l_s)
    _, hi_i = busy_interval(u_i, u_j.l_s)
    return ((c.i, ("boarding", u_i.elevator, u_i.l_s, u_i.t_s, hi_j)),
            (c.j, ("boarding", u_j.elevator, u_j.l_s, u_j.t_s, hi_i)))
