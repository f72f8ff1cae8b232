"""Safe-interval single-agent planner over the time dimension.

Search states are (vertex, safe-interval index); waits are implicit inside
intervals. An agent rides at most once, from its start floor to its goal
floor, so a state needs no ride flag: the vertex's floor tells whether the
agent has ridden. Boarding bans apply to the instant a ride starts
(standing at a door stays legal), and a returned path parks at the goal
forever, so an arrival is only accepted in the goal's last interval.

Grid moves and heuristic distances come from a `GridIndex`, which a solve
builds once and shares through its agents' heuristics: each vertex's
4-neighbours, and one BFS distance field per source, so the field of an
elevator door is computed once however many agents start on its floor.
Each agent's heuristic is its move model, shared by the planner and the
MDD-E builder: one successor table by vertex, which fills an entry on its
first read, and the rides from its start-floor doors. Whether a ride
breaks a constraint is one rule, `ConstraintSet.ride_block`, which both
read as well.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .model import Agent, MultiFloorGraph, Vertex, ride_visits

INF = math.inf

Interval = tuple[int, int]  # closed; hi may be math.inf


def merge_intervals(intervals) -> tuple[Interval, ...]:
    """Sort, drop empties, and merge overlapping or adjacent intervals."""
    items = sorted((lo, hi) for lo, hi in intervals if lo <= hi)
    out: list[list] = []
    for lo, hi in items:
        if out and lo <= out[-1][1] + 1:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return tuple((lo, hi) for lo, hi in out)


def interval_contains(intervals, t: int) -> bool:
    return any(lo <= t <= hi for lo, hi in intervals)


def _with_interval(bans: dict, key, lo: int, hi: int) -> dict:
    """A copy of bans with [lo, hi] merged into key's intervals."""
    out = dict(bans)
    out[key] = merge_intervals(list(out.get(key, ())) + [(lo, hi)])
    return out


@dataclass(slots=True, eq=False)
class ConstraintSet:
    """One agent's constraints: vertex bans and boarding bans are closed
    time intervals (kept normalized), edge bans are exact departures.

    A ban, as a conflict's `sides()` names it, is `("vertex", v, lo, hi)`,
    `("edge", u, w, t)` (no move u->w departing at t) or `("boarding",
    elevator, floor, lo, hi)`. Sets are never mutated: `with_ban` derives
    a child, and the parent keeps its children keyed by the ban, so the
    same ban on the same set gives the same object. Sibling CT subtrees
    that add one ban to one set then share the child, which knows its
    `parent` and that `ban` (None on a set not made by `with_ban`). A set
    hashes and compares by identity, so it is its own key in the solver's
    plan memo and in `mdd.MddECache`, and those memos hit across such
    subtrees; two sets with equal bans reached in another order are two
    keys. `repr` leaves out `children`, `parent` and `ban`."""

    vertex_bans: dict[Vertex, tuple[Interval, ...]] = field(default_factory=dict)
    edge_bans: frozenset[tuple[Vertex, Vertex, int]] = field(default_factory=frozenset)
    boarding_bans: dict[tuple[int, int], tuple[Interval, ...]] = field(default_factory=dict)
    children: dict[tuple, "ConstraintSet"] | None = field(default=None, init=False, repr=False)
    parent: "ConstraintSet | None" = field(default=None, init=False, repr=False)
    ban: tuple | None = field(default=None, init=False, repr=False)

    def with_ban(self, ban: tuple) -> "ConstraintSet":
        """This set plus one ban, derived once per (set, ban)."""
        children = self.children
        if children is None:
            children = self.children = {}
        child = children.get(ban)
        if child is None:
            vertex, edge, boarding = self.vertex_bans, self.edge_bans, self.boarding_bans
            if ban[0] == "vertex":
                vertex = _with_interval(vertex, *ban[1:])
            elif ban[0] == "edge":
                edge = edge | {ban[1:]}
            else:
                boarding = _with_interval(boarding, ban[1:3], *ban[3:])
            child = children[ban] = ConstraintSet(vertex, edge, boarding)
            child.parent, child.ban = self, ban
        return child

    def vertex_banned(self, v: Vertex, t: int) -> bool:
        return interval_contains(self.vertex_bans.get(v, ()), t)

    def ride_block(self, elevator: int, floor: int, visits: tuple[tuple[Vertex, int], ...],
                   dep: int) -> int | None:
        """None when a ride of `elevator` boarded on `floor` at dep breaks
        no ban, else the smallest later departure worth trying. `visits`
        are the ride's (door, offset) pairs, a door reached at dep plus its
        offset."""
        for lo, hi in self.boarding_bans.get((elevator, floor), ()):
            if lo <= dep <= hi:
                return hi + 1
        for door, offset in visits:
            for lo, hi in self.vertex_bans.get(door, ()):
                if lo <= dep + offset <= hi:
                    return hi - offset + 1
        return None

    def max_end(self) -> int:
        ends = [0]
        ends += [hi for ivs in self.vertex_bans.values() for _, hi in ivs]
        ends += [hi for ivs in self.boarding_bans.values() for _, hi in ivs]
        ends += [t + 1 for _, _, t in self.edge_bans]
        return max(ends)


def safe_intervals(v: Vertex, constraints: ConstraintSet) -> list[Interval]:
    """Maximal ban-free closed intervals of v over [0, inf)."""
    out: list[Interval] = []
    cur = 0
    for lo, hi in constraints.vertex_bans.get(v, ()):
        if lo > cur:
            out.append((cur, lo - 1))
        cur = max(cur, hi + 1)
    out.append((cur, INF))
    return out


@dataclass(frozen=True, slots=True)
class Path:
    """Timed vertex sequence from (start, 0); cost is the goal arrival time.
    Regular steps are one tick apart, ride steps t_floor apart, and trailing
    goal waits are never stored."""

    steps: tuple[tuple[Vertex, int], ...]

    @property
    def cost(self) -> int:
        return self.steps[-1][1]

    @property
    def end(self) -> Vertex:
        return self.steps[-1][0]


class GridIndex:
    """One solve's view of the grids: each passable vertex's 4-neighbours as
    shared `Vertex` objects, in `(1,0),(-1,0),(0,1),(0,-1)` order, and the
    single-floor BFS distance field of every source asked for, computed
    once. It lives for one solve only: parsed graphs carry no table, and
    callers that keep many graphs alive pay for none."""

    def __init__(self, graph: MultiFloorGraph):
        self.moves: dict[Vertex, tuple[Vertex, ...]] = {}
        for floor in range(1, graph.floors + 1):
            grid = graph.grid(floor)
            cells = {(x, y): Vertex(floor, x, y) for y in range(grid.height)
                     for x in range(grid.width) if (x, y) not in grid.blocked}
            at = cells.get
            for (x, y), v in cells.items():
                self.moves[v] = tuple([u for u in (at((x + 1, y)), at((x - 1, y)),
                                                   at((x, y + 1)), at((x, y - 1)))
                                       if u is not None])
        self.fields: dict[Vertex, dict[Vertex, int]] = {}

    def distances(self, source: Vertex) -> dict[Vertex, int]:
        """BFS distances from source to every vertex of its floor it reaches.
        The field is shared by every caller: do not modify it."""
        dist = self.fields.get(source)
        if dist is None:
            moves = self.moves
            dist = self.fields[source] = {source: 0}
            frontier = [source]
            d = 0
            while frontier:
                d += 1
                nxt = []
                for v in frontier:
                    for u in moves.get(v, ()):
                        if u not in dist:
                            dist[u] = d
                            nxt.append(u)
                frontier = nxt
        return dist


_NO_TABLE: dict[Vertex, float] = {}


class Ride(NamedTuple):
    """The ride an unboarded agent can take from a door: to its goal floor,
    boarded at time 0. A ride boarded at dep reaches each door at dep plus
    its offset."""

    elevator: int
    visits: tuple[tuple[Vertex, int], ...]  # (door, offset) per floor reached, goal floor last
    h_target: float  # the goal floor door's cost-to-go


class _Table(dict):
    """A dict that computes a missing entry with `fill` on its first read,
    and keeps it."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _Heuristic:
    """Exact unconstrained cost-to-go: same-floor grid distance, or walk to
    the best door, ride, and walk on the goal floor. It ignores constraints,
    so one instance serves every plan and MDD-E of its agent in a solve.
    Its distance fields come from `index`, which the agents of a solve
    share, so each door's field is computed once for all of them.

    It is also the agent's move model. An agent rides at most once, from
    its start floor to its goal floor, so whether it has ridden is
    `v.floor != start_floor` on every vertex it stands on outside a shaft.
    `succ[v]` is v's grid moves that can still reach the goal, each with
    its cost-to-go, in `GridIndex.moves` order; it fills an entry on its
    first read and keeps it. `rides` maps each start-floor door to its
    `Ride`, and is empty for an agent that stays on one floor. `horizon`
    is the planner's horizon without its constraints' part."""

    def __init__(self, agent: Agent, graph: MultiFloorGraph, index: GridIndex | None = None):
        self.index = index if index is not None else GridIndex(graph)
        self.goal_floor = agent.goal_floor
        self.start_floor = agent.start_floor
        self.post: dict[Vertex, float] = self.index.distances(agent.goal)
        self.pre: dict[Vertex, float] = _NO_TABLE
        self.rides: dict[Vertex, Ride] = {}
        if agent.start_floor != agent.goal_floor:
            best: dict[Vertex, float] = {}
            for e in graph.elevators:
                door = graph.door(e.id, agent.start_floor)
                visits = tuple(ride_visits(graph, e.id, agent.start_floor, agent.goal_floor, 0))
                ride = self.rides[door] = Ride(e.id, visits, self.post.get(visits[-1][0], INF))
                tail = ride.h_target + visits[-1][1]
                if tail == INF:
                    continue
                for v, d in self.index.distances(door).items():
                    val = d + tail
                    if val < best.get(v, INF):
                        best[v] = val
            self.pre = best
        self.succ = _Table(self._moves)
        self.horizon = (graph.num_free_vertices() + 1 + (graph.floors - 1)
                        * max([e.t_floor for e in graph.elevators] or [0]))

    def table(self, floor: int) -> dict[Vertex, float]:
        """Cost-to-go of the vertices of one floor, unridden on the start
        floor and ridden on the goal floor; a vertex missing from it cannot
        reach the goal."""
        if floor == self.goal_floor:
            return self.post
        if floor == self.start_floor:
            return self.pre
        return _NO_TABLE

    def value(self, v: Vertex) -> float:
        return self.table(v.floor).get(v, INF)

    def _moves(self, v: Vertex) -> tuple[tuple[Vertex, float], ...]:
        table = self.table(v.floor)  # grid moves stay on v's floor
        return tuple([(u, h) for u in self.index.moves.get(v, ())
                      if (h := table.get(u, INF)) < INF])


def cost_to_go(agent: Agent, graph: MultiFloorGraph, index: GridIndex | None = None) -> _Heuristic:
    """The agent's unconstrained heuristic, for callers that plan or build
    MDD-Es for the agent many times; `index` is the solve's `GridIndex`."""
    return _Heuristic(agent, graph, index)


_ALWAYS_SAFE: tuple[Interval, ...] = ((0, INF),)
_UNSEEN = (INF,)  # the `best` entry of a state not reached yet


def plan(agent: Agent, graph: MultiFloorGraph, constraints: ConstraintSet,
         heuristic: _Heuristic | None = None) -> Path | None:
    """Minimum-cost constrained path for one agent, or None when no path
    satisfies the constraints. Ties break on (f, larger g, vertex order);
    waits in the result are retimed toward the start when legal.
    `heuristic` is the agent's `cost_to_go`, built here when not given;
    grid moves, rides and their costs-to-go come from its tables, and a
    ride departs at the first time `ConstraintSet.ride_block` clears."""
    heur = heuristic if heuristic is not None else _Heuristic(agent, graph)
    start, goal = agent.start, agent.goal
    h0 = heur.value(start)
    if h0 == INF or constraints.vertex_banned(start, 0):
        return None
    horizon = heur.horizon + constraints.max_end()
    edge_bans = constraints.edge_bans
    # only vertices with bans get an entry: the others have one safe
    # interval, [0, inf), index 0
    safe = {v: safe_intervals(v, constraints) for v in constraints.vertex_bans}
    safe_get = safe.get
    goal_idx = len(safe_get(goal, _ALWAYS_SAFE)) - 1

    # a state is (vertex, safe-interval index), keyed by the vertex alone
    # in its first interval; its entry is (g, parent key, parent vertex,
    # departure, the `Ride` taken or None for a grid move)
    best: dict = {start: (0, None, None, 0, None)}
    best_get = best.get
    # (f, -g, vertex, interval index): a state is pushed again only with a
    # smaller g, so no two entries tie on the whole tuple
    heap: list[tuple] = [(h0, 0, start, 0)]
    push, pop = heapq.heappush, heapq.heappop
    succ, rides_get = heur.succ, heur.rides.get

    while heap:
        _, neg_g, v, idx = pop(heap)
        g = -neg_g
        key = (v, idx) if idx else v
        if best[key][0] != g or g > horizon:
            continue
        if idx == goal_idx and v == goal:
            return _reconstruct(agent, constraints, best, key, g)
        ivs = safe_get(v)
        cur_hi = INF if ivs is None else ivs[idx][1]

        for u, h_u in succ[v]:
            u_ivs = safe_get(u)
            if u_ivs is None:  # no vertex ban: one interval, [0, inf)
                dep = g
                if edge_bans:
                    while (v, u, dep) in edge_bans:
                        dep += 1
                    if dep > cur_hi:
                        continue
                arr = dep + 1
                if arr < best_get(u, _UNSEEN)[0]:
                    best[u] = (arr, key, v, dep, None)
                    push(heap, (arr + h_u, -arr, u, 0))
                continue
            for uidx, (lo, hi) in enumerate(u_ivs):
                dep = g if g >= lo - 1 else lo - 1
                if edge_bans:
                    while (v, u, dep) in edge_bans:
                        dep += 1
                if dep > cur_hi or dep + 1 > hi:
                    continue
                arr = dep + 1
                ukey = (u, uidx) if uidx else u
                if arr < best_get(ukey, _UNSEEN)[0]:
                    best[ukey] = (arr, key, v, dep, None)
                    push(heap, (arr + h_u, -arr, u, uidx))

        ride = rides_get(v)  # a start-floor door, so the agent has not ridden
        if ride is not None and ride.h_target < INF:
            e_id, visits, h_t = ride
            target, t_o = visits[-1]
            for tidx, (lo, hi) in enumerate(safe_get(target, _ALWAYS_SAFE)):
                dep = max(g, lo - t_o)
                dep_hi = min(cur_hi, hi - t_o)
                while dep <= dep_hi:
                    bumped = constraints.ride_block(e_id, v.floor, visits, dep)
                    if bumped is None:
                        arr = dep + t_o
                        ukey = (target, tidx) if tidx else target
                        if arr < best_get(ukey, _UNSEEN)[0]:
                            best[ukey] = (arr, key, v, dep, ride)
                            push(heap, (arr + h_t, -arr, target, tidx))
                        break
                    dep = bumped
    return None


def _reconstruct(agent: Agent, constraints: ConstraintSet, best: dict, key, goal_g: int) -> Path:
    """The searched path to the goal state, retimed at equal cost so that
    all waiting pools at the start vertex: the agent departs as late as
    possible and never loiters en route (in particular not at elevator
    doors). One backward walk over the parent links retimes the steps and
    checks them against the bans; when the retimed path breaks one, a
    second walk gives the path as searched, waits where they fell."""
    edge_bans, vertex_bans = constraints.edge_bans, constraints.vertex_bans
    steps: list[tuple[Vertex, int]] = []  # the steps after the start's, reversed
    t = goal_g  # the retimed arrival of the link in hand
    w, entry = agent.goal, best[key]
    while entry[1] is not None:
        _, prev, v, _, ride = entry
        if ride is None:
            steps.append((w, t))
            if vertex_bans and (ivs := vertex_bans.get(w)) and interval_contains(ivs, t):
                break
            t -= 1
            if edge_bans and (v, w, t) in edge_bans:
                break
        else:
            t -= ride.visits[-1][1]
            steps.extend((door, t + offset) for door, offset in reversed(ride.visits))
            if constraints.ride_block(ride.elevator, v.floor, ride.visits, t) is not None:
                break
        w, entry = v, best[prev]
    else:
        if t < 0:
            raise RuntimeError(f"agent {agent.id}: the searched moves take longer than "
                               f"the goal arrival at {goal_g}")
        if not any(lo <= t and hi >= 0 for lo, hi in vertex_bans.get(agent.start, ())):
            steps.extend((agent.start, tv) for tv in range(t, -1, -1))
            return Path(tuple(reversed(steps)))

    steps.clear()
    w, entry = agent.goal, best[key]
    while entry[1] is not None:
        _, prev, v, dep, ride = entry
        if ride is None:
            steps.append((w, dep + 1))
        else:
            steps.extend((door, dep + offset) for door, offset in reversed(ride.visits))
        entry = best[prev]
        steps.extend((v, tv) for tv in range(dep, entry[0], -1))  # the waits at v
        w = v
    steps.append((agent.start, 0))
    return Path(tuple(reversed(steps)))
