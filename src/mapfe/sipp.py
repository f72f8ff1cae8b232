"""Safe-interval single-agent planner over the time dimension.

Search states are (vertex, safe-interval index, rode-elevator flag); waits
are implicit inside intervals. Boarding bans apply to the instant a ride
starts (standing at a door stays legal), and a returned path parks at the
goal forever, so an arrival is only accepted in the goal's last interval.

Grid moves and heuristic distances come from a `GridIndex`, which a solve
builds once and shares through its agents' heuristics: each vertex's
4-neighbours, and one BFS distance field per source, so the field of an
elevator door is computed once however many agents start on its floor.
Each agent's heuristic is its move model, shared by the planner and the
MDD-E builder: a successor table per ride state and a ride table, each
filling an entry on its first read. Whether a ride breaks a constraint is
one rule, `ConstraintSet.ride_block`, which both read as well.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import partial
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
    that add one ban to one set then share the child. A set hashes and
    compares by identity, so it is its own key in the solver's plan memo
    and in `mdd.MddECache`, and those memos hit across such subtrees; two
    sets with equal bans reached in another order are two keys. `repr`
    leaves out `children`."""

    vertex_bans: dict[Vertex, tuple[Interval, ...]] = field(default_factory=dict)
    edge_bans: frozenset[tuple[Vertex, Vertex, int]] = field(default_factory=frozenset)
    boarding_bans: dict[tuple[int, int], tuple[Interval, ...]] = field(default_factory=dict)
    children: dict[tuple, "ConstraintSet"] | None = field(default=None, init=False, repr=False)

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
        return child

    def vertex_banned(self, v: Vertex, t: int) -> bool:
        return interval_contains(self.vertex_bans.get(v, ()), t)

    def boarding_banned(self, elevator: int, floor: int, t: int) -> bool:
        return interval_contains(self.boarding_bans.get((elevator, floor), ()), t)

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

    It is also the agent's move model. `succ[rode][v]` is v's grid moves in
    that ride state that can still reach the goal, each with its
    cost-to-go, in `GridIndex.moves` order. `rides[v]` is the `Ride` from v
    to the goal floor, or () when v is no door; read it only for a vertex
    an unboarded floor-crossing agent stands on. Both tables fill an entry
    on its first read and keep it."""

    def __init__(self, agent: Agent, graph: MultiFloorGraph, index: GridIndex | None = None):
        self.graph = graph
        self.index = index if index is not None else GridIndex(graph)
        self.goal_floor = agent.goal_floor
        self.start_floor = agent.start_floor
        self.post: dict[Vertex, float] = self.index.distances(agent.goal)
        self.pre: dict[Vertex, float] = _NO_TABLE
        if agent.start_floor != agent.goal_floor:
            best: dict[Vertex, float] = {}
            for e in graph.elevators:
                ride = abs(agent.start_floor - agent.goal_floor) * e.t_floor
                tail = self.post.get(graph.door(e.id, agent.goal_floor), INF) + ride
                if tail == INF:
                    continue
                for v, d in self.index.distances(graph.door(e.id, agent.start_floor)).items():
                    val = d + tail
                    if val < best.get(v, INF):
                        best[v] = val
            self.pre = best
        self.succ = tuple([_Table(partial(self._moves, rode)) for rode in (False, True)])
        self.rides = _Table(self._ride)

    def table(self, floor: int, rode: bool) -> dict[Vertex, float]:
        """Cost-to-go of the vertices of one floor in one ride state; a
        vertex missing from it cannot reach the goal."""
        if floor == self.goal_floor:
            return self.post
        if not rode and floor == self.start_floor:
            return self.pre
        return _NO_TABLE

    def value(self, v: Vertex, rode: bool) -> float:
        return self.table(v.floor, rode).get(v, INF)

    def _moves(self, rode: bool, v: Vertex) -> tuple[tuple[Vertex, float], ...]:
        table = self.table(v.floor, rode)  # grid moves stay on v's floor
        return tuple([(u, h) for u in self.index.moves.get(v, ())
                      if (h := table.get(u, INF)) < INF])

    def _ride(self, v: Vertex) -> Ride | tuple[()]:
        e = self.graph.elevator_at(v)
        if e is None:
            return ()
        visits = tuple(ride_visits(self.graph, e.id, v.floor, self.goal_floor, 0))
        return Ride(e.id, visits, self.value(visits[-1][0], True))


def cost_to_go(agent: Agent, graph: MultiFloorGraph, index: GridIndex | None = None) -> _Heuristic:
    """The agent's unconstrained heuristic, for callers that plan or build
    MDD-Es for the agent many times; `index` is the solve's `GridIndex`."""
    return _Heuristic(agent, graph, index)


_ALWAYS_SAFE: tuple[Interval, ...] = ((0, INF),)


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
    h0 = heur.value(start, False)
    if h0 == INF:
        return None
    horizon = (graph.num_free_vertices() + constraints.max_end()
               + (graph.floors - 1) * max([e.t_floor for e in graph.elevators] or [0]) + 1)
    edge_bans = constraints.edge_bans
    # only vertices with bans get an entry: the others have one safe
    # interval, [0, inf), index 0
    safe = {v: safe_intervals(v, constraints) for v in constraints.vertex_bans}
    safe_get = safe.get

    start_ivs = safe_get(start, _ALWAYS_SAFE)
    start_idx = next((i for i, (lo, hi) in enumerate(start_ivs) if lo <= 0 <= hi), None)
    if start_idx is None:
        return None
    goal_idx = len(safe_get(goal, _ALWAYS_SAFE)) - 1

    # a state is (vertex, safe-interval index, rode); parent links are
    # (state, departure, elevator id or None for a grid move)
    best: dict[tuple[Vertex, int, bool], int] = {(start, start_idx, False): 0}
    best_get = best.get
    parent: dict[tuple, tuple] = {}
    # (f, -g, state...): a state is pushed again only with a smaller g,
    # so no two entries tie on the whole tuple
    heap: list[tuple] = [(h0, 0, start, start_idx, False)]
    push, pop = heapq.heappush, heapq.heappop
    succ = heur.succ
    rides = heur.rides if agent.start_floor != agent.goal_floor else None

    while heap:
        _, neg_g, v, idx, rode = pop(heap)
        g = -neg_g
        state = (v, idx, rode)
        if best[state] != g or g > horizon:
            continue
        if idx == goal_idx and v == goal:
            return _reconstruct(agent, graph, constraints, parent, state, g)
        ivs = safe_get(v)
        cur_hi = INF if ivs is None else ivs[idx][1]

        for u, h_u in succ[rode][v]:
            u_ivs = safe_get(u)
            if u_ivs is None:  # no vertex ban: one interval, [0, inf)
                dep = g
                if edge_bans:
                    while (v, u, dep) in edge_bans:
                        dep += 1
                    if dep > cur_hi:
                        continue
                arr = dep + 1
                ustate = (u, 0, rode)
                if arr < best_get(ustate, INF):
                    best[ustate] = arr
                    parent[ustate] = (state, dep, None)
                    push(heap, (arr + h_u, -arr, u, 0, rode))
                continue
            for uidx, (lo, hi) in enumerate(u_ivs):
                dep = g if g >= lo - 1 else lo - 1
                if edge_bans:
                    while (v, u, dep) in edge_bans:
                        dep += 1
                if dep > cur_hi or dep + 1 > hi:
                    continue
                arr = dep + 1
                ustate = (u, uidx, rode)
                if arr < best_get(ustate, INF):
                    best[ustate] = arr
                    parent[ustate] = (state, dep, None)
                    push(heap, (arr + h_u, -arr, u, uidx, rode))

        if rides is not None and not rode and (ride := rides[v]):
            e_id, visits, h_t = ride
            target, t_o = visits[-1]
            for tidx, (lo, hi) in enumerate(safe_get(target, _ALWAYS_SAFE) if h_t < INF else ()):
                dep = max(g, lo - t_o)
                dep_hi = min(cur_hi, hi - t_o)
                while dep <= dep_hi:
                    bumped = constraints.ride_block(e_id, v.floor, visits, dep)
                    if bumped is None:
                        arr = dep + t_o
                        ustate = (target, tidx, True)
                        if arr < best_get(ustate, INF):
                            best[ustate] = arr
                            parent[ustate] = (state, dep, e_id)
                            push(heap, (arr + h_t, -arr, target, tidx, True))
                        break
                    dep = bumped
    return None


def _reconstruct(agent: Agent, graph: MultiFloorGraph, constraints: ConstraintSet,
                 parent: dict, state: tuple, goal_g: int) -> Path:
    """The searched path to the goal state, in one backward pass over the
    parent links, retimed at equal cost so that all waiting pools at the
    start vertex: the agent departs as late as possible and never loiters
    en route (in particular not at elevator doors). When the retimed path
    breaks a constraint, the path as searched, waits where they fell."""
    edge_bans = constraints.edge_bans
    links = []  # (from, to, searched departure, elevator id or None), goal first
    late: list[tuple[Vertex, int]] = []  # the retimed steps after the start's, reversed
    legal = True
    t = goal_g  # the retimed arrival of the link in hand
    while state in parent:
        prev, dep, elevator = parent[state]
        v, w = prev[0], state[0]
        links.append((v, w, dep, elevator))
        if elevator is None:
            late.append((w, t))
            t -= 1
            if edge_bans and (v, w, t) in edge_bans:
                legal = False
        else:
            t -= abs(w.floor - v.floor) * graph.elevators[elevator].t_floor
            late.extend(reversed(ride_visits(graph, elevator, v.floor, w.floor, t)))
            if constraints.boarding_banned(elevator, v.floor, t):
                legal = False
        state = prev
    if t < 0:
        raise RuntimeError(f"agent {agent.id}: the searched moves take longer than "
                           f"the goal arrival at {goal_g}")
    start = agent.start
    vertex_bans = constraints.vertex_bans
    if legal and vertex_bans:
        legal = not any(lo <= t and hi >= 0 for lo, hi in vertex_bans.get(start, ())) and not any(
            lo <= tv <= hi for v, tv in late for lo, hi in vertex_bans.get(v, ()))
    if legal:
        late.extend((start, tv) for tv in range(t, -1, -1))
        late.reverse()
        return Path(tuple(late))

    steps: list[tuple[Vertex, int]] = [(start, 0)]
    for v, w, dep, elevator in reversed(links):
        steps.extend((v, tv) for tv in range(steps[-1][1] + 1, dep + 1))
        if elevator is None:
            steps.append((w, dep + 1))
        else:
            steps.extend(ride_visits(graph, elevator, v.floor, w.floor, dep))
    if steps[-1][1] != goal_g:
        raise RuntimeError(f"agent {agent.id}: reconstructed path costs {steps[-1][1]}, "
                           f"but the search reached the goal at {goal_g}")
    return Path(tuple(steps))
