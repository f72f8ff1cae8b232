"""Safe-interval single-agent planner over the time dimension.

Search states are (vertex, safe-interval index, rode-elevator flag); waits
are implicit inside intervals. Boarding bans apply to the instant a ride
starts (standing at a door stays legal), and a returned path parks at the
goal forever, so an arrival is only accepted in the goal's last interval.

Grid moves and heuristic distances come from a `GridIndex`, which a solve
builds once and shares through its agents' heuristics: each vertex's
4-neighbours, and one BFS distance field per source, so the field of an
elevator door is computed once however many agents start on its floor.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

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


@dataclass(slots=True)
class ConstraintSet:
    """One agent's constraints: vertex bans and boarding bans are closed
    time intervals (kept normalized), edge bans are exact departures."""

    vertex_bans: dict[Vertex, tuple[Interval, ...]] = field(default_factory=dict)
    edge_bans: frozenset[tuple[Vertex, Vertex, int]] = field(default_factory=frozenset)
    boarding_bans: dict[tuple[int, int], tuple[Interval, ...]] = field(default_factory=dict)

    def with_vertex_ban(self, v: Vertex, lo: int, hi: int) -> "ConstraintSet":
        bans = dict(self.vertex_bans)
        bans[v] = merge_intervals(list(bans.get(v, ())) + [(lo, hi)])
        return ConstraintSet(bans, self.edge_bans, self.boarding_bans)

    def with_edge_ban(self, u: Vertex, w: Vertex, t: int) -> "ConstraintSet":
        return ConstraintSet(self.vertex_bans, self.edge_bans | {(u, w, t)}, self.boarding_bans)

    def with_boarding_ban(self, elevator: int, floor: int, lo: int, hi: int) -> "ConstraintSet":
        bans = dict(self.boarding_bans)
        key = (elevator, floor)
        bans[key] = merge_intervals(list(bans.get(key, ())) + [(lo, hi)])
        return ConstraintSet(self.vertex_bans, self.edge_bans, bans)

    def vertex_banned(self, v: Vertex, t: int) -> bool:
        return interval_contains(self.vertex_bans.get(v, ()), t)

    def boarding_banned(self, elevator: int, floor: int, t: int) -> bool:
        return interval_contains(self.boarding_bans.get((elevator, floor), ()), t)

    def size(self) -> int:
        n = len(self.edge_bans)
        n += sum(hi - lo + 1 for ivs in self.vertex_bans.values() for lo, hi in ivs)
        n += sum(hi - lo + 1 for ivs in self.boarding_bans.values() for lo, hi in ivs)
        return n

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


class _Heuristic:
    """Exact unconstrained cost-to-go: same-floor grid distance, or walk to
    the best door, ride, and walk on the goal floor. It ignores constraints,
    so one instance serves every plan and MDD-E of its agent in a solve.
    Its distance fields come from `index`, which the agents of a solve
    share, so each door's field is computed once for all of them."""

    def __init__(self, agent: Agent, graph: MultiFloorGraph, index: GridIndex | None = None):
        self.index = index if index is not None else GridIndex(graph)
        self.goal_floor = agent.goal_floor
        self.start_floor = agent.start_floor
        self.post: dict[Vertex, float] = self.index.distances(agent.goal)
        self.pre: dict[Vertex, float] = _NO_TABLE
        if agent.start_floor != agent.goal_floor:
            best: dict[Vertex, float] = {}
            for e in graph.elevators:
                ride = abs(agent.start_floor - agent.goal_floor) * e.t_floor
                tail = self.post.get(Vertex(agent.goal_floor, e.cell[0], e.cell[1]), INF) + ride
                if tail == INF:
                    continue
                door_start = Vertex(agent.start_floor, e.cell[0], e.cell[1])
                for v, d in self.index.distances(door_start).items():
                    val = d + tail
                    if val < best.get(v, INF):
                        best[v] = val
            self.pre = best

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
    grid moves come from its index."""
    heur = heuristic if heuristic is not None else _Heuristic(agent, graph)
    if heur.value(agent.start, False) == INF:
        return None
    horizon = (graph.num_free_vertices() + constraints.max_end()
               + (graph.floors - 1) * max([e.t_floor for e in graph.elevators] or [0]) + 1)
    moves = heur.index.moves
    edge_bans = constraints.edge_bans
    # vertices without bans share one interval list
    safe = {v: safe_intervals(v, constraints) for v in constraints.vertex_bans}

    start_ivs = safe.get(agent.start, _ALWAYS_SAFE)
    start_idx = next((i for i, (lo, hi) in enumerate(start_ivs) if lo <= 0 <= hi), None)
    if start_idx is None:
        return None

    best: dict[tuple[Vertex, int, bool], int] = {(agent.start, start_idx, False): 0}
    parent: dict[tuple, tuple] = {}
    counter = itertools.count(1)
    h0 = heur.value(agent.start, False)
    heap: list[tuple] = [(h0, 0, agent.start, start_idx, False, 0)]
    cross = agent.start_floor != agent.goal_floor

    def relax(state: tuple, ustate: tuple, arr: int, h_u: float, dep: int, kind: str,
              elevator) -> None:
        if arr < best.get(ustate, INF):
            best[ustate] = arr
            parent[ustate] = (state, dep, kind, elevator)
            heapq.heappush(heap, (arr + h_u, -arr, *ustate, next(counter)))

    while heap:
        f, neg_g, v, idx, rode, _ = heapq.heappop(heap)
        g = -neg_g
        state = (v, idx, rode)
        if best.get(state, -1) != g or g > horizon:
            continue
        ivs = safe.get(v, _ALWAYS_SAFE)
        if v == agent.goal and idx == len(ivs) - 1:
            return _reconstruct(agent, graph, constraints, parent, state, g)
        cur_hi = ivs[idx][1]

        table = heur.table(v.floor, rode)  # grid moves stay on v's floor
        for u in moves.get(v, ()):
            h_u = table.get(u, INF)
            if h_u == INF:
                continue
            for uidx, (lo, hi) in enumerate(safe.get(u, _ALWAYS_SAFE)):
                dep = max(g, lo - 1)
                if edge_bans:
                    while (v, u, dep) in edge_bans:
                        dep += 1
                if dep > cur_hi or dep + 1 > hi:
                    continue
                relax(state, (u, uidx, rode), dep + 1, h_u, dep, "move", None)

        if cross and not rode:
            e = graph.elevator_at(v)
            if e is not None:
                t_o = abs(agent.goal_floor - v.floor) * e.t_floor
                target = Vertex(agent.goal_floor, e.cell[0], e.cell[1])
                h_t = heur.value(target, True)
                step = 1 if agent.goal_floor > v.floor else -1
                inner = [(Vertex(fl, e.cell[0], e.cell[1]), abs(fl - v.floor) * e.t_floor)
                         for fl in range(v.floor + step, agent.goal_floor, step)]
                for tidx, (lo, hi) in enumerate(safe.get(target, _ALWAYS_SAFE) if h_t < INF else ()):
                    dep = max(g, lo - t_o)
                    dep_hi = min(cur_hi, hi - t_o)
                    while dep <= dep_hi:
                        bumped = _board_violation(constraints, e.id, v.floor, inner, dep)
                        if bumped is None:
                            relax(state, (target, tidx, True), dep + t_o, h_t, dep, "board", e.id)
                            break
                        dep = max(dep + 1, bumped)
    return None


def _board_violation(constraints: ConstraintSet, elevator: int, floor: int,
                     inner: list[tuple[Vertex, int]], dep: int) -> int | None:
    """None when a ride departing at dep is clean, else the smallest later
    departure worth trying."""
    for lo, hi in constraints.boarding_bans.get((elevator, floor), ()):
        if lo <= dep <= hi:
            return hi + 1
    for door, offset in inner:
        for lo, hi in constraints.vertex_bans.get(door, ()):
            if lo <= dep + offset <= hi:
                return hi - offset + 1
    return None


def _reconstruct(agent, graph, constraints, parent, goal_state, goal_g) -> Path:
    links = []
    state = goal_state
    while state in parent:
        prev, dep, kind, elevator = parent[state]
        links.append((prev, state, dep, kind, elevator))
        state = prev
    links.reverse()

    steps: list[tuple[Vertex, int]] = [(agent.start, 0)]
    g_prev = 0
    for (pv, _, _), (nv, _, _), dep, kind, elevator in links:
        for t in range(g_prev + 1, dep + 1):
            steps.append((pv, t))
        if kind == "move":
            steps.append((nv, dep + 1))
            g_prev = dep + 1
        else:
            visits = ride_visits(graph, elevator, pv.floor, nv.floor, dep)
            steps.extend(visits)
            g_prev = visits[-1][1]
    path = Path(tuple(steps))
    if path.cost != goal_g:
        raise RuntimeError(f"agent {agent.id}: reconstructed path costs {path.cost}, "
                           f"but the search reached the goal at {goal_g}")
    return _retime_late(path, graph, constraints) or path


def _retime_late(path: Path, graph: MultiFloorGraph, constraints: ConstraintSet) -> Path | None:
    """Equal-cost rewrite that pools all waiting at the start vertex, so the
    agent departs as late as possible and never loiters en route (in
    particular not at elevator doors). Returns None when the retimed path
    would break a constraint."""
    moves = []  # (from, to, duration, kind, elevator)
    for (v, tv), (w, tw) in zip(path.steps, path.steps[1:]):
        if v == w:
            continue
        if w.floor != v.floor:
            e = graph.elevator_at(v)
            moves.append((v, w, tw - tv, "shaft", e.id))
        else:
            moves.append((v, w, 1, "move", None))
    if not moves:
        return Path(((path.steps[0][0], 0),)) if path.cost == 0 else None

    times = [0] * (len(moves) + 1)
    times[-1] = path.cost
    for i in range(len(moves) - 1, -1, -1):
        times[i] = times[i + 1] - moves[i][2]
    if times[0] < 0:
        return None

    start = path.steps[0][0]
    steps: list[tuple[Vertex, int]] = [(start, t) for t in range(0, times[0] + 1)]
    ride_open = False
    for i, (v, w, dur, kind, elevator) in enumerate(moves):
        dep = times[i]
        if kind == "move":
            if (v, w, dep) in constraints.edge_bans:
                return None
            ride_open = False
            steps.append((w, dep + 1))
        else:
            if not ride_open:
                if constraints.boarding_banned(elevator, v.floor, dep):
                    return None
                ride_open = True
            steps.append((w, dep + dur))
    for v, t in steps:
        if constraints.vertex_banned(v, t):
            return None
    return Path(tuple(steps))
