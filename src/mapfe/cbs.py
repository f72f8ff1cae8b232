"""High-level constraint-tree search with elevator-aware branching.

Best-first search over CT nodes ordered by (sum of costs, conflict count,
creation order). A node branches into one child per side of a conflict,
an (agent, `ConstraintSet` ban) pair (`sides()`, which `mdd.classify`
tests too); elevator constraints widen a boarding conflict's sides to the
paired busy intervals (`elevator.ec_constraints`), one split per conflict.
With elevator constraints on, selection passes over a door vertex conflict
that a boarding conflict dominates (`_dominated`): two agents that board
elevator k from its door at the same instant meet there, and branching on
the boarding conflict bans both boardings over the whole busy window,
where the vertex split bans one instant. A plain boarding split bans one
instant too and does not dominate, so with elevator constraints off the
rule does not apply. A passed-over conflict still counts in the node's
conflict count, and it is never classified.

Work that cannot change between CT nodes is done once per solve: the grid
index (`sipp.GridIndex`: neighbour tuples and BFS distance fields, each
field computed once for every agent that needs it) is built when the
solver is, each agent's unconstrained heuristic is built once from it and
shared by every replan and MDD-E of that agent, each (agent, constraint
set) is planned once (`_Solver.plans`) and each MDD-E made once per
(agent, cost, constraint set) (`mdd.MddECache`), both kept for the rest
of the solve, and each path's ride and door presences are extracted once
(`elevator.RideSummaries`). Sibling subtrees keep adding the same ban to
the same parent set; `ConstraintSet` derives each (parent, ban) child
once, and a set is its own memo key by identity, so those branches share
its plans and MDD-Es. A child set's MDD-E at the cost its parent set's
has is pruned from that one rather than built. Equal step sequences are one `Path` per solve
(`_Solver._intern`), so a path's identity is a memo key. Every conflict is
between two agents, so a pair of paths is the unit of the scan: a pair's
grid conflicts (`_pair_grid_conflicts`, on the lower agent's `_timeline`,
built once per path) and elevator conflicts
(`elevator.pair_elevator_conflicts`) are found once per solve and kept
(`_Solver._pair`), for the root and every rescan alike. A child replans
one agent, so it keeps its parent's conflicts that do not involve that
agent and looks up only that agent's pairs. About half the children
are never expanded, so a child is planned at once but scanned only when
it reaches the top of the open list: until then it holds its parent's
list and is queued under the count of that list's conflicts without the
replanned agent, a lower bound on its own count. A child also keeps the other agents'
constraint sets, and so their MDD-Es: a conflict's label and bypass depend
only on the two MDD-Es and the conflict, and one joint search
(`mdd.classify`, given both diagrams) yields both, so it runs once per
solve per triple, the memo's key. `mdd.MddECache` makes equal diagrams
one object, so a label also serves nodes whose agents reached the same
diagrams under other constraint sets. The memo holds labels and bypass
paths, never a joint MDD-E; a joint lives for one expansion.
Invariant: every expanded CT node's conflict list equals
`enumerate_conflicts` over its paths, in `_conflict_key` order, which is a
total order on a plan's conflicts. That whole-plan scan, which `validate`
keeps to certify every returned plan, runs the same two pair scans over
each pair without the memo.
"""
from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field, fields

from . import mdd as mdd_mod
from .elevator import (ElevatorConflict, RideSummaries, detect_elevator_conflicts, ec_constraints,
                       pair_elevator_conflicts)
from .model import Instance, MultiFloorGraph, Vertex
from .sipp import ConstraintSet, GridIndex, Path, cost_to_go, plan

_KIND_RANK = {"vertex": 0, "edge": 1, "boarding": 2, "occupancy": 3}
_UNPLANNED = object()  # a plan memo key not planned yet (None is no path)


class PathStructureError(ValueError):
    """A plan is malformed (disconnected steps, bad timing, double ride, a
    ride that turns round in the shaft)."""


@dataclass(frozen=True, slots=True)
class VertexConflict:
    i: int
    j: int
    v: Vertex
    t: int
    kind: str = "vertex"

    @property
    def time(self) -> int:
        return self.t

    def sides(self) -> tuple[tuple[int, tuple], tuple[int, tuple]]:
        """Each agent's part in the conflict as (agent, `ConstraintSet` ban)."""
        ban = ("vertex", self.v, self.t, self.t)
        return ((self.i, ban), (self.j, ban))


@dataclass(frozen=True, slots=True)
class EdgeConflict:
    """Agents swap one edge: i moves u->w and j moves w->u over [t, t+1]."""

    i: int
    j: int
    u: Vertex
    w: Vertex
    t: int
    kind: str = "edge"

    @property
    def time(self) -> int:
        return self.t

    def sides(self) -> tuple[tuple[int, tuple], tuple[int, tuple]]:
        """Each agent's part in the conflict as (agent, `ConstraintSet` ban)."""
        return ((self.i, ("edge", self.u, self.w, self.t)),
                (self.j, ("edge", self.w, self.u, self.t)))


Conflict = VertexConflict | EdgeConflict | ElevatorConflict


def _conflict_key(c: Conflict) -> tuple:
    """Sort key that tells apart any two conflicts of one plan (each agent
    stands on one vertex at a time and takes at most one ride)."""
    extra: tuple
    if c.kind == "vertex":
        extra = (c.v,)
    elif c.kind == "edge":
        extra = (c.u, c.w)
    elif c.kind == "boarding":
        extra = (c.elevator, c.usage_i.t_s, c.usage_j.t_s)
    else:
        extra = (c.elevator, c.vertex)
    return (c.time, _KIND_RANK[c.kind], c.i, c.j) + extra


def _dominated(conflicts: list[Conflict], graph: MultiFloorGraph) -> set[VertexConflict]:
    """The door vertex conflicts that a boarding conflict of the same pair
    dominates: both agents board elevator k from floor l at the same
    instant t, so they meet at k's door on l at t."""
    return {VertexConflict(c.i, c.j, graph.door(c.elevator, c.usage_i.l_s), c.time)
            for c in conflicts
            if c.kind == "boarding" and c.usage_i.t_s == c.usage_j.t_s
            and c.usage_i.l_s == c.usage_j.l_s}


@dataclass(frozen=True)
class SolverConfig:
    ec_enabled: bool = True
    mdde_enabled: bool = True
    time_limit: float = 60.0

    def __post_init__(self) -> None:
        if not self.time_limit > 0:  # also rejects NaN; inf means no limit
            raise ValueError("time_limit must be positive")


@dataclass
class SolveStats:
    expanded: int = 0
    generated: int = 0
    runtime: float = 0.0
    solved: bool = False
    mdde_time_fraction: float = 0.0
    branchings: dict[str, int] = field(default_factory=dict)
    bypasses: int = 0
    classify_calls: int = 0  # conflicts classified on their joint MDD-E
    label_hits: int = 0  # conflict labels the solve's memo answered
    joint_pairs: int = 0  # joint MDD-E pairs the classifications expanded
    ride_cuts: int = 0  # joint roots and successor pairs dropped for want of compatible rides
    plans: int = 0  # single-agent SIPP plans run by the solve
    plan_time: float = 0.0  # seconds inside those plans
    heuristic_time: float = 0.0  # seconds building the grid index and the agents' heuristics
    plan_reuses: int = 0  # plan requests the solve's memo answered
    scans: int = 0  # rescans of a replanned agent's pairs: popped children, bypass candidates
    pair_hits: int = 0  # pair scans the solve's pair memo answered
    peak_open: int = 0  # the largest open-list size
    mdd_builds: int = 0  # MDD-Es made by the solve, built or derived
    mdd_derived: int = 0  # of those, derived from the diagram of the set's parent
    mdd_build_time: float = 0.0  # seconds making them
    mdd_shared: int = 0  # made MDD-Es that equal an earlier one of the solve
    mdd_reuses: int = 0  # MDD-E requests the solve's memo answered
    distance_fields: int = 0  # grid BFS fields the solve computed
    door_skips: int = 0  # door vertex conflicts selection passed over (`_dominated`)
    lower_bound: int | None = None  # the least open g when the time limit ends a solve

    def report(self) -> list[tuple[str, str]]:
        """Every field as (name, text), in declaration order: a field named
        `*time` holds seconds and is written `<name>_ms` in milliseconds to
        3 decimals, another float to 4 decimals, a bool 0/1, None empty, and
        `branchings` as one `branchings_<kind>` per conflict kind."""
        out = []
        for f in fields(self):
            name, value = f.name, getattr(self, f.name)
            if name == "branchings":
                out += [(f"branchings_{kind}", str(value.get(kind, 0))) for kind in _KIND_RANK]
            elif name.endswith("time"):
                out.append((name + "_ms", f"{value * 1000.0:.3f}"))
            elif isinstance(value, float):
                out.append((name, f"{value:.4f}"))
            else:
                out.append((name, "" if value is None else str(int(value))))
        return out


@dataclass
class Solution:
    paths: tuple[Path, ...]
    g: int
    stats: SolveStats


@dataclass
class SolveResult:
    status: str  # solved | timeout | infeasible
    solution: Solution | None
    stats: SolveStats


@dataclass(slots=True)
class CTNode:
    """A CT node. A child is queued unscanned: `conflicts` is then its
    parent's list, shared with its sibling, and `replanned` the agent
    whose path differs from the parent's; `_Solver._scan` gives the child
    its own."""

    paths: tuple[Path, ...]
    g: int
    omegas: tuple[ConstraintSet, ...]
    conflicts: list[Conflict]
    seq: int
    replanned: int | None = None

    @property
    def conflict_count(self) -> int:
        return len(self.conflicts)

    @property
    def count_bound(self) -> int:
        """The conflict count, or for an unscanned child a lower bound on
        it: its parent's conflicts that do not involve the replanned agent."""
        k = self.replanned
        if k is None:
            return len(self.conflicts)
        return sum(1 for c in self.conflicts if c.i != k and c.j != k)


def _with_entry(items, k: int, item) -> tuple:
    """A tuple of items with entry k replaced: a CT node holds its paths
    and constraint sets as tuples, the smallest sequence per node."""
    out = list(items)
    out[k] = item
    return tuple(out)


def enumerate_conflicts(paths: list[Path], graph: MultiFloorGraph) -> list[Conflict]:
    """Every vertex, edge, and elevator conflict of the joint plan, with
    finished agents parked at their goals, in `_conflict_key` order: the
    elevator scan and each pair's grid scan, on one timeline per agent."""
    out: list[Conflict] = list(detect_elevator_conflicts(paths, graph))
    lines = [_timeline(path) for path in paths]
    for i, j in itertools.combinations(range(len(paths)), 2):
        _pair_grid_conflicts(lines[i], paths[j], i, j, out)
    out.sort(key=_conflict_key)
    return out


def _timeline(path: Path) -> list[Vertex | None]:
    """The path's vertex at each time up to its arrival, None inside a shaft."""
    at: list[Vertex | None] = [None] * (path.cost + 1)
    for v, t in path.steps:
        at[t] = v
    return at


def _pair_grid_conflicts(at: list[Vertex | None], path: Path, i: int, j: int,
                         out: list[Conflict]) -> None:
    """Append the vertex and edge conflicts of agents i < j: i's `_timeline`
    `at`, parked at its last vertex after it, and j's path, parked at its
    end up to i's arrival when j arrives first. Once i is parked, only a
    vertex conflict is possible: a swap needs i to move."""
    last = len(at) - 1
    parked = at[last]
    steps = path.steps
    v, t = steps[0]
    if at[t] == v:
        out.append(VertexConflict(i, j, v, t))
    for (v, t), (w, tw) in itertools.pairwise(steps):
        if tw > last:
            if w == parked:
                out.append(VertexConflict(i, j, w, tw))
            continue
        u = at[tw]
        if u == w:
            out.append(VertexConflict(i, j, w, tw))
        elif u == v and at[t] == w and v.floor == w.floor:  # a swap: j moves v->w, i w->v
            out.append(EdgeConflict(i, j, w, v, t))
    end, cost = path.end, path.cost
    if end in at[cost + 1:]:
        out.extend(VertexConflict(i, j, end, t) for t in range(cost + 1, last + 1) if at[t] == end)


def validate(instance: Instance, paths: list[Path]) -> list[Conflict]:
    """Certify a joint plan: check each path's structure against the graph
    and its agent, then scan for conflicts (empty result = valid)."""
    if len(paths) != len(instance.agents):
        raise PathStructureError("one path per agent required")
    for agent, path in zip(instance.agents, paths):
        _check_structure(agent, path, instance.graph)
    return enumerate_conflicts(list(paths), instance.graph)


def _check_structure(agent, path: Path, graph: MultiFloorGraph) -> None:
    steps = path.steps
    if not steps or steps[0] != (agent.start, 0):
        raise PathStructureError(f"agent {agent.id}: path must start at the start vertex at t=0")
    if steps[-1][0] != agent.goal:
        raise PathStructureError(f"agent {agent.id}: path must end at the goal")
    rides = 0
    in_ride = False
    direction = 0  # +1 up or -1 down, the current ride's first floor change
    for (v, tv), (w, tw) in zip(steps, steps[1:]):
        if not graph.passable(v) or not graph.passable(w):
            raise PathStructureError(f"agent {agent.id}: blocked vertex on path")
        if tw <= tv:
            raise PathStructureError(f"agent {agent.id}: times must strictly increase")
        if w.floor == v.floor:
            same = v == w
            adjacent = abs(v.x - w.x) + abs(v.y - w.y) == 1
            if tw - tv != 1 or not (same or adjacent):
                raise PathStructureError(f"agent {agent.id}: illegal step {v}@{tv} -> {w}@{tw}")
            in_ride = False
        else:
            e = graph.elevator_at(v)
            if (e is None or (w.x, w.y) != (v.x, v.y) or abs(w.floor - v.floor) != 1
                    or tw - tv != e.t_floor):
                raise PathStructureError(f"agent {agent.id}: illegal floor change {v}@{tv} -> {w}@{tw}")
            if not in_ride:
                rides += 1
                in_ride = True
                direction = w.floor - v.floor
            elif w.floor - v.floor != direction:
                raise PathStructureError(f"agent {agent.id}: a ride turns round in the shaft "
                                         f"at {v}@{tv}")
    if rides > 1:
        raise PathStructureError(f"agent {agent.id}: more than one elevator ride")
    if len(steps) >= 2 and steps[-1][0] == steps[-2][0]:
        raise PathStructureError(f"agent {agent.id}: trailing wait at the goal is not stored")


class _Solver:
    def __init__(self, instance: Instance, config: SolverConfig):
        self.instance = instance
        self.graph = instance.graph
        self.agents = instance.agents
        self.config = config
        self.stats = SolveStats()
        self.seq = 0
        self.mdde_time = 0.0
        self.t0 = time.perf_counter()  # the solve's clock includes the heuristics
        self.index = GridIndex(self.graph)
        self.heuristics = [cost_to_go(agent, self.graph, self.index) for agent in self.agents]
        self.stats.heuristic_time = time.perf_counter() - self.t0
        self.rides = RideSummaries(self.graph)
        self.mdds = mdd_mod.MddECache(self.graph, self.agents, self.heuristics)
        self.steps: dict[tuple[Vertex, int], tuple[Vertex, int]] = {}
        # The solve's one path per distinct step sequence; a path belongs
        # to one agent (starts are distinct) and lives for the whole solve
        self.interned: dict[tuple, Path] = {}
        # Each interned path's serial number and `_timeline`, per id of the path
        self.lines: dict[int, tuple[int, list[Vertex | None]]] = {}
        # The conflicts between two paths, per serials of the lower agent's
        # path and the higher agent's, packed into one int (a small key)
        self.pairs: dict[int, tuple[Conflict, ...]] = {}
        self.shared_conflicts: dict[Conflict, Conflict] = {}
        # Each agent's interned path, or None, per (agent, constraint set)
        self.plans: dict[tuple[int, ConstraintSet], Path | None] = {}
        # Each conflict's label and interned bypass, or None, per (both
        # agents' MDD-Es, the conflict's `_conflict_key`)
        self.labels: dict[tuple, tuple[str, tuple[int, Path] | None]] = {}

    def run(self) -> SolveResult:
        root = self._make_root()
        if root is None:
            return self._finish("infeasible", None)
        # keyed (g, conflict count, seq); an unscanned child is keyed by a
        # lower bound on its count and scanned only when it reaches the
        # top. Keys are unique by seq, so every node expanded is the one
        # that scanning each child at once would expand next.
        heap: list[tuple[int, int, int, CTNode]] = [(root.g, root.conflict_count, root.seq, root)]
        self.stats.peak_open = 1
        while heap:
            if time.perf_counter() - self.t0 > self.config.time_limit:
                self.stats.lower_bound = heap[0][0]
                return self._finish("timeout", None)
            _, count, _, node = heapq.heappop(heap)
            if node.replanned is not None:
                self._scan(node)
                if node.conflict_count > count:
                    heapq.heappush(heap, (node.g, node.conflict_count, node.seq, node))
                    continue
            self.stats.expanded += 1
            conflict, bypass, _ = self._find_conflict(node)
            if conflict is None:
                self._certify(node)
                return self._finish("solved", node)
            if bypass is not None and self._try_bypass(node, bypass):
                heapq.heappush(heap, (node.g, node.conflict_count, node.seq, node))
                continue
            kind = conflict.kind
            self.stats.branchings[kind] = self.stats.branchings.get(kind, 0) + 1
            for child in self._branch(node, conflict):
                self.stats.generated += 1
                heapq.heappush(heap, (child.g, child.count_bound, child.seq, child))
            self.stats.peak_open = max(self.stats.peak_open, len(heap))
        return self._finish("infeasible", None)

    def _finish(self, status: str, node: CTNode | None) -> SolveResult:
        self.stats.runtime = time.perf_counter() - self.t0
        self.stats.solved = status == "solved"
        self.stats.mdd_builds = self.mdds.builds
        self.stats.mdd_derived = self.mdds.derived
        self.stats.mdd_build_time = self.mdds.build_time
        self.stats.mdd_shared = self.mdds.shared
        self.stats.mdd_reuses = self.mdds.reuses
        self.stats.distance_fields = len(self.index.fields)
        if self.stats.runtime > 0:
            self.stats.mdde_time_fraction = min(1.0, self.mdde_time / self.stats.runtime)
        solution = None
        if node is not None:
            solution = Solution(tuple(node.paths), node.g, self.stats)
        return SolveResult(status, solution, self.stats)

    def _certify(self, node: CTNode) -> None:
        """Full re-check of a goal node's plan; it backs the incremental
        conflict lists, so it must not be an assert that `-O` drops."""
        found = validate(self.instance, node.paths)
        if found:
            raise RuntimeError(f"goal node {node.seq} has {len(found)} unlisted conflicts, "
                               f"first {found[0]}")

    def _next_seq(self) -> int:
        self.seq += 1
        return self.seq

    def _plan(self, agent_id: int, omega: ConstraintSet) -> Path | None:
        """Agent's plan under omega, run once per (agent, constraint set)."""
        key = (agent_id, omega)
        path = self.plans.get(key, _UNPLANNED)
        if path is _UNPLANNED:
            t_start = time.perf_counter()
            path = plan(self.agents[agent_id], self.graph, omega, self.heuristics[agent_id])
            self.stats.plan_time += time.perf_counter() - t_start
            path = self.plans[key] = None if path is None else self._intern(path)
            self.stats.plans += 1
        else:
            self.stats.plan_reuses += 1
        return path

    def _intern(self, path: Path) -> Path:
        """The solve's one path with these steps, so that equal paths are
        one object and its `id` a memo key. A new path's every (vertex, t)
        step is shared with equal steps of earlier paths, so CT nodes hold
        little of their own."""
        found = self.interned.get(path.steps)
        if found is None:
            steps = self.steps
            found = Path(tuple([steps.setdefault(s, s) for s in path.steps]))
            self.interned[found.steps] = found
            self.lines[id(found)] = (len(self.lines), _timeline(found))
        return found

    def _pair(self, paths: tuple[Path, ...], i: int, j: int) -> tuple[Conflict, ...]:
        """The conflicts of agents i < j in `paths`, scanned once per solve
        per pair of paths and kept. A replan keeps most of a path, so pairs
        of distinct paths share conflicts; CT nodes share one object per
        distinct conflict of the solve, and empty pairs share ()."""
        mine, path = paths[i], paths[j]
        (serial, at), other = self.lines[id(mine)], self.lines[id(path)][0]
        key = serial << 32 | other
        found = self.pairs.get(key)
        if found is None:
            out = pair_elevator_conflicts(i, j, self.rides.get(i, mine), self.rides.get(j, path))
            _pair_grid_conflicts(at, path, i, j, out)
            shared = self.shared_conflicts
            found = self.pairs[key] = tuple([shared.setdefault(c, c) for c in out])
        else:
            self.stats.pair_hits += 1
        return found

    def _rescan(self, conflicts: list[Conflict], k: int, paths: tuple[Path, ...]) -> list[Conflict]:
        """Conflicts of `paths`, which differ only in agent k's path from
        the plan of `conflicts`: those conflicts without k, plus k's pairs
        with each other agent."""
        self.stats.scans += 1
        out = [c for c in conflicts if c.i != k and c.j != k]
        for j in range(len(paths)):
            if j != k:
                out += self._pair(paths, j, k) if j < k else self._pair(paths, k, j)
        out.sort(key=_conflict_key)
        return out

    def _scan(self, node: CTNode) -> None:
        """Give an unscanned child its own conflict list."""
        k = node.replanned
        if k is not None:
            node.conflicts = self._rescan(node.conflicts, k, node.paths)
            node.replanned = None

    def _make_root(self) -> CTNode | None:
        paths: list[Path] = []
        omegas: list[ConstraintSet] = []
        for agent_id in range(len(self.agents)):
            omega = ConstraintSet()
            path = self._plan(agent_id, omega)
            if path is None:
                return None
            paths.append(path)
            omegas.append(omega)
        conflicts = [c for i, j in itertools.combinations(range(len(paths)), 2)
                     for c in self._pair(paths, i, j)]
        conflicts.sort(key=_conflict_key)
        node = CTNode(tuple(paths), sum(p.cost for p in paths), tuple(omegas), conflicts,
                      self._next_seq())
        self.stats.generated += 1
        return node

    def _diagrams(self, node: CTNode, c: Conflict) -> tuple:
        """The conflict's two MDD-Es in the node, c.i's first; None for one
        over the node cap."""
        paths, omegas, get = node.paths, node.omegas, self.mdds.get
        return (get(c.i, paths[c.i].cost, omegas[c.i]), get(c.j, paths[c.j].cost, omegas[c.j]))

    def _find_conflict(self, node: CTNode):
        """(conflict, bypass, label) for the conflict to resolve next:
        earliest overall, or with MDD-E enabled the earliest cardinal, else
        semi-cardinal, else non-cardinal conflict, with its lower agent id's
        bypass, if any. With elevator constraints on, door vertex conflicts
        that a boarding conflict dominates (`_dominated`) are passed over;
        they still count in the node's conflict count. Each conflict is
        classified once per solve."""
        conflicts = node.conflicts
        if not conflicts:
            return None, None, None
        if self.config.ec_enabled:
            dominated = _dominated(conflicts, self.graph)
            if dominated:
                conflicts = [c for c in conflicts if c not in dominated]
                self.stats.door_skips += len(node.conflicts) - len(conflicts)
        if not self.config.mdde_enabled:
            return conflicts[0], None, None
        t_start = time.perf_counter()
        joint_cache: dict = {}
        best = None  # (class_rank, conflict, bypass)
        for c in conflicts:
            mdd_i, mdd_j = self._diagrams(node, c)
            key = (mdd_i, mdd_j, *_conflict_key(c))
            entry = self.labels.get(key)
            if entry is None:
                label, found = mdd_mod.classify(c, mdd_i, mdd_j, joint_cache)
                bypass = (found[0][0], self._intern(found[0][1])) if found else None
                entry = self.labels[key] = (label, bypass)
                self.stats.classify_calls += 1
            else:
                self.stats.label_hits += 1
            rank = mdd_mod.LABELS.index(entry[0])
            if best is None or rank < best[0]:
                best = (rank, c, entry[1])
            if rank == 0:
                break
        for joint in joint_cache.values():
            self.stats.joint_pairs += joint.pairs
            self.stats.ride_cuts += joint.cuts
        self.mdde_time += time.perf_counter() - t_start
        return best[1], best[2], mdd_mod.LABELS[best[0]]

    def _try_bypass(self, node: CTNode, bypass: tuple[int, Path]) -> bool:
        """Adopt the (agent id, equal-cost path) bypass when it strictly
        reduces the node's conflict count; strict decrease keeps the loop
        finite."""
        agent_id, new_path = bypass
        paths = _with_entry(node.paths, agent_id, new_path)
        conflicts = self._rescan(node.conflicts, agent_id, paths)
        if len(conflicts) >= node.conflict_count:
            return False
        node.paths = paths
        node.conflicts = conflicts
        self.stats.bypasses += 1
        return True

    def _branch(self, node: CTNode, c: Conflict) -> list[CTNode]:
        """One child per side of the conflict, with the side's ban added;
        elevator constraints widen a boarding conflict's sides."""
        sides = ec_constraints(c) if c.kind == "boarding" and self.config.ec_enabled else c.sides()
        children = []
        for agent_id, ban in sides:
            omega = node.omegas[agent_id].with_ban(ban)
            path = self._plan(agent_id, omega)
            if path is None:
                continue
            paths = _with_entry(node.paths, agent_id, path)
            children.append(CTNode(paths, node.g - node.paths[agent_id].cost + path.cost,
                                   _with_entry(node.omegas, agent_id, omega), node.conflicts,
                                   self._next_seq(), agent_id))
        return children


def solve(instance: Instance, config: SolverConfig | None = None) -> SolveResult:
    """Optimal conflict-free joint plan for the instance, or a timeout or
    infeasibility report. The returned g is minimal for the sum of costs."""
    return _Solver(instance, config or SolverConfig()).run()
