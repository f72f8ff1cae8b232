"""High-level constraint-tree search with elevator-aware branching.

Best-first search over CT nodes ordered by (sum of costs, conflict count,
creation order). Elevator boarding conflicts branch on the paired busy
intervals when elevator constraints are enabled, which resolves each such
conflict in one split; door-occupancy conflicts branch on (occupier off the
door) versus (rider defers boardings whose window covers the presence).

Work that cannot change between CT nodes is done once per solve: the grid
index (`sipp.GridIndex`: neighbour tuples and BFS distance fields, each
field computed once for every agent that needs it) is built when the
solver is, each agent's unconstrained heuristic is built once from it and
shared by every replan and MDD-E of that agent, each MDD-E is built once
per (agent, cost, constraint set) and kept for the rest of the solve
(`mdd.MddECache`), and each path's rides and door presences are extracted
once (`elevator.RideSummaries`). A child replans one agent, so it keeps
its parent's conflicts that do not involve that agent and rescans only
that agent against the others.
Invariant: every CT node's conflict list equals `enumerate_conflicts` over
its paths, in `_conflict_key` order, which is a total order on a plan's
conflicts. `validate` keeps the full scan and certifies every returned
plan.
"""
from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field

from . import mdd as mdd_mod
from .elevator import (ElevatorConflict, RideSummaries, detect_elevator_conflicts, ec_constraints,
                       occupancy_constraints)
from .model import Instance, MultiFloorGraph, Vertex
from .sipp import ConstraintSet, GridIndex, Path, cost_to_go, plan

_KIND_RANK = {"vertex": 0, "edge": 1, "boarding": 2, "occupancy": 3}


class PathStructureError(ValueError):
    """A plan is malformed (disconnected steps, bad timing, double ride)."""


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


@dataclass(frozen=True)
class SolverConfig:
    ec_enabled: bool = True
    mdde_enabled: bool = True
    time_limit: float = 60.0
    mdd_node_cap: int = 200_000

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
    mdd_builds: int = 0  # MDD-Es built by the solve
    mdd_reuses: int = 0  # MDD-E requests the solve's memo answered
    distance_fields: int = 0  # grid BFS fields the solve computed


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
    paths: list[Path]
    g: int
    omegas: list[ConstraintSet]
    conflicts: list[Conflict]
    seq: int

    @property
    def conflict_count(self) -> int:
        return len(self.conflicts)


def _timeline(path: Path, horizon: int) -> list[Vertex | None]:
    """Vertex occupied at each time 0..horizon: None while inside a shaft,
    the goal once the path has ended (finished agents park there)."""
    where: list[Vertex | None] = [None] * (horizon + 1)
    for v, t in path.steps:
        where[t] = v
    where[path.cost:] = [path.end] * (horizon + 1 - path.cost)
    return where


def enumerate_conflicts(paths: list[Path], graph: MultiFloorGraph, agent: int | None = None,
                        rides: RideSummaries | None = None) -> list[Conflict]:
    """Every vertex, edge, and elevator conflict of the joint plan, with
    finished agents parked at their goals, in `_conflict_key` order. With
    `agent` given, only the conflicts that involve that agent. `rides` is
    the solve's memo of each path's rides and door presences."""
    out: list[Conflict] = list(detect_elevator_conflicts(paths, graph, agent, rides))
    if len(paths) >= 2:
        horizon = max(p.cost for p in paths)
        where = [_timeline(p, horizon) for p in paths]
        if agent is None:
            pairs = itertools.combinations(range(len(paths)), 2)
        else:
            pairs = ((min(agent, j), max(agent, j)) for j in range(len(paths)) if j != agent)
        for i, j in pairs:
            at_i, at_j = where[i], where[j]
            for t in range(horizon + 1):
                vi, vj = at_i[t], at_j[t]
                if vi == vj and vi is not None:
                    out.append(VertexConflict(i, j, vi, t))
                elif t < horizon:
                    wi, wj = at_i[t + 1], at_j[t + 1]
                    if (vi == wj and wi == vj and vi is not None and wi is not None
                            and vi != wi and vi.floor == wi.floor):
                        out.append(EdgeConflict(i, j, vi, wi, t))
    out.sort(key=_conflict_key)
    return out


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
        self.rides = RideSummaries(self.graph)
        self.mdds = mdd_mod.MddECache(self.graph, self.agents, self.heuristics,
                                      config.mdd_node_cap)
        self.steps: dict[tuple[Vertex, int], tuple[Vertex, int]] = {}

    def run(self) -> SolveResult:
        root = self._make_root()
        if root is None:
            return self._finish("infeasible", None)
        heap: list[tuple[int, int, int, CTNode]] = []
        heapq.heappush(heap, (root.g, root.conflict_count, root.seq, root))
        while heap:
            if time.perf_counter() - self.t0 > self.config.time_limit:
                return self._finish("timeout", None)
            _, _, _, node = heapq.heappop(heap)
            self.stats.expanded += 1
            conflict, joint, cardinality = self._find_conflict(node)
            if conflict is None:
                self._certify(node)
                return self._finish("solved", node)
            if self.config.mdde_enabled and cardinality != mdd_mod.CARDINAL:
                if self._try_bypass(node, conflict, joint):
                    heapq.heappush(heap, (node.g, node.conflict_count, node.seq, node))
                    continue
            kind = conflict.kind
            self.stats.branchings[kind] = self.stats.branchings.get(kind, 0) + 1
            for child in self._branch(node, conflict):
                self.stats.generated += 1
                heapq.heappush(heap, (child.g, child.conflict_count, child.seq, child))
        return self._finish("infeasible", None)

    def _finish(self, status: str, node: CTNode | None) -> SolveResult:
        self.stats.runtime = time.perf_counter() - self.t0
        self.stats.solved = status == "solved"
        self.stats.mdd_builds = self.mdds.builds
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
        path = plan(self.agents[agent_id], self.graph, omega, self.heuristics[agent_id])
        return None if path is None else self._intern(path)

    def _intern(self, path: Path) -> Path:
        """The path with every (vertex, t) step shared with equal steps of
        earlier paths of this solve, so CT nodes hold little of their own."""
        steps = self.steps
        return Path(tuple([steps.setdefault(s, s) for s in path.steps]))

    def _rescan(self, node: CTNode, agent_id: int, paths: list[Path]) -> list[Conflict]:
        """Conflicts of `paths`, which differ from node's only in agent_id's
        path: the node's conflicts without that agent, plus a rescan of it."""
        conflicts = [c for c in node.conflicts if c.i != agent_id and c.j != agent_id]
        conflicts += enumerate_conflicts(paths, self.graph, agent_id, self.rides)
        conflicts.sort(key=_conflict_key)
        return conflicts

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
        conflicts = enumerate_conflicts(paths, self.graph, rides=self.rides)
        node = CTNode(paths, sum(p.cost for p in paths), omegas, conflicts, self._next_seq())
        self.stats.generated += 1
        return node

    def _find_conflict(self, node: CTNode):
        """The conflict to resolve next: earliest overall, or with MDD-E
        enabled the earliest cardinal, else semi-cardinal, else
        non-cardinal conflict."""
        if not node.conflicts:
            return None, None, None
        if not self.config.mdde_enabled:
            return node.conflicts[0], None, None
        t_start = time.perf_counter()
        joint_cache: dict = {}
        best = None  # (class_rank, conflict, joint)
        ranks = {mdd_mod.CARDINAL: 0, mdd_mod.SEMI_CARDINAL: 1, mdd_mod.NON_CARDINAL: 2}
        for c in node.conflicts:
            label, joint = mdd_mod.classify(node, c, self.graph, self.agents,
                                            self.config.mdd_node_cap, joint_cache,
                                            self.mdds)
            rank = ranks[label]
            if best is None or rank < best[0]:
                best = (rank, c, joint)
            if rank == 0:
                break
        self.mdde_time += time.perf_counter() - t_start
        labels = [mdd_mod.CARDINAL, mdd_mod.SEMI_CARDINAL, mdd_mod.NON_CARDINAL]
        return best[1], best[2], labels[best[0]]

    def _try_bypass(self, node: CTNode, conflict, joint) -> bool:
        """Adopt an equal-cost replacement path when it strictly reduces the
        node's conflict count; strict decrease keeps the loop finite."""
        t_start = time.perf_counter()
        found = mdd_mod.find_bypass(node, conflict, self.graph, self.agents,
                                    joint, self.config.mdd_node_cap, self.mdds)
        self.mdde_time += time.perf_counter() - t_start
        if found is None:
            return False
        agent_id, new_path = found
        candidate = list(node.paths)
        candidate[agent_id] = self._intern(new_path)
        conflicts = self._rescan(node, agent_id, candidate)
        if len(conflicts) >= node.conflict_count:
            return False
        node.paths = candidate
        node.conflicts = conflicts
        self.stats.bypasses += 1
        return True

    def _branch(self, node: CTNode, c: Conflict) -> list[CTNode]:
        splits: list[tuple[int, ConstraintSet]] = []
        if c.kind == "vertex":
            splits = [(c.i, node.omegas[c.i].with_vertex_ban(c.v, c.t, c.t)),
                      (c.j, node.omegas[c.j].with_vertex_ban(c.v, c.t, c.t))]
        elif c.kind == "edge":
            splits = [(c.i, node.omegas[c.i].with_edge_ban(c.u, c.w, c.t)),
                      (c.j, node.omegas[c.j].with_edge_ban(c.w, c.u, c.t))]
        elif c.kind == "boarding":
            if self.config.ec_enabled:
                (ki, fi, iv_i), (kj, fj, iv_j) = ec_constraints(c)
                splits = [(c.i, node.omegas[c.i].with_boarding_ban(ki, fi, *iv_i)),
                          (c.j, node.omegas[c.j].with_boarding_ban(kj, fj, *iv_j))]
            else:
                u_i, u_j = c.usage_i, c.usage_j
                splits = [(c.i, node.omegas[c.i].with_boarding_ban(c.elevator, u_i.l_s, u_i.t_s, u_i.t_s)),
                          (c.j, node.omegas[c.j].with_boarding_ban(c.elevator, u_j.l_s, u_j.t_s, u_j.t_s))]
        else:  # occupancy
            (occ_agent, v, t), (rider, k, floor, iv) = occupancy_constraints(c)
            splits = [(occ_agent, node.omegas[occ_agent].with_vertex_ban(v, t, t)),
                      (rider, node.omegas[rider].with_boarding_ban(k, floor, *iv))]

        children = []
        for agent_id, omega in splits:
            path = self._plan(agent_id, omega)
            if path is None:
                continue
            paths = list(node.paths)
            paths[agent_id] = path
            omegas = list(node.omegas)
            omegas[agent_id] = omega
            children.append(CTNode(paths, sum(p.cost for p in paths), omegas,
                                   self._rescan(node, agent_id, paths), self._next_seq()))
        return children


def solve(instance: Instance, config: SolverConfig | None = None) -> SolveResult:
    """Optimal conflict-free joint plan for the instance, or a timeout or
    infeasibility report. The returned g is minimal for the sum of costs."""
    return _Solver(instance, config or SolverConfig()).run()
