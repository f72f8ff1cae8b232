"""Elevator-aware multi-valued decision diagrams and their joint product.

An MDD-E level-t node is (vertex, t, elevator, board_time): a vertex the
agent can occupy at time t on some minimum-cost constrained path, annotated
with the ride it has taken so far (sentinels -1 before any ride). Keeping
the ride annotation in the node identity is what lets the two-agent product
prune boarding overlaps and door presences that a plain MDD cannot see.

An MDD-E depends only on (agent, cost, constraint set), so a solve builds
each one once (`MddECache`) and stores every node, level and successor
tuple once. Classification first asks each agent's own MDD-E whether every
cost-d path commits that agent's side of the conflict (`_unavoidable`, the
ICBS width-1 test widened to elevator conflicts); only the other sides are
searched in the joint product, which expands pairs on demand and stops as
soon as a search frontier dies.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .elevator import ElevatorUsage, usages_overlap
from .model import Agent, MultiFloorGraph, Vertex
from .sipp import INF, ConstraintSet, Path, _Heuristic

CARDINAL = "cardinal"
SEMI_CARDINAL = "semi-cardinal"
NON_CARDINAL = "non-cardinal"


class MddSizeExceeded(Exception):
    """Construction crossed the node cap; callers fall back to treating the
    conflict as cardinal."""


class MddENode(NamedTuple):
    vertex: Vertex
    time: int
    elevator: int    # -1 until the agent has boarded
    board_time: int  # -1 until the agent has boarded


@dataclass
class MddE:
    agent: Agent
    d: int
    levels: dict[int, tuple[MddENode, ...]]
    edges: dict[MddENode, tuple[MddENode, ...]]
    graph: MultiFloorGraph

    @property
    def empty(self) -> bool:
        return not self.levels

    @property
    def root(self) -> MddENode:
        return self.levels[0][0]


def _mid_ride(node: MddENode, agent: Agent, graph: MultiFloorGraph) -> bool:
    """True for in-shaft door visits, which have no standing moves."""
    if node.elevator == -1 or node.vertex.floor == agent.goal_floor:
        return False
    e = graph.elevator_at(node.vertex)
    return e is not None and e.id == node.elevator


def build_mdd_e(agent: Agent, d: int, constraints: ConstraintSet,
                graph: MultiFloorGraph, node_cap: int = 200_000, heuristic=None) -> MddE:
    """All cost-d paths of one agent under its constraints, as a leveled
    DAG. Forward timed reachability is intersected with backward
    completability, so every kept node sits on a root-to-goal path of cost
    exactly d (an arrival at d, not a goal wait). `heuristic` is the
    agent's `sipp.cost_to_go`, built here when not given; grid moves come
    from its index."""
    heur = heuristic if heuristic is not None else _Heuristic(agent, graph)
    moves = heur.index.moves
    goal_bans = constraints.vertex_bans.get(agent.goal, ())
    if any(hi >= d for _, hi in goal_bans):
        return MddE(agent, d, {}, {}, graph)  # parking at the goal is blocked

    root = MddENode(agent.start, 0, -1, -1)
    if constraints.vertex_banned(agent.start, 0) or heur.value(agent.start, False) > d:
        return MddE(agent, d, {}, {}, graph)
    levels: dict[int, set[MddENode]] = {0: {root}}
    edges: dict[MddENode, set[MddENode]] = {}
    count = 1
    cross = agent.start_floor != agent.goal_floor

    def add(src: MddENode, dst: MddENode) -> None:
        nonlocal count
        if dst not in levels.setdefault(dst.time, set()):
            levels[dst.time].add(dst)
            count += 1
            if count > node_cap:
                raise MddSizeExceeded(f"MDD-E for agent {agent.id} exceeded {node_cap} nodes")
        edges.setdefault(src, set()).add(dst)

    for t in range(d):
        for n in sorted(levels.get(t, ())):
            if _mid_ride(n, agent, graph):
                continue  # the forced ride chain was added at boarding time
            rode = n.elevator != -1
            table = heur.table(n.vertex.floor, rode)  # waits and moves stay on the floor
            for u in (n.vertex, *moves.get(n.vertex, ())):
                if table.get(u, INF) > d - (t + 1):
                    continue
                if constraints.vertex_banned(u, t + 1):
                    continue
                if u != n.vertex and (n.vertex, u, t) in constraints.edge_bans:
                    continue
                add(n, MddENode(u, t + 1, n.elevator, n.board_time))
            if cross and not rode:
                e = graph.elevator_at(n.vertex)
                if e is not None:
                    _add_ride(agent, graph, constraints, e, n, d, add)

    # backward completability, excluding a final wait at the goal
    ends = {n for n in levels.get(d, ()) if n.vertex == agent.goal}
    redges: dict[MddENode, list[MddENode]] = {}
    for src, dsts in edges.items():
        for dst in dsts:
            redges.setdefault(dst, []).append(src)
    good: set[MddENode] = set(ends)
    stack = list(ends)
    while stack:
        m = stack.pop()
        for n in redges.get(m, ()):
            if m.time == d and m.vertex == agent.goal and n.vertex == m.vertex:
                continue  # trailing wait: that prefix costs d-1, not d
            if n not in good:
                good.add(n)
                stack.append(n)
    if root not in good:
        return MddE(agent, d, {}, {}, graph)

    final_levels: dict[int, tuple[MddENode, ...]] = {}
    for t in range(d + 1):
        kept = sorted(n for n in levels.get(t, ()) if n in good)
        if kept:
            final_levels[t] = tuple(kept)  # gaps are in-shaft times
    final_edges: dict[MddENode, tuple[MddENode, ...]] = {}
    for src, dsts in edges.items():
        if src not in good:
            continue
        kept = tuple(sorted(
            m for m in dsts
            if m in good and not (m.time == d and m.vertex == agent.goal and src.vertex == m.vertex)
        ))
        if kept:
            final_edges[src] = kept
    return MddE(agent, d, final_levels, final_edges, graph)


def _add_ride(agent, graph, constraints, e, n: MddENode, d: int, add) -> None:
    dep = n.time
    t_o = abs(agent.goal_floor - n.vertex.floor) * e.t_floor
    if dep + t_o > d:
        return
    if constraints.boarding_banned(e.id, n.vertex.floor, dep):
        return
    step = 1 if agent.goal_floor > n.vertex.floor else -1
    chain = []
    for fl in range(n.vertex.floor + step, agent.goal_floor + step, step):
        door = Vertex(fl, e.cell[0], e.cell[1])
        t = dep + abs(fl - n.vertex.floor) * e.t_floor
        if constraints.vertex_banned(door, t):
            return
        chain.append(MddENode(door, t, e.id, dep))
    prev = n
    for m in chain:
        add(prev, m)
        prev = m


class MddECache:
    """The MDD-Es of one solve, keyed by (agent, path cost, identity of the
    agent's `ConstraintSet`). Constraint sets are never mutated (`with_*`
    returns a new one) and each entry holds its set, so an id is never
    reused while its entry lives and a hit is exact. Builds over the node
    cap are remembered as such. Every node and every level or successor
    tuple is stored once per solve, which keeps the memo small: most of a
    solve's MDD-Es share most of their nodes. `heuristics`, indexed by
    agent id, are the agents' `sipp.cost_to_go`."""

    def __init__(self, graph: MultiFloorGraph, agents, heuristics=None,
                 node_cap: int = 200_000):
        self.graph = graph
        self.agents = agents
        self.heuristics = heuristics
        self.node_cap = node_cap
        self.entries: dict[tuple[int, int, int], tuple[ConstraintSet, MddE | None]] = {}
        self.nodes: dict[MddENode, MddENode] = {}
        self.tuples: dict[tuple[MddENode, ...], tuple[MddENode, ...]] = {}
        self.builds = 0
        self.reuses = 0

    def get(self, agent_id: int, d: int, constraints: ConstraintSet) -> MddE:
        key = (agent_id, d, id(constraints))
        entry = self.entries.get(key)
        if entry is None:
            self.builds += 1
            heuristic = self.heuristics[agent_id] if self.heuristics is not None else None
            try:
                mdd = self._shared(build_mdd_e(self.agents[agent_id], d, constraints,
                                               self.graph, self.node_cap, heuristic))
            except MddSizeExceeded:
                mdd = None
            entry = self.entries[key] = (constraints, mdd)
        else:
            self.reuses += 1
        if entry[1] is None:
            raise MddSizeExceeded(f"MDD-E for agent {agent_id} exceeded {self.node_cap} nodes")
        return entry[1]

    def _shared(self, mdd: MddE) -> MddE:
        nodes, tuples = self.nodes.setdefault, self.tuples.setdefault

        def seq(ns: tuple[MddENode, ...]) -> tuple[MddENode, ...]:
            kept = tuple([nodes(n, n) for n in ns])
            return tuples(kept, kept)

        levels = {t: seq(level) for t, level in mdd.levels.items()}
        edges = {nodes(src, src): seq(dsts) for src, dsts in mdd.edges.items()}
        return MddE(mdd.agent, mdd.d, levels, edges, mdd.graph)


# ---------------------------------------------------------------------------
# joint MDD-E
# ---------------------------------------------------------------------------

def _is_shaft(comp) -> bool:
    return isinstance(comp, tuple) and not isinstance(comp, MddENode)


def _usage_of(comp) -> tuple[int, int]:
    node = comp[1] if _is_shaft(comp) else comp
    return node.elevator, node.board_time


def _vertex_of(comp) -> Vertex | None:
    return None if _is_shaft(comp) else comp.vertex


def _comp_key(comp):
    return ("zz", comp[1]) if _is_shaft(comp) else ("n", comp)


class _Trans(NamedTuple):
    """One side's unit-time transition: endpoint vertices (None while in a
    shaft) and, when this edge starts a ride, its boarding time."""

    u: Vertex | None
    w: Vertex | None
    board_ts: int


def _comp_succs(mdd: MddE, comp, t: int) -> list[tuple[object, _Trans]]:
    if _is_shaft(comp):
        target: MddENode = comp[1]
        if target.time == t + 1:
            return [(target, _Trans(None, target.vertex, -1))]
        return [(comp, _Trans(None, None, -1))]
    n: MddENode = comp
    if n.time < t or n.time == mdd.d:
        return [(n, _Trans(n.vertex, n.vertex, -1))]  # parked at the goal
    out: list[tuple[object, _Trans]] = []
    for m in mdd.edges.get(n, ()):
        if m.vertex.floor == n.vertex.floor:
            out.append((m, _Trans(n.vertex, m.vertex, -1)))
        else:
            board_ts = m.board_time if n.elevator == -1 else -1
            succ = m if m.time == t + 1 else ("shaft", m)
            out.append((succ, _Trans(n.vertex, _vertex_of(succ), board_ts)))
    return out


def _ride_span(mdd: MddE, k: int, ts: int) -> tuple[int, int]:
    e = mdd.graph.elevators[k]
    t_o = abs(mdd.agent.start_floor - mdd.agent.goal_floor) * e.t_floor
    return ts, ts + t_o


def _door_window_hit(mdd_x: MddE, comp_x, mdd_y: MddE, comp_y, t: int) -> bool:
    """Is y's component standing at a door of x's elevator inside x's busy
    window at time t? Presences inside y's own ride of the same elevator are
    the rider-vs-rider case, handled by the boarding-overlap check."""
    k_x, ts_x = _usage_of(comp_x)
    if k_x == -1:
        return False
    v_y = _vertex_of(comp_y)
    if v_y is None:
        return False
    e = mdd_x.graph.elevator_at(v_y)
    if e is None or e.id != k_x:
        return False
    k_y, ts_y = _usage_of(comp_y)
    if k_y == k_x and ts_y != -1:
        lo, hi = _ride_span(mdd_y, k_y, ts_y)
        if lo <= t <= hi:
            return False
    ts, t_g = _ride_span(mdd_x, k_x, ts_x)
    delta = abs(mdd_x.agent.goal_floor - v_y.floor) * e.t_floor
    return ts <= t <= t_g + delta


@dataclass
class JointMddE:
    """Conflict-pruned product of two agents' MDD-Es, advanced in unit time
    steps; the shorter side is parked at its goal once finished. A pair
    survives at level t exactly when some pairwise-conflict-free prefix pair
    reaches it.

    Pairs are expanded on demand: `successors` computes one pair's
    successors and keeps them, and `levels` holds the root level until
    `all_levels` expands the whole product. `pairs` counts the expanded
    pairs; past `node_cap` every search of this joint raises
    `MddSizeExceeded`."""

    mdd_a: MddE
    mdd_b: MddE
    t_end: int
    levels: dict[int, list[tuple]]
    adj: dict[tuple[int, tuple], list[tuple[tuple, _Trans, _Trans]]]
    elevator_aware: bool
    node_cap: int = 200_000
    pairs: int = 0

    def successors(self, t: int, pair: tuple) -> list[tuple[tuple, _Trans, _Trans]]:
        """Conflict-free successors of a level-t pair with both sides'
        transitions, in `itertools.product` order over `_comp_succs`."""
        key = (t, pair)
        out = self.adj.get(key)
        if out is None:
            self.pairs += 1
            self.check_cap()
            mdd_a, mdd_b = self.mdd_a, self.mdd_b
            ca, cb = pair
            out = self.adj[key] = [
                ((sa, sb), tra, trb)
                for (sa, tra), (sb, trb) in itertools.product(
                    _comp_succs(mdd_a, ca, t), _comp_succs(mdd_b, cb, t))
                if not _pair_conflicts(mdd_a, mdd_b, ca, cb, sa, sb, tra, trb, t,
                                       self.elevator_aware)]
        return out

    def check_cap(self) -> None:
        if self.pairs > self.node_cap:
            raise MddSizeExceeded(f"joint MDD-E exceeded {self.node_cap} pairs")

    def all_levels(self) -> dict[int, list[tuple]]:
        """Every level of the product, each sorted; later levels stay empty
        once one is (the joint is then incomplete)."""
        levels = self.levels
        for t in range(self.t_end):
            if t + 1 in levels or t not in levels:
                continue
            nxt = {succ: None for pair in levels[t] for succ, _, _ in self.successors(t, pair)}
            if nxt:
                levels[t + 1] = sorted(nxt, key=lambda p: (_comp_key(p[0]), _comp_key(p[1])))
        return levels

    @property
    def complete(self) -> bool:
        return bool(self.all_levels().get(self.t_end))

    def vertex_pairs(self, t: int) -> set[tuple[Vertex | None, Vertex | None]]:
        return {(_vertex_of(a), _vertex_of(b)) for a, b in self.all_levels().get(t, ())}


def build_joint(mdd_a: MddE, mdd_b: MddE, elevator_aware: bool = True,
                node_cap: int = 200_000) -> JointMddE:
    """The joint MDD-E of two agents with only its root level in place;
    pairs are expanded as searches reach them."""
    t_end = max(mdd_a.d, mdd_b.d)
    levels: dict[int, list[tuple]] = {}
    if not (mdd_a.empty or mdd_b.empty or mdd_a.root.vertex == mdd_b.root.vertex):
        levels[0] = [(mdd_a.root, mdd_b.root)]
    return JointMddE(mdd_a, mdd_b, t_end, levels, {}, elevator_aware, node_cap)


def _pair_conflicts(mdd_a, mdd_b, ca, cb, sa, sb, tra: _Trans, trb: _Trans,
                    t: int, elevator_aware: bool) -> bool:
    va, vb = _vertex_of(sa), _vertex_of(sb)
    if va is not None and va == vb:
        return True  # vertex conflict at t+1
    if (tra.u is not None and tra.w is not None and trb.u is not None and trb.w is not None
            and tra.u == trb.w and tra.w == trb.u and tra.u != tra.w):
        return True  # swap
    if not elevator_aware:
        return False
    k_a, ts_a = _usage_of(sa)
    k_b, ts_b = _usage_of(sb)
    if k_a != -1 and k_a == k_b:
        e = mdd_a.graph.elevators[k_a]
        u_a = ElevatorUsage(0, k_a, ts_a, mdd_a.agent.start_floor, mdd_a.agent.goal_floor, e.t_floor)
        u_b = ElevatorUsage(1, k_b, ts_b, mdd_b.agent.start_floor, mdd_b.agent.goal_floor, e.t_floor)
        if usages_overlap(u_a, u_b):
            return True
    if _door_window_hit(mdd_a, sa, mdd_b, sb, t + 1) or _door_window_hit(mdd_b, sb, mdd_a, sa, t + 1):
        return True
    # the instant a ride starts, the other agent must not stand at any door
    # of that elevator (the window opens at the boarding time itself)
    if tra.board_ts != -1 and _door_window_hit(mdd_a, sa, mdd_b, cb, t):
        return True
    if trb.board_ts != -1 and _door_window_hit(mdd_b, sb, mdd_a, ca, t):
        return True
    return False


# ---------------------------------------------------------------------------
# conflict classification and bypass extraction
# ---------------------------------------------------------------------------

def _violates_node(conflict, agent_id: int, mdd: MddE, comp, t: int) -> bool:
    """Does this component commit agent_id's side of the conflict?"""
    kind = conflict.kind
    if kind == "vertex":
        return t == conflict.t and _vertex_of(comp) == conflict.v
    if kind == "boarding":
        want_ts = conflict.usage_i.t_s if agent_id == conflict.i else conflict.usage_j.t_s
        k, ts = _usage_of(comp)
        return k == conflict.elevator and ts == want_ts
    if kind == "occupancy":
        if agent_id == conflict.i:  # rider side: any boarding whose window covers the presence
            k, ts = _usage_of(comp)
            if k != conflict.elevator or ts == -1:
                return False
            u = conflict.usage_i
            delta = abs(u.l_g - conflict.vertex.floor) * u.t_floor
            return ts <= conflict.time <= ts + u.t_o + delta
        return t == conflict.time and _vertex_of(comp) == conflict.vertex
    return False


def _violates_edge(conflict, agent_id: int, tra: _Trans, t: int) -> bool:
    if conflict.kind != "edge" or t != conflict.t:
        return False
    if agent_id == conflict.i:
        return tra.u == conflict.u and tra.w == conflict.w
    return tra.u == conflict.w and tra.w == conflict.u


def _always_at(mdd: MddE, v: Vertex, t: int) -> bool:
    """Is every path of the MDD-E on v at time t? Finished agents park at
    their goal; a path inside a shaft at t has no level-t node, so a ride
    edge spanning t is a way around v."""
    if t >= mdd.d:
        return v == mdd.agent.goal
    level = mdd.levels.get(t)
    if not level or any(n.vertex != v for n in level):
        return False
    longest = max((e.t_floor for e in mdd.graph.elevators), default=1)
    return not any(m.time > t
                   for s in range(max(0, t - longest + 1), t)
                   for n in mdd.levels.get(s, ())
                   for m in mdd.edges.get(n, ()))


def _unavoidable(mdd: MddE, conflict, agent_id: int) -> bool:
    """Does every cost-d path of the agent's own MDD-E commit its side of
    the conflict? Then no joint path avoids it either, and the joint search
    for this side can be skipped. Vacuously true for an empty MDD-E."""
    if mdd.empty:
        return True
    kind = conflict.kind
    if kind == "vertex":
        return _always_at(mdd, conflict.v, conflict.t)
    if kind == "edge":
        u, w = (conflict.u, conflict.w) if agent_id == conflict.i else (conflict.w, conflict.u)
        return _always_at(mdd, u, conflict.t) and _always_at(mdd, w, conflict.t + 1)
    if kind == "occupancy" and agent_id == conflict.j:
        return _always_at(mdd, conflict.vertex, conflict.time)
    # a boarding side, or the rider of an occupancy conflict, depends only on
    # the ride, which every node after boarding carries up to the goal level
    return all(_violates_node(conflict, agent_id, mdd, n, mdd.d) for n in mdd.levels[mdd.d])


def _bypass_comps(joint: JointMddE, conflict, agent_id: int) -> list | None:
    """The agent's components along a complete conflict-free pair path that
    avoids its own participation in the conflict, or None. The breadth-first
    search expands joint pairs only as it reaches them and stops at the
    first empty frontier."""
    side = 0 if joint.mdd_a.agent.id == agent_id else 1
    mdd = joint.mdd_a if side == 0 else joint.mdd_b
    if not joint.levels or _unavoidable(mdd, conflict, agent_id):
        return None
    joint.check_cap()
    root = joint.levels[0][0]
    if _violates_node(conflict, agent_id, mdd, root[side], 0):
        return None
    parent: dict[tuple[int, tuple], tuple] = {(0, root): None}
    frontier = [root]
    for t in range(joint.t_end):
        nxt = []
        for pair in frontier:
            for succ, tra, trb in joint.successors(t, pair):
                key = (t + 1, succ)
                if key in parent:
                    continue
                tr = tra if side == 0 else trb
                if _violates_edge(conflict, agent_id, tr, t):
                    continue
                if _violates_node(conflict, agent_id, mdd, succ[side], t + 1):
                    continue
                parent[key] = (t, pair)
                nxt.append(succ)
        if not nxt:
            return None
        frontier = nxt
    end = frontier[0]
    comps = [end[side]]
    key = (joint.t_end, end)
    while parent[key] is not None:
        key = parent[key]
        comps.append(key[1][side])
    comps.reverse()
    return comps


def _comps_to_path(comps: list, mdd: MddE) -> Path:
    steps = []
    for t, comp in enumerate(comps):
        if t > mdd.d:
            break
        if not _is_shaft(comp) and comp.time == t:
            steps.append((comp.vertex, t))
    return Path(tuple(steps))


def classify(node, c, graph: MultiFloorGraph, agents: tuple[Agent, ...],
             node_cap: int = 200_000, joint_cache: dict | None = None,
             mdds: MddECache | None = None) -> tuple[str, JointMddE | None]:
    """Cardinality of a conflict in a CT node: cardinal when neither agent
    has an equal-cost path avoiding its side of the conflict inside the
    joint MDD-E, semi-cardinal when exactly one has, non-cardinal when both
    have. A side that every path of the agent's own MDD-E commits has no
    such path, so when both sides are, the conflict is cardinal without a
    joint search. Oversized diagrams fall back to cardinal, the safe
    choice, with no joint. `mdds` is the solve's MDD-E memo; without one
    the two MDD-Es are built afresh."""
    i, j = c.i, c.j
    key = (min(i, j), max(i, j))
    joint = joint_cache.get(key) if joint_cache is not None else None
    try:
        if joint is None:
            if mdds is None:
                mdds = MddECache(graph, agents, node_cap=node_cap)
            mdd_i = mdds.get(i, node.paths[i].cost, node.omegas[i])
            mdd_j = mdds.get(j, node.paths[j].cost, node.omegas[j])
            joint = build_joint(mdd_i, mdd_j, elevator_aware=True, node_cap=node_cap)
            if joint_cache is not None:
                joint_cache[key] = joint
        has_i = _bypass_comps(joint, c, i) is not None
        has_j = _bypass_comps(joint, c, j) is not None
    except MddSizeExceeded:
        return CARDINAL, None
    if has_i and has_j:
        return NON_CARDINAL, joint
    if has_i or has_j:
        return SEMI_CARDINAL, joint
    return CARDINAL, joint


def find_bypass(node, c, graph: MultiFloorGraph, agents: tuple[Agent, ...],
                joint: JointMddE | None = None, node_cap: int = 200_000,
                mdds: MddECache | None = None) -> tuple[int, Path] | None:
    """An equal-cost replacement path for one of the conflicting agents
    that satisfies its constraints and avoids the conflict, extracted from
    the joint MDD-E; None when neither agent has one or the joint grows
    past its cap."""
    if joint is None:
        label, joint = classify(node, c, graph, agents, node_cap, mdds=mdds)
        if joint is None:
            return None
    for agent_id in sorted((c.i, c.j)):
        try:
            comps = _bypass_comps(joint, c, agent_id)
        except MddSizeExceeded:
            return None
        if comps is not None:
            mdd = joint.mdd_a if joint.mdd_a.agent.id == agent_id else joint.mdd_b
            return agent_id, _comps_to_path(comps, mdd)
    return None
