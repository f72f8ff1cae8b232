"""Elevator-aware multi-valued decision diagrams and their joint product.

An MDD-E level-t node is (vertex, t, elevator, board_time): a vertex the
agent can occupy at time t on some minimum-cost constrained path, annotated
with the ride it has taken so far (sentinels -1 before any ride). Keeping
the ride annotation in the node identity is what lets the two-agent product
prune boarding overlaps and door presences that a plain MDD cannot see.

An MDD-E depends only on (agent, cost, constraint set), so a solve makes
each one once (`MddECache`) and stores every node, level and successor
tuple once; a build makes each node once and interns it as it is made.
A CT child that replans an agent at the same cost adds one ban to the
parent's set, and its diagram is the parent's pruned of the nodes and
edges that break the ban (`_derive`), the incremental MDD update of ICBS
(Boyarski et al., IJCAI 2015). Many constraint sets give equal diagrams;
those return the first such diagram, so within a solve a diagram is one
object, and an `MddE` (hashed by identity) is its own memo key.
`classify` takes a conflict and its two diagrams. Each agent's side of
the conflict is the `ConstraintSet` ban of its CT child in a plain split
(`c.sides()`), so the classifier tests bans and never a conflict's kind:
any conflict with `sides()` is classified by this code. It first asks each agent's own
MDD-E whether every cost-d path breaks that agent's ban (`_unavoidable`,
the ICBS width-1 test widened to elevator conflicts); only the other
sides are searched in the joint product, which expands pairs on demand,
each side's transitions from a component computed once per joint and the
pair tests run inline. The search is depth-first and stops at the first
complete pair path in successor order, the path a breadth-first search
would return, having expanded only the pairs it walked through. A search
that reaches the last level is that agent's bypass, so `classify` returns
the label and the bypasses of one search together.

When both agents change floor, the product also drops each pair that has
no ride-compatible pair of completions: a side not yet boarded, and
every ride still open to one side (`MddE.ride_masks`) overlapping every
ride still open to the other on one elevator. Every completion of such a
pair ends with both sides boarded on overlapping rides, which the pair
test rejects, so the cut leaves every complete path, and so every label
and bypass, as it was; it spares the searches the pairs of two agents
still walking toward one elevator.

A joint component is a plain `MddENode`, read together with the level t it
sits at: node.time == t stands on node.vertex, node.time < t is parked at
the goal, and node.time > t is inside a shaft riding toward the node
(`_vertex_at`). The joint's elevator tests come from
`elevator.usages_overlap` and `door_in_window`, applied to the node's
ride (`MddE.ride`).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

from .elevator import ElevatorUsage, door_in_window, usages_overlap
from .model import Agent, MultiFloorGraph, Vertex
from .sipp import INF, ConstraintSet, Path, _Heuristic, interval_contains

CARDINAL = "cardinal"
SEMI_CARDINAL = "semi-cardinal"
NON_CARDINAL = "non-cardinal"
LABELS = (CARDINAL, SEMI_CARDINAL, NON_CARDINAL)  # indexed by the bypasses found

# Most nodes one MDD-E, or pairs one joint MDD-E, may hold; read at call time.
NODE_CAP = 200_000

_UNBUILT = object()  # an `MddECache` key not built yet (None is a build over the cap)


class MddSizeExceeded(Exception):
    """Construction crossed the node cap; the conflict is then treated as
    cardinal."""


class MddENode(NamedTuple):
    vertex: Vertex
    time: int
    elevator: int    # -1 until the agent has boarded
    board_time: int  # -1 until the agent has boarded


@dataclass(eq=False)
class MddE:
    agent: Agent
    d: int
    levels: dict[int, tuple[MddENode, ...]]
    edges: dict[MddENode, tuple[MddENode, ...]]
    graph: MultiFloorGraph
    rides: dict[tuple[int, int], ElevatorUsage] = field(default_factory=dict, repr=False)
    masks: dict[MddENode, int] | None = field(default=None, repr=False)

    @property
    def empty(self) -> bool:
        return not self.levels

    @property
    def root(self) -> MddENode:
        return self.levels[0][0]

    def ride(self, node: MddENode) -> ElevatorUsage:
        """The ride a boarded node carries, from the agent's start floor to
        its goal floor."""
        key = (node.elevator, node.board_time)
        u = self.rides.get(key)
        if u is None:
            a = self.agent
            u = self.rides[key] = ElevatorUsage(
                a.id, node.elevator, node.board_time, a.start_floor, a.goal_floor,
                self.graph.elevators[node.elevator].t_floor)
        return u

    def ride_masks(self) -> dict[MddENode, int]:
        """Per node, a bit mask of the rides the agent can still take on its
        cost-d paths from there, for an agent that changes floor: bit i is
        the ride of the i-th goal node (`levels[d]` holds one per ride), a
        boarded node's mask is its own ride and an unboarded node's the OR
        of its successors'. One backward sweep of `levels`, made the first
        time a joint's ride cut asks and kept with the diagram."""
        if self.masks is None:
            bits = {(n.elevator, n.board_time): 1 << i for i, n in enumerate(self.levels[self.d])}
            masks: dict[MddENode, int] = {}
            edges = self.edges
            for level in reversed(self.levels.values()):
                for n in level:
                    if n.elevator == -1:
                        m = 0
                        for s in edges[n]:
                            m |= masks[s]
                        masks[n] = m
                    else:
                        masks[n] = bits[n.elevator, n.board_time]
            self.masks = masks
        return self.masks


def build_mdd_e(agent: Agent, d: int, constraints: ConstraintSet,
                graph: MultiFloorGraph, heuristic=None, nodes=None) -> MddE:
    """All cost-d paths of one agent under its constraints, as a leveled
    DAG. Forward timed reachability is intersected with backward
    completability, so every kept node sits on a root-to-goal path of cost
    exactly d (an arrival at d, not a goal wait). `heuristic` is the
    agent's `sipp.cost_to_go`, built here when not given: the diagram reads
    the same tables of grid moves and rides as `sipp.plan`, and keeps a
    ride when `ConstraintSet.ride_block` clears its departure. `nodes`
    interns each node as it is made (`MddECache.nodes`)."""
    heur = heuristic if heuristic is not None else _Heuristic(agent, graph)
    vertex_bans, edge_bans = constraints.vertex_bans, constraints.edge_bans
    start, goal = agent.start, agent.goal
    if (any(hi >= d for _, hi in vertex_bans.get(goal, ()))  # parking at the goal is blocked
            or constraints.vertex_banned(start, 0) or heur.value(start) > d):
        return MddE(agent, d, {}, {}, graph)
    intern = (nodes if nodes is not None else {}).setdefault
    root = MddENode(start, 0, -1, -1)
    root = intern(root, root)
    # per level, the nodes of each ride state (elevator, board_time) by
    # vertex, so each node is made once; in-shaft door visits are left out,
    # since their one successor is set when the ride is
    states: list[dict] = [{(-1, -1): {start: root}}] + [{} for _ in range(d)]
    outs: list[list] = [[] for _ in range(d)]  # per level below d: (node, successor list)
    count = 1
    goal_floor = agent.goal_floor
    succ, rides = heur.succ, heur.rides
    unboarded = heur.table(agent.start_floor)
    for t in range(d):
        slack = d - (t + 1)  # the most cost-to-go a level-(t+1) node may have
        nxt_states = states[t + 1]
        for state, group in states[t].items():
            elevator, board = state
            table = unboarded if elevator == -1 else heur.post
            nxt = nxt_states.setdefault(state, {})
            for v, n in group.items():
                out = []
                for u, h_u in ((v, table.get(v, INF)), *succ[v]):  # the wait, then the moves
                    if h_u > slack:
                        continue
                    bans = vertex_bans.get(u)
                    if bans and interval_contains(bans, t + 1):
                        continue
                    if edge_bans and u != v and (v, u, t) in edge_bans:
                        continue
                    m = nxt.get(u)
                    if m is None:
                        m = MddENode(u, t + 1, elevator, board)
                        m = nxt[u] = intern(m, m)
                        count += 1
                    out.append(m)
                if elevator == -1 and (ride := rides.get(v)):
                    e_id, visits, _ = ride
                    if (t + visits[-1][1] <= d
                            and constraints.ride_block(e_id, v.floor, visits, t) is None):
                        chain = out
                        for door, offset in visits:
                            m = MddENode(door, t + offset, e_id, t)
                            m = intern(m, m)
                            chain.append(m)
                            if door.floor == goal_floor:
                                states[t + offset][(e_id, t)] = {door: m}
                            else:  # inside the shaft: its one successor is the next door
                                chain = []
                                outs[t + offset].append((m, chain))
                        count += len(visits)
                if out:
                    outs[t].append((n, out))
        if count > NODE_CAP:
            raise MddSizeExceeded(f"MDD-E for agent {agent.id} exceeded {NODE_CAP} nodes")

    ends = [m for group in states[d].values() if (m := group.get(goal)) is not None]
    return _completable(agent, d, graph, root, ends, outs)


def _completable(agent: Agent, d: int, graph: MultiFloorGraph, root: MddENode,
                 ends: list[MddENode], outs: list[list]) -> MddE:
    """The diagram of the forward-reached nodes that complete a cost-d
    path: `ends` are the level-d goal nodes and `outs[t]` the level-t nodes
    with their successor lists. Backward one level at a time from the last
    (every edge goes forward in time), excluding a final wait at the goal;
    survivors are marked by identity, and levels and successors sorted."""
    goal = agent.goal
    ends.sort()
    good = set(map(id, ends))
    kept_levels = [(d, tuple(ends))] if ends else []
    edges: dict[MddENode, tuple[MddENode, ...]] = {}
    for t in range(d - 1, -1, -1):
        level = []
        for n, out in outs[t]:
            kept = [m for m in out if id(m) in good]
            if t == d - 1 and n.vertex == goal:
                kept = [m for m in kept if m.vertex != goal]  # that prefix costs d-1, not d
            if kept:
                if len(kept) > 1:
                    kept.sort()
                edges[n] = tuple(kept)
                level.append(n)
        if level:
            good.update(map(id, level))
            if len(level) > 1:
                level.sort()
            kept_levels.append((t, tuple(level)))  # gaps are in-shaft times
    if id(root) not in good:
        return MddE(agent, d, {}, {}, graph)
    return MddE(agent, d, dict(reversed(kept_levels)), edges, graph)


def _derive(parent: MddE, ban: tuple) -> MddE:
    """The diagram of the parent's constraint set plus one ban, at the
    parent's cost: the parent's nodes and edges that keep the ban
    (`_breaks`), pruned to root-to-goal paths. It equals a build under the
    child set, since those are the parent's paths that keep the ban."""
    agent, d, levels = parent.agent, parent.d, parent.levels
    # a goal ban from d on blocks parking, the one rule of a build no node shows
    if (parent.empty or (ban[0] == "vertex" and ban[1] == agent.goal and ban[3] >= d)
            or _breaks(ban, parent, parent.root, None, 0)):
        return MddE(agent, d, {}, {}, parent.graph)
    reached = {id(parent.root)}
    outs: list[list] = [[] for _ in range(d)]
    for t, level in levels.items():
        for n in level if t < d else ():
            if id(n) in reached:
                v = n.vertex  # a ride edge's floor change is no grid move an edge ban names
                kept = [m for m in parent.edges[n] if not _breaks(ban, parent, m, v, m.time)]
                reached.update(map(id, kept))
                outs[t].append((n, kept))
    ends = [m for m in levels[d] if id(m) in reached]
    return _completable(agent, d, parent.graph, parent.root, ends, outs)


class MddECache:
    """The MDD-Es of one solve, keyed by (agent, path cost, the agent's
    `ConstraintSet`), which hashes by identity and is never mutated
    (`with_ban` returns a new one), so a hit is exact. Each key is made
    once: derived from the diagram of its set's parent at the same cost
    when the cache holds one (`_derive`), else built; `builds` counts both
    and `derived` the first. Builds over the node cap are remembered as
    None. Every node is stored once per solve, interned as a build makes
    it, and so is every level or successor tuple, which keeps the memo
    small: most of a solve's MDD-Es share most of their nodes. A diagram
    equal to an earlier one (same agent, cost, levels and successors)
    returns that earlier object, so equal diagrams are one object, which
    names the diagram for the rest of the solve; `shared` counts those.
    `build_time` is the seconds spent making diagrams. `heuristics`,
    indexed by agent id, are the agents' `sipp.cost_to_go`."""

    def __init__(self, graph: MultiFloorGraph, agents, heuristics=None):
        self.graph = graph
        self.agents = agents
        self.heuristics = heuristics
        self.entries: dict[tuple[int, int, ConstraintSet], MddE | None] = {}
        self.nodes: dict[MddENode, MddENode] = {}
        self.tuples: dict[tuple[MddENode, ...], tuple[MddENode, ...]] = {}
        # the distinct diagrams, by a hash of (agent, cost, level tuple ids)
        self.diagrams: dict[int, list[MddE]] = {}
        self.builds = 0
        self.derived = 0
        self.reuses = 0
        self.shared = 0
        self.build_time = 0.0

    def get(self, agent_id: int, d: int, constraints: ConstraintSet) -> MddE | None:
        """The agent's cost-d MDD-E under the constraints, or None when it
        is over the node cap."""
        key = (agent_id, d, constraints)
        mdd = self.entries.get(key, _UNBUILT)
        if mdd is not _UNBUILT:
            self.reuses += 1
            return mdd
        t_start = time.perf_counter()
        self.builds += 1
        parent = self.entries.get((agent_id, d, constraints.parent))
        if parent is not None:
            self.derived += 1
            mdd = self._shared(_derive(parent, constraints.ban))
        else:
            heuristic = self.heuristics[agent_id] if self.heuristics is not None else None
            try:
                mdd = self._shared(build_mdd_e(self.agents[agent_id], d, constraints,
                                               self.graph, heuristic, self.nodes))
            except MddSizeExceeded:
                mdd = None
        self.entries[key] = mdd
        self.build_time += time.perf_counter() - t_start
        return mdd

    def _shared(self, mdd: MddE) -> MddE:
        """The diagram with its level and successor tuples interned, or the
        earlier diagram it equals. Equal level sets are one interned tuple,
        so the hash reads tuple identities and a hit compares successor
        tuples by identity."""
        tuples = self.tuples.setdefault
        levels = {t: tuples(level, level) for t, level in mdd.levels.items()}
        edges = {src: tuples(dsts, dsts) for src, dsts in mdd.edges.items()}
        agent, d = mdd.agent, mdd.d
        same = self.diagrams.setdefault(hash((agent.id, d, *map(id, levels.values()))), [])
        for earlier in same:
            # dict == tests values by identity first, and equal tuples are one object
            if earlier.agent is agent and earlier.d == d and earlier.levels == levels \
                    and earlier.edges == edges:
                self.shared += 1
                return earlier
        mdd = MddE(agent, d, levels, edges, mdd.graph)
        same.append(mdd)
        return mdd


# ---------------------------------------------------------------------------
# joint MDD-E
# ---------------------------------------------------------------------------

def _vertex_at(node: MddENode, t: int) -> Vertex | None:
    """Where a joint component puts its agent at level t: on the node's
    vertex, parked at the goal once the node lies in the past, or nowhere
    (None) while riding the shaft toward a node still ahead."""
    return node.vertex if node.time <= t else None


class _Trans(NamedTuple):
    """One side's unit-time transition: endpoint vertices (None while in a
    shaft) and, when this edge starts a ride, its boarding time."""

    u: Vertex | None
    w: Vertex | None
    board_ts: int


def _door_window_hit(mdd_x: MddE, comp_x: MddENode, mdd_y: MddE, comp_y: MddENode,
                     t: int) -> bool:
    """Is y's component standing at a door of x's elevator inside x's busy
    window at time t (`elevator.door_in_window`)?"""
    k_x = comp_x.elevator
    if k_x == -1:
        return False
    v_y = _vertex_at(comp_y, t)
    if v_y is None:
        return False
    e = mdd_x.graph.elevator_at(v_y)
    if e is None or e.id != k_x:
        return False
    own = mdd_y.ride(comp_y) if comp_y.elevator == k_x else None
    return door_in_window(mdd_x.ride(comp_x), v_y.floor, t, own)


@dataclass
class JointMddE:
    """Conflict-pruned product of two agents' MDD-Es, advanced in unit time
    steps; the shorter side is parked at its goal once finished. A pair
    survives at level t exactly when some pairwise-conflict-free prefix pair
    reaches it and, when both agents change floor, each pair on that
    prefix with an unboarded side has a ride-compatible pair of
    completions: some ride still open to one side (`MddE.ride_masks`) is on
    another elevator than, or clear of the busy window of, some ride still
    open to the other. A pair without one has no conflict-free
    completion (the ride cut, module docstring).

    Pairs are expanded on demand: `successors` computes one pair's
    successors and keeps them, so the depth-first bypass searches of both
    sides, and of every conflict of the two agents in one CT node, expand
    each pair once. Each side's transitions from a component at a level
    are computed once per joint (`moves`). `levels` holds only the root
    level, empty when the roots clash, a diagram is empty or the root has
    no ride-compatible completion. `pairs` counts the expanded pairs; past
    `NODE_CAP` every search of this joint raises `MddSizeExceeded`.
    `compat` holds, for each ride of a by bit, the mask of b's rides it
    can pair with, and is None when the cut cannot drop a pair;
    `compatible` memoises their union by a's mask, and `cuts` counts the
    roots and successor pairs the cut dropped."""

    mdd_a: MddE
    mdd_b: MddE
    t_end: int
    levels: dict[int, list[tuple[MddENode, MddENode]]]
    adj: dict[tuple[int, tuple], list[tuple[tuple, _Trans, _Trans]]]
    pairs: int = 0
    moves: tuple[dict, dict] = field(default_factory=lambda: ({}, {}), repr=False)
    compat: list[int] | None = field(default=None, repr=False)
    open_b: dict[int, int] = field(default_factory=dict, repr=False)
    cuts: int = 0

    def successors(self, t: int, pair: tuple) -> list[tuple[tuple, _Trans, _Trans]]:
        """Conflict-free successors of a level-t pair with both sides'
        transitions, in `itertools.product` order over the two sides'
        `transitions`, less those the ride cut drops. A transition's
        endpoint is where its side stands at t+1, so the vertex test
        compares endpoints; the elevator tests run only when a side has
        boarded, and the cut only when one has not."""
        key = (t, pair)
        out = self.adj.get(key)
        if out is None:
            self.pairs += 1
            self.check_cap()
            ca, cb = pair
            out = self.adj[key] = []
            moves_b = self.transitions(1, cb, t)
            cut = self.compat is not None
            if cut:
                masks_a, masks_b = self.mdd_a.ride_masks(), self.mdd_b.ride_masks()
            for sa, tra in self.transitions(0, ca, t):
                ua, wa, _ = tra
                moving = ua is not None and wa is not None and ua != wa
                if cut:
                    open_b = self.compatible(masks_a[sa])
                for sb, trb in moves_b:
                    wb = trb.w
                    if wa is not None and wa == wb:
                        continue  # vertex conflict at t+1
                    if moving and ua == wb and wa == trb.u:
                        continue  # swap
                    if (sa.elevator != -1 or sb.elevator != -1) and _ride_conflicts(
                            self.mdd_a, self.mdd_b, ca, cb, sa, sb, tra, trb, t):
                        continue
                    if cut and (sa.elevator == -1 or sb.elevator == -1) and not (
                            open_b & masks_b[sb]):
                        self.cuts += 1
                        continue
                    out.append(((sa, sb), tra, trb))
        return out

    def compatible(self, mask_a: int) -> int:
        """The mask of b's rides that some ride in a's mask can pair with:
        on another elevator, or clear of its busy window."""
        out = self.open_b.get(mask_a)
        if out is None:
            out = 0
            for i, row in enumerate(self.compat):
                if mask_a >> i & 1:
                    out |= row
            self.open_b[mask_a] = out
        return out

    def transitions(self, side: int, n: MddENode, t: int) -> list[tuple[MddENode, _Trans]]:
        """One side's unit-time transitions from component n at level t, in
        successor order: riding on in the shaft, parked at the goal, or
        along each MDD-E edge."""
        key = (n, t)
        out = self.moves[side].get(key)
        if out is None:
            mdd = self.mdd_b if side else self.mdd_a
            v = n.vertex
            if n.time > t:  # in the shaft
                out = [(n, _Trans(None, _vertex_at(n, t + 1), -1))]
            elif n.time < t or n.time == mdd.d:
                out = [(n, _Trans(v, v, -1))]  # parked at the goal
            else:
                out = []
                for m in mdd.edges.get(n, ()):
                    if m.vertex.floor == v.floor:
                        out.append((m, _Trans(v, m.vertex, -1)))
                    else:
                        board_ts = m.board_time if n.elevator == -1 else -1
                        out.append((m, _Trans(v, _vertex_at(m, t + 1), board_ts)))
            self.moves[side][key] = out
        return out

    def check_cap(self) -> None:
        if self.pairs > NODE_CAP:
            raise MddSizeExceeded(f"joint MDD-E exceeded {NODE_CAP} pairs")


def build_joint(mdd_a: MddE, mdd_b: MddE) -> JointMddE:
    """The joint MDD-E of two agents with only its root level in place;
    pairs are expanded as searches reach them. When both agents change
    floor and some ride of one overlaps some ride of the other, the joint
    gets the rides' compatibility rows for the ride cut."""
    joint = JointMddE(mdd_a, mdd_b, max(mdd_a.d, mdd_b.d), {}, {})
    if mdd_a.empty or mdd_b.empty or mdd_a.root.vertex == mdd_b.root.vertex:
        return joint
    a, b = mdd_a.agent, mdd_b.agent
    if a.start_floor != a.goal_floor and b.start_floor != b.goal_floor:
        # one goal node per ride, bit i of `ride_masks` the i-th's
        rides_b = [mdd_b.ride(n) for n in mdd_b.levels[mdd_b.d]]
        full = (1 << len(rides_b)) - 1
        rows = [sum(1 << j for j, v in enumerate(rides_b)
                    if v.elevator != u.elevator or not usages_overlap(u, v))
                for u in map(mdd_a.ride, mdd_a.levels[mdd_a.d])]
        if any(row != full for row in rows):
            joint.compat = rows
            if not any(rows):  # the roots can still take every ride
                joint.cuts += 1
                return joint
    joint.levels[0] = [(mdd_a.root, mdd_b.root)]
    return joint


def _ride_conflicts(mdd_a, mdd_b, ca, cb, sa, sb, tra: _Trans, trb: _Trans, t: int) -> bool:
    """The elevator half of the pair test, for a successor pair (sa, sb) of
    (ca, cb) with a boarded side: a shared elevator's busy windows overlap,
    or a side stands at a door of the other's elevator inside its window."""
    if sa.elevator != -1 and sa.elevator == sb.elevator and usages_overlap(
            mdd_a.ride(sa), mdd_b.ride(sb)):
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

def _breaks(ban: tuple, mdd: MddE, comp: MddENode, prev: Vertex | None, t: int) -> bool:
    """Does a side at component comp at level t, come from vertex prev
    (its transition's `u`: None inside a shaft or at the root), break the
    `ConstraintSet` ban: stand on a banned vertex, take a banned edge, or
    carry a ride boarded inside a banned window? (A ride boards at the
    agent's start floor.)"""
    kind = ban[0]
    if kind == "vertex":
        _, v, lo, hi = ban
        return lo <= t <= hi and _vertex_at(comp, t) == v
    if kind == "edge":
        _, u, w, t_ban = ban
        return t == t_ban + 1 and prev == u and _vertex_at(comp, t) == w
    _, k, floor, lo, hi = ban
    return comp.elevator == k and lo <= comp.board_time <= hi and floor == mdd.agent.start_floor


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


def _unavoidable(mdd: MddE, ban: tuple) -> bool:
    """Does every cost-d path of the agent's own MDD-E break the ban, its
    side of the conflict? Then no joint path avoids it either, and the
    joint search for this side can be skipped. Vacuously true for an empty
    MDD-E. A side's vertex ban is one instant; for a wider one the answer
    is a safe no."""
    if mdd.empty:
        return True
    kind = ban[0]
    if kind == "vertex":
        _, v, lo, hi = ban
        return lo == hi and _always_at(mdd, v, lo)
    if kind == "edge":
        _, u, w, t = ban
        return _always_at(mdd, u, t) and _always_at(mdd, w, t + 1)
    # a boarding ban depends only on the ride, which every node after
    # boarding carries up to the goal level
    return all(_breaks(ban, mdd, n, None, mdd.d) for n in mdd.levels[mdd.d])


def _bypass_comps(joint: JointMddE, agent_id: int, ban: tuple) -> list | None:
    """The agent's components along a complete conflict-free pair path that
    keeps its side's ban, or None. The search is
    depth-first and takes each pair's successors in `JointMddE.successors`
    order, so the first path it completes is the first complete path in
    that order, the one a breadth-first search would return. A pair met
    again was searched to the end without completing and is skipped, so
    only the pairs the search walks through are expanded."""
    side = 0 if joint.mdd_a.agent.id == agent_id else 1
    mdd = joint.mdd_a if side == 0 else joint.mdd_b
    if not joint.levels or _unavoidable(mdd, ban):
        return None
    joint.check_cap()
    root = joint.levels[0][0]
    if _breaks(ban, mdd, root[side], None, 0):
        return None
    t_end = joint.t_end
    if t_end == 0:
        return [root[side]]
    path = [root]  # the pairs of levels 0..len(path)-1 on the current branch
    stack = [iter(joint.successors(0, root))]  # their untried successors
    seen: set[tuple[int, tuple]] = set()
    while stack:
        t = len(path)
        for succ, tra, trb in stack[-1]:
            key = (t, succ)
            if key in seen:
                continue
            if _breaks(ban, mdd, succ[side], (tra if side == 0 else trb).u, t):
                continue
            if t == t_end:
                return [pair[side] for pair in path] + [succ[side]]
            seen.add(key)
            path.append(succ)
            stack.append(iter(joint.successors(t, succ)))
            break
        else:
            stack.pop()
            path.pop()
    return None


def _comps_to_path(comps: list, mdd: MddE) -> Path:
    steps = []
    for t, comp in enumerate(comps):
        if t > mdd.d:
            break
        if comp.time == t:
            steps.append((comp.vertex, t))
    return Path(tuple(steps))


def classify(c, mdd_i: MddE | None, mdd_j: MddE | None, joint_cache: dict | None = None
             ) -> tuple[str, tuple[tuple[int, Path], ...] | None]:
    """Cardinality of a conflict on its two agents' MDD-Es (c.i's first),
    with the bypasses that decide it. An agent's side is its ban in
    `c.sides()`, and its bypass is an equal-cost path inside the joint
    MDD-E that keeps that ban; `found` holds each (agent id, Path), lower
    id first, and the label is cardinal, semi-cardinal or non-cardinal as
    it holds none, one or both. A side whose ban every path of the agent's
    own MDD-E breaks has none, with no joint search. A diagram over the
    node cap (None), or a joint that crosses it, gives (CARDINAL, None),
    the safe choice. `joint_cache` keeps joints by their two diagrams, the
    lower agent id's first, so a joint's search order, and so any bypass,
    does not depend on which conflict built it."""
    if mdd_i is None or mdd_j is None:
        return CARDINAL, None
    pair = (mdd_i, mdd_j) if c.i < c.j else (mdd_j, mdd_i)
    joints = {} if joint_cache is None else joint_cache
    joint = joints.get(pair)
    if joint is None:
        joint = joints[pair] = build_joint(*pair)
    found = []
    try:
        for (agent_id, ban), mdd in zip(sorted(c.sides()), pair):
            comps = _bypass_comps(joint, agent_id, ban)
            if comps is not None:
                found.append((agent_id, _comps_to_path(comps, mdd)))
    except MddSizeExceeded:
        return CARDINAL, None
    return LABELS[len(found)], tuple(found)


def find_bypass(c, mdd_i: MddE | None, mdd_j: MddE | None) -> tuple[int, Path] | None:
    """The first bypass of a `classify` on a fresh joint: the lower agent
    id's, else the other agent's; None when neither has one or a diagram
    is over the cap."""
    found = classify(c, mdd_i, mdd_j)[1]
    return found[0] if found else None
