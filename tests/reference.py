"""Independent reference implementations used only by the tests.

These deliberately avoid the package's search code paths: the grid's
move rule (`neighbors`), a time-expanded uniform-cost planner over
explicit (vertex, time, rode) states, exhaustive enumeration of
fixed-cost paths, a pairwise timeline scan for vertex and edge conflicts,
and a replay-based elevator conflict scanner. They are slow and only run
on small inputs.
"""
from __future__ import annotations

import heapq
import itertools

from mapfe.model import Agent, MultiFloorGraph, Vertex, ride_visits
from mapfe.sipp import ConstraintSet

WAIT = "wait"
MOVE = "move"
BOARD = "board"

_MOVES_4 = ((1, 0), (-1, 0), (0, 1), (0, -1))


def neighbors(graph: MultiFloorGraph, v: Vertex, rode_elevator: bool) -> list[tuple[Vertex, int, str]]:
    """All legal single moves from v: wait, 4-neighbor steps, and, when v is
    an elevator door and the agent has not ridden yet, one boarding
    macro-move per other floor (cost |floor delta| * t_floor, landing on
    that floor's door)."""
    out: list[tuple[Vertex, int, str]] = [(v, 1, WAIT)]
    grid = graph.grid(v.floor)
    for dx, dy in _MOVES_4:
        nx, ny = v.x + dx, v.y + dy
        if grid.passable(nx, ny):
            out.append((Vertex(v.floor, nx, ny), 1, MOVE))
    if not rode_elevator:
        e = graph.elevator_at(v)
        if e is not None:
            for target in range(1, graph.floors + 1):
                if target != v.floor:
                    cost = abs(target - v.floor) * e.t_floor
                    out.append((Vertex(target, e.cell[0], e.cell[1]), cost, BOARD))
    return out


def _goal_parking_ok(constraints: ConstraintSet, goal: Vertex, t: int) -> bool:
    return all(hi < t for _, hi in constraints.vertex_bans.get(goal, ()))


def boarding_banned(constraints: ConstraintSet, elevator: int, floor: int, t: int) -> bool:
    """A boarding of `elevator` from `floor` at t breaks a boarding ban."""
    return any(lo <= t <= hi for lo, hi in constraints.boarding_bans.get((elevator, floor), ()))


def _board_ok(constraints: ConstraintSet, graph: MultiFloorGraph, v: Vertex,
              target: Vertex, t: int) -> bool:
    e = graph.elevator_at(v)
    if boarding_banned(constraints, e.id, v.floor, t):
        return False
    for door, when in ride_visits(graph, e.id, v.floor, target.floor, t):
        if constraints.vertex_banned(door, when):
            return False
    return True


def time_expanded_plan(agent: Agent, graph: MultiFloorGraph,
                       constraints: ConstraintSet, horizon: int) -> int | None:
    """Optimal constrained single-agent cost by Dijkstra over explicit
    timed states; None when no path exists within the horizon."""
    if constraints.vertex_banned(agent.start, 0):
        return None
    start = (agent.start, 0, False)
    dist = {start: 0}
    heap = [(0, 0, start)]
    tick = itertools.count()
    while heap:
        g, _, (v, t, rode) = heapq.heappop(heap)
        if dist.get((v, t, rode), -1) != g:
            continue
        if v == agent.goal and _goal_parking_ok(constraints, agent.goal, t):
            return g
        if t >= horizon:
            continue
        for u, cost, kind in neighbors(graph, v, rode):
            t2 = t + cost
            if t2 > horizon:
                continue
            if kind == "board":
                if not _board_ok(constraints, graph, v, u, t):
                    continue
            else:
                if constraints.vertex_banned(u, t2):
                    continue
                if kind == "move" and (v, u, t) in constraints.edge_bans:
                    continue
            state = (u, t2, rode or kind == "board")
            if t2 < dist.get(state, horizon + 1):
                dist[state] = t2
                heapq.heappush(heap, (t2, next(tick), state))
    return None


def _lower_bound(agent: Agent, graph: MultiFloorGraph, v: Vertex, rode: bool) -> float:
    """Obstacle-ignoring admissible remaining cost."""
    goal = agent.goal
    if v.floor == goal.floor:
        return abs(v.x - goal.x) + abs(v.y - goal.y)
    if rode:
        return float("inf")
    best = float("inf")
    for e in graph.elevators:
        d = (abs(v.x - e.cell[0]) + abs(v.y - e.cell[1])
             + abs(v.floor - goal.floor) * e.t_floor
             + abs(goal.x - e.cell[0]) + abs(goal.y - e.cell[1]))
        best = min(best, d)
    return best


class _TooMany(Exception):
    """An enumeration found more paths than its limit."""


def enumerate_cost_d_paths(agent: Agent, graph: MultiFloorGraph,
                           constraints: ConstraintSet, d: int, limit: int | None = None):
    """Every constrained path of cost exactly d as a tuple of (vertex, time)
    steps; the final step is a real arrival at the goal (no trailing wait).
    With `limit`, None as soon as more than `limit` paths are found."""
    if not _goal_parking_ok(constraints, agent.goal, d):
        return []
    out = []

    def rec(v: Vertex, t: int, rode: bool, steps):
        if t == d:
            if v == agent.goal and (len(steps) < 2 or steps[-2][0] != v):
                out.append(tuple(steps))
                if limit is not None and len(out) > limit:
                    raise _TooMany
            return
        for u, cost, kind in neighbors(graph, v, rode):
            t2 = t + cost
            if t2 + _lower_bound(agent, graph, u, rode or kind == "board") > d:
                continue
            if kind == "board":
                if not _board_ok(constraints, graph, v, u, t):
                    continue
                visits = ride_visits(graph, graph.elevator_at(v).id, v.floor, u.floor, t)
                rec(u, t2, True, steps + visits)
            else:
                if constraints.vertex_banned(u, t2):
                    continue
                if kind == "move" and (v, u, t) in constraints.edge_bans:
                    continue
                rec(u, t2, rode, steps + [(u, t2)])

    try:
        if not constraints.vertex_banned(agent.start, 0):
            rec(agent.start, 0, False, [(agent.start, 0)])
    except _TooMany:
        return None
    return out


def replay_elevator_conflicts(paths, graph: MultiFloorGraph) -> set[tuple]:
    """Replay-based elevator conflict scan: recover rides from floor
    changes, then test every boarding pair and every door presence against
    the closed busy windows. Canonical tuples for set comparison."""
    rides = []  # (agent, elevator, t_s, l_s, l_g, t_g)
    for a, path in enumerate(paths):
        steps = list(path.steps)
        shaft = [(i, v, t) for i, (v, t) in enumerate(steps[:-1])
                 if steps[i + 1][0].floor != v.floor]
        if shaft:
            first = shaft[0]
            last_i = shaft[-1][0] + 1
            e = graph.elevator_at(first[1])
            rides.append((a, e.id, first[2], first[1].floor, steps[last_i][0].floor,
                          steps[last_i][1]))

    found: set[tuple] = set()
    for (a, k, ts_a, lsa, lga, tg_a), (b, kb, ts_b, lsb, lgb, tg_b) in itertools.permutations(rides, 2):
        if a < b and k == kb:
            t_floor = graph.elevators[k].t_floor
            in_a = (ts_a, tg_a + abs(lga - lsb) * t_floor)
            in_b = (ts_b, tg_b + abs(lgb - lsa) * t_floor)
            if in_a[0] <= ts_b <= in_a[1] or in_b[0] <= ts_a <= in_b[1]:
                found.add(("boarding", a, b, k, max(ts_a, ts_b)))

    for b, path in enumerate(paths):
        for v, t in path.steps:
            e = graph.elevator_at(v)
            if e is None:
                continue
            own = next((r for r in rides if r[0] == b and r[1] == e.id), None)
            if own is not None and own[2] <= t <= own[5]:
                continue
            for (a, k, ts_a, lsa, lga, tg_a) in rides:
                if a == b or k != e.id:
                    continue
                if ts_a <= t <= tg_a + abs(lga - v.floor) * e.t_floor:
                    found.add(("occupancy", a, b, k, v, t))
    return found


def _path_usage(steps, graph):
    for i, (v, t) in enumerate(steps[:-1]):
        if steps[i + 1][0].floor != v.floor:
            e = graph.elevator_at(v)
            last = i + 1
            while last + 1 < len(steps) and steps[last + 1][0].floor != steps[last][0].floor:
                last += 1
            return (e.id, t, v.floor, steps[last][0].floor, steps[last][1])
    return None


def _prefix_state(steps, usage, t: int):
    """(tag, vertex-or-None, visible elevator, visible boarding time) of a
    path at time t; the ride annotation appears once the agent has entered
    the shaft (t > boarding time)."""
    cost = steps[-1][1]
    if t >= cost:
        v = steps[-1][0]
    else:
        v = next((w for w, tw in steps if tw == t), None)
    k, ts = -1, -1
    if usage is not None and t > usage[1]:
        k, ts = usage[0], usage[1]
    if v is None:
        return ("s", None, k, ts)
    return ("n", v, k, ts)


def rides_overlap(u_i, u_j, graph) -> bool:
    """Do two rides, as (elevator, t_s, l_s, l_g, t_g), clash: one
    elevator, and either boarding inside the other ride's busy window
    toward its boarding floor?"""
    k, ts_i, ls_i, lg_i, tg_i = u_i
    k_j, ts_j, ls_j, lg_j, tg_j = u_j
    if k != k_j:
        return False
    t_floor = graph.elevators[k].t_floor
    return (ts_j <= ts_i <= tg_j + abs(lg_j - ls_i) * t_floor
            or ts_i <= ts_j <= tg_i + abs(lg_i - ls_j) * t_floor)


def rides_clash(rides_i, rides_j, graph) -> bool:
    """The ride rule of the joint product: two agents that both change
    floor, one of them not yet boarded, whose rides still open (sets of
    (elevator, t_s, l_s, l_g, t_g)) all clash pairwise, have no
    conflict-free completion, since both end boarded on the rides they
    took."""
    return bool(rides_i) and bool(rides_j) and all(
        rides_overlap(u_i, u_j, graph) for u_i in rides_i for u_j in rides_j)


def earliest_pair_kill(steps_i, steps_j, graph, horizon: int) -> float:
    """First level at which the prefix pair of two complete paths stops
    being conflict-free, or inf. Mirrors the pairwise conflict semantics:
    shared vertices, swaps, boarding overlaps, and door presences inside
    the other ride's floor-dependent closed busy window."""
    u_i = _path_usage(steps_i, graph)
    u_j = _path_usage(steps_j, graph)
    kill = float("inf")

    def pos(steps, t):
        cost = steps[-1][1]
        if t >= cost:
            return steps[-1][0]
        return next((w for w, tw in steps if tw == t), None)

    for t in range(horizon + 1):
        pi, pj = pos(steps_i, t), pos(steps_j, t)
        if pi is not None and pi == pj:
            kill = min(kill, t)
        qi, qj = pos(steps_i, t + 1), pos(steps_j, t + 1)
        if None not in (pi, pj, qi, qj) and pi != qi and pj != qj and pi == qj and qi == pj:
            kill = min(kill, t + 1)
    if u_i and u_j and rides_overlap(u_i, u_j, graph):
        kill = min(kill, max(u_i[1], u_j[1]) + 1)
    for (usage, steps_other, usage_other) in ((u_i, steps_j, u_j), (u_j, steps_i, u_i)):
        if usage is None:
            continue
        k, ts, ls, lg, tg = usage
        t_floor = graph.elevators[k].t_floor
        cost_other = steps_other[-1][1]
        for t in range(horizon + 1):
            v = pos(steps_other, t)
            if v is None:
                continue
            e = graph.elevator_at(v)
            if e is None or e.id != k:
                continue
            # in-car visits (strictly after boarding) belong to the
            # rider-vs-rider case; the boarding-door arrival itself does not
            if usage_other is not None and usage_other[0] == k and usage_other[1] < t <= usage_other[4]:
                continue
            if ts <= t <= tg + abs(lg - v.floor) * t_floor:
                kill = min(kill, max(t, ts + 1))
    return kill


def joint_levels_by_enumeration(agent_i, agent_j, graph, cs_i, cs_j, d_i, d_j,
                                ride_rule: bool = True):
    """Expected joint MDD-E levels from exhaustive path-pair enumeration:
    a state pair appears at level t when some pair of cost-exact paths has
    a conflict-free prefix pair reaching it. With `ride_rule`, a prefix
    pair also stops at the first level where both agents change floor, a
    side has not boarded, and the rides of the paths through the two
    states clash pairwise (`rides_clash`)."""
    t_end = max(d_i, d_j)
    paths_i = enumerate_cost_d_paths(agent_i, graph, cs_i, d_i)
    paths_j = enumerate_cost_d_paths(agent_j, graph, cs_j, d_j)
    usage = {p: _path_usage(p, graph) for p in paths_i + paths_j}
    rides_through: dict[tuple, set] = {}  # (side, t, state) -> rides of the paths through it
    if ride_rule and agent_i.start_floor != agent_i.goal_floor \
            and agent_j.start_floor != agent_j.goal_floor:
        for side, paths in enumerate((paths_i, paths_j)):
            for p in paths:
                for t in range(t_end + 1):
                    rides_through.setdefault((side, t, _prefix_state(p, usage[p], t)),
                                             set()).add(usage[p])
    levels: dict[int, set] = {}
    for pi in paths_i:
        for pj in paths_j:
            kill = earliest_pair_kill(pi, pj, graph, t_end + 1)
            for t in range(t_end + 1):
                if t >= kill:
                    break
                pair = (_prefix_state(pi, usage[pi], t), _prefix_state(pj, usage[pj], t))
                if rides_through and -1 in (pair[0][2], pair[1][2]) and rides_clash(
                        rides_through[0, t, pair[0]], rides_through[1, t, pair[1]], graph):
                    break
                levels.setdefault(t, set()).add(pair)
    return levels


def mdd_path_set(mdd) -> set[tuple]:
    """All root-to-goal step sequences encoded by an MDD-E."""
    if mdd.empty:
        return set()
    out = []

    def rec(node, steps):
        if node.time == mdd.d:
            out.append(tuple(steps))
            return
        for succ in mdd.edges.get(node, ()):
            rec(succ, steps + [(succ.vertex, succ.time)])

    root = mdd.root
    rec(root, [(root.vertex, 0)])
    return set(out)


def path_commits(conflict, agent_id: int, steps, graph: MultiFloorGraph) -> bool:
    """Does a complete path of agent_id take part in its side of the
    conflict? Read off the timed steps and the path's own ride: positions
    park at the goal after the arrival and are None inside a shaft."""
    cost = steps[-1][1]

    def pos(t):
        if t >= cost:
            return steps[-1][0]
        return next((w for w, tw in steps if tw == t), None)

    kind = conflict.kind
    if kind == "vertex":
        return pos(conflict.t) == conflict.v
    if kind == "edge":
        u, w = (conflict.u, conflict.w) if agent_id == conflict.i else (conflict.w, conflict.u)
        return pos(conflict.t) == u and pos(conflict.t + 1) == w
    if kind == "occupancy" and agent_id == conflict.j:
        return pos(conflict.time) == conflict.vertex
    ride = _path_usage(steps, graph)  # (elevator, t_s, l_s, l_g, t_g)
    if ride is None or ride[0] != conflict.elevator:
        return False
    k, t_s, _, l_g, t_g = ride
    if kind == "boarding":
        own = conflict.usage_i if agent_id == conflict.i else conflict.usage_j
        return t_s == own.t_s
    reset = abs(l_g - conflict.vertex.floor) * graph.elevators[k].t_floor
    return t_s <= conflict.time <= t_g + reset


def classify_by_enumeration(conflict, agents, graph: MultiFloorGraph, omegas, costs,
                            limit: int | None = None) -> str | None:
    """Cardinality from every pair of cost-exact paths of the two agents:
    an agent has a bypass when some pair that stays conflict-free up to the
    later arrival has that agent's path outside its side of the conflict.
    None when an agent has more than `limit` such paths."""
    i, j = conflict.i, conflict.j
    t_end = max(costs[i], costs[j])
    enumerated = [enumerate_cost_d_paths(agents[a], graph, omegas[a], costs[a], limit)
                  for a in (i, j)]
    if None in enumerated:
        return None
    paths_i = [(p, path_commits(conflict, i, p, graph)) for p in enumerated[0]]
    paths_j = [(p, path_commits(conflict, j, p, graph)) for p in enumerated[1]]
    has_i = has_j = False
    for p_i, commits_i in paths_i:
        for p_j, commits_j in paths_j:
            if (has_i or commits_i) and (has_j or commits_j):
                continue
            if earliest_pair_kill(p_i, p_j, graph, t_end + 1) > t_end:
                has_i = has_i or not commits_i
                has_j = has_j or not commits_j
    if has_i and has_j:
        return "non-cardinal"
    if has_i or has_j:
        return "semi-cardinal"
    return "cardinal"


def bypass_comps_breadth_first(joint, agent_id: int, ban: tuple) -> list | None:
    """The breadth-first bypass search over a `mdd.JointMddE`, kept as the
    reference for the solver's depth-first one: level by level, each pair
    reached first through the earliest pair of the level before, in
    `successors` order, and the first pair of the last level traced back.
    It shares the joint product and the ban tests with the solver, and
    checks only the order of the search."""
    from mapfe import mdd as mdd_mod

    side = 0 if joint.mdd_a.agent.id == agent_id else 1
    mdd = joint.mdd_a if side == 0 else joint.mdd_b
    if not joint.levels or mdd_mod._unavoidable(mdd, ban):
        return None
    joint.check_cap()
    root = joint.levels[0][0]
    if mdd_mod._breaks(ban, mdd, root[side], None, 0):
        return None
    parent: dict[tuple[int, tuple], tuple | None] = {(0, root): None}
    frontier = [root]
    for t in range(joint.t_end):
        nxt = []
        for pair in frontier:
            for succ, tra, trb in joint.successors(t, pair):
                key = (t + 1, succ)
                if key in parent:
                    continue
                if mdd_mod._breaks(ban, mdd, succ[side], (tra if side == 0 else trb).u, t + 1):
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


def comp_succs(mdd, n, t: int) -> list:
    """One side's unit-time transitions from a joint component at level t,
    as the solver's joint product computed them before its successor loop
    was inlined: riding on in the shaft, parked at the goal, or along each
    MDD-E edge, as (successor, `mdd._Trans`)."""
    from mapfe.mdd import _Trans, _vertex_at

    if n.time > t:  # in the shaft
        return [(n, _Trans(None, _vertex_at(n, t + 1), -1))]
    if n.time < t or n.time == mdd.d:
        return [(n, _Trans(n.vertex, n.vertex, -1))]  # parked at the goal
    out = []
    for m in mdd.edges.get(n, ()):
        if m.vertex.floor == n.vertex.floor:
            out.append((m, _Trans(n.vertex, m.vertex, -1)))
        else:
            board_ts = m.board_time if n.elevator == -1 else -1
            out.append((m, _Trans(n.vertex, _vertex_at(m, t + 1), board_ts)))
    return out


def pair_conflicts(mdd_a, mdd_b, ca, cb, sa, sb, tra, trb, t: int, elevator_aware: bool) -> bool:
    """Does the successor pair (sa, sb) of the level-t pair (ca, cb) clash:
    a vertex conflict at t+1, a swap, or, with `elevator_aware`, a busy
    window overlap or a door presence inside the other side's window?"""
    from mapfe.elevator import usages_overlap
    from mapfe.mdd import _door_window_hit, _vertex_at

    va = _vertex_at(sa, t + 1)
    if va is not None and va == _vertex_at(sb, t + 1):
        return True  # vertex conflict at t+1
    if (tra.u is not None and tra.w is not None and trb.u is not None and trb.w is not None
            and tra.u == trb.w and tra.w == trb.u and tra.u != tra.w):
        return True  # swap
    if not elevator_aware or (sa.elevator == -1 and sb.elevator == -1):
        return False  # every elevator check below needs a boarded side
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


def rides_below(mdd, n) -> set[tuple]:
    """The rides, as (elevator, t_s, l_s, l_g, t_g), of the cost-d paths
    of an MDD-E through node n, found by walking `mdd.edges` from n."""
    agent, graph = mdd.agent, mdd.graph
    out, seen, stack = set(), {n}, [n]
    while stack:
        m = stack.pop()
        if m.elevator != -1:
            t_floor = graph.elevators[m.elevator].t_floor
            out.add((m.elevator, m.board_time, agent.start_floor, agent.goal_floor,
                     m.board_time + abs(agent.goal_floor - agent.start_floor) * t_floor))
            continue  # a boarded node's paths all carry its ride
        for s in mdd.edges.get(m, ()):
            if s not in seen:
                seen.add(s)
                stack.append(s)
    return out


def ride_dead(joint, sa, sb) -> bool:
    """Does the ride rule (`rides_clash`) drop the pair (sa, sb) of a
    `mdd.JointMddE`: both agents change floor, a side has not boarded,
    and every ride below one side clashes with every ride below the
    other?"""
    mdd_a, mdd_b = joint.mdd_a, joint.mdd_b
    if any(m.agent.start_floor == m.agent.goal_floor for m in (mdd_a, mdd_b)):
        return False
    if sa.elevator != -1 and sb.elevator != -1:
        return False
    return rides_clash(rides_below(mdd_a, sa), rides_below(mdd_b, sb), mdd_a.graph)


def joint_successors(joint, t: int, pair: tuple, elevator_aware: bool,
                     ride_rule: bool = False) -> list:
    """The conflict-free successors of a level-t pair of a `mdd.JointMddE`:
    the product of both sides' `comp_succs`, filtered by `pair_conflicts`
    and, with `ride_rule`, by `ride_dead`, in `itertools.product` order."""
    mdd_a, mdd_b = joint.mdd_a, joint.mdd_b
    ca, cb = pair
    return [((sa, sb), tra, trb)
            for (sa, tra), (sb, trb) in itertools.product(comp_succs(mdd_a, ca, t),
                                                          comp_succs(mdd_b, cb, t))
            if not pair_conflicts(mdd_a, mdd_b, ca, cb, sa, sb, tra, trb, t, elevator_aware)
            and not (ride_rule and ride_dead(joint, sa, sb))]


def joint_roots(joint) -> list[tuple]:
    """The root pair of the two diagrams of a `mdd.JointMddE`, read off
    the diagrams themselves: none when one is empty or the two start on
    one vertex."""
    mdd_a, mdd_b = joint.mdd_a, joint.mdd_b
    if mdd_a.empty or mdd_b.empty or mdd_a.root.vertex == mdd_b.root.vertex:
        return []
    return [(mdd_a.root, mdd_b.root)]


def joint_vertex_pairs(joint, t: int, elevator_aware: bool) -> set:
    """Where the two agents of a `mdd.JointMddE` stand at level t of the
    product, expanded level by level from the diagrams' roots through
    `joint_successors` without the ride rule; without `elevator_aware`
    this is the plain product of two MDDs, which sees no ride."""
    from mapfe.mdd import _vertex_at

    level = joint_roots(joint)
    for s in range(t):
        level = list(dict.fromkeys(succ for pair in level
                                   for succ, _, _ in joint_successors(joint, s, pair, elevator_aware)))
    return {(_vertex_at(a, t), _vertex_at(b, t)) for a, b in level}


def completes(joint, t: int, pair: tuple, memo: dict) -> bool:
    """Does some path of the elevator-aware reference product without the
    ride rule lead from the level-t pair of a `mdd.JointMddE` to its last
    level? `memo` keeps the answers by (t, pair) across calls."""
    key = (t, pair)
    if key not in memo:
        memo[key] = t == joint.t_end or any(
            completes(joint, t + 1, succ, memo)
            for succ, _, _ in joint_successors(joint, t, pair, True))
    return memo[key]


def joint_levels(joint) -> dict[int, list[tuple]]:
    """Every level of a `mdd.JointMddE`'s product, expanded from its root
    through the joint's own `successors`, each level sorted; the levels
    after an empty one are absent (the joint is then incomplete)."""
    levels = dict(joint.levels)
    for t in range(joint.t_end):
        if t not in levels:
            break
        nxt = {succ: None for pair in levels[t] for succ, _, _ in joint.successors(t, pair)}
        if nxt:
            levels[t + 1] = sorted(nxt)
    return levels


def joint_complete(joint) -> bool:
    """Does some conflict-free pair path reach the joint's last level?"""
    return bool(joint_levels(joint).get(joint.t_end))


def level_vertex_pairs(joint, t: int) -> set:
    """Where the two agents of a `mdd.JointMddE` stand at level t of the
    joint's own product (`joint_levels`), where `joint_vertex_pairs`
    expands the reference product instead."""
    from mapfe.mdd import _vertex_at

    return {(_vertex_at(a, t), _vertex_at(b, t)) for a, b in joint_levels(joint).get(t, ())}


def _timeline(path, horizon: int) -> list:
    """Vertex of a path at each time 0..horizon: None inside a shaft, the
    goal from the arrival on."""
    where = [None] * (horizon + 1)
    for v, t in path.steps:
        where[t] = v
    for t in range(path.cost, horizon + 1):
        where[t] = path.end
    return where


def grid_conflicts(paths) -> list[tuple]:
    """The vertex and edge conflicts of a joint plan by a pairwise scan of
    whole timelines, finished agents parked at their goals, sorted:
    ("vertex", i, j, v, t) when agents i < j stand on v at t, and ("edge",
    i, j, u, w, t) when i moves u->w while j moves w->u on one floor over
    [t, t+1]. Each pair is scanned up to the later of its two arrivals, so
    a pair's conflicts do not depend on the other paths: two paths that
    end on one vertex meet there at every later time too, and only the
    first of those, at the later arrival, is listed."""
    out = []
    for i, j in itertools.combinations(range(len(paths)), 2):
        horizon = max(paths[i].cost, paths[j].cost)
        at_i, at_j = _timeline(paths[i], horizon), _timeline(paths[j], horizon)
        for t in range(horizon + 1):
            vi, vj = at_i[t], at_j[t]
            if vi == vj and vi is not None:
                out.append(("vertex", i, j, vi, t))
            elif t < horizon:
                wi, wj = at_i[t + 1], at_j[t + 1]
                if (vi == wj and wi == vj and vi is not None and wi is not None
                        and vi != wi and vi.floor == wi.floor):
                    out.append(("edge", i, j, vi, wi, t))
    return sorted(out)
