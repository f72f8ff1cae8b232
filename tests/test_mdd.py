import contextlib
import itertools
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mapfe import mdd as mdd_mod
from mapfe.cbs import SolverConfig, VertexConflict, _Solver, solve
from mapfe.elevator import ElevatorConflict, ElevatorUsage
from mapfe.mdd import (
    CARDINAL,
    NON_CARDINAL,
    SEMI_CARDINAL,
    MddECache,
    MddENode,
    build_joint,
    build_mdd_e,
    classify,
    find_bypass,
)
from mapfe.model import Agent, Vertex, parse_map, parse_scenario
from mapfe.sipp import ConstraintSet, plan

from reference import (
    bypass_comps_breadth_first,
    classify_by_enumeration,
    enumerate_cost_d_paths,
    joint_complete,
    joint_levels,
    joint_levels_by_enumeration,
    joint_successors,
    joint_vertex_pairs,
    level_vertex_pairs,
    mdd_path_set,
    path_commits,
)
from test_incremental import multi_floor_instances


def _vset(mdd, t):
    return {n.vertex for n in mdd.levels[t]}


def test_level_zero_is_the_start_singleton(flat3):
    a = Agent(0, Vertex(1, 2, 1), Vertex(1, 1, 0))
    mdd = build_mdd_e(a, 2, ConstraintSet(), flat3)
    assert mdd.levels[0] == (MddENode(Vertex(1, 2, 1), 0, -1, -1),)


def test_two_route_level(flat3):
    # cost-2 agent between two diagonal corners of the center: at t=1 it can
    # stand on either of the two routes
    a = Agent(0, Vertex(1, 2, 1), Vertex(1, 1, 0))
    mdd = build_mdd_e(a, 2, ConstraintSet(), flat3)
    assert _vset(mdd, 1) == {Vertex(1, 1, 1), Vertex(1, 2, 0)}
    assert _vset(mdd, 2) == {Vertex(1, 1, 0)}


def test_joint_keeps_only_the_clash_free_pair(flat3):
    # first agent at cost 3, second at cost 2 with one cell banned at t=1;
    # the only surviving level-1 pair puts them on different cells
    ax = Agent(0, Vertex(1, 1, 2), Vertex(1, 2, 0))
    ay = Agent(1, Vertex(1, 2, 1), Vertex(1, 1, 0))
    mx = build_mdd_e(ax, 3, ConstraintSet(), flat3)
    my = build_mdd_e(ay, 2, ConstraintSet().with_ban(("vertex", Vertex(1, 2, 0), 1, 1)), flat3)
    assert _vset(mx, 1) == {Vertex(1, 2, 2), Vertex(1, 1, 1)}
    assert _vset(my, 1) == {Vertex(1, 1, 1)}
    joint = build_joint(mx, my)
    assert level_vertex_pairs(joint, 1) == {(Vertex(1, 2, 2), Vertex(1, 1, 1))}
    assert joint_complete(joint)


def test_ride_annotation_node(corridor2):
    # after boarding at t=1 and exiting on floor 2 at t=2, the time-3 node
    # still carries (elevator, boarding time)
    a = parse_scenario("1 0 0 2 3 0\n", corridor2).agents[0]
    mdd = build_mdd_e(a, 4, ConstraintSet(), corridor2)
    assert mdd.levels[3] == (MddENode(Vertex(2, 2, 0), 3, 0, 1),)


def test_reset_window_pair_excluded_only_with_ride_info(corridor2):
    inst = parse_scenario("1 0 0 2 3 0\n1 4 0 2 0 0\n", corridor2)
    ai, aj = inst.agents
    mi = build_mdd_e(ai, 4, ConstraintSet(), corridor2)
    mj = build_mdd_e(aj, 5, ConstraintSet(), corridor2)
    pair = (Vertex(2, 2, 0), Vertex(1, 1, 0))
    aware = build_joint(mi, mj)
    assert pair in joint_vertex_pairs(aware, 3, elevator_aware=False)  # the plain product
    assert pair not in level_vertex_pairs(aware, 3)


def test_empty_below_optimal_cost(flat3):
    a = Agent(0, Vertex(1, 0, 0), Vertex(1, 2, 2))
    assert build_mdd_e(a, 3, ConstraintSet(), flat3).empty
    assert not build_mdd_e(a, 4, ConstraintSet(), flat3).empty


def test_paths_match_enumeration_on_random_cases():
    rng = random.Random(424)
    compared = 0
    for _ in range(40):
        floors = rng.choice([1, 2])
        t_floor = rng.choice([1, 2])
        row = list("....")
        door = rng.randrange(4)
        if floors > 1:
            row[door] = "E"
        text = (f"type mapf-e\nfloors {floors}\nheight 2\nwidth 4\ntfloor {t_floor}\n"
                + "\n".join(["".join(row), "...."] * floors) + "\n")
        g = parse_map(text)
        free = [v for v in g.vertices() if g.elevator_at(v) is None]
        start, goal = rng.sample(free, 2)
        agent = Agent(0, start, goal)
        cs = ConstraintSet()
        for _ in range(rng.randint(0, 3)):
            lo = rng.randint(1, 6)
            cs = cs.with_ban(("vertex", rng.choice(free), lo, lo + rng.randint(0, 2)))
        base = plan(agent, g, cs)
        if base is None:
            continue
        d = base.cost + rng.choice([0, 1])
        mdd = build_mdd_e(agent, d, cs, g)
        assert mdd_path_set(mdd) == set(enumerate_cost_d_paths(agent, g, cs, d))
        compared += 1
    assert compared >= 25


def test_joint_levels_match_pairwise_enumeration(corridor2, flat3):
    # three floors with tfloor 2: the first agent spends levels inside the
    # shaft while the second walks past the door floor
    shaft3 = parse_map("type mapf-e\nfloors 3\nheight 2\nwidth 3\ntfloor 2\n"
                       + ".E.\n...\n" * 3)
    cases = [
        (corridor2, "1 0 0 2 3 0", "1 4 0 2 0 0", 4, 5),
        (corridor2, "1 0 0 2 3 0", "1 4 0 2 0 0", 5, 5),
        (flat3, "1 0 0 1 2 2", "1 2 0 1 0 2", 4, 4),
        (shaft3, "1 0 0 3 2 1", "2 2 1 2 0 1", 8, 2),
    ]
    for g, line_i, line_j, d_i, d_j in cases:
        inst = parse_scenario(line_i + "\n" + line_j + "\n", g)
        ai, aj = inst.agents
        cs = ConstraintSet()
        mi = build_mdd_e(ai, d_i, cs, g)
        mj = build_mdd_e(aj, d_j, cs, g)
        joint = build_joint(mi, mj)
        expected = joint_levels_by_enumeration(ai, aj, g, cs, cs, d_i, d_j)
        got = {}
        for t, pairs in joint_levels(joint).items():
            for ca, cb in pairs:
                got.setdefault(t, set()).add((_as_state(ca, t), _as_state(cb, t)))
        assert got == expected, (line_i, line_j, d_i, d_j)
    # the last case is complete and passes through in-shaft components
    assert joint_complete(joint) and len(joint_levels(joint)) == 9
    assert sum(c.time > t for t, pairs in joint_levels(joint).items()
               for pair in pairs for c in pair) == 4


def _as_state(comp, t):
    if comp.time <= t:
        return ("n", comp.vertex, comp.elevator, comp.board_time)
    return ("s", None, comp.elevator, comp.board_time)


def test_padding_parks_the_finished_agent():
    g = parse_map("type mapf-e\nfloors 1\nheight 1\nwidth 4\ntfloor 1\n....\n")
    short = Agent(0, Vertex(1, 0, 0), Vertex(1, 1, 0))
    mover = Agent(1, Vertex(1, 3, 0), Vertex(1, 0, 0))
    m_short = build_mdd_e(short, 1, ConstraintSet(), g)
    m_mover = build_mdd_e(mover, 3, ConstraintSet(), g)
    joint = build_joint(m_short, m_mover)
    # the mover's only cost-3 route crosses the parked goal at t=2
    assert not joint_complete(joint)


def _ct(paths, omegas):
    return SimpleNamespace(paths=paths, omegas=omegas)


def _diagrams(node, c, graph, agents, mdds=None):
    """The conflict's two MDD-Es in a CT node, c.i's first, from `mdds` or
    a fresh `MddECache`; None for one over the node cap."""
    mdds = MddECache(graph, agents) if mdds is None else mdds
    return tuple(mdds.get(k, node.paths[k].cost, node.omegas[k]) for k in (c.i, c.j))


def _ban(c, agent_id):
    """The agent's side of the conflict, the ban in `c.sides()`."""
    return dict(c.sides())[agent_id]


def _cross_case(flat3):
    # i crosses the center horizontally with two routes; j vertically with
    # two routes; both current paths pass (1,0) at t=1
    i = Agent(0, Vertex(1, 0, 0), Vertex(1, 1, 1))
    j = Agent(1, Vertex(1, 2, 0), Vertex(1, 0, 1))
    pi = [(Vertex(1, 0, 0), 0), (Vertex(1, 1, 0), 1), (Vertex(1, 1, 1), 2)]
    pj = [(Vertex(1, 2, 0), 0), (Vertex(1, 1, 0), 1), (Vertex(1, 0, 0), 2),
          (Vertex(1, 0, 1), 3)]
    from mapfe.sipp import Path
    return i, j, Path(tuple(pi)), Path(tuple(pj))


def test_classify_cardinal(flat3):
    from mapfe.cbs import VertexConflict
    from mapfe.sipp import Path
    i = Agent(0, Vertex(1, 0, 1), Vertex(1, 2, 1))
    j = Agent(1, Vertex(1, 1, 0), Vertex(1, 1, 2))
    pi = plan(i, flat3, ConstraintSet())
    pj = plan(j, flat3, ConstraintSet())
    node = _ct([pi, pj], [ConstraintSet(), ConstraintSet()])
    c = VertexConflict(0, 1, Vertex(1, 1, 1), 1)
    assert classify(c, *_diagrams(node, c, flat3, (i, j))) == (CARDINAL, ())
    assert find_bypass(c, *_diagrams(node, c, flat3, (i, j))) is None


def test_classify_semi_cardinal(flat3):
    from mapfe.cbs import VertexConflict
    from mapfe.sipp import Path
    i = Agent(0, Vertex(1, 0, 0), Vertex(1, 1, 1))     # two routes
    j = Agent(1, Vertex(1, 2, 0), Vertex(1, 0, 0))     # single route via (1,0)
    pi = Path(((Vertex(1, 0, 0), 0), (Vertex(1, 1, 0), 1), (Vertex(1, 1, 1), 2)))
    pj = Path(((Vertex(1, 2, 0), 0), (Vertex(1, 1, 0), 1), (Vertex(1, 0, 0), 2)))
    node = _ct([pi, pj], [ConstraintSet(), ConstraintSet()])
    c = VertexConflict(0, 1, Vertex(1, 1, 0), 1)
    label, found = classify(c, *_diagrams(node, c, flat3, (i, j)))
    assert label == SEMI_CARDINAL and [a for a, _ in found] == [0]
    # enumeration agrees: j has no equal-cost path avoiding (1,0)@1
    assert all((Vertex(1, 1, 0), 1) in p for p in enumerate_cost_d_paths(j, flat3, ConstraintSet(), 2))
    assert any((Vertex(1, 1, 0), 1) not in p for p in enumerate_cost_d_paths(i, flat3, ConstraintSet(), 2))


def test_classify_non_cardinal_and_bypass(flat3):
    # both cross the center but each has a corner detour of equal cost
    from mapfe.cbs import VertexConflict
    from mapfe.cbs import enumerate_conflicts
    from mapfe.sipp import Path
    i = Agent(0, Vertex(1, 0, 1), Vertex(1, 1, 0))
    j = Agent(1, Vertex(1, 2, 1), Vertex(1, 1, 2))
    pi = Path(((Vertex(1, 0, 1), 0), (Vertex(1, 1, 1), 1), (Vertex(1, 1, 0), 2)))
    pj = Path(((Vertex(1, 2, 1), 0), (Vertex(1, 1, 1), 1), (Vertex(1, 1, 2), 2)))
    node = _ct([pi, pj], [ConstraintSet(), ConstraintSet()])
    c = VertexConflict(0, 1, Vertex(1, 1, 1), 1)
    label, found = classify(c, *_diagrams(node, c, flat3, (i, j)))
    assert label == NON_CARDINAL
    assert [a for a, _ in found] == [0, 1]
    assert find_bypass(c, *_diagrams(node, c, flat3, (i, j))) == found[0]
    agent_id, new_path = found[0]
    assert new_path.cost == node.paths[agent_id].cost
    # adopting the bypass removes this conflict from the joint plan
    paths = [pi, pj]
    paths[agent_id] = new_path
    remaining = enumerate_conflicts(paths, flat3)
    assert all(not (c2.kind == "vertex" and c2.v == c.v and c2.time == c.t)
               for c2 in remaining)


def test_size_cap_falls_back_to_cardinal(monkeypatch):
    g = parse_map("type mapf-e\nfloors 1\nheight 4\nwidth 4\ntfloor 1\n"
                  + "....\n" * 4)
    from mapfe.cbs import VertexConflict
    i = Agent(0, Vertex(1, 0, 0), Vertex(1, 3, 3))
    j = Agent(1, Vertex(1, 3, 0), Vertex(1, 0, 3))
    pi = plan(i, g, ConstraintSet())
    pj = plan(j, g, ConstraintSet())
    node = _ct([pi, pj], [ConstraintSet(), ConstraintSet()])
    c = VertexConflict(0, 1, Vertex(1, 1, 0), 1)
    monkeypatch.setattr(mdd_mod, "NODE_CAP", 3)
    assert classify(c, *_diagrams(node, c, g, (i, j))) == (CARDINAL, None)


def test_boarding_conflict_is_cardinal_when_one_elevator(corridor2):
    from mapfe.elevator import detect_elevator_conflicts
    inst = parse_scenario("1 0 0 2 3 0\n1 4 0 2 0 0\n", corridor2)
    paths = [plan(a, corridor2, ConstraintSet()) for a in inst.agents]
    (c,) = detect_elevator_conflicts(paths, corridor2)
    node = _ct(paths, [ConstraintSet(), ConstraintSet()])
    label, _ = classify(c, *_diagrams(node, c, corridor2, inst.agents))
    assert label == CARDINAL


def _parked_in_the_way():
    """Agent 0's own MDD-E reaches its goal (2,4) at t=6 through (2,3) or
    (3,4) at t=5, so `_unavoidable` leaves its side of a conflict at (3,4)@5
    open. Agent 1 arrives at (2,3) at t=5 and parks there, so no joint path
    avoids (3,4)@5 and agent 0's search exhausts every pair it can reach;
    agent 1 has a bypass."""
    g = parse_map("type mapf-e\nfloors 1\nheight 5\nwidth 5\ntfloor 1\n" + ".....\n" * 5)
    agents = (Agent(0, Vertex(1, 4, 0), Vertex(1, 2, 4)), Agent(1, Vertex(1, 0, 0), Vertex(1, 2, 3)))
    return g, agents, VertexConflict(0, 1, Vertex(1, 3, 4), 5)


def test_joint_over_its_cap_is_cardinal_without_bypass(monkeypatch):
    # both MDD-Es fit under the cap; the joint search of the side without a
    # bypass does not
    g, agents, c = _parked_in_the_way()
    node = _ct([plan(a, g, ConstraintSet()) for a in agents], [ConstraintSet(), ConstraintSet()])
    cap = 20
    joints: dict = {}
    label, found = classify(c, *_diagrams(node, c, g, agents), joints)
    (joint,) = joints.values()
    assert label == SEMI_CARDINAL and [a for a, _ in found] == [1] and joint.pairs > cap
    assert not mdd_mod._unavoidable(joint.mdd_a, _ban(c, 0))
    monkeypatch.setattr(mdd_mod, "NODE_CAP", cap)
    mdds = [build_mdd_e(a, p.cost, ConstraintSet(), g) for a, p in zip(agents, node.paths)]
    assert [sum(map(len, m.levels.values())) for m in mdds] == [15, 12]
    assert classify(c, *_diagrams(node, c, g, agents)) == (CARDINAL, None)
    assert find_bypass(c, *_diagrams(node, c, g, agents)) is None


def test_unavoidable_side_sees_a_ride_spanning_the_level():
    # two equal-cost routes: ride elevator 0 at t=1 (in the shaft at t=2 and
    # t=3), or walk to elevator 1 and ride at t=3; level 2 holds only the
    # walker's cell, which the rider's route still avoids
    g = parse_map("type mapf-e\nfloors 2\nheight 1\nwidth 5\ntfloor 3\nE...E\nE...E\n")
    a = Agent(0, Vertex(1, 1, 0), Vertex(2, 3, 0))
    mdd = build_mdd_e(a, 7, ConstraintSet(), g)
    assert _vset(mdd, 2) == {Vertex(1, 3, 0)}
    c = VertexConflict(0, 1, Vertex(1, 3, 0), 2)
    assert not mdd_mod._unavoidable(mdd, _ban(c, 0))
    paths = enumerate_cost_d_paths(a, g, ConstraintSet(), 7)
    assert any(not path_commits(c, 0, p, g) for p in paths)
    at_goal = VertexConflict(0, 1, Vertex(2, 3, 0), 7)
    assert mdd_mod._unavoidable(mdd, _ban(at_goal, 0))


# Enumeration budget of `test_classify_matches_enumeration`: a conflict is
# checked only when both agents' costs and path counts are within it, since
# enumerating all paths grows exponentially with the cost.
ENUM_COST_CAP = 14
ENUM_PATH_CAP = 500
ENUM_MIN_CHECKED = 100  # about 260 are checked; generation may vary across Hypothesis versions
# CT expansions each solve may make. A fixed budget, not a time limit, stops
# the solves that do not finish, so the labels checked are the same on any
# host and under any load.
ENUM_EXPANSIONS = 15


class _Spent(Exception):
    """A solve reached `ENUM_EXPANSIONS`."""


def test_classify_matches_enumeration():
    """Every label the solver computes equals the one from enumerating all
    path pairs, and every side the single-MDD-E test calls unavoidable is
    committed by every cost-exact path of that agent. Conflicts over the
    enumeration budget are counted and skipped; enough labels must remain.
    Each solve stops after `ENUM_EXPANSIONS` expansions; no time limit
    binds."""
    counts = {"checked": 0, "skipped": 0, "unavoidable": 0}

    @settings(max_examples=25, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(multi_floor_instances())
    def check(instance):
        graph, agents = instance.graph, instance.agents
        real, find = mdd_mod.classify, _Solver._find_conflict
        nodes = []  # this solve's expanded nodes, the one being classified last

        def finding(self, node):
            if len(nodes) == ENUM_EXPANSIONS:
                raise _Spent
            nodes.append(node)
            return find(self, node)

        def checked(c, *args, **kwargs):
            label, found = real(c, *args, **kwargs)
            node = nodes[-1]
            costs = [p.cost for p in node.paths]
            expected = None
            if max(costs[c.i], costs[c.j]) <= ENUM_COST_CAP:
                expected = classify_by_enumeration(c, agents, graph, node.omegas, costs,
                                                   ENUM_PATH_CAP)
            if expected is None:
                counts["skipped"] += 1
                return label, found
            assert label == expected, c
            counts["checked"] += 1
            for a, ban in c.sides():
                own = build_mdd_e(agents[a], costs[a], node.omegas[a], graph)
                if mdd_mod._unavoidable(own, ban):
                    paths = enumerate_cost_d_paths(agents[a], graph, node.omegas[a], costs[a])
                    assert all(path_commits(c, a, p, graph) for p in paths), (c, a)
                    counts["unavoidable"] += 1
            return label, found

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mdd_mod, "classify", checked)
            mp.setattr(_Solver, "_find_conflict", finding)
            for ec in (False, True):
                nodes.clear()
                with contextlib.suppress(_Spent):
                    solve(instance, SolverConfig(ec_enabled=ec, mdde_enabled=True, time_limit=math.inf))

    check()
    print(f"\nenumeration: {counts}")
    assert counts["checked"] >= ENUM_MIN_CHECKED, counts


def test_each_side_bans_exactly_the_paths_that_commit_it():
    """For every side of every conflict of the root and of the root's
    children, the agent's paths of its cost, and of one more (which leaves
    room to wait), under its constraint set plus the side's ban are exactly
    its paths of that cost under the set that `reference.path_commits` says
    stay out of that side. Agents over the enumeration budget are skipped;
    sides of all four kinds must remain."""
    checked: dict[str, int] = {}

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(multi_floor_instances(agents=(3, 5)))
    def check(instance):
        graph, agents = instance.graph, instance.agents
        solver = _Solver(instance, SolverConfig(ec_enabled=True, mdde_enabled=True))
        root = solver._make_root()
        if root is None:
            return
        nodes = [root] + [child for c in root.conflicts for child in solver._branch(root, c)]
        for node in nodes:
            solver._scan(node)  # a child is generated unscanned
            for c in node.conflicts:
                for (a, ban), d in itertools.product(c.sides(), (0, 1)):
                    omega, d = node.omegas[a], node.paths[a].cost + d
                    if d > ENUM_COST_CAP:
                        continue
                    paths = enumerate_cost_d_paths(agents[a], graph, omega, d, ENUM_PATH_CAP)
                    if paths is None:
                        continue
                    kept = enumerate_cost_d_paths(agents[a], graph, omega.with_ban(ban), d)
                    assert len(kept) == len(set(kept))
                    assert set(kept) == {p for p in paths if not path_commits(c, a, p, graph)}, \
                        (c, a, ban, d)
                    checked[c.kind] = checked.get(c.kind, 0) + 1

    check()
    print(f"\nsides checked: {checked}")
    assert sorted(checked) == ["boarding", "edge", "occupancy", "vertex"], checked


def test_occupancy_rider_ban_starts_exactly_one_window_before_the_presence():
    """The rider may board at t=1, 2 or 3 in a cost-5 path. A presence at
    its floor-1 door at t=4 lies in the busy window [b, b + 2] of a
    boarding at b=2 or 3, so the rider's side bans those boardings and
    keeps b=1. b=2 is exactly one window before the presence: a ban that
    starts a step late keeps a committing path."""
    g = parse_map("type mapf-e\nfloors 2\nheight 1\nwidth 3\ntfloor 1\n.E.\n.E.\n")
    rider = Agent(0, Vertex(1, 0, 0), Vertex(2, 2, 0))
    c = ElevatorConflict("occupancy", 0, 1, 0, 4, ElevatorUsage(0, 0, 2, 1, 2, 1), None,
                         Vertex(1, 1, 0))
    paths = enumerate_cost_d_paths(rider, g, ConstraintSet(), 5)
    boardings = {p: next(t for (v, t), (w, _) in itertools.pairwise(p) if w.floor != v.floor)
                 for p in paths}
    assert set(boardings.values()) == {1, 2, 3}
    kept = enumerate_cost_d_paths(rider, g, ConstraintSet().with_ban(_ban(c, 0)), 5)
    assert set(kept) == {p for p in paths if not path_commits(c, 0, p, g)}
    assert {boardings[p] for p in kept} == {1}


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(multi_floor_instances())
def test_depth_first_bypass_equals_the_breadth_first_reference(instance):
    """On every conflict of the root and of the root's children, each side's
    depth-first bypass search returns the components the breadth-first
    reference returns, and expands no more joint pairs (each search runs on
    a fresh joint)."""
    graph, agents = instance.graph, instance.agents
    solver = _Solver(instance, SolverConfig(ec_enabled=True, mdde_enabled=True))
    root = solver._make_root()
    if root is None:
        return
    nodes = [root] + [child for c in root.conflicts for child in solver._branch(root, c)]
    for node in nodes:
        solver._scan(node)  # a child is generated unscanned
        for c in node.conflicts:
            for agent_id, ban in c.sides():
                mdd_i, mdd_j = _diagrams(node, c, graph, agents, solver.mdds)
                pair = (mdd_i, mdd_j) if c.i < c.j else (mdd_j, mdd_i)
                depth, breadth = (build_joint(*pair) for _ in range(2))
                comps = mdd_mod._bypass_comps(depth, agent_id, ban)
                assert comps == bypass_comps_breadth_first(breadth, agent_id, ban), (c, agent_id)
                assert depth.pairs <= breadth.pairs


def _banned_sets(rng, graph, agent, count):
    """A chain of constraint sets, each its parent plus one random vertex,
    edge or boarding ban, as CT branching derives them; many bans fall
    where no cost-d path goes, so equal diagrams come up."""
    cells = [v for v in graph.vertices() if graph.passable(v)]
    sets = [ConstraintSet()]
    for _ in range(count):
        cs = rng.choice(sets)
        kind = rng.choice(["vertex", "edge", "boarding"] if graph.elevators else ["vertex", "edge"])
        lo = rng.randint(0, 8)
        if kind == "vertex":
            v = rng.choice(cells)
            if v != agent.start:
                sets.append(cs.with_ban(("vertex", v, lo, lo + rng.randint(0, 2))))
        elif kind == "edge":
            v = rng.choice(cells)
            moves = [u for u in cells if u.floor == v.floor and abs(u.x - v.x) + abs(u.y - v.y) == 1]
            if moves:
                sets.append(cs.with_ban(("edge", v, rng.choice(moves), lo)))
        else:
            e = rng.choice(graph.elevators)
            sets.append(cs.with_ban(("boarding", e.id, rng.randint(1, graph.floors), lo,
                                     lo + rng.randint(0, 3))))
    return sets


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(multi_floor_instances(), st.integers(0, 2**32 - 1))
def test_cache_returns_fresh_diagrams_one_object_per_distinct_diagram(instance, seed):
    rng = random.Random(seed)
    graph, agents = instance.graph, instance.agents
    mdds = MddECache(graph, agents)
    returned = []
    for agent in agents:
        base = plan(agent, graph, ConstraintSet())
        if base is None:
            continue  # the goal is out of reach
        for cs in _banned_sets(rng, graph, agent, 8):
            for d in (base.cost, base.cost + 1, base.cost + 2):
                mdd = mdds.get(agent.id, d, cs)
                fresh = build_mdd_e(agent, d, cs, graph)
                assert (mdd.levels, mdd.edges) == (fresh.levels, fresh.edges)
                returned.append(mdd)
    assert mdds.builds + mdds.reuses == len(returned)
    assert len({id(m) for m in returned}) == mdds.builds - mdds.shared
    for a in returned:
        for b in returned:
            equal = (a.agent, a.d, a.levels, a.edges) == (b.agent, b.d, b.levels, b.edges)
            assert (a is b) == equal


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(multi_floor_instances(), st.integers(0, 2**32 - 1))
def test_joint_successors_equal_the_reference_product_filter(instance, seed):
    """Every expanded pair's successors, at every level of the product of
    two agents' MDD-Es (costs up to 2 above optimal, random bans), equal
    the filtered product of the reference transitions, order included."""
    rng = random.Random(seed)
    graph, agents = instance.graph, instance.agents
    base = {a: plan(a, graph, ConstraintSet()) for a in agents}
    for a, b in zip(agents, agents[1:]):
        if base[a] is None or base[b] is None:
            continue  # a goal is out of reach
        mdd_a, mdd_b = (build_mdd_e(x, base[x].cost + rng.randint(0, 2),
                                    rng.choice(_banned_sets(rng, graph, x, 3)), graph)
                        for x in (a, b))
        joint = build_joint(mdd_a, mdd_b)
        for t, pairs in joint_levels(joint).items():
            if t == joint.t_end:
                continue
            for pair in pairs:
                assert joint.successors(t, pair) == joint_successors(joint, t, pair, True), (t, pair)
