"""Work the solver does once per solve, and the incremental conflict lists.

A child CT node replans one agent and looks up only that agent's pairs
of paths, and only once it reaches the top of the open list; its
conflict list must equal a full `enumerate_conflicts`, order included,
and the solver must expand the nodes a solver that scans every child at
once expands. The search counters pinned below were produced by the
full-rescan solver, so any drift in the search itself shows here.
"""
import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mapfe
from mapfe import elevator
from mapfe.bench import ExperimentConfig, gen_instance
from mapfe.cbs import (SolverConfig, VertexConflict, _conflict_key, _pair_grid_conflicts, _Solver,
                       _timeline, enumerate_conflicts, solve, validate)
from mapfe.elevator import RideSummaries, detect_elevator_conflicts, pair_elevator_conflicts
from mapfe.mdd import MddECache, MddENode, build_mdd_e
from mapfe.model import Agent, Vertex, parse_map, parse_scenario, ride_visits
from mapfe.sipp import ConstraintSet, Path as Plan, plan

from reference import BOARD, MOVE, enumerate_cost_d_paths, grid_conflicts, mdd_path_set, neighbors

ALL_VARIANTS = [(False, False), (True, False), (False, True), (True, True)]


@st.composite
def multi_floor_instances(draw, floors=(2, 4), agents=(2, 4)):
    """Floors sharing one obstacle layout, 1-2 elevators with their own
    per-floor travel times, agents with distinct starts and goals; floor
    and agent counts are drawn from the closed ranges given, 2-4 each by
    default."""
    floors = draw(st.integers(*floors))
    width, height = draw(st.integers(3, 5)), draw(st.integers(2, 4))
    cells = [(x, y) for y in range(height) for x in range(width)]
    doors = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=2, unique=True))
    doors.sort(key=lambda c: (c[1], c[0]))  # elevator ids are row-major
    tfloors = draw(st.lists(st.integers(1, 3), min_size=len(doors), max_size=len(doors)))
    blocked = draw(st.sets(st.sampled_from([c for c in cells if c not in doors]),
                           max_size=len(cells) // 5))
    rows = ["".join("E" if (x, y) in doors else "@" if (x, y) in blocked else "."
                    for x in range(width)) for y in range(height)]
    header = ["type mapf-e", f"floors {floors}", f"height {height}", f"width {width}",
              "tfloor 1"] + [f"tfloor_k {k} {t}" for k, t in enumerate(tfloors)]
    graph = parse_map("\n".join(header + rows * floors) + "\n")
    spots = [(f, x, y) for f in range(1, floors + 1) for x, y in cells
             if (x, y) not in doors and (x, y) not in blocked]
    n = draw(st.integers(agents[0], min(agents[1], len(spots))))
    starts = draw(st.lists(st.sampled_from(spots), min_size=n, max_size=n, unique=True))
    goals = draw(st.lists(st.sampled_from(spots), min_size=n, max_size=n, unique=True))
    scenario = "".join(f"{s[0]} {s[1]} {s[2]} {g[0]} {g[1]} {g[2]}\n" for s, g in zip(starts, goals))
    return parse_scenario(scenario, graph)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(multi_floor_instances())
def test_incremental_conflicts_equal_a_full_scan(instance):
    # every list but the root's comes from `_rescan`: popped children's
    # deferred scans and bypass candidates alike
    rescan = _Solver._rescan

    def checked_rescan(self, conflicts, k, paths):
        conflicts = rescan(self, conflicts, k, paths)
        assert conflicts == enumerate_conflicts(paths, self.graph)
        return conflicts

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Solver, "_rescan", checked_rescan)
        for ec, mdde in ALL_VARIANTS:
            result = solve(instance, SolverConfig(ec_enabled=ec, mdde_enabled=mdde,
                                                  time_limit=0.25))
            if result.status == "solved":
                assert validate(instance, list(result.solution.paths)) == []


def _random_walk(rng: random.Random, graph, agent) -> Plan:
    """A path of up to 12 random waits, moves and at most one ride from the
    agent's start, ending anywhere: small maps make such walks share cells,
    swap and run into each other's parked ends."""
    v, t, rode = agent.start, 0, False
    steps = [(v, t)]
    for _ in range(rng.randint(0, 12)):
        u, cost, kind = rng.choice(neighbors(graph, v, rode))
        if kind == BOARD:
            steps += ride_visits(graph, graph.elevator_at(v).id, v.floor, u.floor, t)
            rode = True
        else:
            steps.append((u, t + cost))
        v, t = u, t + cost
    return Plan(tuple(steps))


def _grid_tuples(conflicts) -> list[tuple]:
    """A scan's vertex and edge conflicts in `reference.grid_conflicts` form."""
    return sorted(("vertex", c.i, c.j, c.v, c.t) if c.kind == "vertex"
                  else ("edge", c.i, c.j, c.u, c.w, c.t)
                  for c in conflicts if c.kind in ("vertex", "edge"))


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(multi_floor_instances(agents=(2, 5)), st.integers(0, 2**32 - 1))
def test_grid_scans_equal_the_pairwise_timeline_reference(instance, seed):
    """The vertex and edge conflicts of the full scan, and of each pair's
    grid scan, equal the pairwise timeline scan's (`reference.grid_conflicts`)
    on random walks, each conflict listed once."""
    rng = random.Random(seed)
    graph = instance.graph
    paths = [_random_walk(rng, graph, agent) for agent in instance.agents]
    expected = grid_conflicts(paths)
    assert _grid_tuples(enumerate_conflicts(paths, graph)) == expected
    for i, j in itertools.combinations(range(len(paths)), 2):
        found = []
        _pair_grid_conflicts(_timeline(paths[i]), paths[j], i, j, found)
        assert _grid_tuples(found) == [c for c in expected if c[1:3] == (i, j)]


class _Enough(Exception):
    """Ends a solve after a fixed number of expansions."""


class _EagerSolver(_Solver):
    """Scans every child as it is generated, so each is queued under its
    exact conflict count."""

    def _branch(self, node, c):
        children = super()._branch(node, c)
        for child in children:
            self._scan(child)
        return children


def _expansions(solver_type, instance, config, cap=200):
    """(seq, g, conflict count) of each node the solver expands, in order,
    up to `cap` expansions."""
    expanded = []

    class Recording(solver_type):
        def _find_conflict(self, node):
            expanded.append((node.seq, node.g, len(node.conflicts)))
            if len(expanded) == cap:
                raise _Enough
            return super()._find_conflict(node)

    try:
        Recording(instance, config).run()
    except _Enough:
        pass
    return expanded


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(multi_floor_instances())
def test_deferred_scans_expand_the_nodes_eager_scans_expand(instance):
    for ec, mdde in ALL_VARIANTS:
        config = SolverConfig(ec_enabled=ec, mdde_enabled=mdde, time_limit=60)
        eager = _expansions(_EagerSolver, instance, config)
        assert _expansions(_Solver, instance, config) == eager, (ec, mdde)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(multi_floor_instances(agents=(3, 6)))
def test_pair_scans_equal_the_full_scans_filtered(instance):
    """On the plans of the CT nodes a plain CBS solve generates, each
    pair's elevator scan is the full elevator scan's conflicts of that
    pair, in its order, and the pair's grid and elevator scans together
    are the full scan's conflicts of that pair."""
    graph = instance.graph
    plans = []

    class Collecting(_Solver):
        def _branch(self, node, c):
            children = super()._branch(node, c)
            plans.extend(child.paths for child in children)
            if len(plans) >= 40:
                raise _Enough
            return children

    solver = Collecting(instance, SolverConfig(ec_enabled=False, mdde_enabled=False,
                                               time_limit=0.25))
    try:
        solver.run()
    except _Enough:
        pass
    for paths in plans:
        full = enumerate_conflicts(paths, graph)
        lifts = detect_elevator_conflicts(paths, graph)
        rides = RideSummaries(graph)
        for i, j in itertools.combinations(range(len(paths)), 2):
            # an occupancy conflict lists its rider first, whatever the ids
            ours = {i, j}
            found = pair_elevator_conflicts(i, j, rides.get(i, paths[i]), rides.get(j, paths[j]))
            assert found == [c for c in lifts if {c.i, c.j} == ours]
            _pair_grid_conflicts(_timeline(paths[i]), paths[j], i, j, found)
            assert sorted(found, key=_conflict_key) == [c for c in full if {c.i, c.j} == ours]


def test_equal_step_sequences_are_one_path(flat3):
    # a scan's pair memo is keyed by path identity, so the solve must hand
    # out one path object per distinct step sequence, bypasses included
    instance = parse_scenario("1 0 0 1 2 0\n1 0 2 1 2 2\n", flat3)
    solver = _Solver(instance, SolverConfig())
    steps = ((Vertex(1, 0, 0), 0), (Vertex(1, 1, 0), 1), (Vertex(1, 2, 0), 2))
    first = solver._intern(Plan(steps))
    again = solver._intern(Plan(tuple((Vertex(v.floor, v.x, v.y), t) for v, t in steps)))
    assert first is again and first == Plan(steps)
    other = solver._intern(Plan(steps[:2] + ((Vertex(1, 1, 1), 2),)))
    assert other is not first and other.steps[1] is first.steps[1]
    # plans are interned: two plans of one agent under two empty sets
    # (two memo keys) are one path object
    assert solver._plan(0, ConstraintSet()) is solver._plan(0, ConstraintSet())


def test_pair_scan_sees_a_shared_start(flat3):
    # no scenario starts two agents on one vertex, but a plan may
    paths = [Plan(((Vertex(1, 0, 0), 0), (Vertex(1, 1, 0), 1))),
             Plan(((Vertex(1, 0, 0), 0), (Vertex(1, 0, 1), 1)))]
    full = enumerate_conflicts(paths, flat3)
    assert full == [VertexConflict(0, 1, Vertex(1, 0, 0), 0)]
    found = []
    _pair_grid_conflicts(_timeline(paths[0]), paths[1], 0, 1, found)
    assert found == full


@pytest.mark.parametrize("runner_first", [False, True])
def test_a_pair_scans_to_the_later_arrival_of_its_two_paths(flat3, runner_first):
    # the runner reaches the parked agent's goal at t = 4, after every
    # other path has ended (the parked agent's and a third at t = 1), so
    # only a pair horizon of the later arrival of the two catches it,
    # whichever of the two has the lower id
    v = lambda x, y: Vertex(1, x, y)
    parked = Plan(((v(0, 0), 0), (v(1, 0), 1)))
    third = Plan(((v(2, 2), 0), (v(2, 1), 1)))
    runner = Plan(((v(0, 2), 0), (v(0, 2), 1), (v(0, 1), 2), (v(0, 0), 3), (v(1, 0), 4),
                   (v(2, 0), 5)))
    plan = [runner, third, parked] if runner_first else [parked, third, runner]
    scenario = "".join(f"1 {p.steps[0][0].x} {p.steps[0][0].y} 1 {p.end.x} {p.end.y}\n"
                       for p in plan)
    instance = parse_scenario(scenario, flat3)
    expected = [VertexConflict(0, 2, v(1, 0), 4)]
    assert validate(instance, plan) == expected
    solver = _Solver(instance, SolverConfig())
    paths = tuple(solver._intern(p) for p in plan)
    for k in (0, 2):  # the pair looked up from either side, from an empty list
        assert solver._rescan([], k, paths) == expected
    assert solver._rescan(expected, 1, paths) == expected


# (N, seed) -> per variant in ALL_VARIANTS order: (g, expanded, generated,
# bypasses, branchings), as produced by the solver that rescanned every
# agent pair for every CT node.
PINNED = {
    (4, 777_001): [(43, 3, 5, 0, {"boarding": 1, "edge": 1}),
                   (43, 3, 5, 0, {"boarding": 1, "edge": 1}),
                   (43, 2, 1, 1, {}),
                   (43, 2, 1, 1, {})],
    (6, 777_002): [(49, 38, 75, 0, {"boarding": 19, "edge": 4, "occupancy": 4, "vertex": 10}),
                   (49, 19, 37, 0, {"boarding": 6, "edge": 4, "vertex": 8}),
                   (49, 13, 21, 2, {"boarding": 8, "vertex": 2}),
                   (49, 6, 7, 2, {"boarding": 1, "vertex": 2})],
    (6, 777_004): [(39, 102, 203, 0, {"boarding": 58, "edge": 3, "occupancy": 14, "vertex": 26}),
                   (39, 21, 41, 0, {"boarding": 10, "edge": 3, "occupancy": 3, "vertex": 4}),
                   (39, 57, 107, 3, {"boarding": 37, "occupancy": 6, "vertex": 10}),
                   (39, 6, 5, 3, {"boarding": 2})],
    (6, 777_006): [(58, 20, 39, 0, {"boarding": 15, "edge": 1, "vertex": 3}),
                   (58, 6, 11, 0, {"boarding": 3, "edge": 1, "vertex": 1}),
                   (58, 12, 17, 3, {"boarding": 7, "vertex": 1}),
                   (58, 6, 7, 2, {"boarding": 3})],
}


# Tower family (6x6, 4 floors, 2 elevators, tfloor 2, N=4): in-shaft door
# visits and multi-floor reset windows. Values from the solver that built
# every MDD-E afresh and the whole joint MDD-E for every classification;
# 779_020's two elevator-constraint rows since selection passes over door
# vertex conflicts that a same-instant boarding conflict dominates.
PINNED_TOWER = {
    779_009: [(39, 64, 127, 0, {"boarding": 59, "edge": 1, "occupancy": 2, "vertex": 1}),
              (39, 8, 15, 0, {"boarding": 3, "edge": 1, "occupancy": 2, "vertex": 1}),
              (39, 37, 69, 2, {"boarding": 31, "edge": 1, "occupancy": 1, "vertex": 1}),
              (39, 7, 9, 2, {"boarding": 1, "edge": 1, "occupancy": 1, "vertex": 1})],
    779_020: [(42, 69, 137, 0, {"boarding": 32, "vertex": 36}),
              (42, 21, 41, 0, {"boarding": 2, "vertex": 18}),
              (42, 77, 121, 16, {"boarding": 22, "vertex": 38}),
              (42, 22, 37, 3, {"boarding": 2, "vertex": 16})],
    779_023: [(48, 27, 53, 0, {"boarding": 22, "edge": 1, "occupancy": 1, "vertex": 2}),
              (48, 13, 25, 0, {"boarding": 8, "edge": 1, "occupancy": 1, "vertex": 2}),
              (48, 29, 45, 6, {"boarding": 18, "edge": 1, "occupancy": 1, "vertex": 2}),
              (48, 14, 17, 5, {"boarding": 6, "edge": 1, "vertex": 1})],
}


def test_pair_memo_answers_most_scans_on_a_desk_seed():
    # desk seed 777063 under range constraints without MDD-Es: its 1,061
    # scans look up 5,305 (replanned agent, other agent) pairs, and the
    # solve's memo of path pairs answers 4,122 of them; the search counters
    # are the full-rescan solver's
    cfg = ExperimentConfig(size=8, obstacle_rate=0.1, floors=2, elevators=3,
                           tfloor=3, agents=[6], instances=1)
    result = solve(gen_instance(cfg, 6, seed=777_063),
                   SolverConfig(ec_enabled=True, mdde_enabled=False, time_limit=60))
    s = result.stats
    assert result.status == "solved"
    assert (result.solution.g, s.expanded, s.generated, s.bypasses, s.branchings) == \
        (48, 1007, 2013, 0, {"boarding": 409, "edge": 159, "occupancy": 6, "vertex": 432})
    assert (s.scans, s.plans, s.door_skips) == (1061, 528, 309)
    assert s.pair_hits == 4122


def _check_pinned(cfg, n, seed, pinned):
    instance = gen_instance(cfg, n, seed=seed)
    for (ec, mdde), expected in zip(ALL_VARIANTS, pinned):
        result = solve(instance, SolverConfig(ec_enabled=ec, mdde_enabled=mdde, time_limit=60))
        s = result.stats
        assert result.status == "solved", (ec, mdde)
        assert (result.solution.g, s.expanded, s.generated, s.bypasses, s.branchings) == expected, \
            (ec, mdde)


@pytest.mark.parametrize("n, seed", sorted(PINNED))
def test_search_counters_are_pinned_on_c7_seeds(n, seed):
    cfg = ExperimentConfig(size=8, obstacle_rate=0.1, floors=2, elevators=3,
                           tfloor=3, agents=[n], instances=1)
    _check_pinned(cfg, n, seed, PINNED[(n, seed)])


TOWER = ExperimentConfig(size=6, obstacle_rate=0.1, floors=4, elevators=2,
                         tfloor=2, agents=[4], instances=1)


@pytest.mark.parametrize("seed", sorted(PINNED_TOWER))
def test_search_counters_are_pinned_on_tower_seeds(seed):
    _check_pinned(TOWER, 4, seed, PINNED_TOWER[seed])


@pytest.mark.parametrize("ec, expected", [(False, (91, 34, 1258, 811)), (True, (27, 9, 540, 3))])
def test_joint_counters_are_pinned_on_a_tower_seed(ec, expected):
    # tower seed 779_020 with MDD-E on: (classify_calls, label_hits,
    # joint_pairs, ride_cuts); a change to which joint pairs the bypass
    # searches expand moves joint_pairs even when the search counters stay
    result = solve(gen_instance(TOWER, 4, seed=779_020),
                   SolverConfig(ec_enabled=ec, mdde_enabled=True, time_limit=60))
    s = result.stats
    assert result.status == "solved"
    assert (s.classify_calls, s.label_hits, s.joint_pairs, s.ride_cuts) == expected


def test_solver_builds_one_heuristic_per_agent(monkeypatch):
    from mapfe import sipp
    built = []
    heuristic = sipp._Heuristic

    def counting(agent, graph, index):
        built.append(agent.id)
        return heuristic(agent, graph, index)

    cfg = ExperimentConfig(size=8, obstacle_rate=0.1, floors=2, elevators=3,
                           tfloor=3, agents=[6], instances=1)
    instance = gen_instance(cfg, 6, seed=777_002)  # its routability check builds heuristics too
    monkeypatch.setattr(sipp, "_Heuristic", counting)
    result = solve(instance, SolverConfig(time_limit=60))
    assert result.stats.expanded > 1
    assert built == list(range(6))


def test_solver_builds_one_mdd_e_per_constraint_set(monkeypatch):
    from mapfe import mdd
    built = []
    build = mdd.build_mdd_e

    def counting(agent, d, constraints, *args):
        built.append((agent.id, d, id(constraints)))
        return build(agent, d, constraints, *args)

    monkeypatch.setattr(mdd, "build_mdd_e", counting)
    cfg = ExperimentConfig(size=8, obstacle_rate=0.1, floors=2, elevators=3,
                           tfloor=3, agents=[6], instances=1)
    result = solve(gen_instance(cfg, 6, seed=777_004), SolverConfig(time_limit=60))
    # the solve's memo holds every constraint set it built for, so no id repeats
    assert len(built) == len(set(built)) == result.stats.mdd_builds
    assert result.stats.mdd_reuses > 0


def test_equal_mdd_es_are_one_object(monkeypatch):
    from mapfe import mdd
    returned = []
    shared = mdd.MddECache._shared

    def recording(self, diagram):
        returned.append(shared(self, diagram))
        return returned[-1]

    monkeypatch.setattr(mdd.MddECache, "_shared", recording)
    cfg = ExperimentConfig(size=8, obstacle_rate=0.1, floors=2, elevators=3,
                           tfloor=3, agents=[6], instances=1)
    result = solve(gen_instance(cfg, 6, seed=777_007), SolverConfig(time_limit=60))
    s = result.stats
    assert result.status == "solved"
    # some builds repeat an earlier diagram under another constraint set
    assert 0 < s.mdd_shared < s.mdd_builds == len(returned)
    assert len({id(m) for m in returned}) == s.mdd_builds - s.mdd_shared


def _random_set(rng, graph, agent, doors):
    """A constraint set of up to five bans, made by `with_ban`: vertex bans
    on doors and on the goal, edge bans on grid moves, and boarding bans on
    the start floor and on any floor."""
    cells = [v for v in graph.vertices() if graph.passable(v)]
    cs = ConstraintSet()
    for _ in range(rng.randint(0, 5)):
        kind = rng.choice(["door", "goal", "edge", "boarding", "boarding-start"])
        lo = rng.randint(1, 8)
        e = rng.choice(graph.elevators)
        if kind == "door":
            cs = cs.with_ban(("vertex", rng.choice(doors), lo, lo + rng.randint(0, 2)))
        elif kind == "goal":
            cs = cs.with_ban(("vertex", agent.goal, lo, lo))
        elif kind == "edge":
            v = rng.choice(cells)
            moves = [u for u, _, how in neighbors(graph, v, True) if how == MOVE]
            if moves:
                cs = cs.with_ban(("edge", v, rng.choice(moves), lo))
        else:
            floor = agent.start_floor if kind == "boarding-start" else rng.randint(1, graph.floors)
            cs = cs.with_ban(("boarding", e.id, floor, lo, lo + rng.randint(0, 3)))
    return cs


def _bans_of_each_kind(rng, graph, agent, diagram, doors):
    """One child ban of each kind, aimed at the diagram's nodes where it
    has one to aim at: a vertex ban on a node, a ban on a door the agent
    visits while boarded (inside the shaft or at the ride's end), a goal
    ban before, at or after the cost, an edge ban on a grid move, and
    boarding bans on the start floor and on another floor."""
    d = diagram.d
    nodes = [n for level in diagram.levels.values() for n in level] or [
        MddENode(agent.start, 0, -1, -1)]
    grid_moves = [(n, m) for n in nodes for m in diagram.edges.get(n, ())
                  if m.time == n.time + 1 and m.vertex != n.vertex
                  and m.vertex.floor == n.vertex.floor]
    rode = [n for n in nodes if n.elevator != -1]
    at_doors = [n for n in rode if graph.elevator_at(n.vertex) is not None]
    n = rng.choice(nodes)
    door = (rng.choice(at_doors) if at_doors
            else MddENode(rng.choice(doors), rng.randint(1, 8), -1, -1))
    t_goal = rng.randint(max(1, d - 2), d + 2)
    bans = [("vertex", n.vertex, n.time, n.time + rng.randint(0, 1)),
            ("vertex", door.vertex, door.time, door.time),
            ("vertex", agent.goal, t_goal, t_goal)]
    if grid_moves:
        u, w = rng.choice(grid_moves)
        bans.append(("edge", u.vertex, w.vertex, u.time))
    ride = rng.choice(rode) if rode else MddENode(agent.start, 0, rng.choice(graph.elevators).id,
                                                  rng.randint(0, 8))
    bans.append(("boarding", ride.elevator, agent.start_floor,
                 ride.board_time - rng.randint(0, 1), ride.board_time + rng.randint(0, 1)))
    other = [f for f in range(1, graph.floors + 1) if f != agent.start_floor]
    bans.append(("boarding", ride.elevator, rng.choice(other), 0, d))
    return bans


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(multi_floor_instances(agents=(1, 3)), st.integers(0, 2**32 - 1))
def test_a_derived_mdd_e_equals_a_build_for_every_ban_kind(instance, seed):
    # a child set's diagram at its parent set's cost is pruned from the
    # parent's: it must equal a build under the child set, level order and
    # tuple order included, and hold exactly the child's cost-d paths
    rng = random.Random(seed)
    graph = instance.graph
    doors = [graph.door(e.id, f) for e in graph.elevators for f in range(1, graph.floors + 1)]
    for agent in instance.agents:
        parent = _random_set(rng, graph, agent, doors)
        base = plan(agent, graph, parent)
        if base is None:
            continue  # the goal is out of reach
        mdds = MddECache(graph, instance.agents)
        diagram = mdds.get(agent.id, base.cost, parent)
        children = {id(parent.with_ban(ban)): parent.with_ban(ban)
                    for ban in _bans_of_each_kind(rng, graph, agent, diagram, doors)}
        for child in children.values():
            derived = mdds.get(agent.id, base.cost, child)
            fresh = build_mdd_e(agent, base.cost, child, graph)
            assert list(derived.levels.items()) == list(fresh.levels.items()), child.ban
            assert derived.edges == fresh.edges, child.ban
            paths = enumerate_cost_d_paths(agent, graph, child, base.cost, limit=2000)
            if paths is not None:
                assert mdd_path_set(derived) == set(paths), child.ban
        assert mdds.derived == len(children) == mdds.builds - 1


def test_derived_mdd_e_cases(strip3):
    # floor 1 to floor 3 through the floor-2 door, with one tick to spare
    agent = Agent(0, Vertex(1, 0, 0), Vertex(3, 2, 0))
    root = ConstraintSet()
    mdds = MddECache(strip3, [agent])
    parent = mdds.get(0, 5, root)
    assert {n.board_time for n in parent.levels[4] if n.elevator != -1} == {1, 2}

    def derive(ban):
        child = root.with_ban(ban)
        derived = mdds.get(0, 5, child)
        fresh = build_mdd_e(agent, 5, child, strip3)
        assert (derived.levels, derived.edges) == (fresh.levels, fresh.edges)
        return derived

    # the floor-2 door inside the shaft at t=2 cuts the rides boarded at 1
    inside = derive(("vertex", Vertex(2, 1, 0), 2, 2))
    assert {n.board_time for level in inside.levels.values() for n in level
            if n.elevator != -1} == {2}
    # a goal ban after the cost blocks parking, which no node shows
    assert derive(("vertex", agent.goal, 6, 6)).empty
    # a boarding ban on a floor the agent does not board from changes nothing
    shared = mdds.shared
    assert derive(("boarding", 0, 2, 0, 10)) is parent
    assert mdds.shared == shared + 1
    assert mdds.derived == 3


def test_every_diagram_a_solve_makes_equals_a_build(monkeypatch):
    # desk seeds under the full solver: every cache miss, built or derived
    # from its set's parent, equals a fresh build under its key
    from mapfe import mdd
    get = mdd.MddECache.get
    made = []

    def checking(self, agent_id, d, constraints):
        miss = (agent_id, d, constraints) not in self.entries
        diagram = get(self, agent_id, d, constraints)
        if miss:
            fresh = build_mdd_e(self.agents[agent_id], d, constraints, self.graph)
            assert (diagram.levels, diagram.edges) == (fresh.levels, fresh.edges)
            made.append(agent_id)
        return diagram

    monkeypatch.setattr(mdd.MddECache, "get", checking)
    cfg = ExperimentConfig(size=8, obstacle_rate=0.1, floors=2, elevators=3,
                           tfloor=3, agents=[6], instances=1)
    builds = derived = 0
    for seed in range(777_000, 777_010):
        s = solve(gen_instance(cfg, 6, seed=seed),
                  SolverConfig(ec_enabled=True, mdde_enabled=True, time_limit=60)).stats
        builds += s.mdd_builds
        derived += s.mdd_derived
        assert 0 <= s.mdd_build_time < s.runtime
    assert len(made) == builds
    assert derived > 0


def test_solver_plans_once_per_constraint_set(monkeypatch):
    from mapfe import cbs
    planned = []
    plan = cbs.plan

    def counting(agent, graph, constraints, *args):
        planned.append((agent.id, id(constraints)))
        return plan(agent, graph, constraints, *args)

    monkeypatch.setattr(cbs, "plan", counting)
    cfg = ExperimentConfig(size=8, obstacle_rate=0.1, floors=2, elevators=3,
                           tfloor=3, agents=[6], instances=1)
    result = solve(gen_instance(cfg, 6, seed=777_002),
                   SolverConfig(mdde_enabled=False, time_limit=60))
    # sibling subtrees derive the same child set from the same (set, ban),
    # and the solve's memo holds every set it planned, so no id repeats
    assert result.status == "solved"
    assert len(planned) == len(set(planned)) == result.stats.plans
    assert result.stats.plan_reuses > 0


def test_each_path_is_summarised_once_per_solve(monkeypatch):
    # the solve's ride summaries are kept per path, so each path of a
    # scanned pair is summarised once, and the goal certificate's scan
    # summarises every path of the plan again
    summarised = []
    extract = elevator.extract_ride

    def counting(steps, graph, agent):
        summarised.append((agent, steps))
        return extract(steps, graph, agent)

    monkeypatch.setattr(elevator, "extract_ride", counting)
    cfg = ExperimentConfig(size=8, obstacle_rate=0.1, floors=2, elevators=3,
                           tfloor=3, agents=[6], instances=1)
    solver = _Solver(gen_instance(cfg, 6, seed=777_004), SolverConfig(time_limit=60))
    result = solver.run()
    stats = result.stats
    assert result.status == "solved" and stats.bypasses > 0
    scanned, certificate = summarised[:-6], summarised[-6:]
    assert len(set(scanned)) == len(scanned) == len({p for key in solver.pairs
                                                     for p in divmod(key, 1 << 32)})
    assert {steps for _, steps in scanned} <= set(solver.interned)
    assert certificate == [(a, p.steps) for a, p in enumerate(result.solution.paths)]
    assert 0 < stats.plan_time < stats.runtime


# Drops the first conflict of every rescan, so the search reaches
# a goal node whose plan still has a conflict; run under -O, where asserts
# are gone, the goal certificate must still refuse it.
_DROPPING_RESCAN = """
if __debug__:
    raise SystemExit("expected to run under python -O")
from mapfe import cbs
from mapfe.model import parse_map, parse_scenario

rescan = cbs._Solver._rescan

def dropping(self, conflicts, k, paths):
    return rescan(self, conflicts, k, paths)[1:]

cbs._Solver._rescan = dropping
graph = parse_map("type mapf-e\\nfloors 3\\nheight 1\\nwidth 3\\ntfloor 1\\n.E.\\n.E.\\n.E.\\n")
instance = parse_scenario("1 0 0 2 2 0\\n3 0 0 2 0 0\\n", graph)
cbs.solve(instance, cbs.SolverConfig(ec_enabled=False, mdde_enabled=False, time_limit=10))
print("returned a plan")
"""


def test_goal_certificate_survives_python_O():
    src = str(Path(mapfe.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", _DROPPING_RESCAN],
                          env={"PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0, proc.stdout
    assert "returned a plan" not in proc.stdout
    assert "RuntimeError: goal node" in proc.stderr
    assert "unlisted conflicts" in proc.stderr
