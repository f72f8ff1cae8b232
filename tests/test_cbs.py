import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mapfe.bench import ExperimentConfig, gen_instance
from mapfe.cbs import (
    EdgeConflict,
    PathStructureError,
    SolverConfig,
    VertexConflict,
    _Solver,
    enumerate_conflicts,
    solve,
    validate,
)
from mapfe.model import Vertex, parse_map, parse_scenario
from mapfe.oracle import oracle_solve
from mapfe.sipp import ConstraintSet, Path, plan


ALL_VARIANTS = [(False, False), (True, False), (False, True), (True, True)]


def _solve(instance, ec=True, mdde=True, limit=30.0):
    return solve(instance, SolverConfig(ec_enabled=ec, mdde_enabled=mdde, time_limit=limit))


def test_single_agent_equals_low_level(flat3):
    inst = parse_scenario("1 0 0 1 2 2\n", flat3)
    result = _solve(inst)
    assert result.status == "solved"
    assert result.solution.g == plan(inst.agents[0], flat3, ConstraintSet()).cost == 4
    assert result.stats.expanded == 1 and result.stats.generated == 1


def test_empty_instance_is_trivially_solved(flat3):
    inst = parse_scenario("", flat3)
    result = _solve(inst)
    assert result.status == "solved" and result.solution.g == 0


def test_disjoint_agents_solved_at_the_root(strip3):
    # different floors, no elevator demand: sum of individual optima
    inst = parse_scenario("1 0 0 1 2 0\n3 2 0 3 0 0\n", strip3)
    result = _solve(inst)
    assert result.status == "solved"
    assert result.solution.g == 4
    assert result.stats.expanded == 1


def test_shared_elevator_toy_matches_oracle(strip3):
    inst = parse_scenario("1 0 0 2 2 0\n3 0 0 2 0 0\n", strip3)
    expected = oracle_solve(inst)
    for ec, mdde in ALL_VARIANTS:
        result = _solve(inst, ec, mdde)
        assert result.status == "solved"
        assert result.solution.g == expected.g == 9
        assert not validate(inst, list(result.solution.paths))


def test_ec_branches_once_baseline_many(strip3):
    inst = parse_scenario("1 0 0 2 2 0\n3 0 0 2 0 0\n", strip3)
    with_ec = _solve(inst, ec=True, mdde=False)
    assert with_ec.stats.branchings.get("boarding") == 1
    assert with_ec.stats.expanded == 2
    baseline = _solve(inst, ec=False, mdde=False)
    assert baseline.stats.branchings.get("boarding", 0) >= 3


def _paths_for(inst, graph):
    return [plan(a, graph, ConstraintSet()) for a in inst.agents]


def test_find_conflict_none_when_clean(strip3):
    inst = parse_scenario("1 0 0 1 2 0\n3 2 0 3 0 0\n", strip3)
    assert enumerate_conflicts(_paths_for(inst, strip3), strip3) == []


def test_single_vertex_conflict_is_chosen_under_any_config(flat3):
    inst = parse_scenario("1 0 1 1 2 1\n1 1 0 1 1 2\n", flat3)
    paths = _paths_for(inst, flat3)
    conflicts = enumerate_conflicts(paths, flat3)
    assert [c for c in conflicts if c.kind == "vertex"] == [
        VertexConflict(0, 1, Vertex(1, 1, 1), 1)]
    for mdde in (False, True):
        solver = _Solver(inst, SolverConfig(mdde_enabled=mdde, time_limit=10))
        root = solver._make_root()
        chosen, _, _ = solver._find_conflict(root)
        assert chosen == VertexConflict(0, 1, Vertex(1, 1, 1), 1)


def test_door_vertex_conflict_gives_way_to_the_boarding_conflict_with_ec(strip3):
    # both agents step onto the floor-2 door at t=1 and board there at t=1,
    # one riding down and one up: a vertex conflict at the door and a
    # boarding conflict of the same pair, at the same instant
    inst = parse_scenario("2 0 0 1 0 0\n2 2 0 3 2 0\n", strip3)
    door = Vertex(2, 1, 0)
    for ec, mdde in ALL_VARIANTS:
        solver = _Solver(inst, SolverConfig(ec_enabled=ec, mdde_enabled=mdde, time_limit=10))
        root = solver._make_root()
        assert [c.kind for c in root.conflicts] == ["vertex", "boarding"]
        assert root.conflicts[0] == VertexConflict(0, 1, door, 1)
        chosen, _, _ = solver._find_conflict(root)
        # the range split bans both boardings over the busy window; a plain
        # boarding split bans one instant, so without ec the vertex stays first
        assert chosen.kind == ("boarding" if ec else "vertex"), (ec, mdde)
        assert solver.stats.door_skips == int(ec)
        assert root.conflict_count == 2


@st.composite
def door_crowds(draw):
    """2-3 floors of a small grid with one elevator; 2-3 agents start next
    to its door, each on a floor drawn from the first two, and have goals
    on other floors, so pairs often board from one door at one instant."""
    floors = draw(st.integers(2, 3))
    width, height = draw(st.integers(3, 4)), draw(st.integers(1, 2))
    cells = [(x, y) for y in range(height) for x in range(width)]
    door = draw(st.sampled_from(cells))
    near = [(x, y) for x, y in cells if abs(x - door[0]) + abs(y - door[1]) == 1]
    rows = ["".join("E" if (x, y) == door else "." for x in range(width)) for y in range(height)]
    header = ["type mapf-e", f"floors {floors}", f"height {height}", f"width {width}",
              f"tfloor {draw(st.integers(1, 2))}"]
    graph = parse_map("\n".join(header + rows * floors) + "\n")
    starts = draw(st.lists(st.sampled_from([(f, x, y) for f in (1, 2) for x, y in near]),
                           min_size=2, max_size=3, unique=True))
    spots = [(f, x, y) for f in range(1, floors + 1) for x, y in cells if (x, y) != door]
    goals = draw(st.lists(st.sampled_from(spots), min_size=len(starts),
                          max_size=len(starts), unique=True))
    assume(all(s[0] != g[0] for s, g in zip(starts, goals)))
    return parse_scenario("".join(f"{s[0]} {s[1]} {s[2]} {g[0]} {g[1]} {g[2]}\n"
                                  for s, g in zip(starts, goals)), graph)


def test_door_skips_keep_the_optimum_of_the_oracle():
    # crowds at one door: every variant's g equals the oracle's, and with
    # ec on some solves pass over dominated door vertex conflicts
    skips = []

    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(door_crowds())
    def sweep(inst):
        expected = oracle_solve(inst)
        assume(expected.status == "solved")  # a corridor may deadlock
        for ec, mdde in ALL_VARIANTS:
            got = _solve(inst, ec, mdde, limit=20)
            assert got.status == "solved", (ec, mdde)
            assert got.solution.g == expected.g, (ec, mdde)
            assert validate(inst, list(got.solution.paths)) == []
            if ec:
                skips.append(got.stats.door_skips)
            else:
                assert got.stats.door_skips == 0

    sweep()
    skipping = sum(1 for k in skips if k > 0)
    print(f"\nec solves that passed over door conflicts: {skipping} of {len(skips)}")
    assert skipping >= 5, skips


CROSS_MAP = """type mapf-e
floors 1
height 5
width 9
tfloor 1
@@.@@....
@@.@@....
.........
@@.@@....
@@.@@....
"""


def test_conflict_selection_prefers_the_later_cardinal():
    g = parse_map(CROSS_MAP)
    # bottleneck pair collides at t=2 with no alternatives; open-area pair
    # collides at t=1 with corner detours on both sides
    inst = parse_scenario(
        "1 0 2 1 4 2\n"
        "1 2 0 1 2 4\n"
        "1 6 1 1 7 0\n"
        "1 8 1 1 7 2\n", g)
    paths = [
        Path(tuple((Vertex(1, x, 2), x) for x in range(5))),
        Path(tuple((Vertex(1, 2, y), y) for y in range(5))),
        Path(((Vertex(1, 6, 1), 0), (Vertex(1, 7, 1), 1), (Vertex(1, 7, 0), 2))),
        Path(((Vertex(1, 8, 1), 0), (Vertex(1, 7, 1), 1), (Vertex(1, 7, 2), 2))),
    ]
    from mapfe.cbs import CTNode
    node = CTNode(paths, sum(p.cost for p in paths), [ConstraintSet()] * 4,
                  enumerate_conflicts(paths, g), 1)
    assert {c.time for c in node.conflicts} == {1, 2}
    solver = _Solver(inst, SolverConfig(mdde_enabled=True, time_limit=10))
    chosen, _, label = solver._find_conflict(node)
    assert label == "cardinal"
    assert (chosen.i, chosen.j, chosen.time) == (0, 1, 2)
    plain = _Solver(inst, SolverConfig(mdde_enabled=False, time_limit=10))
    first, _, _ = plain._find_conflict(node)
    assert first.time == 1


def test_children_grow_their_constraint_sets(flat3):
    inst = parse_scenario("1 0 1 1 2 1\n1 1 0 1 1 2\n", flat3)
    solver = _Solver(inst, SolverConfig(time_limit=10))
    root = solver._make_root()
    conflict, _, _ = solver._find_conflict(root)
    children = solver._branch(root, conflict)
    assert len(children) == 2

    def banned_steps(cs):  # edge bans, plus the time steps of vertex and boarding bans
        return len(cs.edge_bans) + sum(hi - lo + 1 for bans in (cs.vertex_bans, cs.boarding_bans)
                                       for ivs in bans.values() for lo, hi in ivs)

    for child in children:
        grew = [i for i in range(2) if banned_steps(child.omegas[i]) > banned_steps(root.omegas[i])]
        assert len(grew) == 1
        assert child.g >= root.g


def test_edge_conflict_detection_and_branching():
    g = parse_map("type mapf-e\nfloors 1\nheight 2\nwidth 4\ntfloor 1\n....\n....\n")
    pi = Path(((Vertex(1, 0, 0), 0), (Vertex(1, 1, 0), 1)))
    pj = Path(((Vertex(1, 1, 0), 0), (Vertex(1, 0, 0), 1)))
    conflicts = enumerate_conflicts([pi, pj], g)
    assert EdgeConflict(0, 1, Vertex(1, 0, 0), Vertex(1, 1, 0), 0) in conflicts
    inst = parse_scenario("1 0 0 1 2 0\n1 2 0 1 0 0\n", g)
    result = _solve(inst)
    assert result.status == "solved"
    assert result.solution.g == oracle_solve(inst).g == 6


def test_validate_accepts_solver_output_and_flags_mutations(strip3):
    inst = parse_scenario("1 0 0 2 2 0\n3 0 0 2 0 0\n", strip3)
    result = _solve(inst)
    paths = list(result.solution.paths)
    assert validate(inst, paths) == []
    # shift the second agent one tick earlier through the known conflict
    shifted = Path(tuple((v, t - 1) for v, t in paths[1].steps[1:]))
    bad = [paths[0], shifted]
    with pytest.raises(PathStructureError):
        validate(inst, bad)
    # a legal-but-conflicting alternative: both ride at t=1
    greedy = [plan(a, strip3, ConstraintSet()) for a in inst.agents]
    assert any(c.kind == "boarding" for c in validate(inst, greedy))


def test_validate_rejects_disconnected_and_double_ride(corridor2):
    inst = parse_scenario("1 0 0 1 3 0\n", corridor2)
    with pytest.raises(PathStructureError, match="start"):
        validate(inst, [Path(((Vertex(1, 1, 0), 0),))])
    jumpy = Path(((Vertex(1, 0, 0), 0), (Vertex(1, 3, 0), 1)))
    with pytest.raises(PathStructureError, match="illegal"):
        validate(inst, [jumpy])


def _steps(text: str) -> Path:
    """A path from `l,x,y@t` tokens."""
    steps = []
    for token in text.split():
        cell, t = token.split("@")
        steps.append((Vertex(*map(int, cell.split(","))), int(t)))
    return Path(tuple(steps))


def test_validate_rejects_a_ride_that_turns_round_in_the_shaft(strip3):
    inst = parse_scenario("1 0 0 2 2 0\n", strip3)
    # up to floor 3 and back down to 2: read as one ride, it would be a 1->2
    # ride whose busy window ends two floor times early
    overshoot = _steps("1,0,0@0 1,1,0@1 2,1,0@2 3,1,0@3 2,1,0@4 2,2,0@5")
    with pytest.raises(PathStructureError, match="agent 0: a ride turns round in the shaft"):
        validate(inst, [overshoot])
    # a ride back to the boarding floor names the agent too
    inst = parse_scenario("1 0 0 1 2 0\n", strip3)
    round_trip = _steps("1,0,0@0 1,1,0@1 2,1,0@2 1,1,0@3 1,2,0@4")
    with pytest.raises(PathStructureError, match="agent 0: a ride turns round in the shaft"):
        validate(inst, [round_trip])
    # the straight ride to floor 2 stays valid
    straight = _steps("1,0,0@0 1,1,0@1 2,1,0@2 2,2,0@3")
    assert validate(parse_scenario("1 0 0 2 2 0\n", strip3), [straight]) == []


def test_timeout_is_reported():
    g = parse_map("type mapf-e\nfloors 1\nheight 1\nwidth 2\ntfloor 1\n..\n")
    inst = parse_scenario("1 0 0 1 1 0\n1 1 0 1 0 0\n", g)  # unsolvable swap
    result = solve(inst, SolverConfig(time_limit=0.2))
    assert result.status == "timeout"
    assert result.solution is None and result.stats.solved is False
    assert result.stats.lower_bound >= 2  # the root's cost; the swap never resolves


def test_time_limit_must_be_a_positive_number():
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="time_limit"):
            SolverConfig(time_limit=bad)
    g = parse_map("type mapf-e\nfloors 1\nheight 1\nwidth 2\ntfloor 1\n..\n")
    inst = parse_scenario("1 0 0 1 0 0\n", g)
    assert solve(inst, SolverConfig(time_limit=float("inf"))).status == "solved"


def test_infeasible_when_an_agent_is_walled_in():
    g = parse_map("type mapf-e\nfloors 1\nheight 1\nwidth 3\ntfloor 1\n.@.\n")
    inst = parse_scenario("1 0 0 1 2 0\n", g)
    assert solve(inst, SolverConfig(time_limit=5)).status == "infeasible"


def test_variant_agreement_and_validation_on_random_instances():
    for trial in range(10):
        cfg = ExperimentConfig(size=6, obstacle_rate=0.1, floors=2, elevators=2,
                               tfloor=2, agents=[3], instances=1)
        inst = gen_instance(cfg, 3, seed=7100 + trial)
        costs = set()
        for ec, mdde in ALL_VARIANTS:
            result = _solve(inst, ec, mdde, limit=20)
            assert result.status == "solved"
            assert validate(inst, list(result.solution.paths)) == []
            costs.add(result.solution.g)
        assert len(costs) == 1


def test_determinism_of_solution_and_counts():
    cfg = ExperimentConfig(size=6, obstacle_rate=0.1, floors=2, elevators=2,
                           tfloor=3, agents=[4], instances=1)
    inst = gen_instance(cfg, 4, seed=99)
    for ec, mdde in ALL_VARIANTS:
        a = _solve(inst, ec, mdde)
        b = _solve(inst, ec, mdde)
        assert a.solution.paths == b.solution.paths
        assert (a.stats.expanded, a.stats.generated, a.stats.branchings, a.stats.bypasses) == \
               (b.stats.expanded, b.stats.generated, b.stats.branchings, b.stats.bypasses)


def test_bypass_keeps_cost_and_satisfies_constraints():
    # mdde runs adopt bypasses somewhere in this batch; cost equality with
    # the oracle plus validation covers conditions (i)-(iii)
    adopted = 0
    for trial in range(12):
        cfg = ExperimentConfig(size=5, obstacle_rate=0.0, floors=1, elevators=0,
                               tfloor=1, agents=[3], instances=1)
        inst = gen_instance(cfg, 3, seed=880 + trial)
        result = _solve(inst, ec=True, mdde=True)
        assert result.status == "solved"
        assert result.solution.g == oracle_solve(inst).g
        assert validate(inst, list(result.solution.paths)) == []
        adopted += result.stats.bypasses
    assert adopted > 0


def test_open_order_is_gated_on_cost_then_conflicts(strip3):
    inst = parse_scenario("1 0 0 2 2 0\n3 0 0 2 0 0\n", strip3)
    result = _solve(inst, ec=True, mdde=False)
    stats = result.stats
    assert stats.generated >= stats.expanded
