import random

import pytest

from mapfe.elevator import (
    ElevatorConflict,
    ElevatorUsage,
    busy_interval,
    detect_elevator_conflicts,
    ec_constraints,
    usages_overlap,
)
from mapfe.model import Vertex, parse_map, parse_scenario
from mapfe.sipp import ConstraintSet, plan

from reference import replay_elevator_conflicts


def usage(agent, k, t_s, l_s, l_g, t_floor):
    return ElevatorUsage(agent, k, t_s, l_s, l_g, t_floor)


def test_busy_interval():
    assert busy_interval(usage(0, 0, 1, 1, 2, 1), next_floor=1) == (1, 3)
    assert busy_interval(usage(0, 0, 5, 1, 3, 3), next_floor=3) == (5, 11)
    assert busy_interval(usage(0, 0, 0, 1, 2, 1), next_floor=1) == (0, 2)


def test_usages_overlap_closed_boundary():
    u_i = usage(0, 0, 1, 1, 2, 1)
    assert usages_overlap(u_i, usage(1, 0, 3, 1, 2, 1)) is True   # 3 in [1, 3]
    assert usages_overlap(u_i, usage(1, 0, 4, 1, 2, 1)) is False  # one past the end
    assert usages_overlap(u_i, usage(1, 0, 1, 2, 1, 1)) is True   # same start time


def test_usages_overlap_is_symmetric():
    rng = random.Random(3)
    for _ in range(300):
        t_floor = rng.randint(1, 4)
        floors = list(range(1, 6))
        lsa, lga = rng.sample(floors, 2)
        lsb, lgb = rng.sample(floors, 2)
        u_a = usage(0, 0, rng.randint(0, 15), lsa, lga, t_floor)
        u_b = usage(1, 0, rng.randint(0, 15), lsb, lgb, t_floor)
        assert usages_overlap(u_a, u_b) == usages_overlap(u_b, u_a)


def test_usages_overlap_rejects_mismatched_elevators():
    with pytest.raises(ValueError):
        usages_overlap(usage(0, 0, 1, 1, 2, 1), usage(1, 1, 1, 1, 2, 1))


def test_ec_constraints_worked_example():
    # both boardings at t=1, one-floor rides, unit travel time
    c = ElevatorConflict("boarding", 0, 1, 0, 1,
                         usage(0, 0, 1, 1, 2, 1), usage(1, 0, 1, 3, 2, 1))
    omega_i, omega_j = ec_constraints(c)
    assert omega_i == (0, ("boarding", 0, 1, 1, 3))
    assert omega_j == (1, ("boarding", 0, 3, 1, 3))


def test_ec_constraints_asymmetric_windows():
    # staggered boardings: one-floor rides at t_floor=3, one-floor resets
    c = ElevatorConflict("boarding", 0, 1, 0, 6,
                         usage(0, 0, 2, 1, 2, 3), usage(1, 0, 6, 3, 2, 3))
    omega_i, omega_j = ec_constraints(c)
    assert omega_i == (0, ("boarding", 0, 1, 2, 12))  # [t_s^i, t_s^j + 3 + 3]
    assert omega_j == (1, ("boarding", 0, 3, 6, 8))   # [t_s^j, t_s^i + 3 + 3]


def test_disjunctive_intervals_always_intersect():
    # any boarding pair drawn from the two range constraints still overlaps
    rng = random.Random(17)
    for _ in range(500):
        t_floor = rng.randint(1, 3)
        floors = list(range(1, 5))
        lsa, lga = rng.sample(floors, 2)
        lsb, lgb = rng.sample(floors, 2)
        u_a = usage(0, 0, rng.randint(0, 8), lsa, lga, t_floor)
        u_b = usage(1, 0, rng.randint(0, 8), lsb, lgb, t_floor)
        if not usages_overlap(u_a, u_b):
            continue
        i, j = (u_a, u_b) if u_a.agent < u_b.agent else (u_b, u_a)
        c = ElevatorConflict("boarding", 0, 1, 0, max(u_a.t_s, u_b.t_s), u_a, u_b)
        (_, (*_, lo_i, hi_i)), (_, (*_, lo_j, hi_j)) = ec_constraints(c)
        t_r_a = abs(lga - lsb) * t_floor
        t_r_b = abs(lgb - lsa) * t_floor
        for x in range(lo_i, hi_i + 1):
            for y in range(lo_j, hi_j + 1):
                in_a = (x, x + u_a.t_o + t_r_a)
                in_b = (y, y + u_b.t_o + t_r_b)
                assert in_a[0] <= in_b[1] and in_b[0] <= in_a[1]


def test_occupancy_constraints():
    u = usage(0, 0, 1, 1, 2, 1)
    c = ElevatorConflict("occupancy", 0, 1, 0, 3, u, None, Vertex(1, 1, 0))
    # the occupier's side first, off the door at that instant
    branch_a, branch_b = c.sides()
    assert branch_a == (1, ("vertex", Vertex(1, 1, 0), 3, 3))
    assert branch_b == (0, ("boarding", 0, 1, 1, 3))


def test_occupancy_interval_clamped_at_zero():
    u = usage(0, 0, 0, 1, 4, 1)
    c = ElevatorConflict("occupancy", 0, 1, 0, 1, u, None, Vertex(4, 1, 0))
    _, (_, ban) = c.sides()
    assert ban[3:] == (0, 1)  # 1 - 3 - 0 clamps to 0


def _corridor_paths(graph):
    inst = parse_scenario("1 0 0 2 3 0\n1 4 0 2 0 0\n", graph)
    return [plan(a, graph, ConstraintSet()) for a in inst.agents]


def test_detect_reset_window_conflict(corridor2):
    paths = _corridor_paths(corridor2)
    conflicts = detect_elevator_conflicts(paths, corridor2)
    assert [(c.kind, c.i, c.j, c.time) for c in conflicts] == [("boarding", 0, 1, 3)]


def test_detect_disjoint_elevators_no_conflict():
    g = parse_map("type mapf-e\nfloors 2\nheight 1\nwidth 5\ntfloor 1\n.E.E.\n.E.E.\n")
    inst = parse_scenario("1 0 0 2 0 0\n1 4 0 2 4 0\n", g)
    paths = [plan(a, g, ConstraintSet()) for a in inst.agents]
    assert detect_elevator_conflicts(paths, g) == []


def test_boarding_after_window_is_legal(corridor2):
    # delay the second boarding to t_g + reset + 1 = 4: no conflict remains
    inst = parse_scenario("1 0 0 2 3 0\n1 4 0 2 0 0\n", corridor2)
    p0 = plan(inst.agents[0], corridor2, ConstraintSet())
    cs = ConstraintSet().with_ban(("boarding", 0, 1, 0, 3))
    p1 = plan(inst.agents[1], corridor2, cs)
    assert p1.cost == 6
    assert detect_elevator_conflicts([p0, p1], corridor2) == []


def test_detect_matches_replay_scan_on_random_paths():
    rng = random.Random(11)
    from mapfe.bench import ExperimentConfig, gen_instance
    for trial in range(25):
        cfg = ExperimentConfig(size=5, obstacle_rate=0.1, floors=2 + trial % 3, elevators=2,
                               tfloor=rng.choice([1, 2]), agents=[3], instances=1)
        inst = gen_instance(cfg, 3, seed=300 + trial)
        paths = [plan(a, inst.graph, ConstraintSet()) for a in inst.agents]
        got = {("boarding", c.i, c.j, c.elevator, c.time) if c.kind == "boarding"
               else ("occupancy", c.i, c.j, c.elevator, c.vertex, c.time)
               for c in detect_elevator_conflicts(paths, inst.graph)}
        assert got == replay_elevator_conflicts(paths, inst.graph)


def test_conflict_free_plans_never_share_a_shaft():
    from mapfe.bench import ExperimentConfig, gen_instance
    from mapfe.cbs import solve, SolverConfig
    from mapfe.elevator import extract_ride
    for trial in range(12):
        cfg = ExperimentConfig(size=5, obstacle_rate=0.0, floors=3, elevators=1,
                               tfloor=2, agents=[3], instances=1)
        inst = gen_instance(cfg, 3, seed=40 + trial)
        result = solve(inst, SolverConfig(time_limit=20))
        if result.solution is None:
            continue
        spans = []
        for a, path in enumerate(result.solution.paths):
            u = extract_ride(path.steps, inst.graph, a)
            if u is not None:
                spans.append((u.elevator, u.t_s, u.t_g))
        for (k1, s1, g1) in spans:
            for (k2, s2, g2) in spans:
                if (k1, s1, g1) != (k2, s2, g2) and k1 == k2:
                    assert g1 < s2 or g2 < s1  # one agent inside at a time
