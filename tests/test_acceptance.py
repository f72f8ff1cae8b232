"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavy randomized
sweeps (criteria 1 and 7) dominate the runtime; everything is seeded and
deterministic apart from wall-clock time limits.
"""
import random
import statistics

from mapfe.bench import ExperimentConfig, gen_instance, run_suite
from mapfe.cbs import SolverConfig, solve, validate
from mapfe.elevator import ElevatorConflict, ElevatorUsage, detect_elevator_conflicts, ec_constraints, usages_overlap
from mapfe.mdd import build_joint, build_mdd_e
from mapfe.model import Agent, Vertex, parse_map, parse_scenario
from mapfe.oracle import oracle_solve
from mapfe.sipp import ConstraintSet, Path, plan

from conftest import FLAT_3X3, THREE_FLOOR_STRIP, TWO_FLOOR_CORRIDOR
from reference import joint_complete, joint_vertex_pairs, level_vertex_pairs, time_expanded_plan
from test_sipp import _random_case

ALL_VARIANTS = {
    "cbs": (False, False),
    "cbs+ec": (True, False),
    "cbs+mdde": (False, True),
    "cbs+ec+mdde": (True, True),
}


def test_c1_solver_matches_exhaustive_optimum():
    """Every variant returns the brute-force joint optimum on 200+ seeded
    random two-floor instances; rare per-variant timeouts (hard seeds for
    the weak baselines) skip the instance but never mask a disagreement."""
    compared = 0
    skipped = []
    for trial in range(215):
        n = 2 + (trial % 2)
        tfloor = 1 if (trial // 2) % 2 == 0 else 3
        elevators = 1 + (trial % 3)
        cfg = ExperimentConfig(size=8, obstacle_rate=0.1, floors=2,
                               elevators=elevators, tfloor=tfloor,
                               agents=[n], instances=1)
        inst = gen_instance(cfg, n, seed=100_000 + trial)
        expected = oracle_solve(inst)
        assert expected.status == "solved"
        outcomes = {}
        for name, (ec, mdde) in ALL_VARIANTS.items():
            r = solve(inst, SolverConfig(ec_enabled=ec, mdde_enabled=mdde,
                                         time_limit=10))
            outcomes[name] = r
        if any(r.status == "timeout" for r in outcomes.values()):
            skipped.append(trial)
            continue
        for name, r in outcomes.items():
            assert r.status == "solved", (trial, name, r.status)
            assert r.solution.g == expected.g, (trial, name, r.solution.g, expected.g)
        compared += 1
    assert compared >= 200, f"only {compared} instances fully compared"
    print(f"\nPASS criterion 1: all four variants equal the joint-search optimum "
          f"on {compared} instances (skipped hard seeds: {skipped})")


def test_c2_busy_interval_split_is_disjunctive():
    """For 10,000 random boarding conflicts, every pair of re-boardings
    drawn from the two range constraints still has intersecting busy
    intervals, so the branching loses no conflict-free solution."""
    rng = random.Random(271828)
    tuples = 0
    pairs = 0
    while tuples < 10_000:
        t_floor = rng.randint(1, 2)
        floors = list(range(1, 5))
        lsa, lga = rng.sample(floors, 2)
        lsb, lgb = rng.sample(floors, 2)
        u_a = ElevatorUsage(0, 0, rng.randint(0, 8), lsa, lga, t_floor)
        u_b = ElevatorUsage(1, 0, rng.randint(0, 8), lsb, lgb, t_floor)
        if not usages_overlap(u_a, u_b):
            continue
        tuples += 1
        c = ElevatorConflict("boarding", 0, 1, 0, max(u_a.t_s, u_b.t_s), u_a, u_b)
        (_, (*_, lo_i, hi_i)), (_, (*_, lo_j, hi_j)) = ec_constraints(c)
        span_a = u_a.t_o + abs(lga - lsb) * t_floor
        span_b = u_b.t_o + abs(lgb - lsa) * t_floor
        for x in range(lo_i, hi_i + 1):
            for y in range(lo_j, hi_j + 1):
                assert x <= y + span_b and y <= x + span_a, (u_a, u_b, x, y)
                pairs += 1
    print(f"\nPASS criterion 2: {tuples} conflict tuples, {pairs} (x, y) pairs, "
          f"zero non-intersecting busy intervals")


def test_c3_range_split_resolves_in_one_branching():
    """Reconstructed simultaneous-boarding toy: the paired range constraints
    are exactly [1,3] on the shared door cell for both agents; the variant
    with elevator constraints resolves the conflict in a single branching
    while the single-timestep baseline needs at least three expansions."""
    graph = parse_map(THREE_FLOOR_STRIP)
    inst = parse_scenario("1 0 0 2 2 0\n3 0 0 2 0 0\n", graph)
    paths = [plan(a, graph, ConstraintSet()) for a in inst.agents]
    (conflict,) = detect_elevator_conflicts(paths, graph)
    assert conflict.kind == "boarding"
    assert (conflict.usage_i.t_s, conflict.usage_j.t_s) == (1, 1)
    omega_i, omega_j = ec_constraints(conflict)
    door_cell = graph.elevators[0].cell
    assert omega_i == (0, ("boarding", 0, 1, 1, 3)) and omega_j == (1, ("boarding", 0, 3, 1, 3))
    assert graph.door(0, 1)[1:] == door_cell and graph.door(0, 3)[1:] == door_cell

    optimum = oracle_solve(inst).g
    with_ec = solve(inst, SolverConfig(ec_enabled=True, mdde_enabled=False, time_limit=30))
    assert with_ec.solution.g == optimum == 9
    assert with_ec.stats.branchings.get("boarding") == 1
    assert with_ec.stats.expanded == 2
    baseline = solve(inst, SolverConfig(ec_enabled=False, mdde_enabled=False, time_limit=30))
    assert baseline.solution.g == optimum
    assert baseline.stats.expanded >= 3
    assert baseline.stats.branchings.get("boarding", 0) >= 3
    print("\nPASS criterion 3: range constraints [1,3]/[1,3]; one branching "
          f"with them, {baseline.stats.expanded} expansions without")


def test_c4_joint_diagram_sees_the_reset_window():
    """Reconstructed reset-window toy: the conflict is detected at t=3, and
    the ride-annotated joint diagram excludes the (post-exit cell, door)
    level-3 pairing that a plain product admits."""
    graph = parse_map(TWO_FLOOR_CORRIDOR)
    inst = parse_scenario("1 0 0 2 3 0\n1 4 0 2 0 0\n", graph)
    rider, walker = inst.agents
    paths = [plan(a, graph, ConstraintSet()) for a in inst.agents]
    conflicts = detect_elevator_conflicts(paths, graph)
    assert [(c.kind, c.time) for c in conflicts] == [("boarding", 3)]

    mdd_rider = build_mdd_e(rider, 4, ConstraintSet(), graph)
    mdd_walker = build_mdd_e(walker, 5, ConstraintSet(), graph)
    pair = (Vertex(2, 2, 0), Vertex(1, 1, 0))
    aware = build_joint(mdd_rider, mdd_walker)
    assert pair in joint_vertex_pairs(aware, 3, elevator_aware=False)  # the plain product
    assert pair not in level_vertex_pairs(aware, 3)
    print("\nPASS criterion 4: conflict reported at t=3; plain product admits "
          "the level-3 pairing, the ride-annotated product excludes it")


def test_c5_mdd_levels_and_joint_level():
    """Reconstructed 3x3 goldens: the cost-2 diagram offers exactly the two
    mid-route cells at t=1, and the cost-3 joint keeps exactly one pair."""
    graph = parse_map(FLAT_3X3)
    agent = Agent(0, Vertex(1, 2, 1), Vertex(1, 1, 0))
    mdd = build_mdd_e(agent, 2, ConstraintSet(), graph)
    assert {n.vertex for n in mdd.levels[1]} == {Vertex(1, 1, 1), Vertex(1, 2, 0)}

    first = Agent(0, Vertex(1, 1, 2), Vertex(1, 2, 0))
    second = Agent(1, Vertex(1, 2, 1), Vertex(1, 1, 0))
    mdd_first = build_mdd_e(first, 3, ConstraintSet(), graph)
    mdd_second = build_mdd_e(
        second, 2, ConstraintSet().with_ban(("vertex", Vertex(1, 2, 0), 1, 1)), graph)
    joint = build_joint(mdd_first, mdd_second)
    assert level_vertex_pairs(joint, 1) == {(Vertex(1, 2, 2), Vertex(1, 1, 1))}
    assert joint_complete(joint)
    print("\nPASS criterion 5: cost-2 level t=1 is the two-route pair; joint "
          "level t=1 holds exactly one conflict-free pairing")


def test_c6_variant_cost_agreement_on_benchmarks():
    """All variants that solve a benchmark instance report the same g."""
    cfg = ExperimentConfig(experiment="agree", size=8, obstacle_rate=0.1,
                           floors=2, elevators=3, tfloor=3, agents=[2, 4],
                           instances=6, time_limit=15, seed=321,
                           variants=list(ALL_VARIANTS))
    records = run_suite(cfg)
    cells = {}
    for r in records:
        if r.status == "solved":
            cells.setdefault((r.n_agents, r.seed), set()).add(r.soc)
    assert cells, "no solved benchmark instances"
    for cell, socs in cells.items():
        assert len(socs) == 1, (cell, socs)
    print(f"\nPASS criterion 6: identical g across variants on "
          f"{len(cells)} benchmark instances")


def test_c7_trend_reproduction_desk_scale():
    """Directional trends on a seeded 2-floor suite (N in {4,6,8}, 25 seeds,
    20 s): with range constraints the median expansions never exceed the
    baseline's on commonly-solved instances, and adding diagram-guided
    selection never lowers the success rate below the baseline's."""
    variants = {"cbs": (False, False), "cbs+ec": (True, False),
                "cbs+ec+mdde": (True, True)}
    stats: dict[tuple, tuple] = {}
    for n in (4, 6, 8):
        for idx in range(25):
            cfg = ExperimentConfig(size=8, obstacle_rate=0.1, floors=2,
                                   elevators=3, tfloor=3, agents=[n], instances=1)
            inst = gen_instance(cfg, n, seed=777_000 + idx)
            for name, (ec, mdde) in variants.items():
                r = solve(inst, SolverConfig(ec_enabled=ec, mdde_enabled=mdde,
                                             time_limit=20))
                stats[(n, idx, name)] = (r.status == "solved", r.stats.expanded)
    lines = []
    for n in (4, 6, 8):
        common = [i for i in range(25)
                  if stats[(n, i, "cbs")][0] and stats[(n, i, "cbs+ec")][0]]
        assert common, f"no commonly solved instances at N={n}"
        med_base = statistics.median(stats[(n, i, "cbs")][1] for i in common)
        med_ec = statistics.median(stats[(n, i, "cbs+ec")][1] for i in common)
        assert med_ec <= med_base, (n, med_ec, med_base)
        rate_base = sum(stats[(n, i, "cbs")][0] for i in range(25)) / 25
        rate_full = sum(stats[(n, i, "cbs+ec+mdde")][0] for i in range(25)) / 25
        assert rate_full >= rate_base, (n, rate_full, rate_base)
        lines.append(f"N={n}: median expansions {med_ec} <= {med_base}, "
                     f"success {rate_full:.2f} >= {rate_base:.2f}")
    print("\nPASS criterion 7: " + "; ".join(lines))


def test_c8_low_level_optimality_against_time_expansion():
    """The safe-interval planner matches a time-expanded uniform-cost search
    on 500 random (graph, constraint) cases including range boarding bans."""
    rng = random.Random(31_337)
    agree = 0
    feasible = 0
    while agree < 500:
        agent, graph, cs = _random_case(rng)
        horizon = graph.num_free_vertices() + cs.max_end() + 3 * graph.floors + 4
        expected = time_expanded_plan(agent, graph, cs, horizon)
        path = plan(agent, graph, cs)
        got = path.cost if path is not None else None
        assert got == expected, (agent, cs, got, expected)
        agree += 1
        feasible += path is not None
    assert feasible >= 250
    print(f"\nPASS criterion 8: planner equals time-expanded search on "
          f"{agree} cases ({feasible} feasible)")


def test_c9_validation_soundness():
    """Every returned solution validates cleanly, and shifting one agent's
    boarding a single tick back into the busy window is reported."""
    checked = 0
    for trial in range(8):
        cfg = ExperimentConfig(size=6, obstacle_rate=0.1, floors=2, elevators=2,
                               tfloor=2, agents=[3], instances=1)
        inst = gen_instance(cfg, 3, seed=909_000 + trial)
        for name, (ec, mdde) in ALL_VARIANTS.items():
            r = solve(inst, SolverConfig(ec_enabled=ec, mdde_enabled=mdde,
                                         time_limit=15))
            assert r.status == "solved", (trial, name)
            assert validate(inst, list(r.solution.paths)) == []
            checked += 1

    graph = parse_map(THREE_FLOOR_STRIP)
    inst = parse_scenario("1 0 0 2 2 0\n3 0 0 2 0 0\n", graph)
    r = solve(inst, SolverConfig(ec_enabled=True, mdde_enabled=False, time_limit=15))
    paths = list(r.solution.paths)
    assert validate(inst, paths) == []
    deferred = next(i for i, p in enumerate(paths)
                    if any(a == b for (a, _), (b, _) in zip(p.steps, p.steps[1:])))
    steps = [s for s in paths[deferred].steps]
    first_wait = next(i for i in range(1, len(steps)) if steps[i][0] == steps[i - 1][0])
    shifted = steps[:first_wait] + [(v, t - 1) for v, t in steps[first_wait + 1:]]
    paths[deferred] = Path(tuple(shifted))
    found = validate(inst, paths)
    assert any(c.kind == "boarding" for c in found), found
    print(f"\nPASS criterion 9: {checked} solutions validated clean; the "
          "one-tick shift back into the busy window is reported")
