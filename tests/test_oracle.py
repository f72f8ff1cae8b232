import random

from hypothesis import HealthCheck, given, settings

from mapfe.bench import ExperimentConfig, gen_instance
from mapfe.cbs import SolverConfig, solve, validate
from mapfe.model import parse_map, parse_scenario
from mapfe.oracle import oracle_solve
from mapfe.sipp import ConstraintSet, plan

from test_incremental import ALL_VARIANTS, multi_floor_instances


def test_single_agent_matches_low_level(corridor2_t3):
    inst = parse_scenario("1 0 0 2 2 0\n", corridor2_t3)
    result = oracle_solve(inst)
    assert result.status == "solved"
    assert result.g == plan(inst.agents[0], corridor2_t3, ConstraintSet()).cost == 5


def test_two_non_interacting_agents_sum(strip3):
    inst = parse_scenario("1 0 0 1 2 0\n3 2 0 3 0 0\n", strip3)
    result = oracle_solve(inst)
    assert result.g == 4


def test_empty_instance(strip3):
    assert oracle_solve(parse_scenario("", strip3)).g == 0


def test_shared_elevator_reference_value(strip3):
    # both agents want the one elevator at t=1; one defers past the closed
    # busy window, boarding at the earliest legal step t_g + reset + 1 = 4
    inst = parse_scenario("1 0 0 2 2 0\n3 0 0 2 0 0\n", strip3)
    first = oracle_solve(inst)
    assert first.status == "solved" and first.g == 9
    # cross-check at a much larger horizon
    second = oracle_solve(inst, horizon=40)
    assert second.g == 9


def test_oracle_paths_pass_validation(strip3, corridor2):
    for graph, scen in ((strip3, "1 0 0 2 2 0\n3 0 0 2 0 0\n"),
                        (corridor2, "1 0 0 2 3 0\n1 4 0 2 0 0\n")):
        inst = parse_scenario(scen, graph)
        result = oracle_solve(inst)
        assert result.status == "solved"
        assert validate(inst, list(result.paths)) == []


def test_infeasible_within_horizon():
    # head-on with no room: waiting states never repeat, so the search only
    # ends at the horizon and cannot call the instance infeasible
    g = parse_map("type mapf-e\nfloors 1\nheight 1\nwidth 2\ntfloor 1\n..\n")
    inst = parse_scenario("1 0 0 1 1 0\n1 1 0 1 0 0\n", g)
    assert oracle_solve(inst, horizon=12).status == "unknown"


def test_agreement_with_all_variants_on_random_instances():
    rng = random.Random(5150)
    for trial in range(14):
        cfg = ExperimentConfig(size=6, obstacle_rate=0.1, floors=2,
                               elevators=rng.choice([1, 2]),
                               tfloor=rng.choice([1, 3]), agents=[2], instances=1)
        n = rng.choice([2, 3])
        inst = gen_instance(cfg, n, seed=61_000 + trial)
        expected = oracle_solve(inst)
        assert expected.status == "solved"
        assert validate(inst, list(expected.paths)) == []
        for ec in (False, True):
            for mdde in (False, True):
                got = solve(inst, SolverConfig(ec_enabled=ec, mdde_enabled=mdde,
                                               time_limit=20))
                assert got.status == "solved"
                assert got.solution.g == expected.g


def test_agreement_with_all_variants_beyond_two_floors():
    # 3-4 floors with per-elevator travel times. An example the oracle cannot
    # decide within its horizon, or a variant's timeout, is no comparison.
    runs, compared = [0], [0]

    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(multi_floor_instances(floors=(3, 4), agents=(2, 3)))
    def sweep(inst):
        expected = oracle_solve(inst)
        runs[0] += len(ALL_VARIANTS)
        if expected.status == "unknown":
            return
        for ec, mdde in ALL_VARIANTS:
            got = solve(inst, SolverConfig(ec_enabled=ec, mdde_enabled=mdde, time_limit=2))
            if got.status == "timeout":
                continue
            compared[0] += 1
            assert got.status == expected.status, (ec, mdde)
            if got.status == "solved":
                assert got.solution.g == expected.g, (ec, mdde)
                assert validate(inst, list(got.solution.paths)) == []

    sweep()
    assert compared[0] >= 0.9 * runs[0] > 0, (compared[0], runs[0])
