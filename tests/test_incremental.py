"""Work the solver does once per solve, and the incremental conflict lists.

A child CT node replans one agent and rescans only that agent; its
conflict list must equal a full `enumerate_conflicts`, order included.
The search counters pinned below were produced by the full-rescan solver,
so any drift in the search itself shows here.
"""
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mapfe
from mapfe.bench import ExperimentConfig, gen_instance
from mapfe.cbs import SolverConfig, _Solver, enumerate_conflicts, solve, validate
from mapfe.model import parse_map, parse_scenario

ALL_VARIANTS = [(False, False), (True, False), (False, True), (True, True)]


@st.composite
def multi_floor_instances(draw):
    """2-4 floors sharing one obstacle layout, 1-2 elevators with their own
    per-floor travel times, 2-4 agents with distinct starts and goals."""
    floors = draw(st.integers(2, 4))
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
    n = draw(st.integers(2, min(4, len(spots))))
    starts = draw(st.lists(st.sampled_from(spots), min_size=n, max_size=n, unique=True))
    goals = draw(st.lists(st.sampled_from(spots), min_size=n, max_size=n, unique=True))
    scenario = "".join(f"{s[0]} {s[1]} {s[2]} {g[0]} {g[1]} {g[2]}\n" for s, g in zip(starts, goals))
    return parse_scenario(scenario, graph)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(multi_floor_instances())
def test_incremental_conflicts_equal_a_full_scan(instance):
    rescan = _Solver._rescan

    def checked_rescan(self, node, agent_id, paths):
        conflicts = rescan(self, node, agent_id, paths)
        assert conflicts == enumerate_conflicts(paths, self.graph)
        return conflicts

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Solver, "_rescan", checked_rescan)
        for ec, mdde in ALL_VARIANTS:
            result = solve(instance, SolverConfig(ec_enabled=ec, mdde_enabled=mdde,
                                                  time_limit=0.25))
            if result.status == "solved":
                assert validate(instance, list(result.solution.paths)) == []


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
# every MDD-E afresh and the whole joint MDD-E for every classification.
PINNED_TOWER = {
    779_009: [(39, 64, 127, 0, {"boarding": 59, "edge": 1, "occupancy": 2, "vertex": 1}),
              (39, 8, 15, 0, {"boarding": 3, "edge": 1, "occupancy": 2, "vertex": 1}),
              (39, 37, 69, 2, {"boarding": 31, "edge": 1, "occupancy": 1, "vertex": 1}),
              (39, 7, 9, 2, {"boarding": 1, "edge": 1, "occupancy": 1, "vertex": 1})],
    779_020: [(42, 69, 137, 0, {"boarding": 32, "vertex": 36}),
              (42, 37, 73, 0, {"boarding": 4, "vertex": 32}),
              (42, 77, 121, 16, {"boarding": 22, "vertex": 38}),
              (42, 36, 61, 5, {"boarding": 4, "vertex": 26})],
    779_023: [(48, 27, 53, 0, {"boarding": 22, "edge": 1, "occupancy": 1, "vertex": 2}),
              (48, 13, 25, 0, {"boarding": 8, "edge": 1, "occupancy": 1, "vertex": 2}),
              (48, 29, 45, 6, {"boarding": 18, "edge": 1, "occupancy": 1, "vertex": 2}),
              (48, 14, 17, 5, {"boarding": 6, "edge": 1, "vertex": 1})],
}


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


@pytest.mark.parametrize("seed", sorted(PINNED_TOWER))
def test_search_counters_are_pinned_on_tower_seeds(seed):
    cfg = ExperimentConfig(size=6, obstacle_rate=0.1, floors=4, elevators=2,
                           tfloor=2, agents=[4], instances=1)
    _check_pinned(cfg, 4, seed, PINNED_TOWER[seed])


def test_solver_builds_one_heuristic_per_agent(monkeypatch):
    from mapfe import sipp
    built = []
    heuristic = sipp._Heuristic

    def counting(agent, graph, index):
        built.append(agent.id)
        return heuristic(agent, graph, index)

    monkeypatch.setattr(sipp, "_Heuristic", counting)
    cfg = ExperimentConfig(size=8, obstacle_rate=0.1, floors=2, elevators=3,
                           tfloor=3, agents=[6], instances=1)
    result = solve(gen_instance(cfg, 6, seed=777_002), SolverConfig(time_limit=60))
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


# Drops the first conflict of every one-agent rescan, so the search reaches
# a goal node whose plan still has a conflict; run under -O, where asserts
# are gone, the goal certificate must still refuse it.
_DROPPING_RESCAN = """
if __debug__:
    raise SystemExit("expected to run under python -O")
from mapfe import cbs
from mapfe.model import parse_map, parse_scenario

full_scan = cbs.enumerate_conflicts

def dropping(paths, graph, agent=None, rides=None):
    found = full_scan(paths, graph, agent, rides)
    return found[1:] if agent is not None else found

cbs.enumerate_conflicts = dropping
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
