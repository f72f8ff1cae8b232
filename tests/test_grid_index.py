"""The per-solve grid index: neighbour tuples, shared distance fields, and
the heuristics built on them, checked against `model.neighbors`.

The benchmark families put one obstacle layout on every floor, where a
field computed on the wrong floor would still be right; the maps here give
each floor its own obstacles and each elevator its own travel time.
"""
import heapq
import itertools
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mapfe import sipp
from mapfe.cbs import SolverConfig, solve
from mapfe.model import BOARD, MOVE, Agent, neighbors, parse_map, parse_scenario

INF = math.inf


@st.composite
def distinct_floor_instances(draw):
    """2-4 floors, each with its own obstacles, 1-2 elevators with their
    own per-floor travel times, 1-4 agents with distinct starts and goals."""
    floors = draw(st.integers(2, 4))
    width, height = draw(st.integers(3, 5)), draw(st.integers(2, 4))
    cells = [(x, y) for y in range(height) for x in range(width)]
    doors = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=2, unique=True))
    doors.sort(key=lambda c: (c[1], c[0]))  # elevator ids are row-major
    tfloors = draw(st.lists(st.integers(1, 3), min_size=len(doors), max_size=len(doors)))
    open_cells = [c for c in cells if c not in doors]
    layouts = [draw(st.sets(st.sampled_from(open_cells), max_size=len(cells) // 3))
               for _ in range(floors)]
    rows = ["".join("E" if (x, y) in doors else "@" if (x, y) in blocked else "."
                    for x in range(width))
            for blocked in layouts for y in range(height)]
    header = ["type mapf-e", f"floors {floors}", f"height {height}", f"width {width}",
              "tfloor 1"] + [f"tfloor_k {k} {t}" for k, t in enumerate(tfloors)]
    graph = parse_map("\n".join(header + rows) + "\n")
    spots = [v for v in graph.vertices() if graph.elevator_at(v) is None]
    n = draw(st.integers(1, min(4, len(spots))))
    starts = draw(st.lists(st.sampled_from(spots), min_size=n, max_size=n, unique=True))
    goals = draw(st.lists(st.sampled_from(spots), min_size=n, max_size=n, unique=True))
    scenario = "".join(f"{s.floor} {s.x} {s.y} {g.floor} {g.x} {g.y}\n"
                       for s, g in zip(starts, goals))
    return parse_scenario(scenario, graph)


def _reference_cost_to_go(agent: Agent, graph) -> dict:
    """Exact cost to the goal of every (vertex, rode) state, by Dijkstra
    backwards over the moves `model.neighbors` generates (waits dropped)."""
    preds: dict = {}
    for v in graph.vertices():
        for rode in (False, True):
            for u, cost, kind in neighbors(graph, v, rode):
                if kind in (MOVE, BOARD):
                    preds.setdefault((u, rode or kind == BOARD), []).append(((v, rode), cost))
    dist = {(agent.goal, False): 0, (agent.goal, True): 0}
    tick = itertools.count()
    heap = [(0, next(tick), state) for state in dist]
    while heap:
        d, _, state = heapq.heappop(heap)
        if d > dist[state]:
            continue
        for pred, cost in preds.get(state, ()):
            if d + cost < dist.get(pred, INF):
                dist[pred] = d + cost
                heapq.heappush(heap, (d + cost, next(tick), pred))
    return dist


SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(distinct_floor_instances())
def test_neighbour_tuples_equal_model_neighbors(instance):
    graph = instance.graph
    index = sipp.GridIndex(graph)
    assert set(index.moves) == set(graph.vertices())
    for v, moves in index.moves.items():
        assert moves == tuple(u for u, _, kind in neighbors(graph, v, True) if kind == MOVE)


@SETTINGS
@given(distinct_floor_instances())
def test_shared_heuristics_equal_a_fresh_search_per_agent(instance):
    graph = instance.graph
    index = sipp.GridIndex(graph)  # shared by every agent, as in a solve
    for agent in instance.agents:
        heuristic = sipp.cost_to_go(agent, graph, index)
        exact = _reference_cost_to_go(agent, graph)
        for v in graph.vertices():
            for rode in (False, True):
                # the planner only reaches the goal floor, or the start
                # floor before riding; everywhere else the table is empty
                reachable = v.floor == agent.goal_floor or (
                    not rode and v.floor == agent.start_floor)
                expected = exact.get((v, rode), INF) if reachable else INF
                assert heuristic.value(v, rode) == expected, (agent, v, rode)


@SETTINGS
@given(distinct_floor_instances())
def test_a_solve_builds_each_distance_field_once(instance):
    built = []
    distances = sipp.GridIndex.distances

    def counting(self, source):
        if source not in self.fields:
            built.append(source)
        return distances(self, source)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sipp.GridIndex, "distances", counting)
        for ec, mdde in ((False, False), (True, True)):
            built.clear()
            result = solve(instance, SolverConfig(ec_enabled=ec, mdde_enabled=mdde,
                                                  time_limit=0.25))
            assert len(built) == len(set(built)) == result.stats.distance_fields
            goals = {a.goal for a in instance.agents}
            assert goals <= set(built)
