"""Brute-force optimal joint solver, used only to verify the search stack.

A* over the synchronous joint state space with explicit elevator phases.
The elevator rules are encoded here directly as a state machine (current
rider, plus the last completed drop-off) rather than through the conflict
modules, so the two implementations can cross-check each other.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

from .model import Agent, Instance, MultiFloorGraph, Vertex
from .sipp import Path

INF = math.inf

# per-agent state tuples
#   ("at", vertex, rode)       standing somewhere, possibly after a ride
#   ("ride", elevator, t_board) in the shaft toward the agent's goal floor
#   ("done",)                  parked at the goal forever
# per-elevator state tuple
#   (rider_agent, last_agent, last_exit_time, last_exit_floor)  (-1 = none)

_IDLE = (-1, -1, -1, -1)


@dataclass
class OracleResult:
    status: str  # solved | infeasible | unknown (the horizon cut the search)
    g: int | None
    paths: tuple[Path, ...]


def _ride_exit(agent: Agent, graph: MultiFloorGraph, elevator: int, t_board: int) -> int:
    t_floor = graph.elevators[elevator].t_floor
    return t_board + abs(agent.start_floor - agent.goal_floor) * t_floor


def _ride_pos(agent: Agent, graph: MultiFloorGraph, elevator: int, t_board: int, t: int) -> Vertex | None:
    e = graph.elevators[elevator]
    offset = t - t_board
    if offset % e.t_floor != 0:
        return None
    step = 1 if agent.goal_floor > agent.start_floor else -1
    floor = agent.start_floor + step * (offset // e.t_floor)
    return Vertex(floor, e.cell[0], e.cell[1])


def _position(agent: Agent, graph: MultiFloorGraph, state: tuple, t: int) -> Vertex | None:
    if state[0] == "at":
        return state[1]
    if state[0] == "done":
        return agent.goal
    return _ride_pos(agent, graph, state[1], state[2], t)


def _cost_to_go(agent: Agent, graph: MultiFloorGraph) -> dict[tuple[Vertex, bool], float]:
    """Exact single-agent cost-to-go over (vertex, rode) states, ignoring
    all other agents."""
    dist: dict[tuple[Vertex, bool], float] = {}
    heap: list[tuple[float, int, tuple[Vertex, bool]]] = []
    tick = itertools.count()
    for rode in (False, True):
        dist[(agent.goal, rode)] = 0
        heapq.heappush(heap, (0, next(tick), (agent.goal, rode)))
    while heap:
        d, _, (v, rode) = heapq.heappop(heap)
        if dist.get((v, rode), INF) < d:
            continue
        grid = graph.grid(v.floor)
        preds: list[tuple[tuple[Vertex, bool], int]] = []
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            if grid.passable(v.x + dx, v.y + dy):
                preds.append(((Vertex(v.floor, v.x + dx, v.y + dy), rode), 1))
        e = graph.elevator_at(v)
        if rode and e is not None and v.floor == agent.goal_floor:
            for floor in range(1, graph.floors + 1):
                if floor != v.floor:
                    door = Vertex(floor, e.cell[0], e.cell[1])
                    preds.append(((door, False), abs(floor - v.floor) * e.t_floor))
        for pred, w in preds:
            nd = d + w
            if nd < dist.get(pred, INF):
                dist[pred] = nd
                heapq.heappush(heap, (nd, next(tick), pred))
    return dist


def oracle_solve(instance: Instance, horizon: int | None = None) -> OracleResult:
    """Exact minimum sum of costs by exhaustive joint search (small N only).
    Boarding an elevator requires it idle and past the reset gap from its
    previous drop-off; standing at any of its doors during another agent's
    ride or reset window is illegal. States are not expanded past
    `horizon`; when the search runs dry after cutting one, the status is
    "unknown" rather than "infeasible"."""
    graph = instance.graph
    agents = instance.agents
    if not agents:
        return OracleResult("solved", 0, ())
    if horizon is None:
        max_t = max([e.t_floor for e in graph.elevators] or [0])
        horizon = graph.num_free_vertices() + (graph.floors - 1) * max_t + 8

    tables = [_cost_to_go(a, graph) for a in agents]

    def h(state: tuple) -> float:
        total = 0.0
        clock, astates, _ = state
        for agent, table, s in zip(agents, tables, astates):
            if s[0] == "done":
                continue
            if s[0] == "at":
                total += table.get((s[1], s[2]), INF)
            else:
                exit_t = _ride_exit(agent, graph, s[1], s[2])
                door = graph.door(s[1], agent.goal_floor)
                total += (exit_t - clock) + table.get((door, True), INF)
        return total

    start = (0, tuple(("at", a.start, False) for a in agents), tuple(_IDLE for _ in graph.elevators))
    h0 = h(start)
    if h0 == INF:
        return OracleResult("infeasible", None, ())
    best = {start: 0}
    parent: dict[tuple, tuple | None] = {start: None}
    tick = itertools.count()
    heap = [(h0, next(tick), start, 0)]
    cut = False
    while heap:
        f, _, state, g = heapq.heappop(heap)
        if best.get(state, -1) != g:
            continue
        clock, astates, estates = state
        if all(s[0] == "done" for s in astates):
            return OracleResult("solved", g, _reconstruct(instance, parent, state))
        if clock >= horizon:
            cut = True
            continue
        for succ, cost in _successors(instance, state):
            ng = g + cost
            if ng < best.get(succ, INF):
                best[succ] = ng
                parent[succ] = state
                hv = h(succ)
                if hv < INF:
                    heapq.heappush(heap, (ng + hv, next(tick), succ, ng))
    return OracleResult("unknown" if cut else "infeasible", None, ())


def _agent_moves(agent: Agent, graph: MultiFloorGraph, s: tuple, estates: tuple,
                 clock: int) -> list[tuple[tuple, int, int]]:
    """Options (new_state, cost, boarded_elevator) for one agent over
    clock -> clock+1. Boarding legality against other agents' positions is
    checked at the joint level."""
    if s[0] == "done":
        return [(s, 0, -1)]
    if s[0] == "ride":
        k, t_b = s[1], s[2]
        exit_t = _ride_exit(agent, graph, k, t_b)
        if clock + 1 == exit_t:
            return [(("at", graph.door(k, agent.goal_floor), True), 1, -1)]
        return [(s, 1, -1)]
    v, rode = s[1], s[2]
    out: list[tuple[tuple, int, int]] = [(("at", v, rode), 1, -1)]
    grid = graph.grid(v.floor)
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        if grid.passable(v.x + dx, v.y + dy):
            out.append((("at", Vertex(v.floor, v.x + dx, v.y + dy), rode), 1, -1))
    if v == agent.goal:
        out.append((("done",), 0, -1))
    e = graph.elevator_at(v)
    if e is not None and not rode and v.floor != agent.goal_floor:
        rider, last_agent, last_t, last_floor = estates[e.id]
        free = rider == -1 and (
            last_agent in (-1, agent.id)
            or clock >= last_t + abs(last_floor - v.floor) * e.t_floor + 1)
        if free:
            exit_t = _ride_exit(agent, graph, e.id, clock)
            if clock + 1 == exit_t:
                out.append((("at", graph.door(e.id, agent.goal_floor), True), 1, e.id))
            else:
                out.append((("ride", e.id, clock), 1, e.id))
    return out


def _successors(instance: Instance, state: tuple):
    graph = instance.graph
    agents = instance.agents
    clock, astates, estates = state
    options = [_agent_moves(a, graph, s, estates, clock) for a, s in zip(agents, astates)]
    prev_pos = [_position(a, graph, s, clock) for a, s in zip(agents, astates)]

    for combo in itertools.product(*options):
        new_states = tuple(c[0] for c in combo)
        cost = sum(c[1] for c in combo)
        boarded = [c[2] for c in combo]

        taken: dict[int, int] = {}
        ok = True
        for idx, k in enumerate(boarded):
            if k == -1:
                continue
            if k in taken:
                ok = False  # two boardings of one elevator at once
                break
            taken[k] = idx
            # the window opens now: nobody else may stand at any door of k
            for other, p in enumerate(prev_pos):
                if other != idx and p is not None:
                    e = graph.elevator_at(p)
                    if e is not None and e.id == k:
                        ok = False
                        break
            if not ok:
                break
        if not ok:
            continue

        new_estates = list(estates)
        for idx, (s_new, k) in enumerate(zip(new_states, boarded)):
            if k != -1:
                if s_new[0] == "ride":
                    new_estates[k] = (idx, *new_estates[k][1:])
                else:  # one-step ride already over
                    new_estates[k] = (-1, idx, clock + 1, agents[idx].goal_floor)
        for idx, (s_old, s_new) in enumerate(zip(astates, new_states)):
            if s_old[0] == "ride" and s_new[0] == "at":
                k = s_old[1]
                new_estates[k] = (-1, idx, clock + 1, agents[idx].goal_floor)

        new_pos = [_position(a, graph, s, clock + 1) for a, s in zip(agents, new_states)]
        seen: dict[Vertex, int] = {}
        for idx, p in enumerate(new_pos):
            if p is None:
                continue
            if p in seen:
                ok = False
                break
            seen[p] = idx
        if not ok:
            continue
        for i in range(len(agents)):
            if not ok:
                break
            for j in range(i + 1, len(agents)):
                ui, wi = prev_pos[i], new_pos[i]
                uj, wj = prev_pos[j], new_pos[j]
                if None in (ui, wi, uj, wj) or ui == wi or uj == wj:
                    continue
                if ui == wj and wi == uj:
                    ok = False
                    break
        if not ok:
            continue

        est = tuple(new_estates)
        for idx, p in enumerate(new_pos):
            if p is None:
                continue
            e = graph.elevator_at(p)
            if e is None:
                continue
            rider, last_agent, last_t, last_floor = est[e.id]
            if rider not in (-1, idx):
                ok = False
                break
            if (last_agent not in (-1, idx)
                    and clock + 1 <= last_t + abs(last_floor - p.floor) * e.t_floor):
                ok = False
                break
        if not ok:
            continue

        yield (clock + 1, new_states, est), cost


def _reconstruct(instance: Instance, parent: dict, final: tuple) -> tuple[Path, ...]:
    chain = []
    state: tuple | None = final
    while state is not None:
        chain.append(state)
        state = parent[state]
    chain.reverse()
    paths = []
    for idx, agent in enumerate(instance.agents):
        steps: list[tuple[Vertex, int]] = []
        for state in chain:
            clock, astates, _ = state
            if astates[idx][0] == "done":
                continue
            p = _position(agent, instance.graph, astates[idx], clock)
            if p is not None:
                steps.append((p, clock))
        while len(steps) >= 2 and steps[-1][0] == steps[-2][0]:
            steps.pop()
        paths.append(Path(tuple(steps)))
    return tuple(paths)
