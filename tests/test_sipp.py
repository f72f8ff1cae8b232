import hashlib
import math
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mapfe.model import Agent, Vertex, parse_map, parse_scenario, ride_visits
from mapfe.sipp import ConstraintSet, GridIndex, Path, cost_to_go, merge_intervals, plan, safe_intervals

from reference import _board_ok, time_expanded_plan

INF = math.inf


def test_merge_intervals_adjacent_and_overlapping():
    assert merge_intervals([(2, 4), (5, 6)]) == ((2, 6),)
    assert merge_intervals([(1, 3), (2, 7), (9, 9)]) == ((1, 7), (9, 9))
    assert merge_intervals([]) == ()


def test_safe_intervals():
    v = Vertex(1, 0, 0)
    assert safe_intervals(v, ConstraintSet()) == [(0, INF)]
    cs = ConstraintSet().with_ban(("vertex", v, 1, 3))
    assert safe_intervals(v, cs) == [(0, 0), (4, INF)]
    cs = ConstraintSet().with_ban(("vertex", v, 2, 4)).with_ban(("vertex", v, 5, 6))
    assert safe_intervals(v, cs) == [(0, 1), (7, INF)]


def test_same_floor_manhattan_cost():
    g = parse_map("type mapf-e\nfloors 1\nheight 8\nwidth 8\ntfloor 1\n" + "........\n" * 8)
    a = parse_scenario("1 0 0 1 3 3\n", g).agents[0]
    assert plan(a, g, ConstraintSet()).cost == 6


def test_cross_floor_cost_matches_reference(corridor2_t3):
    a = parse_scenario("1 0 0 2 2 0\n", corridor2_t3).agents[0]
    path = plan(a, corridor2_t3, ConstraintSet())
    assert path.cost == 5  # 1 walk + 3 ride + 1 walk
    assert path.cost == time_expanded_plan(a, corridor2_t3, ConstraintSet(), horizon=30)


def test_boarding_ban_delays_the_ride(corridor2_t3):
    a = parse_scenario("1 0 0 2 2 0\n", corridor2_t3).agents[0]
    cs = ConstraintSet().with_ban(("boarding", 0, 1, 1, 3))
    path = plan(a, corridor2_t3, cs)
    assert path.cost == 8
    assert path.cost == time_expanded_plan(a, corridor2_t3, cs, horizon=30)
    # the ride departs at 4: door at 4, far door at 7
    assert (Vertex(1, 1, 0), 4) in path.steps
    assert (Vertex(2, 1, 0), 7) in path.steps


def test_goal_ban_forces_late_arrival(flat3):
    a = parse_scenario("1 0 0 1 2 0\n", flat3).agents[0]
    cs = ConstraintSet().with_ban(("vertex", Vertex(1, 2, 0), 5, 5))
    path = plan(a, flat3, cs)
    assert path.cost == time_expanded_plan(a, flat3, cs, horizon=30) == 6
    assert path.steps[-1] == (Vertex(1, 2, 0), 6)


def test_infeasible_when_walled_in():
    g = parse_map("type mapf-e\nfloors 1\nheight 1\nwidth 3\ntfloor 1\n.@.\n")
    a = Agent(0, Vertex(1, 0, 0), Vertex(1, 2, 0))
    assert plan(a, g, ConstraintSet()) is None


def test_zero_cost_when_start_is_goal(flat3):
    a = Agent(0, Vertex(1, 1, 1), Vertex(1, 1, 1))
    path = plan(a, flat3, ConstraintSet())
    assert path.cost == 0 and path.steps == ((Vertex(1, 1, 1), 0),)


def _random_case(rng):
    width = rng.randint(3, 6)
    floors = rng.randint(1, 3)
    t_floor = rng.randint(1, 3)
    cells = [(x, y) for y in range(3) for x in range(width)]
    blocked = set(rng.sample(cells, rng.randint(0, 2)))
    doors = [c for c in cells if c not in blocked]
    door = rng.choice(doors)
    rows = []
    for y in range(3):
        rows.append("".join(
            "E" if (x, y) == door and floors > 1 else
            "@" if (x, y) in blocked else "." for x in range(width)))
    text = (f"type mapf-e\nfloors {floors}\nheight 3\nwidth {width}\n"
            f"tfloor {t_floor}\n" + "\n".join(rows * floors) + "\n")
    from mapfe.model import parse_map as pm
    g = pm(text)
    free = [v for v in g.vertices() if g.elevator_at(v) is None]
    start = rng.choice(free)
    goal = rng.choice([v for v in free if v != start])
    agent = Agent(0, start, goal)

    cs = ConstraintSet()
    doors = [g.door(0, f) for f in range(1, floors + 1)] if g.elevators else []
    for _ in range(rng.randint(0, 6)):
        v = rng.choice(free + doors)
        lo = rng.randint(1, 10)
        cs = cs.with_ban(("vertex", v, lo, lo + rng.randint(0, 3)))
    for _ in range(rng.randint(0, 3)):
        v = rng.choice(free)
        moves = [u for u in free if u.floor == v.floor and abs(u.x - v.x) + abs(u.y - v.y) == 1]
        if moves:
            cs = cs.with_ban(("edge", v, rng.choice(moves), rng.randint(0, 8)))
    if g.elevators and rng.random() < 0.7:
        lo = rng.randint(0, 6)
        cs = cs.with_ban(("boarding", 0, rng.randint(1, floors), lo, lo + rng.randint(0, 5)))
    return agent, g, cs


def test_matches_time_expanded_search_on_random_cases():
    rng = random.Random(12345)
    checked = 0
    for _ in range(250):
        agent, g, cs = _random_case(rng)
        horizon = g.num_free_vertices() + cs.max_end() + 3 * g.floors + 4
        expected = time_expanded_plan(agent, g, cs, horizon)
        path = plan(agent, g, cs)
        got = path.cost if path is not None else None
        assert got == expected, (agent, cs, got, expected)
        if path is not None:
            _assert_respects(path, g, cs)
            checked += 1
    assert checked > 100


# SHA-256 of the steps `plan` returns over 300 `_random_case`s drawn with
# random.Random(2024), recorded before the successor table and the one-pass
# path reconstruction went in; any change in tie-breaking or retiming moves it.
PINNED_SWEEP_DIGEST = "ef63343d2cb7358975e6fa3bb61e591482f66eed9a4dde16fb0f246dfd2e9851"


def test_equal_cost_choices_are_pinned():
    rng = random.Random(2024)
    digest = hashlib.sha256()
    for _ in range(300):
        agent, g, cs = _random_case(rng)
        path = plan(agent, g, cs)
        line = "none" if path is None else " ".join(
            f"{v.floor},{v.x},{v.y}@{t}" for v, t in path.steps)
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == PINNED_SWEEP_DIGEST


def test_successor_table_is_the_filtered_grid_moves():
    rng = random.Random(99)
    for _ in range(40):
        agent, g, _ = _random_case(rng)
        heur = cost_to_go(agent, g, GridIndex(g))
        for v in g.vertices():
            for rode in (False, True):
                table = heur.table(v.floor, rode)
                expected = tuple((u, table[u]) for u in heur.index.moves[v] if u in table)
                assert heur.succ[rode][v] == expected
                assert heur.succ[rode][v] is heur.succ[rode][v]  # filled once


def test_ride_table_holds_each_door_ride_to_the_goal_floor():
    rng = random.Random(98)
    doors = 0
    for _ in range(60):
        agent, g, _ = _random_case(rng)
        if agent.start_floor == agent.goal_floor:
            continue
        heur = cost_to_go(agent, g, GridIndex(g))
        for v in g.vertices():
            e = g.elevator_at(v)
            if e is None:
                assert heur.rides[v] == ()
            elif v.floor == agent.start_floor:
                ride = heur.rides[v]
                visits = tuple(ride_visits(g, e.id, v.floor, agent.goal_floor, 0))
                assert ride.elevator == e.id and ride.visits == visits
                assert visits[-1][0] == g.door(e.id, agent.goal_floor)
                assert ride.h_target == heur.value(visits[-1][0], True)
                assert heur.rides[v] is ride  # filled once
                doors += 1
    assert doors > 10


def _ride_map(rng):
    """A random map of 2-4 floors with one or two elevators."""
    floors = rng.randint(2, 4)
    width = rng.randint(3, 4)
    doors = rng.sample(range(width), rng.randint(1, 2))
    row = "".join("E" if x in doors else "." for x in range(width))
    overrides = "".join(f"tfloor_k {k} {rng.randint(1, 3)}\n" for k in range(len(doors))
                        if rng.random() < 0.5)
    return parse_map(f"type mapf-e\nfloors {floors}\nheight 2\nwidth {width}\n"
                     f"tfloor {rng.randint(1, 3)}\n{overrides}"
                     + (row + "\n" + "." * width + "\n") * floors)


def test_ride_block_clears_exactly_the_departures_the_reference_allows():
    """`ride_block` is None exactly when `reference._board_ok` holds, and a
    bump b leaves no clean departure in [dep, b), so SIPP's walk over
    departures skips none."""
    rng = random.Random(4242)
    seen = {"boarding": 0, "inner": 0, "target": 0, "bumps": 0, "clean": 0}
    for _ in range(300):
        g = _ride_map(rng)
        e = rng.choice(g.elevators)
        floor, goal_floor = rng.sample(range(1, g.floors + 1), 2)
        door, target = g.door(e.id, floor), g.door(e.id, goal_floor)
        visits = tuple(ride_visits(g, e.id, floor, goal_floor, 0))
        cs = ConstraintSet()
        for _ in range(rng.randint(0, 5)):
            lo = rng.randint(0, 14)
            hi = lo + rng.randint(0, 3)
            kind = rng.random()
            if kind < 0.3:
                other = rng.choice(g.elevators).id
                cs = cs.with_ban(("boarding", other, rng.randint(1, g.floors), lo, hi))
            elif kind < 0.8:
                cs = cs.with_ban(("vertex", g.door(e.id, rng.randint(1, g.floors)), lo, hi))
            else:
                cs = cs.with_ban(("vertex", rng.choice(list(g.vertices())), lo, hi))
        for dep in range(0, 20):
            ok = _board_ok(cs, g, door, target, dep)
            bumped = cs.ride_block(e.id, floor, visits, dep)
            assert (bumped is None) == ok, (cs, dep)
            if ok:
                seen["clean"] += 1
                continue
            assert bumped > dep
            assert not any(_board_ok(cs, g, door, target, t) for t in range(dep, bumped))
            seen["bumps"] += bumped - dep > 1
            seen["boarding"] += cs.boarding_banned(e.id, floor, dep)
            seen["target"] += cs.vertex_banned(target, dep + visits[-1][1])
            seen["inner"] += any(cs.vertex_banned(v, dep + offset) for v, offset in visits[:-1])
    assert min(seen.values()) > 20, seen


def _assert_respects(path: Path, g, cs: ConstraintSet) -> None:
    for v, t in path.steps:
        assert not cs.vertex_banned(v, t)
    for (v, tv), (w, tw) in zip(path.steps, path.steps[1:]):
        if w.floor == v.floor and v != w:
            assert (v, w, tv) not in cs.edge_bans
        if w.floor != v.floor:
            e = g.elevator_at(v)
            prev_idx = path.steps.index((v, tv))
            boarded = prev_idx == 0 or path.steps[prev_idx - 1][0].floor == v.floor
            if boarded:
                assert not cs.boarding_banned(e.id, v.floor, tv)
    # parking: no ban at the goal from the arrival onward
    goal, arrival = path.steps[-1]
    for lo, hi in cs.vertex_bans.get(goal, ()):
        assert hi < arrival


def test_added_constraint_never_reduces_cost():
    rng = random.Random(777)
    for _ in range(120):
        agent, g, cs = _random_case(rng)
        base = plan(agent, g, ConstraintSet())
        if base is None:
            continue
        constrained = plan(agent, g, cs)
        if constrained is not None:
            assert constrained.cost >= base.cost


def test_waits_pool_at_the_start_when_legal(corridor2_t3):
    a = parse_scenario("1 0 0 2 2 0\n", corridor2_t3).agents[0]
    cs = ConstraintSet().with_ban(("boarding", 0, 1, 1, 3))
    path = plan(a, corridor2_t3, cs)
    # waits happen at the start cell, not at the elevator door
    door_times = [t for v, t in path.steps if v == Vertex(1, 1, 0)]
    assert door_times == [4]
    start_times = [t for v, t in path.steps if v == Vertex(1, 0, 0)]
    assert start_times == [0, 1, 2, 3]


def test_ride_visits_expansion(corridor2_t3, strip3):
    assert ride_visits(corridor2_t3, 0, 1, 2, 4) == [(Vertex(2, 1, 0), 7)]
    assert ride_visits(strip3, 0, 3, 1, 2) == [(Vertex(2, 1, 0), 3), (Vertex(1, 1, 0), 4)]


_BAN_MAP = parse_map("type mapf-e\nfloors 2\nheight 3\nwidth 4\ntfloor 2\n"
                     + ".E..\n..@.\n....\n" * 2)
_BAN_VERTICES = sorted(_BAN_MAP.vertices(), key=lambda v: (v.floor, v.y, v.x))


@st.composite
def ban_sequences(draw):
    """An agent of _BAN_MAP and 1-8 vertex, edge and boarding bans."""
    free = [v for v in _BAN_VERTICES if _BAN_MAP.elevator_at(v) is None]
    start, goal = draw(st.lists(st.sampled_from(free), min_size=2, max_size=2, unique=True))
    bans = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["vertex", "edge", "boarding"]))
        lo = draw(st.integers(0, 8))
        hi = lo + draw(st.integers(0, 3))
        if kind == "vertex":
            bans.append(("vertex", draw(st.sampled_from(_BAN_VERTICES)), lo, hi))
        elif kind == "edge":
            u = draw(st.sampled_from(free))
            w = draw(st.sampled_from([w for w in _BAN_VERTICES if w.floor == u.floor
                                      and abs(w.x - u.x) + abs(w.y - u.y) == 1]))
            bans.append(("edge", u, w, lo))
        else:
            bans.append(("boarding", 0, draw(st.integers(1, 2)), lo, hi))
    return Agent(0, start, goal), bans, draw(st.permutations(bans))


def _apply(cs: ConstraintSet, bans) -> list[ConstraintSet]:
    """Every set along the derivation of bans from cs, cs first."""
    chain = [cs]
    for ban in bans:
        chain.append(chain[-1].with_ban(ban))
    return chain


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(ban_sequences())
def test_same_ban_on_same_set_derives_one_child(case):
    agent, bans, shuffled = case
    root = ConstraintSet()
    chain = _apply(root, bans)
    # the same (set, ban) derived again gives the identical object
    assert all(a is b for a, b in zip(chain, _apply(root, bans)))
    # another order reaches a set of equal bans, planned to an equal path
    other = _apply(root, shuffled)[-1]
    assert _bans(other) == _bans(chain[-1])
    assert plan(agent, _BAN_MAP, other) == plan(agent, _BAN_MAP, chain[-1])
    # the children memo is no part of a set's bans or repr
    parent = chain[-2]
    fresh = ConstraintSet(parent.vertex_bans, parent.edge_bans, parent.boarding_bans)
    assert parent.children and fresh.children is None
    assert _bans(fresh) == _bans(parent) and repr(fresh) == repr(parent)
    assert _bans(root) == _bans(ConstraintSet()) and repr(root) == repr(ConstraintSet())
    # a set is named by its identity: two sets of equal bans are two memo keys
    assert fresh is not parent and len({fresh: 0, parent: 1}) == 2


def _bans(cs: ConstraintSet) -> tuple:
    return cs.vertex_bans, cs.edge_bans, cs.boarding_bans
