import random

import pytest

from mapfe.model import (
    MapError,
    ScenarioError,
    Vertex,
    parse_map,
    parse_scenario,
    serialize_map,
    serialize_scenario,
)

from conftest import FLAT_3X3, THREE_FLOOR_STRIP, TWO_FLOOR_T3
from reference import neighbors


def test_smallest_map():
    g = parse_map("type mapf-e\nfloors 1\nheight 2\nwidth 2\ntfloor 1\n..\n..\n")
    assert g.floors == 1
    assert g.num_free_vertices() == 4
    assert g.elevators == ()


def test_two_floor_map_with_obstacles_and_three_elevators():
    rng = random.Random(7)
    cells = [(x, y) for y in range(8) for x in range(8)]
    blocked = set(rng.sample(cells, 6))
    doors = rng.sample([c for c in cells if c not in blocked], 3)
    rows = []
    for y in range(8):
        rows.append("".join(
            "E" if (x, y) in doors else "@" if (x, y) in blocked else "."
            for x in range(8)))
    text = "type mapf-e\nfloors 2\nheight 8\nwidth 8\ntfloor 3\n" + "\n".join(rows * 2) + "\n"
    g = parse_map(text)
    assert g.floors == 2
    assert len(g.elevators) == 3
    assert all(e.t_floor == 3 for e in g.elevators)


def test_five_floor_16x16_three_elevators():
    row = "." * 16
    grid = [row] * 16
    grid[4] = "...E....E....E.."
    text = "type mapf-e\nfloors 5\nheight 16\nwidth 16\ntfloor 3\n" + "\n".join(grid * 5) + "\n"
    g = parse_map(text)
    assert g.floors == 5
    assert len(g.elevators) == 3


def test_tfloor_override_per_elevator():
    text = ("type mapf-e\nfloors 2\nheight 1\nwidth 4\ntfloor 2\ntfloor_k 1 5\n"
            ".EE.\n.EE.\n")
    g = parse_map(text)
    assert [e.t_floor for e in g.elevators] == [2, 5]
    assert parse_map(text.replace("tfloor_k 1 5", "tfloor_k 1 1000")).elevators[1].t_floor == 1000


@pytest.mark.parametrize("text,msg", [
    ("type wrong\nfloors 1\nheight 1\nwidth 1\ntfloor 1\n.\n", "type"),
    ("type mapf-e\nfloors 1\nheight 2\nwidth 2\ntfloor 1\n..\n", "grid"),
    ("type mapf-e\nfloors 1\nheight 1\nwidth 3\ntfloor 1\n..\n", "grid"),
    ("type mapf-e\nfloors 2\nheight 1\nwidth 2\ntfloor 1\n.E\nE.\n", "mismatch"),
    ("type mapf-e\nfloors 1\nheight 1\nwidth 2\ntfloor 0\n.E\n", "t_floor"),
    ("type mapf-e\nfloors 1\nheight 1\nwidth 2\ntfloor 1001\n.E\n", "t_floor"),
    ("type mapf-e\nfloors 1\nheight 1\nwidth 2\ntfloor 1\ntfloor_k 0 1001\n.E\n", "t_floor"),
])
def test_malformed_maps_rejected(text, msg):
    with pytest.raises(MapError, match=msg):
        parse_map(text)


def test_map_round_trip():
    for text in (FLAT_3X3, TWO_FLOOR_T3, THREE_FLOOR_STRIP):
        g = parse_map(text)
        assert parse_map(serialize_map(g)) == g


def test_round_trip_with_override():
    text = ("type mapf-e\nfloors 3\nheight 2\nwidth 3\ntfloor 2\ntfloor_k 0 7\n"
            + "E.@\n..E\n" * 3)
    g = parse_map(text)
    assert parse_map(serialize_map(g)) == g


def test_empty_scenario(flat3):
    inst = parse_scenario("", flat3)
    assert inst.agents == ()


def test_single_agent_scenario(flat3):
    inst = parse_scenario("1 0 0 1 2 2\n", flat3)
    (a,) = inst.agents
    assert a.start == Vertex(1, 0, 0)
    assert a.goal == Vertex(1, 2, 2)
    assert a.start_floor == a.goal_floor == 1
    assert parse_scenario(serialize_scenario(inst), flat3).agents == inst.agents


def test_scenario_round_trip(corridor2):
    inst = parse_scenario("1 0 0 2 3 0\n1 4 0 2 0 0\n", corridor2)
    assert parse_scenario(serialize_scenario(inst), corridor2).agents == inst.agents


def test_start_on_elevator_rejected(corridor2):
    with pytest.raises(ScenarioError, match="elevator"):
        parse_scenario("1 1 0 2 2 0\n", corridor2)


def test_duplicate_starts_and_goals_rejected(flat3):
    with pytest.raises(ScenarioError, match="start"):
        parse_scenario("1 0 0 1 2 2\n1 0 0 1 1 1\n", flat3)
    with pytest.raises(ScenarioError, match="goal"):
        parse_scenario("1 0 0 1 2 2\n1 1 1 1 2 2\n", flat3)


def test_out_of_bounds_and_blocked_rejected():
    g = parse_map("type mapf-e\nfloors 1\nheight 2\nwidth 2\ntfloor 1\n.@\n..\n")
    with pytest.raises(ScenarioError):
        parse_scenario("1 5 0 1 0 0\n", g)
    with pytest.raises(ScenarioError, match="blocked"):
        parse_scenario("1 1 0 1 0 1\n", g)


def test_cross_floor_agent_needs_an_elevator():
    g = parse_map("type mapf-e\nfloors 2\nheight 1\nwidth 2\ntfloor 1\n..\n..\n")
    with pytest.raises(ScenarioError, match="elevator"):
        parse_scenario("1 0 0 2 1 0\n", g)


def test_neighbors_interior_and_corner(flat3):
    assert len(neighbors(flat3, Vertex(1, 1, 1), False)) == 5  # wait + 4
    assert len(neighbors(flat3, Vertex(1, 0, 0), False)) == 3  # corner


def test_neighbors_corner_next_to_obstacle():
    g = parse_map("type mapf-e\nfloors 1\nheight 2\nwidth 2\ntfloor 1\n.@\n..\n")
    assert len(neighbors(g, Vertex(1, 0, 0), False)) == 2  # wait + down


def test_neighbors_board_macro(corridor2_t3):
    door = Vertex(1, 1, 0)
    moves = neighbors(corridor2_t3, door, rode_elevator=False)
    boards = [(v, c) for v, c, kind in moves if kind == "board"]
    assert boards == [(Vertex(2, 1, 0), 3)]  # |1-2| * 3
    assert len(moves) == 4  # wait + 2 grid + board
    assert all(kind != "board" for _, _, kind in neighbors(corridor2_t3, door, True))


def test_board_cost_scales_with_floor_distance(strip3):
    moves = neighbors(strip3, Vertex(1, 1, 0), False)
    costs = {v.floor: c for v, c, kind in moves if kind == "board"}
    assert costs == {2: 1, 3: 2}


def test_regular_edge_symmetry(flat3, corridor2_t3):
    for g in (flat3, corridor2_t3):
        for v in g.vertices():
            for u, cost, kind in neighbors(g, v, False):
                if kind == "move":
                    assert cost == 1
                    back = [w for w, _, k in neighbors(g, u, False) if k == "move"]
                    assert v in back


def test_vertex_partition(corridor2_t3, strip3):
    for g in (corridor2_t3, strip3):
        door_sets = {}
        for v in g.vertices():
            e = g.elevator_at(v)
            if e is not None:
                door_sets.setdefault(e.id, set()).add(v)
        all_doors = [v for s in door_sets.values() for v in s]
        assert len(all_doors) == len(set(all_doors))  # pairwise disjoint
        for v in g.vertices():
            assert (g.elevator_at(v) is not None) == (v in set(all_doors))
