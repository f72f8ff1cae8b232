import io
from pathlib import Path

import pytest

from mapfe import bench as bench_mod
from mapfe.bench import (
    CSV_HEADER,
    ExperimentConfig,
    GenerationError,
    VARIANTS,
    gen_instance,
    parse_config,
    run_suite,
    summarize,
    write_csv,
)
from mapfe.cbs import SolveResult, SolveStats

CONFIG_TEXT = """
# tiny sweep over agent counts
experiment = exp1-mini
size = 6
obstacle_rate = 0.1
floors = 2
elevators = 2
tfloor = 3
agents = 2,3
instances = 2
time_limit = 10
seed = 42
variants = cbs,cbs+ec
"""


def test_parse_config_round_trip_fields():
    cfg = parse_config(CONFIG_TEXT)
    assert cfg.experiment == "exp1-mini"
    assert cfg.size == 6 and cfg.floors == 2 and cfg.elevators == 2
    assert cfg.tfloor == 3 and cfg.agents == [2, 3]
    assert cfg.instances == 2 and cfg.time_limit == 10.0 and cfg.seed == 42
    assert cfg.variants == ["cbs", "cbs+ec"]
    assert cfg.axis == "agents"


def test_parse_config_rejects_unknown_keys_and_double_axis():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("bogus = 1\n")
    with pytest.raises(ValueError, match="axis"):
        parse_config("agents = 2,3\nfloors = 2,3\n")
    with pytest.raises(ValueError, match="variant"):
        parse_config("variants = cbs,fast\n")


@pytest.mark.parametrize("kwargs", [
    {"floors": 0}, {"tfloor": 0}, {"agents": 0}, {"agents": -1},
    {"floors": [2, 0]}, {"tfloor": [1, -3]}, {"agents": [2, 0, 3]},
])
def test_config_rejects_counts_below_one(kwargs):
    key = next(iter(kwargs))
    with pytest.raises(ValueError, match=f"{key} must be >= 1"):
        ExperimentConfig(**kwargs)


def test_axis_can_be_floors_or_tfloor():
    cfg = parse_config("agents = 4\nfloors = 2,3,4\n")
    assert cfg.axis == "floors"
    cfg = parse_config("agents = 4\ntfloor = 1,5\n")
    assert cfg.axis == "tfloor"


def test_frontier_config_runs_c7_seeds_for_each_agent_count(monkeypatch):
    """configs/c7-frontier.cfg asks for seeds 777000-777009 at each N of
    12, 14 and 16 on the C7 maps, under the full solver at 10 s; the
    generator and the solver are stubbed, so nothing is solved."""
    text = (Path(__file__).resolve().parent.parent / "configs" / "c7-frontier.cfg").read_text()
    cfg = parse_config(text)
    assert (cfg.size, cfg.obstacle_rate, cfg.floors, cfg.elevators, cfg.tfloor) == (8, 0.1, 2, 3, 3)
    assert (cfg.variants, cfg.time_limit) == (["cbs+ec+mdde"], 10.0)
    calls = []

    def generate(cfg, n_agents, seed, floors=None, tfloor=None):
        calls.append((n_agents, seed, floors, tfloor))

    def unsolved(instance, config):
        calls.append((config.ec_enabled, config.mdde_enabled, config.time_limit))
        return SolveResult("timeout", None, SolveStats())

    monkeypatch.setattr(bench_mod, "gen_instance", generate)
    monkeypatch.setattr(bench_mod, "solve", unsolved)
    run_suite(cfg)
    assert calls == [call for n in (12, 14, 16) for seed in range(777_000, 777_010)
                     for call in ((n, seed, 2, 3), (True, True, 10.0))]


def test_gen_instance_is_seed_deterministic():
    cfg = ExperimentConfig(size=8, obstacle_rate=0.1, floors=2, elevators=3,
                           tfloor=3, agents=[5], instances=1)
    a = gen_instance(cfg, 5, seed=11)
    b = gen_instance(cfg, 5, seed=11)
    assert a.graph == b.graph and a.agents == b.agents
    c = gen_instance(cfg, 5, seed=12)
    assert (a.graph, a.agents) != (c.graph, c.agents)


def test_gen_instance_properties():
    from mapfe.sipp import ConstraintSet, plan
    cfg = ExperimentConfig(size=8, obstacle_rate=0.1, floors=2, elevators=3,
                           tfloor=3, agents=[5], instances=1)
    inst = gen_instance(cfg, 5, seed=3)
    graph = inst.graph
    assert len(graph.elevators) == 3
    assert len(inst.agents) == 5
    assert graph.grids[0] == graph.grids[1]  # shared layout
    for a in inst.agents:
        assert plan(a, graph, ConstraintSet()) is not None


def test_gen_instance_rejects_overfull_maps():
    cfg = ExperimentConfig(size=2, obstacle_rate=0.0, floors=1, elevators=0,
                           tfloor=1, agents=[9], instances=1)
    with pytest.raises(GenerationError):
        gen_instance(cfg, 9, seed=0)


def test_run_suite_shapes_and_cost_sanity():
    cfg = parse_config(CONFIG_TEXT)
    records = run_suite(cfg)
    assert len(records) == 2 * 2 * 2  # N values x instances x variants
    by_cell = {}
    for r in records:
        assert r.experiment == "exp1-mini"
        assert r.variant in VARIANTS
        if r.status == "solved":
            by_cell.setdefault((r.n_agents, r.seed), set()).add(r.soc)
    for cell, socs in by_cell.items():
        assert len(socs) == 1, cell  # all solving variants agree


def test_empty_variant_list_is_empty_output():
    cfg = parse_config(CONFIG_TEXT)
    cfg.variants = []
    assert run_suite(cfg) == []


def test_csv_schema_and_determinism():
    cfg = parse_config(CONFIG_TEXT)
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        write_csv(run_suite(cfg), buf)
        outs.append(buf.getvalue())
    first, second = outs
    names = first.splitlines()[0].split(",")
    assert names == CSV_HEADER.split(",") and len(set(names)) == len(names)
    assert names[:8] == ["experiment", "variant", "N", "floors", "tfloor", "seed", "status", "soc"]
    assert names[8:] == [name for name, _ in SolveStats().report()]

    # identical apart from the wall-time-derived columns (a timeout's lower
    # bound among them)
    def strip_time(text):
        rows = [dict(zip(names, line.split(","), strict=True)) for line in text.splitlines()[1:]]
        return [{name: value for name, value in row.items()
                 if not name.endswith("_ms") and name not in ("mdde_time_fraction", "lower_bound")}
                for row in rows]
    rows = strip_time(first)
    assert len(rows) == 8 and rows == strip_time(second)
    for row in first.splitlines()[1:]:
        fields = dict(zip(names, row.split(",")))
        assert (fields["status"] == "solved") == (fields["solved"] == "1")
        assert (fields["lower_bound"] != "") == (fields["status"] == "timeout")


def test_summarize_success_rates_and_expansions():
    cfg = parse_config(CONFIG_TEXT)
    records = run_suite(cfg)
    rows = summarize(records)
    assert {r["variant"] for r in rows} == {"cbs", "cbs+ec"}
    for row in rows:
        assert 0.0 <= row["success_rate"] <= 1.0
        if row["success_rate"] > 0:
            assert row["expanded_min"] <= row["expanded_avg"] <= row["expanded_max"]
    # at this scale everything solves, so the rates cannot favor the baseline
    for n in (2, 3):
        rate = {row["variant"]: row["success_rate"] for row in rows if row["N"] == n}
        assert rate["cbs+ec"] >= rate["cbs"]
