"""Tests of the solve benchmark itself: `python3 -m pytest solvebench -q`."""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import mapfe  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import suite  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PINNED = json.loads((HERE / "pinned.json").read_text())


def test_sgm_on_fixed_inputs():
    assert metrics.sgm([5.0, 5.0, 5.0]) == pytest.approx(5.0)
    assert metrics.sgm([10.0, 90.0]) == pytest.approx(math.sqrt(20 * 100) - 10)
    assert metrics.sgm([0.0, 0.0]) == pytest.approx(0.0)
    # a single slow instance moves the shifted geometric mean far less than the mean
    assert metrics.sgm([1.0] * 9 + [5000.0]) < 20


def test_percentiles_on_fixed_inputs():
    values = [float(v) for v in range(100, 0, -1)]
    assert metrics.percentile(values, 0.9) == pytest.approx(
        math.exp(sum(math.log(v) for v in range(85, 96)) / 11))  # ranks 85..95
    assert metrics.percentile(values, 0.5) == pytest.approx(
        math.exp(sum(math.log(v) for v in range(45, 56)) / 11))  # ranks 45..55
    assert metrics.percentile(values, 1.0) == pytest.approx(
        math.exp(sum(math.log(v) for v in range(95, 101)) / 6))  # window clipped at the top
    assert metrics.percentile([7.0], 0.9) == pytest.approx(7.0)
    assert metrics.percentile([1.0, 2.0, 4.0], 0.5) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        metrics.percentile([], 0.5)


def test_end_to_end_arithmetic_on_fixed_samples():
    ref = metrics.REFERENCE_CALIBRATION_S
    # Instance 0 solved twice, instance 1 once, instance 2 timed out. Each
    # solve is scaled by the mean of the probes just before and after it:
    # half the reference speed, except a third around instance 1's solve.
    samples = [[0, "solved", 0.020, 2 * ref, []], [1, "solved", 0.300, 2 * ref, []],
               [2, "timeout", 4.200, 4 * ref, []], [0, "solved", 0.040, 2 * ref, []]]
    result = {"samples": samples, "last_probe": 2 * ref, "peak_rss_kb": 2048}
    m = run.end_to_end(result)
    times = [15.0, 100.0, 4200.0]  # scaled medians; a timeout keeps its wall time
    assert m["solve_sgm_ms"] == pytest.approx(metrics.sgm(times))
    assert m["solve_p50_ms"] == pytest.approx(metrics.percentile(times, 0.5))
    assert m["solve_p90_ms"] == pytest.approx(metrics.percentile(times, 0.9))
    assert m["solve_total_s"] == pytest.approx(sum(times) / 1000)
    assert m["solved_frac"] == pytest.approx(2 / 3)
    assert m["peak_rss_mb"] == 2.0
    # a timeout among an instance's solves makes the instance unsolved
    samples.append([1, "timeout", 4.0, 2 * ref, []])
    assert run.end_to_end(result)["solved_frac"] == pytest.approx(1 / 3)


def test_input_digests_are_deterministic_and_pinned():
    for family in suite.FAMILIES:
        first = suite.generate_set(family)
        assert suite.digest(first) == suite.digest(suite.generate_set(family))
        assert suite.digest(first) == PINNED[family]["digest"]
    fam, seed, _ = suite.FAMILIES["desk"]
    assert suite.generate(fam, seed) != suite.generate(fam, seed + 1)


def test_generated_instances_parse_and_route():
    for family in suite.FAMILIES:
        fam, _, _ = suite.FAMILIES[family]
        for text in suite.generate_set(family)[:10]:
            inst = mapfe.parse_scenario(text.scenario_text, mapfe.parse_map(text.map_text))
            assert inst.graph.floors == fam.floors and len(inst.agents) == fam.agents
            assert len(inst.graph.elevators) == fam.elevators


def test_workloads_match_benchmark_json_and_pinned_sets():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(suite.WORKLOADS)
    for w in BENCHMARK["workloads"]:
        family = suite.WORKLOADS[w["name"]].family
        traced = PINNED["traced"][w["name"]]
        assert traced and {str(seed) for seed in traced} <= set(PINNED[family]["optimum"])


def _rides(path) -> list[tuple[int, int]]:
    """(step index of boarding, boarding time) of each ride in a path."""
    steps = path.steps
    return [(i, steps[i][1]) for i in range(len(steps) - 1)
            if steps[i + 1][0].floor != steps[i][0].floor
            and (i == 0 or steps[i - 1][0].floor == steps[i][0].floor)]


def _solved_with_shared_elevator():
    """The first desk instance whose optimal plan has two agents riding the
    same elevator: the instance, the result, its pinned optimum, the replay
    checker, and the (agent, boarding step index, boarding time) of the
    earlier and the later ride."""
    replay = check.load_replay(ROOT)
    for text in suite.generate_set("desk"):
        inst = mapfe.parse_scenario(text.scenario_text, mapfe.parse_map(text.map_text))
        result = mapfe.solve(inst, mapfe.SolverConfig(time_limit=5.0))
        if result.solution is None:
            continue
        by_elevator: dict[int, list] = {}
        for a, path in enumerate(result.solution.paths):
            for i, t in _rides(path):
                door = path.steps[i][0]
                by_elevator.setdefault(inst.graph.elevator_at(door).id, []).append((t, a, i))
        shared = next((sorted(r) for r in by_elevator.values() if len({a for _, a, _ in r}) > 1),
                      None)
        if shared:
            (t0, a0, i0), (t1, a1, _) = next((x, y) for x, y in zip(shared, shared[1:])
                                             if x[1] != y[1])
            optimum = PINNED["desk"]["optimum"][str(text.seed)]
            return inst, result, optimum, replay, (a0, i0, t0), (a1, t1)
    raise AssertionError("no desk instance with two agents on one elevator")


def test_gate_passes_a_correct_plan_and_counts_a_delayed_boarding():
    inst, result, optimum, replay, (agent, ride, t_board), (_, t_other) = \
        _solved_with_shared_elevator()
    assert check.plan_errors(inst, result, optimum, replay) == []

    # Delay the earlier rider's boarding until the other rider boards the
    # same elevator: a boarding conflict. The reported g is the corrupted
    # paths' true cost and no optimum is given, so only validate and the
    # replay checker can catch it.
    delay = t_other - t_board
    steps = list(result.solution.paths[agent].steps)
    door = steps[ride][0]
    shifted = (steps[:ride + 1] + [(door, t_board + d) for d in range(1, delay + 1)]
               + [(v, t + delay) for v, t in steps[ride + 1:]])
    paths = list(result.solution.paths)
    paths[agent] = mapfe.Path(tuple(shifted))
    g = sum(p.cost for p in paths)
    corrupt = mapfe.SolveResult("solved", mapfe.Solution(tuple(paths), g, result.stats),
                                result.stats)
    errors = check.plan_errors(inst, corrupt, None, replay)
    assert any(e.startswith("validate found") for e in errors), errors
    assert any(e.startswith("replay found") for e in errors), errors
    assert not any(e.startswith(("reported g", "g ")) for e in errors), errors
    samples = {"samples": [[0, "solved", 0.1, 0.005, []], [1, "solved", 0.1, 0.005, errors]]}
    assert len(run.failures(samples, [None, suite.InstanceText(1, "", "")])) == 1


def test_gate_flags_a_wrong_optimum_and_a_false_infeasible():
    inst, result, optimum, replay, _, _ = _solved_with_shared_elevator()
    assert check.plan_errors(inst, result, optimum - 1, replay)
    infeasible = mapfe.SolveResult("infeasible", None, result.stats)
    assert check.plan_errors(inst, infeasible, optimum, replay)
    timeout = mapfe.SolveResult("timeout", None, result.stats)
    assert check.plan_errors(inst, timeout, optimum, replay) == []


def test_self_time_subtracts_covered_child_time():
    recs = [["root", 0.0, 10.0, -1, 0, None],
            ["child", 1.0, 3.0, 0, 0, None],
            ["grandchild", 1.5, 2.5, 1, 0, None],
            ["child", 4.0, 5.0, 0, 0, None],
            ["root", 0.0, 1.0, -1, 1, None]]
    agg = spans.aggregate(recs, {0})
    assert agg["root"]["calls"] == 1 and agg["root"]["self_s"] == pytest.approx(7.0)
    assert agg["child"]["calls"] == 2 and agg["child"]["self_s"] == pytest.approx(2.0)
    assert agg["child"]["s"] == pytest.approx(3.0)
    assert agg["grandchild"]["self_s"] == pytest.approx(1.0)


def test_tracer_reports_a_missing_boundary_instead_of_crashing(monkeypatch):
    boundaries = spans.BOUNDARIES + (("mapfe.sipp", "_NoSuchCache", "sipp.cache", None),)
    monkeypatch.setattr(spans, "BOUNDARIES", boundaries)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert mapfe.cbs.plan is not mapfe.sipp.plan
        assert tracer.missing == ["sipp.cache"]
        tracer.instance = None  # outside a solve: calls pass through unrecorded
        mapfe.cbs.enumerate_conflicts([], None)
        assert tracer.spans == []
    finally:
        tracer.uninstall()
    assert mapfe.cbs.plan is mapfe.sipp.plan
    metrics_ = spans.layer_metrics([], set(), {}, ["sipp.plan", "mdd.classify"])
    assert not any(k.startswith(("sipp.plan", "mdd.classify")) for k in metrics_)


def _smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
                          capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(suite.WORKLOADS))
def test_smoke_run_reports_every_metric(workload):
    plain = _smoke(workload, 0)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert set(plain["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for m in BENCHMARK["end_to_end"]:
        assert plain["metrics"][m["name"]]["unit"] == m["unit"]
        assert plain["metrics"][m["name"]]["value"] > 0

    traced = _smoke(workload, 1)
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for m in BENCHMARK["per_layer"]:
        assert traced["metrics"][m["name"]]["unit"] == m["unit"]
    if not suite.WORKLOADS[workload].mdde_enabled:
        assert all(v["value"] == 0 for k, v in traced["metrics"].items()
                   if k.startswith("mdd.") and k.endswith(".calls"))
    else:
        assert traced["metrics"]["mdd.classify.calls"]["value"] > 0
