import csv
import io

import pytest

from mapfe import cli as cli_mod
from mapfe.bench import MAX_CELLS, ResultRecord, parse_config, write_csv
from mapfe.cli import main

from conftest import THREE_FLOOR_STRIP

SCEN = "1 0 0 2 2 0\n3 0 0 2 0 0\n"


@pytest.fixture
def golden_files(tmp_path):
    map_path = tmp_path / "toy.map"
    scen_path = tmp_path / "toy.scen"
    map_path.write_text(THREE_FLOOR_STRIP)
    scen_path.write_text(SCEN)
    return map_path, scen_path


def test_solve_prints_cost_paths_and_stats(golden_files, capsys):
    map_path, scen_path = golden_files
    code = main(["solve", "--map", str(map_path), "--scen", str(scen_path)])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "soc 9"
    assert lines[1].startswith("agent 0: (1,0,0)@0")
    assert lines[2].startswith("agent 1: (3,0,0)@0")
    assert len(lines) == 4
    values = _stats(lines[3])
    # the conflict is a boarding clash both agents' MDD-Es commit to: cardinal
    # from the width-1 test alone, with no joint search
    assert [values[name] for name in ("classify_calls", "label_hits", "joint_pairs")] == ["1", "0", "0"]
    assert values["branchings_boarding"] == "1" and values["bypasses"] == "0"
    # one field per goal, plus the door field of each agent's start floor
    assert values["distance_fields"] == "4"
    # the heuristics are built inside the solve's clock, before any plan
    assert 0 < float(values["heuristic_time_ms"]) <= float(values["runtime_ms"])
    assert values["lower_bound"] == ""


def _stats(line: str) -> dict[str, str]:
    """A `stats` line's values by name, in line order."""
    head, *fields = line.split(" ")
    assert head == "stats"
    return dict(field.split("=") for field in fields)


def test_stats_line_and_bench_row_write_every_statistic_alike(golden_files, capsys, monkeypatch):
    """`solve`'s stats line and a bench CSV row of the same solve agree
    field by field, and the CSV keeps its old columns."""
    real_solve, results = cli_mod.solve, []

    def solve_and_keep(instance, config):
        results.append(real_solve(instance, config))
        return results[-1]

    monkeypatch.setattr(cli_mod, "solve", solve_and_keep)
    map_path, scen_path = golden_files
    assert main(["solve", "--map", str(map_path), "--scen", str(scen_path)]) == 0
    line = _stats(capsys.readouterr().out.splitlines()[-1])
    (result,) = results
    buf = io.StringIO()
    write_csv([ResultRecord("toy", "cbs+ec+mdde", 2, 3, 1, 7, result.status, result.solution.g,
                            result.stats)], buf)
    header, row = csv.reader(io.StringIO(buf.getvalue()))
    csv_row = dict(zip(header, row, strict=True))
    s = result.stats
    # the 18 columns the CSV wrote before it wrote every statistic, each
    # with the value and unit it had then
    kept = {"experiment": "toy", "variant": "cbs+ec+mdde", "N": "2", "floors": "3", "tfloor": "1",
            "seed": "7", "solved": "1", "soc": "9", "runtime_ms": f"{s.runtime * 1000.0:.3f}",
            "expanded": str(s.expanded), "generated": str(s.generated),
            "mdde_time_fraction": f"{s.mdde_time_fraction:.4f}", "status": "solved",
            "lower_bound": "", "plan_time_ms": f"{s.plan_time * 1000.0:.3f}",
            "heuristic_time_ms": f"{s.heuristic_time * 1000.0:.3f}",
            "mdd_build_time_ms": f"{s.mdd_build_time * 1000.0:.3f}", "ride_cuts": str(s.ride_cuts)}
    assert len(kept) == 18 and {name: csv_row[name] for name in kept} == kept
    for name in ("bypasses", "door_skips", "branchings_vertex", "branchings_edge",
                 "branchings_boarding", "branchings_occupancy"):
        assert name in line and name in csv_row
    assert header[8:] == list(line) and all(csv_row[name] == line[name] for name in line)


def test_joint_pairs_count_the_joint_search_and_read_0_without_mdde(tmp_path, capsys):
    map_path = tmp_path / "g.map"
    scen_path = tmp_path / "g.scen"
    assert main(["gen", "--size", "6", "--floors", "2", "--elevators", "2",
                 "--tfloor", "2", "--agents", "5", "--seed", "3",
                 "--out-map", str(map_path), "--out-scen", str(scen_path)]) == 0
    counts = {}
    for mdde in ("on", "off"):
        capsys.readouterr()
        assert main(["solve", "--map", str(map_path), "--scen", str(scen_path),
                     "--mdde", mdde]) == 0
        counts[mdde] = _stats(capsys.readouterr().out.splitlines()[-1])
    assert int(counts["on"]["classify_calls"]) > 0 and int(counts["on"]["joint_pairs"]) > 0
    assert counts["off"]["classify_calls"] == counts["off"]["joint_pairs"] == "0"
    assert counts["off"]["ride_cuts"] == "0"


def test_children_are_scanned_only_when_they_reach_the_top(tmp_path, capsys):
    # C7 desk instance under range constraints without MDD-Es: most children
    # are generated, queued under a lower bound and never popped
    map_path = tmp_path / "c7.map"
    scen_path = tmp_path / "c7.scen"
    assert main(["gen", "--size", "8", "--floors", "2", "--elevators", "3", "--tfloor", "3",
                 "--agents", "6", "--seed", "777002",
                 "--out-map", str(map_path), "--out-scen", str(scen_path)]) == 0
    capsys.readouterr()
    assert main(["solve", "--map", str(map_path), "--scen", str(scen_path),
                 "--ec", "on", "--mdde", "off"]) == 0
    values = _stats(capsys.readouterr().out.splitlines()[-1])
    stats = {name: int(values[name]) for name in ("generated", "scans", "peak_open")}
    assert 0 < stats["scans"] < stats["generated"]
    assert 0 < stats["peak_open"] <= stats["generated"]


def test_solve_validate_round_trip(golden_files, tmp_path, capsys):
    map_path, scen_path = golden_files
    plan_path = tmp_path / "plan.txt"
    assert main(["solve", "--map", str(map_path), "--scen", str(scen_path),
                 "--out", str(plan_path)]) == 0
    capsys.readouterr()
    code = main(["validate", "--map", str(map_path), "--scen", str(scen_path),
                 "--plan", str(plan_path)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_validate_reports_conflicts(golden_files, tmp_path, capsys):
    map_path, scen_path = golden_files
    # both agents ride immediately: elevator conflict
    plan_path = tmp_path / "bad.txt"
    plan_path.write_text(
        "agent 0: (1,0,0)@0 (1,1,0)@1 (2,1,0)@2 (2,2,0)@3\n"
        "agent 1: (3,0,0)@0 (3,1,0)@1 (2,1,0)@2 (2,0,0)@3\n")
    code = main(["validate", "--map", str(map_path), "--scen", str(scen_path),
                 "--plan", str(plan_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "boarding" in out or "Vertex" in out


def test_validate_rejects_structurally_broken_plan(golden_files, tmp_path, capsys):
    map_path, scen_path = golden_files
    plan_path = tmp_path / "broken.txt"
    plan_path.write_text("agent 0: (1,0,0)@0 (1,2,0)@1\nagent 1: (3,0,0)@0\n")
    code = main(["validate", "--map", str(map_path), "--scen", str(scen_path),
                 "--plan", str(plan_path)])
    assert code == 1
    assert "invalid" in capsys.readouterr().out


def test_validate_rejects_plan_line_without_agent_id(golden_files, tmp_path, capsys):
    map_path, scen_path = golden_files
    plan_path = tmp_path / "headless.txt"
    plan_path.write_text("agent:\n")
    code = main(["validate", "--map", str(map_path), "--scen", str(scen_path),
                 "--plan", str(plan_path)])
    assert code == 1
    assert capsys.readouterr().out.startswith("structurally invalid: bad plan line")


def test_validate_rejects_duplicated_agent_line(golden_files, tmp_path, capsys):
    map_path, scen_path = golden_files
    plan_path = tmp_path / "plan.txt"
    assert main(["solve", "--map", str(map_path), "--scen", str(scen_path),
                 "--out", str(plan_path)]) == 0
    capsys.readouterr()
    # a bogus first copy of agent 0 that a last-line-wins parser would hide
    plan_path.write_text("agent 0: (1,0,0)@0\n" + plan_path.read_text())
    code = main(["validate", "--map", str(map_path), "--scen", str(scen_path),
                 "--plan", str(plan_path)])
    assert code == 1
    assert capsys.readouterr().out.strip() == "structurally invalid: agent 0 listed twice"


def test_validate_rejects_tokens_that_are_not_steps(golden_files, tmp_path, capsys):
    map_path, scen_path = golden_files
    plan_path = tmp_path / "plan.txt"
    assert main(["solve", "--map", str(map_path), "--scen", str(scen_path),
                 "--out", str(plan_path)]) == 0
    capsys.readouterr()
    # a stray word between the first two steps of agent 0's line
    plan_path.write_text(plan_path.read_text().replace(")@0 ", ")@0 garbage ", 1))
    code = main(["validate", "--map", str(map_path), "--scen", str(scen_path),
                 "--plan", str(plan_path)])
    assert code == 1
    assert capsys.readouterr().out.strip() == "structurally invalid: agent 0: bad step 'garbage'"


@pytest.mark.parametrize("scen, line", [
    ("1 0 0 2 2 0\n", "agent 0: (1,0,0)@0 (1,1,0)@1 (2,1,0)@2 (3,1,0)@3 (2,1,0)@4 (2,2,0)@5\n"),
    ("1 0 0 1 2 0\n", "agent 0: (1,0,0)@0 (1,1,0)@1 (2,1,0)@2 (1,1,0)@3 (1,2,0)@4\n"),
])
def test_validate_rejects_a_ride_that_turns_round(golden_files, tmp_path, capsys, scen, line):
    map_path, scen_path = golden_files
    scen_path.write_text(scen)
    plan_path = tmp_path / "plan.txt"
    plan_path.write_text(line)
    code = main(["validate", "--map", str(map_path), "--scen", str(scen_path),
                 "--plan", str(plan_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert out.startswith("structurally invalid: agent 0: a ride turns round in the shaft"), out


def test_variant_flags_yield_identical_cost_line(golden_files, capsys):
    map_path, scen_path = golden_files
    lines = []
    for flags in (["--ec", "on", "--mdde", "on"], ["--ec", "off", "--mdde", "off"]):
        assert main(["solve", "--map", str(map_path), "--scen", str(scen_path)] + flags) == 0
        lines.append(capsys.readouterr().out.splitlines()[0])
    assert lines[0] == lines[1] == "soc 9"


def test_oracle_subcommand(golden_files, capsys):
    map_path, scen_path = golden_files
    assert main(["oracle", "--map", str(map_path), "--scen", str(scen_path)]) == 0
    assert capsys.readouterr().out.strip() == "soc 9"


def test_gen_solve_pipeline(tmp_path, capsys):
    map_path = tmp_path / "g.map"
    scen_path = tmp_path / "g.scen"
    assert main(["gen", "--size", "6", "--floors", "2", "--elevators", "2",
                 "--tfloor", "2", "--agents", "3", "--seed", "5",
                 "--out-map", str(map_path), "--out-scen", str(scen_path)]) == 0
    capsys.readouterr()
    assert main(["solve", "--map", str(map_path), "--scen", str(scen_path)]) == 0
    assert capsys.readouterr().out.startswith("soc ")


def test_bench_subcommand_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    out = tmp_path / "out.csv"
    cfg.write_text("experiment = mini\nsize = 6\nfloors = 2\nelevators = 2\n"
                   "tfloor = 2\nagents = 2\ninstances = 1\ntime_limit = 10\n"
                   "variants = cbs+ec\n")
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("experiment,variant,N,floors,tfloor,seed,status,soc,expanded,")
    assert len(lines) == 2
    assert "N=2" in capsys.readouterr().out


def test_timeout_exit_code(tmp_path, capsys):
    map_path = tmp_path / "swap.map"
    scen_path = tmp_path / "swap.scen"
    map_path.write_text("type mapf-e\nfloors 1\nheight 1\nwidth 2\ntfloor 1\n..\n")
    scen_path.write_text("1 0 0 1 1 0\n1 1 0 1 0 0\n")
    code = main(["solve", "--map", str(map_path), "--scen", str(scen_path),
                 "--time-limit", "0.2"])
    assert code == 2
    # the swap has no solution, and its tree's least open g is at least
    # the root's 2
    timeout, bound, stats = capsys.readouterr().out.splitlines()
    assert timeout == "timeout"
    assert bound.startswith("lower_bound ") and int(bound.split()[1]) >= 2
    # the statistics follow, where the time went among them
    values = _stats(stats)
    assert values["lower_bound"] == bound.split()[1] and values["solved"] == "0"
    assert float(values["runtime_ms"]) >= 200.0


def test_infeasible_exit_code(tmp_path, capsys):
    map_path = tmp_path / "wall.map"
    scen_path = tmp_path / "wall.scen"
    map_path.write_text("type mapf-e\nfloors 1\nheight 1\nwidth 3\ntfloor 1\n.@.\n")
    scen_path.write_text("1 0 0 1 2 0\n")
    assert main(["solve", "--map", str(map_path), "--scen", str(scen_path)]) == 1
    infeasible, stats = capsys.readouterr().out.splitlines()
    assert infeasible == "infeasible" and _stats(stats)["expanded"] == "0"
    assert main(["oracle", "--map", str(map_path), "--scen", str(scen_path)]) == 1


def test_oracle_horizon_exhausted_exit_code(tmp_path, capsys):
    map_path = tmp_path / "swap.map"
    scen_path = tmp_path / "swap.scen"
    map_path.write_text("type mapf-e\nfloors 1\nheight 1\nwidth 2\ntfloor 1\n..\n")
    scen_path.write_text("1 0 0 1 1 0\n1 1 0 1 0 0\n")
    code = main(["oracle", "--map", str(map_path), "--scen", str(scen_path),
                 "--horizon", "6"])
    assert code == 2
    assert capsys.readouterr().out.strip() == "unknown within horizon"


def test_usage_errors_exit_3(capsys):
    assert main(["solve", "--map"]) == 3
    assert main(["frobnicate"]) == 3
    assert main(["solve", "--map", "a", "--scen", "b", "--bogus"]) == 3
    err = capsys.readouterr().err
    assert "usage" in err


def test_unreadable_input_is_invalid(tmp_path, capsys):
    missing = tmp_path / "nope.map"
    assert main(["solve", "--map", str(missing), "--scen", str(missing)]) == 1


@pytest.mark.parametrize("command", ["solve", "validate"])
def test_huge_tfloor_is_an_error_without_a_traceback(tmp_path, capsys, command):
    """A ride of 10^15 steps would make a path's timeline that long."""
    t = 10 ** 15
    files = {"map": f"type mapf-e\nfloors 2\nheight 1\nwidth 2\ntfloor {t}\nE.\nE.\n",
             "scen": "1 1 0 2 1 0\n",
             "plan": f"agent 0: (1,1,0)@0 (1,0,0)@1 (2,0,0)@{t + 1} (2,1,0)@{t + 2}\n"}
    argv = [command]
    for kind, text in files.items():
        if command == "solve" and kind == "plan":
            continue
        (tmp_path / kind).write_text(text)
        argv += [f"--{kind}", str(tmp_path / kind)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "error: elevator 0: t_floor must lie in [1, 1000]"


def test_huge_bench_grid_is_an_error_without_a_traceback(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("size = 100000\nagents = 1\ninstances = 1\n")
    assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err.strip() == "error: size must be <= 1000"
    assert not (tmp_path / "out.csv").exists()


def test_bench_floor_count_is_bounded_by_the_cell_budget():
    # the generator lists every cell of every floor; a 1000 x 1000 grid on
    # two floors, the largest accepted before floors were bounded, still fits
    for floors in ("100000000", "2,100000000", str(MAX_CELLS // 64 + 1)):
        with pytest.raises(ValueError, match=f"floors x size x size must be <= {MAX_CELLS}"):
            parse_config(f"size = 8\nagents = 1\nfloors = {floors}\n")
    for size, floors in ((1000, 2), (8, MAX_CELLS // 64)):
        assert parse_config(f"size = {size}\nagents = 1\nfloors = {floors}\n").floors == floors


def test_huge_gen_floor_count_is_an_error_without_a_traceback(tmp_path, capsys):
    code = main(["gen", "--floors", "100000000", "--out-map", str(tmp_path / "g.map"),
                 "--out-scen", str(tmp_path / "g.scen")])
    assert code == 1
    assert capsys.readouterr().err.strip() == \
        f"error: floors x size x size must be <= {MAX_CELLS}"
    assert not (tmp_path / "g.map").exists()


@pytest.mark.parametrize("flags, message", [
    (["--floors", "0"], "error: floors must be >= 1"),
    (["--tfloor", "0"], "error: tfloor must be >= 1"),
    (["--agents", "-1"], "error: agents must be >= 1"),
    (["--agents", "0"], "error: agents must be >= 1"),
    (["--size", "2", "--elevators", "1", "--agents", "20"],
     "error: not enough free cells for 20 agents"),
])
def test_gen_reports_bad_counts_without_a_traceback(tmp_path, capsys, flags, message):
    code = main(["gen", *flags, "--out-map", str(tmp_path / "g.map"),
                 "--out-scen", str(tmp_path / "g.scen")])
    assert code == 1
    assert capsys.readouterr().err.strip() == message
    assert not (tmp_path / "g.map").exists()


@pytest.mark.parametrize("value", ["nan", "-1", "0", "abc"])
def test_bad_time_limit_is_a_usage_error(golden_files, capsys, value):
    map_path, scen_path = golden_files
    code = main(["solve", "--map", str(map_path), "--scen", str(scen_path),
                 "--time-limit", value])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --time-limit" in captured.err


def test_infinite_time_limit_means_no_limit(golden_files, capsys):
    map_path, scen_path = golden_files
    code = main(["solve", "--map", str(map_path), "--scen", str(scen_path),
                 "--time-limit", "inf"])
    assert code == 0
    assert capsys.readouterr().out.startswith("soc 9")


@pytest.mark.parametrize("value", ["-5", "1.5"])
def test_bad_oracle_horizon_is_a_usage_error(golden_files, capsys, value):
    map_path, scen_path = golden_files
    code = main(["oracle", "--map", str(map_path), "--scen", str(scen_path),
                 "--horizon", value])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --horizon" in captured.err
