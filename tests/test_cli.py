import pytest

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
    assert lines[3].startswith("stats expanded=")
    assert "mdd_builds=" in lines[3] and "mdd_reuses=" in lines[3]
    # one field per goal, plus the door field of each agent's start floor
    fields = lines[3].split()
    assert fields[-2].startswith("mdd_reuses=") and fields[-1] == "distance_fields=4"


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
    assert lines[0].startswith("experiment,variant,N,floors,tfloor,seed,solved,soc")
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
    assert capsys.readouterr().out.strip() == "timeout"


def test_infeasible_exit_code(tmp_path, capsys):
    map_path = tmp_path / "wall.map"
    scen_path = tmp_path / "wall.scen"
    map_path.write_text("type mapf-e\nfloors 1\nheight 1\nwidth 3\ntfloor 1\n.@.\n")
    scen_path.write_text("1 0 0 1 2 0\n")
    assert main(["solve", "--map", str(map_path), "--scen", str(scen_path)]) == 1
    capsys.readouterr()
    assert main(["oracle", "--map", str(map_path), "--scen", str(scen_path)]) == 1


def test_usage_errors_exit_3(capsys):
    assert main(["solve", "--map"]) == 3
    assert main(["frobnicate"]) == 3
    assert main(["solve", "--map", "a", "--scen", "b", "--bogus"]) == 3
    err = capsys.readouterr().err
    assert "usage" in err


def test_unreadable_input_is_invalid(tmp_path, capsys):
    missing = tmp_path / "nope.map"
    assert main(["solve", "--map", str(missing), "--scen", str(missing)]) == 1


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
