"""Malformed input files never crash the command line.

Hypothesis builds map, scenario, plan and bench-config files from each
format's own tokens, so that many inputs get past the first check and
fail, or pass, deeper in. Every run of `cli.main` must end with one of the
README's exit codes (0 success, 1 infeasible or invalid, 2 timeout, 3
usage error) and write no traceback. Each file is fuzzed next to valid
companions, and the solver's time limit is short.
"""
import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mapfe.cli import main

from conftest import THREE_FLOOR_STRIP

SCEN = "1 0 0 2 2 0\n3 0 0 2 0 0\n"
PLAN = ("agent 0: (1,0,0)@0 (1,0,0)@1 (1,0,0)@2 (1,0,0)@3 (1,1,0)@4 (2,1,0)@5 (2,2,0)@6\n"
        "agent 1: (3,0,0)@0 (3,1,0)@1 (2,1,0)@2 (2,0,0)@3\n")
NUMBERS = ["0", "1", "2", "3", "-1", "99", "x", "1.5", ""]
FUZZ = settings(max_examples=300, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


def _lines(*line_strategies):
    return st.lists(st.one_of(*line_strategies), max_size=8).map("\n".join)


def _words(words):
    return st.lists(st.sampled_from(words), max_size=6).map(" ".join)


@st.composite
def _edited(draw, text, line):
    """A valid file with up to three lines inserted, replaced or deleted."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(["insert", "replace", "delete"]))
        if op == "insert":
            lines.insert(i, draw(line))
        elif i < len(lines):
            if op == "replace":
                lines[i] = draw(line)
            else:
                del lines[i]
    return "\n".join(lines) + "\n"


def _fuzzed(valid, line):
    """Token lines alone, or a valid file edited with them."""
    return st.one_of(_lines(line), _edited(valid, line))


MAP_LINE = st.one_of(
    _words(["type", "mapf-e", "floors", "height", "width", "tfloor", "tfloor_k"] + NUMBERS),
    st.text(".@TE#x ", max_size=4))
MAP_TEXT = _fuzzed(THREE_FLOOR_STRIP, MAP_LINE)
SCEN_TEXT = _fuzzed(SCEN, _words(NUMBERS + ["#"]))
PLAN_TEXT = _fuzzed(PLAN, st.one_of(
    _words(["agent", "agent 0:", "agent 1:", "agent 2:", "0", ":", "(1,0,0)@0", "(1,0,0)@1",
            "(1,1,0)@4", "(2,1,0)@5", "(2,2,0)@6", "(3,0,0)@0", "(3,1,0)@1", "(2,1,0)@2",
            "(2,0,0)@3", "(9,9,9)@9", "(0,0,0)@0", "(1,0,0)@", "garbage"]),
    st.sampled_from(PLAN.splitlines())))
CONFIG_TEXT = _lines(st.builds(
    "{} {} {}".format,
    st.sampled_from(["experiment", "size", "obstacle_rate", "floors", "elevators", "tfloor",
                     "agents", "instances", "time_limit", "seed", "variants", "axis", "bogus",
                     "# size"]),
    st.sampled_from(["=", "", "=="]),
    st.sampled_from(["0", "1", "2", "3", "-1", "1,2", "2,3", "x", "0.05", "0.5", "nan", "",
                     "cbs", "cbs+ec+mdde", "cbs,cbs+mdde", "fast"])))
# a small suite; the fuzzed lines can override it only with the values above,
# so a suite stays at most 3 instances on grids of at most 3x3 cells, with at
# most 0.5 s per solve
CONFIG_BASE = "size = 3\ninstances = 1\nagents = 2\ntime_limit = 0.05\nvariants = cbs\n"


def _run(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code


def _write(directory, name, text):
    path = directory / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _solve(directory, map_text, scen_text):
    return _run(["solve", "--map", _write(directory, "f.map", map_text),
                 "--scen", _write(directory, "f.scen", scen_text), "--time-limit", "0.2"])


def _validate(directory, plan_text):
    return _run(["validate", "--map", _write(directory, "f.map", THREE_FLOOR_STRIP),
                 "--scen", _write(directory, "f.scen", SCEN),
                 "--plan", _write(directory, "f.plan", plan_text)])


def test_the_valid_companions_are_valid(tmp_path):
    assert _solve(tmp_path, THREE_FLOOR_STRIP, SCEN) == 0
    assert _validate(tmp_path, PLAN) == 0


def test_fuzzed_maps(tmp_path_factory):
    directory = tmp_path_factory.mktemp("maps")

    @FUZZ
    @given(MAP_TEXT)
    def check(text):
        _solve(directory, text, SCEN)

    check()


def test_fuzzed_scenarios(tmp_path_factory):
    directory = tmp_path_factory.mktemp("scenarios")

    @FUZZ
    @given(SCEN_TEXT)
    def check(text):
        _solve(directory, THREE_FLOOR_STRIP, text)

    check()


def test_fuzzed_plans(tmp_path_factory):
    directory = tmp_path_factory.mktemp("plans")

    @FUZZ
    @given(PLAN_TEXT)
    def check(text):
        _validate(directory, text)

    check()


def test_fuzzed_bench_configs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("configs")

    @FUZZ
    @given(CONFIG_TEXT)
    def check(text):
        _run(["bench", "--config", _write(directory, "f.cfg", CONFIG_BASE + text),
              "--out", str(directory / "out.csv")])

    check()
