"""Benchmark of `mapfe.solve` on pinned, seeded instance sets.

Usage, from the repository root:

    python3 solvebench/run.py --workload desk-mdde --seed 1 --seconds 35 --trace 0

The workloads are defined in `suite.py`. Each run regenerates its
workload's instance set, checks it against the digest in `pinned.json`,
and hands the instances to fresh child processes as map and scenario text
(see `child.py`). `--seed` fixes the order in which the instances are
solved; the set itself is pinned, so that runs with different seeds
measure the same work. Children run one at a time with PYTHONHASHSEED
fixed, so a solve never shares the machine with another of this
benchmark's processes.

With `--trace 0` the run reports the end-to-end metrics. Each instance is
solved once; then the instances that solved quickly are solved again, in a
new order each time, while another such pass fits in `--seconds`, because
single short solves are the noisiest. An instance's time is the median
wall time of its solves, taken with perf_counter around `solve()`, so a
timeout is charged the time it really took.

Shared hosts change speed by 5-40 % from one minute, or one second, to
the next, which would move every time of a run together. So the child
times a fixed integer loop (`metrics.calibration`, about 5 ms) before each
solve and once after the last, and times are reported as they would read
on the reference host: a finished solve's wall time is multiplied by
REFERENCE_CALIBRATION_S over the mean of the probes just before and after
it. A timeout keeps its wall time, because the limit is wall-clock
everywhere. The loop touches neither mapfe nor objects the collector
tracks, so the program under test cannot move it. The run's median probe
time is printed with the host notes.

    solve_sgm_ms   shifted geometric mean of instance times, shift 10 ms
    solve_p50_ms   median of instance times (smoothed, see metrics.percentile)
    solve_p90_ms   90th percentile of instance times (smoothed)
    solve_total_s  sum of instance times: how long one sweep of the set takes
    solved_frac    instances whose every solve finished within the time limit
                   / instances
    peak_rss_mb    peak resident set of the solving process
    setup_s        median wall time of fresh processes that import mapfe and
                   parse the workload's inputs, then exit, each scaled by the
                   probes just before and after it

Every returned plan goes through the correctness gate in `check.py`; the
number of solves failing it is `wrong_plans`, reported as `failed`, and any
failure makes the run exit non-zero.

With `--trace 1` the run makes one untraced pass and then one traced pass
over the workload's traced set in `pinned.json`: the instances that solved
in under a third of the time limit when the set was pinned (see
`pin.py`), so that no traced solve comes near the limit and the counts
repeat exactly. It reports the per-layer metrics of `spans.py` over the
instances the traced pass solved, plus `trace.overhead_frac`, the traced
pass's extra solve time over instances both passes solved. Layer times are
scaled to the reference host speed like the end-to-end times. The spans
are written to `.solvebench/spans-<workload>.jsonl`.

`--smoke` solves only the first few instances, for a seconds-long check.
The last line of output is one JSON object: correct, attempted, failed and
metrics (each metric a value and its unit).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import metrics  # noqa: E402
import suite  # noqa: E402

SETUP_REPEATS = 11
SMOKE_INSTANCES = 4
DEADLINE_S = 175  # the whole run, children included


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def host_notes() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def run_child(job: dict, deadline: float) -> tuple[dict, float]:
    """Run child.py on the job in a fresh process, killed if it is still
    running at the perf_counter deadline; its result and wall time."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "child.py")], input=json.dumps(job),
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=max(1.0, deadline - t0))
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"{job['mode']} process failed with code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def timed_setup(job: dict, deadline: float) -> float:
    """Wall time of one set-up process, at the reference host speed by the
    probes taken just before and after it."""
    before = metrics.calibration()
    _, wall = run_child(job, deadline)
    return wall * metrics.REFERENCE_CALIBRATION_S / ((before + metrics.calibration()) / 2)


def per_instance(result: dict) -> dict[int, tuple[bool, float]]:
    """Per instance: whether every solve of it finished within the time
    limit, and the median of its solves' times at the reference host speed
    (see the module docstring)."""
    probes = [probe for _, _, _, probe, _ in result["samples"]] + [result["last_probe"]]
    walls: dict[int, list[float]] = {}
    solved: dict[int, bool] = {}
    for i, (k, status, wall, _, _) in enumerate(result["samples"]):
        if status != "solved":
            probe = metrics.REFERENCE_CALIBRATION_S  # the limit is wall-clock on every host
        else:
            probe = (probes[i] + probes[i + 1]) / 2
        walls.setdefault(k, []).append(wall * metrics.REFERENCE_CALIBRATION_S / probe)
        solved[k] = solved.get(k, True) and status == "solved"
    return {k: (solved[k], statistics.median(walls[k])) for k in walls}


def end_to_end(result: dict) -> dict[str, float]:
    instances = per_instance(result).values()
    times_ms = [wall * 1000.0 for _, wall in instances]
    return {
        "solve_sgm_ms": metrics.sgm(times_ms),
        "solve_p50_ms": metrics.percentile(times_ms, 0.5),
        "solve_p90_ms": metrics.percentile(times_ms, 0.9),
        "solve_total_s": sum(times_ms) / 1000.0,
        "solved_frac": sum(solved for solved, _ in instances) / len(times_ms),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def trace_overhead(plain: dict, traced: dict) -> float:
    """(traced - untraced) / untraced solve time, over instances both passes
    solved."""
    untraced = per_instance(plain)
    both = [(untraced[k][1], wall) for k, (solved, wall) in per_instance(traced).items()
            if solved and untraced[k][0]]
    base = sum(u for u, _ in both)
    return (sum(t for _, t in both) - base) / base


def failures(result: dict, texts: list) -> list[str]:
    return [f"seed {texts[k].seed}: " + "; ".join(errors)
            for k, _, _, _, errors in result["samples"] if errors]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of mapfe.solve on pinned instance sets.")
    ap.add_argument("--workload", required=True, choices=sorted(suite.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="fixes the solving order")
    ap.add_argument("--seconds", type=float, required=True,
                    help="re-time quick solves while another pass of them fits in this time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="solve only the first few instances")
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    for needed in (ROOT / "src" / "mapfe" / "__init__.py", ROOT / "tests" / "reference.py"):
        if not needed.is_file():
            raise BenchError(f"{needed.relative_to(ROOT)} not found: run from a full checkout")
    workload = suite.WORKLOADS[args.workload]
    texts = suite.generate_set(workload.family)
    all_pinned = json.loads((HERE / "pinned.json").read_text())
    pinned = all_pinned[workload.family]
    if suite.digest(texts) != pinned["digest"]:
        raise BenchError(f"the {workload.family} instances no longer match their pinned digest")
    if args.smoke:
        texts = texts[:SMOKE_INSTANCES]
    if args.trace:
        traced_seeds = set(all_pinned["traced"][args.workload])
        texts = [t for t in texts if t.seed in traced_seeds]

    job = {
        "texts": [[t.map_text, t.scenario_text] for t in texts],
        "optimum": [pinned["optimum"].get(str(t.seed)) for t in texts],
        "ec": workload.ec_enabled, "mdde": workload.mdde_enabled,
        "time_limit": workload.time_limit, "seed": args.seed,
    }
    host = host_notes()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    # With tracing on, the untraced pass is only the reference for the overhead.
    plain, _ = run_child(dict(job, mode="solve", seconds=0 if args.trace else args.seconds),
                         deadline)
    wrong = failures(plain, texts)
    attempted = len(plain["samples"])
    if args.trace:
        spans_file = f".solvebench/spans-{args.workload}.jsonl"
        traced, _ = run_child(dict(job, mode="trace", spans_file=spans_file), deadline)
        wrong += failures(traced, texts)
        attempted += len(traced["samples"])
        # layer times too are reported at the reference host speed
        scale = metrics.REFERENCE_CALIBRATION_S / statistics.median(
            [p for _, _, _, p, _ in traced["samples"]] + [traced["last_probe"]])
        values = {name: value * scale if units[name] == "s" else value / scale
                  if units[name] == "1/s" else value for name, value in traced["layers"].items()}
        values["trace.overhead_frac"] = trace_overhead(plain, traced)
        if traced["missing"]:
            print(f"missing boundaries: {', '.join(traced['missing'])}")
        print(f"spans: {spans_file}")
    else:
        setup_job = dict(job, mode="setup")
        run_child(setup_job, deadline)  # warm-up: the first import may compile bytecode
        setup = [timed_setup(setup_job, deadline)
                 for _ in range(1 if args.smoke else SETUP_REPEATS)]
        values = dict(end_to_end(plain), setup_s=statistics.median(setup))

    for line in wrong:
        print(f"WRONG PLAN {line}")
    print(f"workload {args.workload}: {len(texts)} instances, {plain['repeats']} repeat "
          f"pass(es), time limit {workload.time_limit} s, seed {args.seed}")
    probe = statistics.median([p for _, _, _, p, _ in plain["samples"]])
    print(f"host: {json.dumps(host)}; calibration median {probe * 1000:.3f} ms, "
          f"reference {metrics.REFERENCE_CALIBRATION_S * 1000:.3f} ms")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"wrong_plans = {len(wrong)} count")
    print(json.dumps({
        "correct": not wrong, "attempted": attempted, "failed": len(wrong),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"solvebench: {exc}", file=sys.stderr)
        sys.exit(2)
