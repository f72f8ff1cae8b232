"""One process of the solve benchmark, started fresh by `run.py`.

It reads a JSON job on stdin, imports `mapfe` from the checkout's `src`,
and parses every instance's map and scenario text. A "setup" job stops
there, so that its wall time is the set-up cost. A "solve" job then solves
the instances one at a time in the job's seeded order, timing each call to
`solve()` from outside and running the calibration probe before it. It
then re-solves the instances that solved in under REPEAT_BELOW_S, in a
fresh seeded order each time, while another such pass fits in the job's
seconds. A "trace" job makes one pass with the layer boundaries wrapped.
Every returned plan goes through the correctness gate as soon as it is
returned, so that no result stays on the heap. The last line of stdout is
the JSON result.
"""
from __future__ import annotations

import functools
import gc
import json
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPEAT_BELOW_S = 0.1


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, str(ROOT / "src"))
    import mapfe
    tracer = None
    parse_map, parse_scenario, solve = mapfe.parse_map, mapfe.parse_scenario, mapfe.solve
    if job["mode"] == "trace":
        import spans
        tracer = spans.Tracer()
        parse_map = functools.partial(tracer.call, "model.parse_map", parse_map)
        parse_scenario = functools.partial(tracer.call, "model.parse_scenario", parse_scenario)
        solve = functools.partial(tracer.call, "cbs.solve", solve)

    instances = []
    for k, (map_text, scenario_text) in enumerate(job["texts"]):
        if tracer:
            tracer.instance = k
        instances.append(parse_scenario(scenario_text, parse_map(map_text)))
    if job["mode"] == "setup":
        print(json.dumps({"parsed": len(instances)}))
        return 0

    import check
    import metrics
    replay = check.load_replay(ROOT)
    config = mapfe.SolverConfig(ec_enabled=job["ec"], mdde_enabled=job["mdde"],
                                time_limit=job["time_limit"])
    optimum = job["optimum"]
    rng = random.Random(job["seed"])
    samples = []  # [instance, status, wall s, probe s just before the solve, errors]
    stats = {}

    def solve_pass(ids) -> None:
        ids = list(ids)
        rng.shuffle(ids)
        for k in ids:
            gc.collect()  # each solve starts on a clean heap and pays for its own garbage
            probe = metrics.calibration()
            if tracer:
                tracer.instance = k
            t0 = time.perf_counter()
            result = solve(instances[k], config)
            wall = time.perf_counter() - t0
            if tracer:
                tracer.instance = None  # the gate's own calls are not traced
            errors = check.plan_errors(instances[k], result, optimum[k], replay)
            samples.append([k, result.status, wall, probe, errors])
            s = result.stats
            stats[k] = {"expanded": s.expanded, "generated": s.generated,
                        "bypasses": s.bypasses, "branchings": dict(s.branchings)}

    if tracer:
        tracer.install()
    start = time.perf_counter()
    solve_pass(range(len(instances)))
    # Re-time the quick solves, whose single times are the noisiest, while
    # another such pass, probes and checks included, fits in the job's seconds.
    quick = [(k, wall) for k, status, wall, _, _ in samples
             if status == "solved" and wall < REPEAT_BELOW_S]
    pass_time = sum(wall for _, wall in quick)
    repeats = 0
    while not tracer and quick and time.perf_counter() - start + pass_time <= job["seconds"]:
        t0 = time.perf_counter()
        solve_pass(k for k, _ in quick)
        pass_time = time.perf_counter() - t0
        repeats += 1
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    last_probe = metrics.calibration()
    if tracer:
        tracer.uninstall()

    out = {"samples": samples, "last_probe": last_probe, "repeats": repeats,
           "peak_rss_kb": peak_rss_kb}
    if tracer:
        solved = {k for k, status, *_ in samples if status == "solved"}
        out["layers"] = spans.layer_metrics(tracer.spans, solved, stats, tracer.missing)
        out["missing"] = tracer.missing
        spans_path = ROOT / job["spans_file"]
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
