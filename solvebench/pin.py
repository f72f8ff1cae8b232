"""Regenerate `pinned.json`: each family's input digest, the optimal sum of
costs of every instance that solves within a generous time limit, and per
workload the instances of its traced pass: those that solved in under a
third of the workload's own time limit, so that no run of the traced pass
comes near the limit and its counts repeat exactly.

Run from the repository root: `python3 solvebench/pin.py`.
Every workload solving a family contributes its variant; where two variants
solve the same instance their optima must agree, or nothing is written.
Re-pinning changes what the benchmark accepts as correct, so do it only
when the inputs are meant to change.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
TRACED_SHARE = 1 / 3
LIMIT_S = 30.0  # per solve; instances slower than this stay without a pinned optimum

import mapfe  # noqa: E402
import suite  # noqa: E402


def main() -> int:
    pinned: dict = {"traced": {name: [] for name in suite.WORKLOADS}}
    for family in suite.FAMILIES:
        texts = suite.generate_set(family)
        optimum: dict[str, int] = {}
        variants = [(n, w) for n, w in suite.WORKLOADS.items() if w.family == family]
        for inst_text in texts:
            graph = mapfe.parse_map(inst_text.map_text)
            inst = mapfe.parse_scenario(inst_text.scenario_text, graph)
            for name, w in variants:
                t0 = time.perf_counter()
                result = mapfe.solve(inst, mapfe.SolverConfig(
                    ec_enabled=w.ec_enabled, mdde_enabled=w.mdde_enabled, time_limit=LIMIT_S))
                dt = time.perf_counter() - t0
                print(f"{family} {inst_text.seed} {name} {result.status} {dt * 1000:.1f} ms",
                      file=sys.stderr, flush=True)
                if result.solution is None:
                    continue
                if dt < w.time_limit * TRACED_SHARE:
                    pinned["traced"][name].append(inst_text.seed)
                g = result.solution.g
                key = str(inst_text.seed)
                if optimum.setdefault(key, g) != g:
                    print(f"variants disagree on seed {key}: {optimum[key]} vs {g}",
                          file=sys.stderr)
                    return 1
        pinned[family] = {"digest": suite.digest(texts), "optimum": optimum}
    (HERE / "pinned.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
