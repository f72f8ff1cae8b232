"""Correctness gate applied to every result the benchmark gets back.

A solved instance passes when `mapfe.validate` finds the plan well formed
and conflict-free, the independent replay checker from the test suite finds
no elevator conflict, the reported g is the plan's sum of costs, and g
equals the optimum pinned for that instance (when one is pinned). An
"infeasible" answer for an instance with a pinned optimum is also wrong.
Timeouts are not checked here; they count against the solved fraction.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

import mapfe


def load_replay(root: Path):
    """`tests/reference.py::replay_elevator_conflicts`, imported read-only
    from its file so that the tests directory need not be a package."""
    spec = importlib.util.spec_from_file_location("solvebench_reference",
                                                  root / "tests" / "reference.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.replay_elevator_conflicts


def plan_errors(instance, result, optimum: int | None, replay) -> list[str]:
    """Why this result is wrong; empty when it passes the gate."""
    if result.status == "infeasible":
        return [f"reported infeasible, pinned optimum {optimum}"] if optimum is not None else []
    if result.status != "solved":
        return []
    paths = list(result.solution.paths)
    g = result.solution.g
    errors = []
    try:
        conflicts = mapfe.validate(instance, paths)
    except mapfe.PathStructureError as exc:
        errors.append(f"malformed plan: {exc}")
    else:
        if conflicts:
            errors.append(f"validate found {len(conflicts)} conflicts, first {conflicts[0]}")
    try:
        replayed = replay(paths, instance.graph)
    except Exception as exc:  # a broken plan can break the replay; that is a failure too
        errors.append(f"replay checker raised {type(exc).__name__}: {exc}")
    else:
        if replayed:
            errors.append(f"replay found {len(replayed)} elevator conflicts, e.g. {min(replayed, key=repr)}")
    cost = sum(p.cost for p in paths)
    if g != cost:
        errors.append(f"reported g {g} but the paths cost {cost}")
    if optimum is not None and g != optimum:
        errors.append(f"g {g} differs from the pinned optimum {optimum}")
    return errors
