"""Spans around the solver's layer boundaries, recorded from outside.

The tracer replaces module attributes that the solver calls through with
wrappers that record a span per call: name, start, end, parent span and
instance id, plus one small figure read off the return value (a conflict
count, a label, a node count). `mapfe` itself is not modified, and nothing
is wrapped unless `install` is called, which only the traced pass does.

A boundary that no longer exists, say after a refactor, is skipped and its
metrics are reported as missing rather than failing the pass; so are the
figures of a boundary whose return value no longer has the expected shape.
A span that ends in an exception (an MDD-E over its node cap) has no figure.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict


def _is_none(result) -> int:
    return int(result is None)


def _elevator_kinds(result) -> tuple[int, int]:
    boarding = sum(1 for c in result if c.kind == "boarding")
    return boarding, len(result) - boarding


def _is_found(result) -> int:
    return int(result is not None)


def _class_label(result) -> str:
    label, joint = result
    return "capped" if joint is None else label


def _level_nodes(result) -> int:
    return sum(len(level) for level in result.levels.values())


# (module, attribute, span name, figure read off the return value)
BOUNDARIES = (
    ("mapfe.cbs", "plan", "sipp.plan", _is_none),
    ("mapfe.cbs", "enumerate_conflicts", "cbs.enumerate_conflicts", len),
    ("mapfe.cbs", "detect_elevator_conflicts", "elevator.detect_elevator_conflicts", _elevator_kinds),
    ("mapfe.mdd", "classify", "mdd.classify", _class_label),
    ("mapfe.mdd", "find_bypass", "mdd.find_bypass", _is_found),
    ("mapfe.mdd", "build_mdd_e", "mdd.build_mdd_e", _level_nodes),
    ("mapfe.mdd", "build_joint", "mdd.build_joint", _level_nodes),
    # The one private boundary: heuristic construction is a layer of its own.
    ("mapfe.sipp", "_Heuristic", "sipp.heuristic", None),
    ("mapfe.mdd", "_Heuristic", "mdd.heuristic", None),
)

NAME, START, END, PARENT, INSTANCE, FIGURE = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.instance = -1
        self.installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def call(self, name: str, fn, *args, figure=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span, unless `instance` is None."""
        if self.instance is None:
            return fn(*args, **kwargs)
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.instance, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[END] = time.perf_counter()
            self.stack.pop()
        if figure is not None:
            try:
                rec[FIGURE] = figure(result)
            except (AttributeError, TypeError, ValueError):
                if name + ".figure" not in self.missing:
                    self.missing.append(name + ".figure")
        return result

    def install(self) -> None:
        for module_name, attr, name, figure in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(name)
                continue

            def traced(*args, _fn=original, _name=name, _figure=figure, **kwargs):
                return self.call(_name, _fn, *args, figure=_figure, **kwargs)

            setattr(module, attr, traced)
            self.installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.installed):
            setattr(module, attr, original)
        self.installed.clear()

    def write(self, path) -> None:
        """One JSON array per span: name, start, end, parent, instance, figure."""
        with open(path, "w") as out:
            for rec in self.spans:
                out.write(json.dumps(rec) + "\n")


def aggregate(spans: list[list], instances: set[int]) -> dict[str, dict]:
    """Per span name, over spans of the given instances: calls, total time
    s, self time (duration minus the time its child spans cover) and the
    figures read off the return values."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "figures": []})
    for idx, rec in enumerate(spans):
        if rec[INSTANCE] not in instances:
            continue
        agg = out[rec[NAME]]
        dur = rec[END] - rec[START]
        agg["calls"] += 1
        agg["s"] += dur
        agg["self_s"] += dur - child_time[idx]
        if rec[FIGURE] is not None:
            agg["figures"].append(rec[FIGURE])
    return out


def _ratio(num: float, den: float) -> float:
    """num / den, with 0 when nothing was counted (e.g. no mdd calls)."""
    return num / den if den else 0.0


# Per traced boundary: which time it reports ("self_s", or "s" where the
# issue's metric is the inclusive time) and the metrics read off its figures.
_LAYERS = {
    "cbs.enumerate_conflicts": ("self_s", lambda a: {
        "cbs.conflicts_per_call": _ratio(sum(a["figures"]), a["calls"])}),
    "elevator.detect_elevator_conflicts": ("self_s", lambda a: {
        "elevator.conflicts.boarding": sum(f[0] for f in a["figures"]),
        "elevator.conflicts.occupancy": sum(f[1] for f in a["figures"])}),
    "sipp.plan": ("self_s", lambda a: {"sipp.plan.none": sum(a["figures"])}),
    "mdd.classify": ("self_s", lambda a: {
        f"mdd.classify.{label.replace('-', '_')}": a["figures"].count(label)
        for label in ("cardinal", "semi-cardinal", "non-cardinal", "capped")}),
    "mdd.build_mdd_e": ("self_s", lambda a: {"mdd.build_mdd_e.nodes": sum(a["figures"])}),
    "mdd.build_joint": ("s", lambda a: {"mdd.build_joint.pairs": sum(a["figures"])}),
    "mdd.find_bypass": ("s", lambda a: {"mdd.find_bypass.found": sum(a["figures"])}),
}


def layer_metrics(spans: list[list], solved: set[int], stats: dict[int, dict],
                  missing: list[str]) -> dict[str, float]:
    """The per-layer metrics over solved instances. `stats` maps instance id
    to its SolveStats fields; metrics of a missing boundary are omitted."""
    agg = aggregate(spans, solved)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "figures": []}
    m: dict[str, float] = {}

    expanded = sum(stats[k]["expanded"] for k in solved)
    m["cbs.expanded"] = expanded
    m["cbs.generated"] = sum(stats[k]["generated"] for k in solved)
    m["cbs.bypasses"] = sum(stats[k]["bypasses"] for k in solved)
    for kind in ("vertex", "edge", "boarding", "occupancy"):
        m[f"cbs.branchings.{kind}"] = sum(stats[k]["branchings"].get(kind, 0) for k in solved)
    solve = agg.get("cbs.solve", empty)
    m["cbs.expansions_per_s"] = _ratio(expanded, solve["s"])
    m["cbs.self_s"] = solve["self_s"]

    for name, (time_key, from_figures) in _LAYERS.items():
        if name in missing:
            continue
        a = agg.get(name, empty)
        m[f"{name}.calls"] = a["calls"]
        m[f"{name}.{time_key}"] = a[time_key]
        if name + ".figure" not in missing:
            m.update(from_figures(a))
    if "mdd.classify" not in missing:
        m["mdd.classify_per_expansion"] = _ratio(m["mdd.classify.calls"], expanded)
    if "mdd.find_bypass.found" in m:
        m["mdd.bypass_adopt_ratio"] = _ratio(m["cbs.bypasses"], m["mdd.find_bypass.found"])

    heuristics = [agg.get(n, empty) for n in ("sipp.heuristic", "mdd.heuristic") if n not in missing]
    if heuristics:
        m["sipp.heuristic.builds"] = sum(a["calls"] for a in heuristics)
        m["sipp.heuristic.s"] = sum(a["s"] for a in heuristics)
    if "mdd.heuristic" not in missing:
        m["sipp.heuristic.mdd_builds"] = agg.get("mdd.heuristic", empty)["calls"]
    for name in ("model.parse_map", "model.parse_scenario"):  # every instance is parsed
        m[f"{name}.s"] = sum(rec[END] - rec[START] for rec in spans if rec[NAME] == name)
    return m
