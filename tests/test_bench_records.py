"""The `BENCH_*.json` records at the repository root are well formed.

Each record holds the benchmark pairs of one change against its parent
commit. Every workload of BENCHMARK.json needs at least ten pairs of runs
of every end-to-end metric, and no run may have returned a wrong plan.
The record's claim is `none` or `<metric> on <workload>`, both named in
BENCHMARK.json, and its search counters at 30 s cover every workload.
"""
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
METRICS = END_TO_END + [m["name"] for m in BENCHMARK["per_layer"]]
MIN_PAIRS = 10


def test_the_records_exist():
    assert RECORDS, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_has_ten_clean_pairs_per_metric(path):
    record = json.loads(path.read_text())
    assert record.get("parent"), "no parent commit"
    assert record.get("layers"), "no layer named"
    workloads = record["benchmark_pairs"]["workloads"]
    for name in WORKLOADS:
        assert name in workloads, name
        runs = workloads[name]
        assert runs["wrong_plans"] == {"parent": 0, "change": 0}, name
        for metric in END_TO_END:
            pairs = runs["metrics"][metric]["per_pair"]
            assert len(pairs) >= MIN_PAIRS, (name, metric)
            assert all(len(pair) == 2 for pair in pairs), (name, metric)


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_claims_a_named_metric_and_counts_every_workload(path):
    record = json.loads(path.read_text())
    claim = record["benchmark_pairs"]["claim"]
    if claim != "none":
        words = claim.split(" ")
        assert len(words) == 3 and words[1] == "on", claim
        assert words[0] in METRICS and words[2] in WORKLOADS, claim
    counted = record["search_counters_at_30s"]["workloads"]
    assert sorted(counted) == sorted(WORKLOADS)
