"""The solve-wide label and bypass memo of MDD-E conflict selection.

A conflict's label and bypass depend only on the two agents' MDD-Es and
the conflict, so a solve classifies each such triple once, and the
triple is the memo's key. Every label the solver uses, memoised or not,
must equal a fresh classification of the conflict in the node at hand,
and every bypass it adopts a fresh `find_bypass`. The bypass comes from
the classification's own joint search: the solver never searches for one
again, and it fetches each conflict's two diagrams once.
"""
import pytest
from hypothesis import HealthCheck, given, settings

from mapfe import mdd as mdd_mod
from mapfe.bench import ExperimentConfig, gen_instance
from mapfe.cbs import SolverConfig, _conflict_key, _Solver, solve
from mapfe.model import Instance

from test_incremental import PINNED, multi_floor_instances
from test_mdd import _diagrams, _parked_in_the_way


def _key(solver, node, c):
    """The label memo's key of a conflict in a CT node."""
    return (*solver._diagrams(node, c), *_conflict_key(c))


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(multi_floor_instances())
def test_memoised_labels_and_bypasses_equal_fresh_ones(instance):
    graph, agents = instance.graph, instance.agents
    find_conflict, try_bypass = _Solver._find_conflict, _Solver._try_bypass
    real_classify, real_bypass = mdd_mod.classify, mdd_mod.find_bypass

    def checked_find(self, node):
        chosen, bypass, label = find_conflict(self, node)
        for c in node.conflicts:
            entry = self.labels.get(_key(self, node, c))
            if entry is not None:
                assert entry[0] == real_classify(c, *_diagrams(node, c, graph, agents))[0], c
        if chosen is not None and label is not None:
            assert (label, bypass) == self.labels[_key(self, node, chosen)][:2]
            assert bypass == real_bypass(chosen, *_diagrams(node, chosen, graph, agents)), chosen
        return chosen, bypass, label

    def checked_bypass(self, node, bypass):
        adopted = try_bypass(self, node, bypass)
        if adopted:
            agent_id, path = bypass
            assert node.paths[agent_id] == path
        return adopted

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Solver, "_find_conflict", checked_find)
        mp.setattr(_Solver, "_try_bypass", checked_bypass)
        for ec in (False, True):
            solve(instance, SolverConfig(ec_enabled=ec, mdde_enabled=True, time_limit=0.25))


def test_each_conflict_is_classified_once_per_solve(monkeypatch):
    triples = []
    classify = mdd_mod.classify

    def recording(c, mdd_i, mdd_j, joint_cache=None):
        triples.append((mdd_i, mdd_j, *_conflict_key(c)))
        return classify(c, mdd_i, mdd_j, joint_cache)

    monkeypatch.setattr(mdd_mod, "classify", recording)
    cfg = ExperimentConfig(size=8, obstacle_rate=0.1, floors=2, elevators=3,
                           tfloor=3, agents=[6], instances=1)
    result = solve(gen_instance(cfg, 6, seed=777_004),
                   SolverConfig(ec_enabled=False, mdde_enabled=True, time_limit=60))
    assert result.status == "solved"
    # equal diagrams are one object, so no (diagrams, conflict) triple repeats
    assert len(triples) == len(set(triples)) == result.stats.classify_calls
    assert result.stats.label_hits > 0


def test_each_conflict_fetches_its_two_diagrams_once(monkeypatch):
    # every conflict the solver looks at, classified or answered by the
    # label memo, costs two MDD-E cache lookups, and a classification none
    # of its own
    gets = []
    get = mdd_mod.MddECache.get

    def counting(self, *args):
        gets.append(args)
        return get(self, *args)

    monkeypatch.setattr(mdd_mod.MddECache, "get", counting)
    cfg = ExperimentConfig(size=8, obstacle_rate=0.1, floors=2, elevators=3,
                           tfloor=3, agents=[6], instances=1)
    looked_at = 0
    for seed in range(777_000, 777_010):
        gets.clear()
        s = solve(gen_instance(cfg, 6, seed=seed),
                  SolverConfig(ec_enabled=True, mdde_enabled=True, time_limit=10)).stats
        assert len(gets) == 2 * (s.classify_calls + s.label_hits) == s.mdd_builds + s.mdd_reuses, seed
        looked_at += s.classify_calls + s.label_hits
    assert looked_at > 0


def test_the_solver_searches_each_bypass_once(monkeypatch):
    # the classification's joint search yields the bypass; a second search
    # for it, after the label or on a label-memo hit, would raise here
    def second_search(*args, **kwargs):
        raise AssertionError("bypass searched for again")

    monkeypatch.setattr(mdd_mod, "find_bypass", second_search)
    cfg = ExperimentConfig(size=8, obstacle_rate=0.1, floors=2, elevators=3,
                           tfloor=3, agents=[6], instances=1)
    result = solve(gen_instance(cfg, 6, seed=777_004),
                   SolverConfig(ec_enabled=True, mdde_enabled=True, time_limit=60))
    s = result.stats
    assert result.status == "solved"
    assert (result.solution.g, s.expanded, s.generated, s.bypasses, s.branchings) == \
        PINNED[(6, 777_004)][3]
    assert s.bypasses > 0


@pytest.mark.parametrize("cap", [5, 20])  # 5: each MDD-E is over it; 20: only the joint
def test_over_the_cap_is_memoised_as_cardinal_without_bypass(cap, monkeypatch):
    # as test_joint_over_its_cap_is_cardinal_without_bypass: under the default
    # cap the conflict is semi-cardinal; agent 0 has no bypass, although its
    # own MDD-E leaves its side open, so its joint search crosses a cap of 20
    monkeypatch.setattr(mdd_mod, "NODE_CAP", cap)
    g, agents, c = _parked_in_the_way()
    solver = _Solver(Instance(g, agents), SolverConfig(time_limit=60))
    root = solver._make_root()
    root.conflicts = [c]
    assert solver._find_conflict(root) == (c, None, mdd_mod.CARDINAL)
    assert solver._find_conflict(root) == (c, None, mdd_mod.CARDINAL)
    key = _key(solver, root, c)
    assert key[2:] == _conflict_key(c)
    if cap == 5:  # a diagram over the cap is named None
        assert key[:2] == (None, None)
    else:  # both diagrams fit: the key holds the cache's objects
        built = [solver.mdds.entries[(k, root.paths[k].cost, root.omegas[k])] for k in (c.i, c.j)]
        assert None not in built and key[0] is built[0] and key[1] is built[1]
    assert solver.labels == {key: (mdd_mod.CARDINAL, None)}
    assert (solver.stats.classify_calls, solver.stats.label_hits) == (1, 1)
