"""Fault tolerance under every scheduling policy.

The fault matrix proper (tests/core/test_fault_matrix.py) runs under
the default policy; these cells re-run the headline guarantees — node
crash + recovery, task retries, stragglers + speculation — with the
placement policy swapped out, because recovery re-homing, re-execution
and speculative helper choice are all scheduler decisions now.
"""

import pytest

from repro.apps import WordCountApp
from repro.apps.datagen import wiki_text
import repro.core.engine as engine_module
from repro.core import JobConfig, run_glasswing
from repro.core.faults import FaultPlan, NodeCrash
from repro.core.sched import SCHEDULER_NAMES
from repro.hw.presets import das4_cluster

NODES = 4
POLICIES = sorted(SCHEDULER_NAMES)


def run_wc(scheduler, faults=None, **extra):
    cfg = JobConfig(chunk_size=65_536, input_replication=NODES,
                    scheduler=scheduler, **extra)
    return run_glasswing(WordCountApp(),
                         {"wiki": wiki_text(300_000, seed=81)},
                         das4_cluster(nodes=NODES), cfg, faults=faults)


def canonical(result):
    return sorted(result.output_pairs(), key=repr)


@pytest.fixture(scope="module", params=POLICIES)
def golden(request):
    """(policy, fault-free result) — the per-policy reference output."""
    return request.param, run_wc(request.param)


def test_map_crash_retries(golden):
    policy, ref = golden
    res = run_wc(policy, faults=FaultPlan(map_failures={0: 1, 1: 1}))
    assert canonical(res) == canonical(ref)
    assert res.stats["leaked_buffer_slots"] == 0
    assert res.metrics.reexecutions == 2
    assert res.stats["scheduler"] == policy


def test_reduce_crash_retries(golden):
    policy, ref = golden
    occupied = [pid for pid in sorted(ref.output) if ref.output[pid]]
    res = run_wc(policy,
                 faults=FaultPlan(reduce_failures={occupied[0]: 1}))
    assert canonical(res) == canonical(ref)
    assert res.stats["leaked_buffer_slots"] == 0
    assert res.metrics.reexecutions == 1


@pytest.mark.parametrize("count", (1, 3))
def test_node_crashes_recover(golden, count):
    policy, ref = golden
    crashes = tuple(NodeCrash(node=i + 1, at=ref.map_time * (0.3 + 0.2 * i))
                    for i in range(count))
    res = run_wc(policy, faults=FaultPlan(node_crashes=crashes))
    assert canonical(res) == canonical(ref)
    assert res.stats["leaked_buffer_slots"] == 0
    assert sorted(res.stats["dead_nodes"]) == [c.node for c in crashes]
    assert res.metrics.node_crashes == count
    assert res.job_time > ref.job_time


def test_stragglers_with_speculation(golden):
    policy, ref = golden
    res = run_wc(policy, faults=FaultPlan(stragglers={0: 6.0, 1: 6.0}),
                 speculative_execution=True)
    assert canonical(res) == canonical(ref)
    assert res.stats["leaked_buffer_slots"] == 0
    assert res.metrics.reexecutions == 0
    assert res.metrics.speculative_wins <= res.metrics.speculative_launches
    # helper choice is a policy hook — any launch must have been placed
    # through it (the counter lives in the scheduler stats)
    if res.metrics.speculative_launches:
        assert res.stats["sched_speculative_placements"] >= \
            res.metrics.speculative_launches


def test_crash_during_recovery_window_all_policies():
    """Two staggered crashes: the second lands while the first recovery
    may still be in flight — every policy must still converge."""
    for policy in POLICIES:
        ref = run_wc(policy)
        plan = FaultPlan(node_crashes=(
            NodeCrash(node=1, at=ref.map_time * 0.4),
            NodeCrash(node=3, at=ref.map_time * 0.45)))
        res = run_wc(policy, faults=plan)
        assert canonical(res) == canonical(ref), policy
        assert res.stats["leaked_buffer_slots"] == 0
        assert sorted(res.stats["dead_nodes"]) == [1, 3]


def test_survivors_reduce_adopted_partitions_last(golden, monkeypatch):
    """A survivor reduces its partitions in ownership order: its own
    first, then the ones recovery re-homed to it, in adoption order —
    not re-sorted by partition id."""
    policy, ref = golden
    built = []

    class RecordingReducePhase(engine_module.ReducePhase):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(engine_module, "ReducePhase", RecordingReducePhase)
    crash = NodeCrash(node=1, at=ref.map_time * 0.3)
    res = run_wc(policy, faults=FaultPlan(node_crashes=(crash,)))
    assert canonical(res) == canonical(ref)
    total = NODES * ref.config.partitions_per_node
    adopted_any = False
    for rp in built:
        node = rp.node.node_id
        own = [pid for pid in range(total) if pid % NODES == node]
        assert rp.pids == rp.manager.owned
        assert rp.pids[:len(own)] == own
        assert all(pid % NODES == crash.node for pid in rp.pids[len(own):])
        adopted_any |= rp.pids != sorted(rp.pids)
        # partitions are reduced (and their output written) in that order
        assert list(rp.output_pairs) == \
            [pid for pid in rp.pids if pid in rp.output_pairs]
    assert adopted_any
