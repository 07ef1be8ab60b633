"""Self-checks of the benchmark on shrunken workloads.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
import slices  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402

from repro.core.costs import DEFAULT_HOST_COSTS  # noqa: E402
from repro.storage.records import KVSchema  # noqa: E402

SCALE = 0.05
SEED = 3


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_is_correct_deterministic_and_sums(name):
    """Oracle passes, traced and untraced runs of the seed simulate the
    same, and the layer self-times add up to each traced phase."""
    out = run.traced(make_workload(name, SCALE), SEED)
    assert out["problems"] == []
    assert out["failed"] == 0
    assert set(out["metrics"]) == {n for n, _ in layers.PER_LAYER}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_repeated_untraced_runs_agree(name):
    first = run.measure(make_workload(name, SCALE), SEED, seconds=0)
    second = run.measure(make_workload(name, SCALE), SEED, seconds=0)
    assert first["failed"] == second["failed"] == 0
    sim = [k for k in first["metrics"] if k.startswith("sim_")]
    assert len(sim) == 4
    assert {k: first["metrics"][k] for k in sim} == \
        {k: second["metrics"][k] for k in sim}


def _sliced_runs(workload, n, clock):
    inputs = workload.generate(SEED)
    outcomes = []
    for _ in range(n):
        handle = workload.build(inputs, DEFAULT_HOST_COSTS)
        outcomes.append(clock.time(workload.run, handle,
                                   workload.sim(handle)))
    return outcomes


def test_slices_leave_the_simulation_unchanged():
    """dag-kmeans drives the simulator once per round: the replayed
    stops cover every run, and the sliced runs simulate exactly what an
    unsliced run does."""
    workload = make_workload("dag-kmeans", SCALE)
    clock = slices.SliceClock()
    outcomes = _sliced_runs(workload, 3, clock)
    handle = workload.build(workload.generate(SEED), DEFAULT_HOST_COSTS)
    plain = workload.run(handle)
    assert clock.diverged == 0 and len(clock.runs) == 3
    assert len(clock.stops) > workload.ROUNDS
    assert all(len(r) == len(clock.stops) + 1 for r in clock.runs)
    for outcome in outcomes:
        assert run.sim_e2e(outcome) == run.sim_e2e(plain)


def test_slices_count_a_run_that_misses_its_stops():
    workload = make_workload("ts-bulk", SCALE)
    clock = slices.SliceClock()
    _sliced_runs(workload, 1, clock)
    clock.stops = [2 * stop for stop in clock.stops]
    _sliced_runs(workload, 1, clock)
    assert clock.diverged == 1 and len(clock.runs) == 1


def test_slices_scale_by_the_reference(monkeypatch):
    """A host on which the reference loop takes twice ``REF_S`` reports
    half the measured seconds."""
    monkeypatch.setattr(slices, "reference", lambda: 2 * slices.REF_S)
    workload = make_workload("ts-bulk", SCALE)
    clock = slices.SliceClock()
    _sliced_runs(workload, 3, clock)
    for run_slices, total in zip(clock.runs, clock.totals):
        assert sum(run_slices) == pytest.approx(total / 2)
    watch = slices.Stopwatch()
    time.sleep(0.05)
    watch.lap()
    assert 0.025 <= watch.seconds < 0.05


def test_slower_cost_model_moves_simulated_metrics():
    workload = make_workload("ts-bulk", SCALE)
    slow = dataclasses.replace(
        DEFAULT_HOST_COSTS,
        sort_item=10 * DEFAULT_HOST_COSTS.sort_item,
        merge_item=10 * DEFAULT_HOST_COSTS.merge_item,
        group_item=10 * DEFAULT_HOST_COSTS.group_item)
    base = run.measure(workload, SEED, seconds=0)["metrics"]
    slowed = run.measure(workload, SEED, seconds=0, costs=slow)["metrics"]
    assert slowed["sim_makespan_s"] > 1.2 * base["sim_makespan_s"]
    assert slowed["sim_jobs_per_s"] < base["sim_jobs_per_s"]


def test_host_delay_shows_in_one_layer_only(monkeypatch):
    """A sleep inside ``KVSchema.size_of`` is charged to
    ``storage.size_of.self_s`` and to the traced run time, and to no
    other layer."""
    workload = make_workload("ts-bulk", SCALE)
    base = run.traced(workload, SEED)["metrics"]
    calls = base["storage.size_of.calls"]
    assert calls > 0
    per_call = 0.5 / calls
    size_of = KVSchema.size_of

    def slow_size_of(self, pairs):
        time.sleep(per_call)
        return size_of(self, pairs)

    # Patched before ``traced`` installs its wrappers, so the sleep runs
    # inside the ``storage.size_of`` span.
    monkeypatch.setattr(KVSchema, "size_of", slow_size_of)
    slowed = run.traced(workload, SEED)
    assert slowed["problems"] == []
    got = slowed["metrics"]
    injected = per_call * calls
    assert got["storage.size_of.calls"] == calls
    assert got["storage.size_of.self_s"] - base["storage.size_of.self_s"] \
        >= 0.95 * injected
    assert got["trace.host_run_s"] - base["trace.host_run_s"] \
        >= 0.9 * injected
    for layer in layers.HOST_LAYERS:
        if layer == "storage.size_of":
            continue
        key = f"{layer}.self_s"
        assert abs(got[key] - base[key]) < 0.1 * injected, key


def test_tracer_times_generators_per_resumption():
    tracer = Tracer()

    def inner():
        got = yield "a"
        try:
            yield got
        except KeyError:
            return "caught"
        return "done"

    def outer():
        result = yield from traced_inner()
        return result

    traced_inner = tracer.traced(inner, "inner")
    with tracer.span("root") as root:
        gen = tracer.traced(outer, "outer")()
        assert next(gen) == "a"
        assert gen.send("b") == "b"
        with pytest.raises(StopIteration) as stop:
            gen.throw(KeyError())
    assert stop.value.value == "caught"
    assert tracer.calls == {"inner": 1, "outer": 1, "root": 0}
    assert len(tracer) == 7          # root + 3 resumptions of each
    assert tracer.depth == 0
    assert sum(tracer.self_s.values()) == pytest.approx(root.seconds,
                                                         abs=1e-9)


def test_command_fails_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ts-bulk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert "{" not in proc.stdout
