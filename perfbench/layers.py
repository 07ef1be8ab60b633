"""Which ``repro`` functions belong to which layer, and the per-layer
metrics read from the program's public result and report APIs.

Host-time metrics come from spans the benchmark opens around calls into
each layer (``install``); simulated-time metrics are read after the run
(``sim_layer_metrics``).  Units name the clock: ``s`` is host seconds,
``sim_s`` simulated seconds.
"""

from __future__ import annotations

import inspect
from typing import Dict, List, Tuple

import repro.core.map_phase as map_phase_module
from repro.apps import datagen
from repro.core.api import MapReduceApp
from repro.core.intermediate import IntermediateManager
from repro.core.map_phase import MapPhase
from repro.core.reduce_phase import ReducePhase
from repro.dag import DagRunner
from repro.net.transport import Network
from repro.obs.causal import causal_profile
from repro.obs.report import PipelineReport, aggregate_counters
from repro.service import JobServer
from repro.simt.core import Simulator
from repro.storage.records import KVSchema

from tracer import Tracer

__all__ = ["HOST_LAYERS", "PER_LAYER", "install", "host_layer_metrics",
           "sim_layer_metrics"]

#: tracer layer -> name of its call-count metric
HOST_LAYERS: Dict[str, str] = {
    "simt": "simt.events",
    "net": "net.sends",
    "apps.map": "apps.map.calls",
    "apps.combine": "apps.combine.calls",
    "apps.reduce": "apps.reduce.calls",
    "apps.datagen": "apps.datagen.calls",
    "collector": "collector.calls",
    "storage.size_of": "storage.size_of.calls",
    "map_phase": "map_phase.calls",
    "reduce_phase": "reduce_phase.calls",
    "intermediate": "intermediate.calls",
    "svc.submit": "svc.submit.calls",
    "dag.round": "dag.rounds",
}

#: every per-layer metric the traced run prints, with its unit
PER_LAYER: List[Tuple[str, str]] = [
    pair for layer, calls in HOST_LAYERS.items()
    for pair in ((calls, "count"), (f"{layer}.self_s", "s"))
] + [
    ("simt.us_per_event", "us"),
    ("net.bytes", "B"),
    ("net.transfers", "count"),
    ("net.wait_s", "sim_s"),
    ("storage.bytes_read", "B"),
    ("storage.bytes_spilled", "B"),
    ("storage.cache_hit_ratio", "ratio"),
    ("intermediate.merge_delay_s", "sim_s"),
    ("pipeline.map.overlap", "x"),
    ("pipeline.reduce.overlap", "x"),
    ("pipeline.map.dominant_share", "ratio"),
    ("pipeline.wait.queue_s", "sim_s"),
    ("pipeline.wait.slot_s", "sim_s"),
    ("ocl.kernel_s", "sim_s"),
    ("ocl.transfer_s", "sim_s"),
    ("sched.placements", "count"),
    ("sched.locality_hit_rate", "ratio"),
    ("svc.peak_queue_depth", "count"),
    ("svc.admission_wait_s", "sim_s"),
    ("svc.rejected", "count"),
    ("dag.cache_hit_bytes", "B"),
    ("trace.setup_s", "s"),
    ("trace.host_run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.spans", "count"),
]


def _app_classes():
    seen, todo = [], [MapReduceApp]
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


def _wrap_stage_fns(tracer: Tracer, cls, layer: str) -> None:
    """``MapPhase.run``/``ReducePhase.run`` start a pipeline process whose
    stage bodies are the phase's own generator methods; time those per
    resumption by wrapping them on the pipeline as ``run`` starts it."""
    original = cls.run

    def run(self):
        pipe = self.pipeline
        for attr in ("read_fn", "stage_fn", "kernel_fn", "retrieve_fn",
                     "output_fn"):
            fn = getattr(pipe, attr)
            if inspect.isgeneratorfunction(fn):
                setattr(pipe, attr, tracer.traced(fn, layer))
        return original(self)

    tracer.patch(cls, "run", tracer.traced(run, layer))


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point (undo with ``tracer.unwrap_all``)."""
    tracer.wrap(Simulator, "step", "simt")
    tracer.wrap(Network, "send", "net")
    for cls in _app_classes():
        for attr, layer in (("map_batch", "apps.map"),
                            ("combine", "apps.combine"),
                            ("run_combine", "apps.combine"),
                            ("reduce", "apps.reduce")):
            if attr in cls.__dict__:
                tracer.wrap(cls, attr, layer)
    for name in datagen.__all__:
        fn = getattr(datagen, name)
        if callable(fn):
            tracer.wrap_everywhere(fn, "apps.datagen", "repro")
    # At the name ``core.map_phase`` looks the collector up under.
    tracer.wrap(map_phase_module, "collect_map_output", "collector")
    tracer.wrap(KVSchema, "size_of", "storage.size_of")
    # Constructors count too: ``ReducePhase`` merges and groups its
    # partitions' runs while it is built (mid-simulation, by the engine).
    for cls, layer in ((MapPhase, "map_phase"),
                       (ReducePhase, "reduce_phase")):
        tracer.wrap(cls, "__init__", layer)
        _wrap_stage_fns(tracer, cls, layer)
    # The merge work runs in worker processes the manager starts itself
    # (``_worker``); the public entry points only enqueue or read.
    for attr in ("__init__", "add_run", "read_partition", "finalize",
                 "_worker"):
        tracer.wrap(IntermediateManager, attr, "intermediate")
    tracer.wrap(JobServer, "submit", "svc.submit")
    tracer.wrap(DagRunner, "run", "dag.round")


def host_layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer call counts and host self-seconds recorded so far."""
    out: Dict[str, float] = {}
    for layer, calls in HOST_LAYERS.items():
        out[calls] = tracer.calls[layer]
        out[f"{layer}.self_s"] = tracer.self_s[layer]
    return out


def sim_layer_metrics(workload, outcome) -> Dict[str, float]:
    """Simulated per-layer metrics of one run, from public result APIs."""
    results, timeline = workload.jobs(outcome)
    counters = aggregate_counters(timeline)
    stages = causal_profile(timeline)["stages"]

    def stage_self(*names: str) -> float:
        return sum(stages[n]["self_s"] for n in names if n in stages)

    overlap = {"map": [], "reduce": []}
    dominant_share = []
    for res in results:
        for phase in overlap:
            report = PipelineReport(res.timeline, phase)
            overlap[phase].append(report.overlap_factor)
            if phase == "map":
                dom = report.dominant_stage
                dominant_share.append(
                    report.utilization()[dom] if dom else 0.0)
    hits = sum(r.stats["sched_locality_hits"] for r in results)
    misses = sum(r.stats["sched_locality_misses"] for r in results)
    out = {
        "net.bytes": counters["bytes_shuffled"],
        "net.transfers": counters["transfers"],
        "net.wait_s": counters["net_wait_seconds"],
        "storage.bytes_read": counters["bytes_read"],
        "storage.bytes_spilled": counters["bytes_spilled"],
        "storage.cache_hit_ratio": 0.0,
        "intermediate.merge_delay_s": sum(r.merge_delay for r in results),
        "pipeline.map.overlap": _mean(overlap["map"]),
        "pipeline.reduce.overlap": _mean(overlap["reduce"]),
        "pipeline.map.dominant_share": _mean(dominant_share),
        "pipeline.wait.queue_s": counters["queue_wait_seconds"],
        "pipeline.wait.slot_s": counters["slot_wait_seconds"],
        "ocl.kernel_s": stage_self("map.kernel", "reduce.kernel"),
        "ocl.transfer_s": stage_self("map.stage", "map.retrieve",
                                     "reduce.stage", "reduce.retrieve"),
        "sched.placements": sum(r.stats["sched_placements"]
                                for r in results),
        "sched.locality_hit_rate": hits / (hits + misses)
        if hits + misses else 0.0,
        "svc.peak_queue_depth": 0,
        "svc.admission_wait_s": 0.0,
        "svc.rejected": 0,
        "dag.cache_hit_bytes": 0,
    }
    result = outcome.result
    if isinstance(result, DagRunner):
        out["storage.cache_hit_ratio"] = \
            result.cache_stats()["hit_rate_bytes"]
        out["dag.cache_hit_bytes"] = sum(run.cache_hit_bytes
                                         for run in result.stage_runs)
    elif hasattr(result, "peak_queue_depth"):
        out["svc.peak_queue_depth"] = result.peak_queue_depth
        out["svc.admission_wait_s"] = sum(r.queue_wait or 0.0
                                          for r in result.records)
        out["svc.rejected"] = result.counters["rejected"]
    return out


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0
