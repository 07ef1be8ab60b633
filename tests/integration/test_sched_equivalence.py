"""Differential equivalence + acceptance tests for the scheduling layer.

Three claims ride on the refactor:

* **compatibility** — the default configuration routes through the
  extracted ``static-affinity`` policy and is bit-identical to an
  explicit one (the committed ``BENCH_scaling.json`` baseline pins the
  same numbers against the pre-refactor engine via ``repro.bench
  regress``);
* **correctness across policies** — placement changes timing, never
  output: every policy reproduces the static run's answer exactly;
* **the paper's scaling claims** — a dynamic policy beats the static
  assignment on skewed inputs (horizontal), and a CPU+GPU device pool
  beats the best single device on a compute-bound app (vertical).
"""

import pytest

from repro.apps import KMeansApp, TeraSortApp, WordCountApp
from repro.apps.datagen import kmeans_centers, kmeans_points, teragen, wiki_text
from repro.core import JobConfig, run_glasswing
from repro.core.sched import SCHEDULER_NAMES
from repro.hw.presets import das4_cluster
from repro.hw.specs import DeviceKind, KiB
from repro.storage.records import NO_COMPRESSION

from tests.conftest import assert_outputs_match

POLICIES = sorted(SCHEDULER_NAMES)


def _wordcount():
    return (WordCountApp(), {"wiki": wiki_text(200_000, seed=21)},
            dict(chunk_size=65_536), 3, True)


def _terasort():
    data = teragen(2_000, seed=22)
    return (TeraSortApp.from_input(data), {"tera": data},
            dict(chunk_size=20_000, output_replication=1,
                 compression=NO_COMPRESSION), 2, True)


def _kmeans():
    return (KMeansApp(kmeans_centers(16, 4, seed=24)),
            {"points": kmeans_points(20_000, 4, seed=23)},
            dict(chunk_size=65_536), 2, False)


APPS = {"wordcount": _wordcount, "terasort": _terasort, "kmeans": _kmeans}


def run_app(case, scheduler=None, **extra):
    app, inputs, cfg_kwargs, nodes, _ = APPS[case]()
    if scheduler is not None:
        cfg_kwargs = dict(cfg_kwargs, scheduler=scheduler)
    cfg = JobConfig(**cfg_kwargs, **extra)
    return run_glasswing(app, inputs, das4_cluster(nodes=nodes), cfg)


# -- compatibility ---------------------------------------------------------

@pytest.mark.parametrize("case", sorted(APPS))
def test_default_config_is_static_affinity(case, monkeypatch):
    """No scheduler selected == explicit static-affinity, bit-identical
    (timings, shuffle bytes, stats and output)."""
    monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
    default = run_app(case)
    explicit = run_app(case, scheduler="static-affinity")
    assert default.stats["scheduler"] == "static-affinity"
    assert default.job_time == explicit.job_time
    assert default.map_time == explicit.map_time
    assert default.reduce_time == explicit.reduce_time
    assert default.stats == explicit.stats
    assert sorted(default.output_pairs(), key=repr) == \
        sorted(explicit.output_pairs(), key=repr)


def test_explicit_policy_overrides_environment(monkeypatch):
    """A config-level policy wins over ``$REPRO_SCHEDULER`` — pinned
    tests and the bench baseline stay static under the CI matrix."""
    monkeypatch.setenv("REPRO_SCHEDULER", "oplevel")
    assert JobConfig().scheduler == "oplevel"
    res = run_app("wordcount", scheduler="static-affinity")
    assert res.stats["scheduler"] == "static-affinity"


# -- cross-policy output equivalence ---------------------------------------

@pytest.mark.parametrize("case", sorted(APPS))
def test_every_policy_reproduces_the_static_output(case):
    app, inputs, cfg_kwargs, nodes, exact = APPS[case]()
    results = {pol: run_app(case, scheduler=pol) for pol in POLICIES}
    golden = results["static-affinity"]
    for pol, res in results.items():
        assert res.stats["scheduler"] == pol
        assert res.stats["leaked_buffer_slots"] == 0
        assert res.stats["sched_placements"] > 0
        if exact:
            assert sorted(res.output_pairs(), key=repr) == \
                sorted(golden.output_pairs(), key=repr), pol
        else:      # float reductions may reassociate under reordering
            assert_outputs_match(res.output_pairs(), golden.output_pairs())


# -- horizontal: dynamic placement beats static assignment on skew ---------

def skewed_inputs(nodes, files_per_node=4, s=0.7, seed=1):
    """Zipf-sized single-replica files (the bench's skew recipe, small)."""
    import random
    total = 32 * KiB * nodes
    n_files = files_per_node * nodes
    weights = [1.0 / (i + 1) ** s for i in range(n_files)]
    scale = total / sum(weights)
    sizes = [max(512, int(w * scale)) for w in weights]
    sizes[0] += total - sum(sizes)
    random.Random(seed).shuffle(sizes)
    text = wiki_text(total, seed=42)
    inputs, offset = {}, 0
    for i, size in enumerate(sizes):
        inputs[f"skew{i:04d}"] = text[offset:offset + size]
        offset += size
    return inputs, max(sizes)


def test_dynamic_locality_beats_static_on_skew():
    nodes = 8
    inputs, chunk = skewed_inputs(nodes)
    results = {}
    for pol in POLICIES:
        cfg = JobConfig(chunk_size=chunk, partitions_per_node=1,
                        input_replication=1, scheduler=pol)
        results[pol] = run_glasswing(WordCountApp(), inputs,
                                     das4_cluster(nodes=nodes), cfg)
    static = results["static-affinity"].job_time
    for pol in ("dynamic-locality", "oplevel"):
        assert static / results[pol].job_time >= 1.05, pol
    golden = sorted(results["static-affinity"].output_pairs())
    assert all(sorted(r.output_pairs()) == golden for r in results.values())


# -- vertical: a CPU+GPU pool beats the best single device -----------------

def run_kmeans_heavy(**kwargs):
    inputs = {"p": kmeans_points(120_000, 4, seed=17)}
    app = KMeansApp(kmeans_centers(512, 4, seed=19))
    cfg = JobConfig(chunk_size=32 * KiB, **kwargs)
    return run_glasswing(app, inputs, das4_cluster(nodes=1, gpu=True), cfg)


def test_device_pool_beats_best_single_device():
    cpu = run_kmeans_heavy(device=DeviceKind.CPU)
    gpu = run_kmeans_heavy(device=DeviceKind.GPU)
    pool = run_kmeans_heavy(devices=(DeviceKind.CPU, DeviceKind.GPU))
    best = min(cpu.job_time, gpu.job_time)
    assert pool.job_time < best
    assert pool.stats["leaked_buffer_slots"] == 0
    # the pool splits one data transformation across devices — the answer
    # must not move (kmeans sums stay identical: same per-split partials)
    assert sorted(pool.output_pairs(), key=repr) == \
        sorted(gpu.output_pairs(), key=repr)
    # both devices actually placed work
    report = pool.to_report()
    by_device = report["phases"]["map"]["placement"]["by_device"]
    assert set(by_device) == {"cpu", "gpu"} and min(by_device.values()) > 0


@pytest.mark.parametrize("policy", POLICIES)
def test_map_pipeline_pulls_before_taking_a_slot(policy):
    """Single buffering: each node's pipeline pulls split k+1 from the
    scheduler while split k still holds the only input slot (which its
    kernel releases), not after that slot is freed."""
    res = run_app("terasort", scheduler=policy, buffering=1)
    kernel_end = {}
    for span in res.timeline.by_category("map.kernel"):
        key = (span.name, span.meta["chunk"])
        kernel_end[key] = max(kernel_end.get(key, 0.0), span.end)
    pulls = {}
    for span in res.timeline.by_category("sched.place"):
        if span.meta["phase"] == "map":
            pulls.setdefault(span.name, []).append(span)
    assert sum(len(p) for p in pulls.values()) >= 4
    for node, spans in pulls.items():
        spans.sort(key=lambda s: s.start)
        for prev, nxt in zip(spans, spans[1:]):
            assert nxt.start < kernel_end[(node, prev.meta["split"])]


# -- observability end-to-end ----------------------------------------------

def test_placement_is_visible_everywhere():
    app, inputs, cfg_kwargs, nodes, _ = APPS["wordcount"]()
    cfg = JobConfig(metrics_interval=0.001, scheduler="static-affinity",
                    **cfg_kwargs)
    res = run_glasswing(app, inputs, das4_cluster(nodes=nodes), cfg)
    # stats block
    assert res.stats["scheduler"] == "static-affinity"
    assert res.stats["sched_placements"] > 0
    rate = res.stats["sched_locality_hit_rate"]
    assert rate is not None and 0.0 <= rate <= 1.0
    # timeline spans (exported to the Chrome trace)
    places = [s for s in res.timeline.spans if s.category == "sched.place"]
    assert places and all(s.meta["policy"] == "static-affinity"
                          for s in places)
    # job report: top-level scheduling section + per-phase placement
    report = res.to_report()
    sched = report["scheduling"]
    assert sched["policy"] == "static-affinity"
    assert sched["placements"] == res.stats["sched_placements"]
    for phase in ("map", "reduce"):
        placement = report["phases"][phase]["placement"]
        assert placement["policy"] == "static-affinity"
        assert placement["placements"] > 0
        assert sum(placement["by_node"].values()) == \
            placement["placements"]
        # a single device is a pool of one: its placements carry it too
        assert placement["by_device"] == {"cpu": placement["placements"]}
    # explain() mentions the placement spread
    from repro.obs.report import PipelineReport
    text = PipelineReport(res.timeline, "map").explain()
    assert "placement" in text and "static-affinity" in text
    # telemetry gauges
    names = {m.name for m in res.telemetry.registry.sorted_metrics()}
    assert {"glasswing_sched_queue_depth",
            "glasswing_sched_local_placements",
            "glasswing_sched_remote_placements"} <= names
