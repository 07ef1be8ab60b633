"""The four benchmark workloads.

Each workload splits into the steps the benchmark times separately:

* ``generate(seed, lap)`` — make the inputs from the benchmark seed,
  calling ``lap()`` between steps of a long generation (see
  ``slices.Stopwatch``);
* ``build(inputs, costs)`` — construct the cluster (or server) and
  submit the work, stopping before the first simulated event;
* ``run(handle)`` — run the simulation to its result;
* ``sim(handle)`` — the simulator that ``run`` drives;
* ``expected(inputs)`` / ``verify(outcome, expected)`` — the engine-free
  oracle (see ``oracles.py``);
* ``jobs(outcome)`` — the per-job results the layer metrics read.

``setup_s`` is ``generate`` plus ``build``; ``host_run_s`` is ``run``.
``scale`` shrinks every input for the self-check tests; the benchmark
itself always runs at ``scale=1``.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Any, Dict, List

import numpy as np

import oracles
from repro.apps import TeraSortApp, WordCountApp, datagen
from repro.apps.kmeans import KMeansApp
from repro.core import JobConfig
from repro.core.costs import HostCosts
from repro.core.engine import ClusterSession, JobExecution
from repro.dag import DAG, DagRunner
from repro.hw.presets import das4_cluster
from repro.hw.specs import DeviceKind, KiB, MiB
from repro.service import (JobServer, JobSubmission, ServicePolicy,
                           synthetic_trace)
from repro.storage.records import NO_COMPRESSION

__all__ = ["WORKLOADS", "Outcome", "make_workload"]


@dataclass
class Outcome:
    """What one ``run`` produced, kept for the oracle and the metrics."""

    result: Any                   # GlasswingResult / ServiceResult / runner
    sim_makespan_s: float
    latencies: List[float]        # per-job simulated latency
    attempted: int                # operations the oracle can fail
    extra: Dict[str, Any] = dataclasses.field(default_factory=dict)


def _scaled(n: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(n * scale)))


class _SingleJob:
    """Closed loop, one job on a fresh cluster (``run_glasswing`` split
    at its first simulated event)."""

    REPEAT_SETUP = True

    def build(self, inputs, costs: HostCosts):
        app, data = inputs
        session = ClusterSession(self.cluster)
        execution = JobExecution(session, app, data, config=self.config,
                                 costs=costs, exclusive=True)
        execution.start()
        return session, execution

    def sim(self, handle):
        return handle[0].sim

    def run(self, handle) -> Outcome:
        session, execution = handle
        session.run()
        result = execution.result()
        return Outcome(result, result.job_time, [result.job_time], 1)

    def jobs(self, outcome: Outcome):
        return [outcome.result], outcome.result.timeline


class WcScaleout(_SingleJob):
    """WordCount weak-scaled to 256 nodes: event-loop and shuffle bound."""

    name = "wc-scaleout"
    PER_NODE = 32 * KiB
    CORPUS_SEED = 7

    def __init__(self, scale: float = 1.0):
        self.nodes = _scaled(256, scale, floor=2)
        self.cluster = das4_cluster(nodes=self.nodes)
        self.config = JobConfig(chunk_size=self.PER_NODE // 2,
                                partitions_per_node=1,
                                scheduler="static-affinity")

    def generate(self, seed: int, lap=lambda: None):
        # wiki_text's seed also picks which words are frequent, and so
        # the text's length (7.0-9.1 MiB for 8 MiB asked) and word count,
        # which host time follows.  As in svc-mixed, that shape is pinned
        # (the lines of one corpus) and the seed picks their order, so
        # each node's share; the text is cut at the last line that fits
        # 32 KiB per node.
        size = self.PER_NODE * self.nodes
        lines = datagen.wiki_text(size * 9 // 8, seed=self.CORPUS_SEED
                                  ).splitlines(keepends=True)
        order = np.random.default_rng(seed).permutation(len(lines))
        text = b"".join(lines[i] for i in order.tolist())
        return WordCountApp(), {"wiki": text[:text.rindex(b"\n", 0, size)
                                             + 1]}

    def expected(self, inputs):
        return oracles.word_counts(inputs[1]["wiki"])

    def verify(self, outcome: Outcome, expected) -> int:
        got = dict(outcome.result.output_pairs())
        return int(got != expected)


class TsBulk(_SingleJob):
    """TeraSort of ~32 MB on 4 nodes with the partition cache spilling."""

    name = "ts-bulk"

    def __init__(self, scale: float = 1.0):
        self.records = _scaled(320_000, scale, floor=1000)
        self.cluster = das4_cluster(nodes=4)
        # 2 MiB is below each node's ~8 MB share of the shuffle, so most
        # intermediate data is flushed, merged and compacted on disk.
        self.config = JobConfig(chunk_size=4 * MiB,
                                cache_threshold=_scaled(2 * MiB, scale),
                                output_replication=1,
                                compression=NO_COMPRESSION,
                                scheduler="static-affinity")

    def generate(self, seed: int, lap=lambda: None):
        data = datagen.teragen(self.records, seed=seed)
        return TeraSortApp.from_input(data, sample_every=29), {"tera": data}

    def expected(self, inputs):
        return oracles.sorted_records(inputs[1]["tera"])

    def verify(self, outcome: Outcome, expected) -> int:
        pairs = outcome.result.output_pairs()
        return int(not oracles.check_sorted_permutation(pairs, expected))


class DagKmeans:
    """Eight Lloyd rounds on the DAG engine, points pinned in the
    cross-round cache, kernels on a modelled GPU."""

    name = "dag-kmeans"
    REPEAT_SETUP = True
    DIMS, K, ROUNDS = 4, 16, 8

    def __init__(self, scale: float = 1.0):
        self.points = _scaled(132_000, scale, floor=1000)
        self.cluster = das4_cluster(nodes=4, gpu=True)
        self.config = JobConfig(device=DeviceKind.GPU, storage="dfs",
                                chunk_size=256 * KiB,
                                scheduler="static-affinity")

    def generate(self, seed: int, lap=lambda: None):
        # The seed also draws the point count (+0..1%).  Simulated round
        # time depends on the count, not on the coordinates; 132,000
        # points fill eight 256 KiB splits and start a ninth, and the
        # node that maps the partial ninth split sets the round time.
        n_points = self.points + random.Random(seed).randrange(
            self.points // 100 + 1)
        points = datagen.kmeans_points(n_points, self.DIMS, seed=seed)
        centers = datagen.kmeans_centers(self.K, self.DIMS, seed=seed + 1)
        return points, centers

    def build(self, inputs, costs: HostCosts):
        points, centers = inputs
        runner = DagRunner(self.cluster, config=self.config, costs=costs)
        dag = DAG("kmeans")
        dag.add_input("points", points)
        dag.add_stage("lloyd", lambda b: KMeansApp(b["centers"]),
                      ["points"])
        return runner, dag, np.array(centers, dtype=np.float32)

    def sim(self, handle):
        return handle[0].session.sim

    def run(self, handle) -> Outcome:
        runner, dag, centers = handle
        history = []
        for _ in range(self.ROUNDS):
            result = runner.run(dag, broadcast={"centers": centers})
            centers = centers.copy()
            for cid, vec in result.outputs["lloyd"]:
                centers[cid] = np.asarray(vec, dtype=np.float32)
            history.append(centers)
        latencies = [run.elapsed for run in runner.stage_runs]
        return Outcome(runner, runner.total_time, latencies, self.ROUNDS,
                       {"history": history})

    def expected(self, inputs):
        return inputs

    def verify(self, outcome: Outcome, expected) -> int:
        """Each round against one oracle Lloyd step from the engine's
        previous centers, so a rounding-level tie flip in one round is
        not compounded into the next."""
        points, previous = expected
        failed = 0
        for got in outcome.extra["history"]:
            want, tol = oracles.lloyd_step(points, self.DIMS, previous)
            failed += int(not oracles.centers_match(got, want, tol))
            previous = got
        return failed

    def jobs(self, outcome: Outcome):
        runner = outcome.result
        return ([run.result for run in runner.stage_runs],
                runner.session.timeline)


class SvcMixed:
    """The 200-job mixed trace through ``JobServer``: open loop in
    simulated time, arrivals outpacing capacity."""

    name = "svc-mixed"
    #: materialising 200 jobs' inputs takes ~30 s: one set-up per run
    REPEAT_SETUP = False
    #: trace shape (arrival times, kinds, sizes, tenants, priorities) is
    #: pinned to the seed of ``BENCH_service.json``; the benchmark seed
    #: picks each job's input data.  The median latency of a 200-job
    #: trace swings ~35% between arrival patterns and ~10% between data
    #: seeds, so pinning the arrivals keeps seed-to-seed spread small.
    TRACE_SEED = 7
    MEAN_INTERARRIVAL = 0.002

    def __init__(self, scale: float = 1.0):
        self.n_jobs = _scaled(200, scale, floor=6)
        self.cluster = das4_cluster(nodes=4)
        self.policy = ServicePolicy(queue_capacity=512, max_running=4,
                                    arbiter="fair-share")
        self.config = JobConfig(chunk_size=8 * KiB, partitions_per_node=1,
                                scheduler="static-affinity")

    def generate(self, seed: int, lap=lambda: None):
        rows = synthetic_trace(self.n_jobs, seed=self.TRACE_SEED,
                               mean_interarrival=self.MEAN_INTERARRIVAL)
        jobs = []
        for i, row in enumerate(rows):
            row = dataclasses.replace(row, seed=seed * 100_003 + i)
            app, data, overrides = row.materialize()
            jobs.append((row, app, data, overrides))
            lap()
        return jobs

    def build(self, inputs, costs: HostCosts):
        server = JobServer(self.cluster, policy=self.policy,
                           config=self.config, costs=costs)
        for row, app, data, overrides in inputs:
            server.submit(JobSubmission(
                name=row.name, app=app, inputs=data,
                config=self.config.with_(**overrides) if overrides else None,
                tenant=row.tenant, priority=row.priority,
                submit_at=row.submit_at))
        return server

    def sim(self, handle):
        return handle.session.sim

    def run(self, handle) -> Outcome:
        result = handle.run()
        latencies = [r.latency for r in result.completed]
        return Outcome(result, result.makespan, latencies, self.n_jobs)

    def expected(self, inputs):
        table = {}
        for row, app, data, _ in inputs:
            (blob,) = data.values()
            if row.kind == "wordcount":
                table[row.name] = (row.kind, oracles.word_counts(blob))
            elif row.kind == "terasort":
                table[row.name] = (row.kind, oracles.sorted_records(blob))
            else:
                want, tol = oracles.lloyd_step(blob, app.dims, app.centers)
                table[row.name] = (row.kind, (app.centers, want, tol))
        return table

    def verify(self, outcome: Outcome, expected) -> int:
        result = outcome.result
        failed = 0
        for record in result.records:
            if record.outcome != "completed" or record.leaked_buffer_slots:
                failed += 1
                continue
            kind, want = expected[record.name]
            res = record.result
            if kind == "wordcount":
                ok = dict(res.output_pairs()) == want
            elif kind == "terasort":
                ok = oracles.check_sorted_permutation(res.output_pairs(),
                                                      want)
            else:
                initial, want, tol = want
                got = initial.copy()
                for cid, vec in res.output_pairs():
                    got[cid] = vec
                ok = oracles.centers_match(got, want, tol)
            failed += int(not ok)
        return failed

    def jobs(self, outcome: Outcome):
        result = outcome.result
        return [r.result for r in result.completed], result.timeline


WORKLOADS = {w.name: w for w in (WcScaleout, TsBulk, SvcMixed, DagKmeans)}


def make_workload(name: str, scale: float = 1.0):
    return WORKLOADS[name](scale)
