"""Job orchestration: map phase ∥ merge phase, then reduce phase.

"Execution starts with launching the map phase and, concurrently, the
merge phase at each node.  After the map phase completes, the merge phase
continues until it has received all data sent to it by map pipeline
instantiations at other nodes.  After the merge phase completes, the
reduce phase is started."  (§III)

Fault tolerance (§III-E) is orchestrated here: a per-job
:class:`~repro.core.faults.ClusterHealth` view and
:class:`~repro.core.coordinator.ShuffleRegistry` thread through the
storage, network and phase layers.  Node crashes from the
:class:`~repro.core.faults.FaultPlan` are armed as monitor processes that
race the shuffle — a node that dies during the map/shuffle window takes
its pipeline, its in-flight pushes and its intermediate cache with it,
and a recovery wave (:func:`~repro.core.recovery.run_recovery`) rebuilds
the lost shuffle state on the survivors before merging finalises.  The
headline guarantee: any fault schedule produces the same job output as
the fault-free run, at gracefully degraded job time.

Elastic membership (docs/elasticity.md) generalises the crash machinery:
a job may start on a subset of the hardware (``active`` /
``JobConfig.active_nodes``) with the rest standing by; ``NodeJoin``
events (or the saturation-driven
:class:`~repro.core.membership.ElasticController`) activate standbys
mid-map — the joiner registers with the scheduler and starts pulling
queued splits through the ordinary ``pool_acquire`` seam — while
``NodeLeave`` events drain actives through the same recovery wave a
crash uses (but with their durable spill still readable).  The control
plane itself is a replicated
:class:`~repro.core.membership.CoordinatorGroup`; membership transitions
and phase commits pass through its ``require_leader`` barrier, so a
``CoordinatorCrash`` costs one deterministic failover delay and nothing
else.  The partition space stays pinned to the *initial* active set, so
every membership schedule produces output byte-identical to the static
run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.hw.node import Cluster
from repro.hw.specs import ClusterSpec, DeviceKind
from repro.net.transport import TrafficMeter
from repro.ocl.runtime import Device
from repro.simt.core import Event, Simulator
from repro.simt.trace import Timeline

from repro.core.api import MapReduceApp
from repro.core.config import JobConfig
from repro.core.coordinator import ShuffleRegistry, make_splits
from repro.core.costs import DEFAULT_HOST_COSTS, HostCosts
from repro.core.faults import ClusterHealth, FaultPlan, NodeCrash
from repro.core.intermediate import IntermediateManager
from repro.core.io import DFSBackend, StorageBackend, make_backend
from repro.core.map_phase import MapPhase
from repro.core.membership import (CoordinatorGroup, ElasticController,
                                   ElasticPolicy)
from repro.core.metrics import JobMetrics
from repro.core.recovery import SpeculationController, run_recovery
from repro.core.reduce_phase import ReducePhase
from repro.core.sched import make_scheduler
from repro.storage.records import FixedRecordFormat

__all__ = ["run_glasswing", "GlasswingResult", "ClusterSession",
           "JobExecution"]


@dataclass
class GlasswingResult:
    """Everything a finished Glasswing job produced."""

    app_name: str
    config: JobConfig
    n_nodes: int
    job_time: float                       # total virtual seconds
    map_time: float                       # map-phase extent
    merge_delay: float                    # post-map merge completion time
    reduce_time: float                    # reduce-phase extent
    output: Dict[int, List[Tuple[Any, Any]]]   # pid -> output pairs
    timeline: Timeline
    metrics: JobMetrics
    stats: Dict[str, Any] = field(default_factory=dict)
    #: live :class:`~repro.obs.telemetry.Telemetry` hub when the job ran
    #: with ``config.metrics_interval`` set; ``None`` otherwise
    telemetry: Optional[Any] = None

    def output_pairs(self) -> Iterator[Tuple[Any, Any]]:
        """All output pairs in partition order (TeraSort's total order)."""
        for pid in sorted(self.output):
            yield from self.output[pid]

    def sorted_output(self) -> List[Tuple[Any, Any]]:
        """Output pairs sorted by key — canonical form for comparisons.

        Keys sort by their natural order (so integer keys sort
        numerically, not as ``repr`` strings where "10" < "2"), grouped
        by type name so mixed-type key sets still have a total order;
        keys of a type without a natural order fall back to ``repr``
        within their type group.
        """
        pairs = list(self.output_pairs())
        try:
            return sorted(pairs,
                          key=lambda kv: (kv[0].__class__.__name__, kv[0]))
        except TypeError:
            return sorted(pairs, key=lambda kv: (kv[0].__class__.__name__,
                                                 repr(kv[0])))

    def to_report(self) -> Dict[str, Any]:
        """Structured JSON-serialisable job report: stats, per-stage
        breakdowns, utilization/overlap analysis, fault/recovery metrics
        and the monotonic byte/slot/wait counters (see
        :mod:`repro.obs.report` for the schema)."""
        from repro.obs.report import build_job_report
        return build_job_report(self)


class ClusterSession:
    """The long-lived substrate one or many jobs execute on.

    Owns exactly the state that is *shared* when several jobs run
    concurrently: the simulator, the session timeline (and its optional
    telemetry hub), the cluster hardware, and the per-(node, device-kind)
    :class:`~repro.ocl.runtime.Device` objects — two jobs mapping on the
    same node's GPU must queue on one execution engine, not conjure a
    second GPU.  Everything per-job (storage namespace, shuffle registry,
    health view, scheduler, phases) lives on :class:`JobExecution`.
    """

    def __init__(self, cluster_spec: ClusterSpec,
                 metrics_interval: Optional[float] = None):
        self.sim = Simulator()
        self.timeline = Timeline()
        self.telemetry = None
        if metrics_interval is not None:
            # Lazy import: the core layer only depends on obs when
            # sampling is actually requested.  Must attach before Cluster
            # construction so every layer registers its gauges as it is
            # built.
            from repro.obs.telemetry import Telemetry
            self.telemetry = Telemetry(self.sim, interval=metrics_interval)
            self.timeline.telemetry = self.telemetry
        self.cluster = Cluster(self.sim, cluster_spec, timeline=self.timeline)
        self._devices: Dict[Tuple[int, DeviceKind], Device] = {}

    def __len__(self) -> int:
        return len(self.cluster)

    def device(self, node_id: int, kind: DeviceKind) -> Device:
        """The shared device of ``kind`` on ``node_id`` (created lazily)."""
        key = (node_id, kind)
        dev = self._devices.get(key)
        if dev is None:
            dev = self._devices[key] = _make_device(
                self.sim, self.cluster[node_id], kind)
        return dev

    def run(self) -> None:
        """Drive the simulation to completion (telemetry bracketed)."""
        if self.telemetry is not None:
            self.telemetry.start()
        self.sim.run()


class JobExecution:
    """One job as a schedulable entity on a (possibly shared) session.

    Construction performs the job's zero-sim-time setup — storage
    namespace + input install, health view, shuffle registry, splits,
    scheduler plan, device wiring, managers and map pipelines — exactly
    as the single-tenant path always has; :meth:`start` launches the
    orchestrator process.  Isolation boundaries:

    * **storage/shuffle/recovery state** is private: each job gets its
      own backend namespace, :class:`ShuffleRegistry` and
      :class:`ClusterHealth`, so one job's node crash (executor-crash
      semantics) triggers *its* recovery wave without touching tenants
      sharing the node;
    * **hardware** is shared through the session: CPU fluid shares, disk
      and NIC queues, fabric slots and device engines all contend across
      jobs — that contention is the phenomenon a multi-job service
      exists to model;
    * **accounting** is split by a :class:`TrafficMeter` and, for
      concurrent jobs, a per-job :class:`~repro.simt.trace.TimelineFork`
      whose spans are job-tagged in the session trace.

    ``exclusive=True`` is the classic single-tenant mode: the job's
    health view is also installed as the network-wide one and telemetry
    stops when the job ends (bit-identical to the historical
    ``run_glasswing`` behaviour).
    """

    def __init__(self, session: ClusterSession, app: MapReduceApp,
                 inputs: Dict[str, bytes],
                 config: Optional[JobConfig] = None,
                 costs: HostCosts = DEFAULT_HOST_COSTS,
                 faults: Optional[FaultPlan] = None,
                 name: str = "glasswing-job",
                 exclusive: bool = False,
                 timeline: Optional[Timeline] = None,
                 backend: Optional[StorageBackend] = None,
                 splits: Optional[List] = None,
                 active: Optional[Sequence[int]] = None,
                 elastic: Optional[ElasticPolicy] = None):
        self.session = session
        self.app = app
        self.name = name
        self.exclusive = exclusive
        self.config = config = config or JobConfig()
        self.costs = costs
        self.faults = faults
        self.timeline = timeline = (timeline if timeline is not None
                                    else session.timeline)
        sim = session.sim
        cluster = session.cluster
        n = len(cluster)
        self._box: Dict[str, Any] = {}

        # Resolve the initially-active node set.  The default — every
        # node active — is the classic static cluster; a strict subset
        # leaves the rest standing by for NodeJoin events or the elastic
        # controller.  The partition space, the input placement and the
        # schedule are all pinned to this set so any later membership
        # churn leaves the output byte-identical.
        if active is not None:
            active_ids = sorted(set(active))
        elif config.active_nodes is not None:
            if config.active_nodes > n:
                raise ValueError(
                    f"active_nodes={config.active_nodes} exceeds the "
                    f"cluster size {n}")
            active_ids = list(range(config.active_nodes))
        else:
            active_ids = list(range(n))
        if not active_ids or any(not (0 <= i < n) for i in active_ids):
            raise ValueError(
                f"active node set {active_ids} invalid for a "
                f"{n}-node cluster")
        self.initial_active = active_ids
        restricted = len(active_ids) < n

        if backend is None:
            backend_kwargs = {}
            if config.storage == "dfs":
                backend_kwargs = dict(block_size=config.chunk_size,
                                      replication=config.input_replication)
                if restricted:
                    # Standby hardware must never hold input replicas the
                    # baseline run depends on.
                    backend_kwargs["placement_nodes"] = list(active_ids)
            self.backend = backend = make_backend(config.storage, cluster,
                                                  **backend_kwargs)
            for path, data in inputs.items():
                backend.install(path, data)
            backend.purge_caches()
        else:
            # Session-lived backend shared by a *sequence* of jobs (the
            # DAG/iterative path): inputs already installed in an earlier
            # round stay put, and the caches are deliberately NOT purged —
            # warm page caches and cache-aside entries across rounds are
            # the point of sharing the backend.
            self.backend = backend
            for path, data in inputs.items():
                if not backend.exists(path):
                    backend.install(path, data)

        # Per-job fault-tolerance state: the health view gates storage
        # reads/writes and network deliveries; the registry is the
        # shuffle's global ledger that recovery replans from.
        self.health = health = ClusterHealth(
            n, active=active_ids if restricted else None)
        if exclusive:
            cluster.network.health = health
        self.meter = TrafficMeter(timeline=timeline, health=health)
        # A cache-aside wrapper (repro.storage.cache) exposes the real
        # backend as ``.base``; the DFS wiring must reach through it.
        base_backend = getattr(backend, "base", backend)
        if isinstance(base_backend, DFSBackend):
            base_backend.dfs.health = health
            base_backend.dfs.meter = self.meter
        self.registry = registry = ShuffleRegistry(
            n, config.partitions_per_node,
            nodes=active_ids if restricted else None)

        # The replicated control plane.  With one replica and no
        # CoordinatorCrash events this is pure bookkeeping: every
        # ``require_leader`` barrier returns without yielding.
        self.coordinator = CoordinatorGroup(
            sim, timeline=timeline, replicas=config.coordinator_replicas,
            failover_timeout=config.failover_timeout,
            name=f"{name}.coord")

        if splits is None:
            record_size = (app.record_format.record_size
                           if isinstance(app.record_format, FixedRecordFormat)
                           else None)
            splits = make_splits(backend, sorted(inputs), config.chunk_size,
                                 record_size=record_size)
        self.splits = splits
        self.scheduler = scheduler = make_scheduler(
            config.scheduler, sim=sim, timeline=timeline)
        scheduler.plan(splits, backend, n, active=active_ids)

        # Per-node device pools: one Device object per distinct kind (a
        # kind appearing in both phases shares its device, as before),
        # one concurrently scheduled map pipeline per pool member.
        # Devices come from the session cache, so concurrent jobs queue
        # on the same engines.
        self.map_kinds = map_kinds = config.map_device_pool
        self.reduce_kinds = reduce_kinds = config.reduce_device_pool
        all_kinds = list(dict.fromkeys(map_kinds + reduce_kinds))
        self.device_objs: List[Dict[DeviceKind, Device]] = [
            {kind: session.device(i, kind) for kind in all_kinds}
            for i in range(n)
        ]
        self.map_devices = [self.device_objs[i][map_kinds[0]]
                            for i in range(n)]

        self.speculation = None
        if config.speculative_execution:
            self.speculation = SpeculationController(
                sim, app, config, backend, health, self.map_devices,
                [cluster[i] for i in range(n)], costs=costs,
                scheduler=scheduler)

        # Managers and map pipelines exist only on active nodes; a
        # standby gets both the moment it joins (see ``_on_join``).
        self.managers = managers = {
            i: IntermediateManager(
                sim, cluster[i], app, config, timeline,
                owned_pids=registry.owned_by(i),
                costs=costs)
            for i in active_ids
        }
        active_set = set(active_ids)
        self.map_phases_by_node: List[List[MapPhase]] = [
            ([MapPhase(sim, cluster[i], self.device_objs[i][kind], app,
                       config, backend, timeline, scheduler=scheduler,
                       managers=managers, network=cluster.network,
                       costs=costs, faults=faults, health=health,
                       registry=registry, speculation=self.speculation,
                       meter=self.meter)
              for kind in map_kinds]
             if i in active_set else [])
            for i in range(n)
        ]
        self.map_phases = [mp for phases in self.map_phases_by_node
                           for mp in phases]
        # Phases existing at construction: the orchestrator launches
        # these itself; phases a join adds later get their run processes
        # appended to ``_map_waits`` by ``_on_join``.
        self._initial_phases = list(self.map_phases)
        self._map_waits: List[Any] = []
        self.membership_events: List[Dict[str, Any]] = []

        # Node-crash monitors: armed for the map/shuffle window only (a
        # crash after the shuffle completed is out of this model's scope
        # and is ignored — the monitor loses its race against
        # ``shuffle_done``).
        self.shuffle_done = Event(sim)
        #: resolved when the orchestrator finishes; coordinator-crash
        #: monitors race it (the control plane may be killed in *any*
        #: phase, unlike node crashes)
        self.job_done = Event(sim)
        crashes: Tuple[NodeCrash, ...] = faults.node_crashes if faults else ()
        for crash in crashes:
            if crash.node >= n:
                raise ValueError(
                    f"node crash targets node {crash.node} but the "
                    f"cluster has {n} nodes")
            sim.process(self._crash_monitor(crash),
                        name=f"crash.n{crash.node}")

        # Membership + control-plane fault monitors.
        if faults is not None:
            for join in faults.node_joins:
                if join.node is not None and join.node >= n:
                    raise ValueError(
                        f"node join targets node {join.node} but the "
                        f"cluster has {n} nodes")
                sim.process(
                    self._membership_monitor("join", join.node, join.at),
                    name=f"join.{join.node if join.node is not None else 'auto'}")
            for leave in faults.node_leaves:
                if leave.node is not None and leave.node >= n:
                    raise ValueError(
                        f"node leave targets node {leave.node} but the "
                        f"cluster has {n} nodes")
                sim.process(
                    self._membership_monitor("leave", leave.node, leave.at),
                    name=f"leave.{leave.node if leave.node is not None else 'auto'}")
            for ccrash in faults.coordinator_crashes:
                sim.process(self._coord_crash_monitor(ccrash),
                            name=f"coordcrash@{ccrash.at}")

        self._elastic: Optional[ElasticController] = None
        if elastic is not None:
            self._elastic = ElasticController(self, elastic)

        if session.telemetry is not None:
            from repro.obs.telemetry import register_membership_gauges
            register_membership_gauges(session.telemetry, health,
                                       coordinator=self.coordinator,
                                       job=name)

    # -- orchestration -----------------------------------------------------
    def _crash_monitor(self, crash: NodeCrash):
        sim = self.session.sim
        health = self.health
        idx, _ = yield sim.any_of([sim.timeout(crash.at), self.shuffle_done])
        if idx != 0 or not health.alive(crash.node):
            return
        health.mark_dead(crash.node, sim.now)
        self.timeline.record("node.crash",
                             self.session.cluster[crash.node].name,
                             sim.now, sim.now, node=crash.node)
        for mp in self.map_phases_by_node[crash.node]:
            mp.kill()
        manager = self.managers.get(crash.node)
        if manager is not None:
            manager.kill()

    # -- elastic membership ------------------------------------------------
    def _membership_monitor(self, kind: str, node: Optional[int], at: float):
        """Fire a planned join/leave at ``at`` unless the shuffle already
        completed (membership is frozen from merge finalisation on, the
        same window rule node crashes follow)."""
        sim = self.session.sim
        idx, _ = yield sim.any_of([sim.timeout(at), self.shuffle_done])
        if idx != 0:
            return
        if kind == "join":
            yield from self._on_join(node)
        else:
            yield from self._on_leave(node)

    def _coord_crash_monitor(self, crash):
        sim = self.session.sim
        idx, _ = yield sim.any_of([sim.timeout(crash.at), self.job_done])
        if idx != 0:
            return
        self.coordinator.crash_leader()

    def inject_join(self, node: Optional[int] = None):
        """Activate a standby now (``None`` picks the lowest-id standby).

        Spawns the transition as its own process so callers — the elastic
        controller, the service layer's scale hooks — need not be
        generators themselves.  Harmless no-op when nothing can join.
        """
        return self.session.sim.process(self._on_join(node),
                                        name=f"{self.name}.join")

    def inject_leave(self, node: Optional[int] = None):
        """Drain an active node now (``None`` picks the highest-id one)."""
        return self.session.sim.process(self._on_leave(node),
                                        name=f"{self.name}.leave")

    def _on_join(self, node: Optional[int]):
        """Standby → active: one coordinator round-trip, then the node
        gets a manager + map pipelines and registers with the scheduler —
        from where the ordinary pull loop lets it steal queued splits
        with zero further engine involvement."""
        sim = self.session.sim
        health = self.health
        if self.shuffle_done.triggered:
            return
        if node is not None and node not in health.inactive:
            return
        # Admission is a control-plane operation: it blocks (and charges
        # the failover delay) while the coordinator seat is vacant.  An
        # ``auto`` node resolves *after* the barrier so transitions
        # queued behind one failover pick distinct standbys.
        yield from self.coordinator.require_leader()
        if self.shuffle_done.triggered:
            return
        if node is None:
            standbys = sorted(health.inactive)
            if not standbys:
                return
            node = standbys[0]
        elif node not in health.inactive:
            return
        health.activate(node, sim.now)
        cluster = self.session.cluster
        self.timeline.record("node.join", cluster[node].name,
                             sim.now, sim.now, node=node)
        self.membership_events.append(
            {"kind": "join", "node": node, "at": sim.now})
        cache = getattr(self.backend, "mark_rejoined", None)
        if cache is not None:
            cache(node)
        # A joiner owns no shuffle partitions (the partition space stays
        # pinned to the initial active set) — it contributes map/merge
        # work and receives rehomed partitions only through recovery.
        self.managers[node] = IntermediateManager(
            sim, cluster[node], self.app, self.config, self.timeline,
            owned_pids=[], costs=self.costs)
        self.scheduler.node_joined(node)
        phases = [MapPhase(sim, cluster[node],
                           self.device_objs[node][kind], self.app,
                           self.config, self.backend, self.timeline,
                           scheduler=self.scheduler, managers=self.managers,
                           network=cluster.network, costs=self.costs,
                           faults=self.faults, health=health,
                           registry=self.registry,
                           speculation=self.speculation,
                           meter=self.meter)
                  for kind in self.map_kinds]
        self.map_phases_by_node[node] = phases
        self.map_phases.extend(phases)
        self._map_waits.extend(mp.run() for mp in phases)

    def _on_leave(self, node: Optional[int]):
        """Active → departed: drain through the recovery path.  The
        node's pipelines die like a crash's would, but its durable spill
        and replicas stay readable — so recovery re-pushes from it
        instead of re-executing its splits."""
        sim = self.session.sim
        health = self.health
        if self.shuffle_done.triggered:
            return
        if node is not None and node not in health.alive_nodes:
            return
        yield from self.coordinator.require_leader()
        alive = health.alive_nodes
        if self.shuffle_done.triggered or len(alive) <= 1:
            return
        if node is None:
            node = max(alive)
        elif node not in alive:
            return
        health.mark_departed(node, sim.now)
        cluster = self.session.cluster
        self.timeline.record("node.leave", cluster[node].name,
                             sim.now, sim.now, node=node)
        self.membership_events.append(
            {"kind": "leave", "node": node, "at": sim.now})
        for mp in self.map_phases_by_node[node]:
            mp.kill()
        manager = self.managers.get(node)
        if manager is not None:
            manager.kill()
        self.scheduler.node_left(node)
        # Evict the departing node's cache-aside entries (its RAM left
        # with it); its *disk* state deliberately survives.
        cache = getattr(self.backend, "mark_departed", None)
        if cache is not None:
            cache(node)

    def start(self):
        """Launch the orchestrator; returns its process (yieldable)."""
        self.proc = self.session.sim.process(self._job(), name=self.name)
        if self._elastic is not None:
            self.session.sim.process(self._elastic.run(),
                                     name=f"{self.name}.elastic")
        return self.proc

    def _job(self):
        sim = self.session.sim
        cluster = self.session.cluster
        timeline = self.timeline
        health = self.health
        managers = self.managers
        scheduler = self.scheduler
        config = self.config
        result_box = self._box
        t0 = sim.now
        # Growth loop: joins may append freshly spawned pipelines (and
        # their push processes) to ``_map_waits`` while we are blocked on
        # an earlier batch, so keep draining until the lists stop
        # growing.  With a static membership this degenerates to exactly
        # the classic two waits: one all_of over every map run, then one
        # all_of over every push process.
        waits = self._map_waits
        waits.extend(mp.run() for mp in self._initial_phases)
        done = 0
        waited_pushes = set()
        while True:
            if done < len(waits):
                batch = waits[done:]
                done = len(waits)
                yield sim.all_of(batch)
                continue
            # The merge phase continues until all pushed Partitions
            # arrive.
            pushes = [p for mp in self.map_phases for p in mp.push_procs
                      if id(p) not in waited_pushes]
            if not pushes:
                break
            for p in pushes:
                waited_pushes.add(id(p))
            yield sim.all_of(pushes)
        if not self.shuffle_done.triggered:
            self.shuffle_done.succeed(None)
        # Committing the shuffle is a control-plane step: a coordinator
        # crash during the map window stalls here for one failover.
        yield from self.coordinator.require_leader()
        recovery_stats = (0, 0)
        if health.needs_recovery:
            t_r = sim.now
            recovery_stats = yield from run_recovery(
                sim, timeline, cluster, self.app, config, self.backend,
                managers, self.map_devices, cluster.network, self.registry,
                health, self.splits, scheduler, costs=self.costs,
                meter=self.meter)
            timeline.record("phase.recovery", "job", t_r, sim.now)
        timeline.record("phase.map", "job", t0, sim.now)
        for mp in self.map_phases:
            mp.release_buffers()
        t1 = sim.now
        survivors = health.alive_nodes
        yield sim.all_of([sim.process(managers[i].finalize(),
                                      name=f"finalize{i}")
                          for i in survivors])
        timeline.record("phase.merge", "job", t1, sim.now)
        # Launching reduce is the second control-plane commit point (a
        # coordinator killed between map-commit and here is caught now).
        yield from self.coordinator.require_leader()
        t2 = sim.now
        reduce_phases = []
        for i in survivors:
            if not managers[i].owned:
                # A node that joined mid-map owns no shuffle partitions
                # (unless recovery rehomed some to it): map/merge help
                # only, nothing to reduce.
                continue
            # Device pool: split the node's partitions across its devices
            # proportionally to their speed (each partition's merged data
            # is node-local either way, so this is a pure compute split;
            # a single device takes them all).
            shares = _partition_pids(
                list(managers[i].owned),
                [(kind, self.device_objs[i][kind].spec.gflops)
                 for kind in self.reduce_kinds])
            for kind in self.reduce_kinds:
                pids = shares[kind]
                if not pids:
                    continue
                scheduler.place_reduce(i, pids, device=kind.value)
                reduce_phases.append(ReducePhase(
                    sim, cluster[i], self.device_objs[i][kind], self.app,
                    config, self.backend, timeline, managers[i],
                    costs=self.costs, faults=self.faults, pids=pids))
        yield sim.all_of([rp.run() for rp in reduce_phases])
        # Final commit: a coordinator crash mid-reduce resolves here, so
        # the job's end time deterministically absorbs one failover.
        yield from self.coordinator.require_leader()
        timeline.record("phase.reduce", "job", t2, sim.now)
        for rp in reduce_phases:
            rp.release_buffers()
        result_box["reduce_phases"] = reduce_phases
        result_box["recovery"] = recovery_stats
        result_box["times"] = (t1 - t0, t2 - t1, sim.now - t2)
        result_box["t_start"] = t0
        result_box["t_end"] = sim.now
        if not self.job_done.triggered:
            self.job_done.succeed(None)
        if self.exclusive and self.session.telemetry is not None:
            self.session.telemetry.stop()

    # -- results -----------------------------------------------------------
    @property
    def finished(self) -> bool:
        """True once the orchestrator ran to completion."""
        return "times" in self._box

    @property
    def leaked_buffer_slots(self) -> int:
        """Buffer-slot balance over every pipeline the job ran."""
        return (sum(mp.pipeline.slots_leaked for mp in self.map_phases)
                + sum(rp.pipeline.slots_leaked
                      for rp in self._box.get("reduce_phases", ())))

    def result(self) -> GlasswingResult:
        """Assemble the finished job's :class:`GlasswingResult`."""
        if not self.finished:
            raise RuntimeError(
                "the job deadlocked: the event queue drained before the "
                "orchestrator finished (fault schedule wedged the "
                "pipeline?)")
        result_box = self._box
        map_time, merge_delay, reduce_time = result_box["times"]
        output: Dict[int, List[Tuple[Any, Any]]] = {}
        for rp in result_box["reduce_phases"]:
            for pid, pairs in rp.output_pairs.items():
                output[pid] = pairs

        n = len(self.session)
        metrics = JobMetrics(self.timeline, n)
        repushed_runs, reexecuted_splits = result_box["recovery"]
        map_phases = self.map_phases
        scheduler = self.scheduler
        faults = self.faults
        speculation = self.speculation
        stats = {
            "batch_size": (map_phases[0].batch_records
                           if map_phases else None),
            "batch_autotuned": self.config.batch_size is None,
            "records_mapped": sum(mp.records_mapped for mp in map_phases),
            "pairs_emitted": sum(mp.pairs_emitted for mp in map_phases),
            "keys_reduced": sum(rp.keys_reduced
                                for rp in result_box["reduce_phases"]),
            # Exclusive tenancy owns the whole fabric; a shared session
            # reports the per-tenant meter (the fabric total would charge
            # this job with its neighbours' traffic).
            "network_bytes": (self.session.cluster.network.bytes_moved
                              if self.exclusive else self.meter.bytes_moved),
            "splits": len(self.splits),
            "dead_nodes": self.health.dead_nodes,
            "initial_active_nodes": len(self.initial_active),
            "final_active_nodes": len(self.health.alive_nodes),
            "joined_nodes": sorted(self.health.joined_at),
            "departed_nodes": self.health.departed_nodes,
            "membership_events": list(self.membership_events),
            "coordinator_replicas": self.config.coordinator_replicas,
            "coordinator_failovers": self.coordinator.failovers,
            "coordinator_epoch": self.coordinator.epoch,
            "elastic_scale_outs": (self._elastic.scale_outs
                                   if self._elastic else 0),
            "elastic_scale_ins": (self._elastic.scale_ins
                                  if self._elastic else 0),
            "repushed_runs": repushed_runs,
            "reexecuted_splits": reexecuted_splits,
            "task_failures": faults.total_failures if faults else 0,
            "speculative_launches": speculation.launches if speculation else 0,
            "speculative_wins": speculation.wins if speculation else 0,
            "scheduler": scheduler.name,
            "sched_placements": scheduler.placements,
            "sched_locality_hits": scheduler.locality_hits,
            "sched_locality_misses": scheduler.locality_misses,
            "sched_locality_hit_rate": scheduler.locality_hit_rate,
            "sched_speculative_placements":
                scheduler.speculative_placements,
            # Buffer-slot balance: every acquired pipeline slot must be
            # returned, even by pipelines a node crash killed mid-flight
            # (phantom occupancy would poison the utilization reports).
            "leaked_buffer_slots": self.leaked_buffer_slots,
        }
        # Pending fault-plan events (a crash timer that lost its race, a
        # speculation watchdog) can outlive the job in the event heap, so
        # the job end time comes from the orchestrator, not the drained
        # clock.
        return GlasswingResult(
            app_name=self.app.name, config=self.config, n_nodes=n,
            job_time=result_box["t_end"],
            map_time=map_time, merge_delay=merge_delay,
            reduce_time=reduce_time,
            output=output, timeline=self.timeline, metrics=metrics,
            stats=stats,
            telemetry=self.session.telemetry if self.exclusive else None)


def run_glasswing(app: MapReduceApp, inputs: Dict[str, bytes],
                  cluster_spec: ClusterSpec,
                  config: Optional[JobConfig] = None,
                  costs: HostCosts = DEFAULT_HOST_COSTS,
                  faults: Optional[FaultPlan] = None,
                  elastic: Optional[ElasticPolicy] = None
                  ) -> GlasswingResult:
    """Run one Glasswing job on a fresh simulated cluster.

    ``inputs`` maps file paths to their content; installation is free of
    simulated time (the paper excludes input generation from timings) and
    the page caches are purged before the job starts, as in §IV.
    ``faults`` optionally injects task failures, stragglers and node
    crashes, which the job survives through re-execution, speculation and
    the shuffle-recovery wave (§III-E).

    This is the single-tenant convenience wrapper: one
    :class:`ClusterSession`, one exclusive :class:`JobExecution`.  A
    multi-job service (:mod:`repro.service`) drives the same two classes
    with many concurrent jobs instead.
    """
    config = config or JobConfig()
    session = ClusterSession(cluster_spec,
                             metrics_interval=config.metrics_interval)
    execution = JobExecution(session, app, inputs, config=config,
                             costs=costs, faults=faults, exclusive=True,
                             elastic=elastic)
    execution.start()
    session.run()
    return execution.result()


def _make_device(sim: Simulator, node, kind: DeviceKind) -> Device:
    return Device(sim, node.spec.device(kind), node)


def _partition_pids(pids: List[int], devices: List[Tuple[DeviceKind, float]]
                    ) -> Dict[DeviceKind, List[int]]:
    """Split a node's partitions across its device pool proportionally to
    device speed: each pid goes to the device whose *per-speed* load
    after taking it is smallest (ties broken by pool order), so a 20x
    faster device ends up with ~20x the partitions.  Pids keep their
    given order: recovery appends adopted partitions to the end of a
    survivor's owned list, and they are reduced last."""
    shares: Dict[DeviceKind, List[int]] = {kind: [] for kind, _ in devices}
    for pid in pids:
        kind = min(
            ((kind, speed, order)
             for order, (kind, speed) in enumerate(devices)),
            key=lambda t: ((len(shares[t[0]]) + 1) / max(t[1], 1e-9), t[2])
        )[0]
        shares[kind].append(pid)
    return shares
