"""Block-based distributed file system (HDFS-like) with a JNI cost model.

Files are split into blocks, replicated across nodes (default factor 3, as
the paper uses), and served with locality: readers prefer a local replica.
Block locations are queryable so the job coordinator can schedule for file
affinity, like Glasswing's scheduler and Hadoop's data-locality placement.

Accessing the DFS through ``libhdfs`` costs extra host CPU per call and
per byte (Java/native switches and JNI copies) — the overhead the paper
identifies as the reason MatMul turns I/O-bound on HDFS (Fig 3d).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from repro.hw.node import Cluster
from repro.hw.specs import MiB
from repro.storage.localfs import FileNotFound, LocalFS

__all__ = ["DFS", "BlockLocation", "JNIOverhead"]


@dataclass(frozen=True)
class JNIOverhead:
    """libhdfs access cost: fixed host-CPU time per call + copy bandwidth."""

    per_call: float = 60e-6     # Java/native switch + bookkeeping, seconds
    copy_bw: float = 600e6      # JNI byte-array copy throughput, bytes/s

    def seconds_for(self, nbytes: int) -> float:
        return self.per_call + nbytes / self.copy_bw


@dataclass(frozen=True)
class BlockLocation:
    """One block's extent within its file and the nodes holding replicas."""

    offset: int
    length: int
    replicas: Tuple[int, ...]


@dataclass
class _Block:
    block_id: int
    length: int
    replicas: Tuple[int, ...]

    @property
    def local_path(self) -> str:
        return f".dfs/blk_{self.block_id}"


class DFS:
    """The distributed file system deployed over a cluster.

    Parameters
    ----------
    cluster:
        Runtime cluster; one :class:`LocalFS` per node backs the blocks.
    block_size:
        Block granularity (the paper uses HDFS defaults; tests scale it
        down alongside the data).
    replication:
        Default replica count for new files (clamped to the node count).
    jni:
        Access overhead model; pass ``None`` for native access (used when
        modelling Glasswing's direct local-FS mode for comparison).
    placement_nodes:
        When set, new blocks are placed only on these nodes (an elastic
        job's initially-active subset) — standby hardware joining later
        must never be a replica holder the baseline run depended on.
        ``None`` places over the whole cluster, the classic behavior.
    """

    def __init__(self, cluster: Cluster, block_size: int = 8 * MiB,
                 replication: int = 3, jni: Optional[JNIOverhead] = JNIOverhead(),
                 placement_nodes: Optional[List[int]] = None):
        if block_size < 1:
            raise ValueError("block_size must be positive")
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.cluster = cluster
        self.block_size = block_size
        self.replication = replication
        self.jni = jni
        if placement_nodes is not None:
            placement_nodes = sorted(set(placement_nodes))
            if not placement_nodes or any(
                    not (0 <= n < len(cluster)) for n in placement_nodes):
                raise ValueError(
                    f"placement nodes {placement_nodes} outside the cluster")
        self.placement_nodes = placement_nodes
        self.node_fs: List[LocalFS] = [LocalFS(node) for node in cluster]
        self._meta: Dict[str, List[_Block]] = {}
        self._block_ids = itertools.count()
        #: optional ClusterHealth view; when set, reads are served only
        #: from replicas on live nodes (a crashed node's disk is gone)
        self.health = None
        #: optional :class:`~repro.net.transport.TrafficMeter`; when this
        #: DFS belongs to one tenant of a shared cluster, its block
        #: traffic is attributed to that tenant
        self.meter = None

    def _replica_alive(self, node: int) -> bool:
        """Can this replica still serve reads?  A *departed* (drained)
        node can — decommissioned disks stay readable until the job ends;
        a crashed node's disk is gone."""
        if self.health is None:
            return True
        return self.health.storage_alive(node)

    # -- namespace -----------------------------------------------------------
    def exists(self, path: str) -> bool:
        return path in self._meta

    def size(self, path: str) -> int:
        self._require(path)
        return sum(b.length for b in self._meta[path])

    def listdir(self, prefix: str = "") -> List[str]:
        return sorted(p for p in self._meta if p.startswith(prefix))

    def delete(self, path: str) -> None:
        self._require(path)
        for block in self._meta.pop(path):
            for replica in block.replicas:
                if self.node_fs[replica].exists(block.local_path):
                    self.node_fs[replica].delete(block.local_path)

    def block_locations(self, path: str) -> List[BlockLocation]:
        """Block extents + replica holders, for affinity scheduling."""
        self._require(path)
        locations = []
        offset = 0
        for block in self._meta[path]:
            locations.append(BlockLocation(offset, block.length, block.replicas))
            offset += block.length
        return locations

    def purge_caches(self) -> None:
        """Purge the page cache on every node (paper's pre-test ritual)."""
        for fs in self.node_fs:
            fs.purge_cache()

    # -- write path ----------------------------------------------------------
    def create(self, path: str, data: bytes, writer: int,
               replication: Optional[int] = None) -> Generator:
        """Write ``data`` as a new file from node ``writer``.

        Replicas are written through a pipeline per block: the writer's
        local disk plus network pushes to the remaining replica nodes, all
        overlapping (as HDFS's chained block pipeline does).
        """
        if self.exists(path):
            raise FileExistsError(path)
        self._check_node(writer)
        pool = self.placement_nodes if self.placement_nodes is not None \
            else list(range(len(self.cluster)))
        rep = min(replication or self.replication, len(pool))
        blocks: List[_Block] = []
        sim = self.cluster.sim
        for start in range(0, max(len(data), 1), self.block_size):
            chunk = data[start:start + self.block_size]
            block = _Block(next(self._block_ids), len(chunk),
                           self._place_replicas(writer, rep, len(blocks)))
            blocks.append(block)
            yield from self._jni_charge(writer, len(chunk))
            writes = []
            for replica in block.replicas:
                writes.append(sim.process(
                    self._write_replica(writer, replica, block, chunk),
                    name=f"dfs-write-{block.block_id}-{replica}"))
            yield sim.all_of(writes)
        self._meta[path] = blocks

    def _write_replica(self, writer: int, replica: int, block: _Block,
                       chunk: bytes) -> Generator:
        if replica != writer:
            yield from self.cluster.network.send(writer, replica, len(chunk),
                                                 meter=self.meter)
        yield from self.node_fs[replica].write(block.local_path, chunk)

    # -- read path -----------------------------------------------------------
    def read(self, path: str, offset: int = 0, length: int = -1,
             reader: int = 0) -> Generator:
        """Read a byte range from node ``reader``; returns the bytes.

        Each covered block is served from a local replica when available,
        otherwise streamed from the closest (first) remote replica.
        """
        self._require(path)
        self._check_node(reader)
        total = self.size(path)
        if length < 0:
            length = total - offset
        end = min(offset + length, total)
        out = bytearray()
        block_start = 0
        for block in self._meta[path]:
            block_end = block_start + block.length
            if block_end > offset and block_start < end:
                lo = max(offset, block_start) - block_start
                hi = min(end, block_end) - block_start
                piece = yield from self._read_block(block, lo, hi - lo,
                                                    reader, stream=path)
                out += piece
            block_start = block_end
            if block_start >= end:
                break
        return bytes(out)

    def _read_block(self, block: _Block, offset: int, length: int,
                    reader: int, stream: str = "") -> Generator:
        live = [r for r in block.replicas if self._replica_alive(r)]
        if not live:
            raise FileNotFound(
                f"{block.local_path}: every replica holder "
                f"{block.replicas} is dead")
        if reader in live:
            source = reader
        else:
            # Spread remote load over the replica holders instead of
            # hammering the first one.
            source = live[(reader + block.block_id) % len(live)]
        # Consecutive blocks of one file stream off the replica's disk.
        data = yield from self.node_fs[source].read(
            block.local_path, offset, length,
            stream=f"{stream}@r{reader}" if stream else "")
        if source != reader:
            yield from self.cluster.network.send(source, reader, length,
                                                 meter=self.meter)
        yield from self._jni_charge(reader, length)
        return data

    # -- internals --------------------------------------------------------------
    def _jni_charge(self, node_id: int, nbytes: int) -> Generator:
        """Host-CPU cost of crossing the libhdfs JNI boundary."""
        if self.jni is None:
            return
        yield self.cluster[node_id].host_work(
            1, self.jni.seconds_for(nbytes), tag="jni")

    def _place_replicas(self, writer: int, rep: int, block_index: int
                        ) -> Tuple[int, ...]:
        """First replica local to the writer, the rest spread round-robin
        over the placement pool (the whole cluster unless restricted)."""
        if self.placement_nodes is None:
            n = len(self.cluster)
            replicas = [writer]
            candidate = (writer + 1 + block_index) % n
            while len(replicas) < rep:
                if candidate not in replicas:
                    replicas.append(candidate)
                candidate = (candidate + 1) % n
            return tuple(replicas)
        pool = self.placement_nodes
        if writer in pool:
            replicas = [writer]
            pos = pool.index(writer)
        else:
            # A writer outside the pool (e.g. a joined node writing job
            # output) anchors at its nearest pool position instead.
            pos = writer % len(pool)
            replicas = [pool[pos]]
        candidate = (pos + 1 + block_index) % len(pool)
        while len(replicas) < rep:
            if pool[candidate] not in replicas:
                replicas.append(pool[candidate])
            candidate = (candidate + 1) % len(pool)
        return tuple(replicas)

    def _check_node(self, node_id: int) -> None:
        if not (0 <= node_id < len(self.cluster)):
            raise ValueError(f"unknown node {node_id}")

    def _require(self, path: str) -> None:
        if path not in self._meta:
            raise FileNotFound(path)
