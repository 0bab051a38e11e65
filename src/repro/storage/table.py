"""The Azure Table storage service model.

Tables are schemaless sets of entities addressed by (PartitionKey,
RowKey).  The paper's experiment (Section 3.2) drives four operations on
a single partition -- Insert, Query (keyed), Update (unconditional, same
entity from every client) and Delete -- with entity sizes 1-64 kB, and
additionally property-filter queries that scan the partition (Section
6.1).  Each table partition is served by one :class:`PartitionServer`.

Every operation is one pass through the shared
:class:`~repro.service.pipeline.RequestPipeline`: base latency, routing
to the partition server for the (table, PartitionKey) range, the op's
:class:`OpSpec` on that server, then the commit that mutates table
state.  Ops that size themselves from current state (query/delete pay
for the bytes they touch) build their spec lazily, after the base
latency, exactly where the pre-pipeline code did.

State is a partition index, ``table -> PartitionKey -> {RowKey: Entity}``.
A property-filter scan reads its partition through one immutable
snapshot (a tuple of the rows in insertion order) that every scan of the
unchanged partition shares; any write to the partition drops it.  The
snapshot also memoizes each predicate's matches, so concurrent scans
with one filter evaluate it once per row between them.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

import numpy as np

from repro import calibration as cal
from repro.service.pipeline import LatencyProfile, RequestPipeline
from repro.service.spec import OpSpec
from repro.service.tracing import RequestTracer
from repro.simcore import Environment
from repro.storage.errors import (
    EntityAlreadyExistsError,
    EntityNotFoundError,
    PreconditionFailedError,
)
from repro.storage.partition import PartitionServer

_etags = itertools.count(1)

#: The latch of each op whose latch does not depend on the entity, and
#: how many of their specs one service keeps (see ``_fixed_op``): the
#: paper's sweeps use a few dozen (kind, size) pairs; the cap bounds a
#: continuous size distribution at a few hundred kB of specs.
_FIXED_LATCH = {"insert": "index", "query": None, "delete": "index"}
_SPEC_CACHE_SIZE = 1024


class Entity:
    """One table row: property bag plus system columns.

    Slotted, so a row carries no ``__dict__`` (the property-filter
    partition holds ~220k of them).  Construction, equality, repr and
    unhashability are those of a plain dataclass with these fields.
    """

    __slots__ = (
        "partition_key", "row_key", "properties", "size_kb", "etag",
        "timestamp",
    )

    def __init__(
        self,
        partition_key: str,
        row_key: str,
        properties: Optional[Dict[str, Any]] = None,
        size_kb: float = 1.0,
        etag: Optional[int] = None,
        timestamp: float = 0.0,
    ) -> None:
        self.partition_key = partition_key
        self.row_key = row_key
        self.properties: Dict[str, Any] = (
            {} if properties is None else properties
        )
        self.size_kb = size_kb
        self.etag: int = next(_etags) if etag is None else etag
        self.timestamp = timestamp

    # Mutable and compared by value, so unhashable.
    __hash__ = None  # type: ignore[assignment]

    def _fields(self) -> Tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{self.__class__.__qualname__}({fields})"

    @property
    def key(self) -> Tuple[str, str]:
        return (self.partition_key, self.row_key)


#: RowKey -> entity for one partition, in insertion order.
Partition = Dict[str, Entity]

#: What reads see for an absent partition (never stored in the index).
_NO_ROWS: Mapping[str, Entity] = MappingProxyType({})


class _ScanSnapshot:
    """One partition's scan set, plus the filter results computed on it.

    ``rows`` is the partition in insertion order when the snapshot was
    taken.  Matches are memoized per predicate object, so they live and
    die with the snapshot: a write to the partition drops both.
    """

    __slots__ = ("rows", "_matches")

    def __init__(self, rows: Tuple[Entity, ...]) -> None:
        self.rows = rows
        self._matches: Dict[Callable[[Entity], bool], Tuple[Entity, ...]] = {}

    def matching(self, predicate: Callable[[Entity], bool]) -> List[Entity]:
        """The rows ``predicate`` accepts, in order, as a fresh list."""
        hits = self._matches.get(predicate)
        if hits is None:
            hits = tuple(e for e in self.rows if predicate(e))
            self._matches[predicate] = hits
        return list(hits)


class TableService:
    """A table storage account endpoint.

    All operations are generators to be driven from a simulation process
    (typically via the client SDK, which adds timeout racing and retry).
    """

    def __init__(
        self,
        env: Environment,
        rng: np.random.Generator,
        name: str = "tables",
        tracer: Optional[RequestTracer] = None,
    ) -> None:
        self.env = env
        self.rng = rng
        self.name = name
        #: Optional fault injector (see :mod:`repro.faults`); consulted
        #: at request admission by drills that target the whole service.
        self.fault_injector: Optional[Any] = None
        # One partition server per (table, partition key) range.  The
        # paper's workload uses a single partition, so contention
        # concentrates exactly as it did in the measurement.
        self._servers: Dict[Tuple[str, str], PartitionServer] = {}
        self._tables: Dict[str, Dict[str, Partition]] = {}
        # (table, partition key) -> the partition's shared scan set.
        self._snapshots: Dict[Tuple[str, str], _ScanSnapshot] = {}
        # (kind, size_kb) -> the shared spec of a fixed-latch op.
        self._specs: Dict[Tuple[str, float], OpSpec] = {}
        self.pipeline = RequestPipeline(
            env,
            rng,
            service=name,
            latency=LatencyProfile(fixed_frac=0.85, jitter_frac=0.15),
            router=lambda key: self.server_for(*key),
            owner=self,
            tracer=tracer,
        )

    @property
    def tracer(self) -> Optional[RequestTracer]:
        return self.pipeline.tracer

    # -- administrative ------------------------------------------------------
    def create_table(self, table: str) -> None:
        self._tables.setdefault(table, {})

    def table_names(self) -> List[str]:
        return sorted(self._tables)

    def entity_count(self, table: str, partition_key: Optional[str] = None) -> int:
        partitions = self._entities(table)
        if partition_key is None:
            return sum(len(rows) for rows in partitions.values())
        return len(partitions.get(partition_key, _NO_ROWS))

    def server_for(self, table: str, partition_key: str) -> PartitionServer:
        key = (table, partition_key)
        server = self._servers.get(key)
        if server is None:
            server = PartitionServer(
                self.env,
                self.rng,
                name=f"{self.name}/{table}/{partition_key}",
                frontend_c_s=cal.TABLE_FRONTEND_C_S,
                frontend_gamma=cal.TABLE_FRONTEND_GAMMA,
                cores=cal.TABLE_SERVER_CORES,
                overload_knee_mb=cal.TABLE_OVERLOAD_KNEE_MB,
                overload_slope_per_mb=cal.TABLE_OVERLOAD_SLOPE_PER_MB,
            )
            self._servers[key] = server
        return server

    def servers(self) -> List[PartitionServer]:
        """The live partition servers, in deterministic key order (the
        expansion target for domain-scoped faults)."""
        return [self._servers[key] for key in sorted(self._servers)]

    def preload(self, table: str, entities: Iterable[Entity]) -> None:
        """Materialize entities now, in order, stamped with the current
        time, creating missing partitions and their servers.

        This is the administrative bulk load (no request latency, no
        events, no RNG draws -- the replica-priming analogue of
        :meth:`BlobService.seed_blob`) and the commit step of
        :meth:`insert` and :meth:`insert_batch`.  A key that already
        exists raises, leaving the entities before it loaded."""
        partitions = self._entities(table)
        now = self.env.now
        for entity in entities:
            pk = entity.partition_key
            rows = partitions.get(pk)
            if rows is None:
                rows = partitions[pk] = {}
                self.server_for(table, pk)
            elif entity.row_key in rows:
                raise EntityAlreadyExistsError(
                    f"{entity.key} already exists", service=self.name,
                    op="table.insert",
                )
            entity.timestamp = now
            rows[entity.row_key] = entity
            self._snapshots.pop((table, pk), None)

    def seed_entity(self, table: str, entity: Entity) -> Entity:
        """:meth:`preload` of one entity."""
        self.preload(table, (entity,))
        return entity

    def _entities(self, table: str) -> Dict[str, Partition]:
        partitions = self._tables.get(table)
        if partitions is None:
            raise EntityNotFoundError(
                f"table {table!r} does not exist", service=self.name
            )
        return partitions

    def _snapshot(
        self, table: str, partitions: Dict[str, Partition], pk: str
    ) -> _ScanSnapshot:
        """The partition's scan set, shared until the next write to it."""
        snap = self._snapshots.get((table, pk))
        if snap is None:
            rows = partitions.get(pk)
            if rows is None:
                return _ScanSnapshot(())
            snap = _ScanSnapshot(tuple(rows.values()))
            self._snapshots[(table, pk)] = snap
        return snap

    def _op(self, kind: str, size_kb: float, latch_key: Any) -> OpSpec:
        return OpSpec(
            name=f"table.{kind}",
            cpu_s=cal.TABLE_CPU_S[kind] + cal.TABLE_CPU_PER_KB_S * size_kb,
            exclusive_s=cal.TABLE_EXCLUSIVE_S[kind],
            latch_key=latch_key,
            payload_mb=size_kb / 1024.0,
        )

    def _fixed_op(self, kind: str, size_kb: float) -> OpSpec:
        """The spec of an insert, query or delete of ``size_kb``: one
        per (kind, size) serves every call.  Past ``_SPEC_CACHE_SIZE``
        sizes (a continuous size distribution), specs are built per
        call."""
        key = (kind, size_kb)
        spec = self._specs.get(key)
        if spec is None:
            spec = self._op(kind, size_kb, _FIXED_LATCH[kind])
            if len(self._specs) < _SPEC_CACHE_SIZE:
                self._specs[key] = spec
        return spec

    # -- data plane ------------------------------------------------------------
    def insert(self, table: str, entity: Entity) -> Generator:
        """Insert a new entity; fails if the key already exists."""
        self._entities(table)  # a missing table fails before any latency

        def commit() -> Entity:
            self.preload(table, (entity,))
            return entity

        result = yield from self.pipeline.execute(
            "table.insert",
            self._fixed_op("insert", entity.size_kb),
            base_latency_s=cal.TABLE_BASE_LATENCY_S["insert"],
            route=(table, entity.partition_key),
            commit=commit,
        )
        return result

    def query(self, table: str, partition_key: str, row_key: str) -> Generator:
        """Point query by PartitionKey + RowKey (the fast, indexed path)."""
        partitions = self._entities(table)
        found: List[Optional[Entity]] = [None]

        def op() -> OpSpec:
            # Sized from the entity as it exists after the base latency
            # (you pay for the bytes the lookup touches).
            found[0] = hit = partitions.get(partition_key, _NO_ROWS).get(
                row_key
            )
            return self._fixed_op("query", hit.size_kb if hit else 0.5)

        def commit() -> Entity:
            hit = found[0]
            if hit is None:
                raise EntityNotFoundError(
                    f"({partition_key}, {row_key}) not found",
                    service=self.name,
                    op="table.query",
                )
            return hit

        result = yield from self.pipeline.execute(
            "table.query",
            op,
            base_latency_s=cal.TABLE_BASE_LATENCY_S["query"],
            route=(table, partition_key),
            commit=commit,
        )
        return result

    def update(
        self,
        table: str,
        entity: Entity,
        if_match: Optional[int] = None,
    ) -> Generator:
        """Replace an entity.  ``if_match=None`` is the unconditional
        update the paper tests (no atomicity enforcement across clients,
        but the server still serializes writes to one entity)."""
        partitions = self._entities(table)
        pk = entity.partition_key

        def commit() -> Entity:
            current = partitions.get(pk, _NO_ROWS).get(entity.row_key)
            if current is None:
                raise EntityNotFoundError(
                    f"{entity.key} not found",
                    service=self.name,
                    op="table.update",
                )
            if if_match is not None and current.etag != if_match:
                raise PreconditionFailedError(
                    f"etag mismatch on {entity.key}:"
                    f" {current.etag} != {if_match}",
                    service=self.name,
                    op="table.update",
                )
            entity.etag = next(_etags)
            entity.timestamp = self.env.now
            # Replacing an existing key keeps its position in the partition.
            partitions[pk][entity.row_key] = entity
            self._snapshots.pop((table, pk), None)
            return entity

        result = yield from self.pipeline.execute(
            "table.update",
            self._op(
                "update", entity.size_kb, latch_key=("entity", entity.key)
            ),
            base_latency_s=cal.TABLE_BASE_LATENCY_S["update"],
            route=(table, entity.partition_key),
            commit=commit,
        )
        return result

    def delete(self, table: str, partition_key: str, row_key: str) -> Generator:
        """Delete an entity by key."""
        partitions = self._entities(table)
        found: List[Optional[Entity]] = [None]

        def op() -> OpSpec:
            found[0] = hit = partitions.get(partition_key, _NO_ROWS).get(
                row_key
            )
            return self._fixed_op("delete", hit.size_kb if hit else 0.5)

        def commit() -> None:
            hit = found[0]
            if hit is None:
                raise EntityNotFoundError(
                    f"({partition_key}, {row_key}) not found",
                    service=self.name,
                    op="table.delete",
                )
            rows = partitions[partition_key]
            del rows[row_key]
            if not rows:
                del partitions[partition_key]
            self._snapshots.pop((table, partition_key), None)

        yield from self.pipeline.execute(
            "table.delete",
            op,
            base_latency_s=cal.TABLE_BASE_LATENCY_S["delete"],
            route=(table, partition_key),
            commit=commit,
        )

    def insert_batch(self, table: str, entities: List[Entity]) -> Generator:
        """Entity Group Transaction: insert up to 100 entities of ONE
        partition atomically (added to Azure tables in late 2009).

        The batch pays one request round trip and holds the index latch
        once, so it is far cheaper than N singleton inserts -- but if any
        key exists, the whole batch fails and nothing is written.
        """
        if not entities:
            raise ValueError("batch must not be empty")
        if len(entities) > 100:
            raise ValueError("Entity Group Transactions cap at 100 entities")
        partition_keys = {e.partition_key for e in entities}
        if len(partition_keys) != 1:
            raise ValueError(
                "all batch entities must share one PartitionKey"
            )
        keys = [e.key for e in entities]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate keys within batch")
        partitions = self._entities(table)
        partition_key = next(iter(partition_keys))
        total_kb = sum(e.size_kb for e in entities)

        def commit() -> List[Entity]:
            existing = partitions.get(partition_key, _NO_ROWS)
            conflicts = [key for key in keys if key[1] in existing]
            if conflicts:
                raise EntityAlreadyExistsError(
                    f"batch aborted: {conflicts[0]} already exists",
                    service=self.name,
                    op="table.insert_batch",
                )
            self.preload(table, entities)
            return entities

        result = yield from self.pipeline.execute(
            "table.insert_batch",
            OpSpec(
                name="table.insert_batch",
                cpu_s=(
                    cal.TABLE_CPU_S["insert"]
                    + cal.TABLE_CPU_PER_KB_S * total_kb
                ),
                exclusive_s=cal.TABLE_EXCLUSIVE_S["insert"],
                latch_key="index",
                payload_mb=total_kb / 1024.0,
            ),
            base_latency_s=cal.TABLE_BASE_LATENCY_S["insert"],
            route=(table, partition_key),
            commit=commit,
        )
        return result

    def query_by_property(
        self,
        table: str,
        partition_key: str,
        predicate: Callable[[Entity], bool],
    ) -> Generator:
        """Property-filter query: scans the partition (no secondary
        indexes exist -- Section 6.1), so cost grows with partition size
        and the scan occupies a CPU core for its duration.

        ``predicate`` must be a pure function of the row: scans of one
        unchanged partition with the same predicate object share one
        evaluation per row (see :class:`_ScanSnapshot`).  Each call
        returns its own list of the matching rows, in partition order.
        """
        partitions = self._entities(table)
        scanned: List[_ScanSnapshot] = []

        def op() -> OpSpec:
            # The scan set is captured after the base latency; its size
            # sets the CPU cost.  Writes made while the scan waits for
            # CPU replace the partition's snapshot, not this one.
            snap = self._snapshot(table, partitions, partition_key)
            scanned.append(snap)
            scan_cpu = cal.TABLE_SCAN_S_PER_1K_ENTITIES * (
                len(snap.rows) / 1000.0
            )
            return OpSpec(
                name="table.scan",
                cpu_s=cal.TABLE_CPU_S["query"] + scan_cpu,
                payload_mb=0.001,
                # Scan cost is dominated by data volume, not service
                # jitter, so it is deterministic per partition size.
                deterministic=True,
            )

        result = yield from self.pipeline.execute(
            "table.scan",
            op,
            base_latency_s=cal.TABLE_BASE_LATENCY_S["query"],
            route=(table, partition_key),
            commit=lambda: scanned[0].matching(predicate),
        )
        return result


def make_entity(
    partition_key: str,
    row_key: str,
    size_kb: float = 1.0,
    **properties: Any,
) -> Entity:
    """Convenience constructor mirroring the paper's test schema:
    {int, int, String, String} plus the keys, with the last string sized
    to reach ``size_kb``."""
    props = {"f1": 0, "f2": 0, "f3": "meta", "payload_kb": size_kb}
    if properties:
        props.update(properties)
    return Entity(partition_key, row_key, props, size_kb)
