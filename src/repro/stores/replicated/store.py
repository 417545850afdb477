"""The replicated store: one logical store over N full-copy replicas.

A :class:`ReplicatedStore` fronts ``N`` replica instances of any child store
kind (relational, document, a whole :class:`~repro.stores.sharded.ShardedStore`,
...), every replica holding the *same* data — the materialization path writes
each fragment into all of them.  Reads route to one replica at a time, chosen
from the store's :class:`~repro.catalog.statistics.ReplicaHealthBoard`
(cheapest healthy EWMA service latency first), with three recovery layers per
request, all bounded by the :class:`ReplicationPolicy`:

* **retry** — a :class:`~repro.errors.TransientStoreError` (dropped request,
  response lost mid-stream) is retried on the same replica up to
  ``max_retries`` times;
* **failover** — a hard failure (:class:`~repro.errors.StoreCrashedError`,
  retries exhausted) moves the request to the next-ranked replica; repeated
  failures mark the replica unhealthy on the board, so later requests skip
  it without paying the failed round-trip;
* **hedging** — with ``hedge=True``, a backup request is fired on the
  next-ranked replica once the primary has been outstanding longer than the
  hedge delay (a percentile of the fleet's EWMA latencies, or an explicit
  override); the first winner's rows are used and the shared cancel event
  stops the loser at its next cancellable wait (the same cooperative
  mechanism LIMIT cancellation uses).

Each attempt collects the replica's row-tuple batches into a list *inside*
the router before any row reaches the consumer, so a retried or failed-over
request can never leak partial rows; the winning attempt's batches are then
forwarded as they are, without repacking a row.  Results are
bag-identical to a fault-free run by construction, which is
exactly what the chaos differential suite asserts.  Per-request recovery
activity (attempts / retries / hedges / failovers) is reported through
:class:`~repro.stores.base.StoreMetrics` and surfaces in
``QueryResult.summary()["replicas"]``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence, TypeVar

from repro.errors import (
    AccessPatternViolation,
    AllReplicasFailedError,
    DeltaError,
    KeyNotFoundError,
    PartialWriteError,
    SchemaError,
    StoreError,
    TransientStoreError,
    UnsupportedOperationError,
)
from repro.stores.base import (
    Store,
    StoreCapabilities,
    StoreMetrics,
    StoreRequest,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.catalog.statistics import ReplicaHealthBoard

__all__ = ["ReplicationPolicy", "ReplicatedStore"]

_T = TypeVar("_T")

# Errors that are properties of the *request* (unsupported operation, schema
# mismatch, missing lookup key), not of the replica that reported them: every
# replica would answer identically, so retrying or failing over only replays
# a doomed request and blaming the replica would poison its health.
_NON_FAILOVER_ERRORS = (
    UnsupportedOperationError,
    AccessPatternViolation,
    SchemaError,
    KeyNotFoundError,
)


def _thread_cancelled(extra: "threading.Event | None" = None) -> bool:
    """Whether the current thread's execution has been cancelled.

    Checks the hedge race's ``extra`` event plus the thread's published
    cancel event (an Exchange worker's LIMIT/error shutdown) — a request
    failing *because the query no longer wants the answer* must not be
    retried, failed over, or held against the replica's health.
    """
    if extra is not None and extra.is_set():
        return True
    from repro.runtime.parallel import current_cancel_event

    event = current_cancel_event()
    return event is not None and event.is_set()


@dataclass(frozen=True, slots=True)
class ReplicationPolicy:
    """Bounds and knobs of the retry / failover / hedging behavior.

    ``max_retries`` bounds same-replica retries of transient errors;
    ``max_failovers`` bounds how many *additional* replicas a request may
    move to (None = every replica may be tried once).  ``hedge`` enables
    backup requests; the hedge delay is ``hedge_delay_seconds`` when set,
    otherwise the ``hedge_latency_percentile`` of the healthy replicas' EWMA
    latencies (never below ``hedge_delay_floor_seconds``).  ``prefer_order``
    pins a static replica preference (a "read-local" policy; unhealthy
    replicas are still demoted) instead of the EWMA ranking.
    """

    max_retries: int = 2
    max_failovers: int | None = None
    hedge: bool = False
    hedge_delay_seconds: float | None = None
    hedge_latency_percentile: float = 0.95
    hedge_delay_floor_seconds: float = 0.002
    prefer_order: tuple[int, ...] | None = None

    def describe(self) -> Mapping[str, object]:
        """JSON-friendly policy summary."""
        return {
            "max_retries": self.max_retries,
            "max_failovers": self.max_failovers,
            "hedge": self.hedge,
            "hedge_delay_seconds": self.hedge_delay_seconds,
            "hedge_latency_percentile": self.hedge_latency_percentile,
            "hedge_delay_floor_seconds": self.hedge_delay_floor_seconds,
            "prefer_order": list(self.prefer_order) if self.prefer_order else None,
        }


class _RequestCounters:
    """Thread-safe recovery counters of one request (hedge threads share it)."""

    __slots__ = ("_lock", "attempts", "retries", "hedges", "failovers")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.attempts = 0
        self.retries = 0
        self.hedges = 0
        self.failovers = 0

    def add(self, attempts: int = 0, retries: int = 0, hedges: int = 0, failovers: int = 0) -> None:
        with self._lock:
            self.attempts += attempts
            self.retries += retries
            self.hedges += hedges
            self.failovers += failovers

    def snapshot(self) -> tuple[int, int, int, int]:
        with self._lock:
            return (self.attempts, self.retries, self.hedges, self.failovers)


class ReplicatedStore(Store):
    """A router spreading reads over N identical replicas, writes over all."""

    def __init__(
        self,
        name: str,
        replicas: Sequence[Store],
        policy: ReplicationPolicy | None = None,
        latency: float = 0.0,
    ) -> None:
        super().__init__(name, latency=latency)
        if not replicas:
            raise StoreError("a replicated store needs at least one replica")
        kinds = {replica.capabilities().data_model for replica in replicas}
        if len(kinds) > 1:
            raise StoreError(
                f"replicas must be homogeneous, got data models {sorted(kinds)}"
            )
        self._replicas: tuple[Store, ...] = tuple(replicas)
        self._policy = policy or ReplicationPolicy()
        # Imported lazily: the health board lives with the statistics catalog
        # (the planner and cost model read it from there conceptually), and
        # that module reaches back into the stores package at import time.
        from repro.catalog.statistics import ReplicaHealthBoard

        self.health: "ReplicaHealthBoard" = ReplicaHealthBoard(
            [replica.name for replica in replicas]
        )
        self._totals_lock = threading.Lock()
        self._totals = {"attempts": 0, "retries": 0, "hedges": 0, "failovers": 0}

    @classmethod
    def homogeneous(
        cls,
        name: str,
        replicas: int,
        factory: Callable[[str], Store],
        policy: ReplicationPolicy | None = None,
        latency: float = 0.0,
    ) -> "ReplicatedStore":
        """Build a router over ``replicas`` children created by ``factory(name)``."""
        if replicas < 1:
            raise StoreError("a replicated store needs at least one replica")
        children = [factory(f"{name}.{index}") for index in range(replicas)]
        return cls(name, children, policy=policy, latency=latency)

    # -- topology ------------------------------------------------------------------
    @property
    def replica_count(self) -> int:
        """Number of replica instances."""
        return len(self._replicas)

    def replica(self, index: int) -> Store:
        """The replica instance at ``index``."""
        if not 0 <= index < len(self._replicas):
            raise StoreError(f"store {self.name!r} has no replica {index}")
        return self._replicas[index]

    def replica_stores(self) -> tuple[Store, ...]:
        """All replica instances, in index order."""
        return self._replicas

    @property
    def policy(self) -> ReplicationPolicy:
        """The active replication policy."""
        return self._policy

    def set_policy(self, policy: ReplicationPolicy) -> None:
        """Swap the replication policy (benchmarks toggle hedging this way)."""
        self._policy = policy

    def describe_replication(self) -> Mapping[str, object]:
        """JSON-friendly topology + policy + per-replica health summary."""
        with self._totals_lock:
            totals = dict(self._totals)
        return {
            "replicas": [replica.name for replica in self._replicas],
            "policy": dict(self._policy.describe()),
            "health": list(self.health.describe()),
            "totals": totals,
        }

    def replication_report(self) -> Mapping[str, int]:
        """Cumulative attempts/retries/hedges/failovers since construction."""
        with self._totals_lock:
            return dict(self._totals)

    # -- routing -------------------------------------------------------------------
    def _order(self) -> tuple[int, ...]:
        """Replica preference order: pinned by policy, else board-ranked."""
        if self._policy.prefer_order is not None:
            pinned = [i for i in self._policy.prefer_order if 0 <= i < len(self._replicas)]
            pinned += [i for i in range(len(self._replicas)) if i not in set(pinned)]
            healthy = [i for i in pinned if self.health.statistics(i).healthy]
            unhealthy = [i for i in pinned if not self.health.statistics(i).healthy]
            return tuple(healthy + unhealthy)
        return self.health.ranked()

    def _on_any(self, operation: Callable[[Store], _T]) -> _T:
        """Run a metadata operation on the first replica that can serve it."""
        last_error: StoreError | None = None
        for index in self._order():
            try:
                return operation(self._replicas[index])
            except StoreError as error:
                last_error = error
        if last_error is not None:
            raise last_error
        raise StoreError(f"store {self.name!r} has no replicas")

    # -- data loading ---------------------------------------------------------------
    def insert(self, collection: str, rows: Iterable[Mapping[str, object]]) -> int:
        """Replicate ``rows`` into every replica (full-copy replication)."""
        materialized = [dict(row) for row in rows]
        written = 0
        for replica in self._replicas:
            inserter = getattr(replica, "insert", None)
            if inserter is None:
                raise StoreError(
                    f"replica store {replica.name!r} has no insert API; materialize instead"
                )
            written = inserter(collection, materialized)
        return written

    def apply_delta(
        self,
        collection: str,
        inserts: Sequence[Mapping[str, object]] = (),
        deletes: Sequence[Mapping[str, object]] = (),
    ) -> int:
        """Fan a delta out to *every* replica; roll back on partial failure.

        Unlike :meth:`create_index`, deltas go **through** fault-injection
        wrappers: a write that silently skipped a crashed replica would leave
        the copies divergent with no record of it.  When a replica fails
        after others were written, the written ones get the inverse delta
        applied and the write surfaces as
        :class:`~repro.errors.PartialWriteError` — callers keep the fragment
        marked stale and retry after the replica revives.
        """
        materialized_inserts = [dict(row) for row in inserts]
        materialized_deletes = [dict(row) for row in deletes]
        touched = 0
        applied: list[Store] = []
        for replica in self._replicas:
            try:
                touched = replica.apply_delta(
                    collection, inserts=materialized_inserts, deletes=materialized_deletes
                )
            except (StoreError, DeltaError) as error:
                rolled_back = True
                for done in applied:
                    try:
                        done.apply_delta(
                            collection,
                            inserts=materialized_deletes,
                            deletes=materialized_inserts,
                        )
                    except (StoreError, DeltaError):
                        rolled_back = False
                raise PartialWriteError(
                    f"delta to collection {collection!r} failed on replica "
                    f"{replica.name!r} of store {self.name!r}: {error}",
                    failed_children=(replica.name,),
                    rolled_back=rolled_back,
                ) from error
            applied.append(replica)
        return touched

    def truncate_collection(self, collection: str) -> None:
        """Truncate on every replica (a maintenance write, like indexing)."""
        for replica in self._replicas:
            replica.truncate_collection(collection)

    def create_index(self, collection: str, column: str) -> None:
        """Create the index on every replica that supports it.

        A maintenance write, so it bypasses fault-injection wrappers (like
        the materialization path does) — a replica being flaky or down must
        not make the copies diverge, nor stop the other replicas from being
        indexed.
        """
        for replica in self._replicas:
            target = getattr(replica, "fault_target", replica)
            indexer = getattr(target, "create_index", None)
            if indexer is not None and collection in target.collections():
                indexer(collection, column)

    # -- durable fan-out ----------------------------------------------------------------
    def attach_durable(self, backing) -> None:
        """Give every replica its own backing subdirectory (``replica-<i>``).

        Writes already fan out to all replicas, so each replica's own write
        path logs into its child backing; the router holds the parent handle
        only as a namespace.
        """
        if self._durable is not None:
            raise StoreError(f"store {self.name!r} already has a durable backing")
        for index, replica in enumerate(self._replicas):
            target = getattr(replica, "fault_target", replica)
            target.attach_durable(backing.child(f"replica-{index}"))
        self._durable = backing

    def compact_durable(self):
        reports = []
        for replica in self._replicas:
            target = getattr(replica, "fault_target", replica)
            report = target.compact_durable()
            if report:
                reports.append(report)
        if not reports:
            return None
        return {
            "generation": max(report["generation"] for report in reports),
            "segments_written": sum(report["segments_written"] for report in reports),
            "wal_records_folded": sum(report["wal_records_folded"] for report in reports),
            "collections": sorted(
                {name for report in reports for name in report["collections"]}
            ),
        }

    def segment_scan_fraction(self, collection: str, bounds) -> float | None:
        for replica in self._replicas:
            target = getattr(replica, "fault_target", replica)
            fraction = target.segment_scan_fraction(collection, bounds)
            if fraction is not None:
                return fraction
        return None

    # -- store interface ---------------------------------------------------------------
    def capabilities(self) -> StoreCapabilities:
        template = self._replicas[0].capabilities()
        return replace(template, name=self.name)

    def collections(self) -> Sequence[str]:
        return self._on_any(lambda replica: replica.collections())

    def collection_size(self, collection: str) -> int:
        return self._on_any(lambda replica: replica.collection_size(collection))

    def column_statistics(self, collection: str, column: str) -> Mapping[str, object]:
        return self._on_any(lambda replica: replica.column_statistics(collection, column))

    def _collection_columns(self, collection: str) -> tuple[str, ...]:
        return self._on_any(lambda replica: replica._collection_columns(collection))

    def reset_metrics(self) -> None:
        """Zero the router's and every replica's cumulative counters."""
        super().reset_metrics()
        for replica in self._replicas:
            replica.reset_metrics()

    # -- execution ---------------------------------------------------------------------
    def _attempt(
        self,
        index: int,
        request: StoreRequest,
        columns: tuple[str, ...],
        batch_size: int,
        counters: _RequestCounters,
        cancel: "threading.Event | None" = None,
    ) -> tuple[list, StoreMetrics]:
        """One bounded-retry attempt run entirely against replica ``index``.

        Returns the replica's batches, collected into a list, and the
        replica stream's metrics; a failure partway through the stream
        discards whatever it had produced.

        ``cancel`` is the hedge race's shared event: once it fires (or the
        surrounding execution's cancel event does — LIMIT early-exit), this
        request no longer wants an answer, so a transient error is re-raised
        without retrying or recording a failure — a cancelled request says
        nothing about the replica's health.
        """
        replica = self._replicas[index]
        last_error: TransientStoreError | None = None
        for attempt in range(self._policy.max_retries + 1):
            counters.add(attempts=1, retries=1 if attempt else 0)
            started = time.perf_counter()
            try:
                stream = replica.execute_batches(request, columns, batch_size)
                batches = list(stream)
            except _NON_FAILOVER_ERRORS:
                # The request itself is at fault; the replica is fine.
                raise
            except TransientStoreError as error:
                if _thread_cancelled(cancel):
                    raise
                self.health.record_failure(index)
                last_error = error
                continue
            except StoreError:
                self.health.record_failure(index)
                raise
            self.health.record_success(index, time.perf_counter() - started)
            return batches, stream.metrics
        raise last_error if last_error is not None else StoreError(
            f"replica {replica.name!r} failed without an error"
        )

    def _hedge_delay(self) -> float:
        if self._policy.hedge_delay_seconds is not None:
            return max(0.0, self._policy.hedge_delay_seconds)
        percentile = self.health.latency_percentile(self._policy.hedge_latency_percentile)
        floor = max(0.0, self._policy.hedge_delay_floor_seconds)
        if percentile is None:
            return floor
        return max(floor, percentile)

    def _execute_batches(
        self, request: StoreRequest, columns: Sequence[str], batch_size: int
    ):
        """Serve the request from one replica, retrying and failing over.

        The winning attempt's batches are forwarded, and its metrics carry
        the request's replica attempt, retry, hedge and failover counts.
        """
        # Imported lazily: repro.runtime.parallel reaches back into the
        # stores package through its operator imports, and importing it at
        # module scope would close an import cycle through stores/__init__.
        from repro.runtime.parallel import run_hedged

        order = self._order()
        budget = len(order)
        if self._policy.max_failovers is not None:
            budget = min(budget, self._policy.max_failovers + 1)
        counters = _RequestCounters()
        wanted = tuple(columns)

        def attempt(index: int, cancel: "threading.Event | None" = None):
            return self._attempt(index, request, wanted, batch_size, counters, cancel)

        errors: list[BaseException] = []
        result: tuple[list, StoreMetrics] | None = None
        try:
            result = self._select_and_execute(
                run_hedged, attempt, order, budget, counters, errors
            )
        finally:
            attempts, retries, hedges, failovers = counters.snapshot()
            with self._totals_lock:
                self._totals["attempts"] += attempts
                self._totals["retries"] += retries
                self._totals["hedges"] += hedges
                self._totals["failovers"] += failovers
        if result is None:
            if _thread_cancelled() and errors:
                # The execution was cancelled mid-request (LIMIT early-exit,
                # sibling failure): this is not a replica-fleet failure.
                raise errors[-1]
            details = "; ".join(f"{type(e).__name__}: {e}" for e in errors) or "no replicas"
            raise AllReplicasFailedError(
                f"store {self.name!r}: every replica failed ({details})"
            ) from (errors[-1] if errors else None)
        batches, metrics = result
        metrics.replica_attempts += attempts
        metrics.replica_retries += retries
        metrics.replica_hedges += hedges
        metrics.replica_failovers += failovers
        return iter(batches), metrics

    def _select_and_execute(
        self,
        run_hedged,
        attempt: Callable[..., tuple[list, StoreMetrics]],
        order: tuple[int, ...],
        budget: int,
        counters: _RequestCounters,
        errors: list[BaseException],
    ) -> tuple[list, StoreMetrics] | None:
        """The failover loop: walk the preference order until a replica answers.

        ``attempt(index, cancel=None)`` runs one bounded-retry attempt on
        replica ``index``.
        """
        position = 0
        result: tuple[list, StoreMetrics] | None = None
        while position < budget and result is None:
            primary = order[position]
            backup = (
                order[position + 1]
                if self._policy.hedge and position + 1 < budget
                else None
            )
            if backup is None:
                try:
                    result = attempt(primary)
                except _NON_FAILOVER_ERRORS:
                    # Every replica would refuse this request identically:
                    # surface the original error class, don't fail over.
                    raise
                except StoreError as error:
                    errors.append(error)
                    if _thread_cancelled():
                        # The query stopped wanting the answer mid-request;
                        # issuing fresh replica requests would be pure waste.
                        break
                    position += 1
                    if position < budget:
                        counters.add(failovers=1)
            else:
                outcome = run_hedged(
                    [
                        lambda cancel, i=primary: attempt(i, cancel),
                        lambda cancel, i=backup: attempt(i, cancel),
                    ],
                    self._hedge_delay(),
                    name=f"{self.name}-hedge",
                )
                backup_report = outcome.reports[1]
                if backup_report.launched:
                    # A backup fired by the hedge delay is a hedge; one fired
                    # because the primary already failed is a failover.
                    if backup_report.hedged:
                        counters.add(hedges=1)
                    else:
                        counters.add(failovers=1)
                if outcome.winner is not None:
                    if outcome.winner == 1 and backup_report.hedged:
                        self.health.record_hedge_win(backup)
                    result = outcome.value  # type: ignore[assignment]
                else:
                    for error in outcome.errors():
                        if isinstance(error, _NON_FAILOVER_ERRORS):
                            raise error
                    errors.extend(outcome.errors())
                    if _thread_cancelled():
                        break
                    position += 2
                    if position < budget:
                        counters.add(failovers=1)
        return result
