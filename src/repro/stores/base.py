"""Common store abstraction for the simulated DMS substrates.

The paper's prototype talks to Postgres, MongoDB, Redis, SOLR and Spark; this
reproduction replaces them with in-process simulators that expose a common
minimal interface to the ESTOCADA mediator:

* a **capability profile** (:class:`StoreCapabilities`) describing which
  operations the store can evaluate natively — selections, projections,
  joins, key lookups, text search, nested construction — which is what the
  translation layer consults when deciding how much of a rewriting can be
  *delegated* to the store;
* a micro-IR of **store requests** (:class:`ScanRequest`,
  :class:`LookupRequest`, :class:`JoinRequest`, :class:`SearchRequest`)
  that delegated sub-queries are compiled into;
* one request path: :meth:`Store.execute_batches` streams a request's
  answer as tuple :class:`~repro.runtime.batch.RowBatch` objects plus the
  execution metrics that the demo scenario surfaces ("performance
  statistics split across the underlying DMS and ESTOCADA's runtime");
  :meth:`Store.execute` is the whole-row convenience built on it, returning
  the rows as dictionaries.

Each concrete store also exposes simple statistics (cardinalities, distinct
counts) consumed by the cost model.
"""

from __future__ import annotations

import threading
import time
from itertools import islice
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.terms import Parameter
from repro.errors import StoreError, UnsupportedOperationError
from repro.cancellation import interruptible_sleep

__all__ = [
    "StoreCapabilities",
    "Predicate",
    "ScanRequest",
    "LookupRequest",
    "JoinRequest",
    "SearchRequest",
    "StoreRequest",
    "StoreResult",
    "StoreBatchStream",
    "StoreMetrics",
    "Store",
    "COMPARATORS",
    "DEFAULT_STREAM_BATCH_SIZE",
    "batch_tuples",
    "dict_reader",
    "hash_join",
    "select",
    "union_columns",
    "bind_parameters",
    "bind_value",
]

DEFAULT_STREAM_BATCH_SIZE = 256


COMPARATORS: dict[str, Callable[[object, object], bool]] = {
    "=": lambda left, right: left == right,
    "!=": lambda left, right: left != right,
    "<": lambda left, right: left is not None and right is not None and left < right,
    "<=": lambda left, right: left is not None and right is not None and left <= right,
    ">": lambda left, right: left is not None and right is not None and left > right,
    ">=": lambda left, right: left is not None and right is not None and left >= right,
}


@dataclass(frozen=True, slots=True)
class StoreCapabilities:
    """What a store can evaluate natively.

    The mediator delegates to the store exactly the operations the store
    supports and evaluates the rest itself (paper, Section III, "Evaluation
    of non-delegated operations").
    """

    name: str
    data_model: str
    supports_scan: bool = True
    supports_selection: bool = True
    supports_projection: bool = True
    supports_join: bool = False
    supports_aggregation: bool = False
    supports_key_lookup: bool = False
    requires_key_lookup: bool = False
    supports_text_search: bool = False
    supports_nested_results: bool = False
    parallel: bool = False


@dataclass(frozen=True, slots=True)
class Predicate:
    """A simple comparison predicate ``column <op> value`` on a collection."""

    column: str
    op: str
    value: object

    def __post_init__(self) -> None:
        if self.op not in COMPARATORS:
            raise StoreError(f"unsupported predicate operator {self.op!r}")

    def evaluate(self, row: Mapping[str, object]) -> bool:
        """Evaluate the predicate on one row (missing columns compare as None)."""
        return COMPARATORS[self.op](row.get(self.column), self.value)


@dataclass(frozen=True, slots=True)
class ScanRequest:
    """Scan a collection, applying predicates and a projection."""

    collection: str
    predicates: tuple[Predicate, ...] = ()
    projection: tuple[str, ...] | None = None
    limit: int | None = None


@dataclass(frozen=True, slots=True)
class LookupRequest:
    """Point lookup(s) by key in a key-access collection."""

    collection: str
    keys: tuple[object, ...]
    projection: tuple[str, ...] | None = None


@dataclass(frozen=True, slots=True)
class JoinRequest:
    """A join of two sub-requests on column equality, for join-capable stores."""

    left: "StoreRequest"
    right: "StoreRequest"
    on: tuple[tuple[str, str], ...]
    projection: tuple[str, ...] | None = None


@dataclass(frozen=True, slots=True)
class SearchRequest:
    """Full-text search over a collection (SOLR-like stores)."""

    collection: str
    text: str
    fields: tuple[str, ...] = ()
    limit: int | None = None


StoreRequest = ScanRequest | LookupRequest | JoinRequest | SearchRequest


def bind_value(value: object, parameters: Mapping[Parameter, object]) -> object:
    """``value``, or its bound value when it is a parameter slot."""
    return parameters[value] if isinstance(value, Parameter) else value


def bind_parameters(request: StoreRequest, parameters: Mapping[Parameter, object]) -> StoreRequest:
    """``request`` with every :class:`~repro.core.terms.Parameter` slot bound.

    Cached plans are compiled over query templates: scan predicates and
    lookup keys may hold parameter slots instead of values.  Binding returns
    a fresh request (recursing through both sides of a join) and never
    mutates the cached one; a request without slots is returned as is.
    """
    if not parameters:
        return request
    if isinstance(request, ScanRequest):
        if not any(isinstance(p.value, Parameter) for p in request.predicates):
            return request
        return replace(
            request,
            predicates=tuple(
                Predicate(p.column, p.op, bind_value(p.value, parameters))
                for p in request.predicates
            ),
        )
    if isinstance(request, LookupRequest):
        if not any(isinstance(key, Parameter) for key in request.keys):
            return request
        return replace(
            request, keys=tuple(bind_value(key, parameters) for key in request.keys)
        )
    if isinstance(request, JoinRequest):
        left = bind_parameters(request.left, parameters)
        right = bind_parameters(request.right, parameters)
        if left is request.left and right is request.right:
            return request
        return replace(request, left=left, right=right)
    return request


@dataclass(slots=True)
class StoreMetrics:
    """Execution metrics reported by a store for one request.

    ``replica_attempts`` / ``replica_retries`` / ``replica_hedges`` /
    ``replica_failovers`` are populated only by requests served through a
    :class:`~repro.stores.replicated.ReplicatedStore`: how many replica
    attempts the request took, how many were same-replica retries, how many
    backup (hedged) requests were fired, and how many times the request moved
    on to another replica after a hard failure.

    ``segments_scanned`` / ``segments_skipped`` / ``rows_decoded`` are
    populated only by scans served from a durable segment backing: how many
    frozen segments the scan actually opened, how many its zone maps proved
    irrelevant without touching their column blocks, and how many stored
    rows were decoded (the rows of opened segments plus the unfrozen tail).
    """

    rows_scanned: int = 0
    rows_returned: int = 0
    index_lookups: int = 0
    partitions_used: int = 0
    partitions_pruned: int = 0
    elapsed_seconds: float = 0.0
    replica_attempts: int = 0
    replica_retries: int = 0
    replica_hedges: int = 0
    replica_failovers: int = 0
    segments_scanned: int = 0
    segments_skipped: int = 0
    rows_decoded: int = 0

    def absorb(self, other: "StoreMetrics") -> None:
        """Add ``other``'s counters into this object, in place."""
        self.rows_scanned += other.rows_scanned
        self.rows_returned += other.rows_returned
        self.index_lookups += other.index_lookups
        self.partitions_used += other.partitions_used
        self.partitions_pruned += other.partitions_pruned
        self.elapsed_seconds += other.elapsed_seconds
        self.replica_attempts += other.replica_attempts
        self.replica_retries += other.replica_retries
        self.replica_hedges += other.replica_hedges
        self.replica_failovers += other.replica_failovers
        self.segments_scanned += other.segments_scanned
        self.segments_skipped += other.segments_skipped
        self.rows_decoded += other.rows_decoded


@dataclass(slots=True)
class StoreResult:
    """Rows returned by a store, plus the metrics of the request."""

    rows: list[dict[str, object]]
    metrics: StoreMetrics = field(default_factory=StoreMetrics)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


def batch_tuples(
    tuples: Iterable[tuple],
    columns: Sequence[str],
    batch_size: int,
    limit: int | None = None,
):
    """Chunk row tuples into ``RowBatch`` objects, stopping at ``limit``.

    The shared emit loop of every store's ``_execute_batches``: yield full
    batches of ``batch_size`` rows and a short tail, and pull no row from
    ``tuples`` past the ``limit``-th.
    """
    from repro.runtime.batch import RowBatch

    columns = tuple(columns)
    rows = iter(tuples) if limit is None else islice(tuples, limit)
    while chunk := list(islice(rows, batch_size)):
        yield RowBatch(columns, chunk)


def union_columns(rows: Iterable[Mapping[str, object]]) -> tuple[str, ...]:
    """First-seen-order union of the keys of ragged rows."""
    seen: dict[str, None] = {}
    for row in rows:
        seen.update(dict.fromkeys(row))
    return tuple(seen)


def dict_reader(
    columns: Sequence[str], known: Iterable[str] = ()
) -> Callable[[Mapping[str, object]], tuple]:
    """A row-dict → tuple transform over ``columns`` (None for absent keys).

    When every column is in ``known`` (a table's declared columns, present in
    each of its rows) the transform is a plain ``itemgetter``.
    """
    columns = tuple(columns)
    if not columns:
        return lambda row: ()
    known = set(known)
    if all(column in known for column in columns):
        if len(columns) == 1:
            only = columns[0]
            return lambda row: (row[only],)
        return itemgetter(*columns)
    return lambda row: tuple(map(row.get, columns))


def select(
    rows: Iterable[Mapping[str, object]],
    predicates: Sequence[Predicate],
    read: Callable[[Mapping[str, object]], tuple],
) -> Iterator[tuple]:
    """``read(row)`` for each row satisfying every predicate (absent keys read None)."""
    checks = tuple((p.column, COMPARATORS[p.op], p.value) for p in predicates)
    if not checks:
        return map(read, rows)
    if len(checks) == 1:
        ((column, comparator, value),) = checks
        return (read(row) for row in rows if comparator(row.get(column), value))
    return (
        read(row)
        for row in rows
        if all(comparator(row.get(column), value) for column, comparator, value in checks)
    )


def hash_join(store: "Store", request: JoinRequest, columns: tuple[str, ...]):
    """A store-side equi-join over ``store._tuples``, emitting ``columns`` tuples.

    Shared by the join-capable stores, whose ``_tuples(request, columns)``
    evaluates one sub-request to row tuples plus its metrics.  An output
    column comes from the right side when only the right rows carry it, else
    from the left side (the left wins a shared name; a column neither side
    carries reads as None).  Both sides fetch their join keys first, then
    the output columns they supply; the right side is hashed and no per-row
    dict is built.
    """
    from repro.runtime.kernels import projection_kernel

    if not request.on:
        raise StoreError(
            f"store {store.name!r}: a join requires at least one equality column pair"
        )
    left_columns = store.row_columns(request.left)
    right_columns = store.row_columns(request.right)
    from_right = tuple(
        column for column in columns if column in right_columns and column not in left_columns
    )
    left_fetch = tuple(left for left, _ in request.on) + tuple(
        column for column in columns if column not in from_right
    )
    right_fetch = tuple(right for _, right in request.on) + from_right
    left_rows, metrics = _sub_tuples(store, request.left, left_fetch)
    right_rows, right_metrics = _sub_tuples(store, request.right, right_fetch)
    metrics.absorb(right_metrics)
    metrics.rows_scanned += len(left_rows) + len(right_rows)
    width = len(request.on)
    build: dict[object, list[tuple]] = {}
    for row in right_rows:
        build.setdefault(row[0] if width == 1 else row[:width], []).append(row)
    pick = projection_kernel(left_fetch + right_fetch, columns)
    joined = (
        pick(row + match)
        for row in left_rows
        for match in build.get(row[0] if width == 1 else row[:width], ())
    )
    return joined, metrics


def _sub_tuples(store: "Store", request: StoreRequest, columns: tuple[str, ...]):
    """A join side's row tuples, materialized (with its limit), plus its metrics."""
    tuples, metrics = store._tuples(request, columns)
    limit = getattr(request, "limit", None)
    rows = list(tuples if limit is None else islice(tuples, limit))
    return rows, metrics


class _DurableSilence:
    """Reentrant guard suppressing durable logging inside a ``with`` block.

    Used during recovery replay (re-applying a record must not re-log it)
    and by compound writes built from other logged writes (e.g. a document
    delta whose inserts go through ``insert``): the outermost operation logs
    one record, the nested calls stay quiet.  A counter rather than a flag,
    so nested silences compose.
    """

    __slots__ = ("_store",)

    def __init__(self, store: "Store") -> None:
        self._store = store

    def __enter__(self) -> None:
        self._store._durable_quiet += 1

    def __exit__(self, *exc_info) -> None:
        self._store._durable_quiet -= 1


class StoreBatchStream:
    """A lazily batched store result over native ``RowBatch`` objects.

    Iterating yields :class:`~repro.runtime.batch.RowBatch` objects whose
    schema is exactly the ``columns`` the consumer asked for — tuples flow
    from the store's internal representation to the runtime without a
    per-row dict round-trip.

    The request's :attr:`metrics` are finalized once the stream is exhausted
    (the consumer — typically a ``DelegatedRequest`` operator — records them
    into the per-query store breakdown at that point).  Time spent inside the
    store (issuing the request, pulling rows) is measured; time the consumer
    spends between batches is not charged to the store.

    Finalization is **idempotent and race-free**: the running counters live on
    the instance and :meth:`_finalize` folds them into :attr:`metrics` (and the
    store's cumulative counters) exactly once, under a lock — a pipeline
    abandoned mid-stream may be closed from the consumer thread while the
    producing Exchange worker unwinds, and both paths meet here.
    """

    __slots__ = (
        "_store",
        "_request",
        "_columns",
        "_batch_size",
        "metrics",
        "_consumed",
        "_lock",
        "_finalized",
        "_returned",
        "_elapsed",
        "_base_metrics",
    )

    def __init__(
        self,
        store: "Store",
        request: StoreRequest,
        columns: Sequence[str],
        batch_size: int,
    ) -> None:
        self._store = store
        self._request = request
        self._columns = tuple(columns)
        self._batch_size = max(1, batch_size)
        self.metrics = StoreMetrics()
        self._consumed = False
        self._lock = threading.Lock()
        self._finalized = False
        self._returned = 0
        self._elapsed = 0.0
        self._base_metrics = StoreMetrics()

    @property
    def columns(self) -> tuple[str, ...]:
        """The schema every yielded batch carries."""
        return self._columns

    @property
    def finalized(self) -> bool:
        """Whether the stream's metrics have been folded into the store."""
        return self._finalized

    def _claim(self) -> None:
        """Mark the stream consumed (streams are single-shot)."""
        with self._lock:
            if self._consumed:
                raise StoreError(
                    f"result stream of {self._store.name!r} has already been consumed"
                )
            self._consumed = True

    def _finalize(self) -> None:
        """Fold the running counters into :attr:`metrics` exactly once."""
        with self._lock:
            if self._finalized:
                return
            self._finalized = True
            # The base metrics object belongs to this request alone.
            metrics = self._base_metrics
            metrics.rows_returned = self._returned
            metrics.elapsed_seconds = self._elapsed
            self.metrics = metrics
            self._store._note_request(self.metrics)

    def close(self) -> None:
        """Finalize the stream early (safe to call from any thread, any number of times)."""
        self._finalize()

    def __iter__(self) -> "Iterator":
        self._claim()
        batches_iter = None
        try:
            started = time.perf_counter()
            # Interruptible: a cancelled execution (LIMIT early-exit, hedged
            # loser, expired deadline) wakes from the simulated service wait
            # immediately instead of sleeping through it.
            interruptible_sleep(self._store.simulated_latency)
            batches_iter, self._base_metrics = self._store._execute_batches(
                self._request, self._columns, self._batch_size
            )
            self._elapsed += time.perf_counter() - started
            while True:
                pulled = time.perf_counter()
                batch = next(batches_iter, None)
                self._elapsed += time.perf_counter() - pulled
                if batch is None:
                    break
                self._returned += len(batch)
                yield batch
        finally:
            # Runs on exhaustion *and* when the consumer abandons the stream
            # early (e.g. under a LIMIT): whatever was actually pulled is what
            # the request served.  Close the store's generator *before*
            # snapshotting the metrics: router stores fill in their partition
            # accounting (and fold in-flight child metrics) in their own
            # finally blocks, which must run even on early abandonment.
            if batches_iter is not None:
                close = getattr(batches_iter, "close", None)
                if close is not None:
                    close()
            self._finalize()


class Store:
    """Abstract base class of every simulated DMS.

    Subclasses implement one request evaluator, :meth:`_execute_batches`,
    covering every request kind they support, name the columns of their
    collections in :meth:`_collection_columns`, and declare their profile
    via :meth:`capabilities`.  :meth:`execute_batches` wraps the evaluator in
    a :class:`StoreBatchStream` (timing and cumulative per-store counters
    used by the demo's performance reporting); :meth:`execute` collects that
    stream into whole-row dictionaries.

    Stores are **thread-safe for request execution**: requests carry their own
    per-request metrics, cumulative counters are folded in under a lock, and
    the simulators keep no mutable scan state shared between requests — the
    scatter-gather runtime issues requests to one store from several Exchange
    workers concurrently.  ``latency`` is a simulated per-request service
    latency (seconds): the real systems the simulators stand in for answer no
    request instantly, and without it the concurrency benchmarks would
    measure nothing but Python overhead.
    """

    def __init__(self, name: str, latency: float = 0.0) -> None:
        self.name = name
        self._total_metrics = StoreMetrics()
        self._requests_served = 0
        self._latency = max(0.0, latency)
        self._metrics_lock = threading.Lock()
        self._durable = None
        self._durable_quiet = 0

    @property
    def simulated_latency(self) -> float:
        """The simulated per-request latency in seconds (0 by default)."""
        return self._latency

    def set_simulated_latency(self, seconds: float) -> None:
        """Change the simulated per-request latency (benchmarks use this)."""
        self._latency = max(0.0, float(seconds))

    # -- interface to implement ------------------------------------------------
    def capabilities(self) -> StoreCapabilities:
        """The store's capability profile."""
        raise NotImplementedError

    def collections(self) -> Sequence[str]:
        """Names of the collections/tables currently stored."""
        raise NotImplementedError

    def collection_size(self, collection: str) -> int:
        """Number of rows/documents/entries in ``collection``."""
        raise NotImplementedError

    def column_statistics(self, collection: str, column: str) -> Mapping[str, object]:
        """Basic per-column statistics (count, distinct) for the cost model."""
        raise NotImplementedError

    def _collection_columns(self, collection: str) -> tuple[str, ...]:
        """Every column the rows of ``collection`` can carry, in a stable order."""
        raise NotImplementedError

    def _execute_batches(
        self, request: StoreRequest, columns: Sequence[str], batch_size: int
    ):
        """Evaluate ``request``: the store's one request path.

        Returns an iterator of :class:`~repro.runtime.batch.RowBatch` objects
        (schema = ``columns``, built straight from the store's internal
        representation) plus the request's base metrics (``rows_returned``
        and ``elapsed_seconds`` are filled in by the :class:`StoreBatchStream`
        wrapper as batches are pulled).  The metrics object may keep being
        filled in while the iterator runs (router stores only know their
        per-partition accounting at the end); the wrapper reads it after
        exhaustion.  Request kinds the store cannot evaluate raise
        :class:`~repro.errors.UnsupportedOperationError` (or the store's
        access-pattern error) before any row is produced.
        """
        raise NotImplementedError

    # -- write path --------------------------------------------------------------
    def apply_delta(
        self,
        collection: str,
        inserts: Sequence[Mapping[str, object]] = (),
        deletes: Sequence[Mapping[str, object]] = (),
    ) -> int:
        """Apply a bag delta to ``collection``: remove ``deletes``, add ``inserts``.

        Deletions are strict one-for-one bag matches — a delete row that
        matches nothing raises :class:`~repro.errors.DeltaError`, because a
        missing match means the maintained copy has diverged from what the
        delta was computed against.  Deletes are applied before inserts so an
        update (delete+insert of rows sharing a key) never trips a uniqueness
        check.  Returns the number of rows touched.  Stores without a write
        path reject the operation.
        """
        raise self._reject("delta writes")

    def truncate_collection(self, collection: str) -> None:
        """Drop every row of ``collection``, keeping its schema and indexes.

        Migration rollback calls it to empty a half-built target collection.
        Fragment maintenance never truncates: its recompute fallback applies
        one diff through :meth:`apply_delta`.
        """
        raise self._reject("truncation")

    # -- durable backing ----------------------------------------------------------
    def attach_durable(self, backing) -> None:
        """Attach a WAL+segment :class:`~repro.stores.segment.DurableBacking`.

        Attaching recovers any state persisted in the backing's directory
        into this store (via :meth:`_durable_replay`); if the directory is
        empty but the store already holds data, the contents are snapshotted
        so durability starts complete.  From then on the store's write
        operations append WAL records through :meth:`_durable_log`.  Only
        stores that implement the replay/dump hooks actually persist
        anything; attaching to any other store is a harmless no-op backing.
        """
        if self._durable is not None:
            raise StoreError(f"store {self.name!r} already has a durable backing")
        backing.attach(self)
        self._durable = backing

    def durable_backing(self):
        """The attached durable backing, or None."""
        return self._durable

    def compact_durable(self) -> Mapping[str, object] | None:
        """Merge the WAL tail + segments into a fresh segment generation.

        Returns the backing's compaction report, or None when the store has
        no durable backing (or no durable dump to compact).
        """
        backing = self._durable
        if backing is None:
            return None
        return backing.compact()

    def segment_scan_fraction(self, collection: str, bounds) -> float | None:
        """Expected fraction of ``collection`` a scan touches after pruning.

        The cost model calls this with the query's literal bounds
        (:class:`~repro.runtime.kernels.ZoneBound`) to price delegated scans
        by segments-after-pruning; None means no zone-map statistics exist.
        """
        backing = self._durable
        if backing is None:
            return None
        return backing.scan_fraction(collection, bounds)

    # Subclass protocol: a store that opts into durability calls
    # ``_durable_log`` after each successful write, implements
    # ``_durable_replay`` to re-apply a logged record during recovery, and
    # ``_durable_dump`` to snapshot its full state for compaction.
    def _durable_log(self, record: Mapping[str, object]) -> None:
        backing = self._durable
        if backing is not None and not self._durable_quiet:
            backing.log(record)

    def _durable_silence(self):
        """Context manager suppressing :meth:`_durable_log` (replay, nesting)."""
        return _DurableSilence(self)

    def _durable_replay(self, record: Mapping[str, object]) -> None:
        """Re-apply one recovered WAL/manifest record (default: not durable)."""

    def _durable_dump(self) -> Mapping[str, Mapping[str, object]] | None:
        """Full-state snapshot for compaction, or None when not durable.

        The shape is ``{collection: {"columns": ..., "meta": ..., "rows":
        [native row dicts]}}``; ``columns`` is the declared schema (None for
        ragged collections) and ``meta`` whatever ``_durable_replay`` needs
        to rebuild schema-level state (keys, indexes).
        """
        return None

    def _durable_scan_source(self, request: StoreRequest):
        """The backing able to serve this scan from segments, or None."""
        backing = self._durable
        if backing is None or not isinstance(request, ScanRequest):
            return None
        if not backing.has_segments(request.collection):
            return None
        return backing

    # -- public API -------------------------------------------------------------
    def execute(self, request: StoreRequest) -> StoreResult:
        """Execute a request and collect its rows as dictionaries.

        The whole-row convenience over :meth:`execute_batches`: the rows
        carry the request's projection, or else every column of the
        collection(s) it reads (:meth:`row_columns`), with None where a
        ragged row lacks one.
        """
        try:
            columns = self.row_columns(request)
        except StoreError:
            # A request the store cannot evaluate: let the evaluator raise
            # its own error (an unsupported kind outranks a missing name).
            columns = ()
        stream = self.execute_batches(request, columns)
        rows = [dict(zip(columns, row)) for batch in stream for row in batch.rows]
        return StoreResult(rows=rows, metrics=stream.metrics)

    def row_columns(self, request: StoreRequest) -> tuple[str, ...]:
        """The columns of ``request``'s whole rows.

        The projection when the request has one; a join's left columns then
        the right columns the left lacks (the left side wins a shared name);
        a search adds the ``_score`` column.
        """
        projection = getattr(request, "projection", None)
        if projection is not None:
            return tuple(projection)
        if isinstance(request, JoinRequest):
            left = self.row_columns(request.left)
            return left + tuple(
                column for column in self.row_columns(request.right) if column not in left
            )
        columns = self._collection_columns(request.collection)
        if isinstance(request, SearchRequest):
            return columns + ("_score",)
        return columns

    def execute_batches(
        self,
        request: StoreRequest,
        columns: Sequence[str],
        batch_size: int = DEFAULT_STREAM_BATCH_SIZE,
    ) -> StoreBatchStream:
        """Execute a request as a native :class:`~repro.runtime.batch.RowBatch` stream.

        ``columns`` fixes the schema of every yielded batch (columns the rows
        lack are filled with ``None``).  This is every store request's path:
        the store builds row tuples directly, so results stream to the
        operators without a per-row dict round-trip.  The stream's metrics
        (and the store's cumulative counters) are finalized when the stream
        is exhausted or closed.
        """
        return StoreBatchStream(self, request, columns, batch_size)

    def _note_request(self, metrics: StoreMetrics) -> None:
        """Fold one served request into the cumulative counters (thread-safe)."""
        with self._metrics_lock:
            self._total_metrics.absorb(metrics)
            self._requests_served += 1

    def reset_metrics(self) -> None:
        """Zero the cumulative counters (used between benchmark runs)."""
        with self._metrics_lock:
            self._total_metrics = StoreMetrics()
            self._requests_served = 0

    @property
    def total_metrics(self) -> StoreMetrics:
        """Cumulative metrics across all requests served (a snapshot)."""
        snapshot = StoreMetrics()
        with self._metrics_lock:
            snapshot.absorb(self._total_metrics)
        return snapshot

    @property
    def requests_served(self) -> int:
        """Number of requests served since the last reset."""
        return self._requests_served

    # -- helpers for subclasses ----------------------------------------------------
    def _reject(self, operation: str) -> UnsupportedOperationError:
        return UnsupportedOperationError(
            f"store {self.name!r} ({self.capabilities().data_model}) does not support {operation}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} {self.name!r}>"
