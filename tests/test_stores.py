"""Tests for the simulated store substrates (relational, document, KV, full-text, parallel)."""

import pytest

from repro.errors import (
    AccessPatternViolation,
    KeyNotFoundError,
    SchemaError,
    StoreError,
    UnsupportedOperationError,
)
from repro.stores import (
    DocumentStore,
    FullTextStore,
    JoinRequest,
    KeyValueStore,
    LookupRequest,
    ParallelStore,
    Predicate,
    RelationalStore,
    ScanRequest,
    SearchRequest,
)
from repro.stores.document.store import flatten_document, get_path


@pytest.fixture
def relational():
    store = RelationalStore("pg")
    store.create_table("users", ["uid", "name", "city"], primary_key=["uid"])
    store.insert(
        "users",
        [
            {"uid": 1, "name": "ana", "city": "paris"},
            {"uid": 2, "name": "bob", "city": "lyon"},
            {"uid": 3, "name": "cleo", "city": "paris"},
        ],
    )
    store.create_table("orders", ["order_id", "uid", "total"], primary_key=["order_id"])
    store.insert(
        "orders",
        [
            {"order_id": 10, "uid": 1, "total": 99.0},
            {"order_id": 11, "uid": 1, "total": 15.0},
            {"order_id": 12, "uid": 3, "total": 42.0},
        ],
    )
    return store


class TestRelationalStore:
    def test_capabilities(self, relational):
        caps = relational.capabilities()
        assert caps.supports_join and caps.supports_selection and not caps.requires_key_lookup

    def test_full_scan(self, relational):
        result = relational.execute(ScanRequest("users"))
        assert len(result.rows) == 3
        assert result.metrics.rows_scanned == 3

    def test_scan_with_predicate(self, relational):
        result = relational.execute(ScanRequest("users", (Predicate("city", "=", "paris"),)))
        assert {row["uid"] for row in result.rows} == {1, 3}

    def test_scan_with_comparison_predicate(self, relational):
        result = relational.execute(ScanRequest("orders", (Predicate("total", ">", 20),)))
        assert {row["order_id"] for row in result.rows} == {10, 12}

    def test_index_used_for_equality(self, relational):
        relational.create_index("users", "city")
        result = relational.execute(ScanRequest("users", (Predicate("city", "=", "paris"),)))
        assert result.metrics.index_lookups == 1
        assert result.metrics.rows_scanned == 2

    def test_projection(self, relational):
        result = relational.execute(ScanRequest("users", projection=("name",)))
        assert all(set(row) == {"name"} for row in result.rows)

    def test_limit(self, relational):
        result = relational.execute(ScanRequest("users", limit=2))
        assert len(result.rows) == 2

    def test_primary_key_lookup(self, relational):
        result = relational.execute(LookupRequest("users", keys=(2,)))
        assert result.rows[0]["name"] == "bob"

    def test_lookup_missing_key_returns_empty(self, relational):
        assert relational.execute(LookupRequest("users", keys=(99,))).rows == []

    def test_delegated_join(self, relational):
        request = JoinRequest(
            left=ScanRequest("users", (Predicate("city", "=", "paris"),)),
            right=ScanRequest("orders"),
            on=(("uid", "uid"),),
        )
        result = relational.execute(request)
        assert {row["order_id"] for row in result.rows} == {10, 11, 12}

    def test_join_requires_on_columns(self, relational):
        with pytest.raises(StoreError):
            relational.execute(JoinRequest(ScanRequest("users"), ScanRequest("orders"), on=()))

    def test_duplicate_primary_key_rejected(self, relational):
        with pytest.raises(StoreError):
            relational.insert("users", [{"uid": 1, "name": "dup", "city": "x"}])

    def test_unknown_table(self, relational):
        with pytest.raises(StoreError):
            relational.execute(ScanRequest("nope"))

    def test_row_schema_checked(self, relational):
        with pytest.raises(SchemaError):
            relational.insert("users", [{"uid": 4, "bogus": 1, "name": "x", "city": "y"}])

    def test_search_not_supported(self, relational):
        with pytest.raises(UnsupportedOperationError):
            relational.execute(SearchRequest("users", "ana"))

    def test_statistics(self, relational):
        stats = relational.column_statistics("users", "city")
        assert stats["count"] == 3 and stats["distinct"] == 2

    def test_cumulative_metrics(self, relational):
        relational.reset_metrics()
        relational.execute(ScanRequest("users"))
        relational.execute(ScanRequest("orders"))
        assert relational.requests_served == 2
        assert relational.total_metrics.rows_scanned == 6


@pytest.fixture
def documents():
    store = DocumentStore("mongo")
    store.insert(
        "carts",
        [
            {"_id": 1, "user": {"uid": 10, "city": "paris"}, "items": [{"sku": 5}]},
            {"_id": 2, "user": {"uid": 11, "city": "lyon"}, "items": []},
            {"_id": 3, "user": {"uid": 10, "city": "paris"}, "items": [{"sku": 7}, {"sku": 8}]},
        ],
    )
    return store


class TestDocumentStore:
    def test_get_path(self):
        doc = {"a": {"b": [{"c": 1}, {"c": 2}]}}
        assert get_path(doc, "a.b.1.c") == 2
        assert get_path(doc, "a.missing") is None

    def test_flatten(self):
        assert flatten_document({"a": {"b": 1}, "c": 2}) == {"a.b": 1, "c": 2}

    def test_path_predicate_scan(self, documents):
        result = documents.execute(ScanRequest("carts", (Predicate("user.uid", "=", 10),)))
        assert {row["_id"] for row in result.rows} == {1, 3}

    def test_projection_of_paths(self, documents):
        result = documents.execute(
            ScanRequest("carts", (Predicate("_id", "=", 2),), projection=("user.city",))
        )
        assert result.rows == [{"user.city": "lyon"}]

    def test_index_usage(self, documents):
        documents.create_index("carts", "user.uid")
        result = documents.execute(ScanRequest("carts", (Predicate("user.uid", "=", 10),)))
        assert result.metrics.index_lookups == 1
        assert result.metrics.rows_scanned == 2

    def test_index_maintained_on_insert(self, documents):
        documents.create_index("carts", "user.uid")
        documents.insert("carts", [{"_id": 4, "user": {"uid": 10}}])
        result = documents.execute(ScanRequest("carts", (Predicate("user.uid", "=", 10),)))
        assert len(result.rows) == 3

    def test_lookup_by_id(self, documents):
        result = documents.execute(LookupRequest("carts", keys=(2,)))
        assert result.rows[0]["_id"] == 2

    def test_joins_rejected(self, documents):
        request = JoinRequest(ScanRequest("carts"), ScanRequest("carts"), on=(("_id", "_id"),))
        with pytest.raises(UnsupportedOperationError):
            documents.execute(request)

    def test_unknown_collection(self, documents):
        with pytest.raises(StoreError):
            documents.execute(ScanRequest("nope"))

    def test_non_mapping_rejected(self, documents):
        with pytest.raises(SchemaError):
            documents.insert("carts", ["not a document"])

    def test_drop_collection(self, documents):
        documents.drop_collection("carts")
        assert "carts" not in documents.collections()


@pytest.fixture
def keyvalue():
    store = KeyValueStore("redis")
    store.put_many("prefs", {1: {"category": "books"}, 2: {"category": "toys"}})
    store.put("session", "abc", "token-1")
    return store


class TestKeyValueStore:
    def test_get_put(self, keyvalue):
        assert keyvalue.get("session", "abc") == "token-1"
        keyvalue.put("session", "xyz", "token-2")
        assert keyvalue.get("session", "xyz") == "token-2"

    def test_get_missing(self, keyvalue):
        assert keyvalue.get("session", "nope") is None
        with pytest.raises(KeyNotFoundError):
            keyvalue.get("session", "nope", missing_ok=False)

    def test_mget(self, keyvalue):
        assert keyvalue.mget("prefs", [1, 99, 2]) == [{"category": "books"}, None, {"category": "toys"}]

    def test_delete(self, keyvalue):
        assert keyvalue.delete("session", "abc")
        assert not keyvalue.delete("session", "abc")

    def test_lookup_request(self, keyvalue):
        result = keyvalue.execute(LookupRequest("prefs", keys=(1,)))
        assert result.rows == [{"category": "books", "key": 1}]

    def test_scan_without_key_rejected(self, keyvalue):
        with pytest.raises(AccessPatternViolation):
            keyvalue.execute(ScanRequest("prefs"))

    def test_scan_with_key_predicate_is_lookup(self, keyvalue):
        result = keyvalue.execute(ScanRequest("prefs", (Predicate("key", "=", 2),)))
        assert result.rows[0]["category"] == "toys"

    def test_key_predicates_are_a_conjunction(self, keyvalue):
        both = (Predicate("key", "=", 1), Predicate("key", "=", 2))
        assert keyvalue.execute(ScanRequest("prefs", both)).rows == []
        narrowed = (Predicate("key", "=", 2), Predicate("key", ">", 1))
        assert len(keyvalue.execute(ScanRequest("prefs", narrowed)).rows) == 1
        twice = (Predicate("key", "=", 2), Predicate("key", "=", 2))
        assert len(keyvalue.execute(ScanRequest("prefs", twice)).rows) == 1

    def test_scans_allowed_when_configured(self):
        store = KeyValueStore("debug", allow_scans=True)
        store.put_many("c", {1: "a", 2: "b"})
        assert len(store.execute(ScanRequest("c")).rows) == 2

    def test_capabilities_reflect_restriction(self, keyvalue):
        assert keyvalue.capabilities().requires_key_lookup
        assert not KeyValueStore("x", allow_scans=True).capabilities().requires_key_lookup

    def test_joins_rejected(self, keyvalue):
        with pytest.raises(UnsupportedOperationError):
            keyvalue.execute(JoinRequest(ScanRequest("prefs"), ScanRequest("prefs"), on=(("key", "key"),)))

    def test_unknown_collection(self, keyvalue):
        with pytest.raises(StoreError):
            keyvalue.get("missing", 1)

    def test_key_statistics(self, keyvalue):
        stats = keyvalue.column_statistics("prefs", "key")
        assert stats["indexed"] and stats["count"] == 2


@pytest.fixture
def fulltext():
    store = FullTextStore("solr")
    store.create_collection("catalog", indexed_fields=("title", "description"))
    store.insert(
        "catalog",
        [
            {"sku": 1, "title": "red running shoes", "description": "lightweight running shoes"},
            {"sku": 2, "title": "blue coffee mug", "description": "ceramic mug for coffee"},
            {"sku": 3, "title": "trail running jacket", "description": "waterproof jacket"},
        ],
    )
    return store


class TestFullTextStore:
    def test_search_ranks_relevant_first(self, fulltext):
        result = fulltext.execute(SearchRequest("catalog", "running shoes"))
        assert result.rows[0]["sku"] == 1
        assert {row["sku"] for row in result.rows} >= {1, 3}

    def test_search_no_hits(self, fulltext):
        assert fulltext.execute(SearchRequest("catalog", "zzzunknown")).rows == []

    def test_search_limit(self, fulltext):
        result = fulltext.execute(SearchRequest("catalog", "running", limit=1))
        assert len(result.rows) == 1

    def test_scores_attached(self, fulltext):
        result = fulltext.execute(SearchRequest("catalog", "coffee"))
        assert result.rows[0]["_score"] > 0

    def test_scan_on_stored_fields(self, fulltext):
        result = fulltext.execute(ScanRequest("catalog", (Predicate("sku", "=", 2),)))
        assert result.rows[0]["title"] == "blue coffee mug"

    def test_joins_and_lookups_rejected(self, fulltext):
        with pytest.raises(UnsupportedOperationError):
            fulltext.execute(LookupRequest("catalog", keys=(1,)))

    def test_duplicate_collection_rejected(self, fulltext):
        with pytest.raises(StoreError):
            fulltext.create_collection("catalog")

    def test_analyzer_stems_and_drops_stopwords(self, fulltext):
        from repro.stores.fulltext import Analyzer

        analyzer = Analyzer()
        tokens = analyzer.tokenize("The running shoes are for runners")
        assert "run" in tokens or "runn" in tokens
        assert "the" not in tokens and "are" not in tokens


@pytest.fixture
def parallel():
    store = ParallelStore("spark", default_partitions=4)
    store.create_dataset("visits", partition_column="uid")
    store.insert(
        "visits",
        [{"uid": i % 5, "sku": 100 + i, "duration": i * 10} for i in range(40)],
    )
    return store


class TestParallelStore:
    def test_scan_all_partitions(self, parallel):
        result = parallel.execute(ScanRequest("visits"))
        assert len(result.rows) == 40
        assert result.metrics.partitions_used >= 1

    def test_selection(self, parallel):
        result = parallel.execute(ScanRequest("visits", (Predicate("uid", "=", 2),)))
        assert all(row["uid"] == 2 for row in result.rows)
        assert len(result.rows) == 8

    def test_partition_pruning_on_lookup(self, parallel):
        result = parallel.execute(LookupRequest("visits", keys=(3,)))
        assert all(row["uid"] == 3 for row in result.rows)
        assert result.metrics.partitions_used == 1

    def test_index_accelerates_scan(self, parallel):
        parallel.create_index("visits", "uid")
        result = parallel.execute(ScanRequest("visits", (Predicate("uid", "=", 1),)))
        assert result.metrics.index_lookups >= 1
        assert len(result.rows) == 8

    def test_delegated_join(self, parallel):
        parallel.create_dataset("users", partition_column="uid")
        parallel.insert("users", [{"uid": i, "name": f"u{i}"} for i in range(5)])
        request = JoinRequest(
            left=ScanRequest("visits", (Predicate("uid", "=", 1),)),
            right=ScanRequest("users"),
            on=(("uid", "uid"),),
        )
        result = parallel.execute(request)
        assert len(result.rows) == 8
        assert all(row["name"] == "u1" for row in result.rows)

    def test_aggregate(self, parallel):
        rows = parallel.aggregate("visits", ["uid"], {"visits": ("count", "sku"), "total": ("sum", "duration")})
        assert len(rows) == 5
        assert all(row["visits"] == 8 for row in rows)

    def test_map_partitions(self, parallel):
        counts = parallel.map_partitions("visits", lambda part: [{"n": len(part)}])
        assert sum(row["n"] for row in counts) == 40

    def test_duplicate_dataset_rejected(self, parallel):
        with pytest.raises(StoreError):
            parallel.create_dataset("visits")

    def test_statistics_include_partitions(self, parallel):
        stats = parallel.column_statistics("visits", "uid")
        assert stats["partitions"] == 4
        assert stats["distinct"] == 5

    def test_zero_partitions_rejected(self):
        with pytest.raises(StoreError):
            ParallelStore("bad", default_partitions=0)


class TestPredicates:
    def test_unknown_operator_rejected(self):
        with pytest.raises(StoreError):
            Predicate("c", "~", 1)

    @pytest.mark.parametrize(
        "op,value,expected",
        [("=", 5, True), ("!=", 5, False), ("<", 10, True), (">=", 5, True), (">", 5, False)],
    )
    def test_comparisons(self, op, value, expected):
        assert Predicate("c", op, value).evaluate({"c": 5}) is expected

    def test_missing_column_compares_as_none(self):
        assert not Predicate("c", "=", 5).evaluate({})
        assert not Predicate("c", "<", 5).evaluate({})


# -- one request path: every store against every request kind ----------------------

WORDS = (
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
    "golf", "hotel", "india", "juliet", "kilo", "lima",
)
T_ROWS = [{"id": i, "grp": i % 3, "name": word} for i, word in enumerate(WORDS)]
G_ROWS = [{"grp": g, "label": f"g{g}"} for g in range(3)]
PARTITIONS = 4


def _relational(name="pg"):
    store = RelationalStore(name)
    store.create_table("t", ("id", "grp", "name"), primary_key=("id",))
    store.insert("t", T_ROWS)
    store.create_index("t", "grp")
    store.create_table("g", ("grp", "label"), primary_key=("grp",))
    store.insert("g", G_ROWS)
    return store


def _document():
    store = DocumentStore("mongo")
    store.insert("t", [{"_id": row["id"], **row} for row in T_ROWS])
    store.create_index("t", "grp")
    store.create_index("t", "_id")
    return store


def _keyvalue():
    store = KeyValueStore("redis")
    store.put_many("t", {row["id"]: dict(row) for row in T_ROWS})
    return store


def _fulltext(name="solr"):
    store = FullTextStore(name)
    store.create_collection("t", indexed_fields=("name",))
    store.insert("t", T_ROWS)
    return store


def _parallel():
    store = ParallelStore("spark", default_partitions=PARTITIONS)
    store.create_dataset("t", partition_column="id")
    store.insert("t", T_ROWS)
    store.create_index("t", "grp")
    store.create_index("t", "id")
    store.create_dataset("g", partition_column="grp")
    store.insert("g", G_ROWS)
    return store


def _sharded(child=RelationalStore):
    from repro.stores import ShardedStore, ShardingSpec

    store = ShardedStore.homogeneous(f"sharded-{child.__name__}", 2, child)
    store.set_sharding("t", ShardingSpec("id", 2))
    for shard in store.shard_stores():
        if child is RelationalStore:
            shard.create_table("t", ("id", "grp", "name"), primary_key=("id",))
        else:
            shard.create_collection("t", indexed_fields=("name",))
    store.insert("t", T_ROWS)
    store.create_index("t", "grp")
    store.create_index("t", "id")
    return store


def _replicated():
    from repro.stores import ReplicatedStore

    return ReplicatedStore("replicated", [_relational("pg.0"), _relational("pg.1")])


CONFORMANCE_STORES = {
    "relational": _relational,
    "document": _document,
    "keyvalue": _keyvalue,
    "fulltext": _fulltext,
    "parallel": _parallel,
    "sharded": _sharded,
    "sharded_fulltext": lambda: _sharded(FullTextStore),
    "replicated": _replicated,
}

REQUESTS = {
    "scan": ScanRequest("t", (Predicate("name", "=", "echo"),)),
    "indexed_scan": ScanRequest("t", (Predicate("grp", "=", 1),)),
    "key_scan": ScanRequest("t", (Predicate("key", "=", 4),)),
    "limit": ScanRequest("t", limit=5),
    "lookup": LookupRequest("t", keys=(3, 99)),
    "join": JoinRequest(
        ScanRequest("t", (Predicate("grp", "=", 1),)), ScanRequest("g"), on=(("grp", "grp"),)
    ),
    "search": SearchRequest("t", "echo"),
}

ECHO, GROUP_ONE, THREE = {4}, {1, 4, 7, 10}, {3}
UNSUPPORTED, BLOCKED = UnsupportedOperationError, AccessPatternViolation


def _used_partitions(ids, partitions=PARTITIONS):
    from repro.stores import stable_hash

    return len({stable_hash(i) % partitions for i in ids})


def _sharded_limit_scanned(store, limit=5):
    """Rows scanned before the router's stream reaches ``limit`` (shards in order)."""
    scanned = 0
    for size in store.shard_sizes("t"):
        scanned += size
        if scanned >= limit:
            break
    return scanned


def _sharded_fulltext_lookup_scanned(store):
    """Each key is an equality scan of its own shard (full-text has no index)."""
    spec, sizes = store.sharding("t"), store.shard_sizes("t")
    return sizes[spec.route(3)] + sizes[spec.route(99)]


# kind -> store -> (ids, rows_scanned, index_lookups), or the typed error.
# A callable expectation is computed from the built store.  ``limit`` rows
# are any 5 of the collection.
EXPECTED = {
    "scan": {
        "relational": (ECHO, 12, 0), "document": (ECHO, 12, 0), "keyvalue": BLOCKED,
        "fulltext": (ECHO, 12, 0), "parallel": (ECHO, 12, 0), "sharded": (ECHO, 12, 0),
        "sharded_fulltext": (ECHO, 12, 0), "replicated": (ECHO, 12, 0),
    },
    "indexed_scan": {
        "relational": (GROUP_ONE, 4, 1), "document": (GROUP_ONE, 4, 1),
        "keyvalue": BLOCKED, "fulltext": (GROUP_ONE, 12, 0),
        "parallel": lambda store: (GROUP_ONE, 4, _used_partitions(range(12))),
        "sharded": (GROUP_ONE, 4, 2), "sharded_fulltext": (GROUP_ONE, 12, 0),
        "replicated": (GROUP_ONE, 4, 1),
    },
    "key_scan": {"keyvalue": ({4}, 0, 1)},
    "limit": {
        "relational": (None, 12, 0), "document": (None, 12, 0), "keyvalue": BLOCKED,
        "fulltext": (None, 12, 0), "parallel": (None, 12, 0),
        "sharded": lambda store: (None, _sharded_limit_scanned(store), 0),
        "sharded_fulltext": lambda store: (None, _sharded_limit_scanned(store), 0),
        "replicated": (None, 12, 0),
    },
    "lookup": {
        "relational": (THREE, 0, 2), "document": (THREE, 0, 2), "keyvalue": (THREE, 0, 2),
        "fulltext": UNSUPPORTED, "parallel": (THREE, 0, 2), "sharded": (THREE, 1, 2),
        "sharded_fulltext": lambda store: (THREE, _sharded_fulltext_lookup_scanned(store), 0),
        "replicated": (THREE, 0, 2),
    },
    "join": {
        "relational": (GROUP_ONE, 14, 1), "document": UNSUPPORTED, "keyvalue": UNSUPPORTED,
        "fulltext": UNSUPPORTED,
        "parallel": lambda store: (GROUP_ONE, 14, _used_partitions(range(12))),
        "sharded": UNSUPPORTED, "sharded_fulltext": UNSUPPORTED, "replicated": (GROUP_ONE, 14, 1),
    },
    "search": {
        "relational": UNSUPPORTED, "document": UNSUPPORTED, "keyvalue": UNSUPPORTED,
        "fulltext": (ECHO, 1, 1), "parallel": UNSUPPORTED, "sharded": UNSUPPORTED,
        "sharded_fulltext": (ECHO, 1, 1), "replicated": UNSUPPORTED,
    },
}

CONFORMANCE_CASES = [
    pytest.param(store, kind, wrapped, id=f"{store}-{kind}{'-faultinjector' if wrapped else ''}")
    for kind, by_store in EXPECTED.items()
    for store in by_store
    for wrapped in (False, True)
]


class TestStoreConformance:
    """``execute`` and ``execute_batches`` agree with a plain model of each request."""

    @pytest.mark.parametrize("store_name, kind, wrapped", CONFORMANCE_CASES)
    def test_request_kind(self, store_name, kind, wrapped):
        from repro.testing import FaultInjector

        store = CONFORMANCE_STORES[store_name]()
        if wrapped:
            store = FaultInjector(store)
        request = REQUESTS[kind]
        expected = EXPECTED[kind][store_name]
        if isinstance(expected, type):
            with pytest.raises(expected):
                store.execute(request)
            with pytest.raises(expected):
                list(store.execute_batches(request, ("grp",)))
            return
        if callable(expected):
            expected = expected(store)
        ids, scanned, lookups = expected
        id_column = "key" if store_name == "keyvalue" else "id"
        columns = (id_column, "name", "label") if kind == "join" else (id_column, "grp", "name")

        result = store.execute(request)
        stream = store.execute_batches(request, columns, batch_size=4)
        batches = list(stream)
        assert all(batch.columns == columns for batch in batches)
        assert all(len(batch) <= 4 for batch in batches)
        batch_rows = [row for batch in batches for row in batch.rows]
        whole_rows = [tuple(row[c] for c in columns) for row in result.rows]
        assert sorted(batch_rows) == sorted(whole_rows)
        assert all(tuple(row) == store.row_columns(request) for row in result.rows)
        for metrics in (result.metrics, stream.metrics):
            assert metrics.rows_returned == len(batch_rows)
            assert (metrics.rows_scanned, metrics.index_lookups) == (scanned, lookups)

        by_id = {row["id"]: row for row in T_ROWS}
        if ids is None:
            assert len(batch_rows) == request.limit
            assert {row[0] for row in batch_rows} <= set(by_id)
            ids = {row[0] for row in batch_rows}
        assert sorted(row[0] for row in batch_rows) == sorted(ids)
        for row in batch_rows:
            source = by_id[row[0]]
            if kind == "join":
                assert row == (source["id"], source["name"], f"g{source['grp']}")
            else:
                assert row == (source["id"], source["grp"], source["name"])

    def test_whole_rows_carry_every_collection_column(self):
        store = _relational()
        assert store.execute(ScanRequest("t", limit=1)).rows[0].keys() == {"id", "grp", "name"}
        joined = store.execute(REQUESTS["join"]).rows[0]
        assert list(joined) == ["id", "grp", "name", "label"]
        hit = _fulltext().execute(REQUESTS["search"]).rows[0]
        assert hit["name"] == "echo" and hit["_score"] > 0

    def test_join_left_side_wins_a_shared_column(self):
        store = _relational()
        store.create_table("h", ("grp", "name"))
        store.insert("h", [{"grp": row["grp"], "name": row["label"]} for row in G_ROWS])
        request = JoinRequest(
            ScanRequest("t", (Predicate("id", "=", 4),)), ScanRequest("h"), on=(("grp", "grp"),)
        )
        assert store.execute(request).rows == [{"id": 4, "grp": 1, "name": "echo"}]

    def test_replicated_metrics_count_the_replica_attempt(self):
        stream = _replicated().execute_batches(REQUESTS["lookup"], ("id",))
        assert [row for batch in stream for row in batch.rows] == [(3,)]
        assert stream.metrics.replica_attempts == 1

    @pytest.mark.parametrize("durable", [False, True])
    def test_dotted_columns_read_nested_paths(self, durable, tmp_path):
        """One rule, ``get_path``, for predicates, projections and batch columns."""
        from repro.stores.segment import DurableBacking

        store = DocumentStore("mongo")
        if durable:
            store.attach_durable(DurableBacking(str(tmp_path / "mongo"), segment_rows=2))
        store.insert(
            "carts",
            [
                {"_id": i, "user": {"uid": 10 + i, "city": city}}
                for i, city in enumerate(("paris", "lyon", "nice", "lyon", "paris"))
            ],
        )
        request = ScanRequest("carts", (Predicate("user.city", "=", "lyon"),))
        assert store.execute(
            ScanRequest("carts", request.predicates, projection=("user.city",))
        ).rows == [{"user.city": "lyon"}] * 2
        stream = store.execute_batches(request, ("_id", "user.uid", "user.city"))
        assert sorted(row for batch in stream for row in batch.rows) == [
            (1, 11, "lyon"),
            (3, 13, "lyon"),
        ]
        assert (stream.metrics.segments_scanned > 0) == durable
        whole = store.execute(ScanRequest("carts", limit=1)).rows[0]
        assert whole == {"_id": 0, "user": {"uid": 10, "city": "paris"}}
