"""The marketplace deployments the workloads run against.

``Marketplace`` is the seed-generated data flattened into base relations.
``deploy_shop`` builds the in-memory seven-fragment deployment (five stores)
the read workloads share; ``deploy_durable`` builds the writable, eagerly
maintained deployment of ``write_mix`` on a WAL + segment directory.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import Estocada
from repro.catalog import AccessMethod, StorageDescriptor, StorageLayout
from repro.core import Atom, ConjunctiveQuery, ViewDefinition
from repro.datamodel import TableSchema
from repro.stores import DocumentStore, FullTextStore, KeyValueStore, ParallelStore, RelationalStore
from repro.workloads import MarketplaceConfig, generate_marketplace

SIZES = dict(users=2000, products=1000, orders=20000, carts=1000, log_lines=40000)
USER_COLUMNS = ("uid", "name", "city", "payment", "preferred_category")
PURCHASE_COLUMNS = ("uid", "sku", "category", "quantity", "price")
VISIT_COLUMNS = ("uid", "sku", "category", "duration_ms")
CART_COLUMNS = ("cart_id", "uid", "sku", "quantity")

SHOP_TABLES = [
    TableSchema("users", USER_COLUMNS, primary_key=("uid",)),
    TableSchema("purchases", PURCHASE_COLUMNS),
    TableSchema("visits", VISIT_COLUMNS),
    TableSchema("carts", CART_COLUMNS),
    TableSchema("products", ("sku", "title", "description", "category", "price"), primary_key=("sku",)),
]


@dataclass
class Marketplace:
    """The generated marketplace as flat base-relation rows."""

    users: list[dict]
    purchases: list[dict]
    visits: list[dict]
    carts: list[dict]
    products: list[dict]


def generate(seed: int) -> Marketplace:
    data = generate_marketplace(MarketplaceConfig(seed=seed, **SIZES))
    users = [{k: u[k] for k in USER_COLUMNS} for u in data.users]
    visits = [{k: v[k] for k in VISIT_COLUMNS} for v in data.weblog]
    carts = [
        {"cart_id": cart["_id"], "uid": cart["uid"], "sku": item["sku"], "quantity": item["quantity"]}
        for cart in data.carts
        for item in cart["items"]
    ]
    return Marketplace(users, data.purchases(), visits, carts, data.products)


def _fragment(name, store, relation, columns, collection, access=None, body=None):
    """A fragment descriptor: by default a projection of one base relation."""
    variables = [f"?{column}" for column in columns]
    if body is None:
        table = next(t for t in SHOP_TABLES if t.name == relation)
        body = [Atom(relation, [f"?{c}" if c in columns else f"?_{c}" for c in table.columns])]
    definition = ConjunctiveQuery(name, variables, body)
    return StorageDescriptor(
        name, "shop", store,
        ViewDefinition(name, definition, column_names=tuple(columns)),
        StorageLayout(collection), access or AccessMethod("scan"),
    )


def _register_common(est: Estocada, m: Marketplace) -> None:
    """F_users (pg, uid index), F_prefs (redis by uid), F_purchases (pg)."""
    est.register_fragment(
        _fragment("F_users", "pg", "users", USER_COLUMNS, "users"),
        rows=m.users, indexes=("uid",),
    )
    est.register_fragment(
        _fragment("F_prefs", "redis", "users", ("uid", "preferred_category"), "prefs",
                  AccessMethod("lookup", key_columns=("uid",))),
        rows=[{"uid": u["uid"], "preferred_category": u["preferred_category"]} for u in m.users],
    )
    est.register_fragment(
        _fragment("F_purchases", "pg", "purchases", PURCHASE_COLUMNS, "purchases"),
        rows=m.purchases, indexes=("uid", "sku"),
    )


def deploy_shop(m: Marketplace) -> Estocada:
    """The read workloads' deployment: five stores, seven fragments."""
    est = Estocada()
    for name, store in (("pg", RelationalStore), ("redis", KeyValueStore), ("mongo", DocumentStore),
                        ("solr", FullTextStore), ("spark", ParallelStore)):
        est.register_store(name, store(name))
    est.register_relational_dataset("shop", SHOP_TABLES)
    _register_common(est, m)
    est.register_fragment(_fragment("F_carts", "mongo", "carts", CART_COLUMNS, "carts"),
                          rows=m.carts, indexes=("cart_id", "uid"))
    est.register_fragment(
        _fragment("F_carts_kv", "redis", "carts", CART_COLUMNS, "carts_kv",
                  AccessMethod("lookup", key_columns=("cart_id",))),
        rows=m.carts,
    )
    est.register_fragment(
        _fragment("F_visits", "spark", "visits", VISIT_COLUMNS, "visits"),
        rows=m.visits, indexes=("uid",),
    )
    est.register_fragment(
        _fragment("F_catalog", "solr", "products", ("sku", "title", "description", "category", "price"),
                  "catalog"),
        rows=m.products, indexes=("title", "description"),
    )
    return est


def deploy_durable(m: Marketplace, durable_path: str) -> Estocada:
    """``write_mix``'s deployment: users and purchases writable, four fragments eager.

    F_users, F_prefs, F_purchases and the users-purchases join fragment
    F_user_purchases are maintained on every write; each store write appends
    to its WAL with an fsync (the facade's default).
    """
    est = Estocada(durable_path=durable_path)
    est.register_store("pg", RelationalStore("pg"))
    est.register_store("redis", KeyValueStore("redis"))
    est.register_relational_dataset("shop", SHOP_TABLES)
    est.load_relation("users", m.users)
    est.load_relation("purchases", m.purchases)
    _register_common(est, m)
    names = {u["uid"]: u["name"] for u in m.users}
    est.register_fragment(
        _fragment(
            "F_user_purchases", "pg", None, ("uid", "name", "sku", "price"), "user_purchases",
            body=[Atom("users", ["?uid", "?name", "?_city", "?_payment", "?_pc"]),
                  Atom("purchases", ["?uid", "?sku", "?_category", "?_quantity", "?price"])],
        ),
        rows=[{"uid": p["uid"], "name": names[p["uid"]], "sku": p["sku"], "price": p["price"]}
              for p in m.purchases],
        indexes=("uid",),
    )
    return est


def recover_durable(durable_path: str) -> Estocada:
    """Open a fresh facade on ``durable_path`` and register its stores (recovery)."""
    est = Estocada(durable_path=durable_path)
    est.register_store("pg", RelationalStore("pg"))
    est.register_store("redis", KeyValueStore("redis"))
    return est
