"""Independent reference answers for every benchmark template.

Plain Python over the generated base rows: no rewriting, no plans, no
runtime operators.  ``Reference`` holds the marketplace's base relations as
bags and answers each template by a direct scan or dictionary lookup; the
write path replays every acknowledged write onto the same bags, so reads
after writes are checked against the written state.

An answer is a ``Counter`` of output tuples (a bag), in the template's
output column order.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

PURCHASE_COLUMNS = ("uid", "sku", "category", "quantity", "price")


def purchase_key(row: Mapping[str, object]) -> tuple:
    return tuple(row[column] for column in PURCHASE_COLUMNS)


class Reference:
    """Bag state of the base relations plus one answer method per template."""

    def __init__(
        self,
        users: Iterable[Mapping[str, object]],
        purchases: Iterable[Mapping[str, object]],
        visits: Iterable[Mapping[str, object]] = (),
        carts: Iterable[Mapping[str, object]] = (),
    ) -> None:
        self.users = {row["uid"]: dict(row) for row in users}
        self.purchases: Counter = Counter(purchase_key(row) for row in purchases)
        self.purchases_by_uid: dict[object, Counter] = {}
        for key, count in self.purchases.items():
            self.purchases_by_uid.setdefault(key[0], Counter())[key] += count
        self.visits = [dict(row) for row in visits]
        self.carts: dict[object, list[dict]] = {}
        for row in carts:
            self.carts.setdefault(row["cart_id"], []).append(dict(row))

    # -- writes --------------------------------------------------------------------
    def write(self, relation: str, inserts=(), deletes=()) -> None:
        """Replay one acknowledged write (deletes first, like the store)."""
        if relation == "purchases":
            for row in deletes:
                self._add_purchase(purchase_key(row), -1)
            for row in inserts:
                self._add_purchase(purchase_key(row), 1)
        elif relation == "users":
            for row in deletes:
                del self.users[row["uid"]]
            for row in inserts:
                self.users[row["uid"]] = dict(row)
        else:
            raise ValueError(f"reference has no writable relation {relation!r}")

    def _add_purchase(self, key: tuple, count: int) -> None:
        if self.purchases[key] + count < 0:
            raise ValueError(f"reference: delete of absent purchase {key!r}")
        for bag in (self.purchases, self.purchases_by_uid.setdefault(key[0], Counter())):
            bag[key] += count
            if bag[key] == 0:
                del bag[key]

    # -- key lookups ---------------------------------------------------------------
    def user_by_uid(self, uid) -> Counter:
        user = self.users.get(uid)
        return Counter([(user["name"], user["city"])] if user else [])

    def preferred_category(self, uid) -> Counter:
        user = self.users.get(uid)
        return Counter([(user["preferred_category"],)] if user else [])

    def cart_items(self, cart_id) -> Counter:
        return Counter((row["sku"], row["quantity"]) for row in self.carts.get(cart_id, ()))

    def purchases_of(self, uid) -> Counter:
        answer: Counter = Counter()
        for (_, sku, _, _, price), count in self.purchases_by_uid.get(uid, Counter()).items():
            answer[(sku, price)] += count
        return answer

    # -- scans, joins, aggregates ----------------------------------------------------
    def _purchases_where(self, predicate) -> Iterable[tuple[tuple, int]]:
        return ((key, count) for key, count in self.purchases.items() if predicate(key[4]))

    def skus_priced_over(self, low) -> Counter:
        answer: Counter = Counter()
        for key, count in self._purchases_where(lambda price: price > low):
            answer[(key[1],)] += count
        return answer

    def priced_over(self, low) -> Counter:
        answer: Counter = Counter()
        for key, count in self._purchases_where(lambda price: price > low):
            answer[(key[1], key[4])] += count
        return answer

    def priced_between(self, low, high) -> Counter:
        answer: Counter = Counter()
        for key, count in self._purchases_where(lambda price: low < price < high):
            answer[(key[0], key[1], key[4])] += count
        return answer

    def user_purchases_over(self, low) -> Counter:
        answer: Counter = Counter()
        for key, count in self._purchases_where(lambda price: price > low):
            user = self.users.get(key[0])
            if user is not None:
                answer[(user["name"], key[1], key[4])] += count
        return answer

    def category_counts(self, low=None) -> Counter:
        per_category: Counter = Counter()
        for key, count in self.purchases.items():
            if low is None or key[4] > low:
                per_category[key[2]] += count
        return Counter((category, n) for category, n in per_category.items())

    def distinct_categories_over(self, low) -> Counter:
        return Counter({(key[2],) for key, _ in self._purchases_where(lambda price: price > low)})

    def visitors_from(self, city) -> Counter:
        answer: Counter = Counter()
        for visit in self.visits:
            user = self.users.get(visit["uid"])
            if user is not None and user["city"] == city:
                answer[(user["name"], visit["sku"])] += 1
        return answer


def bag_of(rows: Iterable[Mapping[str, object]], columns: tuple[str, ...]) -> Counter:
    """The bag of output tuples of engine result rows (KeyError on a missing column)."""
    return Counter(tuple(row[column] for column in columns) for row in rows)


def self_check() -> list[str]:
    """Check every answer method on tiny hand-built data; returns the failures."""
    users = [
        {"uid": 1, "name": "ann", "city": "paris", "payment": "card", "preferred_category": "books"},
        {"uid": 2, "name": "bob", "city": "lyon", "payment": "card", "preferred_category": "toys"},
    ]
    purchases = [
        {"uid": 1, "sku": 10, "category": "books", "quantity": 1, "price": 5.0},
        {"uid": 1, "sku": 10, "category": "books", "quantity": 1, "price": 5.0},
        {"uid": 1, "sku": 11, "category": "toys", "quantity": 2, "price": 300.0},
        {"uid": 2, "sku": 12, "category": "toys", "quantity": 1, "price": 60.0},
        {"uid": 3, "sku": 13, "category": "garden", "quantity": 1, "price": 70.0},
    ]
    visits = [{"uid": 1, "sku": 10}, {"uid": 1, "sku": 12}, {"uid": 2, "sku": 10}, {"uid": 9, "sku": 1}]
    carts = [
        {"cart_id": 7, "uid": 1, "sku": 10, "quantity": 2},
        {"cart_id": 7, "uid": 1, "sku": 11, "quantity": 1},
    ]
    ref = Reference(users, purchases, visits, carts)
    checks = [
        ("user_by_uid", ref.user_by_uid(2), Counter([("bob", "lyon")])),
        ("user_by_uid missing", ref.user_by_uid(5), Counter()),
        ("preferred_category", ref.preferred_category(1), Counter([("books",)])),
        ("cart_items", ref.cart_items(7), Counter([(10, 2), (11, 1)])),
        ("purchases_of keeps duplicates", ref.purchases_of(1), Counter({(10, 5.0): 2, (11, 300.0): 1})),
        ("skus_priced_over", ref.skus_priced_over(50), Counter([(11,), (12,), (13,)])),
        ("priced_over", ref.priced_over(250), Counter([(11, 300.0)])),
        ("priced_between is open", ref.priced_between(5.0, 70.0), Counter([(2, 12, 60.0)])),
        ("user_purchases_over drops unknown users", ref.user_purchases_over(50),
         Counter([("ann", 11, 300.0), ("bob", 12, 60.0)])),
        ("category_counts", ref.category_counts(), Counter([("books", 2), ("toys", 2), ("garden", 1)])),
        ("category_counts filtered", ref.category_counts(50),
         Counter([("toys", 2), ("garden", 1)])),
        ("distinct_categories_over", ref.distinct_categories_over(50),
         Counter([("toys",), ("garden",)])),
        ("visitors_from", ref.visitors_from("paris"), Counter([("ann", 10), ("ann", 12)])),
    ]
    ref.write("purchases", inserts=[purchases[3]], deletes=[purchases[0]])
    ref.write(
        "users",
        deletes=[users[1]],
        inserts=[dict(users[1], name="bea")],
    )
    checks += [
        ("write replays a bag delete", ref.purchases_of(1), Counter({(10, 5.0): 1, (11, 300.0): 1})),
        ("write replays a bag insert", ref.purchases_of(2), Counter({(12, 60.0): 2})),
        ("write replays a user update", ref.user_by_uid(2), Counter([("bea", "lyon")])),
    ]
    failures = [name for name, got, expected in checks if got != expected]
    try:
        ref.write("purchases", deletes=[purchases[4], purchases[4]])
        failures.append("delete of an absent row is refused")
    except ValueError:
        pass
    return failures
