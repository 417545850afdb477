"""An independent reference evaluator for the SQL subset the facade accepts.

The differential suites used to compare execution configurations with each
other, so a bug every configuration shared passed them all.  This module is
the baseline that does not share code with the system: a query is drawn as a
structured :class:`QuerySpec`, rendered to SQL text for ``Estocada.query``,
and evaluated *directly* from the spec over plain Python rows — no parser,
translator, rewriting, plan or runtime of ``repro`` is involved.

Semantics follow SQL over data without NULLs: WHERE is a conjunction of
comparisons, GROUP BY groups with count/sum/min/max/avg, an aggregate without
GROUP BY answers one row even over empty input (``count`` 0, the others
NULL), DISTINCT removes duplicate output rows, and LIMIT k returns any k rows
of the answer (callers check a sub-bag of size ``min(k, |answer|)``).
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from hypothesis import strategies as st

__all__ = [
    "Column",
    "Comparison",
    "AggregateSpec",
    "QuerySpec",
    "Oracle",
    "SCHEMA",
    "bag",
    "query_specs",
]

_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

# The relations every test deployment hosts, with each column's value kind:
# comparisons only ever pair columns (or literals) of the same kind.
SCHEMA: dict[str, dict[str, str]] = {
    "users": {
        "uid": "num", "name": "str", "city": "str", "payment": "str",
        "preferred_category": "str",
    },
    "purchases": {
        "uid": "num", "sku": "num", "category": "str", "quantity": "num", "price": "num",
    },
    "visits": {"uid": "num", "sku": "num", "category": "str", "duration_ms": "num"},
}
_ALIASES = {"users": "u", "purchases": "p", "visits": "v"}


@dataclass(frozen=True)
class Column:
    """A column of one FROM item, addressed by the item's alias."""

    alias: str
    name: str


@dataclass(frozen=True)
class Comparison:
    """``left <op> right``; ``right`` is a :class:`Column` or a literal."""

    left: Column
    op: str
    right: object


@dataclass(frozen=True)
class AggregateSpec:
    """``FUNCTION(column | *) AS alias``."""

    function: str
    column: Column | None
    alias: str


@dataclass(frozen=True)
class QuerySpec:
    """One SELECT statement, as data.

    ``tables`` pairs each table with its alias; a single-table query is
    rendered without aliases or qualifiers.  ``select`` lists plain output
    columns (empty with ``star``); ``aggregates`` without ``group_by`` is a
    global aggregate (and then ``select`` is empty).
    """

    tables: tuple[tuple[str, str], ...]
    select: tuple[Column, ...] = ()
    star: bool = False
    aggregates: tuple[AggregateSpec, ...] = ()
    where: tuple[Comparison, ...] = ()
    group_by: tuple[Column, ...] = ()
    distinct: bool = False
    limit: int | None = None

    @property
    def joined(self) -> bool:
        return len(self.tables) > 1

    def output_name(self, column: Column) -> str:
        """The answer key of a plain output column."""
        return f"{column.alias}_{column.name}" if self.joined else column.name

    def _ref(self, column: Column) -> str:
        return f"{column.alias}.{column.name}" if self.joined else column.name

    def _item(self, column: Column) -> str:
        if self.joined:
            return f"{self._ref(column)} AS {self.output_name(column)}"
        return column.name

    def sql(self) -> str:
        """The statement as SQL text."""
        items = ["*"] if self.star else [self._item(c) for c in self.select]
        for aggregate in self.aggregates:
            argument = "*" if aggregate.column is None else self._ref(aggregate.column)
            items.append(f"{aggregate.function.upper()}({argument}) AS {aggregate.alias}")
        text = "SELECT " + ("DISTINCT " if self.distinct else "") + ", ".join(items)
        if self.joined:
            text += " FROM " + ", ".join(f"{table} {alias}" for table, alias in self.tables)
        else:
            text += f" FROM {self.tables[0][0]}"
        if self.where:
            text += " WHERE " + " AND ".join(
                f"{self._ref(c.left)} {c.op} {self._literal_or_ref(c.right)}"
                for c in self.where
            )
        if self.group_by:
            text += " GROUP BY " + ", ".join(self._ref(c) for c in self.group_by)
        if self.limit is not None:
            text += f" LIMIT {self.limit}"
        return text

    def _literal_or_ref(self, value: object) -> str:
        if isinstance(value, Column):
            return self._ref(value)
        if isinstance(value, str):
            return "'" + value + "'"
        return repr(value)


class Oracle:
    """Evaluates :class:`QuerySpec` objects over plain row dicts."""

    def __init__(self, relations: Mapping[str, Sequence[Mapping[str, object]]]) -> None:
        self._relations = {
            name: [{column: row[column] for column in SCHEMA[name]} for row in rows]
            for name, rows in relations.items()
        }

    def answer(self, spec: QuerySpec) -> list[dict[str, object]]:
        """The full answer (LIMIT ignored: any k of these rows are correct)."""
        rows = [
            row for row in self._joined(spec) if all(_holds(row, c) for c in spec.where)
        ]
        if spec.aggregates:
            answer = self._aggregate(spec, rows)
        elif spec.star:
            answer = [
                {
                    spec.output_name(Column(alias, name)): row[(alias, name)]
                    for table, alias in spec.tables
                    for name in SCHEMA[table]
                }
                for row in rows
            ]
        else:
            answer = [
                {spec.output_name(c): row[(c.alias, c.name)] for c in spec.select}
                for row in rows
            ]
        if spec.distinct:
            unique = {tuple(sorted(row.items())): row for row in answer}
            answer = list(unique.values())
        return answer

    def _joined(self, spec: QuerySpec) -> Iterable[dict[tuple[str, str], object]]:
        """Rows of the FROM list, keyed by (alias, column).

        The first table streams; each later one is hash-joined on its first
        equality with a column already bound (every generated join has one;
        the full WHERE is re-checked by the caller anyway).
        """
        (first, first_alias), *rest = spec.tables
        rows = [
            {(first_alias, column): value for column, value in row.items()}
            for row in self._relations[first]
        ]
        bound = {first_alias}
        for table, alias in rest:
            pairs = [
                pair
                for c in spec.where
                if c.op == "=" and isinstance(c.right, Column)
                for pair in ((c.left, c.right), (c.right, c.left))
            ]
            outer, inner = next(
                (o, i) for o, i in pairs if o.alias in bound and i.alias == alias
            )
            index: dict[object, list[dict]] = {}
            for row in self._relations[table]:
                index.setdefault(row[inner.name], []).append(row)
            rows = [
                {**row, **{(alias, column): value for column, value in match.items()}}
                for row in rows
                for match in index.get(row[(outer.alias, outer.name)], ())
            ]
            bound.add(alias)
        return rows

    def _aggregate(self, spec: QuerySpec, rows) -> list[dict[str, object]]:
        groups: dict[tuple, list] = {}
        for row in rows:
            key = tuple(row[(c.alias, c.name)] for c in spec.group_by)
            groups.setdefault(key, []).append(row)
        if not spec.group_by:
            groups.setdefault((), [])
        answer = []
        for key, members in groups.items():
            values = dict(zip(spec.group_by, key))
            out = {spec.output_name(c): values[c] for c in spec.select}
            for aggregate in spec.aggregates:
                if aggregate.column is None:
                    out[aggregate.alias] = len(members)
                    continue
                column = [m[(aggregate.column.alias, aggregate.column.name)] for m in members]
                out[aggregate.alias] = _FUNCTIONS[aggregate.function](column)
            answer.append(out)
        return answer


_FUNCTIONS = {
    "count": len,
    "sum": lambda values: sum(values) if values else None,
    "min": lambda values: min(values) if values else None,
    "max": lambda values: max(values) if values else None,
    "avg": lambda values: sum(values) / len(values) if values else None,
}


def _holds(row: Mapping[tuple[str, str], object], comparison: Comparison) -> bool:
    left = row[(comparison.left.alias, comparison.left.name)]
    right = comparison.right
    if isinstance(right, Column):
        right = row[(right.alias, right.name)]
    return _OPS[comparison.op](left, right)


def _canonical(value: object) -> str:
    """A comparison key tolerating summation-order float jitter (10 digits)."""
    if isinstance(value, float):
        return f"{value:.10g}"
    return repr(value)


def bag(rows: Iterable[Mapping[str, object]]) -> Counter:
    """Order-insensitive fingerprint of a list of answer rows."""
    return Counter(tuple(sorted((k, _canonical(v)) for k, v in row.items())) for row in rows)


# -- the query generator ----------------------------------------------------------------

_STRINGS = {
    "name": ("user3", "user17", "user42", "nobody"),
    "city": ("paris", "lyon", "lille", "nice", "nowhere"),
    "payment": ("card", "paypal", "transfer"),
    "preferred_category": ("books", "shoes", "toys", "none"),
    "category": ("books", "shoes", "electronics", "kitchen", "garden", "none"),
}
_NUMBERS = {
    "uid": (0, 59),
    "sku": (0, 80),
    "quantity": (0, 4),
    "price": (0, 500),
    "duration_ms": (0, 5000),
}
_JOINS = (("users", "purchases"), ("purchases", "visits"), ("users", "visits"))


@st.composite
def _comparison(draw, columns: Sequence[Column], kinds: Mapping[Column, str]) -> Comparison:
    left = draw(st.sampled_from(columns))
    op = draw(st.sampled_from(tuple(_OPS)))
    same_kind = [c for c in columns if kinds[c] == kinds[left] and c != left]
    if same_kind and draw(st.integers(0, 3)) == 0:
        return Comparison(left, op, draw(st.sampled_from(same_kind)))
    if kinds[left] == "str":
        return Comparison(left, op, draw(st.sampled_from(_STRINGS[left.name])))
    low, high = _NUMBERS[left.name]
    return Comparison(left, op, draw(st.integers(low, high)))


@st.composite
def query_specs(draw) -> QuerySpec:
    """A random query over users, purchases and visits.

    Shapes: one table or an equi-join of two; WHERE comparisons on any
    columns (literals and column pairs); a SELECT list drawn independently
    of the WHERE and GROUP BY columns; aggregates with or without GROUP BY;
    DISTINCT; LIMIT.
    """
    if draw(st.booleans()):
        table = draw(st.sampled_from(tuple(SCHEMA)))
        tables = ((table, table),)
    else:
        pair = draw(st.sampled_from(_JOINS))
        tables = tuple((table, _ALIASES[table]) for table in pair)
    kinds = {
        Column(alias, name): kind
        for table, alias in tables
        for name, kind in SCHEMA[table].items()
    }
    columns = tuple(kinds)
    where: list[Comparison] = []
    if len(tables) == 2:
        (_, a), (_, b) = tables
        where.append(Comparison(Column(a, "uid"), "=", Column(b, "uid")))
    where += draw(st.lists(_comparison(columns, kinds), max_size=3))

    aggregates: tuple[AggregateSpec, ...] = ()
    group_by: tuple[Column, ...] = ()
    star = False
    if draw(st.integers(0, 2)) == 0:
        group_by = tuple(draw(st.lists(st.sampled_from(columns), max_size=2, unique=True)))
        select = (
            tuple(draw(st.lists(st.sampled_from(group_by), max_size=2, unique=True)))
            if group_by
            else ()
        )
        numeric = [c for c in columns if kinds[c] == "num"]
        drawn = draw(
            st.lists(
                st.one_of(
                    st.tuples(st.just("count"), st.none() | st.sampled_from(columns)),
                    st.tuples(st.sampled_from(("sum", "avg")), st.sampled_from(numeric)),
                    st.tuples(st.sampled_from(("min", "max")), st.sampled_from(columns)),
                ),
                min_size=1,
                max_size=3,
            )
        )
        aggregates = tuple(
            AggregateSpec(function, column, f"a{i}") for i, (function, column) in enumerate(drawn)
        )
    elif draw(st.integers(0, 5)) == 0:
        select, star = (), True
    else:
        select = tuple(draw(st.lists(st.sampled_from(columns), min_size=1, max_size=3, unique=True)))
    return QuerySpec(
        tables=tables,
        select=select,
        star=star,
        aggregates=aggregates,
        where=tuple(where),
        group_by=group_by,
        distinct=draw(st.booleans()),
        limit=draw(st.none() | st.integers(1, 7)),
    )
