"""Per-plan compiled kernels: batch-at-a-time closures over tuple rows.

The runtime evaluates residual predicates, projections and output shaping
through **kernels**: closures specialized against a batch schema exactly
once, operating on plain row tuples by column *position* — no per-row
binding dict, no per-row column lookup.

Three pieces:

* **kernel builders** (:func:`predicate_kernel`, :func:`projection_kernel`,
  :func:`key_kernel`) — turn a declarative spec plus a schema into a closure
  over whole row lists (`itemgetter`-backed where every column resolves);
  :func:`key_kernel` is the vectorized hash-join build/probe primitive — it
  extracts the key column(s) of an entire batch in one pass and represents
  single-column keys as bare scalars (no per-row tuple allocation);
* **stages** (:class:`FilterStage`, :class:`ProjectStage`,
  :class:`ConstantStage`, :class:`OutputStage`) — the declarative, fusable
  forms of residual selection, projection and output shaping.  Being data
  (not opaque callables), stages can be concatenated by the
  physical-lowering fusion pass;
* :class:`FusedPipeline` — a single operator evaluating a chain of stages
  (plus an optional LIMIT) in one pass per batch: rows are filtered,
  projected and reshaped without ever materializing intermediate batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from repro.errors import ExecutionError
from repro.runtime.batch import RowBatch
from repro.runtime.operators import ExecutionContext, Operator
from repro.stores.base import COMPARATORS

__all__ = [
    "PredicateSpec",
    "ZoneBound",
    "extract_zone_bounds",
    "predicate_kernel",
    "projection_kernel",
    "key_kernel",
    "FilterStage",
    "ProjectStage",
    "ConstantStage",
    "OutputStage",
    "FusedPipeline",
    "attach_stage",
]


# -- kernel builders -----------------------------------------------------------------

RowsKernel = Callable[[list], list]


@dataclass(frozen=True, slots=True)
class PredicateSpec:
    """One residual comparison, compilable against any batch schema.

    ``value`` is a literal, or — with ``value_is_column`` — the name of the
    other column.  A ``None`` operand fails the comparison; a column absent
    from the batch schema is a plan error (see :func:`predicate_kernel`).
    """

    column: str
    op: str
    value: object
    value_is_column: bool = False

    def describe(self) -> str:
        """Compact rendering for plan text."""
        target = self.value if self.value_is_column else repr(self.value)
        return f"{self.column} {self.op} {target}"


@dataclass(frozen=True, slots=True)
class ZoneBound:
    """One literal comparison usable for zone-map segment pruning.

    The durable segment engine compares these against a segment's per-column
    min/max to decide whether the segment can possibly contain a matching
    row.  Only comparisons against a non-None **literal** qualify:
    column-to-column comparisons and ``None`` literals carry no prunable
    bound (``= None`` matches nulls, which zone min/max does not describe).
    """

    column: str
    op: str
    value: object


def extract_zone_bounds(predicates: Sequence) -> tuple[ZoneBound, ...]:
    """The prunable bounds of a predicate conjunction.

    Accepts both runtime :class:`PredicateSpec` objects and store-layer
    ``Predicate`` objects (anything with ``column``/``op``/``value``; a
    truthy ``value_is_column`` disqualifies the comparison).  The result is
    what :meth:`repro.stores.segment.segments.SegmentReader.excluded_by`
    consumes, and what the cost model feeds into
    ``Store.segment_scan_fraction`` when pricing delegated scans.
    """
    bounds: list[ZoneBound] = []
    for predicate in predicates:
        if getattr(predicate, "value_is_column", False):
            continue
        op = predicate.op
        if op not in COMPARATORS:
            continue
        value = predicate.value
        if value is None:
            continue
        bounds.append(ZoneBound(predicate.column, op, value))
    return tuple(bounds)


def predicate_kernel(specs: Sequence[PredicateSpec], schema: Sequence[str]) -> RowsKernel:
    """Compile a conjunction of comparisons into one batch-level filter.

    Column positions are resolved against ``schema`` here, once; the
    returned closure filters a whole row list with direct tuple indexing.
    An operand column missing from ``schema`` raises
    :class:`~repro.errors.ExecutionError`: the plan below the filter does
    not produce a column the filter reads, and answering "no row qualifies"
    would turn that plan bug into a silently empty answer.
    """
    schema = tuple(schema)

    def position(column: str) -> int:
        if column not in schema:
            raise ExecutionError(
                f"filter reads column {column!r}, which its input does not "
                f"produce (columns: {list(schema)})"
            )
        return schema.index(column)

    checks: list[tuple[int, Callable, object, bool]] = []
    for spec in specs:
        comparator = COMPARATORS[spec.op]
        left = position(spec.column)
        if spec.value_is_column:
            checks.append((left, comparator, position(spec.value), True))
        else:
            checks.append((left, comparator, spec.value, False))

    if len(checks) == 1:
        left, comparator, right, is_column = checks[0]
        if is_column:
            return lambda rows: [
                row
                for row in rows
                if row[left] is not None
                and row[right] is not None
                and comparator(row[left], row[right])
            ]
        return lambda rows: [
            row for row in rows if row[left] is not None and comparator(row[left], right)
        ]

    def keep(row: tuple) -> bool:
        for left, comparator, right, is_column in checks:
            left_value = row[left]
            if left_value is None:
                return False
            if is_column:
                right_value = row[right]
                if right_value is None or not comparator(left_value, right_value):
                    return False
            elif not comparator(left_value, right):
                return False
        return True

    return lambda rows: [row for row in rows if keep(row)]


def projection_kernel(
    schema: Sequence[str], wanted: Sequence[str]
) -> Callable[[tuple], tuple]:
    """A row-tuple transform selecting ``wanted`` columns.

    A wanted column missing from ``schema`` raises
    :class:`~repro.errors.ExecutionError`, as in :func:`predicate_kernel`:
    the plan below does not produce it, and a None column would hide that.
    """
    indices = _positions(schema, wanted, "projection")
    if not indices:
        # A boolean query projects every row to the empty tuple.
        return lambda row: ()
    if len(indices) == 1:
        only = indices[0]
        return lambda row: (row[only],)
    return itemgetter(*indices)


def key_kernel(schema: Sequence[str], columns: Sequence[str]) -> Callable[[list], list]:
    """Vectorized join-key extraction: the keys of a whole batch in one pass.

    Single-column keys are bare values (no tuple allocation per row); both
    sides of a join must therefore use this kernel so representations agree.
    A key column missing from ``schema`` raises
    :class:`~repro.errors.ExecutionError`.
    """
    indices = _positions(schema, columns, "join key")
    if not indices:
        # No key columns (cartesian join): every row shares the empty key.
        return lambda rows: [()] * len(rows)
    if len(indices) == 1:
        only = indices[0]
        return lambda rows: [row[only] for row in rows]
    getter = itemgetter(*indices)
    return lambda rows: [getter(row) for row in rows]


def _positions(schema: Sequence[str], columns: Sequence[str], role: str) -> list[int]:
    """Positions of ``columns`` in ``schema``; a missing column is a plan bug."""
    schema = tuple(schema)
    missing = [column for column in columns if column not in schema]
    if missing:
        raise ExecutionError(
            f"{role} reads column {missing[0]!r}, which its input does not "
            f"produce (columns: {list(schema)})"
        )
    return [schema.index(column) for column in columns]


# -- fusable stages ------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FilterStage:
    """A conjunction of residual comparisons."""

    specs: tuple[PredicateSpec, ...]

    def compile(self, schema: tuple[str, ...]) -> tuple[tuple[str, ...], RowsKernel]:
        """(output schema, rows transform) against ``schema``."""
        return schema, predicate_kernel(self.specs, schema)

    def describe(self) -> str:
        return "filter(" + " AND ".join(spec.describe() for spec in self.specs) + ")"


@dataclass(frozen=True, slots=True)
class ProjectStage:
    """Keep only ``variables``, optionally renaming."""

    variables: tuple[str, ...]
    renaming: tuple[tuple[str, str], ...] = ()

    def compile(self, schema: tuple[str, ...]) -> tuple[tuple[str, ...], RowsKernel]:
        renaming = dict(self.renaming)
        output_schema = tuple(renaming.get(v, v) for v in self.variables)
        transform = projection_kernel(schema, self.variables)
        return output_schema, lambda rows: [transform(row) for row in rows]

    def describe(self) -> str:
        return f"project({', '.join(self.variables)})"


@dataclass(frozen=True, slots=True)
class ConstantStage:
    """Append constant-valued columns to every row.

    Supplies the columns of variables an equality predicate pinned to a
    constant: the pivot query carries the constant instead of the variable,
    but residual filters and aggregation may still read the column.
    """

    columns: tuple[tuple[str, object], ...]

    def compile(self, schema: tuple[str, ...]) -> tuple[tuple[str, ...], RowsKernel]:
        names = tuple(name for name, _ in self.columns)
        tail = tuple(value for _, value in self.columns)
        return schema + names, lambda rows: [row + tail for row in rows]

    def describe(self) -> str:
        return "const(" + ", ".join(f"{n}={v!r}" for n, v in self.columns) + ")"


@dataclass(frozen=True, slots=True)
class OutputStage:
    """Project to the query's output columns, renaming variables.

    ``outputs`` holds one ``(name, is_variable, payload)`` triple per output
    column: the payload is the input column's name (a head variable or an
    aggregation result), or the constant value for constant head terms.  A
    variable absent from the input falls back to a same-named column, else
    ``None``.  Every other input column is dropped.
    """

    outputs: tuple[tuple[str, bool, object], ...]

    def compile(self, schema: tuple[str, ...]) -> tuple[tuple[str, ...], RowsKernel]:
        plan: list[tuple[bool, object]] = []  # (is_constant, value/pos)
        for name, is_var, payload in self.outputs:
            if not is_var:
                plan.append((True, payload))
            elif payload in schema:
                plan.append((False, schema.index(payload)))
            elif name in schema:
                plan.append((False, schema.index(name)))
            else:
                plan.append((True, None))
        output_schema = tuple(name for name, _, _ in self.outputs)
        if all(not is_constant for is_constant, _ in plan):
            indices = [position for _, position in plan]
            if len(indices) == 1:
                only = indices[0]
                return output_schema, lambda rows: [(row[only],) for row in rows]
            getter = itemgetter(*indices)
            return output_schema, lambda rows: [getter(row) for row in rows]
        plan_items = tuple(plan)
        return output_schema, lambda rows: [
            tuple(value if is_constant else row[value] for is_constant, value in plan_items)
            for row in rows
        ]

    def describe(self) -> str:
        return f"output({', '.join(name for name, _, _ in self.outputs)})"


Stage = FilterStage | ProjectStage | ConstantStage | OutputStage


class FusedPipeline(Operator):
    """A Filter→Project→Output(→LIMIT) chain collapsed into one operator.

    Stages run in tuple order (innermost first); each is compiled against
    the incoming batch schema exactly once and re-compiled only on schema
    drift.  A batch makes a single pass through the compiled kernels — no
    intermediate :class:`RowBatch` objects, no per-row dict, no repeated
    column resolution.  The optional ``limit`` truncates the final stream
    and abandons the upstream pipeline early.
    """

    def __init__(
        self,
        child: Operator,
        stages: Sequence[Stage] = (),
        limit: int | None = None,
    ) -> None:
        self._child = child
        self._stages = tuple(stages)
        self._limit = limit

    @property
    def child(self) -> Operator:
        """The operator feeding the fused chain."""
        return self._child

    @property
    def stages(self) -> tuple[Stage, ...]:
        """The fused stages, in execution order."""
        return self._stages

    @property
    def limit(self) -> int | None:
        """The row limit applied after the last stage (None = unlimited)."""
        return self._limit

    def children(self) -> Sequence[Operator]:
        return (self._child,)

    def _batches(self, context: ExecutionContext) -> Iterator[RowBatch]:
        remaining = self._limit
        source_schema: tuple[str, ...] | None = None
        kernels: list[RowsKernel] = []
        output_schema: tuple[str, ...] = ()
        for batch in self._child.batches(context):
            if batch.columns != source_schema:
                source_schema = batch.columns
                kernels = []
                schema = source_schema
                for stage in self._stages:
                    schema, kernel = stage.compile(schema)
                    kernels.append(kernel)
                output_schema = schema
            rows = batch.rows
            for kernel in kernels:
                if not rows:
                    break
                rows = kernel(rows)
            if not rows:
                continue
            if remaining is not None and len(rows) > remaining:
                rows = rows[:remaining]
            context.runtime_rows_processed += len(rows)
            yield RowBatch(output_schema, rows)
            if remaining is not None:
                remaining -= len(rows)
                if remaining <= 0:
                    return

    def describe(self) -> str:
        parts = [stage.describe() for stage in self._stages]
        if self._limit is not None:
            parts.append(f"limit {self._limit}")
        return f"Fused[{' → '.join(parts) or 'passthrough'}]"


def attach_stage(
    root: Operator, stage: Stage | None, limit: int | None = None
) -> FusedPipeline:
    """Attach one compiled stage (and/or a LIMIT) above ``root``, fusing chains.

    This is the fusion primitive of the physical lowering: a stage attached
    to a :class:`FusedPipeline` that has no terminal LIMIT is *absorbed* into
    it — consecutive Filter → Project → Output (→ LIMIT) steps collapse into
    one operator.
    """
    stages = () if stage is None else (stage,)
    if isinstance(root, FusedPipeline) and root.limit is None:
        return FusedPipeline(root.child, root.stages + stages, limit)
    return FusedPipeline(root, stages, limit)
