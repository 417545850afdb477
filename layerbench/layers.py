"""Which program entry points the traced run wraps, and the per-layer metrics.

Span names are the layer names the metrics use.  Store time is not wrapped:
stores stream lazily, so a wrapped call would time nothing.  It comes from
``QueryResult.store_breakdown`` and is charged as children of the
``runtime`` span (one child per store, ``stores.<name>``).
"""

from __future__ import annotations

import importlib
from collections import Counter

from spans import SpanRecorder, self_times

STORES = ("pg", "redis", "mongo", "spark")
MEMOS = ("containment_chase", "containment_verdict", "find_homomorphism", "views_constraint_union")

# (candidate "module:Class" locations, method, span name); the first
# importable location wins, so a class that moves between modules is still
# found.
HOOKS = [
    (("repro.estocada:Estocada",), "query", "estocada"),
    (("repro.estocada:Estocada",), "insert", "estocada"),
    (("repro.estocada:Estocada",), "delete", "estocada"),
    (("repro.estocada:Estocada",), "update", "estocada"),
    (("repro.estocada:NamespacedPlanCache",), "get", "estocada.plan_cache"),
    (("repro.languages.sql.translator:SqlTranslator",), "translate", "languages.sql"),
    (("repro.core.rewriting:Rewriter",), "rewrite", "core.rewrite"),
    (("repro.cost.chooser:PlanChooser",), "rank", "cost.rank"),
    (("repro.translation.planner:Planner", "repro.plan:Planner"), "plan", "plan.plan"),
    (("repro.runtime.engine:ExecutionEngine",), "execute", "runtime"),
    (("repro.catalog.maintenance:MaintenanceEngine",), "apply_write", "catalog.maintenance.apply_write"),
    (("repro.estocada:Estocada",), "maintain", "catalog.maintenance.maintain"),
    (("repro.stores.segment.wal:WriteAheadLog",), "append", "stores.segment.wal_append"),
]
STORE_CLASSES = ("repro.stores:RelationalStore", "repro.stores:KeyValueStore",
                 "repro.stores:DocumentStore", "repro.stores:ParallelStore")


def _resolve(location: str):
    module, _, name = location.partition(":")
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        return None


def _after_rewrite(rec: SpanRecorder, index, args, outcome) -> None:
    rec.counters["core.rewrite.rewritings"] += len(outcome.rewritings)
    rec.counters["core.rewrite.feasible"] += len(outcome.feasible_rewritings)


def _after_rank(rec: SpanRecorder, index, args, ranked) -> None:
    rec.counters["cost.rank.plans"] += len(ranked)


def _after_maintain(rec: SpanRecorder, index, args, written) -> None:
    rec.counters["catalog.maintenance.rows_written"] += written


def _after_execute(rec: SpanRecorder, index, args, result) -> None:
    c = rec.counters
    c["runtime.rows_processed"] += result.runtime_rows_processed
    c["runtime.batches"] += result.batches
    span = rec.spans[index]
    offset = 0.0
    for name, b in result.store_breakdown.items():
        duration = min(b.elapsed_seconds, max(span.end - span.start - offset, 0.0))
        rec.add_child(index, f"stores.{name}", offset, duration)
        offset += duration
        c[f"stores.{name}.requests"] += b.requests
        c[f"stores.{name}.rows_scanned"] += b.rows_scanned
        c[f"stores.{name}.rows_returned"] += b.rows_returned
        c["stores.segment.scanned"] += b.segments_scanned
        c["stores.segment.skipped"] += b.segments_skipped
        c["stores.segment.rows_decoded"] += b.rows_decoded


AFTER = {"core.rewrite": _after_rewrite, "cost.rank": _after_rank,
         "catalog.maintenance.maintain": _after_maintain, "runtime": _after_execute}


def install(rec: SpanRecorder) -> list[str]:
    """Wrap every hook that resolves; returns the ones that did not."""
    missing = []
    for locations, method, name in HOOKS:
        owner = next((cls for cls in map(_resolve, locations) if cls is not None), None)
        if owner is None or method not in owner.__dict__:
            missing.append(f"{locations[0]}.{method}")
            continue
        rec.wrap(owner, method, name, AFTER.get(name))
    for location in STORE_CLASSES:
        owner = _resolve(location)
        if owner is None or "apply_delta" not in owner.__dict__:
            missing.append(f"{location}.apply_delta")
            continue
        rec.wrap(owner, "apply_delta", lambda args: f"stores.{args[0].name}.apply_delta")
    return missing


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(rec: SpanRecorder, loop, durable_bytes: int = 0,
                  user_bytes: int = 0) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced timed loop, as name -> (value, unit).

    ``loop`` is the traced run's ``run.LoopResult``: op and write counts, op
    wall time, and plan-cache and memo counter deltas.  ``_per_op`` divides
    by every timed op, ``_per_write`` by the timed writes; a layer a workload
    does not exercise reads 0.
    """
    ops, writes = loop.attempted, loop.writes
    self_ms: Counter = Counter()
    calls: Counter = Counter()
    for span, own in zip(rec.spans, self_times(rec.spans)):
        self_ms[span.name] += own * 1000.0
        calls[span.name] += 1
    c = rec.counters
    cache = Counter(loop.cache_delta)
    m: dict[str, tuple[float, str]] = {}

    def ms(name, span, per=ops):
        m[name] = (_ratio(self_ms[span], per), "ms")

    def count(name, value, per=ops):
        m[name] = (_ratio(value, per), "count")

    def ratio(name, part, whole):
        m[name] = (_ratio(part, whole), "ratio")

    ratio("trace.self_coverage", sum(self_ms.values()), loop.op_seconds * 1000.0)
    ms("languages.sql.self_ms_per_op", "languages.sql")
    count("languages.sql.calls_per_op", calls["languages.sql"])
    m["estocada.self_ms_per_op"] = (_ratio(self_ms["estocada"] + self_ms["estocada.plan_cache"], ops), "ms")
    ratio("estocada.plan_cache.hit_ratio", cache["hits"], cache["hits"] + cache["misses"])
    count("estocada.plan_cache.misses_per_op", cache["misses"])
    count("estocada.plan_cache.evictions_per_op", cache["evictions"])
    count("estocada.plan_cache.scoped_invalidations_per_write", cache["scoped_invalidations"], writes)
    ms("core.rewrite.self_ms_per_op", "core.rewrite")
    count("core.rewrite.calls_per_op", calls["core.rewrite"])
    ratio("core.rewrite.feasible_per_rewriting", c["core.rewrite.feasible"], c["core.rewrite.rewritings"])
    for memo in MEMOS:
        hits, misses = loop.memo_delta.get(memo, (0, 0))
        ratio(f"core.memo.{memo}.hit_ratio", hits, hits + misses)
    ms("cost.rank.self_ms_per_op", "cost.rank")
    count("cost.rank.plans_per_call", c["cost.rank.plans"], calls["cost.rank"])
    ms("plan.plan.self_ms_per_op", "plan.plan")
    ms("runtime.self_ms_per_op", "runtime")
    count("runtime.rows_processed_per_op", c["runtime.rows_processed"])
    count("runtime.batches_per_op", c["runtime.batches"])
    for store in STORES:
        p = f"stores.{store}"
        ms(f"{p}.ms_per_op", p)
        count(f"{p}.requests_per_op", c[f"{p}.requests"])
        count(f"{p}.rows_scanned_per_op", c[f"{p}.rows_scanned"])
        ratio(f"{p}.returned_per_scanned", c[f"{p}.rows_returned"], c[f"{p}.rows_scanned"])
        ms(f"{p}.apply_delta_ms_per_write", f"{p}.apply_delta", writes)
    seg = "stores.segment"
    ratio(f"{seg}.skipped_ratio", c[f"{seg}.skipped"], c[f"{seg}.skipped"] + c[f"{seg}.scanned"])
    count(f"{seg}.rows_decoded_per_op", c[f"{seg}.rows_decoded"])
    count(f"{seg}.wal_appends_per_write", calls[f"{seg}.wal_append"], writes)
    ms(f"{seg}.wal_append_ms_per_write", f"{seg}.wal_append", writes)
    ratio(f"{seg}.disk_bytes_per_user_byte", durable_bytes, user_bytes)
    ms("catalog.maintenance.apply_write_ms_per_write", "catalog.maintenance.apply_write", writes)
    ms("catalog.maintenance.maintain_ms_per_write", "catalog.maintenance.maintain", writes)
    ratio("catalog.maintenance.rows_written_per_user_row", c["catalog.maintenance.rows_written"],
          loop.user_rows_written)
    return m


def dominant(rec: SpanRecorder, keep=lambda op: True) -> list[tuple[str, float]]:
    """Layers by total self time over the ops ``keep`` selects, largest first."""
    totals: Counter = Counter()
    for span, own in zip(rec.spans, self_times(rec.spans)):
        if keep(span.op):
            totals[span.name] += own
    return totals.most_common()
