"""Tests of the benchmark's own machinery: span arithmetic, reference, op mixes.

Run with ``python3 -m pytest layerbench``.
"""

from __future__ import annotations

import random
from collections import Counter
from types import SimpleNamespace

import mixes
from hostspeed import REFERENCE_SECONDS, HostSpeed
from reference import Reference, self_check
from spans import Span, SpanRecorder, self_times


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a: the overlap is not subtracted twice
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("late", 9.0, 12.0, 0, 0),  # runs past its parent: only 9..10 is covered
    ]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0, 3.0]


def test_self_times_of_a_nested_tree_add_up_to_the_root():
    spans = [
        Span("root", 0.0, 8.0, -1, 0),
        Span("x", 0.5, 7.5, 0, 0),
        Span("y", 1.0, 2.0, 1, 0),
        Span("z", 2.0, 5.0, 1, 0),
        Span("w", 2.5, 3.0, 3, 0),
        Span("other_root", 9.0, 9.5, -1, 1),
    ]
    own = self_times(spans)
    assert sum(own[:5]) == 8.0
    assert own == [1.0, 3.0, 1.0, 2.5, 0.5, 0.5]


def test_recorder_wraps_nests_and_restores():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Layer.__dict__["outer"]
    recorder = SpanRecorder()
    seen = []
    recorder.wrap(Layer, "outer", "outer", after=lambda rec, index, args, result: seen.append(result))
    recorder.wrap(Layer, "inner", lambda args: f"inner.{type(args[0]).__name__}")
    recorder.op = 7
    assert Layer().outer() == 2
    recorder.uninstall()
    assert Layer.__dict__["outer"] is original
    outer, inner = recorder.spans
    assert (outer.name, outer.parent, outer.op) == ("outer", -1, 7)
    assert (inner.name, inner.parent) == ("inner.Layer", 0)
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert seen == [2]
    recorder.add_child(0, "store", 0.0, 0.0)
    assert recorder.spans[-1].parent == 0


def test_host_speed_divides_by_the_median_of_the_nearest_kernel_samples():
    speed = HostSpeed()
    # The host runs at reference speed until t=10, then twice as slow.
    speed.times = [float(t) for t in range(20)]
    speed.seconds = [REFERENCE_SECONDS] * 10 + [2 * REFERENCE_SECONDS] * 10
    assert speed.normalise(2.5, 0.010) == 0.010
    assert speed.normalise(16.5, 0.010) == 0.005
    # Near the change the neighbours are mixed; one outlier does not move the median.
    speed.seconds[3] = 50 * REFERENCE_SECONDS
    assert speed.normalise(2.5, 0.010) == 0.010
    assert 0.005 <= speed.normalise(10.0, 0.010) <= 0.010


def test_known_defect_templates_stay_out_of_every_timed_mix():
    assert set(mixes.KNOWN_DEFECTS).isdisjoint(mixes.ANALYTICS_DECK)
    assert set(mixes.KNOWN_DEFECTS).isdisjoint(mixes.POINT_DECK)
    assert set(mixes.KNOWN_DEFECTS).isdisjoint(mixes.WRITE_DECK)


def test_reference_self_check_passes():
    assert self_check() == []


def _tiny_market():
    users = [{"uid": u, "name": f"u{u}", "city": c, "payment": "card", "preferred_category": "books"}
             for u, c in enumerate(["paris", "lyon", "nice"])]
    products = [{"sku": s, "category": "books" if s % 2 else "toys", "price": 10.0 + s} for s in range(5)]
    purchases = [{"uid": i % 3, "sku": i % 5, "category": products[i % 5]["category"], "quantity": 1,
                  "price": products[i % 5]["price"]} for i in range(12)]
    carts = [{"cart_id": c, "uid": 0, "sku": 1, "quantity": 1} for c in range(4)]
    return SimpleNamespace(users=users, purchases=purchases, products=products, carts=carts, visits=[])


def test_decks_fix_the_mix_exactly():
    ops = mixes.analytics_scans(_tiny_market(), seed=5, count=150)
    per_deck = sum(mixes.ANALYTICS_DECK.values())
    assert len(ops) == 150 // per_deck * per_deck
    counts = Counter(op.template for op in ops)
    assert {t: n // (150 // per_deck) for t, n in counts.items()} == mixes.ANALYTICS_DECK
    assert ops == mixes.analytics_scans(_tiny_market(), seed=5, count=150)
    assert ops != mixes.analytics_scans(_tiny_market(), seed=6, count=150)


def test_write_mix_only_deletes_rows_that_exist():
    market = _tiny_market()
    ops = mixes.write_mix(market, seed=3, count=400)
    reference = Reference(market.users, market.purchases)
    for op in ops:  # Reference.write raises on a delete of an absent row
        if op.kind != "read":
            reference.write(op.relation, op.inserts, op.deletes)
    reads = sum(op.kind == "read" for op in ops)
    assert reads / len(ops) == 15 / 21  # about 70% reads


def test_zipf_draws_are_skewed_and_seeded():
    draws = [mixes.Zipf(range(100), random.Random(1)).draw() for _ in range(3)]
    assert len(set(draws)) == 1  # same seed, same first draw
    zipf = mixes.Zipf(range(100), random.Random(2))
    top = Counter(zipf.draw() for _ in range(5000)).most_common(1)[0][1]
    assert top > 5000 / 10  # the hottest key takes ~19% at exponent 1


def test_every_reported_metric_is_declared_in_benchmark_json():
    import json
    from pathlib import Path

    import layers
    import run

    declared = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    loop = run.LoopResult(attempted=1, correct=1, op_seconds=1.0)
    traced = {**layers.layer_metrics(SpanRecorder(), loop), **run.trace_extras(run.Run(loop), run.Run(loop))}
    assert {name: unit for name, (_, unit) in traced.items()} == {
        m["name"]: m["unit"] for m in declared["per_layer"]}
