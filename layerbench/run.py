"""Standing layer-by-layer benchmark of the ESTOCADA mediator.

Usage, from the repository root::

    python3 layerbench/run.py --workload point_lookups --seed 1 --seconds 20 --trace 0

One process and one client drive a closed loop: each op is sent when the
previous one has returned, with the executor at its default width.  The
workload's op sequence and the marketplace data are drawn from ``--seed``.
Every answer is checked against ``reference.Reference`` outside the timed
interval; a wrong answer or a raised error counts as a failed op and never
aborts the run.  Times are normalised to a reference host speed
(``hostspeed``); the raw figures are printed too.

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` runs the workload untraced and then again, on a fresh
deployment, with spans recorded around each layer's entry points
(``layers.HOOKS``); it prints the per-layer metrics of the traced run and the
tracing overhead.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import layers
import mixes
from hostspeed import NEIGHBOURS, HostSpeed
from reference import Reference, bag_of, purchase_key, self_check
from spans import SpanRecorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".layerbench"
SAMPLE_GAP_SECONDS = 0.02  # op time between two host-speed samples
SETUPS = 5  # set-ups timed per run; setup_s is their median


@dataclass(frozen=True)
class Workload:
    name: str
    draw: Callable  # (marketplace, seed, count) -> the op sequence
    ops: int  # ops drawn up front; read-only workloads cycle through them
    warmup: int  # leading ops run and checked but not timed
    durable: bool
    probes: tuple = ()  # templates run once after the timed loop, outside it


WORKLOADS = {
    w.name: w
    for w in (
        # Warm-up long enough for the core rewrite memos to fill (they hold
        # 2k-8k entries); until then each run's speed depends on how far it got.
        Workload("point_lookups", mixes.point_lookups, ops=40_000, warmup=2_000, durable=False),
        Workload("analytics_scans", mixes.analytics_scans, ops=2_000, warmup=10, durable=False,
                 probes=mixes.KNOWN_DEFECTS),
        Workload("write_mix", mixes.write_mix, ops=8_000, warmup=20, durable=True),
    )
}


@dataclass(frozen=True)
class Sample:
    label: str
    read: bool
    ok: bool
    seconds: float  # raw wall time
    norm: float  # seconds on the reference host (hostspeed)


@dataclass
class LoopResult:
    """What one timed loop did, with each timed op's raw and normalised time."""

    attempted: int = 0
    correct: int = 0
    writes: int = 0
    user_rows_written: int = 0
    op_seconds: float = 0.0  # raw
    samples: list[Sample] = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)  # label -> count
    host_kernel_ms: float = 0.0  # median host-speed kernel time during the loop
    cache_delta: dict = field(default_factory=dict)
    memo_delta: dict = field(default_factory=dict)
    acked: list = field(default_factory=list)


class Checker:
    """Checks each op's outcome against the reference, in op order."""

    def __init__(self, reference, cache_answers: bool) -> None:
        self.reference = reference
        self._answers: dict | None = {} if cache_answers else None

    def expected(self, op):
        if self._answers is None:
            return op.template.answer(self.reference, *op.params)
        key = (op.template.name, op.params)
        if key not in self._answers:
            self._answers[key] = op.template.answer(self.reference, *op.params)
        return self._answers[key]

    def __call__(self, op, rows, error) -> bool:
        if error is not None:
            return False
        if op.kind == "read":
            try:
                return bag_of(rows, op.template.columns) == self.expected(op)
            except KeyError:
                return False
        self.reference.write(op.relation, op.inserts, op.deletes)
        return True


def execute(est, op, sql):
    if op.kind == "read":
        return est.query(sql, dataset="shop").rows
    if op.kind == "insert":
        est.insert(op.relation, list(op.inserts))
    elif op.kind == "delete":
        est.delete(op.relation, list(op.deletes))
    else:
        est.update(op.relation, list(op.deletes), list(op.inserts))
    return None


def _counters(est):
    from repro.core import memo_stats

    cache = est.cache_stats()
    return ({k: cache[k] for k in ("hits", "misses", "evictions", "scoped_invalidations")},
            {name: (s["hits"], s["misses"]) for name, s in memo_stats().items()})


def drive(est, ops, workload: Workload, seconds: float, checker: Checker, recorder=None) -> LoopResult:
    """Run ops until ``seconds`` of raw op time have been measured after warm-up.

    Host-speed kernel samples run between timed ops, at least every
    ``SAMPLE_GAP_SECONDS`` of op time, and at the start and end of the loop.
    """
    out = LoopResult()
    source = iter(ops) if workload.durable else itertools.cycle(ops)
    before = None
    speed = HostSpeed()
    timed: list[tuple[mixes.Op, float, bool, float]] = []  # op, start, ok, seconds
    since_sample = 0.0
    for n, op in enumerate(source):
        if n == workload.warmup:
            before = _counters(est)
            if recorder is not None:
                recorder.reset()
            speed.sample(NEIGHBOURS)
        sql = op.sql if op.kind == "read" else None
        if recorder is not None:
            recorder.op = n
        error = rows = None
        started = time.perf_counter()
        try:
            rows = execute(est, op, sql)
        except Exception as exc:  # a raised op is a failed op, never the end of the run
            error = exc
        elapsed = time.perf_counter() - started
        ok = checker(op, rows, error)
        if ok and op.kind != "read":
            out.acked.append(op)
        if n < workload.warmup:
            continue
        timed.append((op, started, ok, elapsed))
        out.attempted += 1
        out.op_seconds += elapsed
        if op.kind != "read":
            out.writes += 1
            out.user_rows_written += len(op.inserts) + len(op.deletes)
        if ok:
            out.correct += 1
        else:
            out.failures[op.label + (f" ({type(error).__name__})" if error is not None else "")] += 1
        if out.op_seconds >= seconds:
            break
        since_sample += elapsed
        if since_sample >= SAMPLE_GAP_SECONDS:
            speed.sample()
            since_sample = 0.0
    speed.sample(NEIGHBOURS)
    out.samples = [Sample(op.label, op.kind == "read", ok, elapsed, speed.normalise(started, elapsed))
                   for op, started, ok, elapsed in timed]
    out.host_kernel_ms = speed.median_ms()
    if before is not None:
        cache, memos = _counters(est)
        out.cache_delta = {k: cache[k] - before[0][k] for k in cache}
        out.memo_delta = {k: (h - before[1].get(k, (0, 0))[0], m - before[1].get(k, (0, 0))[1])
                          for k, (h, m) in memos.items()}
    return out


def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def latencies(samples, read: bool, raw: bool = False) -> list[float]:
    """Normalised (or raw) latencies of the correctly answered reads or acknowledged writes."""
    return [s.seconds if raw else s.norm for s in samples if s.ok and s.read == read]


def goodput(samples, raw: bool = False) -> float:
    """Correct ops per second of (normalised or raw) op time."""
    seconds = sum(s.seconds if raw else s.norm for s in samples)
    return sum(s.ok for s in samples) / seconds if seconds else 0.0


def lost_writes(recovered, reference, acked) -> int:
    """Acknowledged writes whose rows the recovered stores do not hold."""
    from repro.stores.base import ScanRequest

    pg = recovered.catalog.store("pg")
    got = Counter(purchase_key(r) for r in pg.execute(ScanRequest("purchases")).rows)
    missing, extra = reference.purchases - got, got - reference.purchases
    users = {r["uid"]: r for r in pg.execute(ScanRequest("users")).rows}
    lost = 0
    for op in acked:
        if op.relation == "purchases":
            lost += any(purchase_key(r) in missing for r in op.inserts) or any(
                purchase_key(r) in extra for r in op.deletes)
        else:
            lost += any(users.get(r["uid"]) != reference.users.get(r["uid"]) for r in op.inserts)
    return lost


def directory_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


@dataclass
class Run:
    """One set-up plus timed loop, with its recovery check when durable."""

    loop: LoopResult
    recovery_s: float = 0.0
    lost: int = 0
    disk_bytes: int = 0
    known_defects: list[str] = field(default_factory=list)  # wrong probe answers


def run_once(workload, market, ops, seconds, deploy: Callable, path: Path, recorder=None) -> Run:
    from deployment import recover_durable
    from repro.core import clear_memos

    est = deploy(path)
    reference = Reference(market.users, market.purchases, market.visits, market.carts)
    clear_memos()
    if recorder is not None:
        for name in layers.install(recorder):
            print(f"unhooked (moved or renamed): {name}")
    try:
        loop = drive(est, ops, workload, seconds,
                     Checker(reference, cache_answers=not workload.durable), recorder)
    finally:
        if recorder is not None:
            recorder.uninstall()
    result = Run(loop, known_defects=probe_known_defects(est, reference, workload.probes))
    if workload.durable:
        del est
        gc.collect()
        started = time.perf_counter()
        recovered = recover_durable(str(path))
        result.recovery_s = time.perf_counter() - started
        result.lost = lost_writes(recovered, reference, loop.acked)
        result.disk_bytes = directory_bytes(path)
    return result


def probe_known_defects(est, reference, templates) -> list[str]:
    """Run each known-defect template once, untimed; describe the wrong answers."""
    wrong = []
    for template in templates:
        expected = template.answer(reference)
        try:
            got = bag_of(est.query(template.sql, dataset="shop").rows, template.columns)
        except Exception as exc:  # a raised probe is a wrong answer, never the end of the run
            wrong.append(f"{template.name}: raised {type(exc).__name__}")
            continue
        if got != expected:
            wrong.append(f"{template.name}: {sum(got.values())} rows, reference {sum(expected.values())}")
    return wrong


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Measure the program as shipped: no inherited mode switches.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the measured package is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import deployment
    from repro import Estocada
    from repro.stores.segment import DurableBacking

    failures = self_check()
    if failures:
        print(f"error: reference self-check failed: {failures}", file=sys.stderr)
        return 3

    workload = WORKLOADS[args.workload]
    market = deployment.generate(args.seed)
    ops = workload.draw(market, args.seed, workload.ops)
    print(f"workload {workload.name} seed {args.seed}: {len(ops)} ops drawn, sizes {deployment.SIZES}")
    print(f"executor_config {json.dumps(dict(Estocada().executor_config()))}")
    if workload.durable:
        sync = inspect.signature(DurableBacking).parameters["sync"].default
        print(f"durable: fsync per acknowledged store write = {sync}")

    def deploy(path: Path):
        if not workload.durable:
            return deployment.deploy_shop(market)
        shutil.rmtree(path, ignore_errors=True)
        return deployment.deploy_durable(market, str(path))

    workdir = SCRATCH / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        measure = traced if args.trace else untraced
        metrics, run = measure(workload, market, ops, args.seconds, deploy, workdir, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    loop = run.loop
    by_label: dict[str, list[Sample]] = {}
    for sample in loop.samples:
        if sample.ok:
            by_label.setdefault(sample.label, []).append(sample)
    for label, samples in sorted(by_label.items()):
        print(f"template {label}: {len(samples)} correct, p50 "
              f"{statistics.median(s.norm for s in samples) * 1000:.3f} ms "
              f"(raw {statistics.median(s.seconds for s in samples) * 1000:.3f} ms)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for label, count in sorted(loop.failures.items()):
        print(f"failed {label}: {count}")
    if run.lost:
        print(f"failed: {run.lost} acknowledged writes missing after recovery")
    for wrong in run.known_defects:
        print(f"known defect (ROADMAP item 1), untimed probe: {wrong}")
    result = {
        "correct": not loop.failures and run.lost == 0 and loop.attempted > 0,
        "attempted": loop.attempted,
        "failed": loop.attempted - loop.correct + run.lost,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def error_rate(run: Run) -> float:
    return (run.loop.attempted - run.loop.correct + run.lost) / run.loop.attempted


def untraced(workload, market, ops, seconds, deploy, workdir, seed):
    """End-to-end metrics: the median of several set-ups, then one timed loop."""
    setup, raw_setup = [], []
    for i in range(SETUPS):
        gc.collect()
        speed = HostSpeed()
        speed.sample(NEIGHBOURS)
        started = time.perf_counter()
        est = deploy(workdir / f"setup{i}")
        elapsed = time.perf_counter() - started
        speed.sample(NEIGHBOURS)
        raw_setup.append(elapsed)
        setup.append(speed.normalise(started, elapsed))
        del est
        shutil.rmtree(workdir / f"setup{i}", ignore_errors=True)
    gc.collect()
    run = run_once(workload, market, ops, seconds, deploy, workdir / "run")
    loop = run.loop
    reads, writes = latencies(loop.samples, read=True), latencies(loop.samples, read=False)
    raw_reads = latencies(loop.samples, read=True, raw=True)
    print(f"timed: {loop.attempted} ops, {len(reads)} correct reads, {len(writes)} acknowledged writes, "
          f"{loop.op_seconds:.3f} s of raw op time; host-speed kernel median {loop.host_kernel_ms:.4f} ms")
    print(f"raw: setup_s {statistics.median(raw_setup):.6g}, ops_per_s {goodput(loop.samples, raw=True):.6g}, "
          f"read_p50_ms {percentile(raw_reads, 50) * 1000:.6g}, "
          f"read_p95_ms {percentile(raw_reads, 95) * 1000:.6g}")
    if writes:
        print(f"write_p50_ms {percentile(writes, 50) * 1000:.6g} ms")
        print(f"write_p95_ms {percentile(writes, 95) * 1000:.6g} ms")
    if workload.durable:
        print(f"recovery_s {run.recovery_s:.6g} s (raw)")
    print(f"error_rate {error_rate(run):.6g}")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (goodput(loop.samples), "1/s"),
        "read_p50_ms": (percentile(reads, 50) * 1000, "ms"),
        "read_p95_ms": (percentile(reads, 95) * 1000, "ms"),
        "correct_share": (1 - error_rate(run), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, run


def trace_extras(plain: Run, traced_run: Run) -> dict[str, tuple[float, str]]:
    """Tracing overhead, plus what only the untraced loop measures faithfully.

    Write latency and recovery exist only on a workload with writes, so they
    are reported here (0 elsewhere) rather than as end-to-end metrics, which
    every workload must report.  Goodputs and write latencies are normalised
    like the end-to-end metrics; recovery_s is raw.
    """
    plain_rate, traced_rate = goodput(plain.loop.samples), goodput(traced_run.loop.samples)
    writes = latencies(plain.loop.samples, read=False)
    return {
        "trace.untraced_ops_per_s": (plain_rate, "1/s"),
        "trace.traced_ops_per_s": (traced_rate, "1/s"),
        "trace.overhead_pct": ((plain_rate / traced_rate - 1) * 100 if traced_rate else 0.0, "%"),
        "estocada.write_p50_ms": (percentile(writes, 50) * 1000, "ms"),
        "estocada.write_p95_ms": (percentile(writes, 95) * 1000, "ms"),
        "estocada.error_rate": (error_rate(plain), "ratio"),
        "estocada.known_defect_wrong_answers": (len(plain.known_defects), "count"),
        "stores.segment.recovery_s": (plain.recovery_s, "s"),
    }


def traced(workload, market, ops, seconds, deploy, workdir, seed):
    """Per-layer metrics: an untraced loop, then a traced one on a fresh deployment."""
    # Two loops share the run's time, so a traced run lasts about as long as an untraced one.
    seconds /= 2
    plain = run_once(workload, market, ops, seconds, deploy, workdir / "plain")
    gc.collect()
    recorder = SpanRecorder()
    run = run_once(workload, market, ops, seconds, deploy, workdir / "traced", recorder)
    user_bytes = len(json.dumps(market.users)) + len(json.dumps(market.purchases))
    metrics = layers.layer_metrics(recorder, run.loop, run.disk_bytes, user_bytes)
    metrics.update(trace_extras(plain, run))
    kinds = {"all ops": lambda n: True, "reads": lambda n: ops[n % len(ops)].kind == "read",
             "writes": lambda n: ops[n % len(ops)].kind != "read"}
    for label, keep in kinds.items():
        top = layers.dominant(recorder, keep)
        total = sum(s for _, s in top)
        if total:
            print(f"self time by layer, {label}: "
                  + ", ".join(f"{name} {100 * s / total:.1f}%" for name, s in top[:6]))
    SCRATCH.mkdir(exist_ok=True)
    out = SCRATCH / f"spans-{workload.name}-{seed}.jsonl"
    recorder.dump(str(out))
    print(f"spans written to {out.relative_to(ROOT)}")
    return metrics, run


if __name__ == "__main__":
    sys.exit(main())
