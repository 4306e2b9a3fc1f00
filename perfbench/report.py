"""Turn a pass's raw samples into the named metrics of BENCHMARK.json."""

from __future__ import annotations

import statistics

from measure import (ROUND_SHARE, ROUND_TAIL, Ledger, median, round_tail,
                     sustained_latency, sustained_rate)
from repro.hardware.costs import CostModel
from workloads import Samples, Workload

COST_MODEL = CostModel()


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _ingest_rate(samples: Samples) -> float:
    return sum(samples.ingest_items) / sum(samples.ingest_wall_s)


def end_to_end(samples: Samples, ledger: Ledger, peak_rss_mb: float) -> dict:
    """The metrics a user of the library sees, from the untraced pass.

    Each timing metric is first taken per round (a round's throughput,
    its median call latency, its tail call latency), and the run reports
    the level :data:`~measure.ROUND_SHARE` of its rounds meet.  The
    shared host the benchmark was built on alternates, every few
    seconds, between a contended speed and bursts up to half again
    faster; how much of a run the bursts cover varies from run to run,
    so a mean or median over rounds follows the bursts, while the level
    nine rounds in ten meet is the contended speed and repeats.
    """
    chunk_s = samples.chunk_s
    query_s = samples.query_s
    return {
        "setup_s": _metric(median(samples.setup_s), "s"),
        "ingest_items_per_s": _metric(sustained_rate([
            items / wall for items, wall in zip(samples.ingest_items, samples.ingest_wall_s)
        ]), "items/s"),
        "chunk_ms_p50": _metric(1e3 * sustained_latency([median(c) for c in chunk_s]), "ms"),
        "chunk_ms_tail": _metric(1e3 * sustained_latency([round_tail(c) for c in chunk_s]), "ms"),
        "query_keys_per_s": _metric(sustained_rate([
            keys / sum(calls) for keys, calls in zip(samples.query_keys, query_s)
        ]), "keys/s"),
        "query_ms_p50": _metric(1e3 * sustained_latency([median(c) for c in query_s]), "ms"),
        "query_ms_tail": _metric(1e3 * sustained_latency([round_tail(c) for c in query_s]), "ms"),
        "hh_are": _metric(statistics.fmean(a.hh_are for a in samples.accuracy), "ratio"),
        "misclassified": _metric(
            statistics.fmean(a.misclassified for a in samples.accuracy), "count"
        ),
        "mean_over_error": _metric(
            statistics.fmean(a.mean_over_error for a in samples.accuracy), "count"
        ),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "ok_ratio": _metric(ledger.ok_ratio, "ratio"),
    }


def per_layer(workload: Workload, plain: Samples, traced: Samples, tracer) -> dict:
    """Layer metrics: self/total seconds of the traced pass, operation
    counts of the untraced pass, and the workload-specific breakdowns."""
    self_s = tracer.self_s
    total_s = tracer.total_s
    ops = plain.ops
    items = max(ops.items, 1)
    traced_wall = sum(traced.ingest_wall_s)
    plain_rate = _ingest_rate(plain)
    model_cycles = COST_MODEL.cycles_per_processed_item(ops, plain.sketch_bytes)
    extra = traced.extra
    parallel = workload.name == "parallel_2w"
    pull_gap = extra.get("pull_gap_s", 0.0)
    route = total_s["sharding.owners_of"]
    put = total_s["parallel.ring_put"]
    checkpoints = tracer.calls["reliability.checkpoint_save"]
    metrics = {
        # core.staged
        "staged.process_batch.self_s": _metric(self_s["staged.process_batch"], "s"),
        "staged.query_batch.self_s": _metric(self_s["staged.query_batch"], "s"),
        "staged.filter_hit_ratio": _metric(
            1.0 - plain.overflow_tuples / max(plain.ingested_mass, 1), "ratio"
        ),
        "staged.exchanges": _metric(plain.exchanges, "count"),
        "staged.model_cycles_per_item": _metric(model_cycles, "cycles"),
        "staged.model_ns_per_item": _metric(1e9 * model_cycles / COST_MODEL.clock_hz, "ns"),
        "staged.measured_ns_per_item": _metric(1e9 / plain_rate, "ns"),
        # core.filters
        "filters.add_many_if_present.s": _metric(total_s["filters.add_many_if_present"], "s"),
        "filters.lookup_many.s": _metric(total_s["filters.lookup_many"], "s"),
        "filters.probes": _metric(ops.filter_probes, "count"),
        "filters.heap_fixup_levels": _metric(ops.heap_fixup_levels, "count"),
        # kernels
        "kernels.membership_probe.s": _metric(total_s["kernels.membership_probe"], "s"),
        "kernels.cm_update_weighted.s": _metric(total_s["kernels.cm_update_weighted"], "s"),
        "kernels.cm_estimate.s": _metric(total_s["kernels.cm_estimate"], "s"),
        "kernels.exchange_candidates.s": _metric(total_s["kernels.exchange_candidates"], "s"),
        # sketches.count_min
        "count_min.update_batch_weighted.self_s": _metric(
            self_s["count_min.update_batch_weighted"], "s"
        ),
        "count_min.estimate_batch.self_s": _metric(self_s["count_min.estimate_batch"], "s"),
        "count_min.hash_evals_per_item": _metric(ops.hash_evals / items, "count"),
        # runtime.engine
        "engine.run.self_s": _metric(self_s["engine.run"], "s"),
        # runtime.reliability / persistence
        "reliability.run.self_s": _metric(self_s["reliability.run"], "s"),
        "reliability.checkpoint_save.s": _metric(total_s["reliability.checkpoint_save"], "s"),
        "reliability.checkpoint_save.per_call_s": _metric(
            total_s["reliability.checkpoint_save"] / checkpoints if checkpoints else 0.0, "s"
        ),
        "reliability.checkpoints": _metric(checkpoints, "count"),
        "reliability.checkpoint_bytes": _metric(plain.extra.get("checkpoint_bytes", 0.0), "B"),
        "reliability.load_latest.s": _metric(total_s["reliability.load_latest"], "s"),
        # runtime.sharding
        "sharding.owners_of.s": _metric(route, "s"),
        "sharding.merge.s": _metric(total_s["sharding.merge"], "s"),
        "sharding.from_state.s": _metric(total_s["sharding.from_state"], "s"),
        "sharding.reference_ingest.s": _metric(extra.get("reference_s", 0.0), "s"),
        "sharding.shard_skew": _metric(
            statistics.fmean(extra["shard_skew"]) if parallel else 0.0, "ratio"
        ),
        # runtime.parallel
        "parallel.start_workers.s": _metric(total_s["parallel.start_workers"], "s"),
        "parallel.pull_gap_s": _metric(pull_gap, "s"),
        "parallel.ring_put.s": _metric(put, "s"),
        "parallel.ring_put_share": _metric(put / traced_wall if parallel else 0.0, "ratio"),
        "parallel.ring_put_timeouts": _metric(
            tracer.events["parallel.ring_put_timeouts"], "count"
        ),
        "parallel.parent_self_s": _metric(pull_gap - route - put if parallel else 0.0, "s"),
        "parallel.drain_s": _metric(extra.get("drain_s", 0.0), "s"),
        "parallel.worker_filter_hit_ratio": _metric(
            extra["worker_hits"] / extra["worker_items"] if parallel else 0.0, "ratio"
        ),
        "parallel.snapshot_bytes_derived": _metric(extra.get("snapshot_bytes", 0.0), "B"),
        "parallel.throughput_vs_reference": _metric(
            plain_rate * plain.extra["reference_s"] / sum(plain.ingest_items)
            if parallel else 0.0,
            "ratio",
        ),
        # obs
        "trace.unattributed_share": _metric(
            self_s["bench.ingest"] / total_s["bench.ingest"], "ratio"
        ),
        "trace.accounted_over_untraced": _metric(
            (total_s["bench.ingest"] - total_s["parallel.start_workers"])
            / sum(plain.ingest_wall_s),
            "ratio",
        ),
        "trace_overhead_ratio": _metric(plain_rate / _ingest_rate(traced), "ratio"),
    }
    return metrics


def describe(workload: Workload, samples: Samples, metrics: dict) -> list[str]:
    """Human-readable lines printed above the JSON result."""
    rounds = len(samples.chunk_s)
    chunks = sum(len(c) for c in samples.chunk_s)
    queries = sum(len(c) for c in samples.query_s)
    lines = [
        f"workload {workload.name}: {rounds} rounds over "
        f"{workload.cases} streams of {workload.items} items (skew {workload.skew})",
        f"timings: per round, then the level {ROUND_SHARE:.0%} of {rounds} rounds meet; "
        f"_tail is a round's p{ROUND_TAIL:g} ({chunks} chunk calls, {queries} query calls)",
    ]
    width = max(len(name) for name in metrics)
    for name, metric in metrics.items():
        lines.append(f"  {name:<{width}}  {metric['value']:.6g} {metric['unit']}")
    return lines
