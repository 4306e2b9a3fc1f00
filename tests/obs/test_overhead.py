"""Acceptance: observability must be near-free and semantically inert.

The ISSUE contract: with a registry installed, a scalar ingest of 100K
items is at most 3% slower than with no registry, and the resulting
estimates are bit-identical.  The instrumentation meets this by
recording counter *deltas* once per ingest call (never per item), so
the hot per-item path is untouched.

Two checks hold that contract without depending on machine noise:

* structural — a spy registry counts every registry call, and doubling
  the items of one ingest call must not add a single one;
* timed — the median over pairs of the observed/bare CPU-time ratio.
  ``time.process_time`` ignores time the process spends descheduled.
  The host's speed still drifts by tens of percent within a second, so
  each pair ingests the 100K items in slices, alternating bare and
  observed slice by slice: both sides of a pair see the same speeds.
  The observed side makes one ingest call per slice, so it pays the
  per-call recording cost more often than a single 100K call would.
"""

from __future__ import annotations

import statistics
import time

from repro.core.asketch import ASketch
from repro.obs import install_registry, uninstall_registry
from repro.obs.registry import MetricsRegistry
from repro.streams.zipf import zipf_stream

ITEMS = 100_000
PAIRS = 9
#: ~10 ms of scalar ingest per slice.
SLICES = 20


class SpyRegistry(MetricsRegistry):
    """A registry that counts every instrument lookup made on it."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def counter(self, name, **labels):
        self.calls += 1
        return super().counter(name, **labels)

    def gauge(self, name, **labels):
        self.calls += 1
        return super().gauge(name, **labels)

    def histogram(self, name, *args, **labels):
        self.calls += 1
        return super().histogram(name, *args, **labels)


def _build() -> ASketch:
    return ASketch(total_bytes=32 * 1024, filter_items=32, seed=9)


def _timed_ingest(asketch: ASketch, keys, observed: bool) -> float:
    if observed:
        install_registry()
    try:
        start = time.process_time()
        asketch.process_stream(keys)
        return time.process_time() - start
    finally:
        if observed:
            uninstall_registry()


def _paired_ratio(keys) -> tuple[float, ASketch, ASketch]:
    """Observed/bare CPU time of one 100K ingest each, sliced and
    interleaved; alternating which side runs first cancels order
    effects."""
    sides = {False: _build(), True: _build()}
    seconds = {False: 0.0, True: 0.0}
    for index in range(SLICES):
        part = keys[index * ITEMS // SLICES : (index + 1) * ITEMS // SLICES]
        for observed in (False, True) if index % 2 else (True, False):
            seconds[observed] += _timed_ingest(sides[observed], part, observed)
    return seconds[True] / seconds[False], sides[False], sides[True]


def _registry_calls(keys) -> int:
    spy = install_registry(SpyRegistry())
    try:
        _build().process_stream(keys)
    finally:
        uninstall_registry()
    return spy.calls


class TestOverheadBudget:
    def test_no_registry_call_per_item(self):
        keys = zipf_stream(2 * ITEMS, 25_000, 1.5, seed=31).keys
        calls = _registry_calls(keys[:ITEMS])
        assert calls > 0, "the ingest call recorded nothing"
        assert _registry_calls(keys) == calls

    def test_scalar_ingest_within_three_percent_and_bit_identical(self):
        keys = zipf_stream(ITEMS, 25_000, 1.5, seed=31).keys
        ratios = []
        for _ in range(PAIRS):
            ratio, bare, observed = _paired_ratio(keys)
            ratios.append(ratio)
            assert observed.state().equals(bare.state())
        assert observed.query_batch(keys[:100]) == bare.query_batch(
            keys[:100]
        )
        ratio = statistics.median(ratios)
        assert ratio <= 1.03, (
            f"median observed/bare CPU-time ratio {ratio:.3f} > 1.03 "
            f"(pairs: {', '.join(f'{r:.3f}' for r in ratios)})"
        )
