"""Tests for the FrequencySketch base-class plumbing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hardware.costs import OpCounters
from repro.sketches.base import (
    CELL_BYTES,
    FrequencySketch,
    row_width_for_bytes,
)
from repro.sketches.count_min import CountMinSketch
from repro.sketches.count_sketch import CountSketch
from repro.sketches.fcm import FrequencyAwareCountMin
from repro.sketches.salsa import SalsaCountMin
from repro.sketches.sf_sketch import SFSketch


class MinimalSketch(FrequencySketch):
    """Smallest possible conforming implementation (exact dict counts)."""

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.ops = OpCounters()

    @property
    def size_bytes(self) -> int:
        return 64

    def update(self, key: int, amount: int = 1) -> int:
        self.counts[key] = self.counts.get(key, 0) + amount
        return self.counts[key]

    def estimate(self, key: int) -> int:
        return self.counts.get(key, 0)


class TestDefaults:
    def test_default_update_batch_loops(self):
        sketch = MinimalSketch()
        sketch.update_batch(np.array([1, 1, 2]))
        assert sketch.counts == {1: 2, 2: 1}

    def test_default_estimate_batch_loops(self):
        sketch = MinimalSketch()
        sketch.update(5, 3)
        assert sketch.estimate_batch([5, 6]) == [3, 0]

    def test_default_update_batch_weighted_returns_post_batch_estimates(self):
        sketch = MinimalSketch()
        estimates = sketch.update_batch_weighted(
            np.array([1, 2, 1]), np.array([2, 5, 4])
        )
        assert estimates.dtype == np.int64
        assert estimates.tolist() == [6, 5, 6]

    def test_process_stream_charges_items(self):
        sketch = MinimalSketch()
        sketch.process_stream(np.array([1, 2, 3]))
        assert sketch.ops.items == 3
        assert sketch.counts == {1: 1, 2: 1, 3: 1}


class TestSizing:
    def test_cell_bytes_is_paper_accounting(self):
        assert CELL_BYTES == 4

    @pytest.mark.parametrize(
        "total,hashes,expected",
        [(128 * 1024, 8, 4096), (16 * 1024, 8, 512), (64, 2, 8)],
    )
    def test_row_width_for_bytes(self, total, hashes, expected):
        assert row_width_for_bytes(total, hashes) == expected

    def test_invalid_hash_count(self):
        with pytest.raises(ConfigurationError):
            row_width_for_bytes(1024, 0)


#: Every back stage a staged synopsis can sit on, small enough that the
#: batch below collides in every row.
BACK_STAGES = {
    "count-min": lambda: CountMinSketch(4, row_width=37, seed=5),
    "count-min-hash-array": lambda: CountMinSketch(
        4, row_width=37, seed=5, hash_family="tabulation"
    ),
    "count-min-conservative": lambda: CountMinSketch(
        4, row_width=37, seed=5, conservative=True
    ),
    "count-sketch": lambda: CountSketch(5, row_width=37, seed=5),
    "salsa": lambda: SalsaCountMin(4, num_slots=64, seed=5),
    "sf-sketch": lambda: SFSketch(4, row_width=37, seed=5),
    "fcm": lambda: FrequencyAwareCountMin(8, row_width=37, seed=5),
}


class TestWeightedBatchContract:
    """``update_batch_weighted`` returns each key's post-batch estimate
    and charges exactly the update-then-``estimate_batch`` pair, for
    every back stage (fast paths pinned against the base-class loop)."""

    @pytest.mark.parametrize("name", sorted(BACK_STAGES))
    def test_matches_update_then_estimate_batch(self, name):
        rng = np.random.default_rng(17)
        # Repeated keys and a narrow table: collisions inside one batch.
        keys = rng.integers(0, 300, size=400).astype(np.int64)
        amounts = rng.integers(1, 6, size=400).astype(np.int64)
        fast, reference = BACK_STAGES[name](), BACK_STAGES[name]()
        fast.update_batch_weighted(keys[:100], amounts[:100])
        FrequencySketch.update_batch_weighted(
            reference, keys[:100], amounts[:100]
        )

        estimates = fast.update_batch_weighted(keys[100:], amounts[100:])
        expected = FrequencySketch.update_batch_weighted(
            reference, keys[100:], amounts[100:]
        )

        assert isinstance(estimates, np.ndarray)
        assert estimates.dtype == np.int64
        assert estimates.tolist() == expected.tolist()
        assert fast.ops == reference.ops
        assert fast.state().equals(reference.state())
        assert estimates.tolist() == fast.estimate_batch(keys[100:])

    @pytest.mark.parametrize("name", sorted(BACK_STAGES))
    def test_empty_batch(self, name):
        sketch = BACK_STAGES[name]()
        estimates = sketch.update_batch_weighted(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert estimates.shape == (0,)
        assert sketch.ops == OpCounters()
