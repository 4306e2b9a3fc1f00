"""Statistics, accuracy metrics and correctness bookkeeping.

Everything here runs outside the timed windows: the streams' exact
counts come from ``numpy.bincount`` over the generated keys, never from
the library under test.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

import numpy as np

#: Heavy-hitter set size for ``hh_are`` / ``misclassified`` (paper Fig. 6-7).
#: The paper scores the top 100; with four shards x 32 filter slots the
#: top 100 are answered exactly and score 0 on most streams, so the set
#: reaches past every filter into the sketch-resident heavy keys.
HEAVY_K = 1000
#: Timing metrics report the level this share of a run's rounds meets.
ROUND_SHARE = 0.9
#: Percentile of a round's call latencies that its ``_tail`` reports.
ROUND_TAIL = 95.0


def median(values) -> float:
    return float(statistics.median(values))


def sustained_rate(per_round) -> float:
    """The rate that :data:`ROUND_SHARE` of the rounds reach or beat."""
    return float(np.percentile(per_round, 100.0 * (1.0 - ROUND_SHARE)))


def sustained_latency(per_round) -> float:
    """The latency that :data:`ROUND_SHARE` of the rounds stay within."""
    return float(np.percentile(per_round, 100.0 * ROUND_SHARE))


def round_tail(latencies) -> float:
    """The :data:`ROUND_TAIL` percentile of one round's call latencies."""
    return float(np.percentile(latencies, ROUND_TAIL))


def exact_counts(keys: np.ndarray, domain: int) -> np.ndarray:
    """True count of every key id in ``[0, domain)``."""
    return np.bincount(keys, minlength=domain).astype(np.int64)


@dataclass
class Accuracy:
    """The paper's accuracy metrics for one synopsis over one stream."""

    hh_are: float
    misclassified: int
    mean_over_error: float


def accuracy(keys: np.ndarray, truth: np.ndarray, estimates: np.ndarray) -> Accuracy:
    """Accuracy of ``estimates`` for the distinct ``keys`` of a stream.

    * ``hh_are``: mean relative error over the true top-:data:`HEAVY_K`
      keys (ties broken by key id);
    * ``misclassified``: keys estimated at or above the true top-k
      cut-off count whose true count is below it;
    * ``mean_over_error``: mean of ``estimate - truth`` over all
      distinct keys.
    """
    order = np.lexsort((keys, -truth))
    top = order[:HEAVY_K]
    cutoff = int(truth[top[-1]])
    heavy_error = np.abs(estimates[top] - truth[top]) / truth[top]
    misclassified = int(np.count_nonzero((estimates >= cutoff) & (truth < cutoff)))
    return Accuracy(
        hh_are=float(heavy_error.mean()),
        misclassified=misclassified,
        mean_over_error=float((estimates - truth).mean()),
    )


@dataclass
class Ledger:
    """Operations and correctness checks attempted and failed in a run."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def operations(self, count: int) -> None:
        """Count operations that completed (a raised error ends the run)."""
        self.attempted += int(count)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    @property
    def ok_ratio(self) -> float:
        return (self.attempted - self.failed) / self.attempted
