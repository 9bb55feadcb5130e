"""Named counters and phase timers — the metrics half of :mod:`repro.obs`.

The shared metrics layer for the whole toolkit.  Simulator runs and
the long-running analysis searches (Karp–Miller, Pottier completion,
the Lemma 5.4 saturation sequence, the certificate pipelines) all
report through one process-wide registry of named
:class:`Instrumentation` objects, so a benchmark or a ``--json``
artifact can capture *work done* (nodes expanded, leaps
rejected, rounds saturated) next to wall-clock time.

The conventions keep the hot paths cheap:

* per-*interaction* work is never counted one increment at a time;
  the run loops add aggregates (``interactions``, ``silent_checks``)
  once per run or per leap;
* schedulers reset their instrumentation in ``reset``, so counters
  describe the most recent run;
* results carry an immutable :class:`InstrumentationSnapshot`, not the
  live object, so stored results do not mutate under later runs.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

__all__ = [
    "Histogram",
    "HistogramSnapshot",
    "Instrumentation",
    "InstrumentationSnapshot",
    "get_metrics",
    "registry_snapshot",
    "clear_registry",
]

# ----------------------------------------------------------------------
# Bounded-bucket histograms
# ----------------------------------------------------------------------

# Power-of-two bucket boundaries: bucket i holds values in
# (2^(i-1), 2^i].  64 buckets cover every float the timers produce
# (microsecond latencies up to ~584 years), so the memory cost of a
# histogram is one fixed 64-slot list — bounded by construction, which
# is what lets run manifests and worker envelopes carry distributions
# without any reservoir or rescaling logic.
HISTOGRAM_BUCKETS = 64


def _bucket_index(value: float) -> int:
    """The bucket whose upper bound 2^i first covers ``value``."""
    if value <= 1.0:
        return 0
    # frexp(v) = (m, e) with v = m * 2^e and 0.5 <= m < 1, so e is the
    # index of the first power of two >= v (exact powers land on their
    # own boundary because m == 0.5 gives e = log2(v) + 1 - corrected
    # below).
    mantissa, exponent = math.frexp(value)
    if mantissa == 0.5:
        exponent -= 1
    return min(HISTOGRAM_BUCKETS - 1, exponent)


@dataclass(frozen=True)
class HistogramSnapshot:
    """An immutable bounded-bucket distribution at one instant.

    ``buckets`` is sparse: index -> count for non-empty buckets only.
    Quantiles are bucket upper bounds (2^i), so any reported pXX is
    within one power of two of the true value — the precision the
    bounded-bucket contract buys.
    """

    count: int = 0
    total: float = 0.0
    min_value: Optional[float] = None
    max_value: Optional[float] = None
    buckets: Mapping[int, int] = field(default_factory=dict)

    def quantile(self, q: float) -> Optional[float]:
        """The upper bound of the bucket containing the q-quantile."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        target = q * self.count
        cumulative = 0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= target:
                return float(2 ** index)
        return float(2 ** max(self.buckets))

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form for JSON reports (p50/p90/p99 precomputed)."""
        return {
            "count": self.count,
            "total": round(self.total, 6),
            "min": self.min_value,
            "max": self.max_value,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "buckets": {str(i): c for i, c in sorted(self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "HistogramSnapshot":
        """Rebuild from :meth:`as_dict` output (worker envelopes)."""
        return cls(
            count=int(payload.get("count", 0)),
            total=float(payload.get("total", 0.0)),
            min_value=payload.get("min"),
            max_value=payload.get("max"),
            buckets={int(i): int(c) for i, c in payload.get("buckets", {}).items()},
        )


class Histogram:
    """A mutable bounded-bucket histogram (see :class:`HistogramSnapshot`).

    >>> h = Histogram()
    >>> for v in (1, 3, 5, 100):
    ...     h.observe(v)
    >>> h.snapshot().count
    4
    """

    __slots__ = ("counts", "count", "total", "min_value", "max_value")

    def __init__(self) -> None:
        self.counts = [0] * HISTOGRAM_BUCKETS
        self.count = 0
        self.total = 0.0
        self.min_value: Optional[float] = None
        self.max_value: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one sample (negative values clamp to the zero bucket)."""
        value = float(value)
        if value < 0.0 or value != value:
            value = 0.0
        self.counts[_bucket_index(value)] += 1
        self.count += 1
        self.total += value
        self.min_value = value if self.min_value is None else min(self.min_value, value)
        self.max_value = value if self.max_value is None else max(self.max_value, value)

    def merge(self, other: "HistogramSnapshot") -> None:
        """Fold a snapshot in (cross-worker aggregation: counts add)."""
        for index, count in other.buckets.items():
            self.counts[min(HISTOGRAM_BUCKETS - 1, int(index))] += count
        self.count += other.count
        self.total += other.total
        for bound, pick in (("min_value", min), ("max_value", max)):
            theirs = getattr(other, bound)
            if theirs is not None:
                mine = getattr(self, bound)
                setattr(self, bound, theirs if mine is None else pick(mine, theirs))

    def snapshot(self) -> HistogramSnapshot:
        return HistogramSnapshot(
            count=self.count,
            total=self.total,
            min_value=self.min_value,
            max_value=self.max_value,
            buckets={i: c for i, c in enumerate(self.counts) if c},
        )


@dataclass(frozen=True)
class InstrumentationSnapshot:
    """An immutable copy of counters, timers and histograms at one instant."""

    counters: Mapping[str, int] = field(default_factory=dict)
    timers: Mapping[str, float] = field(default_factory=dict)
    histograms: Mapping[str, HistogramSnapshot] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form for JSON reports.

        The ``histograms`` key appears only when at least one histogram
        was observed, so artifacts produced by histogram-free runs stay
        byte-identical to the pre-histogram schema.
        """
        payload: Dict[str, Any] = {
            "counters": dict(self.counters),
            "timers": dict(self.timers),
        }
        if self.histograms:
            payload["histograms"] = {
                name: hist.as_dict() for name, hist in self.histograms.items()
            }
        return payload

    def counter(self, name: str) -> int:
        """The value of one counter (0 when never incremented)."""
        return self.counters.get(name, 0)

    def histogram(self, name: str) -> HistogramSnapshot:
        """One named histogram (an empty snapshot when never observed)."""
        return self.histograms.get(name, HistogramSnapshot())


class Instrumentation:
    """Named counters plus wall-clock phase timers.

    >>> inst = Instrumentation()
    >>> inst.add("leaps")
    >>> inst.add("interactions", 500)
    >>> with inst.phase("run"):
    ...     pass
    >>> inst.snapshot().counter("interactions")
    500
    """

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.timers: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self._phase_depth: Dict[str, int] = {}

    def add(self, name: str, value: int = 1) -> None:
        """Increment a counter (created at zero on first use)."""
        self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the named bounded-bucket histogram."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Accumulate wall-clock time of the enclosed block under ``name``.

        Re-entrant: when a phase of the same name is opened inside an
        active one, only the *outermost* block accumulates time.  (The
        naive implementation added the inner elapsed time twice — once
        on the inner exit and again as part of the outer exit.)
        """
        depth = self._phase_depth.get(name, 0)
        self._phase_depth[name] = depth + 1
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            if depth == 0:
                del self._phase_depth[name]
                self.timers[name] = self.timers.get(name, 0.0) + elapsed
            else:
                self._phase_depth[name] = depth

    def clear(self) -> None:
        """Drop all counters and timers (called by scheduler ``reset``)."""
        self.counters.clear()
        self.timers.clear()
        self.histograms.clear()
        self._phase_depth.clear()

    def merge(self, other: "InstrumentationSnapshot") -> None:
        """Fold a snapshot into this object (ensemble aggregation)."""
        for name, value in other.counters.items():
            self.add(name, value)
        for name, value in other.timers.items():
            self.timers[name] = self.timers.get(name, 0.0) + value
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = Histogram()
            mine.merge(hist)

    def snapshot(self) -> InstrumentationSnapshot:
        """An immutable copy of the current state."""
        return InstrumentationSnapshot(
            counters=dict(self.counters),
            timers=dict(self.timers),
            histograms={
                name: hist.snapshot() for name, hist in self.histograms.items()
            },
        )


# ----------------------------------------------------------------------
# The process-wide registry
# ----------------------------------------------------------------------

_REGISTRY: Dict[str, Instrumentation] = {}


def get_metrics(name: str) -> Instrumentation:
    """The registry's :class:`Instrumentation` for ``name`` (created lazily).

    Subsystems that have no natural object to hang instrumentation on
    (module-level search functions) report here; the tracer folds
    finished span timings into the ``"spans"`` entry so that even an
    untraced-but-instrumented process can see where time went.
    """
    instrumentation = _REGISTRY.get(name)
    if instrumentation is None:
        instrumentation = _REGISTRY[name] = Instrumentation()
    return instrumentation


def registry_snapshot() -> Dict[str, InstrumentationSnapshot]:
    """Immutable snapshots of every registered instrumentation object."""
    return {name: inst.snapshot() for name, inst in _REGISTRY.items()}


def clear_registry() -> None:
    """Reset every registered instrumentation object (test isolation)."""
    for instrumentation in _REGISTRY.values():
        instrumentation.clear()
