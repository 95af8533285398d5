"""Unified metrics registry: counters, gauges and histograms.

Every sample is timestamped on the **simulated** clock — the registry holds
a :class:`~repro.nvbm.clock.SimClock` and stamps ``clock.now_ns`` at each
update.  There are deliberately no wall-clock reads anywhere in this
package: the paper's evaluation (Figs 3-11, Table 2) is a story of
simulated quantities, and mixing in host time would make the benchmark
envelope non-deterministic across machines.

Metric names are dot-separated (``device.writes``, ``pm.cow_copies``,
``replication.retries``); labels qualify one time series within a name
(``device=nvbm``, ``rank=3``, ``phase=solve``).  The full namespace is
documented in ``docs/observability.md``.
"""

from __future__ import annotations

import json
from dataclasses import fields
from numbers import Real
from typing import Any, Dict, IO, Iterator, List, Optional, Sequence, Tuple

#: Default histogram bucket upper bounds: powers of two, wide enough for
#: per-slot wear counts and protocol attempt counts alike.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(float(1 << i) for i in range(0, 21, 2))

LabelSet = Tuple[Tuple[str, str], ...]


def _labelset(labels: Dict[str, Any]) -> LabelSet:
    """Canonical (sorted, stringified) form of a label mapping."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Metric:
    """Shared bookkeeping: identity and last-update stamping."""

    kind = "metric"

    def __init__(self, name: str, labels: LabelSet,
                 registry: "MetricsRegistry"):
        self.name = name
        self.labels = labels
        self._registry = registry
        self.updated_ns: float = 0.0

    def _stamp(self) -> None:
        clock = self._registry.clock
        if clock is not None:
            self.updated_ns = clock.now_ns

    def sample(self) -> Dict[str, Any]:  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(_Metric):
    """Monotonically increasing count (accesses, copies, retries...)."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelSet,
                 registry: "MetricsRegistry"):
        super().__init__(name, labels, registry)
        self.value: float = 0

    def inc(self, v: float = 1) -> None:
        if v < 0:
            raise ValueError(f"counter {self.name} cannot decrease (v={v})")
        self.value += v
        self._stamp()

    def sample(self) -> Dict[str, Any]:
        return {"name": self.name, "type": self.kind,
                "labels": dict(self.labels), "value": self.value,
                "updated_ns": self.updated_ns}


class Gauge(_Metric):
    """Point-in-time value (free fraction, phase time, makespan)."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelSet,
                 registry: "MetricsRegistry"):
        super().__init__(name, labels, registry)
        self.value: float = 0

    def set(self, v: float) -> None:
        self.value = v
        self._stamp()

    def add(self, v: float) -> None:
        self.value += v
        self._stamp()

    def sample(self) -> Dict[str, Any]:
        return {"name": self.name, "type": self.kind,
                "labels": dict(self.labels), "value": self.value,
                "updated_ns": self.updated_ns}


class Histogram(_Metric):
    """Distribution over fixed bucket bounds (wear, attempts, sizes).

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``; one overflow
    bucket counts the rest.  Cumulative counts are computed on export.
    """

    kind = "histogram"

    def __init__(self, name: str, labels: LabelSet,
                 registry: "MetricsRegistry",
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, labels, registry)
        self.bounds: Tuple[float, ...] = tuple(sorted(buckets))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count: int = 0
        self.sum: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, v: float, n: int = 1) -> None:
        """Record ``n`` observations of value ``v``."""
        if n <= 0:
            return
        for i, bound in enumerate(self.bounds):
            if v <= bound:
                self.bucket_counts[i] += n
                break
        else:
            self.bucket_counts[-1] += n
        self.count += n
        self.sum += v * n
        self.min = v if self.min is None else min(self.min, v)
        self.max = v if self.max is None else max(self.max, v)
        self._stamp()

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def sample(self) -> Dict[str, Any]:
        return {"name": self.name, "type": self.kind,
                "labels": dict(self.labels),
                "count": self.count, "sum": self.sum,
                "min": self.min, "max": self.max,
                "buckets": [
                    {"le": b, "count": c}
                    for b, c in zip(self.bounds, self.bucket_counts)
                ] + [{"le": None, "count": self.bucket_counts[-1]}],
                "updated_ns": self.updated_ns}


class MetricsRegistry:
    """Get-or-create store of metrics, keyed by ``(name, labelset)``.

    The registry enforces one *kind* per name: registering ``pm.merges`` as
    a counter and later asking for a gauge of the same name is a bug, not a
    new time series.

    Components do not push their counts here: they keep one ``*Stats``
    dataclass and register it with :meth:`fold`; every read derives the
    counters from the registered objects, so a counter cannot drift from
    the stats it reports and costs nothing between reads.
    """

    def __init__(self, clock=None):
        self.clock = clock
        self._metrics: Dict[Tuple[str, LabelSet], _Metric] = {}
        self._kinds: Dict[str, str] = {}
        #: (prefix, labelset) -> the stats objects folded under it
        self._folds: Dict[Tuple[str, LabelSet], List[Any]] = {}

    def bind_clock(self, clock) -> None:
        """Late-bind the simulated clock (harnesses that build it later)."""
        self.clock = clock

    def _get_or_create(self, cls, name: str, labels: Dict[str, Any],
                       **kwargs) -> _Metric:
        key = (name, _labelset(labels))
        metric = self._metrics.get(key)
        if metric is not None:
            if not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"not {cls.kind}"
                )
            return metric
        known = self._kinds.get(name)
        if known is not None and known != cls.kind:
            raise ValueError(
                f"metric name {name!r} is a {known}; cannot also be a "
                f"{cls.kind}"
            )
        metric = cls(name, key[1], self, **kwargs)
        self._metrics[key] = metric
        self._kinds[name] = cls.kind
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS,
                  **labels) -> Histogram:
        return self._get_or_create(Histogram, name, labels, buckets=buckets)

    # -- folds ---------------------------------------------------------------

    def fold(self, prefix: str, stats, **labels) -> None:
        """Register a ``*Stats`` dataclass instance as a counter *source*.

        From now on every read reports counter ``<prefix>.<field>`` (under
        ``labels``) as the sum of that numeric field over all sources
        folded under the same ``(prefix, labels)``: a rebuilt component
        folded again adds to its predecessor, two ranks' arenas sharing a
        name sum, and folding the same object twice is a no-op.  The
        object is read, never written, and it does not matter how much it
        counted before it was folded.
        """
        sources = self._folds.setdefault((prefix, _labelset(labels)), [])
        if not any(s is stats for s in sources):
            sources.append(stats)

    def _sync(self) -> None:
        """Bring every folded counter up to its sources' current sums."""
        for (prefix, labels), sources in self._folds.items():
            for f in fields(sources[0]):
                values = [getattr(s, f.name) for s in sources]
                if not isinstance(values[0], Real):
                    continue
                counter = self._get_or_create(
                    Counter, f"{prefix}.{f.name}", dict(labels))
                total = sum(values)
                if counter.value != total:
                    counter.value = total
                    counter._stamp()

    # -- queries -------------------------------------------------------------

    def get(self, name: str, **labels) -> Optional[_Metric]:
        self._sync()
        return self._metrics.get((name, _labelset(labels)))

    def series(self, name: str) -> Iterator[_Metric]:
        """All time series registered under one name."""
        self._sync()
        return iter([m for (n, _), m in self._metrics.items() if n == name])

    def total(self, name: str) -> float:
        """Sum of a counter/gauge across its label sets (0.0 when absent)."""
        return float(sum(
            m.value for m in self.series(name)
            if isinstance(m, (Counter, Gauge))
        ))

    def values(self, name: str) -> Dict[LabelSet, float]:
        """``{labelset: value}`` for one counter/gauge name."""
        return {
            m.labels: m.value for m in self.series(name)
            if isinstance(m, (Counter, Gauge))
        }

    def __len__(self) -> int:
        self._sync()
        return len(self._metrics)

    # -- export --------------------------------------------------------------

    def samples(self) -> List[Dict[str, Any]]:
        """One dict per time series, sorted by (name, labels)."""
        self._sync()
        return [
            self._metrics[key].sample()
            for key in sorted(self._metrics)
        ]

    def to_jsonl(self) -> str:
        return "\n".join(
            json.dumps(s, sort_keys=True) for s in self.samples()
        )

    def export_jsonl(self, fh: IO[str]) -> int:
        """Write one JSON object per line; returns the series count."""
        out = self.to_jsonl()
        if out:
            fh.write(out + "\n")
        return len(self._metrics)
