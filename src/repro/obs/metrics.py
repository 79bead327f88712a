"""Counters, gauges, and fixed-bucket latency histograms.

One :class:`MetricsRegistry` per process (or per service) replaces the
ad-hoc stats scattered across ``engine.scheduler``, ``engine.cache``,
``canon`` and the HiGHS-call counter with one consistent naming
scheme: dotted instrument names (``engine.requests``, ``lp.highs.seconds``)
that render to Prometheus text exposition with dots mapped to
underscores and a ``repro_`` prefix.

Histograms use fixed log-spaced buckets so p50/p95/p99 are derivable by
linear interpolation within a bucket — no sample storage, constant
memory, and the Prometheus ``_bucket``/``_sum``/``_count`` series come
out for free.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_prometheus",
]

# 250ns .. ~67s in half-decade-ish (x4) steps: wide enough for both a
# single null-span call and an entire suite run.
_DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    2.5e-7 * (4.0**i) for i in range(15)
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket latency histogram with interpolated quantiles.

    Buckets are upper bounds in seconds; an observation lands in the first
    bucket whose bound is >= the value (values beyond the last bound go to
    the implicit +Inf bucket).  Quantiles interpolate linearly inside the
    winning bucket, which is exact enough for p50/p95/p99 dashboards
    without keeping samples.
    """

    __slots__ = ("name", "help", "buckets", "_counts", "_sum", "_count", "_lock")

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        self.name = name
        self.help = help
        bounds = tuple(sorted(buckets)) if buckets else _DEFAULT_BUCKETS
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # trailing +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        idx = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Interpolated quantile in seconds; 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of range: {q}")
        with self._lock:
            total = self._count
            counts = list(self._counts)
        if total == 0:
            return 0.0
        rank = q * total
        seen = 0.0
        for idx, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= rank:
                lo = self.buckets[idx - 1] if idx > 0 else 0.0
                hi = (
                    self.buckets[idx]
                    if idx < len(self.buckets)
                    else self.buckets[-1]
                )
                frac = (rank - seen) / bucket_count
                return lo + (hi - lo) * min(max(frac, 0.0), 1.0)
            seen += bucket_count
        return self.buckets[-1]

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            total = self._count
            sum_ = self._sum
        out = {"count": float(total), "sum": round(sum_, 6)}
        if total:
            out["p50"] = round(self.quantile(0.50), 6)
            out["p95"] = round(self.quantile(0.95), 6)
            out["p99"] = round(self.quantile(0.99), 6)
        return out

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs ending with (+Inf, total)."""
        with self._lock:
            counts = list(self._counts)
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, counts):
            running += count
            out.append((bound, running))
        out.append((math.inf, running + counts[-1]))
        return out


class MetricsRegistry:
    """Get-or-create registry of named instruments.

    Names are dotted (``engine.requests``); creation is idempotent so
    instrumentation sites can call ``registry.counter("x")`` on every hit
    without coordinating setup.  Asking for an existing name with a
    different instrument kind raises — names are the contract.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[str, Any] = {}

    def _get_or_create(self, name: str, factory, kind) -> Any:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise TypeError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}"
                    )
                return existing
            instrument = factory()
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, lambda: Counter(name, help), Counter)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name, help), Gauge)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, help, buckets), Histogram
        )

    def instruments(self) -> List[Any]:
        with self._lock:
            return [
                self._instruments[name] for name in sorted(self._instruments)
            ]

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly dump: name -> value (histograms -> quantile dicts)."""
        out: Dict[str, Any] = {}
        for instrument in self.instruments():
            if isinstance(instrument, Histogram):
                out[instrument.name] = instrument.snapshot()
            else:
                value = instrument.value
                out[instrument.name] = (
                    int(value) if float(value).is_integer() else value
                )
        return out


# Process-global registry: pipeline modules observe into this so any entry
# point (server, CLI, tests) sees one coherent picture.
GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return GLOBAL_REGISTRY


# ----------------------------------------------------------------------
# Prometheus rendering
# ----------------------------------------------------------------------
def _prom_name(name: str) -> str:
    cleaned = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name.replace(".", "_")
    )
    if not cleaned.startswith("repro_"):
        cleaned = f"repro_{cleaned}"
    return cleaned


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _flatten(prefix: str, data: Mapping[str, Any]) -> Iterable[Tuple[str, float]]:
    for key, value in data.items():
        name = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, Mapping):
            yield from _flatten(name, value)
        elif isinstance(value, bool):
            yield name, float(value)
        elif isinstance(value, (int, float)):
            yield name, float(value)
        # non-numeric leaves (backend names, modes) have no gauge form


def render_prometheus(
    registry: Optional[MetricsRegistry] = None,
    extra: Optional[Mapping[str, Any]] = None,
) -> str:
    """Render a registry (plus an optional nested stats dict) as
    Prometheus text exposition format (version 0.0.4).

    ``extra`` is how the legacy nested ``SolverService.metrics()`` payload
    is exposed without re-plumbing every stats object: nested numeric
    leaves flatten to ``repro_<path_joined_by_underscores>`` gauges.
    """
    lines: List[str] = []
    if registry is not None:
        for instrument in registry.instruments():
            name = _prom_name(instrument.name)
            if instrument.help:
                lines.append(f"# HELP {name} {instrument.help}")
            if isinstance(instrument, Counter):
                lines.append(f"# TYPE {name} counter")
                lines.append(f"{name} {_format_value(instrument.value)}")
            elif isinstance(instrument, Gauge):
                lines.append(f"# TYPE {name} gauge")
                lines.append(f"{name} {_format_value(instrument.value)}")
            elif isinstance(instrument, Histogram):
                lines.append(f"# TYPE {name} histogram")
                for bound, cumulative in instrument.cumulative_buckets():
                    lines.append(
                        f'{name}_bucket{{le="{_format_value(bound)}"}} '
                        f"{cumulative}"
                    )
                lines.append(f"{name}_sum {_format_value(instrument.sum)}")
                lines.append(f"{name}_count {instrument.count}")
    if extra:
        for path, value in sorted(_flatten("", extra)):
            name = _prom_name(path)
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_format_value(value)}")
    return "\n".join(lines) + "\n"
