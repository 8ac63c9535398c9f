"""Process-wide metrics: counters, gauges, and monotonic timers.

Every hot path in the library (prime issuance, SC-record rewrites, query
operators) reports what it did through this module so the paper's coarse
"relabeled nodes" counter (Figure 18) stops being the only window into
update cost.  Design constraints, in order:

1. **Zero dependencies** — stdlib only, importable from every package
   without cycles (this module imports nothing from ``repro``).
2. **Near-zero overhead when disabled** — collection is off by default;
   every helper checks one module-level boolean and returns immediately,
   so instrumented hot loops pay a single predictable branch.
3. **Deterministic names** — counters form a stable catalogue (documented
   in ``docs/OBSERVABILITY.md``) so benchmark artifacts can be compared
   across runs and versions.

Usage::

    from repro.obs import metrics

    with metrics.collecting() as registry:
        ...  # labeled/ordered/queried work
        print(registry.snapshot())

    # or imperatively:
    metrics.enable()
    ...
    print(metrics.snapshot())
    metrics.disable()

Instrumentation sites use the module-level helpers::

    metrics.incr("primes.issued")
    metrics.gauge("primes.cache_size", len(cache))
    with metrics.timed("query.evaluate"):
        ...

Timers use :func:`time.perf_counter` (monotonic; never wall-clock).  The
registry is process-global and not thread-synchronized: increments are
GIL-atomic dictionary updates, which is accurate enough for observability
counters; do not use it for billing.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, Iterator, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Timer",
    "MetricsRegistry",
    "registry",
    "enabled",
    "enable",
    "disable",
    "collecting",
    "incr",
    "gauge",
    "timed",
    "snapshot",
    "reset",
]

#: Module-level switch — the no-op fast path reads only this name.
_enabled: bool = False


class Counter:
    """A monotonically increasing integer (e.g. ``sc.records_touched``)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> int:
        """Add ``amount`` (default 1); returns the new value."""
        self.value += amount
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value that can move both ways (e.g. cache size)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        """Record the latest observed value."""
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Timer:
    """Aggregated durations of one named operation (monotonic clock)."""

    __slots__ = ("name", "count", "total_seconds", "max_seconds")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0

    def record(self, seconds: float) -> None:
        """Fold one observed duration into the aggregate."""
        self.count += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds

    @property
    def mean_seconds(self) -> float:
        """Average duration over all recorded calls (0.0 when unused)."""
        return self.total_seconds / self.count if self.count else 0.0

    def __repr__(self) -> str:
        return f"Timer({self.name}: n={self.count}, total={self.total_seconds:.6f}s)"


class MetricsRegistry:
    """Holds every named counter, gauge, and timer of one process.

    Normally accessed through the module-level helpers and the global
    instance returned by :func:`registry`; tests may construct private
    registries and swap them in with :func:`collecting`.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, Timer] = {}

    # ------------------------------------------------------------------
    # Instrument factories (get-or-create, stable identity per name).  A
    # miss creates through ``setdefault``, which is atomic, so two threads
    # that miss together share the first instrument stored and neither
    # thread's updates land in one the registry has dropped.
    # ------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name``, created on first use."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters.setdefault(name, Counter(name))
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name``, created on first use."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges.setdefault(name, Gauge(name))
        return instrument

    def timer(self, name: str) -> Timer:
        """The timer registered under ``name``, created on first use."""
        instrument = self._timers.get(name)
        if instrument is None:
            instrument = self._timers.setdefault(name, Timer(name))
        return instrument

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def counter_value(self, name: str) -> int:
        """Current value of a counter (0 if it never fired)."""
        instrument = self._counters.get(name)
        return instrument.value if instrument is not None else 0

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-serializable copy of every instrument's current state.

        Shape::

            {"counters": {name: int},
             "gauges":   {name: float},
             "timers":   {name: {"count": int, "total_s": float,
                                 "mean_s": float, "max_s": float}}}
        """
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "timers": {
                name: {
                    "count": t.count,
                    "total_s": t.total_seconds,
                    "mean_s": t.mean_seconds,
                    "max_s": t.max_seconds,
                }
                for name, t in sorted(self._timers.items())
            },
        }

    def reset(self) -> None:
        """Drop every instrument (names and values)."""
        self._counters.clear()
        self._gauges.clear()
        self._timers.clear()


_registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global registry the module-level helpers write to."""
    return _registry


def enabled() -> bool:
    """Whether collection is currently on."""
    return _enabled


def enable() -> None:
    """Turn collection on (instruments start recording)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn collection off (helpers return immediately)."""
    global _enabled
    _enabled = False


class collecting:
    """Context manager: enable collection into a fresh scoped registry.

    Swaps in a private :class:`MetricsRegistry` (so concurrent library
    state cannot leak between scopes), enables collection, and restores
    the previous registry and enabled-flag on exit::

        with metrics.collecting() as registry:
            scheme.label_tree(root)
        print(registry.counter_value("primes.issued"))
    """

    __slots__ = ("_scoped", "_saved_registry", "_saved_enabled")

    def __init__(self) -> None:
        self._scoped = MetricsRegistry()
        self._saved_registry: Optional[MetricsRegistry] = None
        self._saved_enabled = False

    def __enter__(self) -> MetricsRegistry:
        global _registry, _enabled
        self._saved_registry = _registry
        self._saved_enabled = _enabled
        _registry = self._scoped
        _enabled = True
        return self._scoped

    def __exit__(self, *exc_info: object) -> None:
        global _registry, _enabled
        assert self._saved_registry is not None
        _registry = self._saved_registry
        _enabled = self._saved_enabled


# ----------------------------------------------------------------------
# Module-level fast-path helpers (the only API hot code should call)
# ----------------------------------------------------------------------


def incr(name: str, amount: int = 1) -> None:
    """Increment counter ``name`` by ``amount``; no-op while disabled."""
    if not _enabled:
        return
    _registry.counter(name).inc(amount)


def gauge(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value``; no-op while disabled."""
    if not _enabled:
        return
    _registry.gauge(name).set(value)


class timed:
    """Time a named operation — usable as context manager or decorator.

    As a context manager::

        with metrics.timed("query.evaluate"):
            rows = engine.evaluate(query)

    As a decorator (the enabled-check happens per call, so decorating at
    import time costs nothing while collection is off)::

        @metrics.timed("join.nested_loop")
        def nested_loop_join(...): ...
    """

    __slots__ = ("name", "_start")

    def __init__(self, name: str):
        self.name = name
        self._start: Optional[float] = None

    def __enter__(self) -> "timed":
        self._start = time.perf_counter() if _enabled else None
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._start is not None and _enabled:
            _registry.timer(self.name).record(time.perf_counter() - self._start)

    def __call__(self, func: Callable) -> Callable:
        """Wrap ``func`` so each call is timed under this instance's name."""
        name = self.name

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _enabled:
                return func(*args, **kwargs)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                _registry.timer(name).record(time.perf_counter() - start)

        return wrapper


def snapshot() -> Dict[str, Any]:
    """Snapshot of the *current* registry (scoped or global)."""
    return _registry.snapshot()


def reset() -> None:
    """Reset the current registry in place (keeps the enabled flag)."""
    _registry.reset()


def _iter_nonzero_counters() -> Iterator[Counter]:
    """Counters that fired at least once (internal; used by the CLI)."""
    for counter in _registry._counters.values():
        if counter.value:
            yield counter
