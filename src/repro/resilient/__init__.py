"""Resilient serving layer: retries, circuit breaker, degraded mode.

The durability subsystem (:mod:`repro.durable`) answers "what survives a
crash?"; this package answers "what survives a *disk having a bad day*?"
— transient I/O errors, stalls, and fsync failures that kill individual
operations without killing the process.  The pieces:

* :mod:`repro.resilient.policy` — fault domains, classification, and the
  retry/backoff/deadline and breaker-threshold knobs,
* :mod:`repro.resilient.breaker` — the circuit breaker
  (CLOSED → OPEN → HALF_OPEN) guarding the durable path,
* :mod:`repro.resilient.collection` — :class:`ResilientCollection`, the
  serving wrapper: retries transient faults with WAL repair in between,
  degrades to in-memory serving when the breaker trips, and re-syncs
  storage (checkpoint × 2 + WAL restart) on recovery,
* :class:`~repro.durable.faults.FaultPlan` (re-exported here) — seeded
  transient faults and stalls at every WAL/snapshot boundary; built
  from ``$REPRO_CHAOS`` by the CLI.

See ``docs/RESILIENCE.md`` for the fault-domain table, knob reference,
degraded-mode semantics, and the chaos test matrix.
"""

from repro.durable.faults import ALL_SITES, FaultPlan, TransientIOError
from repro.resilient.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.resilient.collection import ResilientCollection
from repro.resilient.policy import (
    BreakerPolicy,
    FaultDomain,
    RetryPolicy,
    classify_fault,
)

__all__ = [
    "ResilientCollection",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "FaultPlan",
    "TransientIOError",
    "ALL_SITES",
    "FaultDomain",
    "classify_fault",
    "RetryPolicy",
    "BreakerPolicy",
]
