"""Exception hierarchy for the ``repro`` library.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch a single base class.  Subpackages define more specific subclasses
here rather than in their own modules to avoid circular imports.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "XmlSyntaxError",
    "LabelingError",
    "CapacityError",
    "LabelOverflowError",
    "OrderingError",
    "AuditError",
    "QuerySyntaxError",
    "QueryEvaluationError",
    "DatasetError",
    "DurabilityError",
    "WalCorruptError",
    "SnapshotCorruptError",
    "RecoveryError",
    "ReplicationError",
    "ShardError",
    "ShardUnavailableError",
    "ResilienceError",
    "DegradedModeError",
    "DeadlineExceededError",
    "RetryExhaustedError",
]


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` library."""


class XmlSyntaxError(ReproError):
    """Raised by the XML tokenizer/parser on malformed input.

    Carries the 1-based ``line`` and ``column`` of the offending character
    when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        super().__init__(message + location)
        self.line = line
        self.column = column


class LabelingError(ReproError):
    """Raised when a labeling scheme is misused (e.g. unlabeled node)."""


class OrderingError(ReproError):
    """Raised on inconsistent use of the SC (simultaneous congruence) table."""


class CapacityError(OrderingError, LabelingError):
    """A labeling or ordering structure ran out of room.

    This is the scheme's known weakness versus compact ancestry labels:
    under skewed insertion an order number can catch up with its prime
    self-label (a CRT residue must stay below its modulus), and bounded
    label encodings can exhaust their width.  The error carries enough
    context to act on:

    * ``document`` — collection index of the affected document (``None``
      when the structure is used standalone),
    * ``group`` — index of the affected SC group/record, when one exists,
    * ``hint`` — the recovery action an operator (or the resilient
      serving layer) should take, e.g. ``compact()`` or relabel.

    Subclasses both :class:`OrderingError` and :class:`LabelingError`
    because capacity can be exhausted on either side of the scheme, and
    existing handlers for either hierarchy must keep working.
    """

    def __init__(
        self,
        message: str,
        document: int | None = None,
        group: int | None = None,
        hint: str | None = None,
    ):
        detail = message
        if hint:
            detail += f" (recovery hint: {hint})"
        super().__init__(detail)
        self.document = document
        self.group = group
        self.hint = hint


class LabelOverflowError(CapacityError):
    """Raised when a scheme with a bounded label width runs out of room.

    Only the float-interval scheme (QRS) has an intrinsic bound; integer
    schemes use Python's arbitrary-precision ints and never overflow.
    A :class:`CapacityError`, so the resilient layer classifies it into
    the capacity-exhaustion fault domain.
    """


class AuditError(ReproError):
    """Raised by :meth:`repro.obs.audit.AuditReport.raise_if_failed`.

    The message carries the full audit summary: every violated invariant,
    its subject, and the counts of checks that did pass.
    """


class QuerySyntaxError(ReproError):
    """Raised by the XPath-subset parser on malformed query text."""


class QueryEvaluationError(ReproError):
    """Raised by the query engine on unevaluable queries."""


class DatasetError(ReproError):
    """Raised by dataset generators on invalid parameters."""


class DurabilityError(ReproError):
    """Base class for the write-ahead-log / snapshot / recovery subsystem."""


class WalCorruptError(DurabilityError):
    """Raised when a write-ahead log's header or interior records are
    corrupt beyond the repairable torn tail (a torn tail is *not* an
    error — it is truncated silently on open, per the recovery protocol)."""


class SnapshotCorruptError(DurabilityError):
    """Raised when a snapshot file fails its CRC32 footer, is truncated,
    or cannot be decoded.  Recovery reacts by falling back to the previous
    snapshot generation instead of loading bad state."""


class RecoveryError(DurabilityError):
    """Raised when no snapshot generation yields a valid, audit-clean
    collection — durable state is unrecoverable without operator help."""


class ReplicationError(DurabilityError):
    """The replication stream or a replica's state is unusable.

    Raised by :mod:`repro.replica` when the shipped WAL stream carries a
    sequence gap (the primary pruned past the replica's position), when
    mid-stream bytes fail validation with trustworthy bytes after them
    (real corruption, not a torn tail), or when a replica cannot
    re-bootstrap.  A :class:`DurabilityError` subclass so existing
    durability handlers still catch it; the CLI maps it to its own exit
    code (5) ahead of the generic durability code (4).
    """


class ShardError(ReproError):
    """Base class for the sharded serving layer (:mod:`repro.shard`).

    Raised for shard-service misuse (bad manifest, unknown shard, router
    protocol violations).  Deliberately *not* a :class:`DurabilityError`:
    a shard-layer failure says nothing about the per-shard durable state,
    which each worker recovers independently.  The CLI maps it to its own
    exit code (6), ahead of the generic :class:`ReproError` code (1).
    """


class ShardUnavailableError(ShardError):
    """An operation routed to a shard that cannot serve it right now.

    Mirrors :class:`CapacityError`'s context-rich contract: the message
    alone tells an operator which shard failed, why, and what the
    supervisor's restart budget looked like when the request was refused.

    * ``shard`` — the shard id the document hashed to,
    * ``state`` — the shard's supervision state (``down`` / ``quarantined``),
    * ``restarts`` — restarts the supervisor has already spent on it,
    * ``budget`` — the total restart budget before quarantine,
    * ``hint`` — the recovery action an operator should take.
    """

    def __init__(
        self,
        message: str,
        shard: int | None = None,
        state: str | None = None,
        restarts: int | None = None,
        budget: int | None = None,
        hint: str | None = None,
    ):
        detail = message
        if shard is not None:
            detail += f" [shard {shard}"
            if state:
                detail += f" {state}"
            if restarts is not None and budget is not None:
                detail += f", restart budget {restarts}/{budget} spent"
            detail += "]"
        if hint:
            detail += f" (recovery hint: {hint})"
        super().__init__(detail)
        self.shard = shard
        self.state = state
        self.restarts = restarts
        self.budget = budget
        self.hint = hint


class ResilienceError(ReproError):
    """Base class for the resilient serving layer (:mod:`repro.resilient`)."""


class DegradedModeError(ResilienceError):
    """Storage work was refused because the collection is serving degraded.

    Raised by :class:`repro.resilient.ResilientCollection` after the
    circuit breaker has tripped, only for work with no in-memory
    fallback: a ``checkpoint``, and the WAL drain of ``close`` when the
    breaker trips during it.  Queries keep answering and ordinary
    mutations apply in memory until a half-open probe re-establishes the
    storage path.
    """


class DeadlineExceededError(ResilienceError):
    """An operation (including its retries) overran its time budget.

    Slow storage counts as failed storage for a serving system; the
    per-operation deadline turns an indefinitely hanging write into a
    typed, retriable-by-the-caller error.
    """


class RetryExhaustedError(ResilienceError):
    """Transient-fault retries ran out without a success.

    The final underlying fault is chained as ``__cause__``; the breaker
    has already recorded every attempt, so repeated exhaustion trips the
    durable path into degraded mode.
    """
