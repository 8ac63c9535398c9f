"""Incremental prime supply with a reserved pool for top-level nodes.

The paper's ``PrimeLabel`` algorithm (Figure 7) draws primes from two
sources:

* ``getReservedPrime()`` — a pool of the smallest primes set aside for the
  nodes directly below the root (optimization Opt1, Section 3.2), because
  those labels are inherited by every descendant and dominate label size;
* ``getPrime()`` — the next smallest unreserved prime, for every other
  non-leaf node.

:class:`PrimeGenerator` implements both.  Every generator reads one
process-wide ascending prime table by index: the table starts with the
first 1,024 primes and grows by segmented-sieve extension, under a lock,
the first time any generator asks for a prime past its end.  A generator
therefore owns nothing but its indices, and a collection of many
documents sieves each prime once.  It also provides ``get_power2(n)`` for
optimization Opt2 (labeling the n-th leaf child with ``2**n``).
"""

from __future__ import annotations

import threading  # repro: ignore[R12] -- one lock serialises growth of the process-wide prime table, which replica tailer and reader threads share with the writer; issuance stays per-generator and deterministic
from typing import Iterator, List, Tuple

from repro.obs import metrics
from repro.primes.sieve import primes_first_n, segmented_sieve

__all__ = ["PrimeGenerator", "ensure_table"]

_BOOTSTRAP_COUNT = 1024

#: The shared table: the smallest primes, ascending.  It only ever grows
#: (by ``extend`` with a finished segment), so a reader that has checked
#: ``index < len(_TABLE)`` can index it without the lock.
_TABLE: List[int] = primes_first_n(_BOOTSTRAP_COUNT)
_TABLE_LOCK = threading.Lock()


def ensure_table(count: int) -> None:
    """Grow the shared table until it holds at least ``count`` primes."""
    if count <= len(_TABLE):
        return
    with _TABLE_LOCK:
        # Extend in bulk with a segmented sieve: doubling the sieved range
        # keeps amortized cost near-linear even for very large documents.
        while count > len(_TABLE):
            low = _TABLE[-1] + 1
            high = max(low * 2, low + 10_000)
            _TABLE.extend(segmented_sieve(low, high))
            metrics.incr("primes.sieve_extensions")
            metrics.gauge("primes.cache_size", len(_TABLE))


class PrimeGenerator:
    """Hands out primes in ascending order, never repeating one.

    Parameters
    ----------
    reserved:
        How many of the smallest primes to set aside for
        :meth:`get_reserved_prime` (Opt1).  With ``reserved=0`` the reserved
        pool is disabled and :meth:`get_reserved_prime` falls through to
        :meth:`get_prime`.

    The generator is deterministic: two generators constructed with the same
    ``reserved`` hand out identical sequences.
    """

    def __init__(self, reserved: int = 0) -> None:
        if reserved < 0:
            raise ValueError(f"reserved must be >= 0, got {reserved}")
        ensure_table(reserved)
        self._reserved_limit = reserved
        self._next_reserved_index = 0
        self._next_general_index = reserved
        self._issued = 0

    @property
    def reserved_remaining(self) -> int:
        """How many reserved primes are still available."""
        return self._reserved_limit - self._next_reserved_index

    @property
    def issued(self) -> int:
        """Total primes handed out so far (reserved + general)."""
        return self._issued

    @property
    def largest_issued(self) -> int:
        """The largest prime handed out so far (0 if none)."""
        largest = 0
        if self._next_reserved_index > 0:
            largest = _TABLE[self._next_reserved_index - 1]
        if self._next_general_index > self._reserved_limit:
            largest = max(largest, _TABLE[self._next_general_index - 1])
        return largest

    def get_reserved_prime(self) -> int:
        """Return the next prime from the reserved pool (Opt1).

        Falls back to :meth:`get_prime` when the pool is exhausted or was
        never configured, matching the paper's intent that Opt1 is purely an
        optimization, never a correctness requirement.
        """
        if self._next_reserved_index >= self._reserved_limit:
            return self.get_prime()
        prime = _TABLE[self._next_reserved_index]
        self._next_reserved_index += 1
        self._issued += 1
        metrics.incr("primes.issued")
        metrics.incr("primes.reserved_hits")
        return prime

    def open_run(self) -> Tuple[List[int], int]:
        """Start a run of general primes drawn by index: ``(table, index)``.

        A walk that labels a whole tree reads each general prime it needs
        as ``table[index]``, advancing its own ``index`` instead of calling
        :meth:`get_prime` per node.  Before it reads an index at or past
        ``len(table)`` it grows the shared table with :func:`ensure_table`
        (the same list, extended in place), and when it is done it hands
        its next index to :meth:`close_run`.  Nothing may draw a general
        prime from this generator between the two calls.
        """
        return _TABLE, self._next_general_index

    def close_run(self, next_index: int) -> None:
        """Issue every general prime a run read, up to ``next_index``.

        Advances the position and the issued count once, and charges
        ``primes.issued`` once, with the total :meth:`get_prime` would have
        charged one by one.
        """
        drawn = next_index - self._next_general_index
        if drawn:
            self._next_general_index = next_index
            self._issued += drawn
            metrics.incr("primes.issued", drawn)

    def get_prime(self) -> int:
        """Return the next smallest unreserved, unissued prime."""
        index = self._next_general_index
        if index >= len(_TABLE):
            ensure_table(index + 1)
        prime = _TABLE[index]
        self._next_general_index += 1
        self._issued += 1
        metrics.incr("primes.issued")
        return prime

    # ------------------------------------------------------------------
    # State capture (durability snapshots)
    # ------------------------------------------------------------------

    def state(self) -> Tuple[int, int, int, int]:
        """The generator's issuance position as a plain tuple.

        ``(reserved_limit, next_reserved_index, next_general_index, issued)``
        — everything :meth:`from_state` needs to resume the exact prime
        sequence.  The prime table itself is *not* part of the state: it is
        shared by every generator and grows on demand.
        """
        return (
            self._reserved_limit,
            self._next_reserved_index,
            self._next_general_index,
            self._issued,
        )

    @staticmethod
    def check_state(state: Tuple[int, int, int, int]) -> None:
        """Raise ``ValueError`` unless :meth:`state` could have returned ``state``.

        Every issuance keeps ``issued == next_reserved + (next_general -
        reserved_limit)``.  Checking that identity before anything sizes
        the prime table matters for decoded snapshots: one flipped bit in
        ``reserved_limit`` or ``next_general`` would otherwise ask the
        sieve for up to 2**31 primes before the state is rejected.
        """
        reserved_limit, next_reserved, next_general, issued = state
        if not (
            0 <= next_reserved <= reserved_limit <= next_general
            and issued == next_reserved + next_general - reserved_limit
        ):
            raise ValueError(f"inconsistent generator state {state}")

    @classmethod
    def from_state(cls, state: Tuple[int, int, int, int]) -> "PrimeGenerator":
        """Rebuild a generator that continues exactly where ``state`` left off.

        Because issuance is deterministic, the restored generator hands out
        the same primes the original would have — the property crash
        recovery relies on to replay updates byte-identically.
        """
        cls.check_state(state)
        reserved_limit, next_reserved, next_general, issued = state
        generator = cls(reserved=reserved_limit)
        generator._next_reserved_index = next_reserved
        generator._next_general_index = next_general
        generator._issued = issued
        ensure_table(next_general)
        return generator

    @staticmethod
    def get_power2(n: int) -> int:
        """Return ``2**n``, the Opt2 label for the n-th leaf child (n >= 1)."""
        if n < 1:
            raise ValueError(f"leaf ordinal must be >= 1, got {n}")
        return 1 << n

    def iter_primes(self) -> Iterator[int]:
        """Yield primes from :meth:`get_prime` forever (general pool only)."""
        while True:
            yield self.get_prime()
