"""Injectable failure layer for the durability subsystem.

Durability code that has never survived a crash is durability theater, so
the write paths of :mod:`repro.durable.wal` and
:mod:`repro.durable.snapshot` take an optional :class:`FaultPlan` and call
it at every hazardous step (unarmed, ``faults=None``, they call nothing):

=============  ========================================================
``append``     before a WAL record's bytes are written — a fault here
               is clean (nothing lands); a tear writes a strict prefix
``after``      after the bytes landed, before any fsync — the ambiguous
               write the WAL must roll back for retries to be safe
``sync``       the ``fsync`` itself fails or stalls
``snapshot``   before a snapshot's temp file opens — the blob may be
               corrupted; a failure is retry-safe (atomic rename)
=============  ========================================================

A plan does two deterministic things at those sites.  **Scripted
faults** fire on the n-th call at a site: ``"crash"`` raises
:class:`InjectedCrash` (simulated process death), ``"fail"`` raises
:class:`TransientIOError`, ``("tear", k)`` keeps only ``k`` bytes of the
WAL record, ``("flip", i)`` flips bit ``i % 8`` of byte ``i // 8`` of
the snapshot blob.  **Seeded chaos** lets an RNG decide at each call at a
site in ``sites`` whether to stall, then whether to raise a
:class:`TransientIOError`; the draws depend only on the seed and the
sequence of hook calls, so a deterministic workload sees the same faults
on every run.  :meth:`FaultPlan.from_spec` parses the one grammar that
``$REPRO_CHAOS`` and a shard worker's ``fault_spec`` share.

:func:`flip_bit` operates on a closed file and models at-rest corruption
(bit rot); a lost tail is :func:`repro.durable.files.truncate_durably`.
"""

from __future__ import annotations

import math
import os
import time
from pathlib import Path
from random import Random
from typing import Callable, Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.errors import DurabilityError
from repro.obs import metrics

__all__ = [
    "ALL_SITES",
    "FaultPlan",
    "InjectedCrash",
    "TransientIOError",
    "flip_bit",
]

#: Every injection site a plan knows.
ALL_SITES = frozenset({"append", "after", "sync", "snapshot"})

#: Environment variable the CLI reads fault specs from.
CHAOS_ENV = "REPRO_CHAOS"

#: Scripted actions and the sites each can fire at.
_ACTION_SITES = {
    "crash": ALL_SITES,
    "fail": ALL_SITES,
    "tear": {"append"},
    "flip": {"snapshot"},
}


class InjectedCrash(DurabilityError):
    """The simulated process death.

    Tests catch it, abandon the in-memory state (exactly what a real crash
    does), and then re-open the on-disk state through recovery.
    """


class TransientIOError(OSError):
    """The injected transient storage fault.

    An ``OSError`` subclass so classification lands it in the TRANSIENT
    fault domain exactly like a real storage hiccup would — resilience
    code must not be able to tell an injected fault from the real thing.
    """


class FaultPlan:
    """Scripted and seeded faults at the WAL and snapshot write sites.

    ``rate`` is the per-call probability of a :class:`TransientIOError`;
    ``slow_rate`` / ``slow_seconds`` the probability and length of a
    stall (through ``sleep``, injectable for tests) — a disk that answers
    but slowly, the case per-operation deadlines exist for.  ``sites``
    limits the seeded chaos (default: all sites); ``seed`` fixes its
    RNG.  ``script`` maps ``"site@n"`` to the action fired on the n-th
    call at that site (see the module docstring).
    """

    def __init__(
        self,
        rate: float = 0.0,
        slow_rate: float = 0.0,
        slow_seconds: float = 0.0,
        sites: Optional[Iterable[str]] = None,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
        script: Optional[Mapping[str, Union[str, Tuple[str, int]]]] = None,
    ):
        if not 0 <= rate <= 1:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        if not 0 <= slow_rate <= 1:
            raise ValueError(f"slow_rate must be in [0, 1], got {slow_rate}")
        if not (math.isfinite(slow_seconds) and slow_seconds >= 0):
            raise ValueError(
                f"slow_seconds must be finite and >= 0, got {slow_seconds}"
            )
        self.sites = ALL_SITES if sites is None else frozenset(sites)
        if self.sites - ALL_SITES:
            raise ValueError(
                f"unknown chaos site(s) {sorted(self.sites - ALL_SITES)}; "
                f"choose from {sorted(ALL_SITES)}"
            )
        self.rate = rate
        self.slow_rate = slow_rate
        self.slow_seconds = slow_seconds
        self.seed = seed
        self._rng = Random(seed)
        self._sleep = sleep
        self.script = dict(
            _parse_step(key, action) for key, action in (script or {}).items()
        )
        #: Hook calls seen, by site — what crash-point enumeration counts.
        self.calls: Dict[str, int] = {site: 0 for site in sorted(ALL_SITES)}
        #: Transient faults injected, by site — the chaos soak's oracle
        #: that pressure really was applied.
        self.injected: Dict[str, int] = {site: 0 for site in sorted(ALL_SITES)}
        self.stalls = 0

    @classmethod
    def from_spec(cls, spec: Optional[str]) -> "Optional[FaultPlan]":
        """Build a plan from a ``key=value`` spec string.

        ``"rate=0.05,seed=7,slow=0.01,delay=0.002,sites=append+sync"`` or
        ``"crash=append@3"``: every key optional and given at most once;
        ``rate`` defaults to 0.05, or to 0 when the spec scripts a crash.
        A blank spec returns ``None``.  Anything malformed is rejected
        loudly: a typo silently disabling injection would be chaos theater.
        """
        spec = (spec or "").strip()
        if not spec:
            return None
        kwargs: Dict[str, object] = {}
        try:
            for part in filter(str.strip, spec.split(",")):
                key, _, value = (text.strip() for text in part.partition("="))
                if key not in _SPEC_KEYS:
                    raise ValueError(f"unknown chaos spec key {key!r}")
                name, parse = _SPEC_KEYS[key]
                if name in kwargs:
                    raise ValueError(f"duplicate chaos spec key {key!r}")
                kwargs[name] = parse(value)
            kwargs.setdefault("rate", 0.0 if "script" in kwargs else 0.05)
            return cls(**kwargs)  # type: ignore[arg-type]
        except ValueError as error:
            raise ValueError(f"bad chaos spec {spec!r}: {error}") from None

    @classmethod
    def from_env(cls) -> "Optional[FaultPlan]":
        """Build a plan from ``$REPRO_CHAOS`` (``None`` when unset)."""
        return cls.from_spec(os.environ.get(CHAOS_ENV, ""))

    @property
    def total_injected(self) -> int:
        """Total transient faults injected across every site."""
        return sum(self.injected.values())

    def on_append(self, seq: int, blob: bytes) -> bytes:
        """Before record ``seq`` is written; returns the bytes to write."""
        return self._fire("append", f"append of WAL record {seq}", blob)

    def after_write(self, seq: int) -> None:
        """After record ``seq`` was written, before any fsync."""
        self._fire("after", f"post-write of WAL record {seq}")

    def on_sync(self, pending: int) -> None:
        """Before the WAL fsyncs ``pending`` unsynced appends."""
        self._fire("sync", f"fsync of {pending} pending record(s)")

    def on_snapshot(self, path: str, blob: bytes) -> bytes:
        """Before a snapshot's temp file opens; returns the bytes to write."""
        return self._fire("snapshot", f"snapshot write to {path}", blob)

    def _fire(self, site: str, detail: str, blob: bytes = b"") -> bytes:
        self.calls[site] += 1
        action, argument = self.script.get((site, self.calls[site]), ("", 0))
        if action == "crash":
            raise InjectedCrash(f"scripted crash at {site}: {detail}")
        if action == "fail":
            self._inject(site, detail)
        if action == "tear":
            blob = blob[:argument]
        if action == "flip" and blob:
            mutated = bytearray(blob)
            mutated[(argument // 8) % len(mutated)] ^= 1 << (argument % 8)
            blob = bytes(mutated)
        if site in self.sites:
            if self.slow_rate and self._rng.random() < self.slow_rate:
                self.stalls += 1
                metrics.incr("chaos.stalls")
                self._sleep(self.slow_seconds)
            if self.rate and self._rng.random() < self.rate:
                self._inject(site, detail)
        return blob

    def _inject(self, site: str, detail: str) -> None:
        self.injected[site] += 1
        metrics.incr(f"chaos.injected.{site}")
        raise TransientIOError(f"injected transient fault: {detail}")


def _parse_step(
    key: str, action: Union[str, Tuple[str, int]]
) -> Tuple[Tuple[str, int], Tuple[str, int]]:
    """``("append@3", "crash")`` -> ``(("append", 3), ("crash", 0))``."""
    site, _, count = key.partition("@")
    name, argument = (action, 0) if isinstance(action, str) else action
    if site not in _ACTION_SITES.get(name, ()):
        raise ValueError(f"{key!r}: no {name!r} action at site {site!r}")
    if not count.isdigit() or int(count) < 1:
        raise ValueError(f"{key!r}: the call number must be >= 1")
    if argument < 0:
        raise ValueError(f"{key!r}: the {name} argument must be >= 0")
    return (site, int(count)), (name, argument)


#: Spec key -> (constructor parameter, value parser).
_SPEC_KEYS: Dict[str, Tuple[str, Callable[[str], object]]] = {
    "rate": ("rate", float),
    "slow": ("slow_rate", float),
    "delay": ("slow_seconds", float),
    "seed": ("seed", int),
    "sites": ("sites", lambda value: frozenset(value.split("+"))),
    "crash": ("script", lambda value: {value: "crash"}),
}


def flip_bit(path: str | Path, offset: int, bit: int = 0) -> None:
    """Flip one bit of the file at ``path`` in place (at-rest corruption)."""
    path = Path(path)
    blob = bytearray(path.read_bytes())
    if not blob:
        raise ValueError(f"cannot flip a bit of empty file {path}")
    blob[offset % len(blob)] ^= 1 << (bit % 8)
    path.write_bytes(bytes(blob))
