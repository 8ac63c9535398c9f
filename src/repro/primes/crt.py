"""Chinese Remainder Theorem solvers.

The paper (Theorem 1, Section 4) stores the document order of a group of
nodes as a single *simultaneous congruence* value ``x`` with
``x mod self_label(v) == order(v)`` for every node ``v`` in the group.  The
self-labels are distinct primes, so they are pairwise coprime and the CRT
guarantees a unique solution modulo their product.

Two solvers are provided:

* :func:`solve_congruences` — incremental pairwise merging (the default,
  fastest in pure Python and tolerant of non-prime but coprime moduli), and
* :func:`solve_congruences_euler` — the Euler-totient formula quoted verbatim
  in the paper, ``x = sum((C/m_i) ** phi(m_i) * n_i) mod C``.  It is
  exponentially slower and exists to validate the paper's formula; both
  agree on all inputs (see the property tests).

:class:`CongruenceSystem` wraps a solved system and supports the paper's
update operations: appending a new congruence, rewriting residues, and
dropping a congruence — each maintained *incrementally* against the cached
value (delta-merge for rewrites, ``value % reduced_product`` for drops), so
no update re-solves unrelated congruences from scratch.  For bulk
mutations, :meth:`CongruenceSystem.begin_deferred` switches the system into
a mode where mutations only touch the residue map and the single CRT solve
is paid lazily after :meth:`CongruenceSystem.end_deferred` — one solve per
system per batch, however many members changed.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from repro.primes.totient import totient

__all__ = ["solve_congruences", "solve_congruences_euler", "CongruenceSystem"]


def _merge(
    residue_a: int, modulus_a: int, residue_b: int, modulus_b: int
) -> Tuple[int, int]:
    """Merge two congruences into one; moduli need not be coprime.

    Returns ``(residue, lcm)`` satisfying both, or raises ``ValueError`` when
    the congruences conflict.  The arithmetic is the C-level ``math.gcd``
    and ``pow(x, -1, m)``; :mod:`repro.primes.euclid` is the pure-Python
    reference the tests compare against.
    """
    g = gcd(modulus_a, modulus_b)
    if (residue_b - residue_a) % g != 0:
        raise ValueError(
            f"incompatible congruences: x={residue_a} (mod {modulus_a}) "
            f"and x={residue_b} (mod {modulus_b})"
        )
    lcm = modulus_a // g * modulus_b
    reduced_b = modulus_b // g
    inverse = pow(modulus_a // g, -1, reduced_b)
    step = (residue_b - residue_a) // g * inverse % reduced_b
    residue = (residue_a + modulus_a * step) % lcm
    return residue, lcm


def solve_congruences(moduli: Sequence[int], residues: Sequence[int]) -> int:
    """Return the unique ``x`` in ``[0, prod(moduli))`` with
    ``x mod moduli[i] == residues[i]`` for every ``i``.

    Moduli must be positive and pairwise compatible (coprime moduli always
    are).  An empty system has solution 0.
    """
    if len(moduli) != len(residues):
        raise ValueError(
            f"length mismatch: {len(moduli)} moduli vs {len(residues)} residues"
        )
    solution, combined = 0, 1
    for modulus, residue in zip(moduli, residues):
        if modulus <= 0:
            raise ValueError(f"moduli must be positive, got {modulus}")
        solution, combined = _merge(solution, combined, residue % modulus, modulus)
    return solution


def solve_congruences_euler(moduli: Sequence[int], residues: Sequence[int]) -> int:
    """The paper's Euler-quotient CRT formula (Section 4).

    ``x = sum_i (C/m_i)^phi(m_i) * n_i  mod C`` with ``C = prod(m_i)``.
    Requires pairwise-coprime moduli.  Quadratic-ish and only suitable for
    small systems; use :func:`solve_congruences` in production paths.
    """
    if len(moduli) != len(residues):
        raise ValueError(
            f"length mismatch: {len(moduli)} moduli vs {len(residues)} residues"
        )
    if not moduli:
        return 0
    for i, a in enumerate(moduli):
        if a <= 0:
            raise ValueError(f"moduli must be positive, got {a}")
        for b in moduli[i + 1 :]:
            if gcd(a, b) != 1:
                raise ValueError(f"moduli {a} and {b} are not coprime")
    product = 1
    for modulus in moduli:
        product *= modulus
    total = 0
    for modulus, residue in zip(moduli, residues):
        cofactor = product // modulus
        # (C/m_i)^phi(m_i) mod m_i == 1 by Euler's theorem, so the term
        # contributes residue_i modulo m_i and 0 modulo every other m_j.
        total += pow(cofactor, totient(modulus), product) * residue
    return total % product


class CongruenceSystem:
    """A live system of congruences ``x mod m_i == n_i`` with updates.

    This is the algebraic core of the paper's SC table row: the moduli are
    node self-labels (distinct primes) and the residues are document-order
    numbers.  The class keeps the solved value cached and supports:

    * :meth:`append` — add a congruence for a newly inserted node,
    * :meth:`set_residues` — rewrite several residues at once (the "+1 shift"
      applied to nodes after an insertion point), and
    * :meth:`remove` — drop a congruence (node deletion; the paper notes
      deletions never disturb order, but dropping keeps the value small).

    All three maintain the cached value incrementally (no from-scratch
    re-solve); between :meth:`begin_deferred` and :meth:`end_deferred` they
    skip even that and only update the residue map, leaving one lazy solve
    for the whole run of mutations.
    """

    def __init__(
        self, moduli: Iterable[int] = (), residues: Iterable[int] = ()
    ) -> None:
        self._congruences: Dict[int, int] = {}
        for modulus, residue in zip(list(moduli), list(residues)):
            self._check_new_modulus(modulus)
            self._congruences[modulus] = residue % modulus
        self._value: int | None = None
        self._deferred = False

    def _check_new_modulus(self, modulus: int) -> None:
        if modulus <= 1:
            raise ValueError(f"modulus must be > 1, got {modulus}")
        if modulus in self._congruences:
            raise ValueError(f"duplicate modulus {modulus}")
        for existing in self._congruences:
            if gcd(existing, modulus) != 1:
                raise ValueError(f"modulus {modulus} not coprime with {existing}")

    def __len__(self) -> int:
        return len(self._congruences)

    def __contains__(self, modulus: int) -> bool:
        return modulus in self._congruences

    @property
    def moduli(self) -> Tuple[int, ...]:
        return tuple(self._congruences)

    @property
    def product(self) -> int:
        result = 1
        for modulus in self._congruences:
            result *= modulus
        return result

    @property
    def value(self) -> int:
        """The solved simultaneous-congruence value (0 for an empty system)."""
        if self._value is None:
            self._value = solve_congruences(
                list(self._congruences), list(self._congruences.values())
            )
        return self._value

    def residue(self, modulus: int) -> int:
        """Return the residue stored for ``modulus``."""
        try:
            return self._congruences[modulus]
        except KeyError:
            raise KeyError(f"no congruence with modulus {modulus}") from None

    @property
    def deferred(self) -> bool:
        """Whether value maintenance is currently deferred (batch mode)."""
        return self._deferred

    def begin_deferred(self) -> None:
        """Enter batch mode: mutations update residues only, no CRT work.

        While deferred, :meth:`append`, :meth:`set_residues`, and
        :meth:`remove` drop the cached value instead of maintaining it, so
        an arbitrary run of mutations costs small-integer dictionary work.
        Reading :attr:`value` mid-batch still works (it lazily solves and
        the next mutation re-invalidates); the point of the mode is that
        callers who *don't* read mid-batch pay exactly one solve at the end.
        """
        self._deferred = True

    def end_deferred(self) -> None:
        """Leave batch mode; the next :attr:`value` read solves once."""
        self._deferred = False

    def append(self, modulus: int, residue: int) -> None:
        """Add ``x mod modulus == residue``.

        Incremental: merges into the cached value instead of re-solving,
        which is exactly the low-cost update the paper advertises.
        """
        self._check_new_modulus(modulus)
        residue %= modulus
        if self._deferred:
            self._value = None
        elif self._value is not None:
            self._value, _ = _merge(self._value, self.product, residue, modulus)
        self._congruences[modulus] = residue

    def set_residues(self, updates: Mapping[int, int]) -> None:
        """Rewrite residues for existing moduli, incrementally.

        With a cached value ``x`` and product ``P``, each rewrite of modulus
        ``m`` from ``r_old`` to ``r_new`` adds ``(r_new - r_old) * c_m`` to
        ``x`` modulo ``P``, where ``c_m = (P/m) * ((P/m)^-1 mod m)`` is the
        canonical CRT basis element (``c_m == 1 mod m`` and ``0`` modulo
        every other member).  That is O(group) integer work per call instead
        of the from-scratch re-solve this method used to trigger — the fix
        for delete/shift being O(group^2) under churn.  :meth:`check`
        remains the oracle that the shortcut agrees with a full solve.
        """
        for modulus in updates:
            if modulus not in self._congruences:
                raise KeyError(f"no congruence with modulus {modulus}")
        if self._deferred or self._value is None:
            for modulus, residue in updates.items():
                self._congruences[modulus] = residue % modulus
            self._value = None
            return
        product = self.product
        delta = 0
        for modulus, residue in updates.items():
            residue %= modulus
            old = self._congruences[modulus]
            if residue != old:
                cofactor = product // modulus
                basis = cofactor * pow(cofactor % modulus, -1, modulus)
                delta += (residue - old) * basis
                self._congruences[modulus] = residue
        self._value = (self._value + delta) % product

    def remove(self, modulus: int) -> None:
        """Drop the congruence for ``modulus`` in O(1) CRT work.

        Every remaining modulus divides the reduced product ``P' = P/m``,
        so ``value % P'`` still satisfies every remaining congruence and is
        the unique solution in ``[0, P')`` — no re-solve needed.
        """
        if modulus not in self._congruences:
            raise KeyError(f"no congruence with modulus {modulus}")
        del self._congruences[modulus]
        if self._deferred:
            self._value = None
        elif self._value is not None:
            self._value %= self.product

    def check(self) -> bool:
        """Verify ``value mod m == n`` for every stored congruence."""
        solved = self.value
        return all(
            solved % modulus == residue
            for modulus, residue in self._congruences.items()
        )
