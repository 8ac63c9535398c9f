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

:class:`CongruenceSystem` holds a live system as its residue map and
supports the paper's update operations: appending a new congruence,
rewriting residues, dropping a congruence, and adding 1 to every residue
at once (:meth:`CongruenceSystem.shift_all`, O(1) through a residue
offset).  Each mutation only writes the residue map or the offset; the
value is solved with :func:`solve_congruences` when something reads it and
cached until the next mutation.  Nothing on the update path reads it
(order lookups read the residue), so an update costs residue-map work only
and the solve is paid by whoever asks for the value:
:meth:`CongruenceSystem.check`, the audit, or ``SCRecord.sc``.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from repro.obs import metrics
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
    numbers.  The state is the stored residue map plus one integer offset:
    every residue is ``stored + offset``.  The solved value is derived from
    that on demand.  Updates:

    * :meth:`append` — add a congruence for a newly inserted node,
    * :meth:`set_residues` — rewrite several residues at once (the "+1 shift"
      applied to some of a group's nodes after an insertion point),
    * :meth:`shift_all` — the "+1 shift" for every node of the group, in
      O(1): the offset grows and no stored residue is written, and
    * :meth:`remove` — drop a congruence (node deletion; the paper notes
      deletions never disturb order, but dropping keeps the value small).

    The reads (:meth:`residue`, :meth:`congruences`, :attr:`value`,
    :meth:`check`) add the offset and never write it back; the three
    per-member writes first settle it into the stored residues.  Every
    mutation drops the cached value; the first :attr:`value` read after
    one pays one solve (metric ``sc.batch_solves``) and repeat reads are
    free.
    """

    __slots__ = ("_congruences", "_offset", "_value")

    def __init__(
        self, moduli: Iterable[int] = (), residues: Iterable[int] = ()
    ) -> None:
        self._congruences: Dict[int, int] = {}
        for modulus, residue in zip(list(moduli), list(residues)):
            self._check_new_modulus(modulus)
            self._congruences[modulus] = residue % modulus
        self._offset = 0
        self._value: int | None = None

    @classmethod
    def from_validated(cls, congruences: Dict[int, int]) -> "CongruenceSystem":
        """Adopt a residue map the caller has already validated.

        The map must hold moduli ``> 1`` that are pairwise coprime, each
        with a residue in ``[0, modulus)``; it is taken over as the
        system's state, not copied or re-checked.  The SC table's bulk
        load (:meth:`repro.order.sc_table.SCTable.from_groups`) checks
        every member as it builds the map, so the constructor's per-member
        checks would only repeat that work.
        """
        system = cls.__new__(cls)
        system._congruences = congruences
        system._offset = 0
        system._value = None
        return system

    def _check_new_modulus(self, modulus: int) -> None:
        if modulus <= 1:
            raise ValueError(f"modulus must be > 1, got {modulus}")
        if modulus in self._congruences:
            raise ValueError(f"duplicate modulus {modulus}")
        for existing in self._congruences:
            if gcd(existing, modulus) != 1:
                raise ValueError(f"modulus {modulus} not coprime with {existing}")

    def _settle(self) -> None:
        """Fold the offset into the stored residues before a member write."""
        offset = self._offset
        if offset:
            congruences = self._congruences
            for modulus in congruences:
                congruences[modulus] += offset
            self._offset = 0

    def __len__(self) -> int:
        return len(self._congruences)

    def __contains__(self, modulus: int) -> bool:
        return modulus in self._congruences

    @property
    def moduli(self) -> Tuple[int, ...]:
        return tuple(self._congruences)

    def congruences(self) -> Iterable[Tuple[int, int]]:
        """The ``(modulus, residue)`` pairs, in insertion order."""
        offset = self._offset
        if not offset:
            return self._congruences.items()
        return [
            (modulus, stored + offset)
            for modulus, stored in self._congruences.items()
        ]

    @property
    def product(self) -> int:
        result = 1
        for modulus in self._congruences:
            result *= modulus
        return result

    @property
    def value(self) -> int:
        """The solved simultaneous-congruence value (0 for an empty system).

        Solved on the first read after a mutation, cached until the next.
        """
        if self._value is None:
            metrics.incr("sc.batch_solves")
            offset = self._offset
            self._value = solve_congruences(
                list(self._congruences),
                [stored + offset for stored in self._congruences.values()],
            )
        return self._value

    def residue(self, modulus: int) -> int:
        """Return the residue for ``modulus``: stored value plus offset."""
        try:
            return self._congruences[modulus] + self._offset
        except KeyError:
            raise KeyError(f"no congruence with modulus {modulus}") from None

    def append(self, modulus: int, residue: int) -> None:
        """Add ``x mod modulus == residue``."""
        self._check_new_modulus(modulus)
        self._settle()
        self._congruences[modulus] = residue % modulus
        self._value = None

    def set_residues(self, updates: Mapping[int, int]) -> None:
        """Rewrite residues for existing moduli."""
        congruences = self._congruences
        if not updates.keys() <= congruences.keys():
            unknown = min(updates.keys() - congruences.keys())
            raise KeyError(f"no congruence with modulus {unknown}")
        self._settle()
        for modulus, residue in updates.items():
            congruences[modulus] = residue % modulus
        self._value = None

    def shift_all(self) -> int:
        """Add 1 to every residue in O(1); returns how many residues moved.

        Residues are not reduced: the caller keeps each one below its
        modulus (the SC table checks a record's slack first), and a residue
        that reaches its modulus makes :meth:`check` fail.
        """
        self._offset += 1
        self._value = None
        return len(self._congruences)

    def remove(self, modulus: int) -> None:
        """Drop the congruence for ``modulus``."""
        if modulus not in self._congruences:
            raise KeyError(f"no congruence with modulus {modulus}")
        self._settle()
        del self._congruences[modulus]
        self._value = None

    def check(self) -> bool:
        """Verify ``value mod m == n`` for every congruence."""
        solved = self.value
        return all(
            solved % modulus == residue for modulus, residue in self.congruences()
        )
