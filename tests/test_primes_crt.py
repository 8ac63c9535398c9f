"""Unit tests for repro.primes.crt — the SC table's algebraic core."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.primes.crt import CongruenceSystem, solve_congruences, solve_congruences_euler
from repro.primes.euclid import extended_gcd
from repro.primes.sieve import primes_first_n


class TestSolveCongruences:
    def test_paper_example(self):
        """Section 4.1's worked example: P=[3,4,5], I=[1,2,3] -> x=58."""
        assert solve_congruences([3, 4, 5], [1, 2, 3]) == 58

    def test_figure9_sc_value(self):
        """Figure 9: self-labels 2,3,5,7,11,13 with orders 1..6 give 29243."""
        assert solve_congruences([2, 3, 5, 7, 11, 13], [1, 2, 3, 4, 5, 6]) == 29243

    def test_figure12_first_record(self):
        """Figure 11/12's updated first record equations."""
        x = solve_congruences([2, 3, 5, 7, 11], [1, 2, 4, 5, 6])
        for modulus, residue in [(2, 1), (3, 2), (5, 4), (7, 5), (11, 6)]:
            assert x % modulus == residue

    def test_figure11_second_record(self):
        x = solve_congruences([13, 17], [7, 3])
        assert x % 13 == 7 and x % 17 == 3

    def test_empty_system(self):
        assert solve_congruences([], []) == 0

    def test_single_congruence(self):
        assert solve_congruences([7], [5]) == 5

    def test_residues_reduced_modulo(self):
        assert solve_congruences([5], [12]) == 2

    def test_solution_in_range(self):
        x = solve_congruences([3, 5, 7], [2, 3, 2])
        assert 0 <= x < 105

    def test_non_coprime_compatible(self):
        # x = 2 mod 4 and x = 0 mod 6 -> x = 6 mod 12
        assert solve_congruences([4, 6], [2, 0]) == 6

    def test_non_coprime_incompatible_raises(self):
        with pytest.raises(ValueError):
            solve_congruences([4, 6], [1, 0])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            solve_congruences([3, 5], [1])

    def test_nonpositive_modulus_raises(self):
        with pytest.raises(ValueError):
            solve_congruences([0], [0])


class TestEulerFormula:
    def test_matches_paper_example(self):
        assert solve_congruences_euler([3, 4, 5], [1, 2, 3]) == 58

    def test_matches_incremental_solver(self):
        moduli, residues = [2, 3, 5, 7, 11, 13], [1, 2, 3, 4, 5, 6]
        assert solve_congruences_euler(moduli, residues) == solve_congruences(
            moduli, residues
        )

    def test_requires_coprime(self):
        with pytest.raises(ValueError):
            solve_congruences_euler([4, 6], [2, 0])

    def test_empty(self):
        assert solve_congruences_euler([], []) == 0


class TestCongruenceSystem:
    def test_value_matches_solver(self):
        system = CongruenceSystem([3, 4, 5], [1, 2, 3])
        assert system.value == 58

    def test_append_is_incremental_and_correct(self):
        system = CongruenceSystem([2, 3], [1, 2])
        baseline = system.value  # force caching
        assert baseline % 2 == 1
        system.append(5, 3)
        assert system.value % 5 == 3
        assert system.value % 2 == 1 and system.value % 3 == 2

    def test_append_without_prior_solve(self):
        system = CongruenceSystem()
        system.append(7, 4)
        system.append(11, 9)
        assert system.value % 7 == 4 and system.value % 11 == 9

    def test_set_residues_bulk_update(self):
        system = CongruenceSystem([2, 3, 5, 7, 11], [1, 2, 3, 4, 5])
        system.set_residues({5: 4, 7: 5, 11: 6})
        assert system.value == solve_congruences([2, 3, 5, 7, 11], [1, 2, 4, 5, 6])

    def test_set_residue_unknown_modulus_raises(self):
        system = CongruenceSystem([3], [1])
        with pytest.raises(KeyError):
            system.set_residues({5: 0})

    def test_remove(self):
        system = CongruenceSystem([3, 5], [1, 2])
        system.remove(3)
        assert system.moduli == (5,)
        assert system.value == 2

    def test_remove_unknown_raises(self):
        with pytest.raises(KeyError):
            CongruenceSystem([3], [1]).remove(5)

    def test_duplicate_modulus_rejected(self):
        system = CongruenceSystem([3], [1])
        with pytest.raises(ValueError):
            system.append(3, 2)

    def test_non_coprime_append_rejected(self):
        system = CongruenceSystem([6], [1])
        with pytest.raises(ValueError):
            system.append(4, 2)

    def test_check(self):
        system = CongruenceSystem([2, 3, 5], [1, 2, 3])
        assert system.check()

    def test_len_and_contains(self):
        system = CongruenceSystem([2, 3], [0, 1])
        assert len(system) == 2
        assert 3 in system and 5 not in system

    def test_product(self):
        assert CongruenceSystem([3, 5, 7], [0, 0, 0]).product == 105

    def test_residue_lookup(self):
        system = CongruenceSystem([5], [3])
        assert system.residue(5) == 3
        with pytest.raises(KeyError):
            system.residue(7)

    def test_empty_value_zero(self):
        assert CongruenceSystem().value == 0


class TestIncrementalMaintenance:
    """The incremental shortcuts against the from-scratch oracle.

    ``set_residues`` (CRT-basis delta), ``remove`` (modulo-reduction), and
    deferred mode all promise the same value a fresh ``solve_congruences``
    would produce; ``check()`` is the paper's own verification predicate.
    """

    PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)

    def test_randomized_mutation_sequence_matches_oracle(self):
        import random

        rng = random.Random(42)
        for _round in range(20):
            moduli = list(rng.sample(self.PRIMES, rng.randint(2, 6)))
            system = CongruenceSystem(
                moduli, [rng.randrange(m) for m in moduli]
            )
            system.value  # force the cache so every mutation is incremental
            for _step in range(15):
                roll = rng.random()
                if roll < 0.5 and len(system) > 1:
                    chosen = rng.sample(
                        system.moduli, rng.randint(1, len(system) - 1)
                    )
                    system.set_residues(
                        {m: rng.randrange(m) for m in chosen}
                    )
                elif roll < 0.75 and len(system) > 1:
                    system.remove(rng.choice(system.moduli))
                else:
                    absent = [p for p in self.PRIMES if p not in system]
                    if absent:
                        m = rng.choice(absent)
                        system.append(m, rng.randrange(m))
                assert system.check()
                assert system.value == solve_congruences(
                    list(system.moduli),
                    [system.residue(m) for m in system.moduli],
                )

    def test_set_residues_is_delta_based_not_resolve(self, monkeypatch):
        import repro.primes.crt as crt

        system = CongruenceSystem([3, 5, 7], [1, 2, 3])
        system.value  # cache
        calls = []

        def counting_solve(moduli, residues):
            calls.append(tuple(moduli))
            return solve_congruences(moduli, residues)

        monkeypatch.setattr(crt, "solve_congruences", counting_solve)
        system.set_residues({3: 2, 7: 6})
        assert system.value % 3 == 2 and system.value % 7 == 6
        assert calls == []  # maintained by CRT-basis delta, never re-solved

    def test_remove_is_modulo_reduction_not_resolve(self, monkeypatch):
        import repro.primes.crt as crt

        system = CongruenceSystem([3, 5, 7], [2, 4, 3])
        expected_value = system.value
        monkeypatch.setattr(
            crt,
            "solve_congruences",
            lambda *a: pytest.fail("remove must not re-solve"),
        )
        system.remove(5)
        assert system.value == expected_value % (3 * 7)
        assert system.value % 3 == 2 and system.value % 7 == 3

    def test_deferred_mode_solves_once_at_exit(self, monkeypatch):
        import repro.primes.crt as crt

        system = CongruenceSystem([3, 5], [1, 2])
        system.value
        calls = []

        def counting_solve(moduli, residues):
            calls.append(tuple(moduli))
            return solve_congruences(moduli, residues)

        monkeypatch.setattr(crt, "solve_congruences", counting_solve)
        system.begin_deferred()
        assert system.deferred
        system.append(7, 4)
        system.set_residues({3: 0, 5: 3})
        system.remove(5)
        assert calls == []  # mutations were dictionary-only
        system.end_deferred()
        assert not system.deferred
        assert system.value % 3 == 0 and system.value % 7 == 4
        assert len(calls) == 1  # exactly one solve paid for the whole batch
        assert system.check()

    def test_deferred_mid_batch_read_still_correct(self):
        system = CongruenceSystem([3, 5], [1, 2])
        system.begin_deferred()
        system.set_residues({3: 2})
        # Reading mid-batch lazily solves; the next mutation re-invalidates.
        assert system.value % 3 == 2 and system.value % 5 == 2
        system.set_residues({5: 4})
        system.end_deferred()
        assert system.value % 3 == 2 and system.value % 5 == 4
        assert system.check()


def reference_solve(moduli, residues):
    """Pairwise CRT merging on the pure-Python ``extended_gcd``.

    The production solver uses ``math.gcd`` and ``pow(x, -1, m)``; it must
    agree with this reference exactly.
    """
    solution, combined = 0, 1
    for modulus, residue in zip(moduli, residues):
        g, p, _ = extended_gcd(combined, modulus)
        if (residue - solution) % g:
            raise ValueError("incompatible congruences")
        lcm = combined // g * modulus
        step = (residue - solution) // g * p % (modulus // g)
        solution, combined = (solution + combined * step) % lcm, lcm
    return solution


REFERENCE_PRIMES = primes_first_n(60)


@st.composite
def coprime_systems(draw):
    moduli = draw(st.lists(st.sampled_from(REFERENCE_PRIMES), max_size=8, unique=True))
    return moduli, [draw(st.integers(0, m - 1)) for m in moduli]


@st.composite
def compatible_systems(draw):
    """Arbitrary (often non-coprime) moduli, residues all taken from one x."""
    moduli = draw(st.lists(st.integers(1, 120), max_size=6))
    x = draw(st.integers(0, 10**12))
    return moduli, [x % m for m in moduli]


class TestAgainstEuclidReference:
    @given(coprime_systems())
    def test_coprime_solve_matches_reference(self, system):
        moduli, residues = system
        assert solve_congruences(moduli, residues) == reference_solve(moduli, residues)

    @given(compatible_systems())
    def test_compatible_non_coprime_solve_matches_reference(self, system):
        moduli, residues = system
        assert solve_congruences(moduli, residues) == reference_solve(moduli, residues)

    @given(
        st.integers(2, 12),
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(0, 10**6),
        st.data(),
    )
    def test_conflicting_congruences_still_raise(self, g, ka, kb, x, data):
        a, b = g * ka, g * kb
        # Shifting b's residue by a non-multiple of gcd(a, b) leaves no x
        # that satisfies both congruences.
        shift = data.draw(st.integers(1, math.gcd(a, b) - 1))
        moduli, residues = [a, b], [x % a, (x + shift) % b]
        with pytest.raises(ValueError):
            reference_solve(moduli, residues)
        with pytest.raises(ValueError):
            solve_congruences(moduli, residues)

    @given(coprime_systems(), st.data())
    def test_incremental_updates_match_reference(self, system, data):
        moduli, residues = system
        live = CongruenceSystem(moduli, residues)
        live.value  # cache, so every mutation below takes the incremental path
        for _ in range(data.draw(st.integers(1, 6))):
            action = data.draw(st.sampled_from(["append", "set", "remove"]))
            if action == "append" or not len(live):
                absent = [p for p in REFERENCE_PRIMES if p not in live]
                live.append(data.draw(st.sampled_from(absent)), data.draw(st.integers(0, 10**6)))
            elif action == "set":
                chosen = data.draw(st.sets(st.sampled_from(live.moduli), min_size=1))
                live.set_residues({m: data.draw(st.integers(0, 10**6)) for m in chosen})
            else:
                live.remove(data.draw(st.sampled_from(live.moduli)))
            expected = reference_solve(
                list(live.moduli), [live.residue(m) for m in live.moduli]
            )
            assert live.value == expected
