"""Unit tests for repro.primes.gen.PrimeGenerator."""

import pytest

from repro.primes.gen import PrimeGenerator
from repro.primes.primality import is_prime
from repro.primes.sieve import primes_first_n


class TestGeneralPool:
    def test_ascending_unique_primes(self):
        generator = PrimeGenerator()
        issued = [generator.get_prime() for _ in range(100)]
        assert issued == primes_first_n(100)

    def test_never_repeats(self):
        generator = PrimeGenerator()
        issued = {generator.get_prime() for _ in range(500)}
        assert len(issued) == 500

    def test_extends_beyond_bootstrap_cache(self):
        generator = PrimeGenerator()
        issued = [generator.get_prime() for _ in range(3000)]
        assert issued == primes_first_n(3000)
        assert all(is_prime(p) for p in issued[-10:])

    def test_iter_primes(self):
        generator = PrimeGenerator()
        iterator = generator.iter_primes()
        assert [next(iterator) for _ in range(5)] == [2, 3, 5, 7, 11]


class TestReservedPool:
    def test_reserved_come_first_and_smallest(self):
        generator = PrimeGenerator(reserved=5)
        reserved = [generator.get_reserved_prime() for _ in range(5)]
        assert reserved == [2, 3, 5, 7, 11]

    def test_general_pool_skips_reserved(self):
        generator = PrimeGenerator(reserved=5)
        assert generator.get_prime() == 13

    def test_exhausted_pool_falls_back(self):
        generator = PrimeGenerator(reserved=2)
        assert generator.get_reserved_prime() == 2
        assert generator.get_reserved_prime() == 3
        assert generator.get_reserved_prime() == 5  # fallback to general

    def test_no_reservation_falls_through(self):
        generator = PrimeGenerator()
        assert generator.get_reserved_prime() == 2

    def test_reserved_remaining(self):
        generator = PrimeGenerator(reserved=3)
        assert generator.reserved_remaining == 3
        generator.get_reserved_prime()
        assert generator.reserved_remaining == 2

    def test_negative_reserved_rejected(self):
        with pytest.raises(ValueError):
            PrimeGenerator(reserved=-1)


class TestAccounting:
    def test_issued_counts_both_pools(self):
        generator = PrimeGenerator(reserved=2)
        generator.get_reserved_prime()
        generator.get_prime()
        assert generator.issued == 2

    def test_largest_issued(self):
        generator = PrimeGenerator(reserved=2)
        assert generator.largest_issued == 0
        generator.get_reserved_prime()  # 2
        generator.get_prime()  # 5
        assert generator.largest_issued == 5

    def test_determinism(self):
        a = PrimeGenerator(reserved=8)
        b = PrimeGenerator(reserved=8)
        sequence_a = [a.get_prime() for _ in range(50)]
        sequence_b = [b.get_prime() for _ in range(50)]
        assert sequence_a == sequence_b


class TestPower2:
    @pytest.mark.parametrize("n, expected", [(1, 2), (2, 4), (3, 8), (10, 1024)])
    def test_values(self, n, expected):
        assert PrimeGenerator.get_power2(n) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PrimeGenerator.get_power2(0)


class TestSharedTable:
    def test_generators_share_one_table(self):
        from repro.primes import gen

        before = len(gen._TABLE)
        first = PrimeGenerator()
        for _ in range(before + 10):
            first.get_prime()
        grown = len(gen._TABLE)
        assert grown > before
        # A second generator walking the same range sieves nothing new.
        second = PrimeGenerator()
        for _ in range(before + 10):
            second.get_prime()
        assert len(gen._TABLE) == grown

    def test_threads_drawing_past_the_table_agree(self):
        import sys
        import threading

        from repro.primes import gen
        from repro.primes.sieve import primes_first_n

        # Each generator's general pool starts at the table's current end,
        # so every thread's first draw races the others to grow it.
        start = len(gen._TABLE)
        draws = 20_000
        barrier = threading.Barrier(8)
        results = [None] * 8

        def draw(slot):
            generator = PrimeGenerator(reserved=start)
            barrier.wait()
            results[slot] = [generator.get_prime() for _ in range(draws)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=draw, args=(slot,)) for slot in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        expected = primes_first_n(start + draws)
        assert all(result == expected[start:] for result in results)
        assert gen._TABLE[: start + draws] == expected
