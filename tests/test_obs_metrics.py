"""Unit tests for repro.obs.metrics — registry, fast path, scoping."""

import json
import sys
import threading

import pytest

from repro.obs import metrics


class TestInstruments:
    def test_counter_get_or_create_stable_identity(self):
        registry = metrics.MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        registry.counter("a").inc()
        registry.counter("a").inc(3)
        assert registry.counter_value("a") == 4
        assert registry.counter_value("never-touched") == 0

    def test_gauge_moves_both_ways(self):
        registry = metrics.MetricsRegistry()
        registry.gauge("g").set(10)
        registry.gauge("g").set(3)
        assert registry.snapshot()["gauges"]["g"] == 3

    def test_timer_aggregates_count_total_mean_max(self):
        timer = metrics.Timer("t")
        timer.record(0.5)
        timer.record(1.5)
        assert timer.count == 2
        assert timer.total_seconds == 2.0
        assert timer.mean_seconds == 1.0
        assert timer.max_seconds == 1.5

    def test_unused_timer_mean_is_zero(self):
        assert metrics.Timer("t").mean_seconds == 0.0


class TestConcurrentFirstUse:
    """Threads that miss on the same fresh names at once must be handed one
    instrument per name; an instrument the registry dropped loses every
    update made through it."""

    THREADS = 4
    NAMES = [f"n{i}" for i in range(2000)]

    @pytest.mark.parametrize("kind", ["counter", "gauge", "timer"])
    def test_every_thread_gets_the_registered_instrument(self, kind):
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                registry = metrics.MetricsRegistry()
                factory = getattr(registry, kind)
                barrier = threading.Barrier(self.THREADS)
                received = [[] for _ in range(self.THREADS)]

                def first_use(out):
                    barrier.wait(timeout=30)
                    out.extend(factory(name) for name in self.NAMES)

                threads = [
                    threading.Thread(target=first_use, args=(out,))
                    for out in received
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                registered = [factory(name) for name in self.NAMES]
                for out in received:
                    assert len(out) == len(self.NAMES)
                    assert all(a is b for a, b in zip(out, registered))
        finally:
            sys.setswitchinterval(previous)


class TestRegistrySnapshot:
    def test_snapshot_shape_is_json_serializable(self):
        registry = metrics.MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.timer("t").record(0.25)
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["counters"] == {"c": 2}
        assert snapshot["gauges"] == {"g": 1.5}
        assert snapshot["timers"]["t"] == {
            "count": 1,
            "total_s": 0.25,
            "mean_s": 0.25,
            "max_s": 0.25,
        }

    def test_reset_drops_names_and_values(self):
        registry = metrics.MetricsRegistry()
        registry.counter("c").inc()
        registry.reset()
        assert registry.snapshot() == {"counters": {}, "gauges": {}, "timers": {}}


class TestDisabledFastPath:
    def test_collection_is_off_by_default(self):
        assert not metrics.enabled()

    def test_incr_is_noop_while_disabled(self):
        metrics.incr("test.disabled.counter")
        assert metrics.registry().counter_value("test.disabled.counter") == 0

    def test_gauge_is_noop_while_disabled(self):
        metrics.gauge("test.disabled.gauge", 9)
        assert "test.disabled.gauge" not in metrics.snapshot()["gauges"]

    def test_timed_context_manager_is_noop_while_disabled(self):
        with metrics.timed("test.disabled.timer"):
            pass
        assert "test.disabled.timer" not in metrics.snapshot()["timers"]

    def test_timed_decorator_is_passthrough_while_disabled(self):
        @metrics.timed("test.disabled.decorated")
        def work(x):
            return x + 1

        assert work(1) == 2
        assert "test.disabled.decorated" not in metrics.snapshot()["timers"]


class TestEnableDisable:
    def test_enable_records_into_global_registry(self):
        metrics.enable()
        try:
            metrics.incr("test.enabled.counter", 5)
            assert metrics.registry().counter_value("test.enabled.counter") == 5
        finally:
            metrics.disable()
            metrics.reset()
        assert not metrics.enabled()


class TestCollecting:
    def test_scope_isolates_and_restores(self):
        with metrics.collecting() as registry:
            assert metrics.enabled()
            assert metrics.registry() is registry
            metrics.incr("test.scoped")
            assert registry.counter_value("test.scoped") == 1
        assert not metrics.enabled()
        assert metrics.registry() is not registry
        assert metrics.registry().counter_value("test.scoped") == 0

    def test_nested_scopes_do_not_leak(self):
        with metrics.collecting() as outer:
            metrics.incr("test.outer")
            with metrics.collecting() as inner:
                metrics.incr("test.inner")
            assert metrics.registry() is outer
            assert inner.counter_value("test.inner") == 1
            assert inner.counter_value("test.outer") == 0
        assert outer.counter_value("test.outer") == 1
        assert outer.counter_value("test.inner") == 0

    def test_timed_context_manager_records_in_scope(self):
        with metrics.collecting() as registry:
            with metrics.timed("test.cm"):
                pass
        timer = registry.snapshot()["timers"]["test.cm"]
        assert timer["count"] == 1
        assert timer["total_s"] >= 0.0

    def test_timed_decorator_checks_enabled_per_call(self):
        @metrics.timed("test.decorated")
        def work():
            return 42

        assert work() == 42  # disabled: nothing recorded
        with metrics.collecting() as registry:
            assert work() == 42
            assert work() == 42
        assert registry.snapshot()["timers"]["test.decorated"]["count"] == 2
        assert "test.decorated" not in metrics.snapshot()["timers"]

    def test_timed_decorator_records_on_exception(self):
        @metrics.timed("test.raising")
        def boom():
            raise ValueError("expected")

        with metrics.collecting() as registry:
            try:
                boom()
            except ValueError:
                pass
        assert registry.snapshot()["timers"]["test.raising"]["count"] == 1

    def test_scope_restores_after_exception(self):
        try:
            with metrics.collecting():
                raise RuntimeError("expected")
        except RuntimeError:
            pass
        assert not metrics.enabled()
