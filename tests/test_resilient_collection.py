"""The resilient serving layer: retries, degraded mode, probe/resync."""

import pytest

from repro.durable import DurableCollection, collection_fingerprint, recover
from repro.durable.wal import scan_wal
from repro.errors import (
    CapacityError,
    DeadlineExceededError,
    DegradedModeError,
    DurabilityError,
    QueryEvaluationError,
    RetryExhaustedError,
)
from repro.resilient import (
    CLOSED,
    OPEN,
    BreakerPolicy,
    FaultPlan,
    ResilientCollection,
    RetryPolicy,
    TransientIOError,
)
from repro.durable.faults import ALL_SITES
from repro.xmlkit.parser import parse_document

DOC = "<a><b/><c><d/></c></a>"


def flaky_disk(failures, site="append"):
    """Fails the first ``failures`` calls at ``site``, then heals."""
    return FaultPlan(script={f"{site}@{n}": "fail" for n in range(1, failures + 1)})


def dead_disk():
    """Fails every call at every site until healed with ``rate = 0.0``."""
    return FaultPlan(rate=1.0, sleep=lambda _s: None)


def make(tmp_path, faults=None, retry=None, breaker=None, clock=None, name="col"):
    now = {"t": 0.0}
    the_clock = clock if clock is not None else (lambda: now["t"])
    collection = ResilientCollection(
        DurableCollection.create(tmp_path / name, [parse_document(DOC)]),
        faults=faults,
        retry=retry or RetryPolicy(base_delay=0.0, max_delay=0.0),
        breaker=breaker or BreakerPolicy(failure_threshold=3, cooldown_seconds=10.0),
        clock=the_clock,
        sleep=lambda _s: None,
    )
    return collection, now


class TestRetries:
    def test_transient_faults_are_retried_to_success(self, tmp_path):
        flaky = flaky_disk(2)
        collection, _ = make(tmp_path, faults=flaky)
        report = collection.insert_child(collection.documents[0], 0)
        assert report.total_cost >= 0
        assert collection.retries == 2
        assert collection.breaker.state == CLOSED
        assert not collection.degraded

    def test_retried_appends_never_duplicate_records(self, tmp_path):
        # The ambiguous write: bytes landed, acknowledgement did not.
        flaky = flaky_disk(3, site="after")
        collection, _ = make(
            tmp_path, faults=flaky, breaker=BreakerPolicy(failure_threshold=50)
        )
        for i in range(5):
            collection.insert_child(collection.documents[0], 0, tag=f"t{i}")
        collection.close()
        scan = scan_wal(tmp_path / "col" / "wal.log")
        seqs = [record.seq for record in scan.records]
        assert seqs == sorted(set(seqs)) == [1, 2, 3, 4, 5]

    def test_faulty_run_recovers_byte_identical_to_fault_free_twin(
        self, tmp_path
    ):
        flaky = flaky_disk(6)
        faulty, _ = make(
            tmp_path,
            faults=flaky,
            retry=RetryPolicy(max_attempts=10, base_delay=0.0, max_delay=0.0),
            breaker=BreakerPolicy(failure_threshold=50),
            name="faulty",
        )
        clean, _ = make(tmp_path, name="clean")
        for col in (faulty, clean):
            for i in range(8):
                col.insert_child(col.documents[0], 0, tag=f"t{i}")
            col.close()
        recovered = recover(tmp_path / "faulty")
        assert collection_fingerprint(recovered.collection) == (
            collection_fingerprint(clean.live)
        )

    def test_exhausted_retries_raise_with_the_final_fault_chained(
        self, tmp_path
    ):
        dead = dead_disk()
        collection, _ = make(
            tmp_path,
            faults=dead,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0),
            breaker=BreakerPolicy(failure_threshold=50),
        )
        with pytest.raises(RetryExhaustedError) as info:
            collection.insert_child(collection.documents[0], 0)
        assert isinstance(info.value.__cause__, TransientIOError)

    def test_capacity_errors_are_not_retried(self, tmp_path):
        collection, _ = make(tmp_path)
        attempts = []

        def exhausted():
            attempts.append(1)
            raise CapacityError("order too big", hint="compact()")

        with pytest.raises(CapacityError):
            collection._mutate("register", exhausted, None)
        assert len(attempts) == 1  # exactly one attempt, no retries
        assert collection.retries == 0
        assert collection.fault_counts["capacity"] == 1
        assert collection.breaker.state == CLOSED  # capacity never trips it


class TestDegradedMode:
    def test_breaker_trip_enters_buffered_degraded_mode(self, tmp_path):
        dead = dead_disk()
        collection, _ = make(tmp_path, faults=dead)
        # threshold 3 < max_attempts 4: the breaker opens mid-retry and the
        # operation is acknowledged from memory instead of erroring.
        report = collection.insert_child(collection.documents[0], 0)
        assert report is not None
        assert collection.degraded
        assert collection.buffered == 1
        assert collection.breaker.state == OPEN

    def test_queries_still_answer_while_degraded(self, tmp_path):
        dead = dead_disk()
        collection, _ = make(tmp_path, faults=dead)
        collection.insert_child(collection.documents[0], 0, tag="x")
        assert collection.degraded
        assert collection.count("//x") == 1
        assert collection.count("//b") == 1
        assert collection.degraded_queries == 2
        assert collection.check()

    def test_mutations_keep_buffering_while_degraded(self, tmp_path):
        dead = dead_disk()
        collection, _ = make(tmp_path, faults=dead)
        for i in range(4):
            collection.insert_child(collection.documents[0], 0, tag=f"t{i}")
        assert collection.buffered == 4
        assert collection.count("//*") == 4 + 4  # originals + buffered

    def test_degraded_buffer_rejects_what_the_healthy_path_rejects(
        self, tmp_path
    ):
        dead = dead_disk()
        collection, _ = make(tmp_path, faults=dead)
        collection.insert_child(collection.documents[0], 0, tag="x")
        assert collection.degraded and collection.buffered == 1
        before = collection_fingerprint(collection.live)
        with pytest.raises(QueryEvaluationError, match="past the end"):
            collection.insert_child(collection.documents[0], 99)
        assert collection.buffered == 1
        assert collection.buffered_total == 1
        assert collection_fingerprint(collection.live) == before

    def test_checkpoint_is_refused_while_degraded(self, tmp_path):
        dead = dead_disk()
        collection, _ = make(tmp_path, faults=dead)
        collection.insert_child(collection.documents[0], 0)
        with pytest.raises(DegradedModeError):
            collection.checkpoint()


class TestProbeAndResync:
    def test_probe_waits_for_the_cooldown(self, tmp_path):
        dead = dead_disk()
        collection, now = make(tmp_path, faults=dead)
        collection.insert_child(collection.documents[0], 0)
        assert collection.degraded
        dead.rate = 0.0
        now["t"] = 5.0  # cooldown is 10s: too early, still degraded
        collection.insert_child(collection.documents[0], 0)
        assert collection.degraded
        assert collection.buffered == 2

    def test_successful_probe_resyncs_and_resumes_logging(self, tmp_path):
        dead = dead_disk()
        collection, now = make(tmp_path, faults=dead)
        collection.insert_child(collection.documents[0], 0, tag="lost")
        dead.rate = 0.0
        now["t"] = 20.0
        collection.insert_child(collection.documents[0], 0, tag="found")
        assert not collection.degraded
        assert collection.buffered == 0
        assert collection.breaker.state == CLOSED
        # post-probe, everything served while degraded is durable again
        collection.close()
        recovered = recover(tmp_path / "col")
        assert collection_fingerprint(recovered.collection) == (
            collection_fingerprint(collection.live)
        )

    def test_failed_probe_reopens_the_breaker(self, tmp_path):
        dead = dead_disk()
        collection, now = make(tmp_path, faults=dead)
        collection.insert_child(collection.documents[0], 0)
        now["t"] = 20.0  # cooldown elapsed, but the disk is still dead
        collection.insert_child(collection.documents[0], 0)
        assert collection.degraded
        assert collection.probe_failures == 1
        assert collection.breaker.state == OPEN
        assert collection.breaker.times_opened == 2

    def test_resync_covers_both_retained_generations(self, tmp_path):
        # A fallback to the older snapshot generation must never resurrect
        # pre-degraded state.
        dead = dead_disk()
        collection, now = make(tmp_path, faults=dead)
        collection.insert_child(collection.documents[0], 0, tag="deg")
        dead.rate = 0.0
        now["t"] = 20.0
        collection.insert_child(collection.documents[0], 0, tag="post")
        from repro.durable.recovery import list_generations, snapshot_path
        from repro.durable.snapshot import read_snapshot, restore_collection

        generations = list_generations(tmp_path / "col")
        assert len(generations) == 2
        for generation in generations:
            state = read_snapshot(snapshot_path(tmp_path / "col", generation))
            restored = restore_collection(state)
            assert restored.count("//deg") == 1


class TestDeadline:
    def test_deadline_converts_retries_into_a_typed_error(self, tmp_path):
        dead = dead_disk()
        now = {"t": 0.0}

        def slow_clock():
            now["t"] += 2.0  # every look at the clock costs 2s
            return now["t"]

        collection, _ = make(
            tmp_path,
            faults=dead,
            retry=RetryPolicy(max_attempts=10, base_delay=0.0, max_delay=0.0,
                              deadline_seconds=5.0),
            breaker=BreakerPolicy(failure_threshold=50),
            clock=slow_clock,
        )
        with pytest.raises(DeadlineExceededError) as info:
            collection.insert_child(collection.documents[0], 0)
        assert isinstance(info.value.__cause__, TransientIOError)
        assert collection.deadline_exceeded == 1


class TestHealthAndLifecycle:
    def test_health_report_shape(self, tmp_path):
        flaky = flaky_disk(1)
        collection, _ = make(tmp_path, faults=flaky)
        collection.insert_child(collection.documents[0], 0)
        report = collection.health()
        assert report["state"] == "ok"
        assert report["breaker"]["state"] == CLOSED
        assert report["retries"] == 1
        assert report["faults"]["transient"] == 1
        assert report["chaos"]["total"] == 1
        assert report["last_seq"] == 1

    def test_health_reflects_degraded_state(self, tmp_path):
        dead = dead_disk()
        collection, _ = make(tmp_path, faults=dead)
        collection.insert_child(collection.documents[0], 0)
        report = collection.health()
        assert report["state"] == "degraded"
        assert report["breaker"]["state"] == OPEN
        assert report["degraded"]["buffered"] == 1

    def test_close_drains_with_retries(self, tmp_path):
        flaky = flaky_disk(1, site="sync")
        collection, _ = make(tmp_path, faults=flaky)
        collection.close()  # one injected sync fault, retried internally
        assert collection.retries == 1
        with pytest.raises(DurabilityError):
            collection.insert_child(collection.documents[0], 0)

    def test_context_manager_closes(self, tmp_path):
        with make(tmp_path)[0] as collection:
            collection.insert_child(collection.documents[0], 0)
        with pytest.raises(DurabilityError):
            collection.checkpoint()

    def test_open_round_trips(self, tmp_path):
        collection, _ = make(tmp_path)
        collection.insert_child(collection.documents[0], 0, tag="kept")
        collection.close()
        reopened = ResilientCollection(DurableCollection.open(tmp_path / "col"))
        assert reopened.count("//kept") == 1
        assert reopened.health()["state"] == "ok"
        reopened.close()


class TestChaosInjector:
    def test_spec_round_trip(self):
        chaos = FaultPlan.from_spec(
            "rate=0.25,seed=9,slow=0.5,delay=0.001,sites=append+sync"
        )
        assert chaos.rate == 0.25
        assert chaos.seed == 9
        assert chaos.slow_rate == 0.5
        assert chaos.sites == frozenset({"append", "sync"})

    def test_empty_spec_disables_chaos(self):
        assert FaultPlan.from_spec("") is None
        assert FaultPlan.from_spec("  ") is None

    @pytest.mark.parametrize(
        "spec",
        [
            "rate=lots",
            "unknown=1",
            "sites=disk",
            "slow=1,delay=-1,rate=0",
            "delay=inf",
            "delay=nan",
            "rate=0.1,rate=0.2",
            "rate=1.5",
            "crash=append@0",
            "crash=disk@1",
        ],
    )
    def test_bad_specs_are_loud(self, spec):
        with pytest.raises(ValueError, match="bad chaos spec"):
            FaultPlan.from_spec(spec)

    def test_same_seed_injects_identically(self, tmp_path):
        def run(name):
            chaos = FaultPlan(rate=0.2, seed=42, sleep=lambda _s: None)
            collection = ResilientCollection(
                DurableCollection.create(tmp_path / name, [parse_document(DOC)]),
                faults=chaos,
                retry=RetryPolicy(max_attempts=12, base_delay=0.0,
                                  max_delay=0.0),
                breaker=BreakerPolicy(failure_threshold=100),
                sleep=lambda _s: None,
            )
            for i in range(10):
                collection.insert_child(collection.documents[0], 0, tag=f"t{i}")
            collection.close()
            return dict(chaos.injected)

        assert run("one") == run("two")

    def test_stalls_call_the_sleep_hook(self):
        naps = []
        chaos = FaultPlan(rate=0.0, slow_rate=1.0, slow_seconds=0.25,
                          seed=0, sleep=naps.append)
        chaos.on_sync(0)
        assert naps == [0.25]
        assert chaos.stalls == 1

    def test_all_sites_have_hooks(self):
        # Every advertised site must actually be reachable through a hook.
        chaos = FaultPlan(rate=1.0, seed=0, sleep=lambda _s: None)
        with pytest.raises(TransientIOError):
            chaos.on_append(1, b"blob")
        with pytest.raises(TransientIOError):
            chaos.after_write(1)
        with pytest.raises(TransientIOError):
            chaos.on_sync(0)
        with pytest.raises(TransientIOError):
            chaos.on_snapshot("snap", b"blob")
        assert chaos.total_injected == len(ALL_SITES)
