"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.datasets.shakespeare import play
from repro.xmlkit.serialize import serialize

DOC = "<play><title/><act><scene><speech><line/></speech></scene></act></play>"


@pytest.fixture
def xml_file(tmp_path):
    path = tmp_path / "doc.xml"
    path.write_text(DOC, encoding="utf-8")
    return str(path)


@pytest.fixture
def play_file(tmp_path):
    path = tmp_path / "play.xml"
    path.write_text(serialize(play(seed=1)), encoding="utf-8")
    return str(path)


class TestStats:
    def test_prints_characteristics(self, xml_file, capsys):
        assert main(["stats", xml_file]) == 0
        out = capsys.readouterr().out
        assert "nodes=6" in out and "depth=4" in out

    def test_multiple_files(self, xml_file, capsys):
        assert main(["stats", xml_file, xml_file]) == 0
        assert capsys.readouterr().out.count("nodes=") == 2

    def test_missing_file(self, capsys):
        assert main(["stats", "/no/such/file.xml"]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<a><b></a>", encoding="utf-8")
        assert main(["stats", str(bad)]) == 3
        assert "malformed XML" in capsys.readouterr().err


class TestLabel:
    def test_prints_labels(self, xml_file, capsys):
        assert main(["label", xml_file, "--scheme", "prime"]) == 0
        out = capsys.readouterr().out
        assert "play" in out and "max label" in out

    @pytest.mark.parametrize(
        "scheme",
        ["prime", "prime-original", "prime-bottomup", "interval",
         "interval-startend", "prefix-1", "prefix-2", "dewey"],
    )
    def test_all_schemes_available(self, xml_file, capsys, scheme):
        assert main(["label", xml_file, "--scheme", scheme]) == 0

    def test_annotate_writes_parseable_file(self, xml_file, tmp_path, capsys):
        out_path = tmp_path / "annotated.xml"
        assert main(["label", xml_file, "--annotate", str(out_path)]) == 0
        from repro.xmlkit.parser import parse_document

        annotated = parse_document(out_path.read_text(encoding="utf-8"))
        assert "label" in annotated.attributes


class TestCheck:
    def test_valid_labeling_exits_zero(self, xml_file, capsys):
        assert main(["check", xml_file, "--scheme", "prefix-2"]) == 0
        assert "0 mismatches" in capsys.readouterr().out


class TestQuery:
    def test_counts_and_paths(self, play_file, capsys):
        assert main(["query", "/PLAY//ACT[2]", play_file]) == 0
        out = capsys.readouterr().out
        assert "node(s) retrieved" in out
        assert "/PLAY/ACT" in out

    def test_scheme_choice(self, play_file, capsys):
        assert main(["query", "/PLAY//SPEECH", play_file, "--scheme", "prefix-2"]) == 0

    def test_bad_query_is_an_error(self, play_file, capsys):
        assert main(["query", "PLAY//", play_file]) == 1

    @pytest.mark.parametrize("strategy, path", [("auto", "window"), ("scan", "scan")])
    def test_explain_prints_the_path(self, play_file, capsys, strategy, path):
        argv = ["query", "/PLAY//ACT//LINE", play_file, "--strategy", strategy]
        assert main(argv + ["--explain"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"-- path: {path}"


class TestSql:
    def test_renders_sql(self, capsys):
        assert main(["sql", "/play//act", "--scheme", "prime"]) == 0
        assert "SELECT" in capsys.readouterr().out


class TestSpace:
    def test_space_report_lists_schemes(self, play_file, capsys):
        assert main(["space", play_file]) == 0
        out = capsys.readouterr().out
        for name in ("interval", "prefix-2", "dewey", "prime-bottomup"):
            assert name in out


class TestBench:
    def test_small_exhibit(self, capsys):
        assert main(["bench", "fig4"]) == 0
        assert "Figure 4" in capsys.readouterr().out

    def test_chart_mode(self, capsys):
        assert main(["bench", "fig5", "--chart"]) == 0
        assert "#" in capsys.readouterr().out

    def test_csv_export(self, tmp_path, capsys):
        out = tmp_path / "fig4.csv"
        assert main(["bench", "fig4", "--csv", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("fan-out")

    def test_unknown_exhibit(self, capsys):
        assert main(["bench", "fig99"]) == 2
        assert "unknown exhibit" in capsys.readouterr().err


class TestDurableVerbs:
    @pytest.fixture
    def state_dir(self, tmp_path, play_file):
        directory = tmp_path / "state"
        assert main(["dump", str(directory), play_file]) == 0
        return str(directory)

    def test_dump_creates_a_recoverable_directory(self, tmp_path, play_file, capsys):
        assert main(["dump", str(tmp_path / "fresh"), play_file]) == 0
        out = capsys.readouterr().out
        assert "created durable collection" in out
        assert "snapshot.writes = 1" in out

    def test_dump_refuses_to_overwrite(self, state_dir, play_file, capsys):
        assert main(["dump", state_dir, play_file]) == 4
        assert "already holds" in capsys.readouterr().err

    def test_load_round_trips_a_query(self, state_dir, play_file, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["query", "/PLAY//ACT", play_file]) == 0
        direct = capsys.readouterr().out
        assert cli_main(["load", state_dir, "--query", "/PLAY//ACT"]) == 0
        recovered = capsys.readouterr().out
        assert "recovered from snapshot generation 1" in recovered
        direct_count = [l for l in direct.splitlines() if "retrieved" in l][0]
        count = direct_count.split()[1]
        assert f"-- {count} node(s) retrieved" in recovered

    def test_recover_reports_and_counts(self, state_dir, capsys):
        assert main(["recover", state_dir]) == 0
        out = capsys.readouterr().out
        assert "recovered from snapshot generation 1" in out
        assert "audit:" in out and "0 violations" in out
        assert "snapshot.loads = 1" in out

    def test_recover_falls_back_past_a_corrupt_snapshot(self, state_dir, capsys):
        from pathlib import Path

        from repro.durable import DurableCollection, flip_bit
        from repro.durable.recovery import snapshot_path

        collection = DurableCollection.open(state_dir)
        collection.insert_child(collection.documents[0], 0)
        collection.checkpoint()  # generation 2
        collection.close()
        capsys.readouterr()
        flip_bit(snapshot_path(Path(state_dir), 2), 9)
        assert main(["recover", state_dir]) == 0
        out = capsys.readouterr().out
        assert "fell back past corrupt generation(s): 2" in out

    def test_recover_on_garbage_directory_fails_cleanly(self, tmp_path, capsys):
        assert main(["recover", str(tmp_path / "nothing")]) == 4
        assert "durability failure" in capsys.readouterr().err

    def test_stats_accepts_a_durable_directory(self, state_dir, capsys):
        assert main(["stats", state_dir]) == 0
        out = capsys.readouterr().out
        assert "durable collection" in out
        assert "snapshot.loads = 1" in out
        assert "recovery.runs = 1" in out

    def test_fsync_env_default(self, tmp_path, play_file, monkeypatch):
        monkeypatch.setenv("REPRO_WAL_FSYNC", "batch:4")
        from repro.cli import build_parser

        args = build_parser().parse_args(["dump", str(tmp_path / "s"), play_file])
        assert args.fsync == "batch:4"

    def test_fsync_garbage_is_an_error(self, tmp_path, play_file, capsys):
        assert main(
            ["dump", str(tmp_path / "s"), play_file, "--fsync", "sometimes"]
        ) == 4


class TestHealthVerb:
    @pytest.fixture
    def state_dir(self, tmp_path, xml_file):
        directory = tmp_path / "state"
        assert main(["dump", str(directory), xml_file, "--churn", "10"]) == 0
        return str(directory)

    def test_healthy_collection_exits_zero(self, state_dir, capsys):
        assert main(["health", state_dir]) == 0
        out = capsys.readouterr().out
        assert "state: ok" in out
        assert "breaker: closed" in out
        assert "order check: ok" in out

    def test_json_report(self, state_dir, capsys):
        import json

        assert main(["health", state_dir, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["state"] == "ok"
        assert report["breaker"]["state"] == "closed"
        assert report["order_check"] == "ok"
        assert report["last_seq"] == 10

    def test_garbage_directory_exits_four(self, tmp_path, capsys):
        assert main(["health", str(tmp_path / "nothing")]) == 4
        assert "durability failure" in capsys.readouterr().err


class TestChaosEnv:
    def test_chaos_dump_retries_and_round_trips(
        self, tmp_path, xml_file, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_CHAOS", "rate=0.08,seed=7")
        directory = str(tmp_path / "state")
        assert main(["dump", directory, xml_file, "--churn", "30"]) == 0
        out = capsys.readouterr().out
        assert "chaos:" in out
        assert "resilient.retries" in out  # faults were actually retried
        monkeypatch.delenv("REPRO_CHAOS")
        assert main(["load", directory, "--query", "//*"]) == 0
        assert "0 violations" in capsys.readouterr().out
        assert main(["health", directory]) == 0

    def test_bad_chaos_spec_is_rejected(self, tmp_path, xml_file, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "rate=lots")
        with pytest.raises(ValueError, match="bad chaos spec"):
            main(["dump", str(tmp_path / "state"), xml_file])


class TestReplicationVerbs:
    @pytest.fixture
    def state_dir(self, tmp_path, play_file):
        directory = tmp_path / "state"
        assert main(["dump", str(directory), play_file, "--churn", "5"]) == 0
        return str(directory)

    def test_replicate_converges_and_queries(self, state_dir, capsys):
        assert main(["replicate", state_dir, "--query", "//ACT"]) == 0
        out = capsys.readouterr().out
        assert "replica of" in out and "node(s) retrieved" in out

    def test_replicate_writes_state_for_lag(self, state_dir, tmp_path, capsys):
        state = tmp_path / "rep.json"
        assert main(["replicate", state_dir, "--state", str(state)]) == 0
        capsys.readouterr()
        assert main(["lag", state_dir, "--state", str(state)]) == 0
        out = capsys.readouterr().out
        assert "lag: 0 record(s), 0 byte(s)" in out

    def test_lag_state_counts_a_rotated_log_as_unread(
        self, state_dir, tmp_path, capsys
    ):
        # The recorded offset points into the log generation a checkpoint
        # then pruned away: the new, shorter log is all unread.
        state = tmp_path / "rep.json"
        assert main(["replicate", state_dir, "--state", str(state)]) == 0
        from repro.durable import DurableCollection

        col = DurableCollection.open(state_dir)
        col.checkpoint()
        col.checkpoint()
        col.insert_child(col.documents[0], 0, tag="late")
        col.close()
        capsys.readouterr()
        assert main(["lag", state_dir, "--state", str(state), "--json"]) == 0
        import json

        report = json.loads(capsys.readouterr().out)
        assert report["record_lag"] == 1 and report["byte_lag"] > 0

    def test_lag_json_fields(self, state_dir, capsys):
        assert main(["lag", state_dir, "--json"]) == 0
        import json

        report = json.loads(capsys.readouterr().out)
        assert {"applied_seq", "primary_seq", "record_lag", "byte_lag"} <= set(report)

    def test_lag_without_state_starts_from_the_newest_snapshot(
        self, state_dir, capsys
    ):
        import json

        from repro.durable import DurableCollection

        # dump --churn 5 checkpoints after its churn; two more records follow.
        col = DurableCollection.open(state_dir)
        col.insert_child(col.documents[0], 0, tag="late")
        col.insert_child(col.documents[0], 0, tag="later")
        col.close()
        capsys.readouterr()
        assert main(["lag", state_dir, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["source"] == "newest snapshot"
        assert report["applied_seq"] == 5 and report["primary_seq"] == 7
        assert report["record_lag"] == 2

    def test_lag_max_bytes_exceeded_is_five(self, state_dir, tmp_path, capsys):
        # Make the replica stale: record its position, then let the
        # primary keep writing.
        state = tmp_path / "rep.json"
        assert main(["replicate", state_dir, "--state", str(state)]) == 0
        from repro.durable import DurableCollection

        col = DurableCollection.open(state_dir)
        col.insert_child(col.documents[0], 0, tag="late")
        col.close()
        capsys.readouterr()
        assert main(["lag", state_dir, "--state", str(state), "--max-bytes", "0"]) == 5
        assert "replication failure" in capsys.readouterr().err

    def test_replicate_bad_connect_is_five(self, state_dir, capsys):
        assert main(["replicate", state_dir, "--connect", "nonsense"]) == 5
        assert "HOST:PORT" in capsys.readouterr().err

    def test_serve_then_replicate_over_tcp(self, state_dir, capsys):
        from repro.durable.recovery import WAL_NAME
        from repro.replica import WalShipServer

        server = WalShipServer(f"{state_dir}/{WAL_NAME}")
        host, port = server.start()
        try:
            assert main(["replicate", state_dir, "--connect", f"{host}:{port}"]) == 0
            assert "replica of" in capsys.readouterr().out
        finally:
            server.stop()

    def test_serve_duration_exits_clean(self, state_dir, capsys):
        assert main(["serve", state_dir, "--duration", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "shipping" in out and "stopped" in out

    def test_serve_missing_directory_is_two(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "nope"), "--duration", "0.1"]) == 2


class TestShardVerbs:
    def test_serve_creates_churns_kills_and_recovers(self, xml_file, tmp_path, capsys):
        import json

        root = tmp_path / "sharded"
        assert (
            main(
                ["shard-serve", str(root), xml_file, xml_file,
                 "--shards", "2", "--churn", "8", "--kill", "0",
                 "--query", "//*", "--json"]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["settled"] is True
        assert report["audit_violations"] == 0
        assert report["missing_shards"] == []
        states = {entry["shard"]: entry["state"] for entry in report["shards"]}
        assert states == {0: "up", 1: "up"}
        # The killed worker restarted through recovery mid-churn.
        assert any(entry["restarts"] >= 1 for entry in report["shards"])

    def test_serve_then_reopen_and_offline_status(self, xml_file, tmp_path, capsys):
        import json

        root = tmp_path / "sharded"
        assert main(["shard-serve", str(root), xml_file, xml_file]) == 0
        capsys.readouterr()
        assert main(["shard-serve", str(root), "--churn", "4"]) == 0
        out = capsys.readouterr().out
        assert "opened sharded collection" in out and "churn=4" in out
        assert main(["shard-status", str(root), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["shards"] == 2 and report["doc_count"] == 2
        assert len(report["shard_dirs"]) == 2
        # The churn's WAL records are visible offline, no workers needed.
        assert sum(e["wal_seq"] for e in report["shard_dirs"]) >= 4

    def test_status_reports_each_shards_newest_snapshot(
        self, xml_file, tmp_path, capsys
    ):
        import json

        from repro.durable import DurableCollection, list_shard_directories

        root = tmp_path / "sharded"
        assert main(["shard-serve", str(root), xml_file, xml_file]) == 0
        shard_id, path = list_shard_directories(root)[0]
        col = DurableCollection.open(path)
        col.insert_child(col.documents[0], 0, tag="late")
        col.checkpoint()
        col.insert_child(col.documents[0], 0, tag="later")
        col.close()
        capsys.readouterr()
        assert main(["shard-status", str(root), "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)["shard_dirs"]
        assert [set(e) for e in entries] == [
            {"shard", "generation", "snapshot_seq", "wal_seq"}
        ] * 2
        by_shard = {e["shard"]: e for e in entries}
        assert by_shard[shard_id]["generation"] == 2
        assert by_shard[shard_id]["snapshot_seq"] == 1
        assert by_shard[shard_id]["wal_seq"] == 2
        assert by_shard[1 - shard_id]["generation"] == 1
        assert by_shard[1 - shard_id]["snapshot_seq"] == 0

    def test_serve_create_over_existing_root_is_refused(
        self, xml_file, tmp_path, capsys
    ):
        root = tmp_path / "sharded"
        assert main(["shard-serve", str(root), xml_file]) == 0
        capsys.readouterr()
        assert main(["shard-serve", str(root), xml_file]) == 6
        assert "already holds" in capsys.readouterr().err

    def test_serve_open_without_manifest_is_refused(self, tmp_path, capsys):
        assert main(["shard-serve", str(tmp_path)]) == 6
        assert "not a sharded collection root" in capsys.readouterr().err

    def test_status_on_garbage_directory_is_six(self, tmp_path, capsys):
        assert main(["shard-status", str(tmp_path)]) == 6
        assert "sharding failure" in capsys.readouterr().err


def _tear(wal_path, seq):
    """Append a record header for ``seq`` whose payload never landed."""
    import struct

    with open(wal_path, "ab") as handle:
        handle.write(struct.pack(">QII", seq, 100, 0) + b"torn")


class TestTornTailSequence:
    """Offline verbs report the last whole record, not a torn one."""

    def test_lag_json_reports_the_last_whole_record(self, play_file, tmp_path, capsys):
        import json

        from repro.durable import DurableCollection
        from repro.durable.recovery import WAL_NAME

        state = tmp_path / "state"
        assert main(["dump", str(state), play_file, "--churn", "5"]) == 0
        col = DurableCollection.open(state)
        last_seq = col.last_seq
        col.close()
        assert last_seq > 0
        _tear(state / WAL_NAME, last_seq + 1)
        capsys.readouterr()
        assert main(["lag", str(state), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["primary_seq"] == last_seq

    def test_shard_status_json_reports_the_last_whole_record(
        self, xml_file, tmp_path, capsys
    ):
        import json
        import os

        from repro.durable import list_shard_directories
        from repro.durable.recovery import WAL_NAME

        root = tmp_path / "sharded"
        assert main(["shard-serve", str(root), xml_file, xml_file, "--churn", "4"]) == 0
        capsys.readouterr()
        assert main(["shard-status", str(root), "--json"]) == 0
        before = json.loads(capsys.readouterr().out)["shard_dirs"]
        assert sum(entry["wal_seq"] for entry in before) >= 4
        seqs = {entry["shard"]: entry["wal_seq"] for entry in before}
        for shard_id, path in list_shard_directories(root):
            _tear(os.path.join(str(path), WAL_NAME), seqs[shard_id] + 1)
        assert main(["shard-status", str(root), "--json"]) == 0
        after = json.loads(capsys.readouterr().out)["shard_dirs"]
        assert [e["wal_seq"] for e in after] == [e["wal_seq"] for e in before]


class TestExitCodeContract:
    """Exit codes are API: 1 generic, 2 missing file, 3 bad XML,
    4 durability, 5 replication, 6 sharding."""

    def test_generic_repro_error_is_one(self, play_file):
        assert main(["query", "PLAY//", play_file]) == 1

    def test_missing_file_is_two(self):
        assert main(["stats", "/no/such/file.xml"]) == 2

    def test_malformed_xml_is_three(self, tmp_path):
        bad = tmp_path / "bad.xml"
        bad.write_text("<unclosed", encoding="utf-8")
        assert main(["query", "//*", str(bad)]) == 3

    def test_durability_error_is_four(self, tmp_path):
        wal = tmp_path / "wal.log"
        wal.write_bytes(b"not a wal at all")
        assert main(["load", str(tmp_path)]) == 4

    def test_replication_error_is_five_not_four(self, tmp_path, play_file):
        # ReplicationError subclasses DurabilityError; the CLI must map it
        # to 5, not fall through to the generic durability code.
        directory = tmp_path / "state"
        assert main(["dump", str(directory), play_file]) == 0
        assert main(["replicate", str(directory), "--connect", "bad"]) == 5

    def test_shard_error_is_six_not_one(self, tmp_path):
        # ShardError subclasses ReproError; the CLI must map it to 6,
        # not fall through to the generic code.
        assert main(["shard-status", str(tmp_path)]) == 6


class TestBenchDurability:
    def test_durability_exhibit_runs(self, capsys):
        assert main(["bench", "durability"]) == 0
        out = capsys.readouterr().out
        assert "Durability overhead" in out
        for policy in ("always", "batch:8", "never"):
            assert policy in out
        assert "NO" not in out  # every recovery byte-identical


class TestModuleEntrypoint:
    def test_python_dash_m(self, xml_file):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "stats", xml_file],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "nodes=6" in result.stdout

    def test_closed_pipe_exits_quietly(self, tmp_path):
        import subprocess
        import sys

        # Far more output than a pipe buffers, so the CLI is still writing
        # when the reader goes away, as under ``repro label doc.xml | head -1``.
        wide = tmp_path / "wide.xml"
        wide.write_text("<r>" + "<a/>" * 20000 + "</r>", encoding="utf-8")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "label", str(wide)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline().startswith(b"r: ")
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in stderr and "BrokenPipeError" not in stderr
