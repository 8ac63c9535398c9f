"""Tests for the whole-program analyzer: pass 0 plus rules R14, R15 and R17.

Three layers, mirroring ``tests/test_analysis_rules.py``:

* rule fixtures — each program rule must trigger, suppress, and stay
  quiet on the sanctioned pattern;
* pass-0 unit tests — symbol table and call graph over a synthetic
  package exercising aliased imports, ``self``-method dispatch through
  declared attribute types, and re-export chains;
* end-to-end acceptance — an apply deliberately moved ahead of its WAL
  append makes the CLI exit 1 with a SARIF finding naming the method,
  the real tree self-lints clean for the program rules, and the rename-tolerant
  baseline fallback matches on ``rule::basename::message``.
"""

import argparse
import json
import time
from pathlib import Path

import pytest

from repro.analysis import Baseline, Finding, lint_source
from repro.analysis.cli import cmd_lint, repo_root, run_lint
from repro.analysis.context import context_from_source
from repro.analysis.engine import lint_contexts
from repro.analysis.program import Program
from repro.analysis.reporters import render_json, render_stats
from repro.replica.runtime import TailerThread


def _lint(source, rel):
    return lint_source(source, rel)


# ---------------------------------------------------------------------------
# Rule fixtures: trigger / suppressed, {S} marks the offending line.
# ---------------------------------------------------------------------------

TRIGGERS = [
    (
        "R14",
        "src/repro/query/bad.py",
        "class Cache:\n"
        "    # repro: guarded-by(_lock): _data\n"
        "    def __init__(self):\n"
        "        self._lock = object()\n"
        "        self._data = 0\n"
        "    def bump(self):\n"
        "        self._data = 1{S}\n",
    ),
    (
        "R14",
        "src/repro/replica/bad_lock.py",
        "import threading\n\n"
        "class Gauge:\n"
        "    # repro: guarded-by(_lock): _total\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._total = 0\n"
        "    def read(self):\n"
        "        return self._total{S}\n",
    ),
    (
        "R15",
        "src/repro/query/bad.py",
        "def refresh(source):\n"
        "    view = source.publish_view()\n"
        "    view.insert_row(1){S}\n"
        "    return view\n",
    ),
    (
        "R15",
        "src/repro/query/bad2.py",
        "class C:\n"
        "    def publish_view(self):{S}\n"
        "        return self.store\n",
    ),
    (
        "R17",
        "src/repro/durable/collection.py",
        "class DurableCollection:\n"
        "    def insert_child(self, op):\n"
        "        self.live.insert_child(op){S}\n"
        "        self.wal.append(op)\n",
    ),
    (
        "R17",
        "src/repro/shard/bad.py",
        "class ShardRouter:\n"
        "    def apply(self, op):{S}\n"
        "        self.supervisor.request(op)\n",
    ),
]

IDS = [f"{rule}-{path.rsplit('/', 1)[-1]}" for rule, path, _ in TRIGGERS]


@pytest.mark.parametrize("rule,rel,template", TRIGGERS, ids=IDS)
def test_program_rule_triggers(rule, rel, template):
    report = _lint(template.format(S=""), rel)
    assert [f.rule for f in report.findings] == [rule], report.findings
    assert report.exit_code == 1
    finding = report.findings[0]
    assert finding.path == rel
    assert finding.line >= 1 and finding.message


@pytest.mark.parametrize("rule,rel,template", TRIGGERS, ids=IDS)
def test_program_rule_suppresses(rule, rel, template):
    directive = f"  # repro: ignore[{rule}] -- fixture justification"
    report = _lint(template.format(S=directive), rel)
    assert report.findings == [], report.findings
    assert report.exit_code == 0
    assert len(report.suppressed) == 1
    assert report.suppressed[0].justification == "fixture justification"


# ---------------------------------------------------------------------------
# Sanctioned patterns stay clean.
# ---------------------------------------------------------------------------

CLEAN = [
    # R14: access under the declared lock.
    (
        "src/repro/replica/good_lock.py",
        "import threading\n\n"
        "class C:\n"
        "    # repro: guarded-by(_lock): _n\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._n = 0\n"
        "    def bump(self):\n"
        "        with self._lock:\n"
        "            self._n += 1\n",
    ),
    # R14: a private helper only ever called under the lock is protected.
    (
        "src/repro/replica/good_lock2.py",
        "import threading\n\n"
        "class C:\n"
        "    # repro: guarded-by(_lock): _n\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._n = 0\n"
        "    def bump(self):\n"
        "        with self._lock:\n"
        "            self._inc()\n"
        "    def _inc(self):\n"
        "        self._n += 1\n",
    ),
    # R15: publish_view that freezes, and a consumer that only reads.
    (
        "src/repro/query/good_view.py",
        "class C:\n"
        "    def publish_view(self):\n"
        "        return self.store.frozen_copy()\n\n"
        "def consume(source):\n"
        "    view = source.publish_view()\n"
        '    return view.query("//a")\n',
    ),
    # R17: log-then-apply, and delegation to a method that owns the pair.
    (
        "src/repro/durable/collection.py",
        "class DurableCollection:\n"
        "    def insert_child(self, op):\n"
        "        seq = self.wal.append(op)\n"
        "        self.live.insert_child(op)\n"
        "    def bulk_insert(self, ops):\n"
        "        return self.apply_batch(ops)\n"
        "    def apply_batch(self, ops):\n"
        "        seq = self.wal.append(ops)\n"
        "        self.live.apply_batch(ops)\n",
    ),
    # R17: the journal/apply pair may live in a delegated private helper.
    (
        "src/repro/shard/good_router.py",
        "class ShardRouter:\n"
        "    def apply(self, op):\n"
        "        return self._mutate(op)\n"
        "    def _mutate(self, op):\n"
        "        journal = self._journal(op)\n"
        "        journal.buffer.append(op)\n"
        "        return self.supervisor.request(op)\n",
    ),
]


#: Fixture ids stay stable: a deleted fixture's number is not reused.
_CLEAN_IDS = [f"clean-{i}" for i in (0, 1, 2, 5, 6)]
assert len(_CLEAN_IDS) == len(CLEAN)


@pytest.mark.parametrize("rel,source", CLEAN, ids=_CLEAN_IDS)
def test_sanctioned_patterns_stay_clean(rel, source):
    report = _lint(source, rel)
    assert report.findings == [], report.findings


# ---------------------------------------------------------------------------
# Pass 0: symbol table and call graph over a synthetic package.
# ---------------------------------------------------------------------------

_SYNTH_FILES = [
    (
        "src/repro/synth/__init__.py",
        "from repro.synth.impl import helper as exported_helper\n",
    ),
    (
        "src/repro/synth/impl.py",
        "def helper():\n"
        "    return 1\n\n"
        "class Engine:\n"
        "    def __init__(self):\n"
        "        self.count = 0\n"
        "    def run(self):\n"
        "        return self.step()\n"
        "    def step(self):\n"
        "        return helper()\n",
    ),
    (
        "src/repro/synth/driver.py",
        "import repro.synth.impl as impl\n"
        "from repro.synth import exported_helper\n"
        "from repro.synth.impl import Engine\n\n"
        "def drive():\n"
        "    engine = Engine()\n"
        "    engine.run()\n"
        "    return exported_helper() + impl.helper()\n\n"
        "class Holder:\n"
        "    def __init__(self, engine: Engine):\n"
        "        self.engine = engine\n"
        "    def go(self):\n"
        "        return self.engine.step()\n",
    ),
]


@pytest.fixture(scope="module")
def synth_program():
    contexts = [context_from_source(src, rel) for rel, src in _SYNTH_FILES]
    return Program(contexts)


def test_symbol_table_modules_and_reexports(synth_program):
    table = synth_program.symbols
    assert set(table.modules) == {
        "repro.synth",
        "repro.synth.impl",
        "repro.synth.driver",
    }
    resolved = table.resolve_function("repro.synth", "exported_helper")
    assert resolved is not None
    module, info = resolved
    assert module == "repro.synth.impl" and info.name == "helper"
    # The driver resolves the same name through the package re-export.
    resolved = table.resolve_function("repro.synth.driver", "exported_helper")
    assert resolved is not None and resolved[0] == "repro.synth.impl"


def test_symbol_table_attr_types_from_annotated_param(synth_program):
    holder = synth_program.symbols.modules["repro.synth.driver"].classes["Holder"]
    assert holder.attr_types["engine"] == "Engine"


def test_callgraph_name_alias_and_reexport_edges(synth_program):
    graph = synth_program.callgraph
    callees = graph.callees("repro.synth.driver:drive")
    assert "repro.synth.impl:Engine.__init__" in callees  # Engine()
    assert "repro.synth.impl:helper" in callees  # both aliases collapse
    # A call through an untracked local stays unresolved, not misresolved.
    assert "engine.run" in graph.unresolved["repro.synth.driver:drive"]


def test_callgraph_self_method_dispatch(synth_program):
    graph = synth_program.callgraph
    assert graph.callees("repro.synth.impl:Engine.run") == {
        "repro.synth.impl:Engine.step"
    }


def test_callgraph_attr_type_dispatch(synth_program):
    graph = synth_program.callgraph
    assert "repro.synth.impl:Engine.step" in graph.callees(
        "repro.synth.driver:Holder.go"
    )


def test_program_stats_shape(synth_program):
    stats = synth_program.stats()
    assert stats["files"] == 3 and stats["modules"] == 3
    assert stats["call_edges"] >= 4 and stats["call_nodes"] >= 6


# ---------------------------------------------------------------------------
# Acceptance: injected log-order violation, self-clean tree, report plumbing.
# ---------------------------------------------------------------------------


def _lint_args(**overrides):
    defaults = dict(
        paths=[],
        format="text",
        output=None,
        baseline=None,
        no_baseline=True,
        update_baseline=False,
        verbose=False,
        changed_only=False,
        stats=False,
    )
    defaults.update(overrides)
    return argparse.Namespace(**defaults)


def test_injected_wal_opcode_mismatch_fails_cli(tmp_path, capsys):
    """An apply moved ahead of its WAL append fails the CLI with a SARIF finding."""
    real = (repo_root() / "src" / "repro" / "durable" / "collection.py").read_text(
        encoding="utf-8"
    )
    logged_first = (
        '        seq = self._log({"op": "compact"})\n'
        "        record_counts = self.live.compact()\n"
    )
    applied_first = (
        "        record_counts = self.live.compact()\n"
        '        seq = self._log({"op": "compact"})\n'
    )
    broken = real.replace(logged_first, applied_first, 1)
    assert broken != real, "could not inject the reordering"
    target = tmp_path / "src" / "repro" / "durable" / "collection.py"
    target.parent.mkdir(parents=True)
    target.write_text(broken, encoding="utf-8")
    sarif_path = tmp_path / "lint.sarif"
    exit_code = cmd_lint(
        _lint_args(
            paths=[str(target)], format="sarif", output=str(sarif_path)
        )
    )
    capsys.readouterr()
    assert exit_code == 1
    sarif = json.loads(sarif_path.read_text(encoding="utf-8"))
    results = sarif["runs"][0]["results"]
    r17 = [
        r
        for r in results
        if r["ruleId"] == "R17"
        and "DurableCollection.compact" in r["message"]["text"]
    ]
    assert r17, results
    assert not any(r.get("suppressions") for r in r17)
    # The catalog advertises the whole-program rules.
    rule_ids = {r["id"] for r in sarif["runs"][0]["tool"]["driver"]["rules"]}
    assert {"R14", "R15", "R17"} <= rule_ids
    assert "R16" not in rule_ids


def test_unmodified_wal_module_is_parity_clean(tmp_path, capsys):
    """The unmodified durable package (WAL, snapshot, collection) lints clean."""
    exit_code = cmd_lint(
        _lint_args(paths=[str(repo_root() / "src" / "repro" / "durable")])
    )
    capsys.readouterr()
    assert exit_code == 0


def test_real_tree_self_lints_clean_for_program_rules():
    report = run_lint(use_baseline=False)
    program_findings = [
        f for f in report.findings if f.rule in {"R14", "R15", "R17"}
    ]
    assert program_findings == [], program_findings
    # The real annotation sites are exercised: each pass absorbed at least
    # one justified suppression or ran clean over annotated code.
    suppressed_rules = {f.rule for f in report.suppressed}
    assert "R14" in suppressed_rules and "R17" in suppressed_rules


def test_rule_timings_and_program_stats_in_json():
    report = _lint("x = 1\n", "src/repro/order/tiny.py")
    payload = json.loads(render_json(report))
    timings = payload["summary"]["rule_timings"]
    assert "R1" in timings and "pass0" in timings and "R17" in timings
    assert payload["summary"]["program"]["files"] == 1
    assert payload["warnings"] == []


def test_changed_only_skips_program_passes():
    ctx = context_from_source("x = 1\n", "src/repro/order/tiny.py")
    report = lint_contexts([ctx], include_program=False)
    assert report.program_stats == {}
    assert any("skipped" in warning for warning in report.warnings)
    assert all(rule.startswith("R") for rule in report.rule_timings)


def test_stats_exhibit_renders(capsys):
    report = _lint("x = 1\n", "src/repro/order/tiny.py")
    text = render_stats(report)
    assert "whole-program pass 0:" in text
    assert "call_edges" in text and "rule runtimes" in text


# ---------------------------------------------------------------------------
# Baseline rename fallback (rule::basename::message).
# ---------------------------------------------------------------------------


def _finding(path, message="msg", rule="R9"):
    return Finding(rule=rule, message=message, path=path, line=3)


def test_baseline_fallback_matches_renamed_file_with_warning():
    baseline = Baseline.from_findings([_finding("src/repro/order/old.py")])
    warnings = []
    active, grandfathered, stale = baseline.split(
        [_finding("src/repro/neworder/old.py")], warnings=warnings
    )
    assert active == [] and stale == []
    assert len(grandfathered) == 1 and grandfathered[0].baselined
    assert warnings and "renamed" in warnings[0]


def test_baseline_fallback_requires_same_basename():
    baseline = Baseline.from_findings([_finding("src/repro/order/old.py")])
    warnings = []
    active, grandfathered, stale = baseline.split(
        [_finding("src/repro/order/other.py")], warnings=warnings
    )
    assert len(active) == 1 and grandfathered == []
    assert len(stale) == 1 and warnings == []


def test_baseline_exact_match_still_preferred_over_fallback():
    entries = [
        _finding("src/repro/order/old.py"),
        _finding("src/repro/neworder/old.py"),
    ]
    baseline = Baseline.from_findings(entries)
    warnings = []
    active, grandfathered, stale = baseline.split(entries, warnings=warnings)
    assert active == [] and stale == [] and warnings == []
    assert len(grandfathered) == 2


def test_baseline_fallback_absorbs_duplicate_entries():
    baseline = Baseline.from_findings(
        [_finding("src/repro/order/old.py"), _finding("src/repro/order/old.py")]
    )
    warnings = []
    moved = [
        _finding("src/repro/neworder/old.py"),
        _finding("src/repro/neworder/old.py"),
    ]
    active, grandfathered, stale = baseline.split(moved, warnings=warnings)
    assert active == [] and stale == []
    assert len(grandfathered) == 2 and len(warnings) == 2


# ---------------------------------------------------------------------------
# TailerThread counter lock: the R14 fix in repro.replica.runtime.
# ---------------------------------------------------------------------------


class _BoomReplica:
    def poll(self):
        raise RuntimeError("boom")


class _CountingReplica:
    def __init__(self):
        self.calls = 0

    def poll(self):
        self.calls += 1
        return 1


def test_tailer_thread_reraises_error_under_lock():
    tailer = TailerThread(_BoomReplica(), interval=0.001).start()
    deadline = time.monotonic() + 5.0
    while tailer.error is None and time.monotonic() < deadline:
        time.sleep(0.005)
    with pytest.raises(RuntimeError, match="boom"):
        tailer.stop()


def test_tailer_thread_counters_progress_and_stop_is_clean():
    replica = _CountingReplica()
    tailer = TailerThread(replica, interval=0.001).start()
    deadline = time.monotonic() + 5.0
    while replica.calls < 3 and time.monotonic() < deadline:
        time.sleep(0.005)
    tailer.stop()
    assert tailer.polls >= 3 and tailer.applied >= 3


def test_tailer_runtime_module_passes_lock_discipline():
    runtime = repo_root() / "src" / "repro" / "replica" / "runtime.py"
    source = runtime.read_text(encoding="utf-8")
    assert "# repro: guarded-by(_lock): polls, applied, error" in source
    report = _lint(source, "src/repro/replica/runtime.py")
    assert [f for f in report.findings if f.rule == "R14"] == []
    # Regression: dropping the lock around the counter updates must fail.
    broken = source.replace(
        "                with self._lock:\n"
        "                    self.polls += 1\n"
        "                    self.applied += applied\n",
        "                self.polls += 1\n"
        "                self.applied += applied\n",
        1,
    )
    assert broken != source
    report = _lint(broken, "src/repro/replica/runtime.py")
    assert {f.rule for f in report.findings} == {"R14"}
    assert {f.line for f in report.findings} and len(report.findings) == 2
