"""Fixture tests for rules R1–R13: each must trigger and suppress.

Every fixture is an in-memory snippet linted under a *virtual* repo path
(rules decide applicability from the path), with a ``{S}`` placeholder
on the offending line.  Formatted empty it must raise exactly the
expected rule; formatted with an ``# repro: ignore[...] -- reason``
directive the same snippet must come back clean-with-one-suppression.
"""

import pytest

from repro.analysis import lint_source
from repro.analysis.engine import SUPPRESSION_RULE


def _lint(source, rel):
    return lint_source(source, rel)


# (rule, virtual path, source with {S} on the offending line)
TRIGGERS = [
    (
        "R1",
        "src/repro/query/bad.py",
        "def hack(node):\n    node.label = 99{S}\n",
    ),
    (
        "R1",
        "src/repro/labeling/prime.py",
        "def hack(self, key, label):\n    self._labels[key] = label{S}\n",
    ),
    (
        "R2",
        "src/repro/durable/bad.py",
        "def hack(system):\n    system._congruences[7] = 3{S}\n",
    ),
    (
        "R2",
        "src/repro/query/bad.py",
        "def hack(record):\n    record.system._offset += 1{S}\n",
    ),
    (
        "R3",
        "src/repro/order/bad.py",
        "from repro.durable.wal import WriteAheadLog{S}\n",
    ),
    (
        "R3",
        "src/repro/labeling/bad.py",
        "from repro.obs import metrics, audit{S}\n",
    ),
    (
        "R3",
        "src/repro/xmlkit/bad.py",
        "import repro.bench{S}\n",
    ),
    (
        "R4",
        "src/repro/resilient/bad.py",
        "import random\n\ndef roll():\n    return random.random(){S}\n",
    ),
    (
        "R4",
        "src/repro/durable/bad.py",
        "import time\n\ndef stamp():\n    return time.time(){S}\n",
    ),
    (
        "R4",
        "src/repro/query/bad.py",
        "from random import choice{S}\n",
    ),
    (
        "R4",
        "src/repro/bench/bad.py",
        "import time\n\ndef stamp():\n    return time.time(){S}\n",
    ),
    (
        "R5",
        "src/repro/durable/bad.py",
        "def risky():\n    try:\n        work()\n"
        "    except Exception:{S}\n        pass\n",
    ),
    (
        "R5",
        "src/repro/resilient/bad.py",
        "def risky():\n    try:\n        work()\n"
        "    except:{S}\n        result = None\n",
    ),
    (
        "R6",
        "src/repro/resilient/bad.py",
        "def sneak(self, op):\n    self.durable.wal.append(op){S}\n",
    ),
    (
        "R7",
        "src/repro/query/bad.py",
        "def collect(items=[]):{S}\n    return items\n",
    ),
    (
        "R8",
        "src/repro/order/bad.py",
        "class Table:\n    def insert_row(self, row):{S}\n"
        "        self.rows += [row]\n",
    ),
    (
        "R9",
        "src/repro/order/bad.py",
        "def debug(x):\n    print(x){S}\n",
    ),
    (
        "R9",
        "src/repro/bench/bad.py",
        "def report(x):\n    print(x){S}\n",
    ),
    (
        "R10",
        "src/repro/durable/bad.py",
        "import os\n\ndef persist(handle):\n    os.fsync(handle.fileno()){S}\n",
    ),
    (
        "R10",
        "src/repro/resilient/bad.py",
        "def persist(handle):\n    handle.flush(){S}\n",
    ),
    (
        "R11",
        "src/repro/bench/bad.py",
        "from repro.query.window import WindowIndex{S}\n",
    ),
    (
        "R11",
        "src/repro/bench/bad2.py",
        "def sneak(self, row):\n"
        "    self.windows.apply_insert(row, None, None){S}\n",
    ),
    (
        "R11",
        "src/repro/resilient/bad.py",
        "def sneak(self, doc, node, label):\n"
        "    self.engine.store.insert_row(doc, node, label){S}\n",
    ),
    (
        "R12",
        "src/repro/durable/bad.py",
        "import threading{S}\n",
    ),
    (
        "R12",
        "src/repro/query/bad.py",
        "from concurrent.futures import ThreadPoolExecutor{S}\n",
    ),
    (
        "R13",
        "src/repro/durable/bad.py",
        "import multiprocessing{S}\n",
    ),
    (
        "R13",
        "src/repro/resilient/bad.py",
        "from subprocess import Popen{S}\n",
    ),
    (
        "R13",
        "src/repro/replica/bad.py",
        "import os\n\ndef clone():\n    return os.fork(){S}\n",
    ),
]

IDS = [f"{rule}-{path.rsplit('/', 2)[-2]}" for rule, path, _ in TRIGGERS]


@pytest.mark.parametrize("rule,rel,template", TRIGGERS, ids=IDS)
def test_rule_triggers(rule, rel, template):
    report = _lint(template.format(S=""), rel)
    assert [f.rule for f in report.findings] == [rule], report.findings
    assert report.exit_code == 1
    finding = report.findings[0]
    assert finding.path == rel
    assert finding.line >= 1 and finding.message


@pytest.mark.parametrize("rule,rel,template", TRIGGERS, ids=IDS)
def test_rule_suppresses(rule, rel, template):
    directive = f"  # repro: ignore[{rule}] -- fixture justification"
    report = _lint(template.format(S=directive), rel)
    assert report.findings == [], report.findings
    assert report.exit_code == 0
    assert len(report.suppressed) == 1
    assert report.suppressed[0].justification == "fixture justification"


# ---------------------------------------------------------------------------
# Negative fixtures: the sanctioned pattern for each rule stays clean.
# ---------------------------------------------------------------------------

CLEAN = [
    # R1: _set_label is the sanctioned write path; base.py owns the maps.
    ("src/repro/order/good.py", "def ok(scheme, node, p):\n    scheme._set_label(node, p)\n"),
    ("src/repro/labeling/base.py", "def ok(self, key, label):\n    self._labels[key] = label\n"),
    # R2: the SC layer itself may touch residue state.
    ("src/repro/order/sc_table.py", "def ok(system):\n    system._congruences[7] = 3\n"),
    ("src/repro/primes/crt.py", "def ok(system):\n    system._offset += 1\n"),
    # R2: an object's own ``_offset`` (a WAL reader's byte offset) is its own.
    (
        "src/repro/replica/good.py",
        "class Tailer:\n    def seek(self):\n        self._offset = 0\n",
    ),
    # R3: the metrics facade is the sanctioned core-layer import.
    ("src/repro/order/good.py", "from repro.obs import metrics\n"),
    # R3 applies only to the four core packages.
    ("src/repro/durable/good.py", "from repro.resilient.policy import RetryPolicy\n"),
    # R4: seeded RNG and monotonic clocks are the sanctioned forms.
    (
        "src/repro/resilient/good.py",
        "import random\nimport time\n\ndef ok(seed):\n"
        "    rng = random.Random(seed)\n    t = time.perf_counter()\n"
        "    return rng, t\n",
    ),
    # R4: repro.bench has no exemption; Fig 15 times queries with the
    # monotonic perf_counter, the sanctioned duration clock.
    ("src/repro/bench/good.py", "import time\n\ndef ok():\n    return time.perf_counter()\n"),
    # R5: re-raising or signalling handlers are fine.
    (
        "src/repro/durable/good.py",
        "def ok():\n    try:\n        work()\n    except Exception:\n        raise\n",
    ),
    (
        "src/repro/durable/good2.py",
        "def ok():\n    try:\n        work()\n    except Exception:\n"
        "        metrics.incr('x')\n",
    ),
    # R6: the durable write path owns WAL appends; sync is not an append.
    ("src/repro/durable/collection.py", "def ok(self, op):\n    self.wal.append(op)\n"),
    ("src/repro/resilient/good.py", "def ok(self):\n    self.durable.wal.sync()\n"),
    # R7: immutable defaults are fine.
    ("src/repro/query/good.py", "def ok(items=()):\n    return items\n"),
    # R8: metric-emitting and forwarding mutators are fine; private too.
    (
        "src/repro/order/good.py",
        "class T:\n    def insert_row(self, row):\n"
        "        self.rows += [row]\n        metrics.incr('t.inserts')\n",
    ),
    (
        "src/repro/order/good2.py",
        "class T:\n    def insert_row(self, row):\n"
        "        return self.table.insert_record(row)\n",
    ),
    (
        "src/repro/order/good3.py",
        "class T:\n    def _insert_row(self, row):\n        self.rows += [row]\n",
    ),
    # R9: the CLI and the module entry point may print.
    ("src/repro/cli.py", "def ok(x):\n    print(x)\n"),
    ("src/repro/__main__.py", "def ok(x):\n    print(x)\n"),
    # R10: the WAL policy layer owns fsync; flush-with-args is not I/O flush.
    (
        "src/repro/durable/wal.py",
        "import os\n\ndef ok(handle):\n    handle.flush()\n"
        "    os.fsync(handle.fileno())\n",
    ),
    # R10: so does the durable-file module (atomic replace, truncate).
    (
        "src/repro/durable/files.py",
        "import os\n\ndef ok(handle, directory):\n    handle.flush()\n"
        "    os.fsync(handle.fileno())\n    os.fsync(directory)\n",
    ),
    # R11: the store owns the WindowIndex; live owns the patch hooks; the
    # engine may import the entry types it binary-searches.
    (
        "src/repro/query/store.py",
        "def ok(self, row, parent, prev):\n"
        "    self.windows.apply_insert(row, parent, prev)\n",
    ),
    (
        "src/repro/query/live.py",
        "def ok(self, doc, node, label):\n"
        "    self.engine.store.insert_row(doc, node, label)\n",
    ),
    ("src/repro/query/engine.py", "from repro.query.window import WindowEntry\n"),
    # R11 matches store-ish receivers only: an unrelated table is fine.
    ("src/repro/resilient/good2.py", "def ok(self, row):\n    self.table.insert_row(row)\n"),
    # R12: the replication layer and the MVCC publish path own threading.
    ("src/repro/replica/runtime.py", "import threading\n"),
    ("src/repro/replica/good.py", "from concurrent.futures import ThreadPoolExecutor\n"),
    ("src/repro/query/live.py", "import threading\n"),
    # R13: the sharding layer owns process spawning; os.kill is not a spawn.
    ("src/repro/shard/supervisor.py", "import multiprocessing\n"),
    (
        "src/repro/shard/worker.py",
        "import os\n\ndef die():\n    os._exit(70)\n",
    ),
    (
        "src/repro/durable/good3.py",
        "import os\nimport signal\n\ndef ok(pid):\n    os.kill(pid, signal.SIGTERM)\n",
    ),
]


@pytest.mark.parametrize(
    "rel,source", CLEAN, ids=[f"clean-{i}" for i in range(len(CLEAN))]
)
def test_sanctioned_patterns_stay_clean(rel, source):
    report = _lint(source, rel)
    assert report.findings == [], report.findings


# R10 exempts exactly the two console streams: any other argument-less
# flush, and any fsync, outside durable/wal.py and durable/files.py is
# still a finding (here at the CLI, where the console flush lives).
@pytest.mark.parametrize(
    "call,expected",
    [
        ("sys.stdout.flush()", []),
        ("sys.stderr.flush()", []),
        ("handle.flush()", ["R10"]),
        ("self._file.flush()", ["R10"]),
        ("os.fsync(handle.fileno())", ["R10"]),
    ],
)
def test_r10_exempts_only_console_flushes(call, expected):
    source = f"import os\nimport sys\n\ndef run(self, handle):\n    {call}\n"
    report = _lint(source, "src/repro/cli.py")
    assert [f.rule for f in report.findings] == expected, report.findings


def test_naked_suppression_raises_sup_and_keeps_finding():
    source = "def debug(x):\n    print(x)  # repro: ignore[R9]\n"
    report = _lint(source, "src/repro/order/bad.py")
    rules = sorted(f.rule for f in report.findings)
    assert rules == ["R9", SUPPRESSION_RULE]
    assert report.exit_code == 1
    assert not report.suppressed


def test_own_line_directive_covers_next_code_line():
    source = (
        "def debug(x):\n"
        "    # repro: ignore[R9] -- demo CLI helper, output is the point,\n"
        "    # wrapped over two comment lines\n"
        "    print(x)\n"
    )
    report = _lint(source, "src/repro/order/bad.py")
    assert report.findings == []
    assert len(report.suppressed) == 1


def test_directive_for_other_rule_does_not_suppress():
    source = "def debug(x):\n    print(x)  # repro: ignore[R4] -- wrong rule\n"
    report = _lint(source, "src/repro/order/bad.py")
    assert [f.rule for f in report.findings] == ["R9"]
