"""Run a workload, check its answers, and report every metric with its unit.

An untraced run measures the end-to-end metrics.  A traced run
(``--trace 1``) first runs the same untraced phase, then sets the system up
again with the wrappers of :mod:`perf.trace` installed and replays exactly
the same requests; its metrics are the per-layer ones, plus
``trace.overhead_frac``, the traced phase's request time over the untraced
phase's, minus one, and the untraced phase's ``request_p50_ms``.

The last line printed is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric and diagnostic by name and unit.  A run whose answers are wrong
prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import gc
import json
import math
import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.obs import metrics as repro_metrics

from perf.trace import LAYERS, Recorder, layer_report, load_dumps
from perf.workloads import WORKLOADS, Failed, Workload

__all__ = ["ROOT", "load_spec", "main", "measure"]

ROOT = Path(__file__).resolve().parents[1]

#: How many times an untraced run sets the system up; ``setup_s`` is the
#: median.  Only the last set-up serves the timed requests.
SETUP_REPEATS = 7

#: The calibration reading ``setup_s`` is scaled to: each set-up's seconds
#: are multiplied by this over the calibration loop timed around it.  It is
#: the loop's median on the quiet host the bounds were set on.
REFERENCE_CALIB_MS = 0.70

#: Calibration drift beyond this share flags the run ``noisy_host``.
NOISY_HOST_DRIFT = 0.2

_LAYER_NAMES = tuple(dict.fromkeys(layer for _, layer, _ in LAYERS))


def load_spec() -> Dict[str, Any]:
    """The repository's ``BENCHMARK.json``: workloads, metrics, units, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(section: str, values: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """``values`` for every metric ``BENCHMARK.json`` lists in ``section``, with its unit."""
    return {
        metric["name"]: (values[metric["name"]], metric["unit"])
        for metric in load_spec()[section]
    }


# ----------------------------------------------------------------------
# Statistics


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# Environment


def calibration_loop() -> float:
    """Seconds for one fixed pure-Python loop, about a millisecond.

    The collector is paused so the loop's time cannot depend on how many
    objects the workload keeps alive.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        table: Dict[int, int] = {}
        items = []
        for value in range(4000):
            table[value & 255] = table.get(value & 255, 0) + value
            items.append(str(value))
        items.sort()
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def calibrate() -> float:
    """Milliseconds per calibration loop: the median of 50."""
    return statistics.median(calibration_loop() for _ in range(50)) * 1000.0


def _filesystem(path: Path) -> str:
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/self/mounts").read_text().splitlines()
    except OSError:
        return kind
    target = str(path.resolve())
    for line in mounts:
        fields = line.split()
        if len(fields) > 2 and target.startswith(fields[1]) and len(fields[1]) > len(best):
            best, kind = fields[1], fields[2]
    return kind


def _commit(root: Path) -> str:
    # The ceiling keeps git from taking the commit of a repository that
    # merely contains this checkout.
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(seed: int) -> Dict[str, Any]:
    """What a reader needs to judge whether two runs are comparable."""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "fsync": "always",
        "filesystem": _filesystem(ROOT),
        "start_method": (
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        ),
        "seed": seed,
        "commit": _commit(ROOT),
    }


def _proc_kib(pid: Any, filename: str, fields: Sequence[str]) -> int:
    """Sum of the ``kB`` fields named ``fields`` in ``/proc/<pid>/<filename>``."""
    total = 0
    for line in Path(f"/proc/{pid}/{filename}").read_text().splitlines():
        name, _, rest = line.partition(":")
        if name in fields:
            total += int(rest.split()[0])
    return total


def start_peak_rss() -> int:
    """Reset this process's peak RSS to its current RSS; returns that, in KiB."""
    Path("/proc/self/clear_refs").write_text("5")
    return _proc_kib("self", "status", ("VmRSS",))


def system_memory_mb(baseline_kib: int, workers: Sequence[int]) -> float:
    """Memory the system has taken since :func:`start_peak_rss`, in MiB.

    This process's peak RSS above the baseline, plus each worker's unique
    pages (private clean and dirty) now.  Forked workers share the pages
    they inherited with this process, which already counts them.
    """
    own = _proc_kib("self", "status", ("VmHWM",)) - baseline_kib
    unique = sum(
        _proc_kib(pid, "smaps_rollup", ("Private_Clean", "Private_Dirty"))
        for pid in workers
    )
    return (own + unique) / 1024.0


# ----------------------------------------------------------------------
# Measuring


@dataclass
class Phase:
    """What one timed loop over the request stream did."""

    done: int = 0
    failed: int = 0
    latencies: List[float] = field(default_factory=list)
    samples: List[Dict[str, Any]] = field(default_factory=list)


def run_phase(
    workload: Workload,
    seconds: float,
    limit: Optional[int] = None,
    recorder: Optional[Recorder] = None,
) -> Phase:
    """Closed loop: send request ``i + 1`` when request ``i`` has returned.

    Without ``limit`` the loop runs for ``seconds`` of wall time and stops
    at a round boundary; with it, it runs exactly ``limit`` requests.
    """
    phase = Phase()
    started = time.perf_counter()
    while phase.done < workload.capacity:
        if limit is not None:
            if phase.done >= limit:
                break
        elif (
            phase.done
            and phase.done % workload.round_size == 0
            and time.perf_counter() - started >= seconds
        ):
            break
        index = phase.done
        workload.before(index)
        if recorder is not None:
            recorder.begin_request(index)
        began = time.perf_counter()
        try:
            sample: Optional[Dict[str, Any]] = workload.request(index)
        except (ReproError, Failed) as error:
            phase.failed += 1
            workload.errors.append(f"request {index} failed: {error!r}")
            sample = None
        latency = time.perf_counter() - began
        if recorder is not None:
            recorder.end_request()
        workload.after(index)
        phase.done += 1
        if sample is not None:
            sample["index"] = index
            phase.latencies.append(latency)
            phase.samples.append(sample)
    return phase


def _traced_phase(
    workload: Workload, workdir: Path, limit: int
) -> Tuple[Phase, Dict[str, Any]]:
    recorder = Recorder()
    dumps = workdir / "trace"
    dumps.mkdir()
    recorder.install()
    recorder.trace_workers(dumps)
    try:
        with repro_metrics.collecting():
            try:
                workload.setup(workdir / "traced")
                phase = run_phase(workload, 0.0, limit=limit, recorder=recorder)
                workload.verify(phase.done, phase.samples)
            finally:
                workload.close()
    finally:
        recorder.uninstall()
    return phase, layer_report(recorder, load_dumps(dumps))


def measure(
    workload: Workload, seconds: float, trace: bool, workdir: Path
) -> Dict[str, Any]:
    """Run one workload; returns the full result record."""
    calib_before = calibrate()
    workload.capacity = workload.round_size * max(
        1, -(-int(seconds * workload.max_rate) // workload.round_size)
    )
    started = time.perf_counter()
    workload.generate(workload.capacity)
    generation = time.perf_counter() - started - workload.oracle_s

    # The inputs and oracle answers stay alive all run.  Frozen, the
    # collector never walks them, so the system pays for collecting its
    # own objects only, and forked workers do not copy their pages.
    gc.collect()
    gc.freeze()
    setups = []
    # The host's speed drifts by up to 2x for minutes at a time, so each
    # set-up is bracketed by calibration readings and scaled by them.
    calibs = [calibrate()]
    try:
        try:
            baseline_kib = start_peak_rss()
            for repeat in range(1 if trace else SETUP_REPEATS):
                if repeat:
                    workload.close()
                    gc.collect()
                setups.append(workload.setup(workdir / f"setup-{repeat}"))
                calibs.append(calibrate())
            wal_before = workload.wal_bytes()
            phase = run_phase(workload, seconds)
            wal_after = workload.wal_bytes()
            memory = system_memory_mb(baseline_kib, workload.worker_pids())
            workload.verify(phase.done, phase.samples)
        finally:
            workload.close()
        if trace:
            gc.collect()
            traced, report = _traced_phase(workload, workdir, phase.done)
    finally:
        gc.unfreeze()

    detail = _details(workload, phase, wal_after - wal_before)
    scaled = [
        wall * REFERENCE_CALIB_MS * 2 / (before + after)
        for wall, before, after in zip(setups, calibs, calibs[1:])
    ]
    detail.update(
        gen_s=(generation, "s"),
        oracle_s=(workload.oracle_s, "s"),
        setup_samples=(len(setups), "count"),
        setup_wall_s=(statistics.median(setups), "s"),
        requests=(phase.done, "count"),
    )
    if trace:
        values = declared("per_layer", _layer_values(workload, report, traced, phase))
        detail.update(_layer_detail(report, traced.done))
    else:
        values = declared(
            "end_to_end", {"setup_s": statistics.median(scaled), "memory_mb": memory}
        )
    calib_after = calibrate()
    drift = abs(calib_after - calib_before) / min(calib_after, calib_before)
    env = environment(workload.seed)
    env.update(
        cpu_calib_ms_before=calib_before,
        cpu_calib_ms_after=calib_after,
        noisy_host=drift > NOISY_HOST_DRIFT,
    )
    attempted = phase.done + (traced.done if trace else 0)
    failed = phase.failed + (traced.failed if trace else 0)
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not workload.errors,
        "attempted": attempted,
        "failed": failed,
        "errors": workload.errors[:20],
        "metrics": _as_json(values),
        "detail": _as_json(detail),
        "env": env,
    }


def _as_json(values: Dict[str, Tuple[float, str]]) -> Dict[str, Dict[str, Any]]:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def _details(workload: Workload, phase: Phase, wal_bytes: int) -> Dict[str, Tuple[float, str]]:
    """Per-workload diagnostics: queries, writes, visibility, recovery, storage."""
    out: Dict[str, Tuple[float, str]] = {
        "failed_frac": (_ratio(phase.failed, phase.done), "ratio"),
    }
    latencies = phase.latencies
    if latencies:
        out["request_p50_ms"] = (percentile(latencies, 0.5) * 1000, "ms")
        out["request_p90_ms"] = (percentile(latencies, 0.9) * 1000, "ms")
        out["request_p99_ms"] = (percentile(latencies, 0.99) * 1000, "ms")
        out["requests_per_s"] = (len(latencies) / sum(latencies), "1/s")
    by_query: Dict[str, List[float]] = {}
    for sample in phase.samples:
        for name, _, seconds in sample.get("queries", ()):
            by_query.setdefault(name, []).append(seconds)
    if by_query:
        for name in sorted(by_query):
            out[f"query.{name}.p50_ms"] = (statistics.median(by_query[name]) * 1000, "ms")
        out["table2_pass_ms"] = (
            sum(statistics.median(values) for values in by_query.values()) * 1000,
            "ms",
        )
        every = [value for values in by_query.values() for value in values]
        out["query_p99_ms"] = (percentile(every, 0.99) * 1000, "ms")
    for key in ("write", "visible"):
        values = [sample[key] for sample in phase.samples if key in sample]
        if values:
            out[f"{key}_p50_ms"] = (percentile(values, 0.5) * 1000, "ms")
            out[f"{key}_p95_ms"] = (percentile(values, 0.95) * 1000, "ms")
            out[f"{key}_p99_ms"] = (percentile(values, 0.99) * 1000, "ms")
    writes = [sample["write"] for sample in phase.samples if "write" in sample]
    ops = phase.done * workload.ops_per_request
    if writes:
        out["write_ops_per_s"] = (_ratio(len(writes) * workload.ops_per_request, sum(writes)), "1/s")
        out["wal_bytes_per_op"] = (_ratio(wal_bytes, ops), "B")
    for key in ("recovery", "catchup"):
        values = [sample[key] for sample in phase.samples if key in sample]
        if values:
            out[f"{key}_s"] = (statistics.median(values), "s")
    out.update(workload.storage)
    return out


def _layer_values(
    workload: Workload, report: Dict[str, Any], traced: Phase, untraced: Phase
) -> Dict[str, float]:
    requests = traced.done
    ops = requests * workload.ops_per_request
    e2e = report["e2e_ns"]
    counters = report["counters"]

    def count(name: str) -> int:
        return counters.get(name, 0)

    evaluations = count("query.evaluations")
    patches = count("live.store_patches")
    values: Dict[str, float] = {
        f"{layer}.self_share": _ratio(report["self_ns"].get(layer, 0), e2e)
        for layer in _LAYER_NAMES
    }
    values.update(
        {
            "request_p50_ms": percentile(untraced.latencies or [0.0], 0.5) * 1000,
            "shard.rpc.round_trips": _ratio(report["receives"], requests),
            "shard.rpc.joined_frac": _ratio(report["joined"], report["receives"]),
            "shard.dispatch_overlap": _ratio(report["handle_ns"], report["batch_ns"]),
            "wal.appends_per_req": _ratio(count("wal.appends"), requests),
            "wal.fsyncs_per_req": _ratio(count("wal.fsyncs"), requests),
            "wal.append_bytes_per_op": _ratio(count("wal.append_bytes"), ops),
            "live.patch_hit_ratio": _ratio(patches, patches + count("live.engine_rebuilds")),
            "sc.records_touched_per_op": _ratio(count("sc.records_touched"), ops),
            "sc.shift_span_per_op": _ratio(count("sc.shift_span"), ops),
            "sc.batch_solves_per_req": _ratio(count("sc.batch_solves"), requests),
            "primes.issued_per_op": _ratio(count("primes.issued"), ops),
            "label.relabel_cascade_per_op": _ratio(count("label.relabel_cascade"), ops),
            "query.nodes_scanned_per_eval": _ratio(count("query.nodes_scanned"), evaluations),
            "query.rows_returned_per_eval": _ratio(count("query.rows_returned"), evaluations),
            "query.yield": _ratio(count("query.rows_returned"), count("query.nodes_scanned")),
            "mvcc.rows_copied_per_changed_row": _ratio(report["rows_published"], ops),
            "trace.coverage": _ratio(sum(report["self_ns"].values()), e2e),
            "trace.overhead_frac": _ratio(
                sum(traced.latencies), sum(untraced.latencies[: len(traced.latencies)])
            )
            - 1.0,
        }
    )
    for strategy in ("scan", "merge", "window", "twig"):
        values[f"planner.pick.{strategy}"] = _ratio(count(f"planner.pick.{strategy}"), evaluations)
    return values


def _layer_detail(report: Dict[str, Any], requests: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer self milliseconds and calls per request, for the record."""
    out: Dict[str, Tuple[float, str]] = {}
    for layer in _LAYER_NAMES:
        if layer not in report["calls"]:
            continue
        out[f"{layer}.self_ms"] = (_ratio(report["self_ns"].get(layer, 0), requests) / 1e6, "ms")
        out[f"{layer}.calls"] = (_ratio(report["calls"].get(layer, 0), requests), "count")
    out["traced_request_ms"] = (_ratio(report["e2e_ns"], requests) / 1e6, "ms")
    return out


# ----------------------------------------------------------------------
# Command line


def _print_record(record: Dict[str, Any]) -> None:
    name = record["workload"]
    for section in ("metrics", "detail"):
        for metric, entry in record[section].items():
            print(f"{name:15} {section:7} {metric:36} {entry['value']:14.6g} {entry['unit']}")
    for key, value in record["env"].items():
        print(f"{name:15} env     {key:36} {value}")
    for error in record["errors"]:
        print(f"{name}: {error}", file=sys.stderr)


def run_one(name: str, seed: int, seconds: float, trace: bool, out: Optional[str]) -> int:
    """Run one workload in this process; print its record; return the exit code."""
    workload = WORKLOADS[name](seed)
    (ROOT / ".perf_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=ROOT / ".perf_work"))
    try:
        record = measure(workload, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _print_record(record)
    if out:
        with open(out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(
        json.dumps(
            {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
        )
    )
    return 0 if record["correct"] else 1


def main(workload: str, seed: int, seconds: float, trace: bool, out: Optional[str]) -> int:
    """``perf run``: one workload here, or every workload in its own process."""
    if workload != "all":
        if workload not in WORKLOADS:
            print(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
            return 2
        return run_one(workload, seed, seconds, trace, out)
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, "-m", "perf", "run", "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
        ]
        if out:
            command += ["--out", str(Path(out).resolve())]
        status = max(status, subprocess.run(command, cwd=ROOT).returncode)
    return status
