"""System benchmark: four workloads, end-to-end metrics, traced layer breakdown.

See ``perf/README.md`` for the workload and metric catalogue and
``BENCHMARK.json`` at the repository root for the bounds.
"""
