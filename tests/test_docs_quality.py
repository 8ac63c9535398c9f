"""Meta-tests: documentation coverage and public-API hygiene.

Deliverable (e) requires doc comments on every public item; these tests
make that a regression-checked property rather than a hope.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro


def walk_modules():
    modules = [repro]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name == "repro.__main__":
            continue  # executable stub, not API surface
        modules.append(importlib.import_module(info.name))
    return modules


ALL_MODULES = walk_modules()


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_every_module_has_a_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), module.__name__


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_every_public_symbol_documented(module):
    undocumented = []
    for name in getattr(module, "__all__", []):
        item = getattr(module, name)
        if inspect.isclass(item) or inspect.isfunction(item):
            if not (item.__doc__ and item.__doc__.strip()):
                undocumented.append(name)
    assert not undocumented, f"{module.__name__}: undocumented {undocumented}"


@pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
def test_public_methods_documented(module):
    undocumented = []
    for name in getattr(module, "__all__", []):
        item = getattr(module, name)
        if not inspect.isclass(item):
            continue
        for method_name, method in inspect.getmembers(item, inspect.isfunction):
            if method_name.startswith("_"):
                continue
            if method.__qualname__.split(".")[0] != item.__name__:
                continue  # inherited from elsewhere; documented there
            if method.__doc__ and method.__doc__.strip():
                continue
            # overrides inherit the base method's documented contract
            inherited_doc = any(
                getattr(base, method_name, None) is not None
                and getattr(getattr(base, method_name), "__doc__", None)
                for base in item.__mro__[1:]
            )
            if not inherited_doc:
                undocumented.append(f"{item.__name__}.{method_name}")
    assert not undocumented, f"{module.__name__}: undocumented {undocumented}"


def test_package_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_version_is_semver_like():
    major, minor, patch = repro.__version__.split(".")
    assert all(part.isdigit() for part in (major, minor, patch))

ROOT = Path(__file__).resolve().parents[1]
METRIC_CALLS = {"incr", "gauge", "timed"}


def emitted_metric_names(path):
    """First-argument name literals of ``metrics.incr/gauge/timed`` calls.

    Maps each name, as written in the source, to a regex a catalogued
    name must match; an f-string's placeholders each stand for one
    dotted-name segment.
    """
    names = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "metrics"
            and node.func.attr in METRIC_CALLS
            and node.args
        ):
            continue
        name = node.args[0]
        if isinstance(name, ast.Constant) and isinstance(name.value, str):
            names[name.value] = re.escape(name.value)
        elif isinstance(name, ast.JoinedStr):
            names[ast.unparse(name)] = "".join(
                re.escape(part.value) if isinstance(part, ast.Constant) else "[a-z_]+"
                for part in name.values
            )
    return names


def uncatalogued_metrics(sources, docs):
    """Metric names emitted in ``sources`` that no ``docs`` page names.

    A catalogued ``<word>`` segment (``query.op.window.<axis>``) names a
    family: it reads as the segment ``word``, which an f-string
    placeholder's pattern matches.
    """
    catalogued = set()
    for doc in docs:
        text = (ROOT / "docs" / doc).read_text()
        catalogued |= {
            re.sub(r"<([a-z_]+)>", r"\1", name)
            for name in re.findall(r"`([a-z_][a-z0-9_.<>]*)`", text)
        }
    emitted = {}
    for path in sources:
        emitted.update(emitted_metric_names(path))
    assert len(emitted) > 20
    return sorted(
        source
        for source, pattern in emitted.items()
        if not any(re.fullmatch(pattern, name) for name in catalogued)
    )


def test_router_and_resilient_metrics_are_catalogued():
    sources = [ROOT / "src/repro/shard/router.py"]
    sources += sorted((ROOT / "src/repro/resilient").glob("*.py"))
    missing = uncatalogued_metrics(sources, ("SHARDING.md", "RESILIENCE.md"))
    assert not missing, f"metrics not in SHARDING.md/RESILIENCE.md: {missing}"


def test_durable_replica_and_shard_metrics_are_catalogued():
    sources = []
    for package in ("durable", "replica", "shard"):
        sources += sorted((ROOT / "src/repro" / package).glob("*.py"))
    docs = ("DURABILITY.md", "BATCHING.md", "REPLICATION.md", "SHARDING.md")
    missing = uncatalogued_metrics(sources, docs)
    assert not missing, f"metrics not in {'/'.join(docs)}: {missing}"


def test_core_metrics_are_catalogued():
    sources = []
    for package in ("query", "order", "labeling", "obs", "primes"):
        sources += sorted((ROOT / "src/repro" / package).glob("*.py"))
    docs = ("OBSERVABILITY.md", "REPLICATION.md")
    missing = uncatalogued_metrics(sources, docs)
    assert not missing, f"metrics not in {'/'.join(docs)}: {missing}"


def metric_table_names(doc):
    """Names in the first cell of ``doc``'s metric-table rows.

    A metric-table row is one whose first cell starts with a backticked
    dotted name; a cell may list several (``a.b`` / ``a.c``).
    """
    names = []
    for line in (ROOT / "docs" / doc).read_text().splitlines():
        cells = line.split("|")
        if len(cells) < 3 or cells[0].strip():
            continue
        first = cells[1].strip()
        if re.match(r"`[a-z_][a-z0-9_]*\.[^`]*`", first):
            names += re.findall(r"`([^`]+)`", first)
    return names


def test_catalogued_metrics_are_emitted():
    patterns = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        patterns.update(emitted_metric_names(path))
    docs = ("DURABILITY.md", "REPLICATION.md", "SHARDING.md", "RESILIENCE.md", "BATCHING.md")
    rows = [(doc, name) for doc in docs for name in metric_table_names(doc)]
    assert len(rows) > 50
    stale = [
        f"{doc}: {name}"
        for doc, name in rows
        if not any(re.fullmatch(pattern, name) for pattern in patterns.values())
    ]
    assert not stale, f"catalogued metrics nothing in src/ emits: {stale}"
