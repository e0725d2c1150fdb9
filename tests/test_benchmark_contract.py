"""The names the benchmark's tracer wraps must keep resolving.

perfbench/tracer.py rebinds the callables listed in its TARGETS table and
reads the census cache counters; a renamed function or a census cache
without its counters makes every traced benchmark run fail.
"""

import importlib
from pathlib import Path

from orderzeta import census

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    targets = importlib.import_module("tracer").TARGETS
    assert targets
    for module_name, attribute in targets:
        obj = importlib.import_module(module_name)
        for part in attribute.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (module_name, attribute)


def test_census_cache_exposes_counters():
    assert callable(census.count_left_ideals.cache_clear)
    assert callable(census.count_left_ideals.cache_info)
