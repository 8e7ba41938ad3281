"""The benchmark's per-layer contract: what perfbench wraps still exists in wicrep.

The traced run rebinds the wicrep attributes listed in perfbench/layers.py
and leaves out every metric whose wrapped function is gone, so a refactor
that unbinds one of them silently drops metrics that BENCHMARK.json lists.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        yield importlib.import_module("layers")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


def test_every_wrapped_attribute_is_a_callable_in_wicrep(layers):
    for module_name, attr, *_ in layers.WRAPPED:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), f"{module_name}.{attr}"


def test_every_metric_the_tracer_needs_is_installed(layers):
    from spans import Tracer

    tracer = Tracer()
    try:
        installed = layers.install(tracer)
    finally:
        tracer.uninstall()
    missing = {metric: needs - installed for metric, needs in layers.NEEDS.items() if not needs <= installed}
    assert not missing


def test_per_layer_metrics_are_the_ones_the_benchmark_lists(layers):
    listed = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert list(layers.UNITS) == listed
