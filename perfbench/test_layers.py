"""Self-checks of the benchmark's layer map and profiler.

    PYTHONPATH=src python3 -m pytest perfbench/test_layers.py -q
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPRO = HERE.parent / "src" / "repro"
sys.path.insert(0, str(HERE))

from layers import LAYERS, LayerMap, ThreadProfiler  # noqa: E402


def test_every_repro_module_maps_to_a_named_layer():
    layers = LayerMap(REPRO)
    modules = sorted(REPRO.rglob("*.py"))
    assert modules
    for module in modules:
        layer = layers.layer_of(str(module))
        assert layer in LAYERS and layer not in ("stdlib", "other"), module


def test_every_repro_package_is_a_layer():
    packages = {p.name for p in REPRO.iterdir() if (p / "__init__.py").exists()}
    assert packages <= set(LAYERS), packages - set(LAYERS)


def test_stdlib_and_foreign_code_map_to_catch_alls():
    layers = LayerMap(REPRO)
    assert layers.layer_of(json.__file__) == "stdlib"
    assert layers.layer_of("<frozen importlib._bootstrap>") == "stdlib"
    assert layers.layer_of(__file__) == "other"


def test_profiler_sees_threads_started_inside_it():
    def spin():
        total = 0
        for i in range(50_000):
            total += abs(i)

    with ThreadProfiler() as profiler:
        worker = threading.Thread(target=spin)
        worker.start()
        worker.join(timeout=30)
    assert not worker.is_alive()
    summary = profiler.summary(LayerMap(REPRO))
    assert summary.threads == 2
    assert summary.count("stdlib", "<built-in method builtins.abs>") == 50_000
    assert summary.count("other", "test_layers.py:spin") == 1
