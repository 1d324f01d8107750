"""The benchmark's own modules must keep importing against the program.

perfbench/run.py imports ``tracing``, ``calibrate`` and ``workloads`` for
every workload, traced or not. A library name they use that disappears
would fail every benchmark run, so the imports are checked here.
"""

import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_modules_import(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    for name in ("tracing", "calibrate", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
        importlib.import_module(name)
    workloads = importlib.import_module("workloads")
    declared = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    for size in workloads.WORKLOADS.values():
        assert declared <= set(size)
