"""The benchmark's own modules must keep working against the program.

perfbench/run.py imports ``tracing``, ``calibrate`` and ``workloads`` for
every workload, traced or not. A library name they use that disappears
would fail every benchmark run, so the imports are checked here. A change
in what a library call does or returns would fail the replay only, so
every workload also runs one untraced CLI cycle and one traced replay at
``--smoke`` size.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def import_perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    for name in ("tracing", "calibrate", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
        importlib.import_module(name)
    return importlib.import_module("workloads"), importlib.import_module("tracing")


def test_perfbench_modules_import(monkeypatch):
    workloads, _ = import_perfbench(monkeypatch)
    declared = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    for size in workloads.WORKLOADS.values():
        assert declared <= set(size)


@pytest.mark.parametrize("name", ["clip_256", "clip_demo", "sweep_demo"])
def test_smoke_cycles_are_correct(monkeypatch, tmp_path, name):
    workloads, tracing = import_perfbench(monkeypatch)
    pins = json.loads((ROOT / "perfbench" / "pinned.json").read_text())["smoke"][name]
    session = workloads.Session(workloads.WORKLOADS["smoke"][name], 0, tmp_path / "work", pins)
    session.setup()
    tally = workloads.Tally()
    workloads.cli_cycle(session, tally)
    tracing.traced_cycle(tracing.Tracer(), session, tally)
    assert tally.problems == []
    assert tally.correct and tally.attempted > 0
