"""What the traced benchmark relies on still exists in the package.

bench/layers.json names the entry points the traced run wraps, and
bench/run.py reads the table's work counters and its rows' event lists.
Renaming or deleting any of them would otherwise surface only in a benchmark
run.
"""

import importlib
import json
from pathlib import Path

from limitlearn import ConstantLearner, Construction, Registry, Workspace

BENCH = Path(__file__).resolve().parent.parent / "bench"
LAYERS = BENCH / "layers.json"


def _entry_points():
    layers = json.loads(LAYERS.read_text(encoding="utf-8"))["layers"]
    return [point for layer in layers for point in layer["entry_points"]]


def test_layer_entry_points_resolve():
    points = _entry_points()
    assert points
    for point in points:
        module, qualname = point.split("#")[0].split(":")
        obj = importlib.import_module(f"limitlearn.{module}")
        for attr in qualname.split("."):
            assert hasattr(obj, attr), point
            obj = getattr(obj, attr)
        assert callable(obj), point


def test_table_counters_read_by_the_bench():
    c = Construction(ConstantLearner(), 0, Registry())
    c.run_to(3)
    for key in ("stages", "searches", "length_checks", "q_advances", "conf_cells"):
        assert isinstance(c.counters[key], int), key


def test_row_events_read_by_the_bench(monkeypatch):
    # bench/run.py puts bench/ on the path and imports its workloads module
    monkeypatch.syspath_prepend(str(BENCH))
    row_events = importlib.import_module("workloads").row_events
    ws = Workspace()
    for kind in ("constant_zero", "length_parity", "fresh_each_step"):
        c = ws.construction(kind, 0)
        c.run_to(30)
        assert row_events(c) == sum(r["changes"] for r in c.rows_snapshot()), kind
