"""Span and self-time arithmetic of the benchmark's tracer.

    python3 -m pytest kkbench/test_spans.py
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from spans import Tracer, self_times  # noqa: E402


def _ticks():
    """Fake clock: 0, 1, 2, ... one tick per reading."""
    state = {"t": -1.0}

    def clock():
        state["t"] += 1.0
        return state["t"]

    return clock


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4], b [5, 9] > c [6, 7]
    parents = [-1, 0, 0, 2]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    assert self_times(parents, starts, ends) == [3.0, 3.0, 3.0, 1.0]


def test_nested_calls_record_parents_and_times():
    tr = Tracer(clock=_ticks())  # the origin reads tick 0

    def leaf():
        return "x"

    def mid():
        return tr.call("leaf", leaf) + tr.call("leaf", leaf)

    assert tr.call("root", mid) == "xx"
    assert tr.names == ["root", "leaf", "leaf"]
    assert tr.parents == [-1, 0, 0]
    assert (tr.starts, tr.ends) == ([1.0, 2.0, 4.0], [6.0, 3.0, 5.0])
    summary = tr.summary()
    assert summary["root"] == {"calls": 1, "self_s": 3.0, "total_s": 5.0}
    assert summary["leaf"] == {"calls": 2, "self_s": 2.0, "total_s": 2.0}


def test_span_closes_when_the_call_raises():
    tr = Tracer(clock=_ticks())

    def boom():
        raise KeyError("k")

    with pytest.raises(KeyError):
        tr.call("outer", lambda: tr.call("inner", boom))
    tr.call("after", lambda: None)
    assert tr.parents == [-1, 0, -1]
    assert all(e > s for s, e in zip(tr.starts, tr.ends))


def test_dump_round_trips(tmp_path):
    tr = Tracer(clock=_ticks())
    tr.call("a", lambda: tr.call("b", lambda: None))
    tr.counters["n"] += 3
    tr.dump(tmp_path / "spans.json")
    data = json.loads((tmp_path / "spans.json").read_text())
    assert data["names"] == ["a", "b"]
    assert data["spans"] == [[0, -1, 1.0, 4.0], [1, 0, 2.0, 3.0]]
    assert data["counters"] == {"n": 3}


def test_benchmark_json_lists_every_layer_metric():
    import layers

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    produced = {name: unit for name, (_, unit)
                in layers.layer_metrics(Tracer()).items()}
    produced.update({"setup.import_s": "s", "trace.wall_s": "s",
                     "trace.overhead_s": "s"})
    assert listed == produced
