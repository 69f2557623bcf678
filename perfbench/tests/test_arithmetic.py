"""The benchmark's own arithmetic: self time, percentiles, numerators."""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench.measure import MIN_TAIL_SAMPLES, tail_percentile
from perfbench.run import END_TO_END_UNITS, per_layer_units
from perfbench.spans import DecideTimer, Tracer, aggregate
from perfbench.workloads import WORKLOADS, fleet_node_intervals, splash_reported_intervals

ROOT = Path(__file__).resolve().parents[2]


def test_self_time_subtracts_direct_children_only():
    # A[0,10] > B[1,4] > B[2,3], and A > C[5,9]; groups: A=0, B=1, C=2.
    spans = [
        [0, 0.0, 10.0, -1, 0.0],
        [1, 1.0, 4.0, 0, 5.0],
        [1, 2.0, 3.0, 1, 7.0],
        [2, 5.0, 9.0, 0, 1.0],
    ]
    totals, top_s = aggregate(spans, [0, 1, 2], 3)
    assert [t.self_s for t in totals] == [3.0, 3.0, 4.0]  # B: (3-1) + 1
    assert [t.calls for t in totals] == [1, 2, 1]
    # busy time and units count the outermost B only.
    assert totals[1].busy_s == 3.0 and totals[1].units == 5.0
    assert top_s == 10.0
    assert sum(t.self_s for t in totals) == top_s


def test_unattributed_time_closes_the_sum():
    spans = [[0, 1.0, 2.5, -1, 0.0], [1, 1.5, 2.0, 0, 0.0], [0, 3.0, 4.0, -1, 0.0]]
    totals, top_s = aggregate(spans, [0, 1], 2)
    wall = 5.0
    unattributed = wall - top_s
    assert sum(t.self_s for t in totals) + unattributed == pytest.approx(wall)


class _Plant:
    def step(self, n):
        return [self.inner(i) for i in range(n)]

    def inner(self, i):
        return i * 2


def test_tracer_nests_spans_and_leaves_results_and_types_alone():
    tracer = Tracer()
    tracer.install(__name__, "_Plant.step", lambda args, kwargs, result: len(result))
    tracer.install(__name__, "_Plant.inner")
    try:
        plant = _Plant()
        assert plant.step(3) == [0, 2, 4]  # inactive: pass-through, no spans
        assert tracer.spans == []
        tracer.active = True
        assert plant.step(2) == [0, 2]
        assert isinstance(plant, _Plant)
    finally:
        tracer.uninstall()
    assert "traced" not in _Plant.step.__code__.co_name
    calls = [tracer.calls[s[0]] for s in tracer.spans]
    assert calls == [f"{__name__}:_Plant.step"] + [f"{__name__}:_Plant.inner"] * 2
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert tracer.spans[0][4] == 2.0


def test_decide_timer_folds_follow_up_calls_into_one_decision():
    timer = DecideTimer()
    timer.install(__name__, "_Plant.step", opens=True)
    timer.install(__name__, "_Plant.inner", opens=False)
    try:
        plant = _Plant()
        timer.active = True
        plant.step(0)
        plant.inner(1)
        plant.step(0)
    finally:
        timer.uninstall()
    assert len(timer.samples) == 2


def test_percentile_needs_ten_samples_beyond_it():
    value, beyond = tail_percentile(list(range(200)), 95)
    assert value == pytest.approx(189.05)
    assert beyond == MIN_TAIL_SAMPLES
    with pytest.raises(ValueError, match="9 beyond"):
        tail_percentile(list(range(180)), 95)
    assert tail_percentile([float(i) for i in range(1000)], 50) == (499.5, 500)


def test_splash_numerator_counts_reported_runs_not_sweeps():
    def outcome(chosen, swept):
        return SimpleNamespace(chosen=SimpleNamespace(trace=[0] * chosen), sweep=[0] * swept)

    by_case = {
        ("a", 16): {"Fan-only": outcome(10, 1), "Fan+TEC": outcome(12, 6)},
        ("b", 16): {"TECfan": outcome(20, 3)},
    }
    assert splash_reported_intervals(by_case) == 42


def test_fleet_numerator_is_fixed_by_the_offered_span():
    cfg = SimpleNamespace(n_nodes=64, duration_s=14400, dt_s=1.0)
    assert fleet_node_intervals(cfg) == 64 * 14400
    cfg = SimpleNamespace(n_nodes=3, duration_s=10, dt_s=4.0)
    assert fleet_node_intervals(cfg) == 9


def test_benchmark_json_names_match_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
