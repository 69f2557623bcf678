"""Workload inputs follow the seed; the layer table matches the program."""

from __future__ import annotations

from dataclasses import replace

from perfbench import layers
from perfbench.run import per_layer_units
from perfbench.spans import Tracer
from perfbench.workloads import WORKLOADS, FleetDiurnal


def _input_digest(name: str, seed: int) -> str:
    workload = WORKLOADS[name]
    ctx, _, _ = workload.setup(seed)
    return workload.input_digest(ctx)


def test_seeded_inputs_follow_the_seed():
    for name in ("server_fig7", "fleet_diurnal"):
        assert WORKLOADS[name].seeded
        assert _input_digest(name, 1) == _input_digest(name, 1), name
        assert _input_digest(name, 1) != _input_digest(name, 2), name


def test_splash_inputs_ignore_the_seed():
    # run_policy_suite seeds its noise from the workload name instead.
    assert not WORKLOADS["splash_suite"].seeded
    assert _input_digest("splash_suite", 1) == _input_digest("splash_suite", 2)


def test_every_layer_call_exists_and_uninstalls():
    from repro.core.tecfan import TECfanController

    original = TECfanController.__dict__["decide"]
    tracer = Tracer()
    layer_of_call = layers.install(tracer)
    try:
        assert TECfanController.__dict__["decide"] is not original
        assert len(layer_of_call) == len(tracer.calls)
    finally:
        tracer.uninstall()
    assert TECfanController.__dict__["decide"] is original


def test_traced_small_fleet_accounts_for_its_wall_time():
    from repro.fleet.traces import fleet_demand

    workload = FleetDiurnal()
    (platform, cfg, _), _, _ = workload.setup(3)
    cfg = replace(cfg, n_nodes=4, duration_s=120)
    demand = fleet_demand(cfg.trace, cfg.duration_s, seed=cfg.seed, scale=cfg.scale)
    small = (platform, cfg, demand)

    plain = workload.evaluate(workload.run(small))
    tracer = Tracer()
    layer_of_call = layers.install(tracer)
    try:
        tracer.active = True
        traced = workload.evaluate(workload.run(small))
        tracer.active = False
    finally:
        tracer.uninstall()

    assert traced.digests == plain.digests
    assert plain.failed_checks == []
    facts = dict(traced.facts, reported_runs=traced.reported_runs)
    metrics, self_total, top_s = layers.layer_metrics(tracer, layer_of_call, facts)
    assert abs(self_total - top_s) < 1e-9
    assert metrics["stepper.advances"] > 0 and metrics["router.splits"] > 0
    assert metrics["stepper.node_steps"] == 4 * metrics["stepper.advances"]
    units = per_layer_units()
    assert set(metrics) <= set(units)
