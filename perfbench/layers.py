"""The program's layers as the traced run sees them, with predictions.

Each :class:`Layer` names the public calls the benchmark times from the
outside (one span per call) and records, before any optimisation is
measured, which end-to-end metric a faster layer should move, on which
workload, and where no change is predicted. ``BENCHMARK.json`` has no
field for these predictions, so this table is where later changes cite
them by layer name.

Set-up (``core.system.build_system``, ``server.platform``,
``fleet.traces``, SPLASH-2 workload synthesis) is timed by the workloads
themselves, not by spans: ``setup.platform_s`` / ``setup.inputs_s``
should move ``setup_s`` on server_fig7 (Wikipedia trace synthesis) and
splash_suite (``build_system``).

Not measured: ``repro.parallel`` (the workloads are serial, no worker
pool), ``repro.journal`` / ``repro.checkpoint`` (no journaled or
checkpointed runs) and ``repro.obs.live`` (no status sidecars).
"""

from __future__ import annotations

from dataclasses import dataclass

from perfbench.measure import median, tail_percentile
from perfbench.spans import Tracer, aggregate, ancestor


def _one(args, kwargs, result) -> float:
    return 1.0


def _batch_rows(args, kwargs, result) -> float:
    return float(len(args[1]))


def _trace_len(args, kwargs, result) -> float:
    return float(len(result.trace))


def _is_priming(args, kwargs, result) -> float:
    # SimulationEngine.run primes with a silent _simulate pass (trace=None).
    return 1.0 if kwargs.get("trace") is None else 0.0


@dataclass(frozen=True)
class Layer:
    """One module boundary: the calls timed there and what should move."""

    name: str
    module: str
    calls: tuple  # (module, qualname, units function or None)
    moves: str
    no_change: str


_ENGINE = "repro.core.engine"
_EXP = "repro.analysis.experiments"
_LOCAL = "repro.core.local_estimator"
_FULL = "repro.core.estimator"
_FLEET_CTL = "repro.fleet.control"
_ROUTER = "repro.fleet.router"

LAYERS: tuple[Layer, ...] = (
    Layer(
        "engine", "core.engine",
        ((_ENGINE, "SimulationEngine.run", _trace_len),
         (_ENGINE, "SimulationEngine._simulate", _is_priming)),
        "wall_s -> splash_suite", "fleet_diurnal",
    ),
    Layer(
        "sweep", "analysis.experiments",
        ((_EXP, "run_policy_suite", None),
         (_EXP, "run_base_scenario", None),
         (_EXP, "run_fan_sweep", None),
         (_EXP, "run_tecfan_with_own_fan_rule", None)),
        "wall_s -> splash_suite", "server_fig7, fleet_diurnal",
    ),
    Layer(
        "server_experiment", "analysis.server_experiment",
        (("repro.analysis.server_experiment", "run_server_comparison", None),),
        "wall_s -> server_fig7 (protocol glue only)", "splash_suite, fleet_diurnal",
    ),
    Layer(
        "tecfan", "core.tecfan",
        (("repro.core.tecfan", "TECfanController.decide", None),
         ("repro.core.tecfan", "TECfanController.decide_fan", None)),
        "wall_s -> splash_suite (weakly server_fig7); decide.ms_p50/p95",
        "fleet_diurnal",
    ),
    Layer(
        "baselines", "core.baselines",
        tuple(("repro.core.baselines", f"{cls}.decide", None)
              for cls in ("FanOnlyController", "FanTECController",
                          "FanDVFSController", "DVFSTECController")),
        "wall_s -> splash_suite", "server_fig7, fleet_diurnal",
    ),
    Layer(
        "oracle", "core.oracle",
        (("repro.core.oracle", "ExhaustiveSearcher.decide", None),
         ("repro.core.oracle", "ExhaustiveSearcher.decide_fan", None)),
        "wall_s, intervals_per_s -> server_fig7", "splash_suite, fleet_diurnal",
    ),
    Layer(
        "estimator", "core.local_estimator / core.estimator",
        tuple((mod, f"{cls}.{meth}", units)
              for mod, cls in ((_LOCAL, "LocalBandedEstimator"),
                               (_FULL, "NextIntervalEstimator"))
              for meth, units in (("begin_interval", None), ("evaluate", _one),
                                  ("evaluate_many", _batch_rows), ("commit", None))),
        "wall_s -> splash_suite; decide.ms_p50/p95", "fleet_diurnal",
    ),
    Layer(
        "steady", "thermal.steady_state",
        (("repro.thermal.steady_state", "SteadyStateSolver.solve", _one),
         ("repro.thermal.steady_state", "SteadyStateSolver.solve_many", _batch_rows)),
        "wall_s -> splash_suite (via estimator), fleet_diurnal (multi-RHS)",
        "server_fig7 (small share)",
    ),
    Layer(
        "leakage_loop", "thermal.leakage_loop",
        (("repro.thermal.leakage_loop", "LeakageCoupledSolver.solve", None),),
        "wall_s -> splash_suite", "-",
    ),
    Layer(
        "transient", "thermal.transient",
        (("repro.thermal.transient", "PaperTransient.step", None),
         ("repro.thermal.transient", "PaperTransient.interpolate", None)),
        "wall_s -> splash_suite, server_fig7", "-",
    ),
    Layer(
        "power", "power",
        (("repro.power.component_power", "ComponentPowerModel.dynamic_power_w", None),
         ("repro.power.component_power", "ComponentPowerModel.dynamic_power_many", None),
         ("repro.power.leakage", "LinearLeakage.per_component_w", None),
         ("repro.power.leakage", "QuadraticLeakage.per_component_w", None)),
        "wall_s -> all three", "-",
    ),
    Layer(
        "stepper", "fleet.stepper",
        (("repro.fleet.stepper", "BatchedStepper.advance", _batch_rows),),
        "wall_s, intervals_per_s -> fleet_diurnal", "splash_suite, server_fig7",
    ),
    Layer(
        "router", "fleet.router",
        tuple((_ROUTER, f"{cls}.split", None)
              for cls in ("Router", "RoundRobinRouter", "LeastLoadedRouter",
                          "ThermalAwareRouter")),
        "wall_s, intervals_per_s -> fleet_diurnal", "splash_suite, server_fig7",
    ),
    Layer(
        "fleet_policy", "fleet.control",
        tuple((_FLEET_CTL, f"FleetPolicy.{m}", None)
              for m in ("tile_peaks_c", "decide_tec", "decide_dvfs", "decide_fan")),
        "wall_s -> fleet_diurnal; decide.ms_p50/p95", "splash_suite, server_fig7",
    ),
    Layer(
        "fleet_sim", "fleet.sim",
        (("repro.fleet.sim", "run_fleet", None),
         ("repro.fleet.sim", "FleetSim.run", None)),
        "wall_s, intervals_per_s -> fleet_diurnal", "splash_suite, server_fig7",
    ),
)

_CONTROLLER_LAYERS = ("tecfan", "baselines", "oracle")


def install(tracer: Tracer) -> list[int]:
    """Wrap every layer's calls; returns the layer index of each call."""
    layer_of_call = []
    for index, layer in enumerate(LAYERS):
        for module, qualname, units in layer.calls:
            tracer.install(module, qualname, units)
            layer_of_call.append(index)
    return layer_of_call


def layer_metrics(tracer: Tracer, layer_of_call: list[int], facts: dict):
    """Per-layer metrics from the recorded spans.

    Returns ``(metrics, self_total_s, top_level_s)``: the summed self time
    of every layer equals the summed top-level span time.

    ``facts`` carries what only the workload knows: the engine runs its
    artefact reports and the fleet's own class-group and fast-forward
    counts.
    """
    spans = tracer.spans
    index = {layer.name: i for i, layer in enumerate(LAYERS)}
    by_layer, top_s = aggregate(spans, layer_of_call, len(LAYERS))
    by_call, _ = aggregate(spans, list(range(len(tracer.calls))), len(tracer.calls))
    call_id = {name: i for i, name in enumerate(tracer.calls)}

    def layer(name):
        return by_layer[index[name]]

    def call(module, qualname):
        return by_call[call_id[f"{module}:{qualname}"]]

    def in_layer(*names):
        ids = {index[n] for n in names}
        return lambda s: layer_of_call[s[0]] in ids

    engine_run = call_id[f"{_ENGINE}:SimulationEngine.run"]
    simulate = call_id[f"{_ENGINE}:SimulationEngine._simulate"]
    controller = in_layer(*_CONTROLLER_LAYERS)
    in_sweep = in_layer("sweep")
    in_estimator = in_layer("estimator")
    decide_ids = {
        cid for name, cid in call_id.items()
        if name.endswith(".decide") and LAYERS[layer_of_call[cid]].name in _CONTROLLER_LAYERS
    }
    decides = priming = sweep_runs = 0
    tecfan_candidates = 0.0
    tecfan_layer = index["tecfan"]
    for i, span in enumerate(spans):
        cid = span[0]
        if cid in decide_ids:
            decides += 1
            sim = ancestor(spans, i, lambda s: s[0] == simulate)
            priming += sim >= 0 and spans[sim][4] == 1.0
        elif cid == engine_run:
            sweep_runs += ancestor(spans, i, in_sweep) >= 0
        elif in_estimator(span) and span[4]:
            owner = ancestor(spans, i, controller)
            outer = ancestor(spans, i, in_estimator)
            if owner >= 0 and outer < 0 and layer_of_call[spans[owner][0]] == tecfan_layer:
                tecfan_candidates += span[4]

    engine_runs = call(_ENGINE, "SimulationEngine.run").calls
    tecfan_decides = call("repro.core.tecfan", "TECfanController.decide").calls
    batches = call(_LOCAL, "LocalBandedEstimator.evaluate_many")
    full_batches = call(_FULL, "NextIntervalEstimator.evaluate_many")
    n_batches = batches.calls + full_batches.calls
    oracle_ms = [d * 1e3 for d in call("repro.core.oracle", "ExhaustiveSearcher.decide").durations_s]
    oracle_p50 = median(oracle_ms) if oracle_ms else 0.0
    oracle_p95 = tail_percentile(oracle_ms, 95)[0] if oracle_ms else 0.0

    out = {
        "engine.runs": engine_runs,
        "engine.busy_s": layer("engine").busy_s,
        "engine.self_s": layer("engine").self_s,
        "engine.intervals": call(_ENGINE, "SimulationEngine.run").units,
        "engine.priming_share": priming / decides if decides else 0.0,
        "sweep.runs": sweep_runs,
        "sweep.useful_ratio": facts["reported_runs"] / engine_runs if engine_runs else 0.0,
        "sweep.self_s": layer("sweep").self_s,
        "server_experiment.self_s": layer("server_experiment").self_s,
        "tecfan.decides": tecfan_decides,
        "tecfan.self_s": layer("tecfan").self_s,
        "tecfan.candidates_per_decide": (
            tecfan_candidates / tecfan_decides if tecfan_decides else 0.0
        ),
        "baselines.decides": layer("baselines").calls,
        "baselines.self_s": layer("baselines").self_s,
        "oracle.decides": len(oracle_ms),
        "oracle.self_s": layer("oracle").self_s,
        "oracle.ms_p50": oracle_p50,
        "oracle.ms_p95": oracle_p95,
        "estimator.calls": layer("estimator").calls,
        "estimator.candidates": layer("estimator").units,
        "estimator.rows_per_batch": (
            (batches.units + full_batches.units) / n_batches if n_batches else 0.0
        ),
        "estimator.self_s": layer("estimator").self_s,
        "steady.solves": layer("steady").calls,
        "steady.rhs": layer("steady").units,
        "steady.self_s": layer("steady").self_s,
        "leakage_loop.solves": layer("leakage_loop").calls,
        "leakage_loop.self_s": layer("leakage_loop").self_s,
        "transient.steps": layer("transient").calls,
        "transient.self_s": layer("transient").self_s,
        "power.calls": layer("power").calls,
        "power.self_s": layer("power").self_s,
        "stepper.advances": layer("stepper").calls,
        "stepper.node_steps": layer("stepper").units,
        "stepper.class_groups_per_advance": facts.get("class_groups_per_advance", 0.0),
        "stepper.self_s": layer("stepper").self_s,
        "router.splits": layer("router").calls,
        "router.self_s": layer("router").self_s,
        "fleet_policy.calls": layer("fleet_policy").calls,
        "fleet_policy.self_s": layer("fleet_policy").self_s,
        "fleet_sim.self_s": layer("fleet_sim").self_s,
        "fleet_sim.ff_share": facts.get("ff_share", 0.0),
        "trace.spans": len(spans),
    }
    self_total = sum(g.self_s for g in by_layer)
    return out, self_total, top_s
