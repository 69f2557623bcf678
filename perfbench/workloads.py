"""The three paper-artefact workloads: set-up, artefact run, output checks.

Each workload splits into a timed set-up (platform build and calibration,
then input synthesis) and the artefact run proper. :meth:`evaluate` turns
the artefact's result into failed output checks, simulated outcomes,
result digests and the interval count that ``intervals_per_s`` divides by.
That count is fixed by the workload's input: the simulated span the
artefact reports, never its priming passes or the fan-sweep runs it
discards, so removing wasted runs cannot read as a slowdown.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

clock = time.perf_counter

#: Wikipedia trace minutes per core piece for Fig. 7 (paper: 10). Four
#: minutes give TECfan >= 200 decisions, enough for a reported p95.
SERVER_MINUTES = 4

#: The fleet: 64 nodes for 4 simulated hours of diurnal demand at the
#: paper's x1.5 trace scaling, so queueing, throttling and violations are
#: live (at x1.0 nothing throttles and the p99 latency is 0 s).
FLEET_NODES = 64
FLEET_HOURS = 4
FLEET_SCALE = 1.5


@dataclass
class Outcome:
    """What one artefact run produced, as the benchmark reports it."""

    failed_checks: list[str]
    sim: dict[str, float]
    digests: dict[str, str]
    #: Simulated intervals the artefact reports (the intervals_per_s numerator).
    reported_intervals: int
    #: Engine runs the artefact reports (0 on the fleet, which runs no engine).
    reported_runs: int
    #: Layer facts only the result knows (fleet class groups, fast-forward).
    facts: dict[str, float] = field(default_factory=dict)


def _digest(*parts) -> str:
    """SHA-256 over arrays (raw bytes) and dataclasses (field by field)."""
    h = hashlib.sha256()

    def feed(obj):
        if isinstance(obj, np.ndarray):
            h.update(str(obj.dtype).encode())
            h.update(np.ascontiguousarray(obj).tobytes())
        elif is_dataclass(obj):
            for f in fields(obj):
                h.update(f.name.encode())
                feed(getattr(obj, f.name))
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                feed(item)
        else:
            h.update(repr(obj).encode())

    for part in parts:
        feed(part)
    return h.hexdigest()


def _check(failed: list[str], ok: bool, what: str) -> None:
    if not ok:
        failed.append(what)


def splash_reported_intervals(outcomes_by_case: dict) -> int:
    """Intervals of the runs Figs. 5-6 report: one chosen run per policy.

    Fan-sweep levels that were simulated but not chosen, and every
    engine priming pass, are not counted.
    """
    return sum(
        len(outcome.chosen.trace)
        for outcomes in outcomes_by_case.values()
        for outcome in outcomes.values()
    )


def fleet_node_intervals(cfg) -> int:
    """Node-intervals of the offered-demand span, fast-forwarded ones included.

    Intervals spent draining backlog after the last arrival depend on the
    run, not the input, and are not counted.
    """
    return cfg.n_nodes * math.ceil(cfg.duration_s / cfg.dt_s)


class SplashSuite:
    """Figs. 5-6: the policy suite over the four 16-thread SPLASH-2 cases."""

    name = "splash_suite"
    why = (
        "Figs. 5-6 policy suite on the 16-core chip: TECfan decide and banded "
        "estimator, reactive baselines, fan sweeps; many small solves, no Oracle or fleet"
    )
    #: ``run_policy_suite`` seeds each run's noise from the workload name,
    #: so this workload's inputs do not depend on ``--seed``.
    seeded = False
    #: TECfan's decide is the decision timed for decide.ms_*.
    decide_calls = (("repro.core.tecfan", "TECfanController.decide", True),)

    def setup(self, seed: int):
        from repro.core import system as core_system
        from repro.perf.splash2 import FIGURE_CASES, splash2_workload

        t0 = clock()
        system = core_system.build_system()
        t1 = clock()
        inputs = [splash2_workload(w, th, system.chip) for w, th in FIGURE_CASES]
        t2 = clock()
        return (system, inputs), t1 - t0, t2 - t1

    def input_digest(self, ctx) -> str:
        return _digest(ctx[1])

    def run(self, ctx):
        from repro.analysis import experiments
        from repro.analysis.figures import SplashComparison
        from repro.perf.splash2 import FIGURE_CASES

        system, _ = ctx
        comp = SplashComparison(cases=FIGURE_CASES)
        for workload, threads in FIGURE_CASES:
            base, outcomes = experiments.run_policy_suite(
                system, workload, threads, jobs=1
            )
            comp.bases[(workload, threads)] = base
            comp.outcomes[(workload, threads)] = outcomes
        return comp

    def evaluate(self, comp) -> Outcome:
        from repro.analysis.figures import figure6_averages
        from repro.checkpoint import result_digest

        failed: list[str] = []
        avg = figure6_averages(comp)
        # The Fig. 5/6 shape asserted by benchmarks/bench_fig56.py.
        _check(failed, avg["TECfan"]["delay"] < 1.10, "6a: TECfan delay < 1.10")
        _check(failed, avg["Fan+DVFS"]["delay"] > 1.10, "6a: Fan+DVFS delay > 1.10")
        _check(failed, avg["TECfan"]["delay"] < avg["Fan+DVFS"]["delay"],
               "6a: TECfan faster than Fan+DVFS")
        _check(failed, abs(avg["Fan+TEC"]["delay"] - 1.0) < 1e-6, "6a: Fan+TEC no delay")
        _check(failed, avg["TECfan"]["energy"] < 0.95, "6c: TECfan energy < 0.95")
        _check(failed, avg["Fan+TEC"]["energy"] < 1.0, "6c: Fan+TEC energy < 1")
        _check(failed, avg["Fan+DVFS"]["energy"] < 0.95, "6c: Fan+DVFS energy < 0.95")
        for other in ("Fan+TEC", "Fan+DVFS", "DVFS+TEC", "Fan-only"):
            _check(failed, avg["TECfan"]["edp"] <= avg[other]["edp"] + 1e-9,
                   f"6d: TECfan EDP <= {other}")
        digests = {}
        energy = inst = viol = intervals = 0.0
        for (workload, threads), outcomes in comp.outcomes.items():
            tecfan = outcomes["TECfan"].chosen
            _check(failed, tecfan.metrics.violation_rate <= 0.005 + 1e-9,
                   f"5b: TECfan violations <= 0.5% on {workload}")
            energy += tecfan.metrics.energy_j
            inst += tecfan.metrics.instructions
            viol += tecfan.metrics.violation_rate * len(tecfan.trace)
            intervals += len(tecfan.trace)
            for policy, outcome in outcomes.items():
                digests[f"{workload}/{threads}/{policy}"] = result_digest(outcome.chosen)
        return Outcome(
            failed_checks=failed,
            sim={
                "epi_nj": energy / inst * 1e9,
                "violation_pct": 100.0 * viol / intervals,
                "energy_ratio": avg["TECfan"]["energy"],
                "p99_latency_s": 0.0,
            },
            digests=digests,
            reported_intervals=splash_reported_intervals(comp.outcomes),
            reported_runs=sum(len(o) for o in comp.outcomes.values()),
        )


class ServerFig7:
    """Fig. 7: OFTEC, TECfan, Oracle and Oracle-P on the 4-core server."""

    name = "server_fig7"
    why = (
        "Fig. 7 server comparison on seeded Wikipedia pieces: the exhaustive "
        "Oracle/OFTEC search dominates; TECfan makes cheap demand-limited decisions"
    )
    seeded = True
    decide_calls = (("repro.core.tecfan", "TECfanController.decide", True),)

    def setup(self, seed: int):
        from repro.analysis.server_experiment import build_server_workload
        from repro.fleet.traces import clear_trace_cache
        from repro.server import platform as server_platform

        clear_trace_cache()
        t0 = clock()
        platform = server_platform.build_server_system()
        t1 = clock()
        workload = build_server_workload(platform, seed=seed, minutes=SERVER_MINUTES)
        t2 = clock()
        return (platform, workload, seed), t1 - t0, t2 - t1

    def input_digest(self, ctx) -> str:
        return _digest(ctx[1].demand)

    def run(self, ctx):
        from repro.analysis import server_experiment

        platform, _, seed = ctx
        # The trace synthesized in set-up is served from the trace cache.
        return server_experiment.run_server_comparison(
            seed=seed, minutes=SERVER_MINUTES, platform=platform
        )

    def evaluate(self, comparison) -> Outcome:
        from repro.checkpoint import result_digest

        failed: list[str] = []
        norm = comparison.normalized_to_oftec()
        # The Fig. 7 shape asserted by benchmarks/bench_fig7.py.
        _check(failed, norm["TECfan"]["energy"] < 0.85, "TECfan energy < 0.85 x OFTEC")
        _check(failed, norm["TECfan"]["delay"] < 1.01, "TECfan delay < 1.01")
        _check(failed, norm["Oracle"]["energy"] <= norm["TECfan"]["energy"] + 0.01,
               "Oracle energy <= TECfan + 0.01")
        _check(failed, norm["Oracle"]["delay"] < 1.05, "Oracle delay < 1.05")
        _check(failed, abs(norm["Oracle-P"]["energy"] - norm["TECfan"]["energy"]) < 0.05,
               "|Oracle-P - TECfan| energy < 0.05")
        _check(failed, norm["Oracle-P"]["delay"] <= norm["TECfan"]["delay"] + 0.01,
               "Oracle-P delay <= TECfan + 0.01")
        results = comparison.results
        tecfan = results["TECfan"]
        return Outcome(
            failed_checks=failed,
            sim={
                "epi_nj": tecfan.metrics.energy_j / tecfan.metrics.instructions * 1e9,
                "violation_pct": 100.0 * tecfan.metrics.violation_rate,
                "energy_ratio": norm["TECfan"]["energy"],
                "p99_latency_s": 0.0,
            },
            digests={name: result_digest(r) for name, r in results.items()},
            reported_intervals=sum(len(r.trace) for r in results.values()),
            reported_runs=len(results),
        )


class FleetDiurnal:
    """A 64-node fleet on diurnal demand: router, batched stepper, fast-forward."""

    name = "fleet_diurnal"
    why = (
        "64-node fleet, 4 h of diurnal demand at x1.5: thermal router, batched "
        "plant stepper and fleet fast-forward in one serial shard; no controller search"
    )
    seeded = True
    #: One fleet decision: TECs, DVFS and (every fan period) fans, all nodes.
    decide_calls = (
        ("repro.fleet.control", "FleetPolicy.decide_tec", True),
        ("repro.fleet.control", "FleetPolicy.decide_dvfs", False),
        ("repro.fleet.control", "FleetPolicy.decide_fan", False),
    )

    def _config(self, seed: int):
        from repro.fleet.sim import FleetConfig

        return FleetConfig(
            n_nodes=FLEET_NODES,
            duration_s=FLEET_HOURS * 3600,
            trace="diurnal",
            seed=seed,
            scale=FLEET_SCALE,
            router="thermal",
            stepper="batched",
            fast_forward=True,
            shards=1,
        )

    def setup(self, seed: int):
        from repro.fleet import traces
        from repro.server import platform as server_platform

        cfg = self._config(seed)
        traces.clear_trace_cache()
        t0 = clock()
        platform = server_platform.build_server_system()
        t1 = clock()
        demand = traces.fleet_demand(
            cfg.trace, cfg.duration_s, seed=cfg.seed, scale=cfg.scale, block_s=cfg.block_s
        )
        t2 = clock()
        return (platform, cfg, demand), t1 - t0, t2 - t1

    def input_digest(self, ctx) -> str:
        return _digest(ctx[2])

    def run(self, ctx):
        from repro.fleet import sim

        platform, cfg, demand = ctx
        result = sim.run_fleet(cfg, platform=platform)
        return result, platform, cfg, demand

    def evaluate(self, out) -> Outcome:
        result, platform, cfg, demand = out
        failed: list[str] = []
        inst_per_request = platform.params.peak_ips / cfg.requests_per_core_s
        n_cores = platform.system.n_cores
        steps = math.ceil(cfg.duration_s / cfg.dt_s)
        offered = sum(
            float(demand[min(int(i * cfg.dt_s), len(demand) - 1)]) for i in range(steps)
        ) * platform.params.peak_ips * n_cores * cfg.n_nodes * cfg.dt_s / inst_per_request
        _check(failed, math.isclose(result.requests_routed, offered, rel_tol=1e-9),
               "work conservation: requests routed == offered")
        _check(failed, math.isclose(result.requests_served, result.requests_routed,
                                    rel_tol=1e-6),
               "backlog drained: requests served == routed")
        _check(failed, result.energy_per_request_j > 0.0, "energy per request > 0")
        all_intervals = result.intervals + result.ff_intervals
        return Outcome(
            failed_checks=failed,
            sim={
                "epi_nj": result.energy_j / (result.requests_served * inst_per_request) * 1e9,
                "violation_pct": 100.0 * result.violation_rate,
                "energy_ratio": 0.0,
                "p99_latency_s": result.p99_latency_s,
            },
            digests={"fleet": result.digest},
            reported_intervals=fleet_node_intervals(cfg),
            reported_runs=0,
            facts={
                "class_groups_per_advance": result.class_groups / result.batched_steps,
                "ff_share": result.ff_intervals / all_intervals,
            },
        )


WORKLOADS = {w.name: w for w in (SplashSuite(), ServerFig7(), FleetDiurnal())}
