"""Sec. V-A — decision-cost scaling, plus the telemetry-overhead gate.

The paper's complexities: TECfan is O(NL + N^2 M) (polynomial — at most
NL TEC toggles plus N candidate evaluations per DVFS step), while
exhaustive OFTEC is O(2^{NL}) and Oracle O(M^N 2^{NL}). We validate the
*shape*: TECfan's measured evaluations per decision grow polynomially
with the core count while the exhaustive spaces explode; and one TECfan
decision is orders of magnitude cheaper than one Oracle decision on the
same platform (the pytest-benchmark test below).

Run directly for the **telemetry-overhead gate**::

    PYTHONPATH=src python benchmarks/bench_overhead.py
    PYTHONPATH=src python benchmarks/bench_overhead.py --smoke

This times a ``--jobs``-parallel fan sweep with worker-telemetry
capture+merge against the identical sweep with telemetry off, using
interleaved min-of-N wall times. The cross-process aggregation path
must cost ≤ 3% — spawn/pickle dominate the fan-out, so capture and
merge have to disappear into the noise. Min-of-N still jitters a few
percent on loaded machines, so a gate attempt that fails is re-measured
(up to ``--attempts`` times) before it counts; every attempt is
printed. The full run writes the tracked baseline
``benchmarks/results/BENCH_obs_overhead.json``; ``--smoke`` is the CI
configuration (tiny chip, no baseline rewrite). The *serial* hook
overhead (spans/counters on the hot loop, no merge involved) is
reported as context but not gated here.

A second gate covers the **live-status sidecar** (``--status-file``,
:mod:`repro.obs.live`): an engine run snapshotting at the default
cadence against the identical run with no status file. Between due
points the per-interval cost is one ``time.monotonic()`` call and a
compare, so snapshots at the default 1 s cadence must also stay
≤ 3% — the same threshold and retry discipline as the merge gate.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BASELINE = RESULTS_DIR / "BENCH_obs_overhead.json"

from repro.analysis.report import render_table
from repro.core.engine import EngineConfig, SimulationEngine
from repro.core.problem import EnergyProblem
from repro.core.state import ActuatorState
from repro.core.system import build_system
from repro.core.tecfan import TECfanController
from repro.perf.splash2 import splash2_workload
from repro.perf.workload import Phase, Workload, WorkloadRun


def _tecfan_cost(rows: int, cols: int) -> dict:
    """Evaluations/decision for TECfan on an rows x cols chip."""
    system = build_system(rows=rows, cols=cols)
    n = system.n_cores
    wl = Workload(
        name="synthetic",
        threads=n,
        total_instructions=50_000_000 * n,
        ff_instructions=0,
        ipc_at_ref=0.6,
        activity=0.9,
        active_tiles=tuple(range(n)),
        phases=(Phase(1.0),),
    )
    # Threshold tight enough to keep the controller busy.
    state = ActuatorState.initial(
        system.n_tec_devices, n, system.dvfs.max_level, 1
    )
    p = system.power.component_power.dynamic_power_w(
        np.full(n, 0.9), state.dvfs, None
    )
    t_nodes, _ = system.plant_thermal.solve(p, 2, state.tec)
    th = float(system.component_temps_c(t_nodes).max()) - 1.0
    problem = EnergyProblem(t_threshold_c=th)
    engine = SimulationEngine(
        system, problem, EngineConfig(max_time_s=0.03, priming_intervals=0)
    )
    ctrl = TECfanController()
    t0 = time.perf_counter()
    res = engine.run(
        WorkloadRun(wl, system.chip, 2.0),
        ctrl,
        initial_state=state.with_fan(2),
    )
    wall = time.perf_counter() - t0
    decisions = max(len(res.trace), 1)
    evals = res.estimator.n_evaluations
    m = system.dvfs.n_levels
    ell = system.tec.devices_per_tile
    return {
        "cores": n,
        "evals_per_decision": evals / decisions,
        "bound_NL_N2M": n * ell + n * n * m,
        "oracle_space": (m**n) * (2.0 ** n) * system.fan.n_levels,
        "wall_ms_per_decision": 1e3 * wall / decisions,
    }


def _host_line() -> str:
    """The machine the decision costs were measured on."""
    import platform

    from repro.parallel import available_cpus

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                line.split(":", 1)[1].strip()
                for line in f
                if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    return (
        f"host: {cpu}, {available_cpus()} usable CPUs; "
        f"Python {platform.python_version()}, NumPy {np.__version__}"
    )


def test_overhead_scaling(benchmark, results_dir):
    from conftest import save_and_print

    rows = benchmark.pedantic(
        lambda: [_tecfan_cost(1, 2), _tecfan_cost(2, 2), _tecfan_cost(2, 4),
                 _tecfan_cost(4, 4)],
        rounds=1,
        iterations=1,
    )
    table = [
        [
            r["cores"],
            r["evals_per_decision"],
            r["bound_NL_N2M"],
            f"{r['oracle_space']:.1e}",
            r["wall_ms_per_decision"],
        ]
        for r in rows
    ]
    save_and_print(
        results_dir,
        "overhead",
        render_table(
            ["N cores", "evals/decision", "NL+N^2M", "Oracle space",
             "ms/decision"],
            table,
            floatfmt="{:.1f}",
            title="Sec. V-A — TECfan decision cost vs exhaustive space",
        )
        + "\n"
        + _host_line(),
    )
    for r in rows:
        # TECfan stays within its polynomial bound...
        assert r["evals_per_decision"] <= r["bound_NL_N2M"], r
    # ...while the exhaustive space grows by orders of magnitude.
    assert rows[-1]["oracle_space"] / rows[0]["oracle_space"] > 1e9
    # Polynomial vs exponential growth from 2 to 16 cores.
    eval_growth = (
        rows[-1]["evals_per_decision"]
        / max(rows[0]["evals_per_decision"], 1.0)
    )
    space_growth = rows[-1]["oracle_space"] / rows[0]["oracle_space"]
    assert eval_growth < 1e4 < space_growth


# ----------------------------------------------------------------------
# telemetry-overhead gate (standalone main, CI runs --smoke)
# ----------------------------------------------------------------------
def _sweep_setup(rows: int, cols: int, max_time_s: float):
    from repro.core.engine import EngineConfig, SimulationEngine
    from repro.perf.splash2 import REF_FREQ_GHZ, splash2_workload
    from repro.perf.workload import WorkloadRun

    system = build_system(rows=rows, cols=cols)
    wl = splash2_workload("lu", system.n_cores, system.chip)
    engine = SimulationEngine(
        system,
        EnergyProblem(t_threshold_c=76.0),
        EngineConfig(max_time_s=max_time_s),
    )

    def make_run():
        return WorkloadRun(wl, system.chip, REF_FREQ_GHZ)

    return engine, make_run


def _sweep_once(engine, make_run, jobs, telemetry: bool) -> float:
    from repro.core.baselines import FanTECController
    from repro.core.engine import run_fan_sweep
    from repro.obs import Telemetry, telemetry_session

    t0 = time.perf_counter()
    if telemetry:
        with telemetry_session(Telemetry()) as tel:
            run_fan_sweep(engine, make_run, FanTECController(), jobs=jobs)
            if jobs:
                # The merge actually happened, or this gate measures nothing.
                merged = tel.metrics.counter("parallel.worker_sessions").value
                assert merged > 0, "no worker telemetry was merged"
    else:
        run_fan_sweep(engine, make_run, FanTECController(), jobs=jobs)
    return time.perf_counter() - t0


def measure_overhead(engine, make_run, jobs, repeats: int) -> dict:
    """Interleaved min-of-``repeats`` wall times, telemetry off vs on."""
    off = min(
        _sweep_once(engine, make_run, jobs, False) for _ in range(repeats)
    )
    on = min(
        _sweep_once(engine, make_run, jobs, True) for _ in range(repeats)
    )
    return {
        "jobs": jobs,
        "repeats": repeats,
        "off_s": off,
        "on_s": on,
        "overhead_pct": (on - off) / off * 100.0,
    }


def _status_run_once(engine, make_run) -> float:
    from repro.core.tecfan import TECfanController

    t0 = time.perf_counter()
    engine.run(make_run(), TECfanController())
    return time.perf_counter() - t0


def measure_status_overhead(
    rows: int, cols: int, max_time_s: float, repeats: int, status_path
) -> dict:
    """Min-of-``repeats`` engine-run wall times, status sidecar off vs on.

    Both engines share one system (so thermal caches warm identically);
    each gets one untimed warm-up run before measurement. The ``on``
    engine snapshots at the **default** cadence — the configuration the
    gate protects.
    """
    from repro.perf.splash2 import REF_FREQ_GHZ, splash2_workload
    from repro.perf.workload import WorkloadRun

    system = build_system(rows=rows, cols=cols)
    wl = splash2_workload("lu", system.n_cores, system.chip)
    problem = EnergyProblem(t_threshold_c=76.0)

    def make_run():
        return WorkloadRun(wl, system.chip, REF_FREQ_GHZ)

    engine_off = SimulationEngine(
        system, problem, EngineConfig(max_time_s=max_time_s)
    )
    engine_on = SimulationEngine(
        system,
        problem,
        EngineConfig(max_time_s=max_time_s, status_path=str(status_path)),
    )
    _status_run_once(engine_off, make_run)  # warm-up, untimed
    _status_run_once(engine_on, make_run)
    off = min(_status_run_once(engine_off, make_run) for _ in range(repeats))
    on = min(_status_run_once(engine_on, make_run) for _ in range(repeats))
    return {
        "repeats": repeats,
        "off_s": off,
        "on_s": on,
        "overhead_pct": (on - off) / off * 100.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: tiny chip, short runs, no baseline rewrite",
    )
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--attempts",
        type=int,
        default=3,
        help="re-measure a failing gate up to this many times "
        "(wall-clock jitter, not code, is the usual culprit)",
    )
    parser.add_argument(
        "--threshold-pct",
        type=float,
        default=3.0,
        help="maximum merged-telemetry overhead over telemetry-off",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        rows, cols, max_time_s = 2, 2, 0.02
        repeats = args.repeats or 4
    else:
        rows, cols, max_time_s = 4, 4, 0.1  # the paper's 16-core chip
        repeats = args.repeats or 5

    engine, make_run = _sweep_setup(rows, cols, max_time_s)

    serial = measure_overhead(engine, make_run, None, repeats)
    print(
        f"serial sweep   : off {serial['off_s'] * 1e3:7.1f} ms, "
        f"telemetry {serial['on_s'] * 1e3:7.1f} ms "
        f"({serial['overhead_pct']:+.2f}%)  [context, not gated]"
    )

    merged = None
    for attempt in range(1, args.attempts + 1):
        merged = measure_overhead(engine, make_run, args.jobs, repeats)
        print(
            f"merged jobs={args.jobs} : off {merged['off_s'] * 1e3:7.1f} ms, "
            f"telemetry {merged['on_s'] * 1e3:7.1f} ms "
            f"({merged['overhead_pct']:+.2f}%)  "
            f"[attempt {attempt}/{args.attempts}, gate "
            f"<= {args.threshold_pct:.1f}%]"
        )
        if merged["overhead_pct"] <= args.threshold_pct:
            break

    import tempfile

    status = None
    # A very short run is dominated by the fixed first+final snapshot
    # (two fsyncs), which is not what the default 1 s cadence costs in
    # practice — give the status gate a long-enough run to amortize.
    status_time_s = max(max_time_s, 0.1)
    with tempfile.TemporaryDirectory() as tmp:
        status_path = pathlib.Path(tmp) / "status.json"
        for attempt in range(1, args.attempts + 1):
            status = measure_status_overhead(
                rows, cols, status_time_s, repeats, status_path
            )
            print(
                f"status sidecar : off {status['off_s'] * 1e3:7.1f} ms, "
                f"snapshots {status['on_s'] * 1e3:7.1f} ms "
                f"({status['overhead_pct']:+.2f}%)  "
                f"[attempt {attempt}/{args.attempts}, gate "
                f"<= {args.threshold_pct:.1f}%]"
            )
            if status["overhead_pct"] <= args.threshold_pct:
                break

    ok = (
        merged["overhead_pct"] <= args.threshold_pct
        and status["overhead_pct"] <= args.threshold_pct
    )
    report = {
        "mode": "smoke" if args.smoke else "full",
        "cores": rows * cols,
        "threshold_pct": args.threshold_pct,
        "serial": serial,
        "merged": merged,
        "status": status,
    }
    if not args.smoke:
        RESULTS_DIR.mkdir(exist_ok=True)
        BASELINE.write_text(json.dumps(report, indent=2) + "\n")
        print(f"[saved to {BASELINE}]")
    if merged["overhead_pct"] > args.threshold_pct:
        print(
            f"FAIL: merged-telemetry sweep {merged['overhead_pct']:+.2f}% "
            f"> {args.threshold_pct:.1f}% over telemetry-off"
        )
    if status["overhead_pct"] > args.threshold_pct:
        print(
            f"FAIL: status-sidecar run {status['overhead_pct']:+.2f}% "
            f"> {args.threshold_pct:.1f}% over no-status"
        )
    if ok:
        print("telemetry overhead gate: OK")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
