"""Run one benchmark workload, or all three in turn, and report its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload splash_suite --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` makes one untraced artefact run, then one traced run with a
span around every public call listed in ``perfbench/layers.py``, and
reports the per-layer metrics. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Details (provenance, digests, checks, every sample) go to
``.perfbench_out/`` in the repository root; the traced run writes its
spans there too. ``--workload all`` runs each workload in a fresh process,
one after another, and prints every metric with its unit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("splash_suite", "server_fig7", "fleet_diurnal")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "intervals_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_rate": "fraction",
    "sim_epi_nj": "nJ/inst",
}

#: Each set-up phase repeats until both bounds are met; the median of all
#: set-ups of a run is reported.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 100


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, by name."""
    units = {}
    for name in (
        "engine.runs", "engine.intervals", "sweep.runs", "tecfan.decides",
        "baselines.decides", "oracle.decides", "estimator.calls",
        "estimator.candidates", "steady.solves", "steady.rhs",
        "leakage_loop.solves", "transient.steps", "power.calls",
        "stepper.advances", "stepper.node_steps", "router.splits",
        "fleet_policy.calls", "trace.spans", "decide.samples", "decide.tail_samples",
    ):
        units[name] = "count"
    for name in (
        "engine.priming_share", "sweep.useful_ratio", "fleet_sim.ff_share",
        "trace.overhead_share",
    ):
        units[name] = "fraction"
    for name in (
        "tecfan.candidates_per_decide", "estimator.rows_per_batch",
        "stepper.class_groups_per_advance", "sim.energy_ratio",
    ):
        units[name] = "ratio"
    for name in (
        "engine.busy_s", "engine.self_s", "sweep.self_s", "server_experiment.self_s",
        "tecfan.self_s", "baselines.self_s", "oracle.self_s", "estimator.self_s",
        "steady.self_s", "leakage_loop.self_s", "transient.self_s", "power.self_s",
        "stepper.self_s", "router.self_s", "fleet_policy.self_s", "fleet_sim.self_s",
        "setup.platform_s", "setup.inputs_s", "trace.wall_s", "trace.unattributed_s",
        "sim.p99_latency_s",
    ):
        units[name] = "s"
    for name in ("oracle.ms_p50", "oracle.ms_p95", "decide.ms_p50", "decide.ms_p95"):
        units[name] = "ms"
    units["sim.violation_pct"] = "%"
    return units


def _setup(workload, seed: int, samples: list):
    gc.collect()
    ctx, platform_s, inputs_s = workload.setup(seed)
    samples.append((platform_s + inputs_s, platform_s, inputs_s))
    return ctx


def _setup_phase(workload, seed: int, samples: list):
    """Repeated set-ups; returns the last one's context.

    Runs once before and once after the artefact runs, so the reported
    median draws on two moments of the run, not on one stretch of host
    speed.
    """
    start = len(samples)
    while len(samples) - start < SETUP_MIN_REPS or (
        sum(s[0] for s in samples[start:]) < SETUP_MIN_S
        and len(samples) - start < SETUP_MAX_REPS
    ):
        ctx = _setup(workload, seed, samples)
    return ctx


def _artefact(workload, ctx) -> tuple[float, object, list[str]]:
    """One timed artefact run, then its untimed output checks.

    Returns ``(wall_s, outcome, failed_checks)``; a run that raises is a
    failed run with no outcome.
    """
    gc.collect()
    start = time.perf_counter()
    try:
        result = workload.run(ctx)
    except Exception:  # counted against success_rate, not fatal
        traceback.print_exc()
        return time.perf_counter() - start, None, ["artefact run raised"]
    wall = time.perf_counter() - start
    outcome = workload.evaluate(result)
    return wall, outcome, outcome.failed_checks


def execute(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, detail record)."""
    from perfbench import layers
    from perfbench.measure import median, peak_rss_mb, provenance, tail_percentile
    from perfbench.spans import DecideTimer, Tracer
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    # The traced run also times each control decision of its untraced
    # artefact run; the untraced run wraps nothing at all.
    timer = DecideTimer()
    if trace:
        for module, qualname, opens in workload.decide_calls:
            timer.install(module, qualname, opens)

    setups: list = []
    input_digest = workload.input_digest(_setup_phase(workload, seed, setups))

    # Untraced artefact runs, each on a fresh set-up, until the next one
    # would overrun ``seconds`` (at least one; exactly one when tracing).
    reps: list = []
    start = time.perf_counter()
    while True:
        ctx = _setup(workload, seed, setups)
        timer.active = True
        reps.append(_artefact(workload, ctx))
        timer.active = False
        wall, outcome, _ = reps[-1]
        if outcome is None or trace or time.perf_counter() - start + wall > seconds:
            break
    timer.uninstall()
    _setup_phase(workload, seed, setups)
    walls = [wall for wall, outcome, _ in reps if outcome is not None]
    wall_s = median(walls) if walls else 0.0

    problems: list[str] = []
    if trace:
        tracer = Tracer()
        layer_of_call = layers.install(tracer)
        ctx = _setup(workload, seed, [])  # after install: bound methods see wrappers
        tracer.active = True
        reps.append(_artefact(workload, ctx))
        tracer.active = False
        tracer.uninstall()

    outcomes = [outcome for _, outcome, _ in reps if outcome is not None]
    first = outcomes[0] if outcomes else None
    digests = [o.digests for o in outcomes]
    if any(d != digests[0] for d in digests):
        problems.append("simulated results differ between runs of one seed")
    attempted = len(reps)
    failed = sum(1 for _, _, checks in reps if checks)

    if trace:
        decide_ms = [s * 1e3 for s in timer.samples]
        p95, beyond = 0.0, 0
        try:
            p95, beyond = tail_percentile(decide_ms, 95)
        except ValueError as exc:
            problems.append(f"decide.ms_p95: {exc}")
        traced_wall, traced_outcome, _ = reps[-1]
        facts = dict(traced_outcome.facts) if traced_outcome else {}
        facts["reported_runs"] = first.reported_runs if first else 0
        metrics, self_total, top_s = layers.layer_metrics(tracer, layer_of_call, facts)
        if abs(self_total - top_s) > 1e-6 * max(top_s, 1.0):
            problems.append(f"layer self times {self_total} != top-level spans {top_s}")
        metrics.update({
            "trace.wall_s": traced_wall,
            "trace.unattributed_s": traced_wall - top_s,
            "trace.overhead_share": traced_wall / wall_s - 1.0 if wall_s else 0.0,
            "setup.platform_s": median([s[1] for s in setups]),
            "setup.inputs_s": median([s[2] for s in setups]),
            "decide.ms_p50": median(decide_ms) if decide_ms else 0.0,
            "decide.ms_p95": p95,
            "decide.samples": len(decide_ms),
            "decide.tail_samples": beyond,
        })
        for key in ("violation_pct", "energy_ratio", "p99_latency_s"):
            metrics[f"sim.{key}"] = first.sim[key] if first else 0.0
        units = per_layer_units()
        _write_spans(name, seed, tracer, layer_of_call)
    else:
        metrics = {
            "wall_s": wall_s,
            "setup_s": median([s[0] for s in setups]),
            "intervals_per_s": first.reported_intervals / wall_s if first else 0.0,
            "peak_rss_mb": peak_rss_mb(),
            "success_rate": (attempted - failed) / attempted,
            "sim_epi_nj": first.sim["epi_nj"] if first else 0.0,
        }
        units = END_TO_END_UNITS

    detail = {
        "workload": name,
        "seed": seed,
        "seeded_inputs": workload.seeded,
        "trace": int(trace),
        "provenance": provenance(ROOT),
        "input_digest": input_digest,
        "setup_samples_s": setups,
        "wall_samples_s": [wall for wall, _, _ in reps],
        "failed_checks": [checks for _, _, checks in reps],
        "problems": problems,
        "digests": digests,
        "sim": first.sim if first else {},
        "metrics": metrics,
    }
    line = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    return line, detail


def _write_spans(name: str, seed: int, tracer, layer_of_call: list[int]) -> None:
    from perfbench.layers import LAYERS

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "calls": tracer.calls,
        "layer_of_call": [LAYERS[i].name for i in layer_of_call],
        "span_fields": ["call", "start_s", "end_s", "parent", "units"],
        "spans": tracer.spans,
    }
    path = OUT_DIR / f"{name}-seed{seed}-spans.json"
    path.write_text(json.dumps(record, separators=(",", ":")))


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own fresh process, one after another."""
    ok = True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:34s} {entry['value']:>16.6g} {entry['unit']}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)

    # Serial workloads: one BLAS thread, set before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    line, detail = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    detail_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=1) + "\n")
    for metric, entry in line["metrics"].items():
        print(f"{metric:34s} {entry['value']:>16.6g} {entry['unit']}")
    for problem in detail["problems"]:
        print(f"problem: {problem}")
    for checks in detail["failed_checks"]:
        for check in checks:
            print(f"failed check: {check}")
    prov = detail["provenance"]
    print(f"provenance: git {prov['git_sha']} src {prov['src_sha256'][:16]} "
          f"python {prov['python']} numpy {prov['numpy']} scipy {prov['scipy']} "
          f"blas {prov['blas']['name']} x{prov['blas_threads']} cpus {prov['cpus']} "
          f"host {prov['host']}")
    print(f"detail: {detail_path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
