"""Live-run observability: status snapshots, watch/top views, Prometheus.

Until now every run was a black box until it exited — telemetry is
post-hoc (an in-memory session or a streamed JSONL file read after the
fact). This module is the *in-flight* plane, in three layers:

1. **Status snapshots.** The engine (:class:`RunStatusReporter`) and the
   worker pool (:class:`PoolStatusReporter`) periodically serialize a
   compact, versioned status record — sim-time progress, wall-clock ETA
   from recent throughput, per-core temperatures and headroom vs
   ``t_threshold_c``, the EPI running average, cache hit rates,
   checkpoint age, per-worker dispatch state — to a single sidecar file.
   Writes reuse ``checkpoint.py``'s tmp+fsync+rename dance
   (:func:`write_status`), so a polling reader always sees either the
   previous or the next *complete* snapshot, never a torn one.
   Snapshots are pure reads of loop state: a run with a status file is
   bit-identical (same ``result_digest``) to the same run without one.

2. **Consumers.** :func:`render_watch` / :func:`render_top` turn a
   snapshot into the ``tecfan watch`` / ``tecfan top`` terminal views
   (progress bar, ETA, headroom sparkline over the snapshot history,
   anomaly flags reusing the ``tracetools`` thresholds; one row per
   worker for pools, replayed-vs-live cell counts for journal-resumed
   sweeps). Both degrade to ``--once`` plain text for CI and piping.

3. **Exposition.** :class:`MetricsServer` serves the active
   :class:`~repro.obs.metrics.MetricsRegistry` plus live status gauges
   in Prometheus text format over a stdlib ``http.server`` thread
   (``tecfan ... --metrics-port N``), so a long simulation can be
   scraped like any production service.

Cadence is wall-clock (``every_s``): the per-interval cost when due is
one ``time.monotonic()`` call and a compare, and the measured overhead
of snapshotting at the default cadence is gated at <= 3% by
``benchmarks/bench_overhead.py``. Counters: ``live.snapshots_written``,
``live.snapshot_bytes``, and ``parallel.heartbeats`` (pool snapshots).
"""

from __future__ import annotations

import json
import os
import time
from collections import deque

from repro.exceptions import ObservabilityError
from repro.obs import telemetry as obs

__all__ = [
    "STATUS_SCHEMA",
    "FleetStatusReporter",
    "MetricsServer",
    "PoolStatusReporter",
    "RunStatusReporter",
    "prometheus_text",
    "read_status",
    "render_fleet",
    "render_status",
    "render_top",
    "render_watch",
    "status_anomalies",
    "write_status",
]

#: Version of the status-record layout. Bump on any incompatible change
#: to the keys or their meaning; :func:`read_status` rejects others.
STATUS_SCHEMA = 1

#: Snapshots retained in the in-file history ring (the watch sparkline
#: and anomaly scan read these, so consumers stay stateless).
HISTORY_LEN = 64

#: (wall, progress) samples used for the recent-throughput ETA.
RATE_WINDOW = 16

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


# ----------------------------------------------------------------------
# The sidecar file: atomic write, validated read
# ----------------------------------------------------------------------
def write_status(path, status: dict) -> str:
    """Atomically write one status snapshot as JSON; returns the path.

    Same crash-safety contract as a checkpoint (tmp + fsync + rename via
    :func:`repro.checkpoint.atomic_write_bytes`): a reader polling the
    file mid-write sees either the previous complete snapshot or the new
    one — never a torn file. JSON (not pickle) on purpose: ``tecfan
    watch``, Prometheus relabeling, and foreign tooling all read it.
    """
    from repro.checkpoint import atomic_write_bytes

    from repro.obs.manifest import jsonable

    status = dict(status)
    status.setdefault("schema", STATUS_SCHEMA)
    blob = (json.dumps(jsonable(status)) + "\n").encode()
    atomic_write_bytes(path, blob)
    obs.incr("live.snapshots_written")
    obs.incr("live.snapshot_bytes", len(blob))
    return os.fspath(path)


def read_status(path) -> dict:
    """Load and validate one status snapshot.

    Raises :class:`~repro.exceptions.ObservabilityError` when the file
    is missing, unparsable, or carries an unknown schema version. Thanks
    to the atomic writer there is no torn-file case to tolerate — a
    parse failure means the file is not a status sidecar at all.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except FileNotFoundError:
        raise ObservabilityError(f"no status file at {path}") from None
    except OSError as exc:
        raise ObservabilityError(
            f"status file {path} is unreadable: {exc}"
        ) from exc
    try:
        status = json.loads(blob)
    except json.JSONDecodeError as exc:
        raise ObservabilityError(
            f"status file {path} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(status, dict):
        raise ObservabilityError(f"status file {path} is not a snapshot")
    schema = status.get("schema")
    if schema != STATUS_SCHEMA:
        raise ObservabilityError(
            f"status file {path} has schema {schema!r}; this build "
            f"supports {STATUS_SCHEMA}"
        )
    return status


class _Cadence:
    """Wall-clock due-time bookkeeping shared by the reporters.

    The first call is always due (so watchers latch on immediately);
    afterwards snapshots fire at most once per ``every_s`` seconds of
    wall time. The hot-path cost between due points is one
    ``time.monotonic()`` call and a compare.
    """

    __slots__ = ("every_s", "_next_due")

    def __init__(self, every_s: float):
        every_s = float(every_s)
        if every_s <= 0:
            raise ObservabilityError("status cadence must be positive")
        self.every_s = every_s
        self._next_due = 0.0

    def due(self, now: float) -> bool:
        return now >= self._next_due

    def advance(self, now: float) -> None:
        self._next_due = now + self.every_s


class _StatusReporter:
    """Cadence-gated status snapshots: the base of the three reporters.

    Holds the sidecar path, the wall-clock cadence, the snapshot
    sequence number and the history/throughput rings, and stamps every
    snapshot with the common envelope (``schema``, ``kind``, ``seq``,
    ``pid``, ``written_unix``, ``done``). Subclasses build the
    kind-specific rest of the record in ``_build``.
    """

    kind = "?"
    #: Counter bumped per snapshot on top of :func:`write_status`'s own.
    counter: str | None = None

    def __init__(self, path, every_s: float, max_time_s: float = 0.0):
        self.path = os.fspath(path)
        self.cadence = _Cadence(every_s)
        self.max_time_s = float(max_time_s)
        self.seq = 0
        self._history: deque = deque(maxlen=HISTORY_LEN)
        self._rate: deque = deque(maxlen=RATE_WINDOW)

    def maybe_report(self, *, done: bool = False, force: bool = False,
                     **fields) -> bool:
        """Write a snapshot if one is due; returns whether it was."""
        now = time.monotonic()
        if not force and not self.cadence.due(now):
            return False
        self.cadence.advance(now)
        status = {
            "schema": STATUS_SCHEMA,
            "kind": self.kind,
            "seq": self.seq,
            "pid": os.getpid(),
            "written_unix": time.time(),
            "done": bool(done),
        }
        status.update(self._build(now, done, **fields))
        write_status(self.path, status)
        if self.counter is not None:
            obs.incr(self.counter)
        self.seq += 1
        return True

    def _build(self, now: float, done: bool, **fields) -> dict:
        raise NotImplementedError

    def _eta(self, now: float, progress: float, remaining: float | None = None):
        """(progress per wall-second, wall seconds left) from recent samples.

        ``remaining`` defaults to the simulated time left until
        ``max_time_s``, with ``progress`` the simulated clock.
        """
        self._rate.append((now, progress))
        if len(self._rate) < 2:
            return None, None
        (w0, p0), (w1, p1) = self._rate[0], self._rate[-1]
        if w1 <= w0 or p1 <= p0:
            return None, None
        rate = (p1 - p0) / (w1 - w0)
        if remaining is None:
            remaining = max(0.0, self.max_time_s - progress)
        return rate, remaining / rate

    @staticmethod
    def _counters(prefixes: tuple = ()) -> dict:
        """The active session's counters (those under ``prefixes``, if any)."""
        tel = obs.get_telemetry()
        if tel is None:
            return {}
        return {
            n: c.value
            for n, c in sorted(tel.metrics._counters.items())
            if not prefixes or n.startswith(prefixes)
        }

    def _progress(self, now: float, time_s: float, done: bool):
        """(fraction, rate, eta_s) of a simulated clock run to max_time_s."""
        rate, eta_s = self._eta(now, time_s)
        if done:
            return 1.0, rate, 0.0
        fraction = (
            min(1.0, time_s / self.max_time_s) if self.max_time_s > 0 else 0.0
        )
        return fraction, rate, eta_s


# ----------------------------------------------------------------------
# Engine-side reporter
# ----------------------------------------------------------------------
class RunStatusReporter(_StatusReporter):
    """Periodic status snapshots of one live engine run.

    Built by :meth:`SimulationEngine.run`/``resume`` when
    ``EngineConfig.status_path`` is set, and called from the simulate
    loop top — which every iteration (including the one right after a
    fast-forwarded chunk) passes through, so snapshots also land on
    fast-forward boundaries. Reporting is side-effect-free: it reads
    loop state, trace rows and (when a session is active) telemetry
    counters, and never touches the plant, the RNGs, or the trace — the
    run's ``result_digest`` is identical with or without it.
    """

    kind = "engine-run"

    def __init__(
        self,
        path,
        *,
        every_s: float = 1.0,
        max_time_s: float = 0.0,
        t_threshold_c: float | None = None,
        system=None,
        workload: str = "?",
        policy: str = "?",
        checkpoint=None,
    ):
        super().__init__(path, every_s, max_time_s)
        self.t_threshold_c = t_threshold_c
        self.system = system
        self.workload = workload
        self.policy = policy
        #: The run's ``_Checkpointer`` (or None); its ``last_write_unix``
        #: stamp feeds the checkpoint-age field.
        self.checkpoint = checkpoint
        # Incremental trace accumulation: O(new rows) per snapshot.
        self._row_pos = 0
        self._energy_j = 0.0
        self._run_peak_c = float("-inf")
        self._last_row = None

    def _build(
        self, now, done, *, time_s, t_nodes, trace, intervals,
        total_instructions, state,
    ) -> dict:
        # Fold the trace rows grown since the last snapshot.
        if trace is not None:
            rows = trace.rows_since(self._row_pos)
            for r in rows:
                # columns: time_s, dt_s, peak_temp_c, p_chip_w, ...
                self._energy_j += r[3] * r[1]
                if r[2] > self._run_peak_c:
                    self._run_peak_c = r[2]
            self._row_pos += len(rows)
            if rows:
                self._last_row = rows[-1]

        thermal = None
        if self.system is not None and t_nodes is not None:
            t_comp = self.system.component_temps_c(t_nodes)
            current_peak = float(t_comp.max())
            thermal = {
                "core_temps_c": [round(float(t), 4) for t in t_comp],
                "peak_temp_c": current_peak,
                "run_peak_c": (
                    self._run_peak_c
                    if self._run_peak_c > float("-inf")
                    else current_peak
                ),
                "t_threshold_c": self.t_threshold_c,
                "headroom_c": (
                    self.t_threshold_c - current_peak
                    if self.t_threshold_c is not None
                    else None
                ),
            }

        fraction, rate, eta_s = self._progress(now, time_s, done)

        counters = self._counters()
        cache = None
        hits = counters.get("thermal.propagator_hits")
        misses = counters.get("thermal.propagator_misses")
        if hits is not None and misses is not None and hits + misses > 0:
            cache = {
                "propagator_hits": hits,
                "propagator_misses": misses,
                "propagator_hit_rate": hits / (hits + misses),
            }
        ff = counters.get("engine.fast_forwarded_intervals")
        if ff is not None and intervals > 0:
            cache = dict(cache or {})
            cache["fast_forwarded_intervals"] = ff
            cache["fast_forward_fraction"] = ff / intervals

        checkpoint = None
        if self.checkpoint is not None:
            last = getattr(self.checkpoint, "last_write_unix", None)
            checkpoint = {
                "path": self.checkpoint.path,
                "age_s": (time.time() - last) if last is not None else None,
            }

        if self._last_row is not None:
            r = self._last_row
            self._history.append({
                "time_s": r[0],
                "peak_temp_c": r[2],
                "p_chip_w": r[3],
                "ips_chip": r[7],
                "tec_on": r[8],
                "fan_level": r[9],
                "headroom_c": (
                    self.t_threshold_c - r[2]
                    if self.t_threshold_c is not None
                    else None
                ),
            })

        return {
            "workload": self.workload,
            "policy": self.policy,
            "t_threshold_c": self.t_threshold_c,
            "progress": {
                "sim_time_s": time_s,
                "max_time_s": self.max_time_s,
                "fraction": fraction,
                "intervals": intervals,
                "instructions": total_instructions,
                "rate_sim_per_wall": rate,
                "eta_s": eta_s,
            },
            "thermal": thermal,
            "energy": {
                "energy_j": self._energy_j,
                "instructions": total_instructions,
                "epi_j": (
                    self._energy_j / total_instructions
                    if total_instructions > 0
                    else None
                ),
                "avg_power_w": self._energy_j / time_s if time_s > 0 else None,
            },
            "cache": cache,
            "counters": counters,
            "checkpoint": checkpoint,
            "fan_level": int(state.fan_level) if state is not None else None,
            "history": list(self._history),
        }


# ----------------------------------------------------------------------
# Pool-side reporter (heartbeats)
# ----------------------------------------------------------------------
class PoolStatusReporter(_StatusReporter):
    """Periodic status snapshots of one pool/sweep fan-out.

    The heartbeats piggyback the existing duplex pipes: the parent-side
    scheduler already observes every dispatch and every reply, so the
    per-worker rows (state, current cell, tasks done, last-reply age)
    are maintained from those messages alone — workers never send
    unsolicited traffic. Journal-resumed fan-outs report replayed cells
    separately from live ones (``tasks.replayed`` and
    ``replayed_indices``), so ``tecfan top`` can show what was skipped.
    Each snapshot increments ``parallel.heartbeats``.
    """

    kind = "pool"
    counter = "parallel.heartbeats"

    def __init__(self, path, *, every_s: float = 1.0, total: int = 0,
                 meta: dict | None = None):
        super().__init__(path, every_s)
        self.total = int(total)
        self.meta = dict(meta or {})
        #: Outer payload indices for journal-resumed sub-batches: the
        #: recursed ``parallel_map`` dispatches sub-indices, this maps
        #: them back to the caller's cell numbering for display.
        self.index_map: list | None = None
        self.replayed: list = []
        self.done = 0
        self.failed = 0
        self.retries = 0
        self.timeouts = 0
        self.shm_bytes = 0
        self._workers: dict = {}

    # -- bookkeeping fed by the scheduler ------------------------------
    def _display_index(self, index: int) -> int:
        if self.index_map is not None and 0 <= index < len(self.index_map):
            return self.index_map[index]
        return index

    def note_replayed(self, indices) -> None:
        self.replayed = sorted(int(i) for i in indices)

    def worker_dispatch(self, pid: int, index: int) -> None:
        entry = self._workers.setdefault(
            pid, {"pid": pid, "tasks_done": 0, "last_reply_unix": None}
        )
        entry["state"] = "busy"
        entry["index"] = self._display_index(index)

    def worker_reply(self, pid: int) -> None:
        entry = self._workers.get(pid)
        if entry is not None:
            entry["state"] = "idle"
            entry["index"] = None
            entry["tasks_done"] += 1
            entry["last_reply_unix"] = time.time()

    def worker_retired(self, pid: int) -> None:
        self._workers.pop(pid, None)

    def note_success(self) -> None:
        self.done += 1

    def note_failure(self, kind: str) -> None:
        self.failed += 1

    def note_retry(self) -> None:
        self.retries += 1

    def note_timeout(self) -> None:
        self.timeouts += 1

    def add_shm(self, nbytes: int) -> None:
        self.shm_bytes += int(nbytes)

    # -- reporting -----------------------------------------------------
    def finish(self) -> None:
        """Force the final (``done``) snapshot after the fan-out."""
        self.maybe_report(in_flight=0, queued=0, done=True, force=True)

    def _build(self, now, done, *, in_flight: int = 0, queued: int = 0) -> dict:
        settled = self.done + self.failed + len(self.replayed)
        rate, eta_s = self._eta(
            now, self.done, remaining=max(0, self.total - settled)
        )
        now_unix = time.time()
        workers = []
        for pid in sorted(self._workers):
            w = self._workers[pid]
            last = w.get("last_reply_unix")
            workers.append({
                "pid": pid,
                "state": w.get("state", "idle"),
                "index": w.get("index"),
                "tasks_done": w["tasks_done"],
                "last_reply_age_s": (
                    now_unix - last if last is not None else None
                ),
            })
        self._history.append({"done": settled})
        return {
            "meta": self.meta,
            "tasks": {
                "total": self.total,
                "replayed": len(self.replayed),
                "done": self.done,
                "failed": self.failed,
                "retries": self.retries,
                "timeouts": self.timeouts,
                "in_flight": int(in_flight),
                "queued": int(queued),
            },
            "progress": {
                "fraction": (
                    1.0 if done
                    else min(1.0, settled / self.total) if self.total else 0.0
                ),
                "rate_per_s": rate,
                "eta_s": 0.0 if done else eta_s,
            },
            "shm_bytes": self.shm_bytes,
            "workers": workers,
            "replayed_indices": self.replayed[:HISTORY_LEN],
            "history": list(self._history),
        }


class FleetStatusReporter(_StatusReporter):
    """Periodic ``fleet``-kind snapshots of one live fleet shard.

    Written from the :class:`repro.fleet.sim.FleetSim` loop top (serial
    single-shard runs; pooled shard fan-outs report ``pool``-kind
    heartbeats through ``parallel_map`` instead). Same contract as the
    engine reporter: side-effect-free reads of loop state, so a run's
    digest is identical with or without a status file attached.
    """

    kind = "fleet"

    def __init__(
        self,
        path,
        *,
        every_s: float = 1.0,
        n_nodes: int = 0,
        max_time_s: float = 0.0,
        t_threshold_c: float | None = None,
        router: str = "?",
        stepper: str = "?",
    ):
        super().__init__(path, every_s, max_time_s)
        self.n_nodes = int(n_nodes)
        self.t_threshold_c = t_threshold_c
        self.router = router
        self.stepper = stepper

    def final(self, **fields) -> None:
        """Force the terminal (``done``) snapshot."""
        self.maybe_report(force=True, done=True, **fields)

    def _build(self, now, done, **f) -> dict:
        time_s = float(f.get("time_s", 0.0))
        fraction, rate, eta_s = self._progress(now, time_s, done)
        peaks = f.get("node_peak_c")
        nodes = []
        if peaks is not None:
            fans = f.get("fan_levels")
            tec_on = f.get("tec_on")
            order = sorted(
                range(len(peaks)), key=lambda i: -float(peaks[i])
            )[:8]
            for i in order:
                nodes.append({
                    "node": i,
                    "peak_temp_c": round(float(peaks[i]), 3),
                    "fan_level": int(fans[i]) if fans is not None else None,
                    "tec_on": float(tec_on[i]) if tec_on is not None else None,
                })
        last_peak = f.get("last_peak_c")
        self._history.append({
            "time_s": time_s,
            "peak_temp_c": last_peak,
            "power_w": f.get("power_w"),
            "p99_s": f.get("p99_s"),
            "headroom_c": (
                self.t_threshold_c - last_peak
                if self.t_threshold_c is not None and last_peak is not None
                else None
            ),
        })
        counters = self._counters(("fleet.", "server."))
        return {
            "router": self.router,
            "stepper": self.stepper,
            "t_threshold_c": self.t_threshold_c,
            "fleet": {
                "n_nodes": self.n_nodes,
                "peak_temp_c": f.get("peak_temp_c"),
                "last_peak_c": last_peak,
                "power_w": f.get("power_w"),
                "energy_j": f.get("energy_j"),
                "backlog_inst": f.get("backlog_inst"),
                "p99_latency_s": f.get("p99_s"),
                "utilization": f.get("utilization"),
                "class_groups": f.get("class_groups"),
            },
            "progress": {
                "sim_time_s": time_s,
                "max_time_s": self.max_time_s,
                "fraction": fraction,
                "intervals": f.get("intervals"),
                "ff_intervals": f.get("ff_intervals"),
                "rate_sim_per_wall": rate,
                "eta_s": eta_s,
            },
            "counters": counters,
            "nodes": nodes,
            "history": list(self._history),
        }


# ----------------------------------------------------------------------
# Renderers (tecfan watch / tecfan top)
# ----------------------------------------------------------------------
def _bar(fraction: float, width: int = 30) -> str:
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def _sparkline(values: list) -> str:
    vals = [float(v) for v in values if v is not None]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    span = hi - lo
    if span <= 0:
        return _SPARK_BLOCKS[0] * len(vals)
    return "".join(
        _SPARK_BLOCKS[
            min(len(_SPARK_BLOCKS) - 1,
                int((v - lo) / span * len(_SPARK_BLOCKS)))
        ]
        for v in vals
    )


def _fmt(value, spec: str = "{:.2f}", missing: str = "?") -> str:
    if value is None:
        return missing
    return spec.format(value)


def status_anomalies(status: dict) -> list:
    """Anomaly flags over the snapshot history ring.

    History entries are shaped like interval events on purpose, so this
    reuses :func:`repro.analysis.tracetools.detect_anomalies` — same
    thresholds as ``tecfan trace anomalies`` (excursion margin 0.5 degC,
    6 reversals / 20 samples, 10% EPI drift) — just at snapshot rather
    than interval granularity.
    """
    from repro.analysis import tracetools

    history = [
        dict(h, kind="interval") for h in status.get("history") or []
    ]
    if not history:
        return []
    return tracetools.detect_anomalies(
        {"events": history}, threshold_c=status.get("t_threshold_c")
    )


def render_watch(status: dict) -> str:
    """Single-run plain-text view of one ``engine-run`` snapshot."""
    lines = []
    state = "done" if status.get("done") else "running"
    lines.append(
        f"tecfan watch — {status.get('workload', '?')} / "
        f"{status.get('policy', '?')} (pid {status.get('pid', '?')}) "
        f"[{state}] seq={status.get('seq', 0)}"
    )
    prog = status.get("progress") or {}
    fraction = prog.get("fraction") or 0.0
    lines.append(
        f"progress {_bar(fraction)} {fraction * 100:5.1f}%  "
        f"sim {_fmt(prog.get('sim_time_s'), '{:.3f}')}"
        f"/{_fmt(prog.get('max_time_s'), '{:.3f}')} s  "
        f"intervals {prog.get('intervals', 0)}"
    )
    lines.append(
        f"rate {_fmt(prog.get('rate_sim_per_wall'), '{:.3g}')} sim-s/s  "
        f"eta {_fmt(prog.get('eta_s'), '{:.1f}')} s"
    )
    thermal = status.get("thermal")
    if thermal:
        headroom = thermal.get("headroom_c")
        flag = "  !! OVER THRESHOLD" if (
            headroom is not None and headroom < 0
        ) else ""
        lines.append(
            f"peak {_fmt(thermal.get('peak_temp_c'))} degC  "
            f"(run max {_fmt(thermal.get('run_peak_c'))})  "
            f"threshold {_fmt(thermal.get('t_threshold_c'))}  "
            f"headroom {_fmt(headroom, '{:+.2f}')} degC{flag}"
        )
    history = status.get("history") or []
    spark = _sparkline([h.get("headroom_c") for h in history])
    if spark:
        lines.append(f"headroom  {spark}  (last {len(history)} snapshots)")
    energy = status.get("energy") or {}
    lines.append(
        f"EPI {_fmt(energy.get('epi_j'), '{:.3e}')} J/inst  "
        f"power {_fmt(energy.get('avg_power_w'), '{:.1f}')} W  "
        f"energy {_fmt(energy.get('energy_j'), '{:.1f}')} J"
    )
    cache = status.get("cache")
    if cache:
        parts = []
        hr = cache.get("propagator_hit_rate")
        if hr is not None:
            parts.append(f"propagator {hr * 100:.1f}% hit")
        ff = cache.get("fast_forward_fraction")
        if ff is not None:
            parts.append(f"fast-forwarded {ff * 100:.1f}% of intervals")
        if parts:
            lines.append("cache: " + "  ".join(parts))
    ckpt = status.get("checkpoint")
    if ckpt:
        lines.append(
            f"checkpoint: {ckpt.get('path')} "
            f"(age {_fmt(ckpt.get('age_s'), '{:.1f}')} s)"
        )
    anomalies = status_anomalies(status)
    if anomalies:
        lines.append(f"anomalies: !! {len(anomalies)} finding(s)")
        for a in anomalies[:4]:
            lines.append(f"  - {a.kind}: {a.detail}")
    else:
        lines.append("anomalies: none detected")
    return "\n".join(lines)


def render_top(status: dict) -> str:
    """Pool/sweep plain-text view of one ``pool`` snapshot."""
    lines = []
    state = "done" if status.get("done") else "running"
    meta = status.get("meta") or {}
    label = meta.get("label", "pool")
    lines.append(
        f"tecfan top — {label} (pid {status.get('pid', '?')}) "
        f"[{state}] seq={status.get('seq', 0)}"
    )
    tasks = status.get("tasks") or {}
    total = tasks.get("total", 0)
    settled = (
        tasks.get("done", 0) + tasks.get("failed", 0)
        + tasks.get("replayed", 0)
    )
    lines.append(
        f"cells {settled}/{total} settled "
        f"({tasks.get('replayed', 0)} replayed, "
        f"{tasks.get('done', 0)} live, {tasks.get('failed', 0)} failed)  "
        f"in-flight {tasks.get('in_flight', 0)}  "
        f"queued {tasks.get('queued', 0)}  "
        f"retries {tasks.get('retries', 0)}  "
        f"timeouts {tasks.get('timeouts', 0)}"
    )
    prog = status.get("progress") or {}
    fraction = prog.get("fraction") or 0.0
    lines.append(
        f"progress {_bar(fraction)} {fraction * 100:5.1f}%  "
        f"rate {_fmt(prog.get('rate_per_s'), '{:.3g}')} cells/s  "
        f"eta {_fmt(prog.get('eta_s'), '{:.1f}')} s  "
        f"shm {status.get('shm_bytes', 0) / 2**20:.2f} MiB"
    )
    workers = status.get("workers") or []
    if workers:
        lines.append(f"{'worker':>8}  {'state':<5} {'cell':>5} "
                     f"{'done':>5}  last-reply")
        for w in workers:
            cell = w.get("index")
            lines.append(
                f"{w.get('pid', '?'):>8}  {w.get('state', '?'):<5} "
                f"{'-' if cell is None else cell:>5} "
                f"{w.get('tasks_done', 0):>5}  "
                f"{_fmt(w.get('last_reply_age_s'), '{:.1f}', '-')} s"
            )
    replayed = status.get("replayed_indices") or []
    if replayed:
        shown = ", ".join(str(i) for i in replayed[:16])
        more = f", … ({len(replayed)} total)" if len(replayed) > 16 else ""
        lines.append(f"replayed cells: {shown}{more}")
    journal = meta.get("journal")
    if journal:
        lines.append(f"journal: {journal}")
    return "\n".join(lines)


def render_fleet(status: dict) -> str:
    """Fleet plain-text view of one ``fleet`` snapshot."""
    lines = []
    state = "done" if status.get("done") else "running"
    fleet = status.get("fleet") or {}
    lines.append(
        f"tecfan top — fleet x{fleet.get('n_nodes', '?')} "
        f"({status.get('router', '?')}/{status.get('stepper', '?')}, "
        f"pid {status.get('pid', '?')}) [{state}] seq={status.get('seq', 0)}"
    )
    prog = status.get("progress") or {}
    fraction = prog.get("fraction") or 0.0
    lines.append(
        f"progress {_bar(fraction)} {fraction * 100:5.1f}%  "
        f"sim {_fmt(prog.get('sim_time_s'), '{:.0f}')}"
        f"/{_fmt(prog.get('max_time_s'), '{:.0f}')} s  "
        f"intervals {prog.get('intervals', 0)} "
        f"(+{prog.get('ff_intervals', 0)} fast-forwarded)  "
        f"rate {_fmt(prog.get('rate_sim_per_wall'), '{:.3g}')} sim-s/s  "
        f"eta {_fmt(prog.get('eta_s'), '{:.1f}')} s"
    )
    thr = status.get("t_threshold_c")
    last_peak = fleet.get("last_peak_c")
    headroom = (
        thr - last_peak if thr is not None and last_peak is not None else None
    )
    flag = "  !! OVER THRESHOLD" if (
        headroom is not None and headroom < 0
    ) else ""
    lines.append(
        f"peak {_fmt(last_peak)} degC (run max "
        f"{_fmt(fleet.get('peak_temp_c'))})  threshold {_fmt(thr)}  "
        f"headroom {_fmt(headroom, '{:+.2f}')} degC{flag}"
    )
    lines.append(
        f"power {_fmt(fleet.get('power_w'), '{:.0f}')} W  "
        f"energy {_fmt(fleet.get('energy_j'), '{:.3g}')} J  "
        f"p99 {_fmt(fleet.get('p99_latency_s'), '{:.3g}')} s  "
        f"backlog {_fmt(fleet.get('backlog_inst'), '{:.3g}')} inst  "
        f"util {_fmt(fleet.get('utilization'), '{:.2f}')}  "
        f"classes {fleet.get('class_groups', '?')}"
    )
    history = status.get("history") or []
    spark = _sparkline([h.get("headroom_c") for h in history])
    if spark:
        lines.append(f"headroom  {spark}  (last {len(history)} snapshots)")
    nodes = status.get("nodes") or []
    if nodes:
        lines.append(f"{'node':>6}  {'peak degC':>9}  {'fan':>3}  {'tec-on':>6}")
        for nd in nodes:
            lines.append(
                f"{nd.get('node', '?'):>6}  "
                f"{_fmt(nd.get('peak_temp_c')):>9}  "
                f"{_fmt(nd.get('fan_level'), '{:.0f}'):>3}  "
                f"{_fmt(nd.get('tec_on'), '{:.0f}'):>6}"
            )
    counters = status.get("counters") or {}
    if counters:
        parts = [f"{k}={int(v)}" for k, v in sorted(counters.items())]
        lines.append("counters: " + "  ".join(parts))
    return "\n".join(lines)


def render_status(status: dict) -> str:
    """Dispatch to the kind-appropriate renderer."""
    if status.get("kind") == "pool":
        return render_top(status)
    if status.get("kind") == "fleet":
        return render_fleet(status)
    return render_watch(status)


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
def _prom_name(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if (ch.isalnum() or ch in "_:") else "_")
    sanitized = "".join(out)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return "tecfan_" + sanitized


def _prom_number(value) -> str:
    v = float(value)
    if v == float("inf"):
        return "+Inf"
    return repr(v) if v != int(v) else str(int(v))


def prometheus_text(snapshot: dict | None, status: dict | None = None) -> str:
    """Render a metrics snapshot (+ live status gauges) in Prometheus
    text exposition format (version 0.0.4).

    Counters get the conventional ``_total`` suffix; histograms emit
    cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``.
    Dots and dashes in instrument names become underscores, and
    everything is prefixed ``tecfan_``.
    """
    lines: list[str] = []
    snapshot = snapshot or {}
    for name, value in sorted((snapshot.get("counters") or {}).items()):
        pname = _prom_name(name) + "_total"
        lines.append(f"# TYPE {pname} counter")
        lines.append(f"{pname} {_prom_number(value)}")
    for name, value in sorted((snapshot.get("gauges") or {}).items()):
        pname = _prom_name(name)
        lines.append(f"# TYPE {pname} gauge")
        lines.append(f"{pname} {_prom_number(value)}")
    for name, hist in sorted((snapshot.get("histograms") or {}).items()):
        pname = _prom_name(name)
        lines.append(f"# TYPE {pname} histogram")
        cumulative = 0
        for edge, count in zip(hist["edges"], hist["counts"]):
            cumulative += count
            lines.append(
                f'{pname}_bucket{{le="{_prom_number(edge)}"}} {cumulative}'
            )
        lines.append(f'{pname}_bucket{{le="+Inf"}} {hist["count"]}')
        lines.append(f"{pname}_sum {_prom_number(hist['total'])}")
        lines.append(f"{pname}_count {hist['count']}")
    if status is not None:
        live: list[tuple[str, object]] = [("live_up", 1)]
        live.append(("live_done", 1 if status.get("done") else 0))
        live.append(("live_snapshot_seq", status.get("seq", 0)))
        prog = status.get("progress") or {}
        live.append(("live_progress_fraction", prog.get("fraction")))
        live.append(("live_eta_seconds", prog.get("eta_s")))
        if status.get("kind") == "engine-run":
            live.append(("live_sim_time_seconds", prog.get("sim_time_s")))
            thermal = status.get("thermal") or {}
            live.append(("live_peak_temp_celsius",
                         thermal.get("peak_temp_c")))
            live.append(("live_headroom_celsius", thermal.get("headroom_c")))
            energy = status.get("energy") or {}
            live.append(("live_epi_joules", energy.get("epi_j")))
        elif status.get("kind") == "fleet":
            fleet = status.get("fleet") or {}
            live.append(("live_sim_time_seconds", prog.get("sim_time_s")))
            live.append(("fleet_nodes", fleet.get("n_nodes")))
            live.append(("fleet_peak_temp_celsius", fleet.get("last_peak_c")))
            live.append(("fleet_power_watts", fleet.get("power_w")))
            live.append(("fleet_p99_latency_seconds",
                         fleet.get("p99_latency_s")))
            live.append(("fleet_backlog_instructions",
                         fleet.get("backlog_inst")))
        else:
            tasks = status.get("tasks") or {}
            for key in ("total", "done", "failed", "replayed", "in_flight",
                        "queued"):
                live.append((f"pool_tasks_{key}", tasks.get(key)))
            live.append(("pool_workers", len(status.get("workers") or [])))
            live.append(("pool_shm_bytes", status.get("shm_bytes")))
        for name, value in live:
            if value is None:
                continue
            pname = "tecfan_" + name
            lines.append(f"# TYPE {pname} gauge")
            lines.append(f"{pname} {_prom_number(value)}")
    return "\n".join(lines) + "\n"


def _snapshot_safely(tel) -> dict:
    """Metrics snapshot tolerant of the single mutator thread.

    The registry has no locks (the simulator is single-threaded); the
    exposition thread only *reads*, but a new instrument created while
    the snapshot iterates can raise ``RuntimeError: dictionary changed
    size``. Retrying a handful of times makes a scrape effectively
    always succeed without adding a lock to the hot path.
    """
    for _ in range(8):
        try:
            return tel.metrics.snapshot()
        except RuntimeError:
            continue
    return {"counters": {}, "gauges": {}, "histograms": {}}


class MetricsServer:
    """Prometheus scrape endpoint over a stdlib ``http.server`` thread.

    Serves the *currently active* telemetry session's registry (so a
    scrape mid-run sees live counters) plus, when ``status_path`` is
    given, the latest status snapshot's gauges. ``port=0`` binds an
    ephemeral port (see :attr:`port`). The server thread is a daemon and
    only ever reads, so it cannot perturb the simulation.
    """

    def __init__(self, port: int = 0, *, host: str = "",
                 status_path=None, telemetry_getter=None):
        import http.server

        self.status_path = (
            os.fspath(status_path) if status_path is not None else None
        )
        self._get_tel = telemetry_getter or obs.get_telemetry
        server_self = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - http.server API
                body = server_self._render().encode()
                self.send_response(200)
                self.send_header(
                    "Content-Type", "text/plain; version=0.0.4"
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # silence per-scrape stderr
                pass

        self._server = http.server.ThreadingHTTPServer((host, port), Handler)
        self._server.daemon_threads = True
        import threading

        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True,
            name="tecfan-metrics",
        )
        self._thread.start()

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def _render(self) -> str:
        tel = self._get_tel()
        snapshot = _snapshot_safely(tel) if tel is not None else None
        status = None
        if self.status_path is not None:
            try:
                status = read_status(self.status_path)
            except ObservabilityError:
                status = None
        return prometheus_text(snapshot, status)

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
