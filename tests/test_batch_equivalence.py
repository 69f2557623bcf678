"""Batched evaluation must be *bit-identical* to the sequential path.

The batched candidate pipeline (``solve_many`` / ``predict_many`` /
``evaluate_many``) exists purely as a performance optimization: SuperLU
back-substitutes multi-RHS columns independently, LAPACK solves stacked
dense systems independently, and the Eq. (7)/(11) ratio algebra is
elementwise. These tests pin the resulting contract — equality to the
last bit, not approximate agreement — so any future vectorization that
reassociates floating-point arithmetic fails loudly instead of silently
shifting controller decisions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import EngineConfig, SimulationEngine
from repro.core.estimator import NextIntervalEstimator, predict_ips_many
from repro.core.local_estimator import LocalBandedEstimator
from repro.core.problem import EnergyProblem
from repro.core.state import ActuatorState
from repro.core.system import build_system
from repro.core.tecfan import TECfanController
from repro.perf import splash2_workload
from repro.perf.ips import IPSTracker
from repro.perf.splash2 import REF_FREQ_GHZ
from repro.perf.workload import WorkloadRun
from repro.power.dvfs import SCC_DVFS
from repro.power.dynamic import DynamicPowerTracker
from repro.server.trace_workload import ServerIPSPredictor

ESTIMATE_SCALARS = (
    "peak_temp_c",
    "p_chip_w",
    "p_cores_w",
    "p_tec_w",
    "p_fan_w",
    "ips_chip",
    "epi",
)


@pytest.fixture
def system():
    return build_system(rows=2, cols=2)


def _primed_estimator(cls, system, seed=0):
    est = cls(system=system, ips_predictor=IPSTracker(dvfs=system.dvfs))
    rng = np.random.default_rng(seed)
    state = ActuatorState.initial(
        system.n_tec_devices, system.n_cores, system.dvfs.max_level, 2
    )
    # Anchor mid-table so one-level moves exist in both directions.
    mid = system.dvfs.max_level // 2
    state = state.with_dvfs_vector(np.full(system.n_cores, mid))
    temps = 60.0 + 10.0 * rng.random(system.nodes.n_components)
    p = 1.0 + rng.random(system.nodes.n_components)
    ips = 1e9 * (1.0 + rng.random(system.n_cores))
    est.begin_interval(temps, p, ips, state, 2e-3)
    return est, state


def _candidates(system, state):
    cands = []
    for core in range(system.n_cores):
        cands.append(state.with_dvfs(core, int(state.dvfs[core]) + 1))
        cands.append(state.with_dvfs(core, int(state.dvfs[core]) - 1))
    for dev in range(min(4, system.n_tec_devices)):
        cands.append(state.with_tec(dev, 1.0))
    cands.append(state.with_fan(3))
    cands.append(state)
    cands.append(cands[0])  # in-batch duplicate
    return cands


# ----------------------------------------------------------------------
# Layer primitives
# ----------------------------------------------------------------------
def test_solve_many_matches_solve_bitwise(system):
    rng = np.random.default_rng(1)
    p = 1.0 + rng.random((7, system.nodes.n_components))
    tec = np.zeros(system.n_tec_devices)
    tec[:3] = 1.0
    batched = system.solver.solve_many(p, 2, tec)
    for b in range(p.shape[0]):
        single = system.solver.solve(p[b], 2, tec)
        assert np.array_equal(batched[b], single)


def test_solve_many_rejects_vector_input(system):
    from repro.exceptions import ThermalModelError

    with pytest.raises(ThermalModelError):
        system.solver.solve_many(
            np.ones(system.nodes.n_components), 1,
            np.zeros(system.n_tec_devices),
        )


def test_dynamic_tracker_predict_many_bitwise(system):
    rng = np.random.default_rng(2)
    tracker = DynamicPowerTracker(
        dvfs=system.dvfs, tile_of=system.chip.tile_of()
    )
    tracker.observe(
        rng.random(system.nodes.n_components),
        np.full(system.n_cores, 3),
    )
    levels = rng.integers(0, system.dvfs.max_level + 1,
                          size=(9, system.n_cores))
    batched = tracker.predict_many(levels)
    for b in range(levels.shape[0]):
        assert np.array_equal(batched[b], tracker.predict(levels[b]))


def test_ips_tracker_predict_many_bitwise(system):
    rng = np.random.default_rng(3)
    tracker = IPSTracker(dvfs=system.dvfs)
    tracker.observe(
        1e9 * rng.random(system.n_cores), np.full(system.n_cores, 2)
    )
    levels = rng.integers(0, system.dvfs.max_level + 1,
                          size=(9, system.n_cores))
    batched = tracker.predict_many(levels)
    for b in range(levels.shape[0]):
        assert np.array_equal(batched[b], tracker.predict(levels[b]))


def test_server_predictor_predict_many_bitwise():
    rng = np.random.default_rng(4)
    pred = ServerIPSPredictor(dvfs=SCC_DVFS, peak_ips=4e9)
    pred.observe(3e9 * rng.random(4), np.full(4, 3))
    levels = rng.integers(0, SCC_DVFS.max_level + 1, size=(9, 4))
    batched = pred.predict_many(levels)
    for b in range(levels.shape[0]):
        assert np.array_equal(batched[b], pred.predict(levels[b]))
    assert np.array_equal(
        pred.predict_chip_batch(levels), batched.sum(axis=1)
    )


def test_predict_ips_many_falls_back_without_batched_method():
    class Plain:
        def observe(self, ips, dvfs_levels):
            pass

        def predict(self, dvfs_levels):
            return np.asarray(dvfs_levels, dtype=float) * 2.0

    levels = np.arange(12).reshape(4, 3)
    out = predict_ips_many(Plain(), levels)
    assert np.array_equal(out, levels * 2.0)


# ----------------------------------------------------------------------
# Estimators
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", [NextIntervalEstimator, LocalBandedEstimator])
def test_evaluate_many_matches_evaluate_bitwise(system, cls):
    est_batched, state = _primed_estimator(cls, system)
    est_seq, _ = _primed_estimator(cls, system)
    cands = _candidates(system, state)
    batched = est_batched.evaluate_many(cands)
    sequential = [est_seq.evaluate(c) for c in cands]
    for b, s in zip(batched, sequential):
        assert np.array_equal(b.t_nodes_k, s.t_nodes_k)
        for name in ESTIMATE_SCALARS:
            assert getattr(b, name) == getattr(s, name)
    # Complexity accounting must agree too: the benchmark's O(NL + N^2 M)
    # claim counts evaluations, not wall time.
    assert est_batched.n_evaluations == est_seq.n_evaluations
    if hasattr(est_batched, "n_core_solves"):
        assert est_batched.n_core_solves == est_seq.n_core_solves


@pytest.mark.parametrize("cls", [NextIntervalEstimator, LocalBandedEstimator])
def test_evaluate_many_populates_memo_cache(system, cls):
    est, state = _primed_estimator(cls, system)
    cands = _candidates(system, state)
    first = est.evaluate_many(cands)
    n_after_batch = est.n_evaluations
    # Every candidate is now memoized: further evaluation is free.
    for cand, got in zip(cands, first):
        assert est.evaluate(cand) is got
    assert est.evaluate_many(cands) == first
    assert est.n_evaluations == n_after_batch


@pytest.mark.parametrize("cls", [NextIntervalEstimator, LocalBandedEstimator])
def test_evaluate_many_requires_begin_interval(system, cls):
    from repro.exceptions import ControlError

    est = cls(system=system, ips_predictor=IPSTracker(dvfs=system.dvfs))
    state = ActuatorState.initial(
        system.n_tec_devices, system.n_cores, system.dvfs.max_level, 1
    )
    with pytest.raises(ControlError):
        est.evaluate_many([state])


# ----------------------------------------------------------------------
# Whole-engine decision identity
# ----------------------------------------------------------------------
class SequentialTECfan(TECfanController):
    """TECfan with its candidate rounds evaluated one state at a time.

    The reference for the array rounds: every DVFS candidate is an
    :class:`ActuatorState` passed through ``estimator.evaluate`` and the
    winner is chosen by a running first-strict-minimum scan.
    """

    def _candidate_states(self, work, system, direction):
        max_level = system.dvfs.max_level
        health = self._health
        if self.chip_level_dvfs:
            new_levels = np.clip(work.dvfs + direction, 0, max_level)
            if np.array_equal(new_levels, work.dvfs):
                return []
            return [work.with_dvfs_vector(new_levels)]
        limit = max_level if direction > 0 else 0
        return [
            work.with_dvfs(core, int(work.dvfs[core]) + direction)
            for core in range(system.n_cores)
            if work.dvfs[core] != limit
            and (health is None or health.dvfs_ok[core])
        ]

    def _hot_iterations(self, state, estimator, problem):
        system = estimator.system
        work = state
        for _ in range(self.max_iterations):
            self.n_hot_iterations += 1
            est = estimator.evaluate(work)
            if self._ok(est, problem):
                return work, est
            moved = False
            stages = ("tec", "dvfs") if self.tec_first else ("dvfs", "tec")
            for stage in stages:
                if stage == "tec":
                    device = self._tec_over_hottest_violation(
                        work, est, system, problem
                    )
                    if device is not None:
                        work = work.with_tec(device, 1.0)
                        moved = True
                        break
                else:
                    candidates = self._candidate_states(work, system, -1)
                    if candidates:
                        best = min(
                            (estimator.evaluate(c) for c in candidates),
                            key=lambda e: e.epi,
                        )
                        work = best.state
                        moved = True
                        break
            if not moved:
                return work, est
        return work, estimator.evaluate(work)

    def _best_raise(
        self, work, cur, estimator, problem, system, raises_accepted=0
    ):
        margin = self.coupling_penalty_c * raises_accepted
        best = None
        for c in self._candidate_states(work, system, +1):
            e = estimator.evaluate(c)
            gains = e.ips_chip > cur.ips_chip * (1.0 + self.ips_gain_rel)
            if gains and self._ok(e, problem, margin):
                if best is None or e.epi < best.epi:
                    best = e
        return best

    def _best_lowering(self, work, cur, estimator, problem, system):
        best = None
        for c in self._candidate_states(work, system, -1):
            e = estimator.evaluate(c)
            neutral = e.ips_chip >= cur.ips_chip * (1.0 - self.ips_loss_rel)
            saves = e.epi < cur.epi * (1.0 - self.epi_improvement_rel)
            if neutral and saves and self._ok(e, problem):
                if best is None or e.epi < best.epi:
                    best = e
        return best


def _engine_run(controller, max_time_s=0.05):
    system = build_system(rows=2, cols=2)
    wl = splash2_workload("lu", 4, system.chip)
    engine = SimulationEngine(
        system,
        EnergyProblem(t_threshold_c=70.0),
        EngineConfig(max_time_s=max_time_s),
    )
    return engine.run(WorkloadRun(wl, system.chip, REF_FREQ_GHZ), controller)


@pytest.mark.parametrize("kind", ["banded", "full"])
def test_engine_metrics_identical_batched_vs_sequential(kind):
    res_b = _engine_run(TECfanController(estimator_kind=kind))
    res_s = _engine_run(SequentialTECfan(estimator_kind=kind))
    assert res_b.metrics == res_s.metrics
    assert res_b.trace._rows == res_s.trace._rows
    assert res_b.final_state.key() == res_s.final_state.key()
    # The hardware counts charge each candidate alike in both paths.
    assert res_b.estimator.n_evaluations == res_s.estimator.n_evaluations
    if kind == "banded":
        assert (
            res_b.estimator.n_core_solves == res_s.estimator.n_core_solves
        )


@pytest.mark.parametrize("kind", ["banded", "full"])
def test_chip_level_rounds_match_sequential(kind):
    res_b = _engine_run(
        TECfanController(estimator_kind=kind, chip_level_dvfs=True)
    )
    res_s = _engine_run(
        SequentialTECfan(estimator_kind=kind, chip_level_dvfs=True)
    )
    assert res_b.trace._rows == res_s.trace._rows
    assert res_b.final_state.key() == res_s.final_state.key()


class _Health:
    """A fixed actuator-health view (the engine's monitor pushes these)."""

    def __init__(self, system, dead_cores=(), dead_devices=()):
        self.dvfs_ok = np.ones(system.n_cores, dtype=bool)
        self.dvfs_ok[list(dead_cores)] = False
        self.tec_ok = np.ones(system.n_tec_devices, dtype=bool)
        self.tec_ok[list(dead_devices)] = False
        self.fan_ok = True


@pytest.mark.parametrize("kind", ["banded", "full"])
@pytest.mark.parametrize("threshold_offset_c", [-12.0, 3.0])
def test_health_masked_decisions_match_sequential(
    system, kind, threshold_offset_c
):
    """Masked cores and devices drop out of both paths' rounds alike,
    on a hot chip (throttling) and a cool one (raises and lowerings)."""
    cls = LocalBandedEstimator if kind == "banded" else NextIntervalEstimator
    est_a, state = _primed_estimator(cls, system, seed=5)
    est_b, _ = _primed_estimator(cls, system, seed=5)
    peak = est_a.evaluate(state).peak_temp_c
    problem = EnergyProblem(t_threshold_c=peak + threshold_offset_c)
    health = _Health(system, dead_cores=(1,), dead_devices=range(0, 36, 3))
    outs = []
    for ctrl_cls, est in ((TECfanController, est_a), (SequentialTECfan, est_b)):
        ctrl = ctrl_cls(estimator_kind=kind)
        ctrl.set_actuator_health(health)
        temps = est.predicted_component_temps_c()
        outs.append(ctrl.decide(state, temps, est, problem))
    assert outs[0].key() == outs[1].key()
    assert outs[0].dvfs[1] == state.dvfs[1]  # the masked core never moves
    assert est_a.n_evaluations == est_b.n_evaluations
